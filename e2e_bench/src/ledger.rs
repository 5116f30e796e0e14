//! Per-layer attribution of traced spans, and the host-vs-GAP8 table.

use crate::profile::{Op, Role};
use crate::spans::Span;
use bioformers::core::descriptor::bioformer_descriptor;
use bioformers::core::BioformerConfig;
use bioformers::gap8::arch::KernelCosts;
use bioformers::gap8::latency::network_latency;
use bioformers::gap8::Gap8Spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans under one kind of root span, summed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// Root spans seen.
    pub roots: u64,
    /// Sum of root durations, ns.
    pub root_ns: u64,
    /// Sum of root self times, ns (what no GEMM span covers).
    pub self_ns: u64,
    /// `(role, op)` → (ns, calls), over children of those roots.
    pub by: BTreeMap<(Role, Op), (u64, u64)>,
}

impl Attribution {
    /// Sums every root span named `root` and its GEMM children.
    pub fn of(spans: &[Span], selfs: &[u64], root: &str) -> Self {
        let mut a = Attribution::default();
        let mut is_root = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.name == root {
                is_root[i] = true;
                a.roots += 1;
                a.root_ns += s.duration();
                a.self_ns += selfs[i];
            }
        }
        for s in spans {
            let linked = is_root.get(s.parent as usize).copied().unwrap_or(false);
            if let (true, Some((role, op))) = (linked, Role::of_span(s.name)) {
                let e = a.by.entry((role, op)).or_default();
                e.0 += s.duration();
                e.1 += 1;
            }
        }
        a
    }

    /// ns spent in `role`, all ops.
    pub fn role_ns(&self, role: Role) -> u64 {
        self.by
            .iter()
            .filter(|((r, _), _)| *r == role)
            .map(|(_, v)| v.0)
            .sum()
    }

    /// (ns, calls) of one op, all roles.
    pub fn op(&self, op: Op) -> (u64, u64) {
        self.by
            .iter()
            .filter(|((_, o), _)| *o == op)
            .fold((0, 0), |acc, (_, v)| (acc.0 + v.0, acc.1 + v.1))
    }
}

fn us(ns: u64, per: f64) -> f64 {
    if per > 0.0 {
        ns as f64 / 1e3 / per
    } else {
        0.0
    }
}

/// The `tensor.*` and `nn.other_us` metrics, per window (`per` windows).
pub fn fp32_metrics(a: &Attribution, per: f64, flops: u64, out: &mut BTreeMap<&'static str, f64>) {
    let (gemm_ns, gemm_calls) = a.op(Op::Gemm);
    let (pack_ns, pack_calls) = a.op(Op::Pack);
    out.insert("tensor.gemm_us", us(gemm_ns + pack_ns, per));
    out.insert("tensor.gemm_calls", gemm_calls as f64 / per.max(1.0));
    out.insert("tensor.pack_calls", pack_calls as f64 / per.max(1.0));
    out.insert(
        "tensor.gemm_gflops",
        if gemm_ns > 0 {
            flops as f64 / gemm_ns as f64
        } else {
            0.0
        },
    );
    for role in Role::ALL {
        out.insert(role_metric("tensor", role), us(a.role_ns(role), per));
    }
    out.insert("nn.other_us", us(a.self_ns, per));
}

/// The `quant.*` metrics, per window (`per` windows).
pub fn int8_metrics(a: &Attribution, per: f64, out: &mut BTreeMap<&'static str, f64>) {
    let (ns, calls) = a.op(Op::Qgemm);
    out.insert("quant.qgemm_us", us(ns, per));
    out.insert("quant.qgemm_calls", calls as f64 / per.max(1.0));
    for role in Role::ALL {
        out.insert(role_metric("quant", role), us(a.role_ns(role), per));
    }
    out.insert("quant.other_us", us(a.self_ns, per));
}

fn role_metric(layer: &str, role: Role) -> &'static str {
    macro_rules! names {
        ($($r:ident => $t:literal, $q:literal;)*) => {
            match (layer, role) {
                $(("tensor", Role::$r) => $t, (_, Role::$r) => $q,)*
                (_, Role::Unknown) => unreachable!("unknown GEMMs have no metric"),
            }
        };
    }
    names! {
        Patch => "tensor.patch_us", "quant.patch_us";
        Qkv => "tensor.qkv_us", "quant.qkv_us";
        Scores => "tensor.scores_us", "quant.scores_us";
        Av => "tensor.av_us", "quant.av_us";
        Wo => "tensor.wo_us", "quant.wo_us";
        FfnUp => "tensor.ffn_up_us", "quant.ffn_up_us";
        FfnDown => "tensor.ffn_down_us", "quant.ffn_down_us";
        Head => "tensor.head_us", "quant.head_us";
    }
}

/// The host-vs-paper ledger for one precision: one row per GEMM role,
/// keyed by the `bioformer_descriptor` rows it executes, with the measured
/// µs per window, the rows' MACs, the achieved rate and the cycles the
/// GAP8 model predicts for the same rows; then the rest of the forward.
pub fn table(cfg: &BioformerConfig, title: &str, a: &Attribution, fp32: bool) -> String {
    let desc = bioformer_descriptor(cfg);
    let spec = Gap8Spec::default();
    let gap8 = network_latency(&desc, &spec, &KernelCosts::default());
    let per = a.roots as f64;
    // Descriptor rows per role; whatever no role claims is `other`.
    let mut rows: BTreeMap<Role, (Vec<String>, u64, f64)> = BTreeMap::new();
    let mut other = (Vec::new(), 0u64, 0.0f64);
    for (layer, kernel) in desc.layers.iter().zip(&gap8.kernels) {
        let name = layer.name();
        let base = name.split_once('.').map_or(name, |(_, b)| b);
        let owner = Role::ALL
            .into_iter()
            .find(|r| r.descriptor_rows(fp32).contains(&base));
        let slot = match owner {
            Some(role) => rows.entry(role).or_default(),
            None => &mut other,
        };
        slot.0.push(name.to_string());
        slot.1 += layer.macs();
        slot.2 += kernel.total_cycles();
    }
    let rate = if fp32 { "GFLOP/s" } else { "GOP/s" };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title}: {} windows traced, {:.1} us per traced forward",
        a.roots,
        us(a.root_ns, per)
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>10} {:>9} {:>10} {:>12} {:>10}  descriptor rows",
        "role", "host_us", rate, "MACs", "gap8_cycles", "gap8_us"
    );
    let mut line = |label: &str, t_us: f64, (names, macs, cycles): &(Vec<String>, u64, f64)| {
        let achieved = if t_us > 0.0 {
            2.0 * *macs as f64 / (t_us * 1e3)
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<8} {:>10.2} {:>9.2} {:>10} {:>12.0} {:>10.1}  {}",
            label,
            t_us,
            achieved,
            macs,
            cycles,
            cycles * spec.cycle_time_s() * 1e6,
            names.join(" ")
        );
    };
    let mut sum_us = 0.0;
    for role in Role::ALL {
        let t = us(a.role_ns(role), per);
        sum_us += t;
        line(role.name(), t, rows.entry(role).or_default());
    }
    let unknown = us(a.role_ns(Role::Unknown), per);
    if unknown > 0.0 {
        sum_us += unknown;
        line("unknown", unknown, &(Vec::new(), 0, 0.0));
    }
    let other_us = us(a.self_ns, per);
    sum_us += other_us;
    line("other", other_us, &other);
    let _ = writeln!(
        out,
        "  roles + other = {:.2} us of {:.2} us traced forward; GAP8 total {:.0} cycles = {:.3} ms at {:.0} MHz",
        sum_us,
        us(a.root_ns, per),
        gap8.total_cycles,
        gap8.latency_ms(),
        spec.freq_hz / 1e6
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{self_times, NONE};

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            window: NONE,
        }
    }

    #[test]
    fn roles_and_other_account_for_the_root() {
        let spans = [
            span("nn.forward", 0, 100, NONE),
            span("tensor.gemm.qkv", 10, 30, 0),
            span("tensor.pack.scores", 30, 35, 0),
            span("tensor.gemm.scores", 35, 45, 0),
            span("nn.forward", 200, 260, NONE),
            span("tensor.gemm.qkv", 210, 240, 4),
            // Not under an `nn.forward` root: ignored.
            span("tensor.gemm.qkv", 300, 400, NONE),
        ];
        let a = Attribution::of(&spans, &self_times(&spans), "nn.forward");
        assert_eq!(a.roots, 2);
        assert_eq!(a.root_ns, 160);
        assert_eq!(a.role_ns(Role::Qkv), 50);
        assert_eq!(a.role_ns(Role::Scores), 15);
        assert_eq!(a.op(Op::Gemm), (60, 3));
        assert_eq!(a.op(Op::Pack), (5, 1));
        let parts: u64 = Role::ALL.iter().map(|&r| a.role_ns(r)).sum::<u64>() + a.self_ns;
        assert_eq!(parts, a.root_ns);
        let mut m = BTreeMap::new();
        fp32_metrics(&a, a.roots as f64, 600, &mut m);
        assert_eq!(m["tensor.gemm_us"], 0.0325);
        assert_eq!(m["nn.other_us"], 0.0475);
        assert_eq!(m["tensor.gemm_gflops"], 10.0);
    }

    #[test]
    fn ledger_rows_cover_every_descriptor_row() {
        let cfg = BioformerConfig::bio1();
        let text = table(&cfg, "fp32", &Attribution::default(), true);
        for layer in bioformer_descriptor(&cfg).layers {
            assert!(text.contains(layer.name()), "{} missing", layer.name());
        }
    }
}
