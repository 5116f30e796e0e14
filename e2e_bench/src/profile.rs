//! Decorators that time calls into the program's public seams from the
//! benchmark's side: a [`ComputeBackend`] around the untuned
//! `PackedCpuBackend` (every GEMM of the tensor and quant layers), and a
//! [`GestureClassifier`] around the served model (every engine call).

use crate::spans::{self, NONE};
use bioformers::core::BioformerConfig;
use bioformers::serve::GestureClassifier;
use bioformers::tensor::backend::{ComputeBackend, GemmPlan, Int8Kernel, PackedCpuBackend};
use bioformers::tensor::pack::{Epilogue, PackedB};
use bioformers::tensor::qgemm::FixedMultiplier;
use bioformers::tensor::tune::GemmShape;
use bioformers::tensor::{Tensor, TensorArena};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The GEMM roles of one Bioformer forward, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    Patch,
    Qkv,
    Scores,
    Av,
    Wo,
    FfnUp,
    FfnDown,
    Head,
    /// A call whose shape matches no role: reported, never expected.
    Unknown,
}

/// Which kind of backend call a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Gemm,
    Pack,
    Qgemm,
}

impl Role {
    pub const ALL: [Role; 8] = [
        Role::Patch,
        Role::Qkv,
        Role::Scores,
        Role::Av,
        Role::Wo,
        Role::FfnUp,
        Role::FfnDown,
        Role::Head,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Role::Patch => "patch",
            Role::Qkv => "qkv",
            Role::Scores => "scores",
            Role::Av => "av",
            Role::Wo => "wo",
            Role::FfnUp => "ffn_up",
            Role::FfnDown => "ffn_down",
            Role::Head => "head",
            Role::Unknown => "unknown",
        }
    }

    /// The `bioformer_descriptor` rows (block prefix stripped) this role
    /// executes. The fp32 FFN-up GEMM fuses the GELU into its store loop,
    /// so `gelu` belongs to it there and to `other` on the int8 path.
    pub fn descriptor_rows(self, fused_gelu: bool) -> &'static [&'static str] {
        match self {
            Role::Patch => &["patch_embed"],
            Role::Qkv => &["wq", "wk", "wv"],
            Role::Scores => &["attn_scores"],
            Role::Av => &["attn_values"],
            Role::Wo => &["wo"],
            Role::FfnUp if fused_gelu => &["fc1", "gelu"],
            Role::FfnUp => &["fc1"],
            Role::FfnDown => &["fc2"],
            Role::Head => &["head"],
            Role::Unknown => &[],
        }
    }

    /// Span name for a call of `op` in this role.
    pub fn span_name(self, op: Op) -> &'static str {
        macro_rules! names {
            ($($role:ident => $gemm:literal, $pack:literal, $q:literal;)*) => {
                match self {
                    $(Role::$role => match op {
                        Op::Gemm => $gemm,
                        Op::Pack => $pack,
                        Op::Qgemm => $q,
                    },)*
                }
            };
        }
        names! {
            Patch => "tensor.gemm.patch", "tensor.pack.patch", "quant.qgemm.patch";
            Qkv => "tensor.gemm.qkv", "tensor.pack.qkv", "quant.qgemm.qkv";
            Scores => "tensor.gemm.scores", "tensor.pack.scores", "quant.qgemm.scores";
            Av => "tensor.gemm.av", "tensor.pack.av", "quant.qgemm.av";
            Wo => "tensor.gemm.wo", "tensor.pack.wo", "quant.qgemm.wo";
            FfnUp => "tensor.gemm.ffn_up", "tensor.pack.ffn_up", "quant.qgemm.ffn_up";
            FfnDown => "tensor.gemm.ffn_down", "tensor.pack.ffn_down", "quant.qgemm.ffn_down";
            Head => "tensor.gemm.head", "tensor.pack.head", "quant.qgemm.head";
            Unknown => "tensor.gemm.unknown", "tensor.pack.unknown", "quant.qgemm.unknown";
        }
    }

    /// Inverse of [`Role::span_name`]: the role and op a span name times.
    pub fn of_span(name: &str) -> Option<(Role, Op)> {
        let (op, role) = if let Some(r) = name.strip_prefix("tensor.gemm.") {
            (Op::Gemm, r)
        } else if let Some(r) = name.strip_prefix("tensor.pack.") {
            (Op::Pack, r)
        } else {
            (Op::Qgemm, name.strip_prefix("quant.qgemm.")?)
        };
        let role = Role::ALL
            .into_iter()
            .chain([Role::Unknown])
            .find(|r| r.name() == role)?;
        Some((role, op))
    }
}

/// Epilogue kind, without its borrowed operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Epi {
    None,
    Scale,
    Bias,
    BiasGelu,
    BiasRelu,
}

fn epi_kind(epi: &Epilogue<'_>) -> Epi {
    match epi {
        Epilogue::None => Epi::None,
        Epilogue::Scale(_) => Epi::Scale,
        Epilogue::Bias(_) => Epi::Bias,
        Epilogue::BiasGelu(_) => Epi::BiasGelu,
        Epilogue::BiasRelu(..) => Epi::BiasRelu,
    }
}

/// Assigns each GEMM its role from its `(k, n)` shape, checked against the
/// epilogue the role uses. For bio1 every role has a distinct `(k, n)`,
/// on both the fp32 and the int8 path.
#[derive(Debug, Clone)]
pub struct RoleMap {
    fp32: Vec<(usize, usize, Epi, Role)>,
    int8: Vec<(usize, usize, Role)>,
}

impl RoleMap {
    pub fn new(cfg: &BioformerConfig) -> Self {
        let s = cfg.seq_len();
        let sp = s.next_multiple_of(bioformers::simd::QK);
        let (e, p, inner, hidden) = (cfg.embed, cfg.head_dim, cfg.inner(), cfg.hidden);
        let patch_k = cfg.channels * cfg.filter;
        RoleMap {
            fp32: vec![
                (patch_k, e, Epi::Bias, Role::Patch),
                (e, inner, Epi::Bias, Role::Qkv),
                (p, s, Epi::Scale, Role::Scores),
                (s, p, Epi::None, Role::Av),
                (inner, e, Epi::Bias, Role::Wo),
                (e, hidden, Epi::BiasGelu, Role::FfnUp),
                (hidden, e, Epi::Bias, Role::FfnDown),
                (e, cfg.classes, Epi::Bias, Role::Head),
            ],
            int8: vec![
                (patch_k, cfg.tokens(), Role::Patch),
                (e, inner, Role::Qkv),
                (p, s, Role::Scores),
                (sp, p, Role::Av),
                (inner, e, Role::Wo),
                (e, hidden, Role::FfnUp),
                (hidden, e, Role::FfnDown),
                (e, cfg.classes, Role::Head),
            ],
        }
    }

    fn fp32(&self, k: usize, n: usize, epi: Option<Epi>) -> Role {
        self.fp32
            .iter()
            .find(|&&(rk, rn, re, _)| rk == k && rn == n && epi.is_none_or(|e| e == re))
            .map_or(Role::Unknown, |r| r.3)
    }

    fn int8(&self, k: usize, n: usize) -> Role {
        self.int8
            .iter()
            .find(|&&(rk, rn, _)| rk == k && rn == n)
            .map_or(Role::Unknown, |r| r.2)
    }
}

/// The timing `ComputeBackend`: forwards every call to an untuned
/// `PackedCpuBackend` and, while tracing is on, records one span per
/// call named after the call's role, parented to the calling thread's
/// current span.
#[derive(Debug)]
pub struct ProfilingBackend {
    inner: PackedCpuBackend,
    roles: RoleMap,
    fp32_flops: AtomicU64,
}

impl ProfilingBackend {
    pub fn new(roles: RoleMap) -> Self {
        ProfilingBackend {
            inner: PackedCpuBackend::new(),
            roles,
            fp32_flops: AtomicU64::new(0),
        }
    }

    /// fp32 FLOPs (2·m·k·n per GEMM) executed while tracing.
    pub fn fp32_flops(&self) -> u64 {
        self.fp32_flops.load(Ordering::Relaxed)
    }

    /// Runs `f`, recording it as a span named `name` (and its `flops`)
    /// while tracing is on.
    fn timed<R>(&self, name: &'static str, flops: u64, f: impl FnOnce() -> R) -> R {
        if !spans::enabled() {
            return f();
        }
        let start = spans::now_ns();
        let out = f();
        let end = spans::now_ns();
        spans::record(name, start, end, spans::parent(), NONE);
        self.fp32_flops.fetch_add(flops, Ordering::Relaxed);
        out
    }

    fn fp32_span(&self, k: usize, n: usize, epi: Option<Epi>, op: Op) -> &'static str {
        self.roles.fp32(k, n, epi).span_name(op)
    }
}

impl ComputeBackend for ProfilingBackend {
    fn name(&self) -> &'static str {
        "profiled-packed-cpu"
    }

    fn describe(&self) -> String {
        format!("profiled({})", self.inner.describe())
    }

    fn plan_fp32(&self, m: usize, k: usize, n: usize) -> GemmPlan {
        self.inner.plan_fp32(m, k, n)
    }

    fn plan_int8(&self, m: usize, k: usize, n: usize) -> Int8Kernel {
        self.inner.plan_int8(m, k, n)
    }

    fn pack_b_into(&self, plan: GemmPlan, b: &[f32], k: usize, n: usize, dst: &mut [f32]) {
        let name = self.fp32_span(k, n, None, Op::Pack);
        self.timed(name, 0, || self.inner.pack_b_into(plan, b, k, n, dst))
    }

    fn pack_b_t_into(&self, plan: GemmPlan, bt: &[f32], n: usize, k: usize, dst: &mut [f32]) {
        let name = self.fp32_span(k, n, None, Op::Pack);
        self.timed(name, 0, || self.inner.pack_b_t_into(plan, bt, n, k, dst))
    }

    fn pack_weight(&self, bt: &[f32], n: usize, k: usize) -> PackedB {
        self.inner.pack_weight(bt, n, k)
    }

    fn pack_weight_b(&self, b: &[f32], k: usize, n: usize) -> PackedB {
        self.inner.pack_weight_b(b, k, n)
    }

    fn gemm(&self, a: &[f32], m: usize, packed: &PackedB, out: &mut [f32], epi: Epilogue<'_>) {
        let (k, n) = (packed.k(), packed.n());
        let name = self.fp32_span(k, n, Some(epi_kind(&epi)), Op::Gemm);
        let flops = 2 * (m * k * n) as u64;
        self.timed(name, flops, || self.inner.gemm(a, m, packed, out, epi))
    }

    fn gemm_with(
        &self,
        plan: GemmPlan,
        a: &[f32],
        m: usize,
        k: usize,
        packed: &[f32],
        n: usize,
        out: &mut [f32],
        epi: Epilogue<'_>,
    ) {
        let name = self.fp32_span(k, n, Some(epi_kind(&epi)), Op::Gemm);
        let flops = 2 * (m * k * n) as u64;
        self.timed(name, flops, || {
            self.inner.gemm_with(plan, a, m, k, packed, n, out, epi)
        })
    }

    fn matvec(&self, a: &[f32], m: usize, k: usize, v: &[f32], out: &mut [f32]) {
        let name = self.fp32_span(k, 1, None, Op::Gemm);
        self.timed(name, 2 * (m * k) as u64, || {
            self.inner.matvec(a, m, k, v, out)
        })
    }

    fn qgemm_i32(
        &self,
        a: &[i8],
        b: &[i8],
        bias: Option<&[i32]>,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        let name = self.roles.int8(k, n).span_name(Op::Qgemm);
        self.timed(name, 0, || self.inner.qgemm_i32(a, b, bias, m, k, n, out))
    }

    fn qgemm_requant(
        &self,
        a: &[i8],
        b: &[i8],
        bias: Option<&[i32]>,
        m: usize,
        k: usize,
        n: usize,
        mult: FixedMultiplier,
        zero_point: i32,
        out: &mut [i8],
    ) {
        let name = self.roles.int8(k, n).span_name(Op::Qgemm);
        self.timed(name, 0, || {
            self.inner
                .qgemm_requant(a, b, bias, m, k, n, mult, zero_point, out)
        })
    }
}

/// A cheap fingerprint of a window's leading samples.
pub fn fingerprint(window: &[f32]) -> u64 {
    window.iter().take(16).fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Names the windows an engine call carries. Every session streams its
/// own two windows alternately, so a fingerprint names the session and
/// the parity; the session's next window index comes from counting its
/// windows in engine-call order, which is the order the session sent
/// them (one pump submits them, one worker serves them first-in first-out).
#[derive(Debug)]
pub struct WindowIds {
    by_fingerprint: HashMap<u64, (u32, u32)>,
    next: Mutex<Vec<u32>>,
}

/// Packs a session and window index into a span window id.
pub fn window_id(session: usize, window: usize) -> u32 {
    ((session as u32) << 24) | (window as u32 & 0x00ff_ffff)
}

impl WindowIds {
    /// `windows[s][parity]` is session `s`'s window for that parity.
    pub fn new(windows: &[[Vec<f32>; 2]]) -> Self {
        let mut by_fingerprint = HashMap::new();
        for (s, pair) in windows.iter().enumerate() {
            for (parity, w) in pair.iter().enumerate() {
                by_fingerprint.insert(fingerprint(w), (s as u32, parity as u32));
            }
        }
        WindowIds {
            by_fingerprint,
            next: Mutex::new(vec![0; windows.len()]),
        }
    }

    /// Whether every window has a distinct fingerprint.
    pub fn distinct(&self, windows: usize) -> bool {
        self.by_fingerprint.len() == windows * 2
    }

    /// The id of the next window of the session `window` belongs to, or
    /// `NONE` if the fingerprint or the parity does not match.
    pub fn identify(&self, window: &[f32]) -> u32 {
        let Some(&(session, parity)) = self.by_fingerprint.get(&fingerprint(window)) else {
            return NONE;
        };
        let mut next = self.next.lock().expect("window counter lock poisoned");
        let w = next[session as usize];
        next[session as usize] += 1;
        if w % 2 != parity {
            return NONE;
        }
        window_id(session as usize, w as usize)
    }
}

/// The timing `GestureClassifier`: while tracing is on, each engine call
/// is a `core.batch` span (the model's GEMM spans become its children)
/// with one zero-length `core.window` marker per window it carries.
pub struct TimedClassifier {
    inner: Box<dyn GestureClassifier>,
    ids: Arc<WindowIds>,
}

impl TimedClassifier {
    pub fn new(inner: Box<dyn GestureClassifier>, ids: Arc<WindowIds>) -> Self {
        TimedClassifier { inner, ids }
    }

    fn timed(&self, windows: &Tensor, f: impl FnOnce() -> Tensor) -> Tensor {
        let on = spans::enabled();
        let batch = if on {
            spans::open("core.batch", NONE, NONE)
        } else {
            NONE
        };
        let prev = spans::set_parent(batch);
        let out = f();
        spans::set_parent(prev);
        spans::close(batch);
        // Windows are named after the call so naming is not timed; every
        // call is counted, traced or not, to keep the window clocks right.
        let n = windows.dims()[0];
        let sample = windows.len() / n.max(1);
        let start = if on { spans::now_ns() } else { 0 };
        for i in 0..n {
            let id = self
                .ids
                .identify(&windows.data()[i * sample..(i + 1) * sample]);
            if batch != NONE {
                spans::record("core.window", start, start, batch, id);
            }
        }
        out
    }
}

impl GestureClassifier for TimedClassifier {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.timed(windows, || self.inner.predict_batch(windows))
    }

    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.timed(windows, || self.inner.predict_batch_in(windows, arena))
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        self.inner.input_shape()
    }

    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        self.inner.install_compute(compute);
    }

    fn compute_report(&self) -> String {
        self.inner.compute_report()
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        self.inner.gemm_shapes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bio1_roles_are_distinct_on_both_paths() {
        let cfg = BioformerConfig::bio1();
        let map = RoleMap::new(&cfg);
        let mut fp32: Vec<_> = map.fp32.iter().map(|r| (r.0, r.1)).collect();
        let mut int8: Vec<_> = map.int8.iter().map(|r| (r.0, r.1)).collect();
        fp32.sort_unstable();
        fp32.dedup();
        int8.sort_unstable();
        int8.dedup();
        assert_eq!(fp32.len(), 8);
        assert_eq!(int8.len(), 8);
        assert_eq!(map.fp32(64, 128, Some(Epi::BiasGelu)), Role::FfnUp);
        assert_eq!(map.fp32(64, 128, Some(Epi::Bias)), Role::Unknown);
        assert_eq!(map.fp32(32, 31, None), Role::Scores);
        assert_eq!(map.int8(140, 30), Role::Patch);
    }

    #[test]
    fn span_names_round_trip() {
        for role in Role::ALL.into_iter().chain([Role::Unknown]) {
            for op in [Op::Gemm, Op::Pack, Op::Qgemm] {
                assert_eq!(Role::of_span(role.span_name(op)), Some((role, op)));
            }
        }
        assert_eq!(Role::of_span("core.batch"), None);
    }

    #[test]
    fn window_ids_follow_each_sessions_engine_order() {
        let w = |v: f32| vec![v; 32];
        let ids = WindowIds::new(&[[w(1.0), w(2.0)], [w(3.0), w(4.0)]]);
        assert!(ids.distinct(2));
        assert_eq!(ids.identify(&w(1.0)), window_id(0, 0));
        assert_eq!(ids.identify(&w(3.0)), window_id(1, 0));
        assert_eq!(ids.identify(&w(2.0)), window_id(0, 1));
        assert_eq!(ids.identify(&w(1.0)), window_id(0, 2));
        // Session 1 expects parity 1 next: a parity-0 window is misnamed.
        assert_eq!(ids.identify(&w(3.0)), NONE);
        assert_eq!(ids.identify(&w(9.0)), NONE);
    }
}
