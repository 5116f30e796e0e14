//! `forward`: a closed loop on one thread over a seeded pool of bio1
//! windows, one batch-1 fp32 `Bioformer::forward_infer_in` and one int8
//! `QuantBioformer::forward_infer_in` per iteration, on a warmed arena.
//!
//! Each iteration also times the host probe, and the end-to-end figures
//! are scaled to the reference host speed with the probe's median over
//! the same second (see `probe.rs`). The raw figures are printed beside
//! them.

use crate::ledger::{self, Attribution};
use crate::model::{self, argmax};
use crate::probe::{self, HostProbe};
use crate::profile::{ProfilingBackend, RoleMap};
use crate::spans::{self, NONE};
use crate::stats::{mean, p50_p90_p99};
use crate::{alloc, cpu_seconds, Outcome};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::InferForward;
use bioformers::quant::QuantBioformer;
use bioformers::tensor::{ComputeBackend, PackedCpuBackend, Tensor, TensorArena};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Windows in the seeded pool.
const POOL: usize = 64;

pub struct Forward {
    cfg: BioformerConfig,
    fp32: Bioformer,
    int8: QuantBioformer,
    profiler: Option<Arc<ProfilingBackend>>,
    pool: Vec<Tensor>,
    fp32_class: Vec<usize>,
    int8_class: Vec<usize>,
    arena: TensorArena,
}

pub fn setup(seed: u64, traced: bool) -> Forward {
    let cfg = BioformerConfig::bio1();
    let profiler = traced.then(|| Arc::new(ProfilingBackend::new(RoleMap::new(&cfg))));
    let backend: Arc<dyn ComputeBackend> = match &profiler {
        Some(p) => p.clone(),
        None => Arc::new(PackedCpuBackend::new()),
    };
    let fp32 = model::fp32_model(backend.clone());
    let int8 = model::int8_model(backend);
    let raw: Vec<Vec<f32>> = (0..POOL)
        .map(|i| model::seeded_window(seed, i, cfg.channels, cfg.window))
        .collect();
    let fp32_class = raw.iter().map(|w| model::fp32_class(&fp32, w)).collect();
    let int8_class = raw.iter().map(|w| model::int8_class(&int8, w)).collect();
    let pool: Vec<Tensor> = raw.iter().map(|w| model::batch1(&cfg, w)).collect();
    // Warm the arena (and the int8 scratch pool) on every pool window.
    let mut arena = TensorArena::new();
    for x in &pool {
        let y = fp32.forward_infer_in(x, &mut arena);
        arena.recycle(y);
        let y = int8.forward_infer_in(x, &mut arena);
        arena.recycle(y);
    }
    Forward {
        cfg,
        fp32,
        int8,
        profiler,
        pool,
        fp32_class,
        int8_class,
        arena,
    }
}

/// One timed forward; returns (ns, predicted class).
fn forward(
    model: &dyn InferForward,
    x: &Tensor,
    arena: &mut TensorArena,
    root: &'static str,
    window: u32,
) -> (u64, usize) {
    let t0 = Instant::now();
    let span = if spans::enabled() {
        spans::open(root, NONE, window)
    } else {
        NONE
    };
    spans::set_parent(span);
    let y = model.forward_infer_in(x, arena);
    spans::set_parent(NONE);
    spans::close(span);
    let ns = t0.elapsed().as_nanos() as u64;
    let class = argmax(y.data());
    arena.recycle(y);
    (ns, class)
}

/// Iterations per host-probe run.
const PROBE_EVERY: usize = 4;

/// One iteration's measurements.
struct Sample {
    fp32_ns: u64,
    int8_ns: u64,
    /// Host-probe time, 0 on iterations without a probe.
    probe_ns: u64,
    /// Whole seconds since the loop started.
    second: u32,
    /// Whether tracing was on (traced runs alternate 1 s blocks with
    /// tracing off and on, to measure its overhead).
    traced: bool,
}

pub fn run(mut st: Forward, seconds: u64, traced: bool) -> Outcome {
    let cap = seconds as usize * 4000;
    let mut samples: Vec<Sample> = Vec::with_capacity(cap);
    // Process CPU seconds at the start of each second.
    let mut cpu_at: Vec<f64> = Vec::with_capacity(seconds as usize + 2);
    let mut probe = HostProbe::new();
    if traced {
        // Tracing is on in every other second, at most ~2000 iterations a
        // second, 66 spans each; a full buffer drops (and counts) spans.
        spans::reserve(seconds.div_ceil(2) as usize * 2000 * 70);
    }
    let (mut wrong_fp32, mut wrong_int8) = (0u64, 0u64);
    let allocs0 = alloc::allocations();
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    cpu_at.push(cpu_seconds());
    let mut heap = alloc::PeakSampler::start(seconds);
    for i in 0.. {
        let now = Instant::now();
        if now >= end {
            break;
        }
        heap.tick(now);
        let second = (now - start).as_secs() as u32;
        if cpu_at.len() <= second as usize {
            cpu_at.push(cpu_seconds());
        }
        let on = traced && second % 2 == 1;
        spans::set_enabled(on);
        let k = i % POOL;
        let x = &st.pool[k];
        let (fp32_ns, c) = forward(&st.fp32, x, &mut st.arena, "nn.forward", i as u32);
        wrong_fp32 += u64::from(c != st.fp32_class[k]);
        let (int8_ns, c) = forward(&st.int8, x, &mut st.arena, "quant.forward", i as u32);
        wrong_int8 += u64::from(c != st.int8_class[k]);
        samples.push(Sample {
            fp32_ns,
            int8_ns,
            probe_ns: if i % PROBE_EVERY == 0 { probe.run() } else { 0 },
            second,
            traced: on,
        });
    }
    spans::set_enabled(false);
    cpu_at.push(cpu_seconds());
    let heap_peak_mb = heap.finish();
    let allocs = alloc::allocations() - allocs0;
    let iterations = samples.len();
    let windows = 2 * iterations as u64;
    let failed = wrong_fp32 + wrong_int8;

    // Host speed and scaled CPU time per second.
    let us = |ns: u64| ns as f64 / 1e3;
    let mut speed = vec![1.0; cpu_at.len()];
    let mut scaled_cpu_s = 0.0;
    for (sec, v) in speed.iter_mut().enumerate().take(cpu_at.len() - 1) {
        let probes: Vec<f64> = samples
            .iter()
            .filter(|x| x.second as usize == sec && x.probe_ns > 0)
            .map(|x| us(x.probe_ns))
            .collect();
        *v = probe::speed(&probes);
        let probe_s = probes.iter().sum::<f64>() / 1e6;
        scaled_cpu_s += (cpu_at[sec + 1] - cpu_at[sec] - probe_s).max(0.0) * *v;
    }
    let cpu_us_per_window = scaled_cpu_s * 1e6 / windows.max(1) as f64;
    let raw_cpu_s = cpu_at[cpu_at.len() - 1] - cpu_at[0];

    // Untraced samples only (all of them in an untraced run).
    let pick = |on: bool, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|x| x.traced == on).map(f).collect()
    };
    let (fp32_p50, _, fp32_p99) = p50_p90_p99(&pick(false, &|x| us(x.fp32_ns)));
    let (int8_p50, _, int8_p99) = p50_p90_p99(&pick(false, &|x| us(x.int8_ns)));
    let pair = |x: &Sample| us(x.fp32_ns + x.int8_ns);
    let (pair_p50, _, pair_p99) = p50_p90_p99(&pick(false, &pair));
    let scaled = |x: &Sample| pair(x) * speed[x.second as usize];
    let (norm_p50, _, norm_p99) = p50_p90_p99(&pick(false, &scaled));
    let probes: Vec<f64> = samples
        .iter()
        .filter(|x| x.probe_ns > 0)
        .map(|x| us(x.probe_ns))
        .collect();
    let run_speed = probe::speed(&probes);

    let mut report = format!(
        "forward: {iterations} iterations ({windows} windows: {iterations} fp32 + {iterations} int8), \
         {failed} failed ({wrong_fp32} fp32, {wrong_int8} int8 class mismatches)\n\
         \x20 raw: fp32_window_p50_us {fp32_p50:.2}  fp32_window_p99_us {fp32_p99:.2}  \
         int8_window_p50_us {int8_p50:.2}  int8_window_p99_us {int8_p99:.2}  \
         pair p50 {pair_p50:.2} p99 {pair_p99:.2} us; process cpu {raw_cpu_s:.2} s\n\
         \x20 host speed {run_speed:.3} of reference (probe); at reference speed: \
         pair p50 {norm_p50:.2} us  p99 {norm_p99:.2} us  cpu_us_per_window {cpu_us_per_window:.2} us\n"
    );
    let mut metrics = BTreeMap::new();
    if !traced {
        metrics.insert("latency_p50_ms", norm_p50 / 1e3);
        metrics.insert("heap_peak_mb", heap_peak_mb);
        metrics.insert("cpu_us_per_window", cpu_us_per_window);
    } else {
        let (all, dropped) = spans::take();
        let selfs = spans::self_times(&all);
        let fp32 = Attribution::of(&all, &selfs, "nn.forward");
        let int8 = Attribution::of(&all, &selfs, "quant.forward");
        let flops = st.profiler.as_ref().map_or(0, |p| p.fp32_flops());
        ledger::fp32_metrics(&fp32, fp32.roots as f64, flops, &mut metrics);
        ledger::int8_metrics(&int8, int8.roots as f64, &mut metrics);
        // Traced and untraced blocks are different seconds: compare them
        // at reference speed.
        let (traced_p50, _, _) = p50_p90_p99(&pick(true, &scaled));
        metrics.insert("trace.overhead_pct", (traced_p50 / norm_p50 - 1.0) * 100.0);
        metrics.insert("nn.forward_p50_us", fp32_p50);
        metrics.insert("nn.forward_p99_us", fp32_p99);
        metrics.insert("quant.forward_p50_us", int8_p50);
        metrics.insert("quant.forward_p99_us", int8_p99);
        metrics.insert("core.compute_us", mean(&[fp32_p50, int8_p50]));
        metrics.insert("core.batch_windows", 1.0);
        report += &ledger::table(&st.cfg, "bio1 fp32 per-op ledger", &fp32, true);
        report += &ledger::table(&st.cfg, "bio1 int8 per-op ledger", &int8, false);
        report += &format!(
            "  tracing overhead: pair p50 at reference speed {traced_p50:.2} us traced vs \
             {norm_p50:.2} us untraced (alternating 1 s blocks); {dropped} spans dropped\n"
        );
    }
    metrics.insert(
        "core.allocs_per_window",
        allocs as f64 / windows.max(1) as f64,
    );
    Outcome {
        attempted: windows,
        failed,
        correct: failed == 0 && windows > 0,
        metrics,
        report,
    }
}
