//! The serving layer: one inference API over every model precision.
//!
//! The paper's deployment story is that the *same* Bioformer runs as fp32
//! during training and as a fully-integer int8 pipeline on the MCU. This
//! module makes that a first-class property of the codebase:
//!
//! * [`GestureClassifier`] — the infer-only contract every backend
//!   implements: fp32 [`Bioformer`], fp32 [`TempoNet`] and integer-only
//!   [`QuantBioformer`]. All impls run through the shared-state
//!   [`bioformer_nn::InferForward`] path, so no backend clones model
//!   weights per request.
//! * [`ShardedEngine`] — the one engine: a submission API over N ≥ 1
//!   backend replicas (possibly different precisions), with policy-driven
//!   [`router`]-level routing ([`RoutingPolicy`]), quarantine of dead or
//!   failing replicas and one [`EngineStats`] row per replica. Each
//!   replica is a bounded MPSC request [`queue`] feeding `W` [`worker`]s
//!   that **coalesce requests from many clients into shared
//!   micro-batches** (flush on batch-full or a linger deadline), with
//!   per-request deadlines, backpressure and graceful shutdown. `W = 0`
//!   serves inline: requests run on the caller's thread, split into
//!   model-sized micro-batches, and `submit` returns a resolved handle.
//!
//! The engine implements the [`Engine`] trait (submit / classify / stats /
//! shutdown over one [`ServeError`] surface), so callers can be generic
//! over topology; the [`StreamSession`] layer builds on that to turn a
//! **raw sEMG sample stream** into debounced
//! [`GestureEvent`] decisions through any engine. One level up,
//! [`StreamServer`] multiplexes N concurrent sessions over one shared
//! engine with bounded per-session buffers, round-robin fairness,
//! idle-timeout eviction and checkpointed reconnects, and [`TcpGateway`]
//! serves it over TCP loopback with the hand-rolled length-prefixed
//! [`proto`] frame protocol ([`GatewayClient`] is the matching client
//! codec).
//!
//! `docs/serving.md` is the end-to-end architecture guide for this module.
//!
//! ```
//! use bioformers::core::{Bioformer, BioformerConfig};
//! use bioformers::serve::{AsyncEngineConfig, ShardedEngine};
//! use bioformers::tensor::Tensor;
//!
//! // One inline replica: no threads, requests run on the caller's thread.
//! let engine = ShardedEngine::builder()
//!     .with_replica_config(AsyncEngineConfig::default().with_workers(0).with_micro_batch(8))
//!     .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
//!     .build();
//! let out = engine.classify(Tensor::zeros(&[3, 14, 300])).unwrap();
//! assert_eq!(out.logits.dims(), &[3, 8]);
//! assert_eq!(out.predictions.len(), 3);
//! assert_eq!(engine.stats().requests, 1);
//! ```

pub mod client;
pub mod engine;
pub mod proto;
pub mod queue;
pub mod router;
pub mod server;
pub mod stream;
pub mod trace;
pub mod worker;
pub mod zoo;

pub use client::{ClientSessionStats, ClientSummary, GatewayClient, GatewayError};
pub use engine::{Engine, EngineStats, ReplicaStats};
pub use proto::{ErrorCode, Frame, FrameDecoder, ProtoError};
pub use queue::{PendingResponse, RequestOutput, ServeError};
pub use router::{
    HedgeConfig, RoutingPolicy, ShardedEngine, ShardedEngineBuilder, ShardedEngineConfig,
};
pub use server::{
    FinishReport, ServeCounters, ServerStats, SessionHandle, SessionOptions, SessionStats,
    StreamServer, StreamServerConfig, TcpGateway, TenantStats,
};
pub use stream::{
    DecisionPolicy, DecisionSmoother, GestureEvent, SessionCheckpoint, StreamConfig, StreamSession,
    StreamSummary,
};
pub use trace::{
    BudgetReport, LatencyBudget, LatencyTrace, StageRecorder, StageStats, StageSummary,
};
pub use worker::{AsyncEngineConfig, LingerPolicy};
pub use zoo::{
    ExperimentStats, ModelStats, ModelZoo, PromotionDecision, PromotionPolicy, RouteMode,
    ShadowEngine, ZooStats,
};

/// The serving prelude: one `use` for engine-generic code.
///
/// ```
/// use bioformers::serve::prelude::*;
/// ```
pub mod prelude {
    pub use super::client::{ClientSummary, GatewayClient, GatewayError};
    pub use super::engine::{Engine, EngineStats};
    pub use super::queue::{PendingResponse, RequestOutput, ServeError};
    pub use super::router::{RoutingPolicy, ShardedEngine};
    pub use super::server::{
        ServerStats, SessionHandle, SessionOptions, StreamServer, StreamServerConfig, TcpGateway,
    };
    pub use super::stream::{
        DecisionPolicy, DecisionSmoother, GestureEvent, SessionCheckpoint, StreamConfig,
        StreamSession, StreamSummary,
    };
    pub use super::trace::{LatencyBudget, LatencyTrace, StageStats, StageSummary};
    pub use super::worker::{AsyncEngineConfig, LingerPolicy};
    pub use super::zoo::{ModelZoo, PromotionDecision, PromotionPolicy, RouteMode, ZooStats};
    pub use super::{tuned_compute, GestureClassifier, LatencyStats};
}

use bioformer_core::{Bioformer, TempoNet, WaveFormer};
use bioformer_nn::InferForward;
use bioformer_quant::QuantBioformer;
use bioformer_semg::GESTURE_CLASSES;
use bioformer_tensor::backend::{ComputeBackend, PackedCpuBackend};
use bioformer_tensor::tune::{tune, GemmShape, TuneTable};
use bioformer_tensor::{Tensor, TensorArena};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An inference-only gesture classifier: maps a batch of sEMG windows
/// `[n, channels, samples]` to logits `[n, classes]`.
///
/// Unlike [`bioformer_nn::Model`] this trait is object-safe and takes
/// `&self`, so heterogeneous trained backends (fp32, int8, …) can sit
/// behind one `Box<dyn GestureClassifier>` in a serving engine and be
/// shared across threads.
pub trait GestureClassifier: Send + Sync {
    /// Runs inference on `windows` (`[n, channels, samples]`, `n` may be 0)
    /// and returns logits `[n, classes]`.
    fn predict_batch(&self, windows: &Tensor) -> Tensor;

    /// Arena variant of [`GestureClassifier::predict_batch`]: scratch
    /// tensors come from `arena` so a worker that reuses one arena across
    /// batches performs no steady-state heap allocations inside the model
    /// forward. The returned logits may be arena-owned — callers that keep
    /// them past the next call must copy them out (engines recycle them
    /// after scattering per-request responses).
    ///
    /// The default ignores the arena and delegates, so backends with their
    /// own scratch management (e.g. the integer pipeline) stay correct.
    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        let _ = arena;
        self.predict_batch(windows)
    }

    /// Number of output classes (the width of the logit rows).
    fn num_classes(&self) -> usize;

    /// Human-readable backend name, e.g. `"bioformer-fp32"`.
    fn name(&self) -> &str;

    /// The `[channels, samples]` window shape this backend serves, when
    /// fixed and known. Engines use it to reject malformed requests at
    /// submission time; `None` (the default) makes a replica fall back to
    /// pinning the shape of the first accepted request.
    fn input_shape(&self) -> Option<(usize, usize)> {
        None
    }

    /// Installs a [`ComputeBackend`] on the model's GEMM-bearing layers
    /// (e.g. an autotuned one from [`tuned_compute`]). The default is a
    /// no-op for backends without a compute seam; model impls forward to
    /// their `set_backend`.
    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        let _ = compute;
    }

    /// One-line description of the compute backend the model routes
    /// through (tuning state included) — surfaced per replica in
    /// [`ReplicaStats::tuning`]. Backends without a compute seam report
    /// `"default"`.
    fn compute_report(&self) -> String {
        "default".to_string()
    }

    /// The distinct GEMM shapes this backend's inference path executes —
    /// the autotuner's work-list. Empty (the default) means nothing to
    /// tune.
    fn gemm_shapes(&self) -> Vec<GemmShape> {
        Vec::new()
    }
}

/// Autotunes a compute backend for `classifier`'s GEMM shapes (honouring
/// `BIOFORMER_TUNE`; with `BIOFORMER_TUNE=off` the table is empty and the
/// backend behaves exactly like the default). Returns the backend plus the
/// tuning table — persist the table with [`TuneTable::to_json`], or read
/// its decision log for why each shape kept the default.
pub fn tuned_compute(classifier: &dyn GestureClassifier) -> (Arc<dyn ComputeBackend>, TuneTable) {
    let table = tune(&classifier.gemm_shapes());
    (Arc::new(PackedCpuBackend::with_table(table.clone())), table)
}

/// Delegation through `Arc`, so one shared model instance can back any
/// number of engines (or replicas of a sharded pool) without cloning
/// weights: `Box::new(Arc::clone(&model))` is a valid backend.
impl<T: GestureClassifier + ?Sized> GestureClassifier for Arc<T> {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        (**self).predict_batch(windows)
    }

    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        (**self).predict_batch_in(windows, arena)
    }

    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        (**self).input_shape()
    }

    /// Intentionally a no-op: the model behind an `Arc` is shared with
    /// other engines/replicas, so one replica must not swap its kernels
    /// under the others. Install a compute backend on the owned model
    /// *before* sharing it.
    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        let _ = compute;
    }

    fn compute_report(&self) -> String {
        (**self).compute_report()
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        (**self).gemm_shapes()
    }
}

impl GestureClassifier for Bioformer {
    /// Eval-mode forward through the zero-clone [`InferForward`] path: one
    /// model instance serves arbitrarily many concurrent callers without
    /// copying weights.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    /// Arena-threaded forward: packed weights plus recycled scratch make
    /// steady-state forwards allocation-free.
    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.forward_infer_in(windows, arena)
    }

    fn num_classes(&self) -> usize {
        self.config().classes
    }

    fn name(&self) -> &str {
        "bioformer-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((self.config().channels, self.config().window))
    }

    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        self.set_backend(compute);
    }

    fn compute_report(&self) -> String {
        Bioformer::compute_report(self)
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        Bioformer::gemm_shapes(self)
    }
}

impl GestureClassifier for TempoNet {
    /// Eval-mode forward through the zero-clone [`InferForward`] path.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    fn num_classes(&self) -> usize {
        GESTURE_CLASSES
    }

    fn name(&self) -> &str {
        "temponet-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((bioformer_semg::CHANNELS, bioformer_semg::WINDOW))
    }

    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        self.set_backend(compute);
    }

    fn compute_report(&self) -> String {
        TempoNet::compute_report(self)
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        TempoNet::gemm_shapes(self)
    }
}

impl GestureClassifier for WaveFormer {
    /// Eval-mode forward through the zero-clone [`InferForward`] path; the
    /// fixed Haar front-end has no weights to share, so the model-zoo
    /// variant serves through the same seam as the paper's models.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    fn num_classes(&self) -> usize {
        GESTURE_CLASSES
    }

    fn name(&self) -> &str {
        "waveformer-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((bioformer_semg::CHANNELS, bioformer_semg::WINDOW))
    }

    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        self.set_backend(compute);
    }

    fn compute_report(&self) -> String {
        WaveFormer::compute_report(self)
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        WaveFormer::gemm_shapes(self)
    }
}

impl GestureClassifier for QuantBioformer {
    /// Integer-only inference; already `&self` and batch-parallel.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_batch(windows)
    }

    fn num_classes(&self) -> usize {
        self.config().classes
    }

    fn name(&self) -> &str {
        "bioformer-int8"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((self.config().channels, self.config().window))
    }

    fn install_compute(&mut self, compute: Arc<dyn ComputeBackend>) {
        self.set_backend(compute);
    }

    fn compute_report(&self) -> String {
        QuantBioformer::compute_report(self)
    }

    fn gemm_shapes(&self) -> Vec<GemmShape> {
        QuantBioformer::gemm_shapes(self)
    }
}

/// Default micro-batch size: large enough to amortise per-call overhead,
/// small enough to bound per-request latency.
pub const DEFAULT_MICRO_BATCH: usize = 32;

/// Latency statistics over backend micro-batches — one replica's in a
/// [`ReplicaStats`] row, every replica's in an [`EngineStats`]. Durations
/// cover the backend's `predict_batch` only (splitting and reassembly are
/// excluded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of micro-batches executed (0 for an empty request).
    pub micro_batches: usize,
    /// Total windows served.
    pub windows: usize,
    /// Sum of micro-batch latencies.
    pub total: Duration,
    /// Mean micro-batch latency (zero for an empty request).
    pub mean: Duration,
    /// Fastest micro-batch.
    pub min: Duration,
    /// Slowest micro-batch.
    pub max: Duration,
    /// Median micro-batch latency.
    pub p50: Duration,
    /// 95th-percentile micro-batch latency.
    pub p95: Duration,
    /// 99th-percentile micro-batch latency (nearest rank, like p50/p95).
    pub p99: Duration,
}

impl LatencyStats {
    /// Builds the summary from raw per-micro-batch latency samples (sorts
    /// `samples` in place) over `windows` total served windows.
    ///
    /// ```
    /// use bioformers::serve::LatencyStats;
    /// use std::time::Duration;
    ///
    /// let mut samples = vec![Duration::from_micros(20), Duration::from_micros(10)];
    /// let stats = LatencyStats::from_samples(&mut samples, 8);
    /// assert_eq!(stats.micro_batches, 2);
    /// assert_eq!(stats.min, Duration::from_micros(10));
    /// ```
    pub fn from_samples(samples: &mut [Duration], windows: usize) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                micro_batches: 0,
                windows,
                total: Duration::ZERO,
                mean: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                p50: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
            };
        }
        samples.sort_unstable();
        let total: Duration = samples.iter().sum();
        let n = samples.len();
        // Nearest-rank percentile: the q-quantile of n sorted samples is
        // the ⌈n·q⌉-th smallest (1-based), i.e. index ⌈n·q⌉ − 1. The naive
        // `(n·q) as usize` reads one sample too high whenever n·q is an
        // integer (p95 of 100 samples read the 96th) and relied on a clamp
        // to avoid indexing past the end at q → 1.0.
        let pct = |q: f64| {
            let rank = ((n as f64) * q).ceil() as usize;
            samples[rank.saturating_sub(1).min(n - 1)]
        };
        LatencyStats {
            micro_batches: n,
            windows,
            total,
            mean: total / n as u32,
            min: samples[0],
            max: samples[n - 1],
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }

    /// Windows served per second of backend time (0.0 for empty requests).
    pub fn throughput(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.windows as f64 / self.total.as_secs_f64()
        }
    }
}

/// Runs `windows` (`[n, channels, samples]`) through `backend` in chunks of
/// at most `micro` rows, reassembling logits in request order and recording
/// one backend latency sample per chunk — how every replica executes a
/// batch, inline or on a worker.
///
/// Scratch (chunk copies, per-chunk logits, and the backend's internal
/// intermediates) comes from `arena`; the returned logits tensor may be
/// arena-owned, so callers that hold it past their next arena use should
/// copy it out and [`TensorArena::recycle`] it.
///
/// # Panics
///
/// Panics if the backend returns logits of the wrong shape.
pub(crate) fn predict_chunked(
    backend: &dyn GestureClassifier,
    windows: &Tensor,
    micro: usize,
    arena: &mut TensorArena,
) -> (Tensor, Vec<Duration>) {
    let n = windows.dims()[0];
    let (channels, samples) = (windows.dims()[1], windows.dims()[2]);
    let classes = backend.num_classes();
    let sample_len = channels * samples;

    // Single-chunk fast path: the whole request fits one micro-batch, so
    // serve it from the caller's tensor without the chunk copy.
    if n > 0 && n <= micro {
        let t0 = Instant::now();
        let out = backend.predict_batch_in(windows, arena);
        let latencies = vec![t0.elapsed()];
        assert_eq!(
            out.dims(),
            &[n, classes],
            "backend {} returned bad logits shape",
            backend.name()
        );
        return (out, latencies);
    }

    let mut logits = arena.tensor(&[n, classes]);
    let mut latencies = Vec::with_capacity(n.div_ceil(micro.max(1)));
    let mut chunk_buf = arena.alloc(micro.min(n) * sample_len);
    let mut start = 0usize;
    while start < n {
        let end = (start + micro).min(n);
        let rows = end - start;
        chunk_buf.truncate(rows * sample_len);
        chunk_buf.copy_from_slice(&windows.data()[start * sample_len..end * sample_len]);
        let chunk = Tensor::from_vec(std::mem::take(&mut chunk_buf), &[rows, channels, samples]);
        let t0 = Instant::now();
        let out = backend.predict_batch_in(&chunk, arena);
        latencies.push(t0.elapsed());
        chunk_buf = chunk.into_vec();
        assert_eq!(
            out.dims(),
            &[rows, classes],
            "backend {} returned bad logits shape",
            backend.name()
        );
        logits.data_mut()[start * classes..end * classes].copy_from_slice(out.data());
        arena.recycle(out);
        start = end;
    }
    arena.recycle_vec(chunk_buf);
    (logits, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    /// A backend that records the micro-batch sizes it was asked for.
    struct Probe {
        classes: usize,
        seen: Arc<Mutex<Vec<usize>>>,
    }

    impl GestureClassifier for Probe {
        fn predict_batch(&self, windows: &Tensor) -> Tensor {
            let n = windows.dims()[0];
            self.seen.lock().unwrap().push(n);
            // Logit = window index within the micro-batch, so reassembly
            // errors are visible in the output.
            Tensor::from_fn(&[n, self.classes], |i| (i / self.classes) as f32)
        }

        fn num_classes(&self) -> usize {
            self.classes
        }

        fn name(&self) -> &str {
            "probe"
        }
    }

    /// An inline replica (`workers: 0`) over the probe backend.
    fn probe_engine(micro: usize) -> (ShardedEngine, Arc<Mutex<Vec<usize>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = ShardedEngine::builder()
            .with_replica_config(
                AsyncEngineConfig::default()
                    .with_workers(0)
                    .with_micro_batch(micro),
            )
            .add_replica(Box::new(Probe {
                classes: 4,
                seen: Arc::clone(&seen),
            }))
            .build();
        (engine, seen)
    }

    #[test]
    fn splits_non_divisible_batches() {
        let (engine, seen) = probe_engine(3);
        let out = engine.classify(Tensor::zeros(&[7, 2, 5])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![3, 3, 1]);
        let stats = engine.stats();
        assert_eq!(stats.latency.micro_batches, 3);
        assert_eq!(stats.latency.windows, 7);
        assert_eq!(out.logits.dims(), &[7, 4]);
        // Last micro-batch has 1 window; its logit row must be 0.
        assert_eq!(out.logits.row(6), &[0.0; 4]);
    }

    #[test]
    fn empty_batch_is_served_without_backend_calls() {
        let (engine, seen) = probe_engine(4);
        let out = engine.classify(Tensor::zeros(&[0, 2, 5])).unwrap();
        assert!(seen.lock().unwrap().is_empty());
        assert_eq!(out.logits.dims(), &[0, 4]);
        assert!(out.predictions.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.latency.micro_batches, 0);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn batch_smaller_than_micro_batch_is_one_call() {
        let (engine, seen) = probe_engine(100);
        let out = engine.classify(Tensor::zeros(&[5, 2, 5])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![5]);
        assert_eq!(engine.stats().latency.micro_batches, 1);
        assert_eq!(out.predictions.len(), 5);
    }

    #[test]
    #[should_panic(expected = "micro_batch must be >= 1")]
    fn zero_micro_batch_is_rejected() {
        let _ = probe_engine(0).0;
    }

    #[test]
    fn non_rank3_requests_are_rejected() {
        let (engine, _seen) = probe_engine(4);
        let err = engine.classify(Tensor::zeros(&[4, 10])).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
        assert_eq!(engine.stats().rejected, 1);
    }

    /// An inline classify counts requests and windows in the lifetime
    /// stats.
    #[test]
    fn inline_classify_counts_requests_and_windows() {
        let (engine, _seen) = probe_engine(4);
        let out = engine.classify(Tensor::zeros(&[3, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);
        assert_eq!(engine.stats().requests, 1);
        assert_eq!(engine.stats().windows, 3);
    }

    /// Backends without a compute seam report the default compute state.
    #[test]
    fn probe_backend_reports_default_compute() {
        let (engine, _seen) = probe_engine(4);
        assert_eq!(engine.stats().per_replica[0].tuning, "default");
    }

    /// Lifetime stats accumulate across calls, one row for the replica.
    #[test]
    fn inference_engine_stats_accumulate() {
        let (engine, _seen) = probe_engine(2);
        for n in [3usize, 0, 5] {
            let _ = engine.classify(Tensor::zeros(&[n, 2, 5])).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.per_replica.len(), 1);
        assert_eq!(stats.per_replica[0].backend, "probe");
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.windows, 8);
        // The n=0 request never invoked the backend: 2 executed batches.
        assert_eq!(stats.batches, 2);
        // ceil(3/2) + ceil(5/2) micro-batches.
        assert_eq!(stats.latency.micro_batches, 5);
        assert!(stats.rollup_consistent());
    }

    /// Regression (percentile off-by-one): the old `(n·q) as usize` index
    /// read one sample too high whenever n·q landed on an integer — p95 of
    /// exactly 100 samples reported the 96th-smallest — and only the
    /// `.min(n-1)` clamp hid the out-of-bounds read at q → 1.0. Nearest
    /// rank (⌈n·q⌉ − 1) pins every boundary case.
    #[test]
    fn percentiles_use_nearest_rank() {
        let micros = |k: u64| Duration::from_micros(k);
        // n = 1: every percentile is the single sample.
        let mut one = vec![micros(7)];
        let s = LatencyStats::from_samples(&mut one, 1);
        assert_eq!((s.p50, s.p95, s.p99), (micros(7), micros(7), micros(7)));

        // n = 2: p50 is the 1st sample (⌈1.0⌉−1 = 0), not the 2nd; p95 and
        // p99 are the 2nd (⌈1.9⌉−1 = ⌈1.98⌉−1 = 1).
        let mut two = vec![micros(10), micros(20)];
        let s = LatencyStats::from_samples(&mut two, 2);
        assert_eq!((s.p50, s.p95, s.p99), (micros(10), micros(20), micros(20)));

        // n = 20 over 1..=20 µs: p50 = 10th sample, p95 = 19th sample,
        // p99 = 20th (⌈19.8⌉−1 = 19).
        let mut twenty: Vec<Duration> = (1..=20).map(micros).collect();
        let s = LatencyStats::from_samples(&mut twenty, 20);
        assert_eq!((s.p50, s.p95, s.p99), (micros(10), micros(19), micros(20)));

        // n = 100 over 1..=100 µs: p50 = 50th, p95 = 95th, p99 = 99th —
        // the old index read the 51st and 96th here, and would read the
        // 100th for p99.
        let mut hundred: Vec<Duration> = (1..=100).map(micros).collect();
        let s = LatencyStats::from_samples(&mut hundred, 100);
        assert_eq!((s.p50, s.p95, s.p99), (micros(50), micros(95), micros(99)));
    }

    #[test]
    fn latency_stats_are_consistent() {
        let mut samples = vec![
            Duration::from_micros(50),
            Duration::from_micros(10),
            Duration::from_micros(30),
        ];
        let stats = LatencyStats::from_samples(&mut samples, 9);
        assert_eq!(stats.micro_batches, 3);
        assert_eq!(stats.min, Duration::from_micros(10));
        assert_eq!(stats.max, Duration::from_micros(50));
        assert_eq!(stats.p50, Duration::from_micros(30));
        assert_eq!(stats.p95, Duration::from_micros(50));
        assert_eq!(stats.p99, Duration::from_micros(50));
        assert_eq!(stats.total, Duration::from_micros(90));
        assert_eq!(stats.mean, Duration::from_micros(30));
        assert!((stats.throughput() - 100_000.0).abs() < 1.0);
    }
}
