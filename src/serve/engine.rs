//! The serving-engine contract and its one statistics model.
//!
//! [`Engine`] is **submit / classify / stats / shutdown with one
//! [`ServeError`] surface**, so callers, tests and higher layers (the
//! streaming [`StreamSession`](super::StreamSession) in particular) are
//! generic over topology. [`ShardedEngine`] implements it for every
//! topology — an inline replica (`workers: 0`), one replica with a worker
//! pool, or a routed pool of heterogeneous replicas — and the zoo's
//! [`ShadowEngine`](super::ShadowEngine) wraps any engine in a live
//! experiment.
//!
//! ```
//! use bioformers::core::{Bioformer, BioformerConfig};
//! use bioformers::serve::{AsyncEngineConfig, Engine, ShardedEngine};
//! use bioformers::tensor::Tensor;
//! use std::sync::Arc;
//!
//! let model = Arc::new(Bioformer::new(&BioformerConfig::bio1()));
//! let engines: Vec<Box<dyn Engine>> = [0, 1]
//!     .into_iter()
//!     .map(|workers| -> Box<dyn Engine> {
//!         Box::new(
//!             ShardedEngine::builder()
//!                 .with_replica_config(AsyncEngineConfig::default().with_workers(workers))
//!                 .add_replica(Box::new(Arc::clone(&model)))
//!                 .build(),
//!         )
//!     })
//!     .collect();
//! for engine in engines {
//!     let out = engine.classify(Tensor::zeros(&[2, 14, 300])).unwrap();
//!     assert_eq!(out.logits.dims(), &[2, 8]);
//!     assert_eq!(engine.shutdown().requests, 1);
//! }
//! ```

use super::queue::{PendingResponse, RequestOutput, ServeError};
use super::router::ShardedEngine;
use super::LatencyStats;
use bioformer_tensor::Tensor;
use std::time::Duration;

/// One replica's row inside an [`EngineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStats {
    /// Replica index (0-based, in `add_replica` order).
    pub replica: usize,
    /// The replica backend's name, e.g. `"bioformer-int8"`.
    pub backend: String,
    /// The backend's compute report — `"default"` for backends without a
    /// compute seam, or the kernel tier plus per-shape winners for
    /// replicas built through the autotuner.
    pub tuning: String,
    /// Whether the router has quarantined this replica.
    pub quarantined: bool,
    /// The replica's routing weight (1.0 unless set via
    /// [`ShardedEngineBuilder::add_replica_weighted`](super::ShardedEngineBuilder::add_replica_weighted)).
    pub weight: f64,
    /// Requests waiting in this replica's queue at snapshot time (always 0
    /// for an inline replica).
    pub queue_depth: usize,
    /// EWMA of this replica's coalesced-batch backend latency. `None`
    /// before the first executed batch.
    pub ewma_batch_latency: Option<Duration>,
    /// EWMA of this replica's per-window backend latency — the signal
    /// [`RoutingPolicy::LatencyAware`](super::RoutingPolicy::LatencyAware)
    /// routes on. `None` before the first executed batch.
    pub ewma_window_latency: Option<Duration>,
    /// Requests served (responses delivered with logits).
    pub requests: usize,
    /// Requests expired for missing their deadline.
    pub expired: usize,
    /// Requests cancelled because the backend panicked mid-batch.
    pub failed: usize,
    /// Requests rejected by validation: a bad rank or window shape at
    /// submission, or a shape mismatch caught while forming a batch.
    pub rejected: usize,
    /// Batches executed (the backend was actually invoked; batches of only
    /// zero-window requests don't count).
    pub batches: usize,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: usize,
    /// Windows served.
    pub windows: usize,
    /// Micro-batch latency summary. Count, total, mean, min and max are
    /// exact over the replica's lifetime; p50/p95/p99 are estimated over a
    /// sliding window of the most recent samples.
    pub latency: LatencyStats,
}

/// Serving statistics of an engine: one [`ReplicaStats`] row per replica,
/// and pool totals summed from those rows — the shape
/// [`ServerStats`](super::ServerStats) has over its tenants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Requests served; the sum over `per_replica`.
    pub requests: usize,
    /// Requests expired for missing their deadline; the sum over
    /// `per_replica`.
    pub expired: usize,
    /// Requests cancelled because a backend panicked mid-batch; the sum
    /// over `per_replica`.
    pub failed: usize,
    /// Requests rejected by validation; the sum over `per_replica`.
    pub rejected: usize,
    /// Batches executed; the sum over `per_replica`.
    pub batches: usize,
    /// Batches that coalesced more than one request; the sum over
    /// `per_replica`.
    pub coalesced_batches: usize,
    /// Windows served; the sum over `per_replica`.
    pub windows: usize,
    /// Micro-batch latency summary across every replica (exact
    /// count/total/mean/min/max; percentiles estimated over the replicas'
    /// recent-sample windows).
    pub latency: LatencyStats,
    /// Hedged duplicates fired by
    /// [`ShardedEngine::classify`]. A pool-level counter, outside the
    /// per-replica sums: the duplicate itself is counted as an ordinary
    /// request in the hedge replica's row.
    pub hedges_fired: usize,
    /// Hedged duplicates whose answer was the one returned to the caller.
    pub hedges_won: usize,
    /// One row per replica, in `add_replica` order.
    pub per_replica: Vec<ReplicaStats>,
}

impl EngineStats {
    /// Builds the pool view over `per_replica`, summing every counter total
    /// from the rows.
    pub(crate) fn from_rows(
        per_replica: Vec<ReplicaStats>,
        latency: LatencyStats,
        hedges_fired: usize,
        hedges_won: usize,
    ) -> Self {
        let sum = |f: fn(&ReplicaStats) -> usize| per_replica.iter().map(f).sum();
        EngineStats {
            requests: sum(|r| r.requests),
            expired: sum(|r| r.expired),
            failed: sum(|r| r.failed),
            rejected: sum(|r| r.rejected),
            batches: sum(|r| r.batches),
            coalesced_batches: sum(|r| r.coalesced_batches),
            windows: sum(|r| r.windows),
            latency,
            hedges_fired,
            hedges_won,
            per_replica,
        }
    }

    /// Windows served per second of backend time (0.0 before any work).
    pub fn throughput(&self) -> f64 {
        self.latency.throughput()
    }

    /// Mean requests per executed batch (0.0 before any work) — the
    /// coalescing factor: > 1 means cross-request batching is happening.
    pub fn requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Whether every pool total equals the sum of its per-replica rows.
    /// Engine snapshots hold it by construction; it is the invariant
    /// [`ServerStats::rollup_consistent`](super::ServerStats::rollup_consistent)
    /// mirrors over tenants.
    pub fn rollup_consistent(&self) -> bool {
        let rebuilt = EngineStats::from_rows(
            self.per_replica.clone(),
            self.latency.clone(),
            self.hedges_fired,
            self.hedges_won,
        );
        rebuilt == *self
    }
}

/// The serving contract, implemented by [`ShardedEngine`] for every
/// topology and by the zoo's [`ShadowEngine`](super::ShadowEngine).
///
/// The trait is object-safe: `&dyn Engine` / `Box<dyn Engine>` let tests
/// and clients switch serving topology at runtime. Every method reports
/// failures through the one [`ServeError`] surface — no panicking entry
/// points, no engine-specific error enums.
///
/// Semantics worth knowing when writing engine-generic code:
///
/// * On an inline replica (`workers: 0`) [`Engine::submit`] **serves on
///   the calling thread** — the returned [`PendingResponse`] is already
///   resolved by the time you get it, and `try_submit` never reports
///   [`ServeError::QueueFull`] (there is no queue to be full).
/// * Replicas with workers validate shapes at submission and may make a
///   caller of `submit` wait when the bounded queue is full; `try_submit`
///   fails fast with [`ServeError::QueueFull`] instead.
/// * [`Engine::shutdown`] always drains accepted work before returning
///   the final statistics.
pub trait Engine: Send + Sync {
    /// The engine type: `"sharded"`, or `"shadow"` for a zoo experiment.
    fn kind(&self) -> &'static str;

    /// Backend name per replica.
    fn backends(&self) -> Vec<String>;

    /// Number of output classes (the width of the logit rows).
    fn num_classes(&self) -> usize;

    /// The `[channels, samples]` window shape this engine serves, when
    /// known — declared by the backend(s) or pinned by traffic. `None`
    /// when unknown or when replicas disagree.
    fn input_shape(&self) -> Option<(usize, usize)>;

    /// Submits a request batch `[n, channels, samples]`, blocking while a
    /// bounded queue is full (cooperative backpressure); returns a handle
    /// to redeem with [`PendingResponse::wait`].
    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError>;

    /// Submits without blocking: fails fast with [`ServeError::QueueFull`]
    /// when the engine cannot accept the request right now.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError>;

    /// Submits a request that must **start** being served within `ttl`.
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError>;

    /// Submit-and-wait convenience; engines with retry logic (the sharded
    /// pool's re-routing) hook it here.
    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        self.submit(windows)?.wait()
    }

    /// A live snapshot of the engine's serving statistics.
    fn engine_stats(&self) -> EngineStats;

    /// Graceful shutdown: stops accepting requests, drains and serves
    /// everything already accepted, and returns the final statistics.
    fn shutdown(self: Box<Self>) -> EngineStats;
}

impl Engine for ShardedEngine {
    fn kind(&self) -> &'static str {
        "sharded"
    }

    fn backends(&self) -> Vec<String> {
        self.backend_names()
    }

    fn num_classes(&self) -> usize {
        ShardedEngine::num_classes(self)
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        ShardedEngine::input_shape(self)
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        ShardedEngine::submit(self, windows)
    }

    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        ShardedEngine::try_submit(self, windows)
    }

    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        ShardedEngine::submit_with_deadline(self, windows, ttl)
    }

    /// Routes through the pool's re-routing `classify`, so a replica
    /// cancellation costs a retry on another healthy replica rather than
    /// surfacing to the generic caller.
    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        ShardedEngine::classify(self, windows)
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        ShardedEngine::shutdown(*self)
    }
}
