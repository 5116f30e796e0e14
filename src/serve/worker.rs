//! The serving replica behind [`ShardedEngine`](super::ShardedEngine): a
//! bounded request [`queue`](super::queue), a pool of `W ≥ 0` workers and
//! the replica's statistics.
//!
//! Each worker pops requests off the queue, coalesces concurrent clients'
//! windows into one shared micro-batch (flushing on batch-full or when the
//! linger deadline passes), expires late requests, runs the backend once
//! per batch, and scatters the logits back to every waiting client. A
//! replica with `workers: 0` spawns no threads: it runs each request
//! through the same batch executor on the submitting thread, so its
//! handles come back already resolved.

use super::queue::{PendingResponse, Request, RequestOutput, RequestQueue, ServeError};
use super::{predict_chunked, GestureClassifier, LatencyStats, DEFAULT_MICRO_BATCH};
use bioformer_tensor::{Tensor, TensorArena};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a worker holding a partial batch decides how long to wait for
/// stragglers before flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LingerPolicy {
    /// Always wait the configured [`AsyncEngineConfig::linger`].
    Fixed,
    /// Derive the linger from the replica's observed traffic: the EWMA of
    /// request inter-arrival times and of batch service time. Sparse
    /// traffic (arrivals slower than service) flushes immediately — no
    /// linger tax; bursty traffic waits long enough for the batch to fill,
    /// never longer than one batch service time or `max`. Before any
    /// traffic has been observed the fixed `linger` is used as bootstrap.
    Adaptive {
        /// Hard upper bound on the derived linger.
        max: Duration,
    },
}

/// Per-replica tuning knobs for [`ShardedEngine`](super::ShardedEngine).
///
/// The defaults favour throughput under concurrency: a small linger lets a
/// worker wait for other clients' requests to share a batch, which costs at
/// most `linger` of extra latency when traffic is sparse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncEngineConfig {
    /// Worker threads consuming the queue. One worker per backend replica
    /// is the norm; more only helps when the backend itself can run batches
    /// concurrently (e.g. on spare cores). `0` serves inline: every
    /// submission runs on the caller's thread and returns an
    /// already-resolved handle — the topology for offline evaluation,
    /// batch jobs and single-caller streaming.
    pub workers: usize,
    /// Maximum windows per coalesced batch, and the chunk size every batch
    /// is executed with (≥ 1): a larger request is split into micro-batches
    /// whose logits are reassembled in request order.
    pub micro_batch: usize,
    /// How long a worker holding a partial batch waits for more requests
    /// before flushing (under [`LingerPolicy::Fixed`]; the bootstrap value
    /// under [`LingerPolicy::Adaptive`]). `Duration::ZERO` still coalesces
    /// whatever is already queued, it just never waits for stragglers.
    pub linger: Duration,
    /// Whether the linger is the static `linger` value or derived from the
    /// replica's observed arrival rate and batch service time.
    pub linger_policy: LingerPolicy,
    /// Bounded queue capacity in requests (≥ 1); the backpressure limit.
    pub queue_capacity: usize,
}

impl Default for AsyncEngineConfig {
    fn default() -> Self {
        AsyncEngineConfig {
            workers: 2,
            micro_batch: DEFAULT_MICRO_BATCH,
            linger: Duration::from_micros(500),
            linger_policy: LingerPolicy::Fixed,
            queue_capacity: 256,
        }
    }
}

impl AsyncEngineConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum windows per coalesced batch.
    pub fn with_micro_batch(mut self, micro_batch: usize) -> Self {
        self.micro_batch = micro_batch;
        self
    }

    /// Sets the linger deadline for partial batches (and switches back to
    /// [`LingerPolicy::Fixed`]).
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self.linger_policy = LingerPolicy::Fixed;
        self
    }

    /// Switches to [`LingerPolicy::Adaptive`] with `max` as the hard upper
    /// bound on the derived linger.
    pub fn with_adaptive_linger(mut self, max: Duration) -> Self {
        self.linger_policy = LingerPolicy::Adaptive { max };
        self
    }

    /// Sets the bounded queue capacity (in requests).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    fn validate(&self) {
        assert!(
            self.micro_batch > 0,
            "AsyncEngineConfig: micro_batch must be >= 1"
        );
        assert!(
            self.queue_capacity > 0,
            "AsyncEngineConfig: queue_capacity must be >= 1"
        );
    }
}

/// Per-replica cap on retained latency samples: totals stay exact forever,
/// while p50/p95/p99 are estimated over a sliding window of the most
/// recent samples so a long-lived engine's memory stays bounded.
const LATENCY_WINDOW: usize = 4096;

/// Smoothing factor for the replica-level EWMAs (batch service time,
/// request inter-arrival time): each new sample contributes 20%.
const EWMA_ALPHA: f64 = 0.2;

/// Folds `sample` into the EWMA stored in `cell` as nanoseconds. Zero is
/// the "no data yet" sentinel, so stored values are clamped to ≥ 1 ns.
fn ewma_update(cell: &AtomicU64, sample: Duration) {
    let s = (sample.as_nanos().min(u64::MAX as u128) as u64).max(1);
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        s
    } else {
        (EWMA_ALPHA * s as f64 + (1.0 - EWMA_ALPHA) * old as f64) as u64
    };
    cell.store(new.max(1), Ordering::Relaxed);
}

/// Live replica health + traffic signals, shared between the submission
/// side, the workers and the router. All counters are advisory: they steer
/// routing and the adaptive linger, never correctness.
pub(crate) struct ReplicaShared {
    /// Worker threads still running; decremented when a worker exits for
    /// any reason (graceful drain or a panic escaping the batch guard). An
    /// inline replica counts the submitting thread as its one worker, which
    /// never exits.
    alive_workers: AtomicUsize,
    /// Batches that failed back-to-back (backend panics); reset to zero by
    /// the next successful batch. The router quarantines on a run of these.
    consecutive_failures: AtomicUsize,
    /// Accepted requests not yet responded to (queued **or** riding an
    /// executing batch). A better load signal than queue depth alone,
    /// which reads zero while a worker holds the whole backlog in its
    /// forming batch.
    inflight: AtomicUsize,
    /// Workers currently executing a batch. A new request routed to a
    /// fully busy replica waits out the in-flight batch before service.
    busy_workers: AtomicUsize,
    /// Requests riding currently-executing batches. `inflight −
    /// executing` is the work still *waiting* (queued or in a forming
    /// batch) — the term that scales a new request's expected wait.
    executing: AtomicUsize,
    /// EWMA of coalesced-batch backend latency, in ns (0 = no data).
    ewma_batch_ns: AtomicU64,
    /// EWMA of per-window backend latency (batch latency / batch windows),
    /// in ns (0 = no data). The routing signal: unlike the raw batch EWMA
    /// it does not punish a replica for absorbing bigger batches.
    ewma_window_ns: AtomicU64,
    /// EWMA of request inter-arrival time, in ns (0 = no data).
    ewma_arrival_ns: AtomicU64,
    /// Instant of the most recent accepted request.
    last_arrival: Mutex<Option<Instant>>,
}

impl ReplicaShared {
    fn new(workers: usize) -> Self {
        ReplicaShared {
            alive_workers: AtomicUsize::new(workers),
            consecutive_failures: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            executing: AtomicUsize::new(0),
            ewma_batch_ns: AtomicU64::new(0),
            ewma_window_ns: AtomicU64::new(0),
            ewma_arrival_ns: AtomicU64::new(0),
            last_arrival: Mutex::new(None),
        }
    }

    fn note_batch_success(&self, latency: Duration, windows: usize) {
        ewma_update(&self.ewma_batch_ns, latency);
        if windows > 0 {
            ewma_update(&self.ewma_window_ns, latency / windows as u32);
        }
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    fn note_batch_failure(&self) {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Clears the consecutive-failure run. The router calls this when a
    /// canary probe succeeds: the response is delivered from *inside* the
    /// batch, before the worker's own `note_batch_success` accounting
    /// lands, so without this reset a re-admitted replica could be
    /// instantly re-quarantined by the stale counter.
    pub(crate) fn reset_failures(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    fn note_arrival(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut last = self.last_arrival.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(prev) = *last {
            ewma_update(&self.ewma_arrival_ns, now.saturating_duration_since(prev));
        }
        *last = Some(now);
    }

    fn note_responded(&self, count: usize) {
        // Saturating: direct `run_batch` callers (tests) never arrived.
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(count))
            });
    }

    pub(crate) fn busy_workers(&self) -> usize {
        self.busy_workers.load(Ordering::Relaxed)
    }

    /// Accepted requests still waiting for a backend slot (not yet part of
    /// an executing batch).
    pub(crate) fn waiting(&self) -> usize {
        self.inflight
            .load(Ordering::Relaxed)
            .saturating_sub(self.executing.load(Ordering::Relaxed))
    }

    pub(crate) fn alive_workers(&self) -> usize {
        self.alive_workers.load(Ordering::Relaxed)
    }

    pub(crate) fn consecutive_failures(&self) -> usize {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    pub(crate) fn ewma_batch_latency(&self) -> Option<Duration> {
        match self.ewma_batch_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    pub(crate) fn ewma_window_latency(&self) -> Option<Duration> {
        match self.ewma_window_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

/// Decrements the replica's alive-worker count when the worker thread exits
/// — including by panic, so the router can detect a dead replica.
struct AliveGuard(Arc<ReplicaCore>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.shared.alive_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The linger a worker should wait for stragglers before flushing a
/// partial batch, given the replica's observed traffic.
fn effective_linger(cfg: &AsyncEngineConfig, shared: &ReplicaShared) -> Duration {
    match cfg.linger_policy {
        LingerPolicy::Fixed => cfg.linger,
        LingerPolicy::Adaptive { max } => {
            let service = shared.ewma_batch_ns.load(Ordering::Relaxed);
            let arrival = shared.ewma_arrival_ns.load(Ordering::Relaxed);
            if service == 0 || arrival == 0 {
                // No traffic signal yet: bootstrap from the fixed value.
                cfg.linger.min(max)
            } else if arrival >= service {
                // Sparse traffic: the next request is unlikely to arrive
                // within a batch's service time — flush immediately rather
                // than taxing every request with a hopeless wait.
                Duration::ZERO
            } else {
                // Bursty traffic: wait roughly as long as it takes the
                // batch to fill, but never longer than one batch service
                // time (past that, waiting costs more than it amortises).
                let fill = arrival.saturating_mul(cfg.micro_batch as u64);
                Duration::from_nanos(fill.min(service)).min(max)
            }
        }
    }
}

/// A replica's lifetime accounting, updated after every executed batch —
/// the source of its [`ReplicaStats`](super::ReplicaStats) row.
#[derive(Debug, Default, Clone)]
pub(crate) struct Counters {
    pub(crate) batches: usize,
    pub(crate) coalesced_batches: usize,
    pub(crate) requests: usize,
    pub(crate) windows: usize,
    pub(crate) expired: usize,
    pub(crate) failed: usize,
    pub(crate) rejected: usize,
    micro_batches: usize,
    total_latency: Duration,
    min_latency: Option<Duration>,
    max_latency: Option<Duration>,
    /// Ring buffer of the most recent micro-batch latencies (percentiles).
    recent: Vec<Duration>,
    next: usize,
}

impl Counters {
    fn record_latencies(&mut self, latencies: &[Duration]) {
        for &d in latencies {
            self.micro_batches += 1;
            self.total_latency += d;
            self.min_latency = Some(self.min_latency.map_or(d, |m| m.min(d)));
            self.max_latency = Some(self.max_latency.map_or(d, |m| m.max(d)));
            if self.recent.len() < LATENCY_WINDOW {
                self.recent.push(d);
            } else {
                self.recent[self.next] = d;
                self.next = (self.next + 1) % LATENCY_WINDOW;
            }
        }
    }

    /// Folds another replica's windows and latency samples into this one,
    /// so a pool's percentiles are estimated over every replica's recent
    /// window.
    pub(crate) fn merge_latencies(&mut self, other: &Counters) {
        self.windows += other.windows;
        self.micro_batches += other.micro_batches;
        self.total_latency += other.total_latency;
        self.min_latency = match (self.min_latency, other.min_latency) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_latency = self.max_latency.max(other.max_latency);
        self.recent.extend_from_slice(&other.recent);
    }

    /// Builds a [`LatencyStats`] with exact count/total/mean/min/max and
    /// window-estimated percentiles.
    pub(crate) fn latency_stats(&self) -> LatencyStats {
        let mut recent = self.recent.clone();
        let mut stats = LatencyStats::from_samples(&mut recent, self.windows);
        if self.micro_batches > 0 {
            stats.micro_batches = self.micro_batches;
            stats.total = self.total_latency;
            stats.mean = Duration::from_secs_f64(
                self.total_latency.as_secs_f64() / self.micro_batches as f64,
            );
            stats.min = self.min_latency.unwrap_or(Duration::ZERO);
            stats.max = self.max_latency.unwrap_or(Duration::ZERO);
        }
        stats
    }
}

/// The served `[channels, samples]` shape plus how many requests have been
/// accepted since it was pinned — both under **one** lock, so concurrent
/// first submissions with different shapes can never both be accepted
/// (validate-and-pin is atomic).
struct ShapeState {
    shape: Option<(usize, usize)>,
    /// Whether `shape` comes from [`GestureClassifier::input_shape`]
    /// (never cleared) as opposed to being pinned by traffic (cleared
    /// again while no request relies on it).
    declared: bool,
    /// Requests accepted (successfully enqueued) against `shape`.
    accepted: usize,
    /// Requests validated against `shape` whose enqueue outcome is still
    /// unknown. A traffic pin may only be rolled back when no other
    /// request has validated against it — an accepted-but-uncommitted
    /// sibling (`push` done, `commit_shape` pending) counts here.
    validating: usize,
}

/// What a replica's submitters and workers share: the backend, the queue,
/// the counters and the live health signals.
struct ReplicaCore {
    backend: Box<dyn GestureClassifier>,
    cfg: AsyncEngineConfig,
    queue: RequestQueue,
    stats: Mutex<Counters>,
    shared: ReplicaShared,
}

/// One backend replica: a bounded request queue, `W ≥ 0` workers
/// coalescing requests into shared micro-batches over one shared backend,
/// the replica's counters and its live health/traffic signals.
/// [`ShardedEngine`](super::ShardedEngine) routes over one or more.
pub(crate) struct Replica {
    core: Arc<ReplicaCore>,
    handles: Vec<JoinHandle<()>>,
    /// `[channels, samples]` served by this replica: the backend's declared
    /// [`GestureClassifier::input_shape`] when known, else pinned
    /// atomically by the first validated submission. Mismatches are
    /// rejected at submission.
    shape: Mutex<ShapeState>,
    /// Scratch arena of the inline path (`workers == 0`); each worker
    /// thread owns its own instead.
    arena: Mutex<TensorArena>,
}

impl Replica {
    /// Spawns `cfg.workers` workers over `backend` (none for an inline
    /// replica).
    ///
    /// # Panics
    ///
    /// Panics if `micro_batch` or `queue_capacity` is zero.
    pub(crate) fn new(backend: Box<dyn GestureClassifier>, cfg: AsyncEngineConfig) -> Self {
        cfg.validate();
        let shape = backend.input_shape();
        let core = Arc::new(ReplicaCore {
            backend,
            queue: RequestQueue::new(cfg.queue_capacity),
            stats: Mutex::new(Counters::default()),
            shared: ReplicaShared::new(cfg.workers.max(1)),
            cfg,
        });
        let handles = (0..core.cfg.workers)
            .map(|id| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{id}"))
                    .spawn(move || {
                        let _alive = AliveGuard(Arc::clone(&core));
                        worker_loop(&core)
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Replica {
            core,
            handles,
            shape: Mutex::new(ShapeState {
                shape,
                declared: shape.is_some(),
                accepted: 0,
                validating: 0,
            }),
            arena: Mutex::new(TensorArena::new()),
        }
    }

    pub(crate) fn backend_name(&self) -> &str {
        self.core.backend.name()
    }

    pub(crate) fn compute_report(&self) -> String {
        self.core.backend.compute_report()
    }

    pub(crate) fn num_classes(&self) -> usize {
        self.core.backend.num_classes()
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.core.queue.len()
    }

    pub(crate) fn shared(&self) -> &ReplicaShared {
        &self.core.shared
    }

    /// The `[channels, samples]` shape this replica is currently serving:
    /// the backend's declared shape, or the traffic-pinned one, or `None`
    /// before any shape is known. Used by the streaming layer to size
    /// windows and by the router to synthesise canary probes.
    pub(crate) fn served_shape(&self) -> Option<(usize, usize)> {
        self.shape.lock().unwrap_or_else(|e| e.into_inner()).shape
    }

    /// Counts a request refused by validation and returns its error.
    fn reject(&self, why: String) -> ServeError {
        self.core
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rejected += 1;
        ServeError::BadRequest(why)
    }

    /// Validates `windows` against the replica's served shape — **and pins
    /// an unknown shape in the same lock acquisition**, so two racing first
    /// submissions with different shapes can never both pass validation
    /// (one of them would later gather into a mismatched batch and cancel
    /// every rider). Also registers the request in `ShapeState::validating`;
    /// the caller must balance every success with [`Replica::commit_shape`]
    /// (enqueue succeeded) or [`Replica::rollback_shape`] (enqueue failed —
    /// clears a traffic pin nothing relies on, so a rejected request cannot
    /// brick the replica for well-formed traffic).
    #[allow(clippy::type_complexity)]
    fn make_request(
        &self,
        windows: Tensor,
        deadline: Option<Instant>,
    ) -> Result<(Request, PendingResponse, (usize, usize)), ServeError> {
        if windows.dims().len() != 3 {
            return Err(self.reject(format!(
                "windows must be [n, channels, samples], got {:?}",
                windows.dims()
            )));
        }
        let (n, c, s) = (windows.dims()[0], windows.dims()[1], windows.dims()[2]);
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        match st.shape {
            Some((ec, es)) => {
                if (ec, es) != (c, s) {
                    drop(st);
                    return Err(self.reject(format!(
                        "window shape [{c}, {s}] does not match engine shape [{ec}, {es}]"
                    )));
                }
            }
            None => st.shape = Some((c, s)),
        }
        st.validating += 1;
        drop(st);
        let (tx, rx) = mpsc::channel();
        Ok((
            Request {
                windows,
                deadline,
                enqueued: Instant::now(),
                respond: tx,
            },
            PendingResponse { rx, windows: n },
            (c, s),
        ))
    }

    /// Marks one request with shape `(c, s)` as successfully enqueued.
    fn commit_shape(&self, c: usize, s: usize) {
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        // Re-pin if a concurrent rollback cleared the shape between our
        // validation and this commit (only possible while nothing else had
        // validated against it, so re-pinning is always consistent).
        if st.shape.is_none() {
            st.shape = Some((c, s));
        }
        st.accepted += 1;
        st.validating -= 1;
    }

    /// Undoes a traffic pin after a failed enqueue. The shape is only
    /// cleared while nothing else relies on it: it was pinned by traffic
    /// (not declared by the backend), no request was accepted against it,
    /// and no sibling that validated against it is still mid-enqueue (a
    /// sibling may already have pushed successfully without committing
    /// yet). Every request reaching this point validated against the
    /// current pin, so any of them may clear it once it is unreferenced.
    fn rollback_shape(&self, c: usize, s: usize) {
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        st.validating -= 1;
        if !st.declared && st.accepted == 0 && st.validating == 0 && st.shape == Some((c, s)) {
            st.shape = None;
        }
    }

    fn enqueue(
        &self,
        req: Request,
        pending: PendingResponse,
        (c, s): (usize, usize),
        blocking: bool,
    ) -> Result<PendingResponse, ServeError> {
        // An inline replica has no queue to wait in: it only refuses work
        // once closed, and hands the request back to run on this thread.
        let pushed = if self.handles.is_empty() {
            self.core.queue.ensure_open().map(|()| Some(req))
        } else if blocking {
            self.core.queue.push(req).map(|()| None)
        } else {
            self.core.queue.try_push(req).map(|()| None)
        };
        match pushed {
            Ok(inline) => {
                self.commit_shape(c, s);
                self.core.shared.note_arrival();
                if let Some(req) = inline {
                    self.serve_inline(req);
                }
                Ok(pending)
            }
            Err(e) => {
                self.rollback_shape(c, s);
                Err(e)
            }
        }
    }

    /// Runs `req` on the caller's thread through the workers' batch
    /// executor. The replica arena is reused when free; a concurrent inline
    /// caller falls back to a throwaway arena (paying that call's
    /// allocations) rather than serialising on the lock.
    fn serve_inline(&self, req: Request) {
        let mut guard = match self.arena.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        let mut local = TensorArena::new();
        let arena = guard.as_deref_mut().unwrap_or(&mut local);
        let mut batch = Batch::default();
        batch.admit(req);
        self.core.execute(batch, arena);
    }

    /// Submits a request, blocking while the queue is full.
    pub(crate) fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, None)?;
        self.enqueue(req, pending, cs, true)
    }

    /// Submits a request, failing fast with [`ServeError::QueueFull`].
    pub(crate) fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, None)?;
        self.enqueue(req, pending, cs, false)
    }

    /// Submits a request that must start being served within `ttl`.
    pub(crate) fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, Some(Instant::now() + ttl))?;
        self.enqueue(req, pending, cs, true)
    }

    /// A consistent copy of the replica's counters, latency samples
    /// included.
    pub(crate) fn snapshot(&self) -> Counters {
        self.core
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Stops accepting new requests; already-queued work is still drained.
    pub(crate) fn close(&self) {
        self.core.queue.close();
    }

    /// Joins the worker threads (call [`Replica::close`] first, or this
    /// blocks until someone else closes the queue).
    pub(crate) fn join(&mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.close();
        self.join();
    }
}

/// A batch being formed: its riders, plus the requests turned away while
/// it formed.
#[derive(Default)]
struct Batch {
    riders: Vec<Request>,
    /// Windows across `riders`.
    total: usize,
    expired: usize,
    rejected: usize,
}

impl Batch {
    /// Admits `req` as a rider, or expires/rejects it on the spot. The
    /// shape re-check against the first rider is defence-in-depth:
    /// submission-time validation already pins the served shape
    /// atomically, so a mismatch here means a validation bypass — reject
    /// the request rather than letting the gather `copy_from_slice` panic
    /// and cancel every rider.
    fn admit(&mut self, req: Request) {
        if req.deadline.is_some_and(|d| Instant::now() > d) {
            self.expired += 1;
            let _ = req.respond.send(Err(ServeError::DeadlineExpired));
            return;
        }
        if let Some(first) = self.riders.first() {
            if req.shape() != first.shape() {
                self.rejected += 1;
                let (c, s) = req.shape();
                let (ec, es) = first.shape();
                let _ = req.respond.send(Err(ServeError::BadRequest(format!(
                    "window shape [{c}, {s}] does not match batch shape [{ec}, {es}]"
                ))));
                return;
            }
        }
        self.total += req.windows.dims()[0];
        self.riders.push(req);
    }
}

impl ReplicaCore {
    /// Executes one formed batch and accounts for it: expires riders whose
    /// deadline passed while it formed, runs the rest on the backend,
    /// responds to every rider, and updates the counters and health
    /// signals. A panicking backend (bad logits shape, internal assert, …)
    /// cancels the batch's riders instead of unwinding into the worker —
    /// or into an inline caller.
    fn execute(&self, batch: Batch, arena: &mut TensorArena) {
        let Batch {
            mut riders,
            mut total,
            mut expired,
            rejected,
        } = batch;
        // Re-check deadlines at execution start: lingering must not revive
        // requests that expired while the batch was forming.
        let exec_start = Instant::now();
        riders.retain(|req| {
            let late = req.deadline.is_some_and(|d| exec_start > d);
            if late {
                expired += 1;
                total -= req.windows.dims()[0];
                let _ = req.respond.send(Err(ServeError::DeadlineExpired));
            }
            !late
        });

        let shared = &self.shared;
        let outcome = if riders.is_empty() {
            Ok(Vec::new())
        } else {
            shared.busy_workers.fetch_add(1, Ordering::Relaxed);
            shared.executing.fetch_add(riders.len(), Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_batch(
                    self.backend.as_ref(),
                    self.cfg.micro_batch,
                    &riders,
                    total,
                    exec_start,
                    arena,
                )
            }));
            shared.executing.fetch_sub(riders.len(), Ordering::Relaxed);
            shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
            outcome
        };

        // Every request admitted to this batch has now been responded to
        // (served, expired, rejected, or about to be cancelled below).
        shared.note_responded(riders.len() + expired + rejected);

        let mut inner = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        inner.expired += expired;
        inner.rejected += rejected;
        match outcome {
            Ok(latencies) => {
                inner.requests += riders.len();
                inner.windows += total;
                // Count a batch only when the backend actually ran: a flush
                // containing only zero-window requests produces no backend
                // call (and no latency samples), and must not dilute
                // `requests_per_batch` with phantom batches.
                if !latencies.is_empty() {
                    inner.batches += 1;
                    if riders.len() > 1 {
                        inner.coalesced_batches += 1;
                    }
                    inner.record_latencies(&latencies);
                    drop(inner);
                    shared.note_batch_success(latencies.iter().sum(), total);
                }
            }
            Err(_panic) => {
                inner.failed += riders.len();
                drop(inner);
                // Bump the health signal before cancelling, so a router
                // woken by the cancellation already sees the failure.
                shared.note_batch_failure();
                for req in &riders {
                    let _ = req.respond.send(Err(ServeError::Cancelled));
                }
            }
        }
    }
}

/// One worker: pop → coalesce until batch-full or linger deadline →
/// execute, until the queue closes and drains.
fn worker_loop(core: &ReplicaCore) {
    // One scratch arena per worker thread, reused across every batch this
    // worker ever executes: after the first batch of a given shape, model
    // forwards draw all their intermediates from the pool instead of the
    // global allocator.
    let mut arena = TensorArena::new();
    while let Some(first) = core.queue.pop() {
        let mut batch = Batch::default();
        batch.admit(first);
        // Coalesce: drain the backlog immediately, then wait out the linger
        // window for stragglers — but never once the batch is full.
        let flush_at = Instant::now() + effective_linger(&core.cfg, &core.shared);
        while batch.total < core.cfg.micro_batch {
            match core.queue.pop_until(flush_at) {
                Some(req) => batch.admit(req),
                None => break,
            }
        }
        core.execute(batch, &mut arena);
    }
}

/// Executes one coalesced batch and responds to every request in it;
/// returns the per-micro-batch backend latencies.
///
/// All execution scratch (the gather tensor, model intermediates, the
/// shared logits) lives in the executor's `arena` and is recycled before
/// returning — only the per-request response tensors, which escape to the
/// clients, are freshly allocated.
fn run_batch(
    backend: &dyn GestureClassifier,
    micro_batch: usize,
    batch: &[Request],
    total: usize,
    exec_start: Instant,
    arena: &mut TensorArena,
) -> Vec<Duration> {
    let classes = backend.num_classes();
    let (channels, samples) = {
        let d = batch[0].windows.dims();
        (d[1], d[2])
    };
    let sample_len = channels * samples;

    // Gather every request's windows into one shared tensor — unless the
    // batch is a single request, which can be served from its own tensor
    // without the extra copy (the common case under sparse traffic).
    let mut gathered: Option<Tensor> = None;
    if batch.len() > 1 {
        let mut buf = arena.tensor(&[total, channels, samples]);
        let mut row = 0usize;
        for req in batch {
            let n = req.windows.dims()[0];
            buf.data_mut()[row * sample_len..(row + n) * sample_len]
                .copy_from_slice(req.windows.data());
            row += n;
        }
        gathered = Some(buf);
    }
    let all = gathered.as_ref().unwrap_or(&batch[0].windows);

    let (logits, latencies) = predict_chunked(backend, all, micro_batch, arena);
    let batch_latency: Duration = latencies.iter().sum();

    // Scatter logits back, one response per request.
    let mut row = 0usize;
    for req in batch {
        let n = req.windows.dims()[0];
        let slice = Tensor::from_vec(
            logits.data()[row * classes..(row + n) * classes].to_vec(),
            &[n, classes],
        );
        let predictions = if n == 0 {
            Vec::new()
        } else {
            slice.argmax_rows()
        };
        let _ = req.respond.send(Ok(RequestOutput {
            logits: slice,
            predictions,
            queue_wait: exec_start.saturating_duration_since(req.enqueued),
            batch_requests: batch.len(),
            batch_windows: total,
            batch_latency,
        }));
        row += n;
    }
    arena.recycle(logits);
    if let Some(g) = gathered {
        arena.recycle(g);
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that records the batch sizes it was asked for.
    struct Probe {
        classes: usize,
        seen: Arc<Mutex<Vec<usize>>>,
    }

    impl GestureClassifier for Probe {
        fn predict_batch(&self, windows: &Tensor) -> Tensor {
            let n = windows.dims()[0];
            self.seen.lock().unwrap().push(n);
            Tensor::from_fn(&[n, self.classes], |i| (i / self.classes) as f32)
        }

        fn num_classes(&self) -> usize {
            self.classes
        }

        fn name(&self) -> &str {
            "probe"
        }
    }

    fn probe_replica(cfg: AsyncEngineConfig) -> (Replica, Arc<Mutex<Vec<usize>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let replica = Replica::new(
            Box::new(Probe {
                classes: 4,
                seen: Arc::clone(&seen),
            }),
            cfg,
        );
        (replica, seen)
    }

    fn classify(replica: &Replica, windows: Tensor) -> Result<RequestOutput, ServeError> {
        replica.submit(windows)?.wait()
    }

    /// Graceful shutdown: drain, join, and return the final counters.
    fn shutdown(mut replica: Replica) -> Counters {
        replica.close();
        replica.join();
        replica.snapshot()
    }

    #[test]
    fn serves_a_single_request() {
        let (replica, _seen) = probe_replica(AsyncEngineConfig::default().with_workers(1));
        let out = classify(&replica, Tensor::zeros(&[3, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);
        assert_eq!(out.predictions.len(), 3);
        assert!(out.batch_requests >= 1);
        let stats = shutdown(replica);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn empty_requests_are_served() {
        let (replica, seen) = probe_replica(AsyncEngineConfig::default().with_workers(1));
        let out = classify(&replica, Tensor::zeros(&[0, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[0, 4]);
        assert!(out.predictions.is_empty());
        assert!(seen.lock().unwrap().is_empty(), "no backend call for n=0");
    }

    /// Regression (phantom batches): a flush containing only zero-window
    /// requests never invokes the backend, so it must not count as an
    /// executed batch — before the fix, three n=0 submissions reported
    /// `batches == 3` and skewed `requests_per_batch` towards 1.0.
    #[test]
    fn zero_window_flushes_are_not_counted_as_batches() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = crate::serve::ShardedEngine::builder()
            .with_replica_config(
                AsyncEngineConfig::default()
                    .with_workers(1)
                    .with_linger(Duration::ZERO),
            )
            .add_replica(Box::new(Probe {
                classes: 4,
                seen: Arc::clone(&seen),
            }))
            .build();
        for _ in 0..3 {
            let out = engine.classify(Tensor::zeros(&[0, 2, 5])).unwrap();
            assert_eq!(out.logits.dims(), &[0, 4]);
        }
        let stats = engine.shutdown();
        assert!(seen.lock().unwrap().is_empty(), "backend must not run");
        assert_eq!(stats.requests, 3, "empty requests are still served");
        assert_eq!(stats.batches, 0, "no backend call -> no executed batch");
        assert_eq!(stats.coalesced_batches, 0);
        assert_eq!(stats.requests_per_batch(), 0.0);
        assert_eq!(stats.latency.micro_batches, 0);
    }

    #[test]
    fn rejects_non_rank3_and_mismatched_shapes() {
        let (replica, _seen) = probe_replica(AsyncEngineConfig::default().with_workers(1));
        assert!(matches!(
            replica.submit(Tensor::zeros(&[4, 10])),
            Err(ServeError::BadRequest(_))
        ));
        let _ = classify(&replica, Tensor::zeros(&[1, 2, 5])).unwrap();
        assert!(matches!(
            replica.submit(Tensor::zeros(&[1, 3, 5])),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(replica.snapshot().rejected, 2, "validation counts both");
    }

    /// Regression (shape-pinning race): validation and pinning used to take
    /// two separate lock acquisitions, so two concurrent first submissions
    /// with different shapes could both validate against `None` and both be
    /// accepted — a later coalesced batch then gathered mismatched tensors
    /// and panicked, cancelling every rider. This drives the exact racy
    /// interleaving (two validations before either enqueue): the second
    /// validation must now lose.
    #[test]
    fn concurrent_first_submissions_with_different_shapes_cannot_both_pin() {
        let (replica, _seen) = probe_replica(AsyncEngineConfig::default().with_workers(1));
        // Both requests validated before either is pushed to the queue —
        // the interleaving the old two-lock scheme allowed.
        let first = replica.make_request(Tensor::zeros(&[1, 2, 5]), None);
        let second = replica.make_request(Tensor::zeros(&[1, 3, 7]), None);
        assert!(first.is_ok(), "first shape pins the engine");
        assert!(
            matches!(second, Err(ServeError::BadRequest(_))),
            "second shape must be rejected by the atomic validate-and-pin"
        );
        // The pinned shape keeps serving.
        let out = classify(&replica, Tensor::zeros(&[2, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[2, 4]);
    }

    /// A rejected submission (failed enqueue) must not leave its
    /// provisional pin behind: the engine stays open for whatever shape the
    /// first *accepted* request has.
    #[test]
    fn failed_enqueue_rolls_back_a_provisional_pin() {
        let (replica, _seen) = probe_replica(AsyncEngineConfig::default().with_workers(1));
        replica.close();
        assert_eq!(
            replica.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
            ServeError::ShuttingDown
        );
        // The rejected request's shape was not committed: a different shape
        // still validates (only the enqueue fails, on the closed queue).
        assert!(
            replica
                .make_request(Tensor::zeros(&[1, 3, 7]), None)
                .is_ok(),
            "shape from a never-enqueued request must not stick"
        );
    }

    /// Defence-in-depth: even if a mismatched request reached the queue,
    /// `admit` refuses to gather it into a batch with a different shape —
    /// the rider gets `BadRequest`, the batch survives.
    #[test]
    fn admit_rejects_shape_mismatch_within_a_batch() {
        let (tx_a, _rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let mut batch = Batch::default();
        batch.admit(Request {
            windows: Tensor::zeros(&[2, 2, 5]),
            deadline: None,
            enqueued: Instant::now(),
            respond: tx_a,
        });
        batch.admit(Request {
            windows: Tensor::zeros(&[1, 3, 7]),
            deadline: None,
            enqueued: Instant::now(),
            respond: tx_b,
        });
        assert_eq!(batch.riders.len(), 1, "mismatched request must not join");
        assert_eq!(batch.total, 2);
        assert_eq!(batch.rejected, 1);
        assert!(matches!(
            rx_b.try_recv().unwrap(),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn submit_after_shutdown_fails() {
        for workers in [0, 1] {
            let (replica, _seen) =
                probe_replica(AsyncEngineConfig::default().with_workers(workers));
            replica.close();
            assert_eq!(
                replica.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
                ServeError::ShuttingDown,
                "workers={workers}"
            );
        }
    }

    /// `workers: 0` serves on the caller's thread: the handle is already
    /// resolved when `submit` returns, and the counters account exactly
    /// one batch of that request's micro-batches.
    #[test]
    fn zero_workers_serve_inline() {
        let (replica, seen) = probe_replica(
            AsyncEngineConfig::default()
                .with_workers(0)
                .with_micro_batch(2),
        );
        assert!(
            replica.handles.is_empty(),
            "an inline replica spawns no thread"
        );
        let pending = replica.submit(Tensor::zeros(&[3, 2, 5])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![2, 1], "served before returning");
        let out = pending
            .try_wait()
            .expect("an inline handle is already resolved")
            .unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);
        assert_eq!((out.batch_requests, out.batch_windows), (1, 3));
        let stats = shutdown(replica);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced_batches, 0);
        assert_eq!(stats.latency_stats().micro_batches, 2);
        assert_eq!((stats.expired, stats.failed, stats.rejected), (0, 0, 0));
    }

    /// A backend that panics on every batch.
    struct Exploding;

    impl GestureClassifier for Exploding {
        fn predict_batch(&self, _windows: &Tensor) -> Tensor {
            panic!("backend contract violation");
        }

        fn num_classes(&self) -> usize {
            4
        }

        fn name(&self) -> &str {
            "exploding"
        }
    }

    #[test]
    fn backend_panic_cancels_batch_but_worker_survives() {
        let replica = Replica::new(
            Box::new(Exploding),
            AsyncEngineConfig::default().with_workers(1),
        );
        // Two separate panicking batches: the worker must survive the
        // first to serve (and cancel) the second.
        for _ in 0..2 {
            let out = classify(&replica, Tensor::zeros(&[1, 2, 5]));
            assert_eq!(out.unwrap_err(), ServeError::Cancelled);
        }
        assert_eq!(replica.shared().consecutive_failures(), 2);
        assert_eq!(replica.shared().alive_workers(), 1);
        let stats = shutdown(replica);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn successful_batch_resets_consecutive_failures() {
        /// Panics only on the first call, then behaves.
        struct FlakyOnce {
            failed: Mutex<bool>,
        }
        impl GestureClassifier for FlakyOnce {
            fn predict_batch(&self, windows: &Tensor) -> Tensor {
                // The panic below poisons the mutex; recover on re-entry.
                let mut failed = self.failed.lock().unwrap_or_else(|e| e.into_inner());
                if !*failed {
                    *failed = true;
                    panic!("transient fault");
                }
                Tensor::zeros(&[windows.dims()[0], 4])
            }
            fn num_classes(&self) -> usize {
                4
            }
            fn name(&self) -> &str {
                "flaky-once"
            }
        }
        let replica = Replica::new(
            Box::new(FlakyOnce {
                failed: Mutex::new(false),
            }),
            AsyncEngineConfig::default().with_workers(1),
        );
        assert_eq!(
            classify(&replica, Tensor::zeros(&[1, 2, 5])).unwrap_err(),
            ServeError::Cancelled
        );
        assert_eq!(replica.shared().consecutive_failures(), 1);
        assert!(classify(&replica, Tensor::zeros(&[1, 2, 5])).is_ok());
        // The response is delivered from inside the batch, before the
        // worker's post-batch accounting — wait for the reset to land.
        let t0 = Instant::now();
        while replica.shared().consecutive_failures() != 0 && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::yield_now();
        }
        assert_eq!(replica.shared().consecutive_failures(), 0);
    }

    #[test]
    fn latency_window_stays_bounded_with_exact_totals() {
        let mut inner = Counters {
            windows: 10_000,
            ..Counters::default()
        };
        let samples: Vec<Duration> = (1..=10_000).map(Duration::from_micros).collect();
        inner.record_latencies(&samples);
        assert_eq!(inner.recent.len(), LATENCY_WINDOW);
        let stats = inner.latency_stats();
        assert_eq!(stats.micro_batches, 10_000);
        assert_eq!(stats.min, Duration::from_micros(1));
        assert_eq!(stats.max, Duration::from_micros(10_000));
        // total = Σ 1..=10000 µs
        assert_eq!(stats.total, Duration::from_micros(10_000 * 10_001 / 2));
        // p50 is estimated over the most recent window (samples 5905..=10000
        // after wrap-around), not over all history.
        assert!(stats.p50 >= Duration::from_micros(5905));
    }

    fn shared_with(batch_ns: u64, arrival_ns: u64) -> ReplicaShared {
        let shared = ReplicaShared::new(1);
        shared.ewma_batch_ns.store(batch_ns, Ordering::Relaxed);
        shared.ewma_arrival_ns.store(arrival_ns, Ordering::Relaxed);
        shared
    }

    #[test]
    fn adaptive_linger_flushes_immediately_under_sparse_traffic() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_millis(5));
        // Arrivals (10 ms apart) slower than service (1 ms): lingering is a
        // pure tax, so flush immediately.
        let shared = shared_with(1_000_000, 10_000_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::ZERO);
    }

    #[test]
    fn adaptive_linger_waits_to_fill_under_bursty_traffic() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_millis(5));
        // Arrivals every 10 µs, service 1 ms: wait ~16 × 10 µs to fill the
        // batch — well under both the service time and the cap.
        let shared = shared_with(1_000_000, 10_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_micros(160));
        // With a tighter cap, the cap wins.
        let capped = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_micros(50));
        assert_eq!(
            effective_linger(&capped, &shared),
            Duration::from_micros(50)
        );
    }

    #[test]
    fn adaptive_linger_is_bounded_by_service_time() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(1024)
            .with_adaptive_linger(Duration::from_secs(1));
        // Filling 1024 slots at 100 µs apart would take 102 ms, but the
        // batch only takes 2 ms to serve — waiting longer than one service
        // time costs more than it amortises.
        let shared = shared_with(2_000_000, 100_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_millis(2));
    }

    #[test]
    fn adaptive_linger_bootstraps_from_fixed_value_without_data() {
        let cfg = AsyncEngineConfig::default()
            .with_linger(Duration::from_micros(300))
            .with_adaptive_linger(Duration::from_millis(5));
        let shared = ReplicaShared::new(1);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_micros(300));
    }

    #[test]
    fn arrivals_update_interarrival_ewma() {
        let shared = ReplicaShared::new(1);
        shared.note_arrival();
        assert_eq!(shared.ewma_arrival_ns.load(Ordering::Relaxed), 0);
        std::thread::sleep(Duration::from_millis(2));
        shared.note_arrival();
        let ewma = shared.ewma_arrival_ns.load(Ordering::Relaxed);
        assert!(ewma >= 1_000_000, "EWMA should see the ~2 ms gap: {ewma}");
    }

    /// Property tests over `run_batch`'s gather/scatter: for arbitrary
    /// mixes of request sizes (including n = 0) and micro-batch sizes, the
    /// logits every request receives must be row-aligned with a direct
    /// full-batch forward of the concatenated windows — for both the fp32
    /// and the integer-only int8 backend.
    mod gather_scatter {
        use super::*;
        use bioformer_core::{Bioformer, BioformerConfig};
        use bioformer_nn::serialize::state_dict;
        use bioformer_quant::QuantBioformer;
        use proptest::collection;
        use proptest::prelude::*;

        fn tiny_config(seed: u64) -> BioformerConfig {
            BioformerConfig {
                heads: 2,
                depth: 1,
                head_dim: 8,
                hidden: 32,
                filter: 30,
                dropout: 0.0,
                seed,
                ..BioformerConfig::bio1()
            }
        }

        /// Deterministic pseudo-random windows `[n, channels, samples]`.
        fn windows(n: usize, channels: usize, samples: usize, seed: u64) -> Tensor {
            let mut state = seed | 1;
            Tensor::from_fn(&[n, channels, samples], |_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32)
                    - 0.5
            })
        }

        /// Splits `full` into per-size requests, runs them through
        /// `run_batch`, and checks each response bit-matches the
        /// corresponding rows of a direct full-batch forward.
        fn check_row_alignment(backend: &dyn GestureClassifier, sizes: &[usize], micro: usize) {
            let total: usize = sizes.iter().sum();
            let (channels, samples) = backend.input_shape().expect("backends declare shapes");
            let classes = backend.num_classes();
            let full = windows(total, channels, samples, 41);
            let direct = if total == 0 {
                Tensor::zeros(&[0, classes])
            } else {
                backend.predict_batch(&full)
            };

            let sample_len = channels * samples;
            let mut batch = Vec::new();
            let mut receivers = Vec::new();
            let mut row = 0usize;
            for &n in sizes {
                let (tx, rx) = mpsc::channel();
                batch.push(Request {
                    windows: Tensor::from_vec(
                        full.data()[row * sample_len..(row + n) * sample_len].to_vec(),
                        &[n, channels, samples],
                    ),
                    deadline: None,
                    enqueued: Instant::now(),
                    respond: tx,
                });
                receivers.push((rx, row, n));
                row += n;
            }

            let latencies = run_batch(
                backend,
                micro,
                &batch,
                total,
                Instant::now(),
                &mut TensorArena::new(),
            );
            assert_eq!(latencies.len(), total.div_ceil(micro));

            for (rx, row, n) in receivers {
                let out = rx.try_recv().expect("every request gets a response");
                let out = out.expect("request must be served");
                prop_assert_eq!(out.logits.dims(), &[n, classes]);
                prop_assert_eq!(out.predictions.len(), n);
                prop_assert_eq!(
                    out.logits.data(),
                    &direct.data()[row * classes..(row + n) * classes],
                    "request rows {}..{} differ from the direct forward",
                    row,
                    row + n
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn fp32_rows_align_with_direct_forward(
                sizes in collection::vec(0usize..4, 1..6),
                micro in prop::sample::select(vec![1usize, 2, 3, 16]),
            ) {
                let model = Bioformer::new(&tiny_config(31));
                check_row_alignment(&model, &sizes, micro);
            }

            #[test]
            fn int8_rows_align_with_direct_forward(
                sizes in collection::vec(0usize..4, 1..6),
                micro in prop::sample::select(vec![1usize, 2, 3, 16]),
            ) {
                let cfg = tiny_config(32);
                let mut model = Bioformer::new(&cfg);
                let calib = windows(4, cfg.channels, cfg.window, 5);
                let dict = state_dict(&mut model);
                let qmodel =
                    QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion");
                check_row_alignment(&qmodel, &sizes, micro);
            }
        }
    }
}
