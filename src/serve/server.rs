//! The multi-tenant streaming server and its TCP front door.
//!
//! [`StreamSession`] serves **one** electrode array; the ROADMAP's workload
//! is thousands of them multiplexed over a shared engine. [`StreamServer`]
//! is that multiplexer:
//!
//! * **N concurrent sessions, one engine** — every session streams through
//!   the same `Arc<dyn Engine>` (a [`ShardedEngine`](super::ShardedEngine)
//!   with one inline replica, one replica with a coalescing worker pool,
//!   or a multi-replica pool — the server is topology-generic).
//! * **Bounded per-session inbound buffers + round-robin fairness** — each
//!   session may buffer at most [`StreamServerConfig::inbound_chunks`]
//!   chunks; the pump serves sessions in token order, at most
//!   [`StreamServerConfig::quantum`] chunks per session per round. A
//!   session flooding at 100× the others' rate saturates *its own* buffer
//!   (its sender blocks, or [`SessionHandle::try_send`] reports
//!   [`ServeError::QueueFull`]) while every other session keeps its
//!   schedule — flooding cannot starve the pool.
//! * **Session lifecycle** — connect / idle-timeout eviction / reconnect.
//!   Eviction and client-side disconnects both [`StreamSession::suspend`]
//!   the stream into a [`SessionCheckpoint`] parked under the session
//!   token; [`StreamServer::resume`] reopens it with the decision smoother,
//!   buffered tail samples, undelivered events and per-window history
//!   intact, so the resumed stream is bit-identical to an uninterrupted
//!   one — no duplicated and no lost [`GestureEvent`] across the seam.
//! * **Per-tenant statistics** — every counter is tracked per tenant and
//!   rolled up into pool totals ([`ServerStats`]), with the same
//!   totals-equal-sum-of-parts invariant the engine's
//!   [`EngineStats`] keeps per replica
//!   ([`ServerStats::rollup_consistent`]).
//!
//! [`TcpGateway`] puts the wire on it: a `std::net` loopback listener
//! speaking the length-prefixed [`proto`](super::proto) frame protocol —
//! sample chunks in; [`GestureEvent`], summary and stats frames out;
//! explicit error frames for every failure. The matching client codec
//! lives in [`client`](super::client).
//!
//! `docs/serving.md` § "Gateway" has the frame diagram, the session
//! lifecycle state machine and the fairness semantics.

use super::engine::{Engine, EngineStats};
use super::proto::{encode_frame, ErrorCode, Frame, FrameDecoder};
use super::queue::ServeError;
use super::stream::{GestureEvent, SessionCheckpoint, StreamConfig, StreamSession, StreamSummary};
use super::trace::{LatencyBudget, LatencyTrace, StageRecorder, StageSummary};
use super::zoo::{ModelZoo, ZooStats};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`StreamServer`].
#[derive(Debug, Clone)]
pub struct StreamServerConfig {
    /// The per-session stream template (shape, slide, lookahead, policy,
    /// normalizer). Every session the server opens uses this config.
    pub stream: StreamConfig,
    /// Maximum concurrently-open sessions; [`StreamServer::connect`] fails
    /// with [`ServeError::Unavailable`] beyond it. Parked (suspended)
    /// sessions do not occupy a slot.
    pub max_sessions: usize,
    /// Per-session inbound buffer capacity in chunks — the backpressure
    /// bound. A full buffer blocks [`SessionHandle::send`] and fails
    /// [`SessionHandle::try_send`] with [`ServeError::QueueFull`].
    pub inbound_chunks: usize,
    /// Chunks served per session per round-robin turn — the fairness
    /// quantum.
    pub quantum: usize,
    /// Evict sessions idle (no inbound traffic) for this long, suspending
    /// their state for resume. `None` disables eviction.
    pub idle_timeout: Option<Duration>,
    /// Drop parked checkpoints not resumed within this window. `None`
    /// parks them forever.
    pub resume_ttl: Option<Duration>,
    /// Default per-session decision-latency budget (SLO). Sessions whose
    /// per-session [`StageSummary`] blows the budget are flagged (counted
    /// in [`ServeCounters::slo_violations`]) and — when
    /// [`StreamServerConfig::slo_evict`] is set — evicted with their
    /// checkpoint parked, exactly like an idle-timeout eviction.
    /// [`SessionOptions::slo`] overrides it per session. `None` disables
    /// SLO enforcement.
    pub slo: Option<LatencyBudget>,
    /// Whether an SLO violation evicts the session (park + free the slot)
    /// or merely flags it.
    pub slo_evict: bool,
}

impl StreamServerConfig {
    /// A config serving `stream` with 32 session slots, 8-chunk buffers,
    /// a quantum of 4, no idle eviction and a 60 s resume window.
    pub fn new(stream: StreamConfig) -> Self {
        StreamServerConfig {
            stream,
            max_sessions: 32,
            inbound_chunks: 8,
            quantum: 4,
            idle_timeout: None,
            resume_ttl: Some(Duration::from_secs(60)),
            slo: None,
            slo_evict: false,
        }
    }

    /// Sets the session-slot count.
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Sets the per-session inbound buffer capacity in chunks.
    pub fn with_inbound_chunks(mut self, inbound_chunks: usize) -> Self {
        self.inbound_chunks = inbound_chunks;
        self
    }

    /// Sets the round-robin quantum in chunks.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        self.quantum = quantum;
        self
    }

    /// Sets (or disables) the idle-eviction timeout.
    pub fn with_idle_timeout(mut self, idle_timeout: Option<Duration>) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets (or disables) the parked-checkpoint TTL.
    pub fn with_resume_ttl(mut self, resume_ttl: Option<Duration>) -> Self {
        self.resume_ttl = resume_ttl;
        self
    }

    /// Sets the default per-session decision-latency budget (SLO).
    pub fn with_slo(mut self, slo: LatencyBudget) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Makes SLO violations evict (park) the offending session instead of
    /// only flagging it.
    pub fn with_slo_evict(mut self, slo_evict: bool) -> Self {
        self.slo_evict = slo_evict;
        self
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.max_sessions == 0 || self.inbound_chunks == 0 || self.quantum == 0 {
            return Err(ServeError::BadRequest(format!(
                "StreamServerConfig: max_sessions {}, inbound_chunks {}, quantum {} \
                 must all be >= 1",
                self.max_sessions, self.inbound_chunks, self.quantum
            )));
        }
        Ok(())
    }
}

/// Lifetime counters of one logical session or one tenant (identical
/// schema, so per-session counters roll into per-tenant counters roll into
/// pool totals by plain field-wise addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Sessions opened ([`StreamServer::connect`]; 1 for a session).
    pub sessions: u64,
    /// Successful [`StreamServer::resume`] reconnects.
    pub reconnects: u64,
    /// Idle-timeout evictions.
    pub evictions: u64,
    /// Client-side disconnects that parked a checkpoint (bye / dropped
    /// handle / socket loss).
    pub disconnects: u64,
    /// Streams finished cleanly.
    pub finished: u64,
    /// Streams failed by an engine error.
    pub failed: u64,
    /// Sample chunks absorbed.
    pub chunks: u64,
    /// Raw samples absorbed.
    pub samples: u64,
    /// Windows decided.
    pub windows: u64,
    /// Gesture events emitted.
    pub events: u64,
    /// Sessions flagged for blowing their decision-latency budget (one per
    /// session, on the first violating round). SLO-triggered evictions
    /// additionally count under `evictions`.
    pub slo_violations: u64,
}

impl ServeCounters {
    fn add(&mut self, other: &ServeCounters) {
        self.sessions += other.sessions;
        self.reconnects += other.reconnects;
        self.evictions += other.evictions;
        self.disconnects += other.disconnects;
        self.finished += other.finished;
        self.failed += other.failed;
        self.chunks += other.chunks;
        self.samples += other.samples;
        self.windows += other.windows;
        self.events += other.events;
        self.slo_violations += other.slo_violations;
    }
}

/// One tenant's rolled-up counters inside a [`ServerStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant name (from [`StreamServer::connect`]).
    pub tenant: String,
    /// The tenant's lifetime counters.
    pub counters: ServeCounters,
}

/// A snapshot of a [`StreamServer`]'s serving state: pool totals, the
/// per-tenant breakdown they roll up from, live/parked gauges and the
/// underlying engine's [`EngineStats`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Pool-wide totals; each field equals the sum over `per_tenant`.
    pub totals: ServeCounters,
    /// Per-tenant breakdown, tenant-name order.
    pub per_tenant: Vec<TenantStats>,
    /// Sessions currently open (attached or awaiting their end).
    pub live_sessions: usize,
    /// Suspended checkpoints currently parked for resume.
    pub parked_sessions: usize,
    /// Per-stage decision-latency percentiles (p50/p95/p99 for buffering /
    /// queueing / compute / smoothing) over the events emitted by **all**
    /// sessions, rolled up by the pump. Traces from a session's final
    /// finish/suspend drain live only in that session's
    /// [`StreamSummary::stages`] — the pump rolls up traces per served
    /// round, so the pool view can trail the per-session view by the few
    /// events a stream emits while closing.
    pub stages: StageSummary,
    /// The **default model's** engine statistics (kept for single-model
    /// deployments; the full per-model picture is in `zoo`).
    pub engine: EngineStats,
    /// The model zoo's snapshot: every registered model's [`EngineStats`]
    /// plus the live shadow/A-B experiment's counters, if one is running.
    pub zoo: ZooStats,
}

impl ServerStats {
    /// Whether every pool total equals the sum of its per-tenant
    /// counterparts — the same totals-equal-sum invariant
    /// [`EngineStats::rollup_consistent`] keeps per replica, one layer up.
    pub fn rollup_consistent(&self) -> bool {
        let mut sum = ServeCounters::default();
        for t in &self.per_tenant {
            sum.add(&t.counters);
        }
        sum == self.totals && self.zoo.rollup_consistent()
    }
}

/// Per-session options for [`StreamServer::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Model variant to serve this session with (a name registered in the
    /// server's [`ModelZoo`]); `None` selects the zoo's default model —
    /// exactly what a v1 wire client gets.
    pub model: Option<String>,
    /// Per-session decision-latency budget, overriding
    /// [`StreamServerConfig::slo`].
    pub slo: Option<LatencyBudget>,
}

impl SessionOptions {
    /// Selects a model variant by name.
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = Some(model.to_string());
        self
    }

    /// Sets the per-session latency budget.
    pub fn with_slo(mut self, slo: LatencyBudget) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Per-session final counters reported by [`FinishReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sample chunks absorbed over the logical stream.
    pub chunks: u64,
    /// Raw samples absorbed.
    pub samples: u64,
    /// Windows decided.
    pub windows: u64,
    /// Gesture events emitted.
    pub events: u64,
}

/// What [`SessionHandle::finish`] returns: the stream summary plus the
/// session's final counters.
#[derive(Debug, Clone)]
pub struct FinishReport {
    /// The whole logical stream's summary; its `events` field carries every
    /// event **not** already returned by [`SessionHandle::poll_events`].
    pub summary: StreamSummary,
    /// The session's lifetime counters (reconnect seams included).
    pub stats: SessionStats,
}

/// How a session ended, parked in its slot until the handle consumes it.
#[derive(Debug)]
enum SessionEnd {
    /// Finished cleanly; the summary waits for [`SessionHandle::finish`].
    Finished(Box<StreamSummary>),
    /// Suspended and parked on client request (bye / detach).
    Parked,
    /// Suspended and parked by the idle timeout.
    Evicted,
    /// The engine failed the stream.
    Failed(ServeError),
}

/// A live session's registry phase.
#[derive(Debug)]
enum Phase {
    /// Streaming.
    Open,
    /// The client requested a clean finish; remaining inbound drains first.
    FinishRequested,
    /// The client requested suspension (bye, dropped handle, lost socket).
    ByeRequested,
    /// The stream ended; the handle consumes the outcome.
    Done(SessionEnd),
}

/// One open session's shared state (registry side).
struct Slot {
    tenant: String,
    /// The zoo model name this session was resolved against.
    model: String,
    /// The resolved engine the pump serves this session with. Resolution
    /// happens once, at connect/resume time — a mid-session promotion or
    /// experiment change never reroutes a live stream.
    engine: Arc<dyn Engine>,
    /// The session's decision-latency budget (per-session override or the
    /// server-wide default), if any.
    slo: Option<LatencyBudget>,
    /// Set once the first SLO violation was counted, so a session is
    /// flagged (and counted) at most once.
    slo_flagged: bool,
    phase: Phase,
    /// Bounded inbound chunk buffer (the backpressure bound).
    inbound: VecDeque<Vec<f32>>,
    /// Events decided but not yet polled by the handle.
    events: Vec<GestureEvent>,
    /// Set when the handle was dropped (nobody will consume the end).
    detached: bool,
    /// Consumed by the pump when it instantiates the `StreamSession`.
    resume_from: Option<SessionCheckpoint>,
    /// Windows decided over the logical stream, as last observed by the
    /// pump (drives the per-round `windows` counter delta).
    decided_seen: u64,
    /// Per-session counters (carried across reconnect seams).
    counters: SessionStats,
    last_activity: Instant,
}

/// A suspended session's parked state, keyed by its token.
struct Parked {
    tenant: String,
    /// The model the session was opened with; resume re-resolves it so the
    /// stream continues on the same variant it started on.
    model: String,
    checkpoint: SessionCheckpoint,
    /// Undelivered events, re-queued into the slot on resume.
    events: Vec<GestureEvent>,
    counters: SessionStats,
    decided_seen: u64,
    parked_at: Instant,
}

/// The mutable registry behind the mutex.
struct Registry {
    slots: BTreeMap<u64, Slot>,
    parked: BTreeMap<u64, Parked>,
    tenants: BTreeMap<String, ServeCounters>,
    totals: ServeCounters,
    /// Pool-wide decision-latency rollup, fed by the pump's write-back
    /// phase with the traces each round's sessions recorded.
    stages: StageRecorder,
}

impl Registry {
    /// Sessions occupying a pool slot (ended-but-unconsumed slots are
    /// zombies awaiting their handle and do not count).
    fn live(&self) -> usize {
        self.slots
            .values()
            .filter(|s| !matches!(s.phase, Phase::Done(_)))
            .count()
    }

    /// Applies a counter delta to one tenant and the pool totals — the one
    /// place the two are written, which is what keeps
    /// [`ServerStats::rollup_consistent`] true.
    fn tally(&mut self, tenant: &str, delta: &ServeCounters) {
        self.tenants
            .entry(tenant.to_string())
            .or_default()
            .add(delta);
        self.totals.add(delta);
    }
}

/// State shared between the server front, its handles and the pump thread.
struct Shared {
    cfg: StreamServerConfig,
    state: Mutex<Registry>,
    /// Signals the pump: inbound chunks or lifecycle requests are waiting.
    work: Condvar,
    /// Signals handles: buffer space freed, events or outcomes published.
    room: Condvar,
    next_token: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant streaming server (see the [module docs](self)).
///
/// In-process clients use [`StreamServer::connect`] /
/// [`StreamServer::resume`] and the returned [`SessionHandle`]s directly;
/// [`TcpGateway`] exposes the same lifecycle over the wire.
///
/// The server is engine-agnostic, but the recommended deployment is a
/// multi-replica [`ShardedEngine`](super::ShardedEngine) pool rather than
/// one inline replica: replicas absorb tenant
/// bursts independently, quarantine isolates a failing backend, and a mixed
/// fp32 + int8 pool can be capacity-planned with per-replica weights (see
/// `examples/serve_gateway.rs`).
pub struct StreamServer {
    shared: Arc<Shared>,
    zoo: Arc<ModelZoo>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl StreamServer {
    /// Starts a server multiplexing sessions over a single `engine`,
    /// registered as the zoo's sole model under the name `"default"`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a zero `max_sessions`,
    /// `inbound_chunks` or `quantum`.
    pub fn start(engine: Arc<dyn Engine>, cfg: StreamServerConfig) -> Result<Self, ServeError> {
        Self::start_zoo(Arc::new(ModelZoo::single("default", engine)), cfg)
    }

    /// Starts a server over a [`ModelZoo`]: sessions pick a registered
    /// model by name (wire protocol v2 `Hello.model`, or
    /// [`SessionOptions::model`] in-process) and default to the zoo's
    /// current default variant.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a zero `max_sessions`,
    /// `inbound_chunks`, `quantum`, or an empty zoo.
    pub fn start_zoo(zoo: Arc<ModelZoo>, cfg: StreamServerConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        if zoo.names().is_empty() {
            return Err(ServeError::BadRequest(
                "StreamServer requires a zoo with at least one model".into(),
            ));
        }
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(Registry {
                slots: BTreeMap::new(),
                parked: BTreeMap::new(),
                tenants: BTreeMap::new(),
                totals: ServeCounters::default(),
                stages: StageRecorder::new(),
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            next_token: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let pump = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stream-server-pump".into())
                .spawn(move || pump_loop(&shared))
                .expect("spawn stream-server pump")
        };
        Ok(StreamServer {
            shared,
            zoo,
            pump: Mutex::new(Some(pump)),
        })
    }

    /// The server's model zoo (register variants, run experiments, promote).
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.zoo
    }

    /// The per-session stream template.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.shared.cfg.stream
    }

    /// Opens a new session for `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when all
    /// [`StreamServerConfig::max_sessions`] slots are occupied, and
    /// [`ServeError::ShuttingDown`] after [`StreamServer::shutdown`].
    pub fn connect(&self, tenant: &str) -> Result<SessionHandle, ServeError> {
        self.connect_with(tenant, SessionOptions::default())
    }

    /// Opens a new session with per-session [`SessionOptions`]: an explicit
    /// zoo model and/or a latency budget overriding
    /// [`StreamServerConfig::slo`].
    ///
    /// # Errors
    ///
    /// Everything [`StreamServer::connect`] returns, plus
    /// [`ServeError::BadRequest`] for a model name the zoo does not know.
    pub fn connect_with(
        &self,
        tenant: &str,
        opts: SessionOptions,
    ) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Resolve before taking a slot so an unknown model costs nothing.
        let model = opts
            .model
            .unwrap_or_else(|| self.zoo.default_model().to_string());
        let engine = self.zoo.resolve(Some(&model))?;
        let slo = opts.slo.or(self.shared.cfg.slo);
        let mut reg = self.shared.lock();
        if reg.live() >= self.shared.cfg.max_sessions {
            return Err(ServeError::Unavailable);
        }
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        reg.slots.insert(
            token,
            Slot {
                tenant: tenant.to_string(),
                model,
                engine,
                slo,
                slo_flagged: false,
                phase: Phase::Open,
                inbound: VecDeque::new(),
                events: Vec::new(),
                detached: false,
                resume_from: None,
                decided_seen: 0,
                counters: SessionStats::default(),
                last_activity: Instant::now(),
            },
        );
        reg.tally(
            tenant,
            &ServeCounters {
                sessions: 1,
                ..ServeCounters::default()
            },
        );
        drop(reg);
        self.shared.work.notify_all();
        Ok(SessionHandle {
            shared: Arc::clone(&self.shared),
            token,
            tenant: tenant.to_string(),
            consumed: false,
        })
    }

    /// Reconnects to a suspended session: the parked checkpoint (decision
    /// smoother, buffered tail samples, per-window history) and any
    /// undelivered events move into a fresh slot, and the stream continues
    /// bit-identically to one that was never interrupted. The returned
    /// handle carries a **new** token (the old one may still be held by an
    /// evicted handle); park/resume again with the new one.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an unknown/expired token or a tenant
    /// mismatch, [`ServeError::Unavailable`] when no slot is free,
    /// [`ServeError::ShuttingDown`] after shutdown.
    pub fn resume(&self, tenant: &str, token: u64) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let mut reg = self.shared.lock();
        if reg.live() >= self.shared.cfg.max_sessions {
            return Err(ServeError::Unavailable);
        }
        let parked = reg.parked.remove(&token).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown or expired resume token {token}"))
        })?;
        if parked.tenant != tenant {
            let owner = parked.tenant.clone();
            reg.parked.insert(token, parked);
            return Err(ServeError::BadRequest(format!(
                "resume token {token} belongs to tenant {owner:?}, not {tenant:?}"
            )));
        }
        // Re-resolve the model the session started on: the stream must
        // continue on the same variant, but an experiment started while it
        // was parked may wrap it in a fresh shadow route.
        let engine = match self.zoo.resolve(Some(&parked.model)) {
            Ok(engine) => engine,
            Err(e) => {
                reg.parked.insert(token, parked);
                return Err(e);
            }
        };
        // A fresh token: the old one may still name an evicted zombie slot
        // whose handle has not observed the eviction yet.
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        reg.slots.insert(
            token,
            Slot {
                tenant: parked.tenant,
                model: parked.model,
                engine,
                slo: self.shared.cfg.slo,
                slo_flagged: false,
                phase: Phase::Open,
                inbound: VecDeque::new(),
                events: parked.events,
                detached: false,
                resume_from: Some(parked.checkpoint),
                decided_seen: parked.decided_seen,
                counters: parked.counters,
                last_activity: Instant::now(),
            },
        );
        reg.tally(
            tenant,
            &ServeCounters {
                reconnects: 1,
                ..ServeCounters::default()
            },
        );
        drop(reg);
        self.shared.work.notify_all();
        Ok(SessionHandle {
            shared: Arc::clone(&self.shared),
            token,
            tenant: tenant.to_string(),
            consumed: false,
        })
    }

    /// A live snapshot of the server's statistics.
    pub fn stats(&self) -> ServerStats {
        let reg = self.shared.lock();
        ServerStats {
            totals: reg.totals.clone(),
            per_tenant: reg
                .tenants
                .iter()
                .map(|(tenant, counters)| TenantStats {
                    tenant: tenant.clone(),
                    counters: counters.clone(),
                })
                .collect(),
            live_sessions: reg.live(),
            parked_sessions: reg.parked.len(),
            stages: reg.stages.summary(),
            engine: self
                .zoo
                .engine(self.zoo.default_model())
                .expect("zoo default model is always registered")
                .engine_stats(),
            zoo: self.zoo.stats(),
        }
    }

    /// Stops the pump: open sessions fail with
    /// [`ServeError::ShuttingDown`], parked checkpoints are dropped, and
    /// the final statistics are returned. The engine itself is left
    /// running — it belongs to the caller.
    pub fn shutdown(&self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        if let Some(pump) = self.pump.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = pump.join();
        }
        self.stats()
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.shared.lock();
        f.debug_struct("StreamServer")
            .field("default_model", &self.zoo.default_model())
            .field("models", &self.zoo.names())
            .field("live_sessions", &reg.live())
            .field("parked_sessions", &reg.parked.len())
            .field("max_sessions", &self.shared.cfg.max_sessions)
            .finish()
    }
}

/// A client's handle to one open server-side session.
///
/// Dropping a handle without [`SessionHandle::finish`] or
/// [`SessionHandle::disconnect`] counts as a mid-stream disconnect: the
/// server suspends the session, parks its checkpoint under
/// [`SessionHandle::token`] and frees the slot.
pub struct SessionHandle {
    shared: Arc<Shared>,
    token: u64,
    tenant: String,
    consumed: bool,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("token", &self.token)
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl SessionHandle {
    /// The session token — the resume key after a disconnect or eviction.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Phase/end check shared by the mutating entry points.
    fn check_open(slot: &Slot) -> Result<(), ServeError> {
        match &slot.phase {
            Phase::Open => Ok(()),
            Phase::FinishRequested | Phase::ByeRequested => Err(ServeError::BadRequest(
                "session is already finishing or disconnecting".into(),
            )),
            Phase::Done(SessionEnd::Evicted) => Err(ServeError::Evicted),
            Phase::Done(SessionEnd::Failed(e)) => Err(e.clone()),
            Phase::Done(_) => Err(ServeError::BadRequest("session already ended".into())),
        }
    }

    /// Queues one chunk of raw interleaved samples, blocking while the
    /// session's bounded inbound buffer is full (cooperative backpressure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Evicted`] after an idle-timeout eviction (resume with
    /// the token), the stream's failure error after an engine fault,
    /// [`ServeError::ShuttingDown`] on server shutdown.
    pub fn send(&self, samples: &[f32]) -> Result<(), ServeError> {
        let mut reg = self.shared.lock();
        loop {
            let slot = reg.slots.get(&self.token).ok_or(ServeError::ShuttingDown)?;
            Self::check_open(slot)?;
            if slot.inbound.len() < self.shared.cfg.inbound_chunks {
                break;
            }
            reg = self
                .shared
                .room
                .wait_timeout(reg, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
        }
        let slot = reg.slots.get_mut(&self.token).expect("checked above");
        slot.inbound.push_back(samples.to_vec());
        slot.last_activity = Instant::now();
        drop(reg);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Non-blocking [`SessionHandle::send`]: a full inbound buffer fails
    /// fast with [`ServeError::QueueFull`] — the per-session backpressure
    /// signal a flooding client observes while everyone else streams on.
    pub fn try_send(&self, samples: &[f32]) -> Result<(), ServeError> {
        let mut reg = self.shared.lock();
        let slot = reg
            .slots
            .get_mut(&self.token)
            .ok_or(ServeError::ShuttingDown)?;
        Self::check_open(slot)?;
        if slot.inbound.len() >= self.shared.cfg.inbound_chunks {
            return Err(ServeError::QueueFull);
        }
        slot.inbound.push_back(samples.to_vec());
        slot.last_activity = Instant::now();
        drop(reg);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Takes the gesture events decided since the last poll (possibly
    /// none).
    ///
    /// # Errors
    ///
    /// Once the pending events are drained: [`ServeError::Evicted`] after
    /// an eviction, the failure error after an engine fault.
    pub fn poll_events(&self) -> Result<Vec<GestureEvent>, ServeError> {
        let mut reg = self.shared.lock();
        let slot = reg
            .slots
            .get_mut(&self.token)
            .ok_or(ServeError::ShuttingDown)?;
        if !slot.events.is_empty() {
            return Ok(std::mem::take(&mut slot.events));
        }
        match &slot.phase {
            Phase::Done(SessionEnd::Evicted) => Err(ServeError::Evicted),
            Phase::Done(SessionEnd::Failed(e)) => Err(e.clone()),
            _ => Ok(Vec::new()),
        }
    }

    /// Ends the stream cleanly: waits for every queued chunk to be served,
    /// closes the final decision and returns the [`FinishReport`]. The
    /// report's summary covers the **whole logical stream**, reconnect
    /// seams included; its `events` carry everything not already polled.
    ///
    /// # Errors
    ///
    /// [`ServeError::Evicted`] if the idle timeout won the race, the
    /// stream's failure error after an engine fault,
    /// [`ServeError::ShuttingDown`] on server shutdown.
    pub fn finish(mut self) -> Result<FinishReport, ServeError> {
        let mut reg = self.shared.lock();
        {
            let slot = reg
                .slots
                .get_mut(&self.token)
                .ok_or(ServeError::ShuttingDown)?;
            Self::check_open(slot)?;
            slot.phase = Phase::FinishRequested;
        }
        self.shared.work.notify_all();
        loop {
            {
                let slot = reg
                    .slots
                    .get_mut(&self.token)
                    .ok_or(ServeError::ShuttingDown)?;
                if let Phase::Done(_) = slot.phase {
                    break;
                }
            }
            reg = self
                .shared
                .room
                .wait_timeout(reg, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        let slot = reg.slots.remove(&self.token).expect("checked above");
        self.consumed = true;
        match slot.phase {
            Phase::Done(SessionEnd::Finished(summary)) => Ok(FinishReport {
                summary: *summary,
                stats: slot.counters,
            }),
            Phase::Done(SessionEnd::Evicted) => Err(ServeError::Evicted),
            Phase::Done(SessionEnd::Failed(e)) => Err(e),
            phase => unreachable!("finish woke on non-final phase {phase:?}"),
        }
    }

    /// Detaches without finishing: the server suspends the session, parks
    /// its checkpoint (undelivered events included) and frees the slot.
    /// Returns the token to [`StreamServer::resume`] with. If the session
    /// was already evicted, the checkpoint is already parked and the token
    /// comes back immediately.
    ///
    /// # Errors
    ///
    /// The stream's failure error after an engine fault,
    /// [`ServeError::ShuttingDown`] on server shutdown.
    pub fn disconnect(mut self) -> Result<u64, ServeError> {
        let mut reg = self.shared.lock();
        {
            let slot = reg
                .slots
                .get_mut(&self.token)
                .ok_or(ServeError::ShuttingDown)?;
            match &slot.phase {
                Phase::Open => slot.phase = Phase::ByeRequested,
                Phase::Done(SessionEnd::Evicted) => {
                    // Already suspended and parked by the idle timeout.
                    reg.slots.remove(&self.token);
                    self.consumed = true;
                    return Ok(self.token);
                }
                Phase::Done(SessionEnd::Failed(e)) => {
                    let e = e.clone();
                    reg.slots.remove(&self.token);
                    self.consumed = true;
                    return Err(e);
                }
                _ => {
                    return Err(ServeError::BadRequest(
                        "session is already finishing or ended".into(),
                    ))
                }
            }
        }
        self.shared.work.notify_all();
        loop {
            {
                let slot = reg
                    .slots
                    .get_mut(&self.token)
                    .ok_or(ServeError::ShuttingDown)?;
                if let Phase::Done(_) = slot.phase {
                    break;
                }
            }
            reg = self
                .shared
                .room
                .wait_timeout(reg, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        let slot = reg.slots.remove(&self.token).expect("checked above");
        self.consumed = true;
        match slot.phase {
            Phase::Done(SessionEnd::Parked) | Phase::Done(SessionEnd::Evicted) => Ok(self.token),
            Phase::Done(SessionEnd::Failed(e)) => Err(e),
            phase => unreachable!("disconnect woke on non-final phase {phase:?}"),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if self.consumed {
            return;
        }
        let mut reg = self.shared.lock();
        let Some(slot) = reg.slots.get_mut(&self.token) else {
            return;
        };
        match slot.phase {
            // Mid-stream disconnect: suspend + park, free the slot.
            Phase::Open => {
                slot.detached = true;
                slot.phase = Phase::ByeRequested;
                drop(reg);
                self.shared.work.notify_all();
            }
            Phase::FinishRequested | Phase::ByeRequested => slot.detached = true,
            // Nobody left to consume the outcome: drop the zombie slot.
            Phase::Done(_) => {
                reg.slots.remove(&self.token);
            }
        }
    }
}

/// One round's worth of work for one session, snapshotted under the lock.
struct Work {
    token: u64,
    tenant: String,
    /// The session's resolved engine (an `Arc` clone of the slot's).
    engine: Arc<dyn Engine>,
    /// The session's latency budget, checked after each served round.
    slo: Option<LatencyBudget>,
    resume_from: Option<SessionCheckpoint>,
    chunks: Vec<Vec<f32>>,
    end: Option<EndKind>,
    detached: bool,
}

enum EndKind {
    Finish,
    Park,
    Evict,
}

/// What the pump writes back after serving one session's round.
struct RoundResult {
    token: u64,
    tenant: String,
    chunks: u64,
    samples: u64,
    /// Windows decided over the logical stream after this round.
    decided_after: u64,
    events: Vec<GestureEvent>,
    /// Decision-latency traces the session recorded this round, for the
    /// pool-level rollup.
    traces: Vec<LatencyTrace>,
    /// Set when the session's per-window stage summary blew its budget
    /// this round.
    slo_violation: bool,
    outcome: Option<RoundEnd>,
    detached: bool,
}

enum RoundEnd {
    Finished(Box<StreamSummary>),
    Parked(Box<SessionCheckpoint>),
    Evicted(Box<SessionCheckpoint>),
    Failed(ServeError),
}

/// The pump thread: owns every live [`StreamSession`], serves sessions
/// round-robin in token order with a bounded per-round quantum, and applies
/// lifecycle transitions (finish / park / evict / fail).
fn pump_loop(shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    // Sessions own an `Arc` of their slot's resolved engine — different
    // sessions may run different zoo models.
    let mut sessions: BTreeMap<u64, StreamSession> = BTreeMap::new();
    let poll = cfg
        .idle_timeout
        .map(|t| (t / 4).clamp(Duration::from_millis(1), Duration::from_millis(20)))
        .unwrap_or(Duration::from_millis(25));
    loop {
        // Phase 1 — snapshot work under the lock.
        let mut reg = shared.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            for slot in reg.slots.values_mut() {
                if !matches!(slot.phase, Phase::Done(_)) {
                    slot.phase = Phase::Done(SessionEnd::Failed(ServeError::ShuttingDown));
                }
            }
            reg.parked.clear();
            drop(reg);
            shared.room.notify_all();
            return;
        }
        let now = Instant::now();
        if let Some(ttl) = cfg.resume_ttl {
            reg.parked
                .retain(|_, p| now.duration_since(p.parked_at) < ttl);
        }
        let mut batch: Vec<Work> = Vec::new();
        for (&token, slot) in reg.slots.iter_mut() {
            if matches!(slot.phase, Phase::Done(_)) {
                continue;
            }
            // Finishing/parting sessions drain their whole (bounded)
            // buffer; open sessions get the fairness quantum.
            let budget = match slot.phase {
                Phase::Open => cfg.quantum,
                _ => usize::MAX,
            };
            let mut chunks = Vec::new();
            while chunks.len() < budget {
                let Some(chunk) = slot.inbound.pop_front() else {
                    break;
                };
                chunks.push(chunk);
            }
            let end = match slot.phase {
                Phase::FinishRequested if slot.inbound.is_empty() => Some(EndKind::Finish),
                Phase::ByeRequested if slot.inbound.is_empty() => Some(EndKind::Park),
                Phase::Open
                    if chunks.is_empty()
                        && cfg
                            .idle_timeout
                            .is_some_and(|t| now.duration_since(slot.last_activity) >= t) =>
                {
                    Some(EndKind::Evict)
                }
                _ => None,
            };
            let needs_session = !sessions.contains_key(&token);
            if chunks.is_empty() && end.is_none() && !needs_session {
                continue;
            }
            batch.push(Work {
                token,
                tenant: slot.tenant.clone(),
                engine: Arc::clone(&slot.engine),
                slo: if slot.slo_flagged && !cfg.slo_evict {
                    // Already flagged and not evicting: stop re-checking.
                    None
                } else {
                    slot.slo
                },
                resume_from: if needs_session {
                    slot.resume_from.take()
                } else {
                    None
                },
                chunks,
                end,
                detached: slot.detached,
            });
        }
        if batch.is_empty() {
            drop(
                shared
                    .work
                    .wait_timeout(reg, poll)
                    .unwrap_or_else(|e| e.into_inner())
                    .0,
            );
            continue;
        }
        drop(reg);

        // Phase 2 — serve without the lock (inference may be slow; clients
        // keep queueing into their buffers meanwhile).
        let mut results: Vec<RoundResult> = Vec::with_capacity(batch.len());
        for work in batch {
            results.push(serve_round(cfg, &mut sessions, work));
        }

        // Phase 3 — write back events, counters and outcomes.
        let mut reg = shared.lock();
        for r in results {
            // Roll traces into the pool-wide recorder before the slot
            // lookup so a finished/evicted session's last round still
            // counts.
            for t in &r.traces {
                reg.stages.record(*t);
            }
            let Some(slot) = reg.slots.get_mut(&r.token) else {
                continue;
            };
            let windows_delta = r.decided_after.saturating_sub(slot.decided_seen);
            slot.decided_seen = r.decided_after;
            slot.counters.chunks += r.chunks;
            slot.counters.samples += r.samples;
            slot.counters.windows += windows_delta;
            slot.counters.events += r.events.len() as u64;
            let mut delta = ServeCounters {
                chunks: r.chunks,
                samples: r.samples,
                windows: windows_delta,
                events: r.events.len() as u64,
                ..ServeCounters::default()
            };
            if r.slo_violation && !slot.slo_flagged {
                slot.slo_flagged = true;
                delta.slo_violations = 1;
            }
            slot.events.extend(r.events);
            // Detachment may have happened while serving; honour the
            // freshest flag.
            let detached = r.detached || slot.detached;
            match r.outcome {
                None => {}
                Some(RoundEnd::Finished(mut summary)) => {
                    delta.finished = 1;
                    // The report's events = everything not yet polled, in
                    // decision order.
                    let mut events = std::mem::take(&mut slot.events);
                    events.extend(std::mem::take(&mut summary.events));
                    summary.events = events;
                    slot.phase = Phase::Done(SessionEnd::Finished(summary));
                    if detached {
                        reg.slots.remove(&r.token);
                    }
                }
                Some(RoundEnd::Parked(checkpoint)) => {
                    delta.disconnects = 1;
                    let parked = Parked {
                        tenant: slot.tenant.clone(),
                        model: slot.model.clone(),
                        checkpoint: *checkpoint,
                        events: std::mem::take(&mut slot.events),
                        counters: slot.counters.clone(),
                        decided_seen: slot.decided_seen,
                        parked_at: Instant::now(),
                    };
                    slot.phase = Phase::Done(SessionEnd::Parked);
                    reg.parked.insert(r.token, parked);
                    if detached {
                        reg.slots.remove(&r.token);
                    }
                }
                Some(RoundEnd::Evicted(checkpoint)) => {
                    delta.evictions = 1;
                    let parked = Parked {
                        tenant: slot.tenant.clone(),
                        model: slot.model.clone(),
                        checkpoint: *checkpoint,
                        events: std::mem::take(&mut slot.events),
                        counters: slot.counters.clone(),
                        decided_seen: slot.decided_seen,
                        parked_at: Instant::now(),
                    };
                    slot.phase = Phase::Done(SessionEnd::Evicted);
                    reg.parked.insert(r.token, parked);
                    if detached {
                        reg.slots.remove(&r.token);
                    }
                }
                Some(RoundEnd::Failed(e)) => {
                    delta.failed = 1;
                    slot.phase = Phase::Done(SessionEnd::Failed(e));
                    if detached {
                        reg.slots.remove(&r.token);
                    }
                }
            }
            reg.tally(&r.tenant, &delta);
        }
        drop(reg);
        shared.room.notify_all();
    }
}

/// Serves one session's round: instantiate the session if needed, push the
/// snapshotted chunks, check the latency budget, apply the lifecycle
/// transition.
fn serve_round(
    cfg: &StreamServerConfig,
    sessions: &mut BTreeMap<u64, StreamSession>,
    work: Work,
) -> RoundResult {
    let mut result = RoundResult {
        token: work.token,
        tenant: work.tenant,
        chunks: 0,
        samples: 0,
        decided_after: 0,
        events: Vec::new(),
        traces: Vec::new(),
        slo_violation: false,
        outcome: None,
        detached: work.detached,
    };
    if let std::collections::btree_map::Entry::Vacant(entry) = sessions.entry(work.token) {
        let engine = Arc::clone(&work.engine);
        let made = match work.resume_from {
            Some(checkpoint) => StreamSession::resume(engine, cfg.stream.clone(), checkpoint),
            None => StreamSession::new(engine, cfg.stream.clone()),
        };
        match made {
            Ok(session) => {
                result.decided_after = session.windows_decided() as u64;
                entry.insert(session);
            }
            Err(e) => {
                result.outcome = Some(RoundEnd::Failed(e));
                return result;
            }
        }
    }
    let session = sessions.get_mut(&work.token).expect("inserted above");
    for chunk in &work.chunks {
        result.chunks += 1;
        result.samples += chunk.len() as u64;
        match session.push_samples(chunk) {
            Ok(events) => result.events.extend(events),
            Err(e) => {
                sessions.remove(&work.token);
                result.outcome = Some(RoundEnd::Failed(e));
                return result;
            }
        }
    }
    result.decided_after = session.windows_decided() as u64;
    session.drain_new_traces(&mut result.traces);
    // SLO enforcement: compare the session's lifetime stage summary against
    // its budget once it has decided at least one window.
    if let Some(budget) = work.slo {
        let summary = session.stage_stats();
        if summary.count() > 0 && !budget.evaluate(&summary).fits {
            result.slo_violation = true;
            if cfg.slo_evict && work.end.is_none() {
                // Evict-on-violation: suspend like an idle eviction so the
                // client can resume (perhaps against a cheaper model).
                let session = sessions.remove(&work.token).expect("present");
                match session.suspend() {
                    Ok((checkpoint, events)) => {
                        result.decided_after = checkpoint.windows_decided() as u64;
                        result.events.extend(events);
                        result.outcome = Some(RoundEnd::Evicted(Box::new(checkpoint)));
                    }
                    Err(e) => result.outcome = Some(RoundEnd::Failed(e)),
                }
                return result;
            }
        }
    }
    match work.end {
        None => {}
        Some(EndKind::Finish) => {
            let session = sessions.remove(&work.token).expect("present");
            match session.finish() {
                Ok(summary) => {
                    result.decided_after = summary.windows as u64;
                    result.outcome = Some(RoundEnd::Finished(Box::new(summary)));
                }
                Err(e) => result.outcome = Some(RoundEnd::Failed(e)),
            }
        }
        Some(kind @ (EndKind::Park | EndKind::Evict)) => {
            let session = sessions.remove(&work.token).expect("present");
            match session.suspend() {
                Ok((checkpoint, events)) => {
                    result.decided_after = checkpoint.windows_decided() as u64;
                    result.events.extend(events);
                    result.outcome = Some(match kind {
                        EndKind::Park => RoundEnd::Parked(Box::new(checkpoint)),
                        _ => RoundEnd::Evicted(Box::new(checkpoint)),
                    });
                }
                Err(e) => result.outcome = Some(RoundEnd::Failed(e)),
            }
        }
    }
    result
}

/// Maps a session-layer error onto its wire error code.
fn error_code(e: &ServeError) -> ErrorCode {
    match e {
        ServeError::BadRequest(why) if why.contains("resume token") => ErrorCode::UnknownToken,
        ServeError::BadRequest(_) => ErrorCode::BadRequest,
        ServeError::Unavailable | ServeError::QueueFull => ErrorCode::PoolFull,
        ServeError::Evicted => ErrorCode::Evicted,
        ServeError::ShuttingDown => ErrorCode::ShuttingDown,
        ServeError::DeadlineExpired | ServeError::Cancelled => ErrorCode::Internal,
    }
}

/// The TCP front door: a `std::net` loopback listener translating the
/// [`proto`](super::proto) frame protocol into [`StreamServer`] session
/// calls, one thread per connection.
///
/// Failure semantics the fault-injection tests pin down:
///
/// * A dropped socket (EOF, reset) mid-stream is a **disconnect**: the
///   session is suspended and parked, the slot freed — a later connection
///   resuming with the token continues the stream seamlessly.
/// * Garbage, truncated or oversized frames get a best-effort
///   [`Frame::Error`] with [`ErrorCode::Protocol`] and the connection is
///   closed (the session parked); the gateway itself never goes down from
///   one misbehaving peer.
/// * Session-layer failures (pool full, unknown token, eviction, engine
///   faults) are explicit [`Frame::Error`]s with their typed code.
pub struct TcpGateway {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpGateway {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts accepting connections for `server`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(server: Arc<StreamServer>, addr: &str) -> std::io::Result<TcpGateway> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("gateway-accept".into())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((sock, _peer)) => {
                                let server = Arc::clone(&server);
                                let stop = Arc::clone(&stop);
                                let conn = std::thread::Builder::new()
                                    .name("gateway-conn".into())
                                    .spawn(move || serve_connection(&server, sock, &stop))
                                    .expect("spawn gateway connection thread");
                                conns.push(conn);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                        conns.retain(|c| !c.is_finished());
                    }
                    for conn in conns {
                        let _ = conn.join();
                    }
                })
                .expect("spawn gateway accept thread")
        };
        Ok(TcpGateway {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every connection thread. Open sessions
    /// are disconnected (parked), not finished.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for TcpGateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpGateway")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Encodes and writes one frame; `false` on a dead socket.
fn send_frame(sock: &mut TcpStream, scratch: &mut Vec<u8>, frame: &Frame) -> bool {
    scratch.clear();
    if encode_frame(frame, scratch).is_err() {
        return false;
    }
    sock.write_all(scratch).is_ok()
}

/// Best-effort error frame.
fn send_error(sock: &mut TcpStream, scratch: &mut Vec<u8>, code: ErrorCode, message: String) {
    let _ = send_frame(sock, scratch, &Frame::Error { code, message });
}

/// Drains the handle's pending events onto the wire. `Ok(false)` means the
/// socket died; `Err` carries a session-layer failure.
fn flush_events(
    sock: &mut TcpStream,
    scratch: &mut Vec<u8>,
    handle: &SessionHandle,
) -> Result<bool, ServeError> {
    for event in handle.poll_events()? {
        if !send_frame(sock, scratch, &Frame::Event(event)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Serves one TCP connection end-to-end (see [`TcpGateway`] for the
/// failure semantics).
fn serve_connection(server: &StreamServer, mut sock: TcpStream, stop: &AtomicBool) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_millis(5)));
    let mut decoder = FrameDecoder::new();
    let mut scratch = Vec::new();
    let mut handle: Option<SessionHandle> = None;
    let mut buf = [0u8; 16 * 1024];
    // Parks the session (if any) on the way out.
    macro_rules! bail {
        () => {{
            if let Some(h) = handle.take() {
                let _ = h.disconnect();
            }
            return;
        }};
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            bail!();
        }
        // Push decided events out before reading more input.
        if let Some(h) = &handle {
            match flush_events(&mut sock, &mut scratch, h) {
                Ok(true) => {}
                Ok(false) => bail!(),
                Err(e) => {
                    send_error(&mut sock, &mut scratch, error_code(&e), e.to_string());
                    // Evicted/failed sessions are already parked or dead —
                    // consume the slot and drop the connection.
                    if let Some(h) = handle.take() {
                        let _ = h.disconnect();
                    }
                    return;
                }
            }
        }
        match sock.read(&mut buf) {
            Ok(0) => bail!(), // EOF: mid-stream disconnect → park.
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => bail!(),
        }
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(proto_err) => {
                    send_error(
                        &mut sock,
                        &mut scratch,
                        ErrorCode::Protocol,
                        proto_err.to_string(),
                    );
                    bail!();
                }
            };
            match frame {
                Frame::Hello {
                    tenant,
                    resume,
                    model,
                } if handle.is_none() => {
                    let opened = match resume {
                        None => server.connect_with(&tenant, SessionOptions { model, slo: None }),
                        // On resume the parked session's model governs —
                        // the stream must continue on the variant it
                        // started on, so any model in the frame is ignored.
                        Some(token) => server.resume(&tenant, token),
                    };
                    match opened {
                        Ok(h) => {
                            let stream = server.stream_config();
                            let ack = Frame::HelloAck {
                                token: h.token(),
                                channels: stream.channels as u16,
                                window: stream.window as u32,
                                slide: stream.slide as u32,
                            };
                            handle = Some(h);
                            if !send_frame(&mut sock, &mut scratch, &ack) {
                                bail!();
                            }
                        }
                        Err(e) => {
                            send_error(&mut sock, &mut scratch, error_code(&e), e.to_string());
                            return;
                        }
                    }
                }
                Frame::Samples(samples) => {
                    let Some(h) = &handle else {
                        send_error(
                            &mut sock,
                            &mut scratch,
                            ErrorCode::Protocol,
                            "samples before hello".into(),
                        );
                        return;
                    };
                    if let Err(e) = h.send(&samples) {
                        send_error(&mut sock, &mut scratch, error_code(&e), e.to_string());
                        if let Some(h) = handle.take() {
                            let _ = h.disconnect();
                        }
                        return;
                    }
                }
                Frame::Finish => {
                    let Some(h) = handle.take() else {
                        send_error(
                            &mut sock,
                            &mut scratch,
                            ErrorCode::Protocol,
                            "finish before hello".into(),
                        );
                        return;
                    };
                    match h.finish() {
                        Ok(report) => {
                            for event in &report.summary.events {
                                if !send_frame(
                                    &mut sock,
                                    &mut scratch,
                                    &Frame::Event(event.clone()),
                                ) {
                                    return;
                                }
                            }
                            let predictions = report
                                .summary
                                .predictions
                                .iter()
                                .zip(&report.summary.confidences)
                                .map(|(&class, &conf)| (class as u64, conf))
                                .collect();
                            let _ = send_frame(
                                &mut sock,
                                &mut scratch,
                                &Frame::Summary {
                                    windows: report.summary.windows as u64,
                                    predictions,
                                },
                            );
                            let _ = send_frame(
                                &mut sock,
                                &mut scratch,
                                &Frame::Stats(report.summary.stages),
                            );
                            let _ = send_frame(
                                &mut sock,
                                &mut scratch,
                                &Frame::SessionStats {
                                    windows: report.stats.windows,
                                    chunks: report.stats.chunks,
                                    samples: report.stats.samples,
                                    events: report.stats.events,
                                },
                            );
                        }
                        Err(e) => {
                            send_error(&mut sock, &mut scratch, error_code(&e), e.to_string())
                        }
                    }
                    return;
                }
                Frame::Bye => {
                    if let Some(h) = handle.take() {
                        let _ = h.disconnect();
                    }
                    return;
                }
                Frame::Hello { .. } => {
                    send_error(
                        &mut sock,
                        &mut scratch,
                        ErrorCode::Protocol,
                        "duplicate hello on an open session".into(),
                    );
                    bail!();
                }
                // Server-to-client frames arriving at the server are a
                // protocol violation.
                Frame::HelloAck { .. }
                | Frame::Event(_)
                | Frame::Summary { .. }
                | Frame::Stats(_)
                | Frame::SessionStats { .. }
                | Frame::Error { .. } => {
                    send_error(
                        &mut sock,
                        &mut scratch,
                        ErrorCode::Protocol,
                        "server-to-client frame sent by client".into(),
                    );
                    bail!();
                }
            }
        }
    }
}
