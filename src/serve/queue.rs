//! The bounded MPSC request queue feeding a replica's worker pool.
//!
//! Many client threads push requests concurrently (the **MP** side); the
//! engine's workers pop them (the **SC** side is generalised to a small
//! consumer pool — each request is still consumed exactly once). The queue
//! is bounded: when `capacity` requests are waiting, the blocking push
//! waits and the non-blocking push fails fast, which is the engine's
//! backpressure signal. Closing the queue wakes every waiter; pops drain
//! the remaining requests before reporting shutdown so no accepted request
//! is ever dropped.

use bioformer_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Errors surfaced by the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is at capacity (backpressure): the client
    /// should retry later, shed load, or use the blocking submit path.
    QueueFull,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request's deadline passed before a worker started serving it.
    DeadlineExpired,
    /// The request was malformed (wrong rank, or a channel/sample shape
    /// that differs from what this engine is serving).
    BadRequest(String),
    /// The request was cancelled without being served: the backend
    /// panicked while executing its batch (the worker survives and keeps
    /// serving; see `EngineStats::failed`), or the engine terminated
    /// abnormally. Graceful shutdown never cancels accepted requests.
    Cancelled,
    /// Every replica in a sharded pool is quarantined (dead workers or a
    /// run of consecutive backend failures), so there is nowhere left to
    /// route the request. See `ShardedEngine`. The multi-tenant
    /// `StreamServer` reuses this for a session pool with no free slot.
    Unavailable,
    /// The streaming session behind this handle was evicted by the
    /// server's idle timeout. Its state was checkpointed — reconnect with
    /// the session token to resume where it left off. See `StreamServer`.
    Evicted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::DeadlineExpired => write!(f, "request deadline expired before service"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Cancelled => write!(f, "request cancelled without being served"),
            ServeError::Unavailable => {
                write!(f, "no healthy replica available to serve the request")
            }
            ServeError::Evicted => {
                write!(f, "session evicted by idle timeout; reconnect to resume")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The served result of one request, delivered through
/// [`PendingResponse::wait`].
#[derive(Debug, Clone)]
pub struct RequestOutput {
    /// Logits `[n, classes]`, row-aligned with the request's windows.
    pub logits: Tensor,
    /// Argmax class per window.
    pub predictions: Vec<usize>,
    /// Time the request spent queued (enqueue → batch execution start).
    pub queue_wait: Duration,
    /// Number of requests coalesced into the shared batch this request
    /// rode in (1 means it was served alone).
    pub batch_requests: usize,
    /// Total windows in that shared batch.
    pub batch_windows: usize,
    /// Backend time spent executing that shared batch.
    pub batch_latency: Duration,
}

/// One queued inference request (engine-internal).
pub(crate) struct Request {
    /// Input windows `[n, channels, samples]` (`n` may be 0).
    pub(crate) windows: Tensor,
    /// If set, the instant after which the request must not be started.
    pub(crate) deadline: Option<Instant>,
    /// When the request entered the queue.
    pub(crate) enqueued: Instant,
    /// One-shot response channel back to the submitting client.
    pub(crate) respond: mpsc::Sender<Result<RequestOutput, ServeError>>,
}

impl Request {
    /// The request's `[channels, samples]` window shape.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.windows.dims()[1], self.windows.dims()[2])
    }
}

/// Client-side handle to a request submitted to an
/// [`Engine`](super::Engine); redeem it with [`PendingResponse::wait`]. An
/// inline replica hands it back already resolved.
#[derive(Debug)]
pub struct PendingResponse {
    pub(crate) rx: mpsc::Receiver<Result<RequestOutput, ServeError>>,
    pub(crate) windows: usize,
}

impl PendingResponse {
    /// Number of windows in the submitted request.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Blocks until the request is served (or rejected), consuming the
    /// handle. Returns [`ServeError::Cancelled`] if the engine died without
    /// responding.
    pub fn wait(self) -> Result<RequestOutput, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Cancelled))
    }

    /// Non-blocking poll: `Ok` with the response if the request has been
    /// served (or rejected), `Err(self)` with the still-usable handle if it
    /// is still in flight. A dead engine reads as
    /// [`ServeError::Cancelled`], exactly like [`PendingResponse::wait`].
    ///
    /// This is what lets a pipelining client (e.g. a streaming session
    /// with bounded lookahead) drain completed responses opportunistically
    /// without stalling on the oldest one.
    #[allow(clippy::result_large_err)]
    pub fn try_wait(self) -> Result<Result<RequestOutput, ServeError>, PendingResponse> {
        match self.rx.try_recv() {
            Ok(result) => Ok(result),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            Err(mpsc::TryRecvError::Disconnected) => Ok(Err(ServeError::Cancelled)),
        }
    }

    /// Bounded wait: blocks for at most `timeout`, then returns `Err(self)`
    /// with the still-usable handle if the request is still in flight. A
    /// dead engine reads as [`ServeError::Cancelled`], exactly like
    /// [`PendingResponse::wait`].
    ///
    /// This is the hedging primitive: the sharded router waits one hedge
    /// delay on the primary replica, and on timeout duplicates the request
    /// to a second replica while keeping this handle alive to race both.
    #[allow(clippy::result_large_err)]
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<RequestOutput, ServeError>, PendingResponse> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(ServeError::Cancelled)),
        }
    }
}

/// Queue interior: the deque plus the closed flag, under one mutex.
struct QueueState {
    deque: VecDeque<Request>,
    closed: bool,
}

/// A bounded multi-producer queue with blocking push/pop, linger-deadline
/// pops for batch coalescing, and drain-on-close shutdown semantics.
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// Creates a queue that holds at most `capacity` waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RequestQueue: capacity must be >= 1");
        RequestQueue {
            state: Mutex::new(QueueState {
                deque: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // A worker panicking mid-batch poisons nothing queue-related; keep
        // serving rather than cascading the panic into every client.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of requests currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.lock().deque.len()
    }

    /// `Ok` while the queue accepts requests, [`ServeError::ShuttingDown`]
    /// after [`RequestQueue::close`] — the admission check of an inline
    /// replica, which never pushes.
    pub(crate) fn ensure_open(&self) -> Result<(), ServeError> {
        if self.lock().closed {
            Err(ServeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// Non-blocking push: fails fast with [`ServeError::QueueFull`] when at
    /// capacity (the backpressure signal) or [`ServeError::ShuttingDown`]
    /// after [`RequestQueue::close`].
    pub(crate) fn try_push(&self, req: Request) -> Result<(), ServeError> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        if st.deque.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        st.deque.push_back(req);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits while the queue is full; fails only once the
    /// queue is closed.
    pub(crate) fn push(&self, req: Request) -> Result<(), ServeError> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(ServeError::ShuttingDown);
            }
            if st.deque.len() < self.capacity {
                st.deque.push_back(req);
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking pop: waits for a request; returns `None` only once the
    /// queue is closed **and** drained, so accepted requests always reach a
    /// worker.
    pub(crate) fn pop(&self) -> Option<Request> {
        let mut st = self.lock();
        loop {
            if let Some(req) = st.deque.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(req);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pop with a linger deadline: returns an already-queued request
    /// immediately, otherwise waits until `until` for one to arrive.
    /// `None` means the linger window elapsed (or the queue closed empty) —
    /// the caller should flush its partial batch.
    pub(crate) fn pop_until(&self, until: Instant) -> Option<Request> {
        let mut st = self.lock();
        loop {
            if let Some(req) = st.deque.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(req);
            }
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(st, until - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`ServeError::ShuttingDown`], blocked pushers and poppers wake, and
    /// pops drain the backlog before reporting shutdown.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn dummy_request() -> (Request, PendingResponse) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                windows: Tensor::zeros(&[1, 2, 3]),
                deadline: None,
                enqueued: Instant::now(),
                respond: tx,
            },
            PendingResponse { rx, windows: 1 },
        )
    }

    #[test]
    fn try_push_reports_backpressure_at_capacity() {
        let q = RequestQueue::new(2);
        assert!(q.try_push(dummy_request().0).is_ok());
        assert!(q.try_push(dummy_request().0).is_ok());
        assert_eq!(q.try_push(dummy_request().0), Err(ServeError::QueueFull));
        assert_eq!(q.len(), 2);
        let _ = q.pop().unwrap();
        assert!(q.try_push(dummy_request().0).is_ok());
    }

    #[test]
    fn close_drains_backlog_then_stops() {
        let q = RequestQueue::new(4);
        q.try_push(dummy_request().0).unwrap();
        q.try_push(dummy_request().0).unwrap();
        q.close();
        assert_eq!(q.try_push(dummy_request().0), Err(ServeError::ShuttingDown));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_until_grabs_backlog_without_waiting() {
        let q = RequestQueue::new(4);
        q.try_push(dummy_request().0).unwrap();
        // Deadline already passed: must still return the queued request.
        let past = Instant::now() - Duration::from_millis(5);
        assert!(q.pop_until(past).is_some());
        assert!(q
            .pop_until(Instant::now() + Duration::from_millis(1))
            .is_none());
    }

    #[test]
    fn wait_timeout_returns_handle_then_response() {
        let (req, pending) = dummy_request();
        // Nothing responded yet: the bounded wait hands the handle back.
        let pending = match pending.wait_timeout(Duration::from_millis(1)) {
            Err(p) => p,
            Ok(r) => panic!("unexpected early response: {r:?}"),
        };
        // Engine dies (sender dropped) -> Cancelled, like wait().
        drop(req);
        match pending.wait_timeout(Duration::from_millis(1)) {
            Ok(Err(ServeError::Cancelled)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(RequestQueue::new(1));
        q.try_push(dummy_request().0).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(dummy_request().0).is_ok());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.len(), 1, "pusher must be blocked while full");
        let _ = q.pop().unwrap();
        assert!(pusher.join().unwrap());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_wakes_blocked_pusher() {
        let q = Arc::new(RequestQueue::new(1));
        q.try_push(dummy_request().0).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(dummy_request().0));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(ServeError::ShuttingDown));
    }
}
