//! What the two serving workloads share: seeded traffic, the served
//! engine, the send schedule, event matching and the decision split.

use crate::alloc::PeakSampler;
use crate::cpu_seconds;
use crate::ledger::Attribution;
use crate::model::{interleave, window_pairs};
use crate::profile::{TimedClassifier, WindowIds};
use crate::spans::{self, Span, NONE};
use crate::stats::{mean, p50_p90_p99, percentile, sorted};
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, GestureClassifier, GestureEvent, RoutingPolicy,
    ShardedEngine, StreamConfig,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each session sends one window-sized chunk per period, the burst
/// cadence of `examples/serve_gateway.rs`.
pub const PERIOD: Duration = Duration::from_millis(25);

/// Seeded traffic: per session, two windows whose offline classes differ,
/// streamed alternately as interleaved chunks.
pub struct Traffic {
    pub chunks: Vec<[Vec<f32>; 2]>,
    pub classes: Vec<[usize; 2]>,
    pub ids: Arc<WindowIds>,
}

impl Traffic {
    pub fn new(
        seed: u64,
        sessions: usize,
        channels: usize,
        window: usize,
        classify: impl Fn(&[f32]) -> usize,
    ) -> Result<Self, String> {
        let pairs = window_pairs(seed, sessions, channels, window, classify)?;
        let windows: Vec<[Vec<f32>; 2]> = pairs.iter().map(|(w, _)| w.clone()).collect();
        let ids = WindowIds::new(&windows);
        if !ids.distinct(sessions) {
            return Err("two seeded windows share a fingerprint".into());
        }
        Ok(Traffic {
            chunks: windows
                .iter()
                .map(|[a, b]| [interleave(a, channels), interleave(b, channels)])
                .collect(),
            classes: pairs.iter().map(|(_, c)| *c).collect(),
            ids: Arc::new(ids),
        })
    }
}

/// The stream template of both workloads: non-overlapping windows, and a
/// policy under which every window of alternating classes starts one
/// decision.
pub fn stream_config(channels: usize, window: usize) -> StreamConfig {
    StreamConfig::new(channels, window).with_policy(DecisionPolicy {
        vote_depth: 1,
        min_hold: 1,
        confidence_floor: 0.0,
    })
}

/// A single-replica engine: round-robin routing, no hedging, one worker
/// that never lingers for stragglers, and no autotuning — nothing that
/// picks a code path from wall-clock measurements. Traced runs wrap the
/// model in the timing decorator.
pub fn engine(
    model: Box<dyn GestureClassifier>,
    ids: &Arc<WindowIds>,
    traced: bool,
) -> ShardedEngine {
    let served: Box<dyn GestureClassifier> = if traced {
        Box::new(TimedClassifier::new(model, Arc::clone(ids)))
    } else {
        model
    };
    ShardedEngine::builder()
        .with_policy(RoutingPolicy::RoundRobin)
        .with_replica_config(
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_linger(Duration::ZERO),
        )
        .add_replica(served)
        .build()
}

/// The open-loop schedule: session `s` sends its `k`-th chunk at
/// `start + k·PERIOD + s·PERIOD/sessions`, regardless of responses.
pub struct Schedule {
    pub start: Instant,
    pub end: Instant,
    pub sessions: usize,
}

impl Schedule {
    pub fn new(sessions: usize, seconds: u64) -> Self {
        // A short lead so the first sends are not late by set-up jitter.
        let start = Instant::now() + Duration::from_millis(20);
        Schedule {
            start,
            end: start + Duration::from_secs(seconds),
            sessions,
        }
    }

    /// The `j`-th send in time order: (session, due time), or `None`
    /// past the end.
    pub fn send(&self, j: usize) -> Option<(usize, Instant)> {
        let (s, k) = (j % self.sessions, j / self.sessions);
        let due = self.start + PERIOD * k as u32 + PERIOD * s as u32 / self.sessions as u32;
        (due < self.end).then_some((s, due))
    }

    /// Traced runs alternate 1 s blocks with tracing off and on.
    pub fn traced_block(&self, due: Instant) -> bool {
        (due - self.start).as_secs() % 2 == 1
    }

    pub fn sends_per_second(&self) -> usize {
        self.sessions * (Duration::from_secs(1).as_nanos() / PERIOD.as_nanos()) as usize
    }
}

/// Bookkeeping of a serving load loop: the heap peak of each second and
/// the process CPU time. The host probe is not used here: serving CPU
/// is largely kernel and wake-up time, which the probe does not track
/// (scaling by it widened the fleet spread from 2.9% to 8.2%).
pub struct LoadMeter {
    heap: PeakSampler,
    cpu0: f64,
}

/// What a [`LoadMeter`] measured.
pub struct Load {
    pub heap_peak_mb: f64,
    pub cpu_s: f64,
}

impl LoadMeter {
    pub fn start(seconds: u64) -> Self {
        LoadMeter {
            heap: PeakSampler::start(seconds),
            cpu0: cpu_seconds(),
        }
    }

    /// Call after each send.
    pub fn tick(&mut self) {
        self.heap.tick(Instant::now());
    }

    pub fn finish(self) -> Load {
        Load {
            heap_peak_mb: self.heap.finish(),
            cpu_s: cpu_seconds() - self.cpu0,
        }
    }
}

/// Sleeps until `deadline` (never with a socket timeout) and returns how
/// late the caller is after waking, in ms.
pub fn sleep_until(deadline: Instant) -> f64 {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
    Instant::now()
        .saturating_duration_since(deadline)
        .as_secs_f64()
        * 1e3
}

const PENDING: u64 = u64::MAX;
const AT_FINISH: u64 = u64::MAX - 1;

/// Matches one session's events to the windows it sent: window `w`
/// must yield exactly one `Started` with the class of the window sent,
/// in window order; `Ended` events must close the previous window's
/// class, in order.
#[derive(Debug, Clone)]
pub struct Matcher {
    classes: [usize; 2],
    /// Scheduled send time per window (span clock, ns) and whether it
    /// fell in a traced block.
    scheduled: Vec<(u64, bool)>,
    /// Receipt time of each window's `Started` (ns), `AT_FINISH` when it
    /// was collected at finish, `PENDING` before.
    decided: Vec<u64>,
    next_started: usize,
    ended: usize,
    wrong: u64,
    disorder: u64,
}

/// One session's matched result.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub sent: u64,
    pub decided: u64,
    pub missing: u64,
    pub wrong: u64,
    pub disorder: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.decided += o.decided;
        self.missing += o.missing;
        self.wrong += o.wrong;
        self.disorder += o.disorder;
    }

    pub fn failed(&self) -> u64 {
        self.missing + self.wrong + self.disorder
    }
}

impl Matcher {
    pub fn new(classes: [usize; 2]) -> Self {
        Matcher {
            classes,
            scheduled: Vec::new(),
            decided: Vec::new(),
            next_started: 0,
            ended: 0,
            wrong: 0,
            disorder: 0,
        }
    }

    /// Reserves room for `windows` windows.
    pub fn reserve(&mut self, windows: usize) {
        self.scheduled.reserve(windows);
        self.decided.reserve(windows);
    }

    /// Windows sent so far (the next window's index).
    pub fn sent(&self) -> usize {
        self.scheduled.len()
    }

    /// Records that the next window was sent, due at `due_ns`.
    pub fn send(&mut self, due_ns: u64, traced: bool) {
        self.scheduled.push((due_ns, traced));
        self.decided.push(PENDING);
    }

    /// Feeds one event, received at `received` (span clock, ns), or
    /// `None` for events collected at finish.
    pub fn event(&mut self, event: &GestureEvent, received: Option<u64>) {
        match *event {
            GestureEvent::Started { class, window, .. } => {
                if window != self.next_started || window >= self.decided.len() {
                    self.disorder += 1;
                }
                let Some(slot) = self.decided.get_mut(window) else {
                    return;
                };
                if *slot != PENDING {
                    return; // duplicate, counted above
                }
                if class != self.classes[window % 2] {
                    self.wrong += 1;
                }
                *slot = received.unwrap_or(AT_FINISH);
                self.next_started = self.next_started.max(window + 1);
            }
            GestureEvent::Ended { class, window, .. } => {
                if window != self.ended + 1 || window > self.decided.len() {
                    self.disorder += 1;
                } else if class != self.classes[(window - 1) % 2] {
                    self.wrong += 1;
                }
                self.ended = self.ended.max(window);
            }
        }
    }

    pub fn tally(&self) -> Tally {
        let missing = self.decided.iter().filter(|&&d| d == PENDING).count() as u64;
        Tally {
            sent: self.sent() as u64,
            decided: self.sent() as u64 - missing,
            missing,
            wrong: self.wrong,
            disorder: self.disorder,
        }
    }

    /// Decision latencies (ms) of the windows decided before finish:
    /// (window, traced block, latency).
    pub fn latencies(&self) -> impl Iterator<Item = (usize, bool, f64)> + '_ {
        self.scheduled
            .iter()
            .zip(&self.decided)
            .enumerate()
            .filter(|(_, (_, &d))| d < AT_FINISH)
            .map(|(w, (&(due, traced), &d))| (w, traced, d.saturating_sub(due) as f64 / 1e6))
    }

    /// Scheduled time and receipt time of window `w`, if timed.
    fn times(&self, w: usize) -> Option<(u64, u64)> {
        let (due, _) = *self.scheduled.get(w)?;
        let d = *self.decided.get(w)?;
        (d < AT_FINISH).then_some((due, d))
    }
}

/// Decision latencies over all sessions: (untraced-block, traced-block),
/// in ms.
pub fn decision_latencies(matchers: &[Matcher]) -> (Vec<f64>, Vec<f64>) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for m in matchers {
        for (_, traced, ms) in m.latencies() {
            if traced { &mut on } else { &mut off }.push(ms);
        }
    }
    (off, on)
}

/// Per-layer metrics of a traced serving run, and the report lines for
/// the dispatch / compute / delivery split.
pub fn traced_metrics(
    matchers: &[Matcher],
    all: &[Span],
    out: &mut std::collections::BTreeMap<&'static str, f64>,
    report: &mut String,
) -> Attribution {
    let selfs = spans::self_times(all);
    let batches = Attribution::of(all, &selfs, "core.batch");
    // Engine call of each named window.
    let mut call: HashMap<u32, (u64, u64)> = HashMap::new();
    let mut markers = 0u64;
    for s in all.iter().filter(|s| s.name == "core.window") {
        markers += 1;
        if let (Some(b), true) = (all.get(s.parent as usize), s.window != NONE) {
            call.insert(s.window, (b.start, b.end));
        }
    }
    let (mut dispatch, mut compute, mut delivery, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (s, m) in matchers.iter().enumerate() {
        for (w, traced, _) in m.latencies() {
            let id = crate::profile::window_id(s, w);
            let (Some(&(start, end)), Some((due, got)), true) = (call.get(&id), m.times(w), traced)
            else {
                continue;
            };
            let ms = |a: u64, b: u64| (b as f64 - a as f64) / 1e6;
            dispatch.push(ms(due, start));
            compute.push(ms(start, end));
            delivery.push(ms(end, got));
            total.push(ms(due, got));
        }
    }
    let (d, c, l, t) = (
        mean(&dispatch),
        mean(&compute),
        mean(&delivery),
        mean(&total),
    );
    out.insert("serve.server.dispatch_ms", d);
    out.insert("serve.server.delivery_ms", l);
    out.insert(
        "core.compute_us",
        batches.root_ns as f64 / 1e3 / batches.roots.max(1) as f64,
    );
    out.insert(
        "core.batch_windows",
        markers as f64 / batches.roots.max(1) as f64,
    );
    let _ = writeln!(
        report,
        "  decision split over {} traced windows (means): dispatch {d:.3} ms + compute {c:.3} ms \
         + delivery {l:.3} ms = {:.3} ms; traced decision mean {t:.3} ms, p50 {:.3} ms",
        total.len(),
        d + c + l,
        percentile(&sorted(&total), 50.0)
    );
    batches
}

/// Mean of span durations named `name`, in µs (0 when none).
pub fn mean_span_us(all: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = all
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect();
    mean(&v)
}

/// The end-to-end (untraced) or per-layer (traced) latency metrics
/// shared by both serving workloads.
pub fn latency_metrics(
    matchers: &[Matcher],
    late_ms: &[f64],
    traced: bool,
    out: &mut std::collections::BTreeMap<&'static str, f64>,
    report: &mut String,
) {
    let (off, on) = decision_latencies(matchers);
    let (p50, p90, p99) = p50_p90_p99(&off);
    let late = sorted(late_ms);
    let (late_p99, late_max) = (percentile(&late, 99.0), late.last().copied().unwrap_or(0.0));
    let _ = writeln!(
        report,
        "  decision_p50_ms {p50:.3} ms  p90 {p90:.3} ms  decision_p99_ms {p99:.3} ms over {} timed windows; \
         loadgen late p50 {:.3} ms p99 {late_p99:.3} ms max {late_max:.3} ms",
        off.len(),
        percentile(&late, 50.0)
    );
    if traced {
        let (on_p50, _, on_p99) = p50_p90_p99(&on);
        let all: Vec<f64> = off.iter().chain(&on).copied().collect();
        out.insert("serve.stream.decision_p99_ms", p50_p90_p99(&all).2);
        out.insert("trace.overhead_pct", (on_p50 / p50 - 1.0) * 100.0);
        out.insert("loadgen.late_p99_ms", late_p99);
        out.insert("loadgen.late_max_ms", late_max);
        let _ = writeln!(
            report,
            "  tracing overhead: decision p50 {on_p50:.3} ms traced vs {p50:.3} ms untraced \
             (p99 {on_p99:.3} vs {p99:.3})"
        );
    } else {
        out.insert("latency_p50_ms", p50);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(class: usize, window: usize) -> GestureEvent {
        GestureEvent::Started {
            class,
            window,
            confidence: 1.0,
        }
    }

    fn ended(class: usize, window: usize) -> GestureEvent {
        GestureEvent::Ended {
            class,
            window,
            held: 1,
        }
    }

    #[test]
    fn in_order_events_match_every_window() {
        let mut m = Matcher::new([3, 5]);
        for w in 0..3 {
            m.send(w * 10, false);
        }
        m.event(&started(3, 0), Some(4));
        m.event(&ended(3, 1), Some(15));
        m.event(&started(5, 1), Some(15));
        m.event(&ended(5, 2), Some(29));
        m.event(&started(3, 2), Some(29));
        assert_eq!(
            m.tally(),
            Tally {
                sent: 3,
                decided: 3,
                ..Tally::default()
            }
        );
        let lat: Vec<_> = m.latencies().collect();
        assert_eq!(
            lat,
            vec![(0, false, 4e-6), (1, false, 5e-6), (2, false, 9e-6)]
        );
    }

    #[test]
    fn lookahead_tail_collected_at_finish_is_decided_not_timed() {
        let mut m = Matcher::new([0, 1]);
        m.send(0, true);
        m.send(10, true);
        m.event(&started(0, 0), Some(12));
        // The last window only surfaces when the session finishes, with
        // the closing `Ended`.
        m.event(&ended(0, 1), None);
        m.event(&started(1, 1), None);
        m.event(&ended(1, 2), None);
        let t = m.tally();
        assert_eq!((t.decided, t.failed()), (2, 0));
        assert_eq!(m.latencies().count(), 1);
    }

    #[test]
    fn wrong_duplicate_missing_and_out_of_order_are_failures() {
        let mut m = Matcher::new([0, 1]);
        for w in 0..4 {
            m.send(w, false);
        }
        m.event(&started(1, 0), Some(5)); // wrong class
        m.event(&started(1, 0), Some(6)); // duplicate
        m.event(&started(0, 2), Some(7)); // skips window 1
        m.event(&started(1, 9), Some(8)); // never sent
        let t = m.tally();
        assert_eq!(t.wrong, 1);
        assert_eq!(t.disorder, 3);
        assert_eq!(t.missing, 2); // windows 1 and 3
        assert_eq!(t.failed(), 6);
    }

    #[test]
    fn schedule_spreads_sessions_over_the_period() {
        let s = Schedule::new(4, 1);
        let (s0, t0) = s.send(0).unwrap();
        let (s1, t1) = s.send(1).unwrap();
        let (s4, t4) = s.send(4).unwrap();
        assert_eq!((s0, s1, s4), (0, 1, 0));
        assert_eq!(t1 - t0, PERIOD / 4);
        assert_eq!(t4 - t0, PERIOD);
        assert!(s.send(4 * 40).is_none());
        assert!(s.send(4 * 40 - 1).is_some());
    }
}
