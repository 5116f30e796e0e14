//! `fleet`: an open loop in process. One load thread drives 16
//! `SessionHandle` sessions, each sending one window per 25 ms, against a
//! single-replica int8 engine under the default `StreamConfig` lookahead
//! of 4. Every fourth session parks and resumes after every 64th window.
//!
//! 32 sessions (and parking every 32nd window) collapsed under heavy
//! neighbour load on the reference host: engine calls grew to 12–22
//! windows, sends ran 130–180 ms late and the decision p50 rose from
//! 26 ms to 40–160 ms. 16 sessions kept their schedule (see `NOTES.md`).

use crate::profile::{self, ProfilingBackend, RoleMap};
use crate::serving::{self, sleep_until, LoadMeter, Matcher, Schedule, Tally, Traffic};
use crate::spans::{self, NONE};
use crate::{alloc, ledger, model, Outcome};
use bioformers::core::BioformerConfig;
use bioformers::serve::{ServeError, SessionHandle, StreamServer, StreamServerConfig};
use bioformers::tensor::{ComputeBackend, PackedCpuBackend};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 16;
/// Sessions `s` with `s % PARK_STRIDE == 0` park and resume...
const PARK_STRIDE: usize = 4;
/// ...after every `PARK_EVERY`-th window they send.
const PARK_EVERY: usize = 64;

/// Field order is teardown order: handles park before the server stops.
pub struct Fleet {
    handles: Vec<SessionHandle>,
    server: StreamServer,
    traffic: Traffic,
    connect_us: Vec<f64>,
}

pub fn setup(seed: u64, traced: bool) -> Result<Fleet, String> {
    let cfg = BioformerConfig::bio1();
    let backend: Arc<dyn ComputeBackend> = if traced {
        Arc::new(ProfilingBackend::new(RoleMap::new(&cfg)))
    } else {
        Arc::new(PackedCpuBackend::new())
    };
    let int8 = model::int8_model(backend);
    let traffic = Traffic::new(seed, SESSIONS, cfg.channels, cfg.window, |w| {
        model::int8_class(&int8, w)
    })?;
    let engine = serving::engine(Box::new(int8), &traffic.ids, traced);
    let stream = serving::stream_config(cfg.channels, cfg.window);
    let server = StreamServer::start(
        Arc::new(engine),
        StreamServerConfig::new(stream).with_max_sessions(SESSIONS),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut handles = Vec::with_capacity(SESSIONS);
    let mut connect_us = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let t = Instant::now();
        let h = server
            .connect(&format!("tenant-{s}"))
            .map_err(|e| format!("connect: {e}"))?;
        connect_us.push(t.elapsed().as_secs_f64() * 1e6);
        handles.push(h);
    }
    Ok(Fleet {
        handles,
        server,
        traffic,
        connect_us,
    })
}

/// Times `f` as a span named `name` when tracing is on.
fn timed<R>(on: bool, name: &'static str, window: u32, f: impl FnOnce() -> R) -> R {
    let t = spans::now_ns();
    let r = f();
    if on {
        spans::record(name, t, spans::now_ns(), NONE, window);
    }
    r
}

pub fn run(st: Fleet, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let Fleet {
        handles,
        server,
        traffic,
        connect_us,
    } = st;
    let sched = Schedule::new(SESSIONS, seconds);
    let sends = sched.sends_per_second() * seconds as usize + SESSIONS;
    let mut matchers: Vec<Matcher> = traffic
        .classes
        .iter()
        .map(|&c| {
            let mut m = Matcher::new(c);
            m.reserve(sends / SESSIONS + 1);
            m
        })
        .collect();
    if traced {
        spans::reserve(sends * (SESSIONS + 40));
    }
    let mut handles: Vec<Option<SessionHandle>> = handles.into_iter().map(Some).collect();
    let mut late_ms = Vec::with_capacity(sends);
    let (mut queue_full, mut errors) = (0u64, Vec::<String>::new());
    let mut meter = LoadMeter::start(seconds);
    let allocs0 = alloc::allocations();
    for j in 0.. {
        let Some((s, due)) = sched.send(j) else { break };
        late_ms.push(sleep_until(due));
        let on = traced && sched.traced_block(due);
        spans::set_enabled(on);
        let w = matchers[s].sent();
        let id = profile::window_id(s, w);
        if let Some(h) = &handles[s] {
            let chunk = &traffic.chunks[s][w % 2];
            match timed(on, "serve.server.send", id, || h.try_send(chunk)) {
                Ok(()) => matchers[s].send(spans::ns_of(due), on),
                // The chunk is offered again at the session's next tick.
                Err(ServeError::QueueFull) => queue_full += 1,
                Err(e) => {
                    errors.push(format!("session {s} send: {e}"));
                    handles[s] = None;
                }
            }
        }
        let sent = matchers[s].sent();
        if s % PARK_STRIDE == 0 && sent > w && sent.is_multiple_of(PARK_EVERY) {
            if let Some(h) = handles[s].take() {
                let parked = timed(on, "serve.server.disconnect", id, || h.disconnect());
                let resumed = parked.and_then(|token| {
                    timed(on, "serve.server.resume", id, || {
                        server.resume(&format!("tenant-{s}"), token)
                    })
                });
                match resumed {
                    Ok(h) => handles[s] = Some(h),
                    Err(e) => errors.push(format!("session {s} park/resume: {e}")),
                }
            }
        }
        for (m, h) in matchers.iter_mut().zip(&handles) {
            let Some(h) = h else { continue };
            match timed(on, "serve.server.poll", NONE, || h.poll_events()) {
                Ok(events) => {
                    let at = spans::now_ns();
                    for ev in &events {
                        m.event(ev, Some(at));
                    }
                }
                Err(e) => errors.push(format!("poll: {e}")),
            }
        }
        meter.tick();
    }
    for (m, h) in matchers.iter_mut().zip(handles) {
        let Some(h) = h else { continue };
        match h.finish() {
            Ok(report) => {
                for ev in &report.summary.events {
                    m.event(ev, None);
                }
            }
            Err(e) => errors.push(format!("finish: {e}")),
        }
    }
    spans::set_enabled(false);
    let load = meter.finish();
    let allocs = alloc::allocations() - allocs0;
    server.shutdown();

    let mut tally = Tally::default();
    for m in &matchers {
        tally.add(&m.tally());
    }
    let attempted = tally.sent + queue_full;
    let failed = tally.failed() + queue_full + errors.len() as u64;
    let cpu_us_per_window = load.cpu_s * 1e6 / tally.decided.max(1) as f64;
    let mut report = format!(
        "fleet: {SESSIONS} sessions, {attempted} windows offered, {} sent, {} decided, \
         {failed} failed ({queue_full} queue full, {} missing, {} wrong class, \
         {} out of order, {} errors)\n",
        tally.sent,
        tally.decided,
        tally.missing,
        tally.wrong,
        tally.disorder,
        errors.len()
    );
    for e in errors.iter().take(5) {
        report += &format!("  error: {e}\n");
    }
    let mut metrics = BTreeMap::new();
    serving::latency_metrics(&matchers, &late_ms, traced, &mut metrics, &mut report);
    report += &format!("  cpu_us_per_window {cpu_us_per_window:.2} us\n");
    if traced {
        let (all, dropped) = spans::take();
        let batches = serving::traced_metrics(&matchers, &all, &mut metrics, &mut report);
        let windows = metrics["core.batch_windows"] * batches.roots as f64;
        ledger::int8_metrics(&batches, windows, &mut metrics);
        metrics.insert(
            "serve.server.send_us",
            serving::mean_span_us(&all, "serve.server.send"),
        );
        metrics.insert(
            "serve.server.poll_us",
            serving::mean_span_us(&all, "serve.server.poll"),
        );
        metrics.insert(
            "serve.server.disconnect_us",
            serving::mean_span_us(&all, "serve.server.disconnect"),
        );
        metrics.insert(
            "serve.server.resume_us",
            serving::mean_span_us(&all, "serve.server.resume"),
        );
        let connect = crate::stats::sorted(&connect_us);
        metrics.insert(
            "serve.server.connect_us",
            crate::stats::percentile(&connect, 50.0),
        );
        metrics.insert("serve.server.queue_full", queue_full as f64);
        metrics.insert(
            "core.allocs_per_window",
            allocs as f64 / tally.decided.max(1) as f64,
        );
        report += &format!("  {dropped} spans dropped\n");
    } else {
        metrics.insert("cpu_us_per_window", cpu_us_per_window);
        metrics.insert("heap_peak_mb", load.heap_peak_mb);
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: tally.wrong == 0 && tally.disorder == 0 && tally.missing == 0 && errors.is_empty(),
        metrics,
        report,
    })
}
