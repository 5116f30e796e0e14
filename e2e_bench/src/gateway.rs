//! `gateway`: an open loop over TCP loopback. Two connections (one per
//! vCPU of the reference host), each carrying one `StreamServer` session,
//! are driven from one process against a single-replica fp32 engine with
//! lookahead 0. Each connection sends one window-sized chunk per 25 ms.

use crate::profile::{self, ProfilingBackend, RoleMap};
use crate::serving::{self, sleep_until, LoadMeter, Matcher, Schedule, Tally, Traffic};
use crate::spans::{self, NONE};
use crate::{alloc, ledger, model, Outcome};
use bioformers::core::BioformerConfig;
use bioformers::serve::proto::encode_frame;
use bioformers::serve::{
    Frame, FrameDecoder, GestureEvent, StreamServer, StreamServerConfig, TcpGateway,
};
use bioformers::tensor::{ComputeBackend, PackedCpuBackend};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;

/// Field order is teardown order: the gateway stops before the server.
pub struct Gateway {
    gateway: TcpGateway,
    server: Arc<StreamServer>,
    traffic: Traffic,
    profiler: Option<Arc<ProfilingBackend>>,
}

fn write_frame(sock: &mut TcpStream, frame: &Frame, scratch: &mut Vec<u8>) -> Result<(), String> {
    scratch.clear();
    encode_frame(frame, scratch).map_err(|e| format!("encode: {e}"))?;
    sock.write_all(scratch).map_err(|e| format!("send: {e}"))
}

/// Blocks until one whole frame arrives.
fn read_frame(sock: &mut TcpStream, dec: &mut FrameDecoder) -> Result<Frame, String> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(f) = dec.next_frame().map_err(|e| format!("decode: {e}"))? {
            return Ok(f);
        }
        let n = sock.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("gateway closed the connection".into());
        }
        dec.feed(&buf[..n]);
    }
}

pub fn setup(seed: u64, traced: bool) -> Result<Gateway, String> {
    let cfg = BioformerConfig::bio1();
    let profiler = traced.then(|| Arc::new(ProfilingBackend::new(RoleMap::new(&cfg))));
    let backend: Arc<dyn ComputeBackend> = match &profiler {
        Some(p) => p.clone(),
        None => Arc::new(PackedCpuBackend::new()),
    };
    let fp32 = model::fp32_model(backend);
    let traffic = Traffic::new(seed, CONNECTIONS, cfg.channels, cfg.window, |w| {
        model::fp32_class(&fp32, w)
    })?;
    let engine = serving::engine(Box::new(fp32), &traffic.ids, traced);
    let stream = serving::stream_config(cfg.channels, cfg.window).with_lookahead(0);
    let server = Arc::new(
        StreamServer::start(Arc::new(engine), StreamServerConfig::new(stream))
            .map_err(|e| format!("server start: {e}"))?,
    );
    let gateway = TcpGateway::bind(Arc::clone(&server), "127.0.0.1:0")
        .map_err(|e| format!("gateway bind: {e}"))?;
    Ok(Gateway {
        gateway,
        server,
        traffic,
        profiler,
    })
}

/// Opens the client connections: connect, `Hello`, `HelloAck`. This is
/// not part of set-up: the gateway accepts by polling with a short sleep,
/// which makes connect time vary with timer slack by several times the
/// rest of set-up.
fn connect(gateway: &TcpGateway) -> Result<Vec<TcpStream>, String> {
    let mut conns = Vec::with_capacity(CONNECTIONS);
    let mut scratch = Vec::new();
    for s in 0..CONNECTIONS {
        let mut sock =
            TcpStream::connect(gateway.local_addr()).map_err(|e| format!("connect: {e}"))?;
        sock.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let hello = Frame::Hello {
            tenant: format!("tenant-{s}"),
            resume: None,
            model: None,
        };
        write_frame(&mut sock, &hello, &mut scratch)?;
        match read_frame(&mut sock, &mut FrameDecoder::new())? {
            Frame::HelloAck { .. } => {}
            other => return Err(format!("expected HelloAck, got {other:?}")),
        }
        conns.push(sock);
    }
    Ok(conns)
}

/// What one connection's reader thread saw.
struct Received {
    /// Events with their receipt time (span clock), `None` once the
    /// finish exchange began.
    events: Vec<(GestureEvent, Option<u64>)>,
    closed_cleanly: bool,
    error: Option<String>,
}

/// Reads frames until the finish exchange ends. Receipt is timed when
/// `read` returns, before decoding.
fn reader(mut sock: TcpStream, finishing: &AtomicBool, capacity: usize) -> Received {
    let mut got = Received {
        events: Vec::with_capacity(capacity),
        closed_cleanly: false,
        error: None,
    };
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match sock.read(&mut buf) {
            Ok(0) => return got,
            Ok(n) => n,
            Err(e) => {
                got.error = Some(format!("read: {e}"));
                return got;
            }
        };
        let received = (!finishing.load(Ordering::SeqCst)).then(spans::now_ns);
        dec.feed(&buf[..n]);
        loop {
            let t = spans::now_ns();
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    got.error = Some(format!("decode: {e}"));
                    return got;
                }
            };
            if spans::enabled() {
                spans::record("serve.proto.decode", t, spans::now_ns(), NONE, NONE);
            }
            match frame {
                Frame::Event(ev) => got.events.push((ev, received)),
                Frame::Summary { .. } | Frame::Stats(_) => {}
                Frame::SessionStats { .. } => {
                    got.closed_cleanly = true;
                    return got;
                }
                Frame::Error { code, message } => {
                    got.error = Some(format!("server error {code:?}: {message}"));
                    return got;
                }
                other => {
                    got.error = Some(format!("unexpected frame {other:?}"));
                    return got;
                }
            }
        }
    }
}

pub fn run(mut st: Gateway, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut conns = connect(&st.gateway)?;
    let connect_us = t.elapsed().as_secs_f64() * 1e6 / CONNECTIONS as f64;
    let sched = Schedule::new(CONNECTIONS, seconds);
    let sends = sched.sends_per_second() * seconds as usize + CONNECTIONS;
    let per_session = sends / CONNECTIONS + 1;
    let mut matchers: Vec<Matcher> = st
        .traffic
        .classes
        .iter()
        .map(|&c| {
            let mut m = Matcher::new(c);
            m.reserve(per_session);
            m
        })
        .collect();
    let frames: Vec<[Frame; 2]> = st
        .traffic
        .chunks
        .iter()
        .map(|[a, b]| [Frame::Samples(a.clone()), Frame::Samples(b.clone())])
        .collect();
    if traced {
        spans::reserve(sends * 40);
    }
    let finishing = AtomicBool::new(false);
    let mut late_ms = Vec::with_capacity(sends);
    let mut scratch = Vec::with_capacity(64 * 1024);
    let mut meter = LoadMeter::start(seconds);
    let allocs0 = alloc::allocations();
    let (received, sent) = std::thread::scope(|scope| -> Result<_, String> {
        let readers: Vec<_> = conns
            .iter()
            .map(|sock| {
                let sock = sock.try_clone().map_err(|e| format!("clone socket: {e}"))?;
                let finishing = &finishing;
                Ok(scope.spawn(move || reader(sock, finishing, per_session * 2 + 4)))
            })
            .collect::<Result<_, String>>()?;
        let mut failure = None;
        for j in 0.. {
            let Some((s, due)) = sched.send(j) else { break };
            late_ms.push(sleep_until(due));
            let on = traced && sched.traced_block(due);
            spans::set_enabled(on);
            let w = matchers[s].sent();
            let t = spans::now_ns();
            scratch.clear();
            if let Err(e) = encode_frame(&frames[s][w % 2], &mut scratch) {
                failure = Some(format!("encode: {e}"));
                break;
            }
            if on {
                let id = profile::window_id(s, w);
                spans::record("serve.proto.encode", t, spans::now_ns(), NONE, id);
            }
            if let Err(e) = conns[s].write_all(&scratch) {
                failure = Some(format!("send: {e}"));
                break;
            }
            matchers[s].send(spans::ns_of(due), on);
            meter.tick();
        }
        finishing.store(true, Ordering::SeqCst);
        for sock in &mut conns {
            // A failed write surfaces as a reader error or missing windows.
            let _ = write_frame(sock, &Frame::Finish, &mut scratch);
        }
        let received: Vec<Received> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        Ok((received, failure))
    })?;
    spans::set_enabled(false);
    let load = meter.finish();
    let allocs = alloc::allocations() - allocs0;

    let mut errors = Vec::new();
    if let Some(e) = sent {
        errors.push(e);
    }
    let mut tally = Tally::default();
    for (s, got) in received.iter().enumerate() {
        for (ev, at) in &got.events {
            matchers[s].event(ev, *at);
        }
        errors.extend(got.error.clone());
        if !got.closed_cleanly && got.error.is_none() {
            errors.push(format!("connection {s} closed before its finish exchange"));
        }
        tally.add(&matchers[s].tally());
    }
    let failed = tally.failed() + errors.len() as u64;
    let cpu_us_per_window = load.cpu_s * 1e6 / tally.decided.max(1) as f64;
    let mut report = format!(
        "gateway: {CONNECTIONS} connections, {} windows sent, {} decided, {failed} failed \
         ({} missing, {} wrong class, {} out of order, {} errors)\n",
        tally.sent,
        tally.decided,
        tally.missing,
        tally.wrong,
        tally.disorder,
        errors.len()
    );
    for e in &errors {
        report += &format!("  error: {e}\n");
    }
    let mut metrics = BTreeMap::new();
    serving::latency_metrics(&matchers, &late_ms, traced, &mut metrics, &mut report);
    report += &format!("  cpu_us_per_window {cpu_us_per_window:.2} us\n");
    if traced {
        let (all, dropped) = spans::take();
        let batches = serving::traced_metrics(&matchers, &all, &mut metrics, &mut report);
        let windows = metrics["core.batch_windows"] * batches.roots as f64;
        let flops = st.profiler.as_ref().map_or(0, |p| p.fp32_flops());
        ledger::fp32_metrics(&batches, windows, flops, &mut metrics);
        metrics.insert("serve.server.connect_us", connect_us);
        metrics.insert(
            "serve.proto.encode_us",
            serving::mean_span_us(&all, "serve.proto.encode"),
        );
        metrics.insert(
            "serve.proto.decode_us",
            serving::mean_span_us(&all, "serve.proto.decode"),
        );
        metrics.insert(
            "core.allocs_per_window",
            allocs as f64 / tally.decided.max(1) as f64,
        );
        report += &format!("  {dropped} spans dropped\n");
    } else {
        metrics.insert("cpu_us_per_window", cpu_us_per_window);
        metrics.insert("heap_peak_mb", load.heap_peak_mb);
    }
    drop(conns);
    st.gateway.shutdown();
    st.server.shutdown();
    Ok(Outcome {
        attempted: tally.sent,
        failed,
        correct: tally.wrong == 0 && tally.disorder == 0 && tally.missing == 0 && errors.is_empty(),
        metrics,
        report,
    })
}
