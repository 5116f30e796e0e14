//! Multi-tenant gateway demo: four Ninapro DB6 session recordings stream
//! **concurrently over TCP loopback** into one [`StreamServer`] — each
//! tenant speaks the length-prefixed binary protocol through a
//! [`GatewayClient`] and gets debounced [`GestureEvent`]s pushed back
//! live. The exercise runs twice, with a guarantee matched to each
//! topology:
//!
//! 1. **fp32 over an inline [`ShardedEngine`] replica** (`workers: 0`) —
//!    every per-window
//!    prediction and the full event timeline are checked **bit-exactly**
//!    against the offline extract-normalize-predict path.
//! 2. **A heterogeneous [`ShardedEngine`] pool** mixing an fp32 replica
//!    with a weight-2 int8 replica under latency-aware routing and
//!    request hedging — the **default production deployment** for a
//!    [`StreamServer`] (the inline pass above exists for its bit-exact
//!    guarantee; real gateways should front a pool, optionally registered
//!    as a [`ModelZoo`](bioformers::serve::ModelZoo) variant — see
//!    `examples/serve_zoo.rs`). Per-window
//!    routing makes the serving replica nondeterministic, so the check
//!    relaxes from bit-exact to *per-window membership*: every streamed
//!    `(prediction, confidence)` pair must equal what one of the two
//!    backends produces offline for that window. The pass also surfaces
//!    the pool's per-replica traffic split, hedging counters, and the
//!    per-stage decision-latency percentiles evaluated against a 100 ms
//!    end-to-end budget.
//!
//! ```text
//! cargo run --release --example serve_gateway
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::windowing::extract_all_into;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::stream::confidence;
use bioformers::serve::{
    AsyncEngineConfig, ClientSummary, DecisionPolicy, Engine, GatewayClient, GestureClassifier,
    HedgeConfig, LatencyBudget, RoutingPolicy, ShardedEngine, StreamConfig, StreamServer,
    StreamServerConfig, StreamSession, TcpGateway,
};
use bioformers::tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

/// An inline engine replica: windows are classified on the pushing thread.
fn inline(backend: Box<dyn GestureClassifier>) -> Arc<dyn Engine> {
    Arc::new(
        ShardedEngine::builder()
            .with_replica_config(AsyncEngineConfig::default().with_workers(0))
            .add_replica(backend)
            .build(),
    )
}

/// Interleaves a `[CHANNELS, frames]` signal into the frame-major order
/// the wire protocol streams.
fn interleave(signal: &Tensor) -> Vec<f32> {
    let frames = signal.dims()[1];
    let mut out = Vec::with_capacity(CHANNELS * frames);
    for t in 0..frames {
        for ch in 0..CHANNELS {
            out.push(signal.data()[ch * frames + t]);
        }
    }
    out
}

/// Offline reference for one tenant: window extraction + normalization +
/// one `predict_batch`, returning per-window `(argmax, confidence)`.
fn offline_predictions(
    backend: &dyn GestureClassifier,
    signal: &Tensor,
    slide: usize,
    norm: &Normalizer,
) -> Vec<(u64, f32)> {
    let mut buf = Vec::new();
    let n = extract_all_into(signal, slide, &mut buf);
    for w in buf.chunks_mut(CHANNELS * WINDOW) {
        norm.apply_window(w);
    }
    let logits = backend.predict_batch(&Tensor::from_vec(buf, &[n, CHANNELS, WINDOW]));
    logits
        .argmax_rows()
        .iter()
        .enumerate()
        .map(|(i, &p)| (p as u64, confidence(logits.row(i), p)))
        .collect()
}

/// Drives every tenant through one gateway concurrently, each on its own
/// thread and TCP connection, pushing 25 ms bursts — the cadence a
/// wearable's DMA buffer would fire at. Returns `(tenant, summary)` in
/// `sessions` order.
fn drive_tenants(
    addr: std::net::SocketAddr,
    sessions: &[(String, Vec<f32>, Tensor)],
) -> Vec<(String, ClientSummary)> {
    let burst = 50 * CHANNELS;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|(tenant, stream, _)| {
                scope.spawn(move || {
                    let mut client = GatewayClient::connect(addr, tenant).expect("gateway connect");
                    for part in stream.chunks(burst) {
                        client.send_samples(part).expect("gateway send");
                    }
                    (tenant.clone(), client.finish().expect("gateway finish"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    })
}

/// Streams every session through one gateway concurrently and verifies
/// each tenant's results bit-match the offline path for `backend`.
fn serve_and_verify(
    label: &str,
    engine: Arc<dyn Engine>,
    backend: Arc<dyn GestureClassifier>,
    cfg: &StreamConfig,
    sessions: &[(String, Vec<f32>, Tensor)],
    slide: usize,
    norm: &Normalizer,
) {
    let server = Arc::new(
        StreamServer::start(
            Arc::clone(&engine),
            StreamServerConfig::new(cfg.clone()).with_max_sessions(8),
        )
        .expect("stream server"),
    );
    let mut gw = TcpGateway::bind(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let addr = gw.local_addr();
    println!("[{label}] gateway listening on {addr}");

    let summaries = drive_tenants(addr, sessions);

    // Bit-equivalence, tenant by tenant: the offline reference on the very
    // backend instance the server engine wraps, plus an uninterrupted
    // in-process reference session for the event timeline.
    for ((tenant, stream, signal), (came_back, summary)) in sessions.iter().zip(&summaries) {
        assert_eq!(tenant, came_back);
        let offline = offline_predictions(backend.as_ref(), signal, slide, norm);
        assert_eq!(
            summary.predictions, offline,
            "[{label}] {tenant}: TCP-streamed predictions diverge from offline"
        );

        let reference = inline(Box::new(Arc::clone(&backend)));
        let mut rs = StreamSession::new(reference, cfg.clone()).expect("reference session");
        let mut ref_events = Vec::new();
        let burst = 50 * CHANNELS;
        for part in stream.chunks(burst) {
            ref_events.extend(rs.push_samples(part).expect("reference push"));
        }
        let ref_summary = rs.finish().expect("reference finish");
        ref_events.extend(ref_summary.events.iter().cloned());
        assert_eq!(
            &summary.events, &ref_events,
            "[{label}] {tenant}: event timeline diverges from the offline session"
        );
        println!(
            "[{label}] {tenant}: {} windows, {} events over TCP — bit-match offline ✓",
            summary.windows,
            summary.events.len()
        );
    }

    gw.shutdown();
    let stats = server.shutdown();
    assert!(
        stats.rollup_consistent(),
        "per-tenant stats must sum to totals"
    );
    println!(
        "[{label}] pool totals: {} sessions, {} chunks, {} windows, {} events across {} tenants\n",
        stats.totals.sessions,
        stats.totals.chunks,
        stats.totals.windows,
        stats.totals.events,
        stats.per_tenant.len(),
    );
}

/// Streams every session through a gateway backed by a mixed fp32 + int8
/// [`ShardedEngine`] pool and verifies per-window membership: each
/// streamed `(prediction, confidence)` pair must be exactly what one of
/// the two backends produces offline for that window.
fn serve_mixed_pool(
    pool: Arc<ShardedEngine>,
    fp32: &dyn GestureClassifier,
    int8: &dyn GestureClassifier,
    cfg: &StreamConfig,
    sessions: &[(String, Vec<f32>, Tensor)],
    slide: usize,
    norm: &Normalizer,
) {
    let label = "mixed-pool";
    let server = Arc::new(
        StreamServer::start(
            Arc::clone(&pool) as Arc<dyn Engine>,
            StreamServerConfig::new(cfg.clone()).with_max_sessions(8),
        )
        .expect("stream server"),
    );
    let mut gw = TcpGateway::bind(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let addr = gw.local_addr();
    println!("[{label}] gateway listening on {addr}");

    let summaries = drive_tenants(addr, sessions);

    for ((tenant, _, signal), (came_back, summary)) in sessions.iter().zip(&summaries) {
        assert_eq!(tenant, came_back);
        let off_fp32 = offline_predictions(fp32, signal, slide, norm);
        let off_int8 = offline_predictions(int8, signal, slide, norm);
        assert_eq!(
            summary.windows as usize,
            off_fp32.len(),
            "[{label}] {tenant}: streamed window count diverges from offline extraction"
        );
        // Routing decides per window which replica answers, so the exact
        // sequence is nondeterministic — but every answer must be the
        // bit-exact output of *some* replica, never a blend or a stale
        // value. The (prediction, confidence) pair is checked together so
        // a prediction from one backend can't borrow the other's
        // confidence.
        for (i, &pair) in summary.predictions.iter().enumerate() {
            assert!(
                pair == off_fp32[i] || pair == off_int8[i],
                "[{label}] {tenant}: window {i} returned {pair:?}, matching neither \
                 fp32 {:?} nor int8 {:?}",
                off_fp32[i],
                off_int8[i],
            );
        }
        println!(
            "[{label}] {tenant}: {} windows, {} events — every window matches fp32 or int8 ✓",
            summary.windows,
            summary.events.len()
        );
        // Per-session decision-latency percentiles travel back over the
        // wire in the finish handshake's Stats frame.
        println!("[{label}] {tenant}: stages: {}", summary.stages);
    }

    gw.shutdown();
    let stats = server.shutdown();
    assert!(
        stats.rollup_consistent(),
        "per-tenant stats must sum to totals"
    );

    // The pool's own view: traffic split, hedging counters, rollup.
    let ps = pool.stats();
    assert!(ps.rollup_consistent(), "pool totals must sum over replicas");
    for r in &ps.per_replica {
        assert!(
            r.requests > 0,
            "replica {} ({}) served no traffic — routing never reached it",
            r.replica,
            r.backend
        );
        println!(
            "[{label}] replica {} [{}] weight {:.0}: {} requests, {} windows",
            r.replica, r.backend, r.weight, r.requests, r.windows
        );
    }
    println!(
        "[{label}] hedges fired: {}, won: {}",
        ps.hedges_fired, ps.hedges_won
    );

    // Server-side stage rollup, held against a 100 ms UX budget (the
    // docs/serving.md "Latency budget" table).
    let report = LatencyBudget::new(Duration::from_millis(100)).evaluate(&stats.stages);
    println!("[{label}] pool stages: {}", stats.stages);
    println!("[{label}] budget: {report}\n");
}

fn main() {
    // 1. Data + a quickly-trained Bioformer, quantized to int8.
    println!("generating tiny synthetic DB6 + training a small Bioformer...");
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed: 1,
        ..BioformerConfig::bio1()
    });
    let outcome = run_standard(&mut model, &db, 0, &ProtocolConfig::quick());
    println!(
        "fp32 test accuracy after quick training: {:.1}%\n",
        outcome.overall * 100.0
    );

    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let train_data = norm.apply(&train);
    let calib_n = train_data.x().dims()[0].min(64);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut model);
    let qmodel =
        Arc::new(QuantBioformer::convert(model.config(), &dict, &calib).expect("quantization"));
    let fmodel = Arc::new(model);

    // 2. Four session recordings from subject 0 — four tenants streaming
    //    concurrently into one shared engine.
    let slide = db.spec().slide;
    let sessions: Vec<(String, Vec<f32>, Tensor)> = (0..db.spec().sessions)
        .map(|s| {
            let (signal, _spans) = db.session_signal(0, s);
            (format!("subject0/session{s}"), interleave(&signal), signal)
        })
        .collect();
    println!(
        "streaming {} concurrent tenants, window {WINDOW}, slide {slide}\n",
        sessions.len()
    );

    let cfg = StreamConfig::db6()
        .with_slide(slide)
        .with_lookahead(4)
        .with_policy(DecisionPolicy {
            vote_depth: 5,
            min_hold: 3,
            confidence_floor: 0.30,
        })
        .with_normalizer(norm.clone());

    // 3. fp32 over a plain inline engine: the strongest guarantee —
    //    TCP-streamed results bit-match the offline path.
    serve_and_verify(
        "fp32",
        inline(Box::new(Arc::clone(&fmodel))),
        Arc::clone(&fmodel) as Arc<dyn GestureClassifier>,
        &cfg,
        &sessions,
        slide,
        &norm,
    );

    // 4. The default production deployment: one gateway over a mixed
    //    fp32 + int8 ShardedEngine pool. The int8 replica carries weight
    //    2 (it is the faster backend, so latency-aware routing should
    //    offer it the bulk of the traffic), and hedging duplicates any
    //    request the pool leaves waiting past the p95-derived delay.
    let pool = Arc::new(
        ShardedEngine::builder()
            .with_policy(RoutingPolicy::LatencyAware)
            .with_hedging(HedgeConfig::default())
            .add_replica(Box::new(Arc::clone(&fmodel) as Arc<dyn GestureClassifier>))
            .add_replica_weighted(
                Box::new(Arc::clone(&qmodel) as Arc<dyn GestureClassifier>),
                2.0,
            )
            .build(),
    );
    serve_mixed_pool(
        pool,
        fmodel.as_ref(),
        qmodel.as_ref(),
        &cfg,
        &sessions,
        slide,
        &norm,
    );

    println!("fp32 bit-exact + mixed fp32/int8 pool served 4 concurrent TCP tenants ✓");
}
