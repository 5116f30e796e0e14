//! Model-zoo demo: three model variants behind one [`StreamServer`],
//! per-session model selection, a live shadow experiment with a gated
//! promotion, and per-session user calibration.
//!
//! The walk-through:
//!
//! 1. Train a small Bioformer on tiny synthetic DB6, quantize it to int8,
//!    and quick-train a WaveFormer — three real variants with different
//!    accuracy/latency trade-offs.
//! 2. Register them in a [`ModelZoo`] and start a [`StreamServer`] over
//!    it: each tenant picks its variant by name at connect time
//!    ([`SessionOptions::with_model`]; wire clients put the same name in
//!    the protocol-v2 `Hello`).
//! 3. Run a **shadow experiment** (`bioformer-int8` shadowing the fp32
//!    incumbent): every incumbent request is duplicated to the candidate,
//!    agreement and confidence deltas are measured live, and the
//!    incumbent's outputs are untouched (`tests/serving_zoo.rs` pins that
//!    bit-exactly).
//! 4. Gate promotion on a [`PromotionPolicy`] and flip the zoo's default
//!    to the candidate once the evidence clears it.
//! 5. Open a **calibrated** session: a [`SessionCalibrator`] fits a
//!    per-channel affine transform from the session's opening windows,
//!    then freezes it for the rest of the stream.
//!
//! ```text
//! cargo run --release --example serve_zoo
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig, WaveFormer};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{CalibrationConfig, DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, Engine, GestureClassifier, ModelZoo, PromotionDecision,
    PromotionPolicy, RouteMode, SessionOptions, ShardedEngine, StreamConfig, StreamServer,
    StreamServerConfig, StreamSession,
};
use bioformers::tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

/// Interleaves a `[CHANNELS, frames]` signal into the frame-major order
/// streaming sessions consume.
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

/// A seconds-scale prefix of one DB6 session recording, interleaved.
fn session_prefix(db: &NinaproDb6, subject: usize, session: usize) -> Vec<f32> {
    let (signal, _) = db.session_signal(subject, session);
    let total = signal.dims()[1];
    let len = (4 * db.spec().rep_samples()).min(total);
    let mut data = Vec::with_capacity(CHANNELS * len);
    for ch in 0..CHANNELS {
        data.extend_from_slice(&signal.data()[ch * total..ch * total + len]);
    }
    interleave(&Tensor::from_vec(data, &[CHANNELS, len]))
}

/// An inline engine replica over `model`.
fn engine_over(model: Arc<dyn GestureClassifier>) -> Arc<dyn Engine> {
    Arc::new(
        ShardedEngine::builder()
            .with_replica_config(AsyncEngineConfig::default().with_workers(0))
            .add_replica(Box::new(model))
            .build(),
    )
}

fn main() {
    // 1. Three variants: fp32 Bioformer, its int8 quantization, WaveFormer.
    println!("generating tiny synthetic DB6 + training the zoo's variants...");
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut bioformer = Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed: 1,
        ..BioformerConfig::bio1()
    });
    let fp32_out = run_standard(&mut bioformer, &db, 0, &ProtocolConfig::quick());

    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let train_data = norm.apply(&train);
    let calib_n = train_data.x().dims()[0].min(64);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut bioformer);
    let int8 =
        Arc::new(QuantBioformer::convert(bioformer.config(), &dict, &calib).expect("quantization"));

    let mut waveformer = WaveFormer::new(7);
    let wave_out = run_standard(&mut waveformer, &db, 0, &ProtocolConfig::quick());
    let fp32 = Arc::new(bioformer);
    let waveformer = Arc::new(waveformer);
    println!(
        "variants trained: bioformer fp32 {:.1}%, waveformer {:.1}%\n",
        fp32_out.overall * 100.0,
        wave_out.overall * 100.0
    );

    // 2. The zoo: fp32 is the incumbent default; int8 and waveformer are
    //    selectable by name.
    let mut zoo = ModelZoo::new();
    zoo.register(
        "bioformer-fp32",
        engine_over(Arc::clone(&fp32) as Arc<dyn GestureClassifier>),
    )
    .unwrap();
    zoo.register(
        "bioformer-int8",
        engine_over(Arc::clone(&int8) as Arc<dyn GestureClassifier>),
    )
    .unwrap();
    zoo.register(
        "waveformer",
        engine_over(Arc::clone(&waveformer) as Arc<dyn GestureClassifier>),
    )
    .unwrap();

    // 3. Shadow experiment BEFORE sessions connect: sessions resolved onto
    //    the incumbent ride the shadow route from their first window.
    let policy = PromotionPolicy {
        min_windows: 25,
        min_agreement: 0.50,
        max_latency_ratio: 25.0,
        max_drop_rate: 0.25,
        candidate_timeout: Duration::from_secs(2),
    };
    zoo.start_experiment(
        "bioformer-fp32",
        "bioformer-int8",
        RouteMode::Shadow,
        policy,
    )
    .unwrap();
    let zoo = Arc::new(zoo);

    let stream_cfg = StreamConfig::db6()
        .with_slide(db.spec().slide)
        .with_lookahead(4)
        .with_policy(DecisionPolicy {
            vote_depth: 5,
            min_hold: 3,
            confidence_floor: 0.30,
        })
        .with_normalizer(norm.clone());
    let server = StreamServer::start_zoo(
        Arc::clone(&zoo),
        StreamServerConfig::new(stream_cfg.clone()).with_max_sessions(8),
    )
    .expect("stream server");
    println!("server over zoo: {:?}", server);

    // Three tenants, each on its own variant: the default (shadowed fp32),
    // an explicit int8 session, and an explicit waveformer session.
    let burst = 50 * CHANNELS;
    let tenants = [
        ("clinic/default", None),
        ("clinic/int8", Some("bioformer-int8")),
        ("lab/waveformer", Some("waveformer")),
    ];
    for (i, (tenant, model)) in tenants.iter().enumerate() {
        let opts = match model {
            Some(m) => SessionOptions::default().with_model(m),
            None => SessionOptions::default(),
        };
        let handle = server.connect_with(tenant, opts).expect("connect");
        let stream = session_prefix(&db, 0, i % db.spec().sessions);
        for part in stream.chunks(burst) {
            handle.send(part).expect("send");
        }
        let report = handle.finish().expect("finish");
        println!(
            "{tenant}: model {:?} → {} windows, {} events",
            model.unwrap_or("(default)"),
            report.stats.windows,
            report.summary.events.len()
        );
    }

    // An unknown model is a typed error, not a panic — the same contract
    // v2 wire clients get.
    let err = server
        .connect_with(
            "clinic/typo",
            SessionOptions::default().with_model("bioformer-v9"),
        )
        .expect_err("unknown model must be rejected");
    println!("unknown model rejected: {err}\n");

    // 4. The experiment's live evidence, then the gated promotion.
    let exp = zoo.experiment_stats().expect("experiment running");
    println!(
        "shadow experiment {} → {}: {} compared windows, agreement {:.1}%, \
         mean Δconfidence {:+.4}, drops {:.1}%",
        exp.incumbent,
        exp.candidate,
        exp.compared_windows,
        exp.agreement_rate() * 100.0,
        exp.mean_confidence_delta(),
        exp.drop_rate() * 100.0
    );
    println!(
        "  incumbent compute p99 {:?} vs candidate {:?}",
        exp.incumbent_stages.compute.p99, exp.candidate_stages.compute.p99
    );
    match zoo.promote_if_ready() {
        Some(PromotionDecision::Promote) => {
            println!(
                "promotion gate cleared → default is now {:?}",
                zoo.default_model()
            );
        }
        Some(PromotionDecision::Hold(reasons)) => {
            println!("promotion held: {reasons:?}");
        }
        None => println!("no experiment running"),
    }
    assert_eq!(zoo.default_model(), "bioformer-int8");

    let stats = server.shutdown();
    assert!(stats.rollup_consistent(), "zoo + tenant rollup must hold");
    for m in &stats.zoo.models {
        println!(
            "zoo model {:<16} default={} served {} windows",
            m.name, m.default, m.engine.windows
        );
    }

    // 5. Per-session calibration, in-process: the calibrator observes the
    //    session's opening windows (DB6 sessions open at rest), then
    //    freezes a per-channel affine transform for the rest of the
    //    stream. The checkpoint carries it across reconnects.
    let cal_cfg = stream_cfg.clone().with_calibration(CalibrationConfig {
        warmup_windows: 20,
        blend: 1.0,
    });
    let mut session = StreamSession::new(
        engine_over(Arc::clone(&int8) as Arc<dyn GestureClassifier>),
        cal_cfg,
    )
    .expect("calibrated session");
    let stream = session_prefix(&db, 0, db.spec().sessions - 1);
    for part in stream.chunks(burst) {
        session.push_samples(part).expect("calibrated push");
    }
    let cal = session.calibrator().expect("calibration enabled");
    println!(
        "\ncalibrated session: {} warm-up windows observed, frozen={}",
        cal.windows_seen(),
        cal.is_ready()
    );
    let adapted = cal.adapted().expect("frozen transform").mean()[0];
    println!(
        "per-channel affine fitted (ch0 mean {:.4} vs frozen baseline {:.4})",
        adapted,
        norm.mean()[0]
    );
    let summary = session.finish().expect("calibrated finish");
    println!(
        "calibrated stream: {} windows, {} events — see tests/serving_zoo.rs \
         for the adapted-vs-frozen DB6 accuracy benchmark",
        summary.windows,
        summary.events.len()
    );
    println!("\nmodel zoo: selection, shadow A/B, promotion, calibration ✓");
}
