//! Stream/offline equivalence for the `StreamSession` layer.
//!
//! The guarantee under test: feeding a signal through `StreamSession` —
//! in arbitrary chunk sizes, through any `Engine`, at fp32 or int8 —
//! yields **bit-identical** per-window predictions to the offline batch
//! path (`extract_all_into` → normalize → one `predict_batch`), and the
//! decision events are the deterministic image of those predictions.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::windowing::extract_all_into;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::stream::confidence;
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, DecisionSmoother, Engine, GestureClassifier, ShardedEngine,
    StreamConfig, StreamSession,
};
use bioformers::tensor::Tensor;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

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

/// One engine replica over `backend` configured by `cfg`.
fn replica(backend: Box<dyn GestureClassifier>, cfg: AsyncEngineConfig) -> ShardedEngine {
    ShardedEngine::builder()
        .with_replica_config(cfg)
        .add_replica(backend)
        .build()
}

/// An inline replica: every window is classified on the pushing thread.
fn inline(backend: Box<dyn GestureClassifier>) -> ShardedEngine {
    replica(backend, AsyncEngineConfig::default().with_workers(0))
}

/// The fp32 model and its int8 conversion, as shareable backends.
fn backends(seed: u64) -> (Arc<Bioformer>, Arc<QuantBioformer>) {
    let cfg = tiny_config(seed);
    let mut model = Bioformer::new(&cfg);
    let calib = signal_tensor(4 * WINDOW, 5);
    let calib = {
        // Reuse the signal generator as calibration windows.
        let mut buf = Vec::new();
        let n = extract_all_into(&calib, WINDOW, &mut buf);
        Tensor::from_vec(buf, &[n, CHANNELS, WINDOW])
    };
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion");
    (Arc::new(model), Arc::new(qmodel))
}

/// Deterministic pseudo-random `[CHANNELS, len]` recording.
fn signal_tensor(len: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[CHANNELS, len], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// Interleaves a channel-major recording into the frame stream an ADC
/// delivers (`[c0 c1 … c13]` per time step).
fn interleave(signal: &Tensor) -> Vec<f32> {
    let (c, len) = (signal.dims()[0], signal.dims()[1]);
    let mut out = Vec::with_capacity(c * len);
    for t in 0..len {
        for ch in 0..c {
            out.push(signal.data()[ch * len + t]);
        }
    }
    out
}

/// A normalizer with non-trivial per-channel statistics.
fn test_normalizer() -> Normalizer {
    let mean: Vec<f32> = (0..CHANNELS).map(|c| 0.01 * c as f32 - 0.05).collect();
    let std: Vec<f32> = (0..CHANNELS).map(|c| 0.8 + 0.05 * c as f32).collect();
    Normalizer::from_stats(mean, std)
}

/// The offline batch path: extract every window, normalize each with the
/// dataset-path arithmetic, run one `predict_batch`, take argmaxes and
/// top-class confidences.
fn offline_path(
    backend: &dyn GestureClassifier,
    signal: &Tensor,
    slide: usize,
    norm: &Normalizer,
) -> (Vec<usize>, Vec<f32>) {
    let mut buf = Vec::new();
    let n = extract_all_into(signal, slide, &mut buf);
    for w in buf.chunks_mut(CHANNELS * WINDOW) {
        norm.apply_window(w);
    }
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let x = Tensor::from_vec(buf, &[n, CHANNELS, WINDOW]);
    let logits = backend.predict_batch(&x);
    let preds = logits.argmax_rows();
    let confs = preds
        .iter()
        .enumerate()
        .map(|(i, &p)| confidence(logits.row(i), p))
        .collect();
    (preds, confs)
}

/// Streams `signal` through a session over `engine` in `chunk`-sample
/// pushes and returns the summary (predictions, confidences, events).
fn stream_path(
    engine: Arc<dyn Engine>,
    signal: &Tensor,
    slide: usize,
    chunk: usize,
    lookahead: usize,
    policy: DecisionPolicy,
) -> bioformers::serve::StreamSummary {
    let cfg = StreamConfig::db6()
        .with_slide(slide)
        .with_lookahead(lookahead)
        .with_policy(policy)
        .with_normalizer(test_normalizer());
    let mut session = StreamSession::new(engine, cfg).expect("valid stream config");
    let stream = interleave(signal);
    let mut events = Vec::new();
    for part in stream.chunks(chunk.max(1)) {
        events.extend(session.push_samples(part).expect("stream push"));
    }
    let mut summary = session.finish().expect("stream finish");
    // Merge incremental and finish-time events into one timeline.
    events.extend(std::mem::take(&mut summary.events));
    summary.events = events;
    summary
}

/// Replays recorded predictions through the same decision logic offline.
fn offline_events(
    preds: &[usize],
    confs: &[f32],
    policy: DecisionPolicy,
) -> Vec<bioformers::serve::GestureEvent> {
    let mut smoother = DecisionSmoother::new(policy).unwrap();
    let mut events = Vec::new();
    for (&p, &c) in preds.iter().zip(confs) {
        smoother.push(p, c, &mut events);
    }
    smoother.flush(&mut events);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The satellite property test: random signal, arbitrary chunk sizes
    /// (1 sample … the whole signal), random lookahead — streamed window
    /// predictions bit-match offline `extract_all_into` + `predict_batch`
    /// for both precisions, and the events match the offline smoothing of
    /// those predictions.
    #[test]
    fn streamed_predictions_bit_match_offline_for_any_chunking(
        extra in 0usize..600,
        chunk in prop::sample::select(vec![1usize, 13, CHANNELS, 97, 1400, usize::MAX / 2]),
        lookahead in 0usize..4,
        seed in 1u64..100,
    ) {
        let slide = 150;
        let signal = signal_tensor(WINDOW + extra, seed);
        let policy = DecisionPolicy { vote_depth: 3, min_hold: 1, confidence_floor: 0.0 };
        let (fp32, int8) = backends(31);
        let backends: [Arc<dyn GestureClassifier>; 2] = [fp32, int8];
        for backend in backends {
            let (preds, confs) = offline_path(backend.as_ref(), &signal, slide, &test_normalizer());
            let engine: Arc<dyn Engine> = Arc::new(inline(Box::new(Arc::clone(&backend))));
            let summary = stream_path(engine, &signal, slide, chunk, lookahead, policy.clone());
            prop_assert_eq!(&summary.predictions, &preds, "{} predictions", backend.name());
            prop_assert_eq!(&summary.confidences, &confs, "{} confidences", backend.name());
            prop_assert_eq!(
                summary.events,
                offline_events(&preds, &confs, policy.clone()),
                "{} events",
                backend.name()
            );
        }
    }
}

/// The acceptance-criterion test: a streamed Ninapro DB6 session —
/// continuous signal, odd chunk sizes that split frames across pushes —
/// bit-matches the offline windowed `predict_batch` path for the fp32 and
/// the int8 backend, through both an inline and a worker-pool replica.
#[test]
fn streamed_db6_session_bit_matches_offline_batch_path_fp32_and_int8() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let (full_signal, spans) = db.session_signal(0, 2);
    assert!(!spans.is_empty());
    // A session prefix keeps the test seconds-scale while still crossing
    // several repetition boundaries mid-stream.
    let len = (4 * db.spec().rep_samples()).min(full_signal.dims()[1]);
    let total = full_signal.dims()[1];
    let mut data = Vec::with_capacity(CHANNELS * len);
    for ch in 0..CHANNELS {
        data.extend_from_slice(&full_signal.data()[ch * total..ch * total + len]);
    }
    let signal = Tensor::from_vec(data, &[CHANNELS, len]);
    let slide = db.spec().slide;
    let policy = DecisionPolicy::default();

    let (fp32, int8) = backends(91);
    let backends: [Arc<dyn GestureClassifier>; 2] = [fp32, int8];
    for backend in backends {
        let name = backend.name().to_string();
        let (preds, confs) = offline_path(backend.as_ref(), &signal, slide, &test_normalizer());
        assert!(preds.len() > 20, "{name}: session prefix too short");
        let expected_events = offline_events(&preds, &confs, policy.clone());

        let verify = |summary: &bioformers::serve::StreamSummary,
                      stats: &bioformers::serve::EngineStats,
                      kind: &str| {
            assert_eq!(
                summary.predictions, preds,
                "{name}/{kind}: streamed predictions diverge from offline batch"
            );
            assert_eq!(
                summary.confidences, confs,
                "{name}/{kind}: streamed confidences diverge"
            );
            assert_eq!(
                summary.events, expected_events,
                "{name}/{kind}: streamed decisions diverge"
            );
            assert_eq!(stats.requests, preds.len(), "{name}/{kind}");
            assert_eq!(stats.windows, preds.len(), "{name}/{kind}");
        };

        // 997 samples per push: frames split across pushes, windows split
        // across chunks — the stream never sees clean edges.
        let inline = Arc::new(inline(Box::new(Arc::clone(&backend))));
        let summary = stream_path(
            Arc::clone(&inline) as Arc<dyn Engine>,
            &signal,
            slide,
            997,
            3,
            policy.clone(),
        );
        let inline = Arc::try_unwrap(inline).unwrap_or_else(|_| panic!("engine released"));
        verify(&summary, &Engine::shutdown(Box::new(inline)), "inline");

        let pipelined = Arc::new(replica(
            Box::new(Arc::clone(&backend)),
            AsyncEngineConfig::default()
                .with_workers(2)
                .with_micro_batch(8)
                .with_linger(Duration::from_micros(200)),
        ));
        let summary = stream_path(
            Arc::clone(&pipelined) as Arc<dyn Engine>,
            &signal,
            slide,
            997,
            3,
            policy.clone(),
        );
        let pipelined = Arc::try_unwrap(pipelined).unwrap_or_else(|_| panic!("engine released"));
        verify(
            &summary,
            &Engine::shutdown(Box::new(pipelined)),
            "worker pool",
        );
    }
}

/// A stream driven through a sharded pool of fp32 + int8 replicas of the
/// same weights still yields a coherent decision stream (in-order
/// absorption), and every window is served.
#[test]
fn stream_session_runs_over_a_sharded_pool() {
    let (fp32, _int8) = backends(71);
    // Two replicas of the same fp32 weights: routing is free to split the
    // stream, predictions must still bit-match the offline path.
    let pool = Arc::new(
        ShardedEngine::builder()
            .add_replica(Box::new(Arc::clone(&fp32)))
            .add_replica(Box::new(Arc::clone(&fp32)))
            .build(),
    );
    let signal = signal_tensor(WINDOW + 900, 17);
    let slide = 150;
    let policy = DecisionPolicy::default();
    let (preds, confs) = offline_path(fp32.as_ref(), &signal, slide, &test_normalizer());
    let summary = stream_path(
        Arc::clone(&pool) as Arc<dyn Engine>,
        &signal,
        slide,
        512,
        2,
        policy,
    );
    assert_eq!(summary.predictions, preds);
    assert_eq!(summary.confidences, confs);
    let pool = Arc::try_unwrap(pool).unwrap_or_else(|_| panic!("session released the pool"));
    let stats = pool.shutdown();
    assert_eq!(stats.requests, preds.len());
}

/// A backend that panics for its first batch, then serves class 7 for
/// every window.
struct FlakyBackend {
    failures_left: std::sync::atomic::AtomicUsize,
}

impl GestureClassifier for FlakyBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        use std::sync::atomic::Ordering;
        if self
            .failures_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("transient fault");
        }
        Tensor::from_fn(&[windows.dims()[0], 8], |i| (i % 8) as f32)
    }

    fn num_classes(&self) -> usize {
        8
    }

    fn name(&self) -> &str {
        "flaky"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((CHANNELS, WINDOW))
    }
}

/// A transient backend cancellation (worker caught a panic mid-batch) is
/// retried within the session's budget instead of killing a live stream —
/// the same resilience the batch `classify` path gets from re-routing.
#[test]
fn stream_retries_transiently_cancelled_windows() {
    let engine: Arc<dyn Engine> = Arc::new(replica(
        Box::new(FlakyBackend {
            failures_left: std::sync::atomic::AtomicUsize::new(1),
        }),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_linger(Duration::ZERO),
    ));
    let signal = signal_tensor(WINDOW + 450, 23);
    let cfg = StreamConfig::db6()
        .with_slide(150)
        .with_lookahead(2)
        .with_retries(2);
    let mut session = StreamSession::new(engine, cfg).unwrap();
    session
        .push_samples(&interleave(&signal))
        .expect("the cancelled window must be re-submitted, not surface as an error");
    let summary = session.finish().unwrap();
    // (WINDOW + 450 - WINDOW)/150 + 1 windows, every one predicted 7 and
    // in order despite the retry.
    assert_eq!(summary.predictions, vec![7; 4]);

    // With no retry budget the same fault kills the session.
    let engine: Arc<dyn Engine> = Arc::new(replica(
        Box::new(FlakyBackend {
            failures_left: std::sync::atomic::AtomicUsize::new(1),
        }),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_linger(Duration::ZERO),
    ));
    let cfg = StreamConfig::db6()
        .with_slide(150)
        .with_lookahead(0)
        .with_retries(0);
    let mut session = StreamSession::new(engine, cfg).unwrap();
    let err = session
        .push_samples(&interleave(&signal))
        .expect_err("retries = 0 must surface the cancellation");
    assert_eq!(err, bioformers::serve::ServeError::Cancelled);
}

/// Config validation: shape mismatches against the engine's declared
/// input shape and bad policies are rejected up front.
#[test]
fn stream_session_validates_config_against_engine() {
    let (fp32, _) = backends(61);
    let engine: Arc<dyn Engine> = Arc::new(inline(Box::new(Arc::clone(&fp32))));
    // Wrong channel count vs the engine's declared [14, 300].
    let bad_shape = StreamConfig::new(8, WINDOW);
    assert!(StreamSession::new(Arc::clone(&engine), bad_shape).is_err());
    // Zero slide.
    let bad_slide = StreamConfig::db6().with_slide(0);
    assert!(StreamSession::new(Arc::clone(&engine), bad_slide).is_err());
    // Normalizer channel mismatch.
    let bad_norm =
        StreamConfig::db6().with_normalizer(Normalizer::from_stats(vec![0.0; 4], vec![1.0; 4]));
    assert!(StreamSession::new(Arc::clone(&engine), bad_norm).is_err());
    // Bad policy.
    let bad_policy = StreamConfig::db6().with_policy(DecisionPolicy {
        vote_depth: 0,
        min_hold: 0,
        confidence_floor: 0.0,
    });
    assert!(StreamSession::new(Arc::clone(&engine), bad_policy).is_err());
    // A valid config still opens.
    assert!(StreamSession::new(engine, StreamConfig::db6()).is_ok());
}
