//! Model-zoo invariants pinned by property tests.
//!
//! The properties the zoo's shadow/A-B router must never lose:
//!
//! 1. **Shadow routing is invisible to the incumbent.** A stream served
//!    through a [`ShadowEngine`] duplicating traffic toward any candidate
//!    emits a `GestureEvent` timeline (and per-window predictions and
//!    confidences) **bit-identical** to the same stream served by the bare
//!    incumbent — for arbitrary signals, chunkings, and candidates.
//! 2. **Agreement counters stay consistent under arbitrary traffic
//!    splits.** Whatever `Split(f)` fraction or shadow duplication runs,
//!    the experiment counters obey their rollup invariants (agreed ≤
//!    compared ≤ candidate windows, resolved + dropped ≤ candidate
//!    requests, arms sum to the request total).

use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, Engine, GestureClassifier, ModelZoo, PromotionPolicy,
    RouteMode, ShadowEngine, ShardedEngine, StreamConfig, StreamSession, StreamSummary,
};
use bioformers::tensor::Tensor;
use proptest::prelude::*;
use std::sync::Arc;

const MOCK_CHANNELS: usize = 2;
const MOCK_WINDOW: usize = 8;
/// Interleaved samples per extracted window (slide == window).
const CHUNK: usize = MOCK_CHANNELS * MOCK_WINDOW;

/// A fast deterministic classifier parameterized by `scale`, so two
/// instances with different scales disagree on real windows while staying
/// bit-reproducible run to run.
struct MockBackend {
    scale: f32,
}

impl GestureClassifier for MockBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        let len = MOCK_CHANNELS * MOCK_WINDOW;
        Tensor::from_fn(&[n, 4], |i| {
            let (row, class) = (i / 4, i % 4);
            let x = &windows.data()[row * len..(row + 1) * len];
            let mut score = 0.0f32;
            for (j, &v) in x.iter().enumerate() {
                score += v * self.scale * (((j * (class + 2)) % 11) as f32 / 11.0 - 0.5);
            }
            score
        })
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "mock"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((MOCK_CHANNELS, MOCK_WINDOW))
    }
}

/// An inline replica over the mock backend.
fn mock_engine(scale: f32) -> Arc<dyn Engine> {
    Arc::new(
        ShardedEngine::builder()
            .with_replica_config(AsyncEngineConfig::default().with_workers(0))
            .add_replica(Box::new(MockBackend { scale }))
            .build(),
    )
}

/// Deterministic pseudo-random interleaved stream of `windows` windows.
fn signal(windows: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..windows * CHUNK)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn stream_cfg() -> StreamConfig {
    StreamConfig::new(MOCK_CHANNELS, MOCK_WINDOW)
        .with_lookahead(0)
        .with_policy(DecisionPolicy {
            vote_depth: 3,
            min_hold: 1,
            confidence_floor: 0.0,
        })
}

/// Streams `stream` through one session over `engine` in `chunk`-sample
/// pushes, merging incremental and finish-time events into one timeline.
fn run_stream(engine: Arc<dyn Engine>, stream: &[f32], chunk: usize) -> StreamSummary {
    let mut session = StreamSession::new(engine, stream_cfg()).expect("stream config");
    let mut events = Vec::new();
    for part in stream.chunks(chunk.max(1)) {
        events.extend(session.push_samples(part).expect("stream push"));
    }
    let mut summary = session.finish().expect("stream finish");
    events.extend(std::mem::take(&mut summary.events));
    summary.events = events;
    summary
}

/// One deterministic window batch for direct engine submission.
fn window_batch(n: usize, seed: u64) -> Tensor {
    let raw = signal(n, seed);
    Tensor::from_vec(raw, &[n, MOCK_CHANNELS, MOCK_WINDOW])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: the incumbent's emitted timeline is bit-identical with
    /// shadowing on and off — shadow routing measures, never perturbs.
    #[test]
    fn shadow_routing_never_changes_incumbent_timeline(
        windows in 1usize..40,
        seed in 1u64..500,
        chunk in prop::sample::select(vec![1usize, 7, CHUNK, 3 * CHUNK + 5, usize::MAX / 2]),
        candidate_scale in prop::sample::select(vec![-3.0f32, 0.25, 1.0, 8.0]),
    ) {
        let stream = signal(windows, seed);

        // Off: the bare incumbent.
        let bare = run_stream(mock_engine(1.0), &stream, chunk);

        // On: the same incumbent weights behind a shadow duplicating every
        // request toward a (possibly disagreeing) candidate.
        let shadow = Arc::new(ShadowEngine::new(
            mock_engine(1.0),
            mock_engine(candidate_scale),
            RouteMode::Shadow,
            &PromotionPolicy::default(),
        ));
        let shadowed = run_stream(shadow.clone(), &stream, chunk);

        prop_assert_eq!(&shadowed.predictions, &bare.predictions);
        prop_assert_eq!(&shadowed.confidences, &bare.confidences);
        prop_assert_eq!(&shadowed.events, &bare.events);
        prop_assert_eq!(shadowed.windows, bare.windows);
    }

    /// Property 2: experiment counters stay rollup-consistent for any
    /// traffic split, and a `Split(f)` divides requests between the arms
    /// exactly (off-by-at-most-one from the ideal fraction).
    #[test]
    fn agreement_counters_consistent_under_arbitrary_splits(
        requests in 1usize..60,
        batch in 1usize..5,
        frac_step in 0u32..101,
        seed in 1u64..500,
        shadow_mode in prop::sample::select(vec![true, false]),
        arms_agree in prop::sample::select(vec![true, false]),
    ) {
        let fraction = frac_step as f32 / 100.0;
        let mode = if shadow_mode {
            RouteMode::Shadow
        } else {
            RouteMode::Split(fraction)
        };
        let candidate_scale = if arms_agree { 1.0 } else { -2.0 };

        let mut zoo = ModelZoo::new();
        zoo.register("inc", mock_engine(1.0)).unwrap();
        zoo.register("cand", mock_engine(candidate_scale)).unwrap();
        zoo.start_experiment("inc", "cand", mode, PromotionPolicy::default())
            .unwrap();

        let routed = zoo.resolve(Some("inc")).unwrap();
        for r in 0..requests {
            let out = routed
                .classify(window_batch(batch, seed + r as u64))
                .expect("classify through the experiment route");
            prop_assert_eq!(out.predictions.len(), batch);
        }

        let exp = zoo.experiment_stats().expect("experiment running");
        prop_assert!(exp.rollup_consistent(), "rollup violated: {exp:?}");

        let total = requests as u64;
        let total_windows = (requests * batch) as u64;
        match mode {
            RouteMode::Shadow => {
                // Every request rides the incumbent and is duplicated.
                prop_assert_eq!(exp.incumbent_requests, total);
                prop_assert_eq!(exp.candidate_requests, total);
                // The inline engines never refuse a duplicate, so after
                // the stats sync every comparison has resolved.
                prop_assert_eq!(exp.dropped, 0);
                prop_assert_eq!(exp.resolved, total);
                prop_assert_eq!(exp.compared_windows, total_windows);
                if arms_agree {
                    prop_assert_eq!(exp.agreed_windows, exp.compared_windows);
                    prop_assert!((exp.agreement_rate() - 1.0).abs() < 1e-12);
                    prop_assert!(exp.mean_confidence_delta().abs() < 1e-6);
                } else {
                    prop_assert!(exp.agreed_windows <= exp.compared_windows);
                }
            }
            RouteMode::Split(f) => {
                prop_assert_eq!(exp.incumbent_requests + exp.candidate_requests, total);
                // Deterministic floor-arithmetic split: the candidate arm
                // count is within one request of the ideal fraction.
                let ideal = f as f64 * requests as f64;
                let got = exp.candidate_requests as f64;
                prop_assert!(
                    (got - ideal).abs() <= 1.0,
                    "split {f}: candidate got {got} of {requests} (ideal {ideal})"
                );
                // Split never compares outputs — agreement counters idle.
                prop_assert_eq!(exp.compared_windows, 0);
                prop_assert_eq!(exp.agreed_windows, 0);
            }
        }
    }
}
