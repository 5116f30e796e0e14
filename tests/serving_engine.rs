//! The `Engine` trait over the three engine topologies — one inline
//! replica (`workers: 0`), one replica with a worker, and a two-replica
//! pool — driven through `&dyn Engine` by one shared test body, with
//! bit-identical logits, one shared error surface, one stats model and
//! draining shutdown.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::prelude::*;
use bioformers::tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

fn small_bioformer(seed: u64) -> Bioformer {
    Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed,
        ..BioformerConfig::bio1()
    })
}

/// Deterministic pseudo-random windows `[n, CHANNELS, WINDOW]`.
fn windows(n: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[n, CHANNELS, WINDOW], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// One shared model instance behind all three engine topologies, each
/// with its replica count.
fn engines(model: &Arc<Bioformer>) -> Vec<(&'static str, usize, Box<dyn Engine>)> {
    let single = |workers: usize| -> Box<dyn Engine> {
        Box::new(
            ShardedEngine::builder()
                .with_replica_config(
                    AsyncEngineConfig::default()
                        .with_workers(workers)
                        .with_micro_batch(4)
                        .with_linger(Duration::ZERO),
                )
                .add_replica(Box::new(Arc::clone(model)))
                .build(),
        )
    };
    vec![
        ("inline", 1, single(0)),
        ("one worker", 1, single(1)),
        (
            "two replicas",
            2,
            Box::new(
                ShardedEngine::builder()
                    .add_replica(Box::new(Arc::clone(model)))
                    .add_replica(Box::new(Arc::clone(model)))
                    .build(),
            ),
        ),
    ]
}

/// The acceptance-criterion test: one generic body exercises every engine
/// through `&dyn Engine` — same submissions, same expectations, logits
/// bit-matching the direct forward.
#[test]
fn all_three_engines_serve_identically_through_dyn_engine() {
    let model = Arc::new(small_bioformer(81));
    let w = windows(5, 7);
    let direct = model.predict_batch(&w);
    let engine_list = engines(&model);

    for (kind, replicas, engine) in &engine_list {
        let engine: &dyn Engine = engine.as_ref();
        assert_eq!(engine.kind(), "sharded", "{kind}");
        assert_eq!(engine.num_classes(), 8, "{kind}");
        assert_eq!(engine.input_shape(), Some((CHANNELS, WINDOW)), "{kind}");
        assert_eq!(
            engine.backends(),
            vec!["bioformer-fp32".to_string(); *replicas],
            "{kind}"
        );

        // classify: logits bit-match the direct forward.
        let out = engine.classify(w.clone()).unwrap();
        assert_eq!(out.logits.data(), direct.data(), "{kind}");
        assert_eq!(out.predictions, direct.argmax_rows());

        // submit → wait.
        let out = engine.submit(w.clone()).unwrap().wait().unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // try_submit (no load: must be accepted everywhere).
        let out = engine.try_submit(w.clone()).unwrap().wait().unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // A generous deadline is met by every topology.
        let out = engine
            .submit_with_deadline(w.clone(), Duration::from_secs(30))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // Zero-window requests are served, not rejected.
        let out = engine
            .classify(Tensor::zeros(&[0, CHANNELS, WINDOW]))
            .unwrap();
        assert_eq!(out.logits.dims(), &[0, 8]);
        assert!(out.predictions.is_empty());

        // One error surface: bad rank and bad shape are BadRequest for
        // every engine — no panicking entry points.
        for bad in [Tensor::zeros(&[2, 2]), Tensor::zeros(&[1, 3, 7])] {
            let err = engine.classify(bad).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{kind}: {err:?}");
        }
    }

    // One stats model + shutdown: every topology served the same traffic.
    for (kind, replicas, engine) in engine_list {
        // Worker replicas deliver responses from inside the batch, before
        // the worker flushes its counters — poll the live snapshot until
        // the accounting lands (bounded).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.engine_stats().requests < 5 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let live = engine.engine_stats();
        assert_eq!(live.per_replica.len(), replicas, "{kind}");
        assert_eq!(live.requests, 5, "{kind}: 5 well-formed requests");
        assert_eq!(live.windows, 20, "{kind}: 4 × 5 windows");
        assert!(live.rollup_consistent(), "{kind}: {live:?}");
        let final_stats = engine.shutdown();
        assert_eq!(final_stats.requests, 5, "{kind}");
        assert_eq!(final_stats.windows, 20, "{kind}");
        assert!(final_stats.latency.micro_batches > 0, "{kind}");
        assert!(final_stats.throughput() > 0.0, "{kind}");
    }
}

/// Engine-generic helper code (the pattern the streaming layer uses): a
/// plain function over `&dyn Engine` behaves identically regardless of the
/// topology behind it.
#[test]
fn generic_caller_is_topology_agnostic() {
    fn serve_all(engine: &dyn Engine, batches: &[Tensor]) -> Vec<usize> {
        let pending: Vec<_> = batches
            .iter()
            .map(|b| engine.submit(b.clone()).unwrap())
            .collect();
        pending
            .into_iter()
            .flat_map(|p| p.wait().unwrap().predictions)
            .collect()
    }

    let model = Arc::new(small_bioformer(82));
    let batches: Vec<Tensor> = (0..3).map(|i| windows(2, 100 + i)).collect();
    let mut all: Vec<Vec<usize>> = Vec::new();
    for (_, _, engine) in engines(&model) {
        all.push(serve_all(engine.as_ref(), &batches));
        let stats = engine.shutdown();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.windows, 6);
    }
    assert_eq!(all[0], all[1], "one worker differs from inline");
    assert_eq!(all[0], all[2], "two replicas differ from inline");
}
