//! Concurrent serving demo: one trained Bioformer (fp32 and int8) behind
//! a [`ShardedEngine`], under concurrent clients.
//!
//! 1. **One replica with a worker pool** per precision — cross-request
//!    micro-batching, then per-request deadlines, bounded-queue
//!    backpressure and a graceful, draining shutdown.
//! 2. **A heterogeneous fp32 + int8 pool** — latency-aware routing,
//!    per-replica adaptive linger and one stats row per replica.
//! 3. **Quarantine** of a failing replica with transparent re-routing.
//!
//! ```text
//! cargo run --release --example serve_sharded
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{
    AsyncEngineConfig, EngineStats, GestureClassifier, RoutingPolicy, ServeError, ShardedEngine,
};
use bioformers::tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;

mod common;
use common::drive_clients;

fn print_pool(stats: &EngineStats) {
    println!(
        "pool totals: {} requests, {} batches ({:.1} req/batch), {} failed, {} expired",
        stats.requests,
        stats.batches,
        stats.requests_per_batch(),
        stats.failed,
        stats.expired,
    );
    println!(
        "{:<16} {:>6} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "replica", "reqs", "batches", "share", "ewma/batch", "ewma/window", "quarantined"
    );
    for r in &stats.per_replica {
        println!(
            "{:<16} {:>6} {:>8} {:>9.1}% {:>12} {:>12} {:>12}",
            r.backend,
            r.requests,
            r.batches,
            r.requests as f64 / stats.requests.max(1) as f64 * 100.0,
            r.ewma_batch_latency
                .map_or("-".to_string(), |d| format!("{d:.2?}")),
            r.ewma_window_latency
                .map_or("-".to_string(), |d| format!("{d:.2?}")),
            r.quarantined,
        );
    }
}

fn main() {
    // 1. Data + a quickly-trained Bioformer, quantized to int8 — the two
    //    precisions served below.
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
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("quantization");

    let test = norm.apply(&db.test_dataset(0));
    let windows = test.x().clone();
    let labels = test.labels().to_vec();
    let n = windows.dims()[0];
    let accuracy = |preds: &[usize]| {
        preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f32 / n as f32 * 100.0
    };
    let model = Arc::new(model);
    let qmodel = Arc::new(qmodel);

    // 2. One replica per precision, each with a two-worker pool that
    //    coalesces the concurrent clients' requests into shared batches.
    println!("{CLIENTS} concurrent clients streaming {n} windows of [{CHANNELS} x {WINDOW}]\n");
    let cfg = AsyncEngineConfig::default()
        .with_workers(2)
        .with_micro_batch(16)
        .with_linger(Duration::from_millis(1));
    let backends: [Box<dyn GestureClassifier>; 2] =
        [Box::new(Arc::clone(&model)), Box::new(Arc::clone(&qmodel))];
    println!(
        "{:<16} {:>7} {:>9} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "backend", "batches", "req/batch", "p50", "p95", "expired", "win/s", "accuracy"
    );
    let mut predictions: Vec<Vec<usize>> = Vec::new();
    for backend in backends {
        let name = backend.name().to_string();
        let engine = ShardedEngine::builder()
            .with_replica_config(cfg.clone())
            .add_replica(backend)
            .build();
        let preds = drive_clients(&engine, &windows, CLIENTS);
        let stats = engine.shutdown();
        println!(
            "{:<16} {:>7} {:>9.1} {:>9.2?} {:>9.2?} {:>10} {:>12.0} {:>8.1}%",
            name,
            stats.batches,
            stats.requests_per_batch(),
            stats.latency.p50,
            stats.latency.p95,
            stats.expired,
            stats.throughput(),
            accuracy(&preds),
        );
        predictions.push(preds);
    }
    let agree = predictions[0]
        .iter()
        .zip(predictions[1].iter())
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "\nfp32/int8 prediction agreement under concurrent serving: {}/{} ({:.1}%)",
        agree,
        n,
        agree as f32 / n as f32 * 100.0
    );

    // Deadlines and backpressure on a deliberately tiny replica.
    println!("\n-- deadline & backpressure demo (capacity-2 queue, 1 worker) --");
    let tiny = ShardedEngine::builder()
        .with_replica_config(
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(2)
                .with_linger(Duration::ZERO),
        )
        .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
        .build();
    let mut accepted = 0usize;
    let mut shed = 0usize;
    let mut pending = Vec::new();
    for _ in 0..32 {
        match tiny.try_submit(Tensor::zeros(&[1, CHANNELS, WINDOW])) {
            Ok(p) => {
                accepted += 1;
                pending.push(p);
            }
            Err(ServeError::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let expired = tiny
        .submit_with_deadline(
            Tensor::zeros(&[1, CHANNELS, WINDOW]),
            Duration::from_nanos(1),
        )
        .and_then(|p| p.wait());
    println!(
        "burst of 32 fire-and-forget submits: {accepted} accepted, {shed} shed (QueueFull); \
         1 ns deadline -> {:?}",
        expired.expect_err("deadline must expire")
    );
    for p in pending {
        let _ = p.wait();
    }
    let stats = tiny.shutdown();
    println!(
        "graceful shutdown drained the queue: {} requests served, {} expired\n",
        stats.requests, stats.expired
    );

    // 3. A heterogeneous pool: one fp32 replica, one int8 replica, with
    //    latency-aware routing and adaptive linger (the builder default).
    //    The int8 replica serves the same gestures faster — the router
    //    discovers that from observed batch latencies, nobody configures
    //    a speed ranking by hand.
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::LatencyAware)
        .add_replica(Box::new(model))
        .add_replica(Box::new(qmodel))
        .build();
    println!(
        "{CLIENTS} concurrent clients streaming {n} windows through a {}-replica pool\n",
        pool.num_replicas()
    );
    let preds = drive_clients(&pool, &windows, CLIENTS);
    let stats = pool.shutdown();
    print_pool(&stats);
    println!(
        "\npool accuracy under mixed-precision serving: {:.1}%",
        accuracy(&preds)
    );

    // 4. Quarantine demo: a replica whose backend panics on every batch is
    //    quarantined after `quarantine_after` consecutive failures; its
    //    traffic is re-routed to the healthy replica, so every request
    //    still succeeds.
    println!("\n-- quarantine & re-route demo (1 healthy + 1 exploding replica) --");
    struct Exploding;
    impl GestureClassifier for Exploding {
        fn predict_batch(&self, _windows: &Tensor) -> Tensor {
            panic!("simulated replica crash");
        }
        fn num_classes(&self) -> usize {
            8
        }
        fn name(&self) -> &str {
            "exploding"
        }
    }
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::RoundRobin)
        .with_quarantine_after(1)
        .add_replica(Box::new(Exploding))
        .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
        .build();
    // The crash is the demo; keep its backtrace out of the report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut served = 0usize;
    for _ in 0..12 {
        if pool.classify(Tensor::zeros(&[1, CHANNELS, WINDOW])).is_ok() {
            served += 1;
        }
    }
    std::panic::set_hook(default_hook);
    let stats = pool.shutdown();
    print_pool(&stats);
    println!(
        "\n{served}/12 requests served despite the crash-looping replica \
         (its {} failures triggered quarantine + re-routing)",
        stats.failed
    );
}
