//! Batched serving demo: one trained Bioformer answering through an
//! inline engine replica (`workers: 0`, served on the caller's thread) as
//! fp32 and as the fully-integer int8 pipeline, plus the TEMPONet baseline
//! — all driven through the [`Engine`] trait, with per-backend latency
//! statistics.
//!
//! ```text
//! cargo run --release --example serve_batch
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig, TempoNet};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{AsyncEngineConfig, Engine, GestureClassifier, ShardedEngine};
use bioformers::tensor::Tensor;

fn main() {
    // 1. Data + a quickly-trained Bioformer (tiny synthetic DB6).
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
        "fp32 test accuracy after quick training: {:.1}%",
        outcome.overall * 100.0
    );

    // 2. Quantize the same weights into the integer-only pipeline.
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

    // 3. A large request batch: every test window of the subject.
    let test = norm.apply(&db.test_dataset(0));
    let windows = test.x().clone();
    let n = windows.dims()[0];
    println!("request batch: {n} windows of [{CHANNELS} x {WINDOW}]\n");

    // 4. Serve through the `Engine` trait, one inline replica per backend:
    //    the same generic calls would drive worker-pool replicas or a
    //    multi-replica pool.
    let inline = |backend: Box<dyn GestureClassifier>| -> Box<dyn Engine> {
        Box::new(
            ShardedEngine::builder()
                .with_replica_config(
                    AsyncEngineConfig::default()
                        .with_workers(0)
                        .with_micro_batch(16),
                )
                .add_replica(backend)
                .build(),
        )
    };
    let engines = [
        inline(Box::new(model)),
        inline(Box::new(qmodel)),
        inline(Box::new(TempoNet::new(0))),
    ];

    println!(
        "{:<16} {:>8} {:>7} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "backend", "windows", "micro", "mean", "p50", "p95", "win/s", "accuracy"
    );
    let mut predictions = Vec::new();
    for engine in &engines {
        let out = engine.classify(windows.clone()).expect("serve");
        let correct = out
            .predictions
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count();
        let stats = engine.engine_stats();
        let backend = engine.backends().join("+");
        println!(
            "{:<16} {:>8} {:>7} {:>9.2?} {:>9.2?} {:>9.2?} {:>12.0} {:>8.1}%",
            backend,
            stats.windows,
            stats.latency.micro_batches,
            stats.latency.mean,
            stats.latency.p50,
            stats.latency.p95,
            stats.throughput(),
            correct as f32 / n as f32 * 100.0,
        );
        predictions.push((backend, out.predictions));
    }

    // 5. fp32 vs int8: same weights, two precisions, one trait.
    let agree = predictions[0]
        .1
        .iter()
        .zip(predictions[1].1.iter())
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "\nfp32/int8 prediction agreement: {}/{} ({:.1}%)",
        agree,
        n,
        agree as f32 / n as f32 * 100.0
    );
}
