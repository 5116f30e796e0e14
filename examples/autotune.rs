//! Shape-specialized kernel autotuning demo: inventory the GEMM shapes a
//! bio1 Bioformer (fp32 and int8) actually issues, race the kernel/tile
//! candidates per shape, print the tuner's decision log, and serve a
//! tuned replica next to a default one in a [`ShardedEngine`] pool. The
//! winners table is persisted as tier-keyed JSON
//! (`target/bio1_tune_table.json` — CI uploads it as an artifact) and
//! reloaded to prove the round trip.
//!
//! `BIOFORMER_TUNE=off` short-circuits the tuner to an empty table
//! (default plans everywhere); the log then records why.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::{Engine, ShardedEngine};
use bioformers::tensor::backend::PackedCpuBackend;
use bioformers::tensor::tune::{tune, TuneTable};
use bioformers::tensor::Tensor;

fn windows(n: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[n, CHANNELS, WINDOW], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

fn main() {
    // 1. The shape inventory: every distinct GEMM a bio1 forward issues,
    //    in both precisions (untrained weights — tuning only cares about
    //    shapes, not values).
    let cfg = BioformerConfig::bio1();
    let mut model = Bioformer::new(&cfg);
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(&cfg, &dict, &windows(4, 11)).expect("quantization");

    let mut shapes = model.gemm_shapes();
    shapes.extend(qmodel.gemm_shapes());
    println!("bio1 issues {} GEMM shapes (fp32 + int8):", shapes.len());
    for s in &shapes {
        let kind = if s.int8 { "int8" } else { "fp32" };
        let m = if s.m == 0 {
            "*".to_string()
        } else {
            s.m.to_string()
        };
        println!("  {kind} {m}x{}x{}", s.k, s.n);
    }

    // 2. Race the candidates. Every decision is logged — including the
    //    shapes where the default plan kept its seat and why.
    println!("\ntuning (BIOFORMER_TUNE=off would skip this)...");
    let table = tune(&shapes);
    println!("-> {}", table.summary());
    for line in table.log() {
        println!("   {line}");
    }

    // 3. Persist + reload: serving restarts load the JSON instead of
    //    re-tuning; a table from a different CPU tier would be rejected.
    std::fs::create_dir_all("target").expect("create target/");
    let path = "target/bio1_tune_table.json";
    table.save(path).expect("write tuning table");
    let reloaded = TuneTable::load(path).expect("reload tuning table");
    assert_eq!(reloaded, table, "JSON round trip must be lossless");
    println!("\ntable saved to {path} and reloaded losslessly");

    // 4. A pool mixing a tuned replica with a default one — the tuned one
    //    driven by the reloaded table, as a restarted server would do it.
    //    (`add_tuned_replica` tunes in place instead.) The stats report
    //    each replica's compute state side by side.
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(Bioformer::new(&cfg)))
        .add_replica_with_compute(
            Box::new(Bioformer::new(&cfg)),
            std::sync::Arc::new(PackedCpuBackend::with_table(reloaded)),
        )
        .build();
    let out = pool.classify(windows(8, 3)).expect("pool classify");
    println!(
        "\nserved {} windows through the mixed pool",
        out.logits.dims()[0]
    );
    let stats = Engine::shutdown(Box::new(pool));
    for r in &stats.per_replica {
        println!("  replica {}: {}", r.backend, r.tuning);
    }
}
