//! Integration tests for the `ComputeBackend` seam and the shape
//! autotuner across the serving layer.
//!
//! The contract under test: swapping kernels can never change what a
//! model computes — fp32 logits stay within float-reassociation noise of
//! the default plan, int8 logits are **bit-identical** (integer addition
//! is associative, so tile order cannot matter) — and `BIOFORMER_TUNE=off`
//! deterministically forces default plans everywhere.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::{tuned_compute, AsyncEngineConfig, Engine, ShardedEngine};
use bioformers::tensor::backend::{ComputeBackend, PackedCpuBackend};
use bioformers::tensor::tune::{tune, TuneTable};
use bioformers::tensor::Tensor;
use std::sync::Mutex;

/// Serialises the tests in this binary: they read (and one writes) the
/// process-global `BIOFORMER_TUNE` variable, and concurrent wall-clock
/// tuning runs would distort each other's timings.
static ENV_LOCK: Mutex<()> = Mutex::new(());

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

#[test]
fn tune_off_forces_default_plans_and_is_deterministic() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("BIOFORMER_TUNE", "off");
    let model = small_bioformer(21);
    let (compute, table) = tuned_compute(&model);
    let again = tune(&model.gemm_shapes());
    std::env::remove_var("BIOFORMER_TUNE");

    assert_eq!(table.tuned_shapes(), 0, "off must keep every default plan");
    assert!(
        table.log().iter().any(|l| l.contains("disabled")),
        "the table must log why it is empty: {:?}",
        table.log()
    );
    assert_eq!(again, table, "disabled tuning is trivially deterministic");
    assert!(
        compute.describe().contains("0 tuned shapes"),
        "report must show the empty table: {}",
        compute.describe()
    );
}

#[test]
fn tuned_fp32_engine_matches_default_logits_within_tolerance() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inline = || {
        ShardedEngine::builder().with_replica_config(AsyncEngineConfig::default().with_workers(0))
    };
    let default_engine = inline().add_replica(Box::new(small_bioformer(33))).build();
    let tuned_engine = inline()
        .add_tuned_replica(Box::new(small_bioformer(33)))
        .build();
    let w = windows(4, 9);
    let base = default_engine.classify(w.clone()).expect("default serve");
    let tuned = tuned_engine.classify(w).expect("tuned serve");

    assert_eq!(base.logits.dims(), tuned.logits.dims());
    for (i, (a, b)) in base
        .logits
        .data()
        .iter()
        .zip(tuned.logits.data())
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-4,
            "logit {i} drifted past 1e-4 under the tuned plan: {a} vs {b}"
        );
    }
    assert_eq!(base.predictions, tuned.predictions);

    // The tuning state is visible in the replica's stats row.
    assert_eq!(
        default_engine.stats().per_replica[0].tuning,
        "packed-cpu[default]"
    );
    let tuned_report = &tuned_engine.stats().per_replica[0].tuning;
    assert!(
        tuned_report.starts_with("packed-cpu[tier="),
        "tuned report must carry the table summary: {tuned_report}"
    );
}

#[test]
fn tuned_int8_logits_are_bit_identical() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = BioformerConfig::bio1();
    let mut float = Bioformer::new(&cfg);
    let dict = state_dict(&mut float);
    let calib = windows(4, 11);
    let base = QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion");

    let mut tuned = base.clone();
    let (compute, _table) = tuned_compute(&tuned);
    tuned.set_backend(compute);

    let w = windows(3, 17);
    let a = base.forward_batch(&w);
    let b = tuned.forward_batch(&w);
    assert_eq!(a.dims(), b.dims());
    assert_eq!(
        a.data(),
        b.data(),
        "int8 logits must be bit-identical under any kernel plan"
    );
}

#[test]
fn sharded_pool_mixes_tuned_and_default_replicas() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(small_bioformer(44)))
        .add_tuned_replica(Box::new(small_bioformer(44)))
        .build();
    let out = pool.classify(windows(2, 3)).expect("pool classify");
    assert_eq!(out.logits.dims()[0], 2);

    let stats = Engine::engine_stats(&pool);
    assert_eq!(stats.per_replica.len(), 2, "one tuning report per replica");
    assert_eq!(stats.per_replica[0].tuning, "packed-cpu[default]");
    assert!(
        stats.per_replica[1].tuning.starts_with("packed-cpu[tier="),
        "tuned replica must report its table: {}",
        stats.per_replica[1].tuning
    );
    let last = Engine::shutdown(Box::new(pool));
    assert_eq!(last.per_replica.len(), 2);
}

#[test]
fn tune_table_persists_and_drives_an_identical_backend() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = small_bioformer(55);
    let (_compute, table) = tuned_compute(&model);

    let path =
        std::env::temp_dir().join(format!("bioformer_tune_test_{}.json", std::process::id()));
    table.save(&path).expect("save tuning table");
    let loaded = TuneTable::load(&path).expect("reload tuning table");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, table, "JSON round-trip must preserve the table");

    // A backend rebuilt from the reloaded table answers every model shape
    // with the same plan the freshly tuned backend chose.
    let fresh = PackedCpuBackend::with_table(table);
    let reloaded = PackedCpuBackend::with_table(loaded);
    for shape in model.gemm_shapes() {
        assert_eq!(
            fresh.plan_fp32(shape.m, shape.k, shape.n),
            reloaded.plan_fp32(shape.m, shape.k, shape.n),
            "plan mismatch at {shape:?}"
        );
    }
}
