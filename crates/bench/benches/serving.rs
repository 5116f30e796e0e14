//! Single-replica vs sharded serving under concurrent client load.
//!
//! Each benchmark measures the wall-clock time for 1 / 4 / 16 closed-loop
//! clients to stream single-window requests through an engine:
//!
//! * `single-*` — a [`ShardedEngine`] with one worker-pool replica;
//! * `sharded-*` — a [`ShardedEngine`] pool with latency-aware routing
//!   and adaptive linger over heterogeneous replicas.
//!
//! Two regimes are covered, mirroring the paper's deployment story:
//!
//! * `cpu` — real inference on this host: a small fp32 Bioformer replica
//!   vs an fp32+int8 pool (the int8 replica is the same network
//!   quantized). Sharding pays off with spare cores to put replicas on;
//!   on a single-core host the replicas' worker threads contend for the
//!   one core and the pool trails the single replica — measuring that
//!   honestly is the point of this regime.
//! * `edge` — simulated GAP8-class offload replicas, where the host CPU is
//!   idle during offload and sharding shines even single-core: every
//!   backend invocation pays a fixed overhead (cluster wake-up, DMA/SPI
//!   round-trips) plus a per-window latency from the `bioformer-gap8`
//!   analytical model. `sharded-2x` doubles the offload lanes (the
//!   scaling story, ~1.7× at 16 clients); `sharded-het` adds a 2× slower
//!   Pareto sibling instead (latency-aware routing must exploit it at
//!   moderate load without letting it drag the pool at saturation).
//!
//! ```text
//! cargo bench -p bioformer-bench --bench serving                      # full
//! cargo bench -p bioformer-bench --bench serving -- --smoke           # CI sanity
//! cargo bench -p bioformer-bench --bench serving -- --save-baseline b # record
//! cargo bench -p bioformer-bench --bench serving -- --baseline b --fail-threshold 25
//! ```

use bioformer_core::descriptor::bioformer_descriptor;
use bioformer_core::{Bioformer, BioformerConfig};
use bioformer_gap8::deploy::analyze_default;
use bioformer_nn::serialize::state_dict;
use bioformer_quant::QuantBioformer;
use bioformers::serve::{AsyncEngineConfig, GestureClassifier, RoutingPolicy, ShardedEngine};
use bioformers::tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

/// Fixed cost per backend invocation in the simulated edge deployment:
/// waking the GAP8 cluster, DMAing activations in and logits out over SPI,
/// and re-arming the fabric controller.
const EDGE_INVOCATION_OVERHEAD: Duration = Duration::from_millis(2);

/// Requests each simulated client sends (closed loop: submit, wait, repeat).
const REQUESTS_PER_CLIENT: usize = 6;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

fn window(seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[1, 14, 300], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// A backend that models a GAP8-class accelerator behind a host interface:
/// sleeps for the invocation overhead plus a per-window latency, then
/// returns deterministic logits. Sleeping (not spinning) mirrors a host
/// blocked on an offload completion interrupt.
struct EdgeSim {
    per_window: Duration,
}

impl GestureClassifier for EdgeSim {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        std::thread::sleep(EDGE_INVOCATION_OVERHEAD + self.per_window * n as u32);
        Tensor::from_fn(&[n, 8], |i| (i % 8) as f32)
    }

    fn num_classes(&self) -> usize {
        8
    }

    fn name(&self) -> &str {
        "gap8-edge"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((14, 300))
    }
}

/// Small-but-real Bioformer config: big enough to cost real compute per
/// window, small enough for a benchmark iteration to stay sub-second.
fn small_config() -> BioformerConfig {
    BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed: 9,
        ..BioformerConfig::bio1()
    }
}

/// Closed-loop client load against any engine submit/wait closure.
fn drive_clients(clients: usize, classify: impl Fn(Tensor) + Sync) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            let classify = &classify;
            scope.spawn(move || {
                let w = window(c as u64 + 1);
                for _ in 0..REQUESTS_PER_CLIENT {
                    classify(w.clone());
                }
            });
        }
    });
}

fn replica_config() -> AsyncEngineConfig {
    AsyncEngineConfig::default()
        .with_workers(1)
        .with_micro_batch(16)
        .with_adaptive_linger(Duration::from_millis(2))
}

/// One replica over `backend`, configured by [`replica_config`].
fn single(backend: Box<dyn GestureClassifier>) -> ShardedEngine {
    ShardedEngine::builder()
        .with_replica_config(replica_config())
        .add_replica(backend)
        .build()
}

fn bench_cpu(c: &mut Criterion) {
    // One shared fp32 model + its int8 conversion back every engine in
    // this group (replicas add queues and workers, not weights).
    let cfg = small_config();
    let mut model = Bioformer::new(&cfg);
    let calib = Tensor::from_fn(&[8, cfg.channels, cfg.window], |i| {
        ((i % 13) as f32 - 6.0) / 6.0
    });
    let dict = state_dict(&mut model);
    let qmodel = Arc::new(QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion"));
    let model = Arc::new(model);

    let mut g = c.benchmark_group("serving-cpu");
    for clients in CLIENT_COUNTS {
        g.bench_function(&format!("single-fp32/{clients}clients"), |b| {
            b.iter(|| {
                let engine = single(Box::new(Arc::clone(&model)));
                drive_clients(clients, |w| {
                    engine.classify(w).expect("serve");
                });
            })
        });
        g.bench_function(&format!("sharded-fp32+int8/{clients}clients"), |b| {
            b.iter(|| {
                let pool = ShardedEngine::builder()
                    .with_policy(RoutingPolicy::LatencyAware)
                    .with_replica_config(replica_config())
                    .add_replica(Box::new(Arc::clone(&model)))
                    .add_replica(Box::new(Arc::clone(&qmodel)))
                    .build();
                drive_clients(clients, |w| {
                    pool.classify(w).expect("serve");
                });
            })
        });
    }
    g.finish();
}

fn bench_edge(c: &mut Criterion) {
    // Per-window latency from the analytical GAP8 model for the real bio1
    // network; the "slow" replica models a 2× heavier deployment sharing
    // the pool (the Pareto sibling).
    let per_window_ms = analyze_default(&bioformer_descriptor(&BioformerConfig::bio1())).latency_ms;
    let fast = Duration::from_secs_f64(per_window_ms / 1e3);
    let slow = fast * 2;

    let mut g = c.benchmark_group("serving-edge");
    for clients in CLIENT_COUNTS {
        g.bench_function(&format!("single-edge/{clients}clients"), |b| {
            b.iter(|| {
                let engine = single(Box::new(EdgeSim { per_window: fast }));
                drive_clients(clients, |w| {
                    engine.classify(w).expect("serve");
                });
            })
        });
        // Two equal offload lanes: the pure scaling story.
        g.bench_function(&format!("sharded-2x-edge/{clients}clients"), |b| {
            b.iter(|| {
                let pool = ShardedEngine::builder()
                    .with_policy(RoutingPolicy::LatencyAware)
                    .with_replica_config(replica_config())
                    .add_replica(Box::new(EdgeSim { per_window: fast }))
                    .add_replica(Box::new(EdgeSim { per_window: fast }))
                    .build();
                drive_clients(clients, |w| {
                    pool.classify(w).expect("serve");
                });
            })
        });
        // Fast lane + a 2× slower Pareto sibling: latency-aware routing
        // must exploit the extra capacity without letting the slow lane
        // drag the pool below the single fast lane.
        g.bench_function(&format!("sharded-het-edge/{clients}clients"), |b| {
            b.iter(|| {
                let pool = ShardedEngine::builder()
                    .with_policy(RoutingPolicy::LatencyAware)
                    .with_replica_config(replica_config())
                    .add_replica(Box::new(EdgeSim { per_window: fast }))
                    .add_replica(Box::new(EdgeSim { per_window: slow }))
                    .build();
                drive_clients(clients, |w| {
                    pool.classify(w).expect("serve");
                });
            })
        });
    }
    g.finish();
}

criterion_group!(serving, bench_cpu, bench_edge);
criterion_main!(serving);
