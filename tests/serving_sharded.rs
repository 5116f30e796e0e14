//! End-to-end tests of the sharded multi-replica serving engine: a
//! heterogeneous fp32+int8 pool under concurrent clients with per-replica
//! stats rolling up to pool totals, latency-aware routing steering traffic
//! away from a slow replica, quarantine of a panicking replica with
//! transparent re-routing, and draining shutdown across the pool.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::{
    AsyncEngineConfig, GestureClassifier, HedgeConfig, RoutingPolicy, ServeError, ShardedEngine,
};
use bioformers::tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn one_window(seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[1, CHANNELS, WINDOW], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// The heterogeneous deployment the paper's Pareto front describes: one
/// fp32 Bioformer replica plus the same network quantized to int8, behind
/// one sharded pool. Concurrent clients are all served, and every pool
/// total equals the sum of its per-replica counters.
#[test]
fn heterogeneous_fp32_int8_pool_serves_with_stats_summing_to_totals() {
    let mut model = small_bioformer(51);
    let calib = Tensor::from_fn(&[8, CHANNELS, WINDOW], |i| ((i % 17) as f32 - 8.0) / 8.0);
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("int8 conversion");

    let pool = Arc::new(
        ShardedEngine::builder()
            .with_policy(RoutingPolicy::RoundRobin)
            .add_replica(Box::new(model))
            .add_replica(Box::new(qmodel))
            .build(),
    );
    assert_eq!(pool.num_replicas(), 2);
    assert_eq!(pool.num_classes(), 8);

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                for r in 0..PER_CLIENT {
                    let out = pool.classify(one_window((c * 31 + r) as u64)).unwrap();
                    assert_eq!(out.logits.dims(), &[1, 8]);
                    assert_eq!(out.predictions.len(), 1);
                }
            });
        }
    });

    let stats = Arc::into_inner(pool).unwrap().shutdown();
    assert_eq!(stats.requests, CLIENTS * PER_CLIENT);
    assert_eq!(stats.windows, CLIENTS * PER_CLIENT);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.per_replica.len(), 2);
    assert_eq!(stats.per_replica[0].backend, "bioformer-fp32");
    assert_eq!(stats.per_replica[1].backend, "bioformer-int8");

    // Round-robin over two healthy replicas: both must have taken traffic.
    for rs in &stats.per_replica {
        assert!(
            rs.requests > 0,
            "replica {} ({}) served nothing",
            rs.replica,
            rs.backend
        );
        assert!(!rs.quarantined);
    }
    // Every pool total is the sum of its per-replica counters.
    let sum = |f: fn(&bioformers::serve::ReplicaStats) -> usize| -> usize {
        stats.per_replica.iter().map(f).sum()
    };
    assert_eq!(stats.requests, sum(|s| s.requests));
    assert_eq!(stats.windows, sum(|s| s.windows));
    assert_eq!(stats.batches, sum(|s| s.batches));
    assert_eq!(stats.coalesced_batches, sum(|s| s.coalesced_batches));
    assert_eq!(stats.expired, sum(|s| s.expired));
    assert_eq!(stats.failed, sum(|s| s.failed));
    assert_eq!(
        stats.latency.micro_batches,
        sum(|s| s.latency.micro_batches)
    );
}

/// A backend with a controllable per-batch delay, counting its calls.
struct Delayed {
    delay: Duration,
    calls: Arc<AtomicUsize>,
}

impl GestureClassifier for Delayed {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.calls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        Tensor::from_fn(&[windows.dims()[0], 4], |i| (i % 4) as f32)
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "delayed"
    }
}

/// LatencyAware routing must shift traffic away from an artificially
/// slowed replica once it has observed both replicas' batch latencies.
#[test]
fn latency_aware_routing_shifts_traffic_off_the_slow_replica() {
    let slow_calls = Arc::new(AtomicUsize::new(0));
    let fast_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::LatencyAware)
        .add_replica(Box::new(Delayed {
            delay: Duration::from_millis(25),
            calls: Arc::clone(&slow_calls),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::from_micros(200),
            calls: Arc::clone(&fast_calls),
        }))
        .build();

    const REQUESTS: usize = 30;
    for r in 0..REQUESTS {
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
        let _ = r;
    }
    let stats = pool.shutdown();
    assert_eq!(stats.requests, REQUESTS);

    let slow = slow_calls.load(Ordering::Relaxed);
    let fast = fast_calls.load(Ordering::Relaxed);
    // Each replica is probed while it has no latency history (score 0);
    // after that, every closed-loop request must prefer the fast replica
    // (25 ms vs 0.2 ms EWMA, empty queues).
    assert!(
        slow <= 3,
        "slow replica kept receiving traffic: {slow} batches (fast {fast})"
    );
    assert!(
        fast >= REQUESTS - 3,
        "fast replica should absorb nearly all traffic: {fast} batches"
    );
}

/// A backend that panics on every batch.
struct Exploding;

impl GestureClassifier for Exploding {
    fn predict_batch(&self, _windows: &Tensor) -> Tensor {
        panic!("backend contract violation");
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "exploding"
    }
}

/// A replica whose backend panics is quarantined after the configured
/// number of consecutive failures; its cancelled requests are re-routed by
/// `classify`, and the surviving replicas keep serving everything.
#[test]
fn panicking_replica_is_quarantined_and_traffic_rerouted() {
    let good_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::RoundRobin)
        .with_quarantine_after(1)
        .add_replica(Box::new(Exploding))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&good_calls),
        }))
        .build();

    const REQUESTS: usize = 10;
    for _ in 0..REQUESTS {
        // Every request must succeed: a Cancelled response from the
        // exploding replica is transparently re-routed to the healthy one.
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
    }

    let stats = pool.shutdown();
    assert_eq!(stats.requests, REQUESTS, "all requests served");
    assert!(
        stats.failed >= 1,
        "the exploding replica failed at least once"
    );
    assert!(
        stats.per_replica[0].quarantined,
        "exploding replica quarantined"
    );
    assert!(!stats.per_replica[1].quarantined);
    assert_eq!(stats.per_replica[1].requests, REQUESTS);
    assert_eq!(good_calls.load(Ordering::Relaxed), REQUESTS);
}

/// A backend that panics for its first `failures` batches, then serves.
struct FlakyThenHealthy {
    failures_left: AtomicUsize,
    served: Arc<AtomicUsize>,
}

impl GestureClassifier for FlakyThenHealthy {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        if self
            .failures_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("transient fault");
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        Tensor::zeros(&[windows.dims()[0], 4])
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "flaky-then-healthy"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((2, 5))
    }
}

/// Regression for replica auto-recovery (ROADMAP): a transiently failing
/// replica is quarantined, gets probed with canary requests, answers one
/// successfully, and **rejoins the pool** — subsequently serving client
/// traffic again. With probing disabled the quarantine stays sticky.
#[test]
fn transiently_failing_replica_rejoins_after_canary_probe() {
    let served = Arc::new(AtomicUsize::new(0));
    let good_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::RoundRobin)
        .with_quarantine_after(1)
        .with_probe_interval(Duration::from_millis(2))
        .add_replica(Box::new(FlakyThenHealthy {
            failures_left: AtomicUsize::new(1),
            served: Arc::clone(&served),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&good_calls),
        }))
        .build();

    // Drive traffic until the flaky replica has failed once (re-routed
    // transparently) and been quarantined.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pool.stats().per_replica[0].quarantined {
        assert!(
            std::time::Instant::now() < deadline,
            "flaky replica was never quarantined"
        );
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
    }

    // Keep traffic flowing: routing drives the canary cycle, the backend
    // is healthy now, so a canary succeeds and the replica is re-admitted.
    let mut rejoined = false;
    while std::time::Instant::now() < deadline {
        let _ = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        let replica = &pool.stats().per_replica[0];
        // Rejoined = flag lifted AND the replica served something (the
        // canary at minimum; client traffic follows via round-robin).
        if !replica.quarantined && replica.requests > 0 {
            rejoined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(rejoined, "quarantined replica never rejoined the pool");

    // After re-admission the replica takes real client traffic again.
    let before = served.load(Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while served.load(Ordering::Relaxed) <= before {
        assert!(
            std::time::Instant::now() < deadline,
            "re-admitted replica got no client traffic"
        );
        let _ = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }

    let stats = pool.shutdown();
    assert!(!stats.per_replica[0].quarantined, "rejoined for good");
    assert_eq!(stats.failed, 1, "exactly the one transient fault");
}

/// With probing disabled (`without_probe_recovery`) quarantine is sticky:
/// the pre-recovery behaviour is still available.
#[test]
fn disabled_probing_keeps_quarantine_sticky() {
    let served = Arc::new(AtomicUsize::new(0));
    let good_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::RoundRobin)
        .with_quarantine_after(1)
        .without_probe_recovery()
        .add_replica(Box::new(FlakyThenHealthy {
            failures_left: AtomicUsize::new(1),
            served: Arc::clone(&served),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&good_calls),
        }))
        .build();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pool.stats().per_replica[0].quarantined {
        assert!(std::time::Instant::now() < deadline, "never quarantined");
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }
    // Plenty of traffic later the flag still stands and the (now healthy)
    // flaky backend never serves again.
    for _ in 0..20 {
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }
    std::thread::sleep(Duration::from_millis(10));
    let stats = pool.shutdown();
    assert!(stats.per_replica[0].quarantined, "sticky quarantine");
    assert_eq!(served.load(Ordering::Relaxed), 0, "no canaries, no serves");
}

/// With every replica quarantined the pool reports `Unavailable` instead
/// of hanging or panicking.
#[test]
fn fully_quarantined_pool_reports_unavailable() {
    let pool = ShardedEngine::builder()
        .with_quarantine_after(1)
        .with_max_reroutes(2)
        .add_replica(Box::new(Exploding))
        .build();
    // First request: routed to the only replica, cancelled, re-route finds
    // no healthy replica left -> Unavailable.
    assert_eq!(
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
        ServeError::Unavailable
    );
    assert_eq!(
        pool.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
        ServeError::Unavailable
    );
    let stats = pool.shutdown();
    assert!(stats.per_replica[0].quarantined);
}

/// Shutdown closes every replica's queue up front and drains all accepted
/// requests across the pool.
#[test]
fn pool_shutdown_drains_all_replicas() {
    let model_a = small_bioformer(52);
    let model_b = small_bioformer(53);
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::LeastQueueDepth)
        .with_replica_config(
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_micro_batch(4)
                .with_linger(Duration::ZERO),
        )
        .add_replica(Box::new(model_a))
        .add_replica(Box::new(model_b))
        .build();

    let pending: Vec<_> = (0..8)
        .map(|i| pool.submit(one_window(60 + i as u64)).unwrap())
        .collect();
    let stats = pool.shutdown();
    for p in pending {
        let out = p.wait().expect("drained request must be served");
        assert_eq!(out.logits.dims(), &[1, 8]);
    }
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
}

/// The tentpole's hedging semantics, end to end: against a pool whose
/// round-robin primary is a deliberately slowed replica half the time, a
/// hedge fires after the (clamped) hedge delay, the fast replica's answer
/// wins the race, and the caller never waits out the slow replica's full
/// service time. The losing duplicate is cancelled — its work still counts
/// in the losing replica's own stats, so the pool rollup stays consistent
/// (no double-counting, no missing counts).
#[test]
fn hedge_fires_against_a_slow_replica_and_the_fast_answer_wins() {
    const SLOW: Duration = Duration::from_millis(150);
    let slow_calls = Arc::new(AtomicUsize::new(0));
    let fast_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        // Round-robin forces the slow replica to be the primary for half
        // the requests — LatencyAware would route around it and never
        // exercise the hedge.
        .with_policy(RoutingPolicy::RoundRobin)
        .with_hedging(HedgeConfig {
            initial_delay: Duration::from_millis(5),
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
        })
        .add_replica(Box::new(Delayed {
            delay: SLOW,
            calls: Arc::clone(&slow_calls),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&fast_calls),
        }))
        .build();

    const REQUESTS: usize = 6;
    for _ in 0..REQUESTS {
        let started = std::time::Instant::now();
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
        // The hedge caps the decision latency at roughly the hedge delay
        // (≤ 20 ms) plus the fast replica's service time — never the slow
        // replica's 150 ms sleep.
        assert!(
            started.elapsed() < SLOW * 2 / 3,
            "hedging failed to cut the slow replica's tail: {:?}",
            started.elapsed()
        );
    }

    let stats = pool.shutdown();
    assert!(
        stats.hedges_fired >= REQUESTS / 2,
        "slow primaries must fire hedges: {} fired",
        stats.hedges_fired
    );
    assert!(
        stats.hedges_won >= 1,
        "at least one hedge must win against a 150 ms primary"
    );
    assert!(stats.hedges_won <= stats.hedges_fired);
    // The cancelled losers are ordinary requests in their replica's own
    // counters: pool totals still equal the per-replica sums.
    assert!(stats.rollup_consistent(), "hedging broke the stats rollup");
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    // Both replicas actually executed work (the slow one as a losing
    // primary, the fast one as the winning hedge or primary).
    assert!(slow_calls.load(Ordering::Relaxed) >= 1);
    assert!(fast_calls.load(Ordering::Relaxed) >= REQUESTS / 2);
}

/// With hedging off (the default), the hedge counters stay at zero and
/// `classify` behaves exactly as before: same answers, one request counted
/// per call, rollup intact.
#[test]
fn hedging_off_counts_nothing_and_serves_identically() {
    let model = Arc::new(small_bioformer(55));
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(Arc::clone(&model)))
        .add_replica(Box::new(Arc::clone(&model)))
        .build();
    assert_eq!(pool.config().hedge, None, "hedging must default to off");

    let w = one_window(71);
    let direct = model.predict_batch(&w);
    let out = pool.classify(w).unwrap();
    assert_eq!(
        out.logits.data(),
        direct.data(),
        "unhedged classify must stay bit-identical to the direct model"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.hedges_fired, 0);
    assert_eq!(stats.hedges_won, 0);
    assert!(stats.rollup_consistent());
}

/// Explicit replica weights steer LatencyAware routing: at equal observed
/// latency, a weight-4 replica's score is 4× cheaper, so it absorbs
/// (nearly) all closed-loop traffic once both EWMAs have converged.
#[test]
fn weighted_routing_steers_traffic_toward_the_heavy_replica() {
    const DELAY: Duration = Duration::from_millis(2);
    let heavy_calls = Arc::new(AtomicUsize::new(0));
    let light_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::LatencyAware)
        .add_replica_weighted(
            Box::new(Delayed {
                delay: DELAY,
                calls: Arc::clone(&heavy_calls),
            }),
            4.0,
        )
        .add_replica_weighted(
            Box::new(Delayed {
                delay: DELAY,
                calls: Arc::clone(&light_calls),
            }),
            1.0,
        )
        .build();

    const REQUESTS: usize = 20;
    for _ in 0..REQUESTS {
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }
    let stats = pool.shutdown();
    assert_eq!(stats.per_replica[0].weight, 4.0);
    assert_eq!(stats.per_replica[1].weight, 1.0);

    let heavy = heavy_calls.load(Ordering::Relaxed);
    let light = light_calls.load(Ordering::Relaxed);
    // Each replica is probed once while it has no history (score 0); from
    // then on equal 2 ms EWMAs divided by 4 vs 1 always favour the heavy
    // replica in this closed loop (queues are empty between requests).
    assert!(
        heavy >= REQUESTS - 5,
        "weight-4 replica should dominate: heavy {heavy}, light {light}"
    );
    assert!(
        light <= 5,
        "weight-1 replica should only see probe traffic: {light}"
    );
}

/// One shared model instance can back several replicas through the
/// `Arc<T>` backend impl — replicas add workers and queues, not weights.
#[test]
fn shared_model_backs_multiple_replicas_without_cloning() {
    let model = Arc::new(small_bioformer(54));
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(Arc::clone(&model)))
        .add_replica(Box::new(Arc::clone(&model)))
        .build();
    let w = one_window(70);
    let direct = model.predict_batch(&w);
    let out = pool.classify(w).unwrap();
    assert_eq!(out.logits.data(), direct.data());
    let stats = pool.shutdown();
    assert_eq!(stats.requests, 1);
}
