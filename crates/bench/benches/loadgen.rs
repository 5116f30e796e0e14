//! Open-loop load generator: max sustained arrival rate at a fixed p99
//! SLO, for single vs sharded vs hedged serving pools.
//!
//! ## Why open loop
//!
//! The `serving` bench (and most naive load tests) is **closed-loop**:
//! each client waits for its previous response before sending the next
//! request. Under a latency spike the clients *stop sending*, so the
//! spike suppresses the very samples that should have measured it —
//! coordinated omission. The numbers look great precisely when the system
//! is at its worst.
//!
//! This generator is **open-loop**: arrivals are a Poisson process at a
//! fixed rate λ, scheduled independently of the system's responses
//! (`gap = -ln(U)/λ`). Every request's latency is measured from its
//! *scheduled arrival time* — if the pool (or the dispatcher behind it)
//! falls behind, the wait counts against it. A request that would have
//! been sent during a stall is still sent, still measured, still in the
//! p99.
//!
//! ## What it reports
//!
//! For each scenario the generator binary-searches the maximum Poisson
//! arrival rate whose p99 latency stays within the SLO, then runs one
//! fixed-rate head-to-head on a pool with one deliberately slowed replica
//! to show what hedging does to the tail (and asserts the improvement —
//! this bench doubles as a regression test).
//!
//! ```text
//! cargo bench -p bioformer-bench --bench loadgen                    # full
//! cargo bench -p bioformer-bench --bench loadgen -- --smoke         # CI
//! cargo bench -p bioformer-bench --bench loadgen -- --save-baseline serving
//! cargo bench -p bioformer-bench --bench loadgen -- --baseline serving --fail-threshold 90
//! cargo bench -p bioformer-bench --bench loadgen -- --json out.json
//! ```
//!
//! Baselines use the criterion-shim format (`id\tvalue` under
//! `$CRITERION_SHIM_DIR` or `target/criterion-shim/`) so the committed
//! `crates/bench/baselines/serving.baseline` slots in next to
//! `inference.baseline`. The JSON report reuses the shim's record shape
//! `{"id", "low_s", "median_s", "high_s"}`; for `capacity/*_rps` entries
//! the three values are the bracketing (last-good, final, first-bad)
//! arrival rates in req/s, for `p99/*` entries they are p50/p95/p99 in
//! seconds.

use bioformers::serve::{
    AsyncEngineConfig, GestureClassifier, HedgeConfig, RequestOutput, RoutingPolicy, ServeError,
    ShardedEngine,
};
use bioformers::tensor::Tensor;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The UX decision-latency budget the capacity search holds p99 to.
const SLO: Duration = Duration::from_millis(25);

/// Executor threads draining the open-loop arrival queue. Enough that the
/// pool's own queueing — not executor starvation — is what saturates.
const EXECUTORS: usize = 32;

/// A deterministic sleep backend: per-window service time, no compute.
/// Sleeping (not spinning) models a host blocked on an offload or a
/// remote accelerator, and makes the measured distributions a pure
/// function of the serving stack rather than of this host's ALUs.
struct SleepBackend {
    per_window: Duration,
}

impl GestureClassifier for SleepBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        std::thread::sleep(self.per_window * n as u32);
        Tensor::from_fn(&[n, 4], |i| (i % 4) as f32)
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "sleep-sim"
    }
}

const FAST: Duration = Duration::from_millis(2);
const SLOW: Duration = Duration::from_millis(40);

fn replica_config() -> AsyncEngineConfig {
    AsyncEngineConfig::default()
        .with_workers(1)
        .with_micro_batch(8)
        .with_linger(Duration::ZERO)
}

/// xorshift64* uniform in (0, 1].
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
    (bits as f64 + 1.0) / (1u64 << 53) as f64
}

/// The request path under test: any engine's `classify`, boxed as a
/// plain function so every topology runs through identical driver code.
type ClassifyFn<'a> = dyn Fn(Tensor) -> Result<RequestOutput, ServeError> + Sync + 'a;

/// Runs one open-loop trial: Poisson arrivals at `rate_hz` for
/// `duration`, every arrival classified by `classify`, latency measured
/// from the scheduled arrival instant. Returns the sorted latencies.
fn open_loop_trial(
    classify: &ClassifyFn<'_>,
    rate_hz: f64,
    duration: Duration,
    seed: u64,
) -> Vec<Duration> {
    let (tx, rx) = mpsc::channel::<Instant>();
    let rx = Mutex::new(rx);
    let mut latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(EXECUTORS);
        for _ in 0..EXECUTORS {
            let rx = &rx;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    // Hold the lock only for the recv: executors take
                    // turns claiming arrivals, then serve in parallel.
                    let scheduled = match rx.lock().unwrap().recv() {
                        Ok(s) => s,
                        Err(_) => return local,
                    };
                    classify(Tensor::zeros(&[1, 2, 5])).expect("loadgen request");
                    local.push(scheduled.elapsed());
                }
            }));
        }
        // Dispatcher: schedule arrivals on the Poisson clock. The
        // scheduled instant is `start + Σ gaps` regardless of when the
        // send actually happens, so dispatcher lag counts as latency too.
        let mut rng = seed | 1;
        let start = Instant::now();
        let mut t = 0.0;
        while t < duration.as_secs_f64() {
            t += -uniform(&mut rng).ln() / rate_hz;
            let scheduled = start + Duration::from_secs_f64(t);
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if tx.send(scheduled).is_err() {
                break;
            }
        }
        drop(tx);
        for h in handles {
            latencies.extend(h.join().expect("executor"));
        }
    });
    latencies.sort_unstable();
    latencies
}

/// Nearest-rank percentile over sorted samples (the same rule as
/// `LatencyStats` / `StageRecorder`).
fn pct(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

struct Capacity {
    /// Highest rate observed to hold the SLO.
    sustained: f64,
    /// Lowest rate observed to break it (the bracket's other edge).
    broke_at: f64,
}

/// Binary-searches the max sustained arrival rate with p99 ≤ `slo`.
/// Doubles from `start_rate` until the SLO breaks, then bisects the
/// bracket `iters` times. One engine serves all trials (queues drain
/// fully between trials because every arrival is awaited).
fn max_sustained_rate(
    classify: &ClassifyFn<'_>,
    slo: Duration,
    trial: Duration,
    iters: usize,
) -> Capacity {
    let holds = |rate: f64, round: u64| -> bool {
        let lat = open_loop_trial(classify, rate, trial, 0x9E37 + round);
        !lat.is_empty() && pct(&lat, 0.99) <= slo
    };
    let mut round = 0;
    let mut good = 0.0;
    let mut rate = 40.0;
    let bad = loop {
        round += 1;
        if !holds(rate, round) {
            break rate;
        }
        good = rate;
        rate *= 2.0;
        if rate > 20_480.0 {
            break rate;
        }
    };
    let (mut lo, mut hi) = (good, bad);
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        round += 1;
        if holds(mid, round) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Capacity {
        sustained: lo,
        broke_at: hi,
    }
}

// --- criterion-shim-compatible baseline + JSON plumbing ---------------

fn baseline_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CRITERION_SHIM_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            let target = dir.join("target");
            if target.is_dir() {
                return target.join("criterion-shim");
            }
        }
    }
    PathBuf::from("target").join("criterion-shim")
}

fn baseline_path(name: &str) -> PathBuf {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    baseline_dir().join(format!("{safe}.baseline"))
}

fn load_baseline(name: &str) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    if let Ok(text) = std::fs::read_to_string(baseline_path(name)) {
        for line in text.lines() {
            if let Some((id, value)) = line.rsplit_once('\t') {
                if let Ok(v) = value.parse::<f64>() {
                    entries.push((id.to_string(), v));
                }
            }
        }
    }
    entries
}

fn store_baseline(name: &str, entries: &[(String, f64)]) -> std::io::Result<PathBuf> {
    // Merge over existing entries (same semantics as the criterion shim)
    // so loadgen and other benches can share one baseline name.
    let mut merged: std::collections::BTreeMap<String, f64> =
        load_baseline(name).into_iter().collect();
    for (id, v) in entries {
        merged.insert(id.clone(), *v);
    }
    let path = baseline_path(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::File::create(&path)?;
    for (id, v) in &merged {
        writeln!(file, "{id}\t{v:e}")?;
    }
    Ok(path)
}

fn write_json(path: &str, entries: &[(String, f64, f64, f64)]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, (id, low, median, high)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": \"{id}\", \"low_s\": {low:e}, \"median_s\": {median:e}, \"high_s\": {high:e}}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

fn main() {
    let mut smoke = false;
    let mut json_out: Option<String> = None;
    let mut save_baseline: Option<String> = None;
    let mut baseline_name: Option<String> = None;
    let mut fail_threshold: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => json_out = args.next(),
            "--save-baseline" => save_baseline = args.next(),
            "--baseline" => baseline_name = args.next(),
            "--fail-threshold" => fail_threshold = args.next().and_then(|v| v.parse().ok()),
            // `cargo bench` passes --bench; ignore it and anything else.
            _ => {}
        }
    }
    let (trial, iters) = if smoke {
        (Duration::from_millis(300), 3)
    } else {
        (Duration::from_millis(1500), 5)
    };

    let hedge = HedgeConfig {
        initial_delay: Duration::from_millis(10),
        min_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    };

    println!(
        "open-loop load generator: p99 SLO {SLO:?}, {:?} trials, {} bisections{}",
        trial,
        iters,
        if smoke { " (smoke)" } else { "" }
    );

    let mut baseline_entries: Vec<(String, f64)> = Vec::new();
    let mut json_entries: Vec<(String, f64, f64, f64)> = Vec::new();

    // --- capacity: single vs sharded vs hedged -----------------------
    {
        let single = ShardedEngine::builder()
            .with_replica_config(replica_config())
            .add_replica(Box::new(SleepBackend { per_window: FAST }))
            .build();
        let sharded = || {
            ShardedEngine::builder()
                .with_policy(RoutingPolicy::LatencyAware)
                .with_replica_config(replica_config())
                .add_replica(Box::new(SleepBackend { per_window: FAST }))
                .add_replica(Box::new(SleepBackend { per_window: FAST }))
                .add_replica(Box::new(SleepBackend { per_window: SLOW }))
        };
        let plain = sharded().build();
        let hedged = sharded().with_hedging(hedge).build();

        let scenarios: [(&str, &ClassifyFn<'_>); 3] = [
            ("single-fast", &|w| single.classify(w)),
            ("sharded-2fast+1slow", &|w| plain.classify(w)),
            ("hedged-2fast+1slow", &|w| hedged.classify(w)),
        ];
        for (name, classify) in scenarios {
            // Warm-up (discarded): gives every replica latency history so
            // the capacity bracket measures the steady state, not the
            // router's cold probes of the slow replica.
            let _ = open_loop_trial(classify, 100.0, Duration::from_millis(200), 0xC01D);
            let cap = max_sustained_rate(classify, SLO, trial, iters);
            println!(
                "capacity/{name}: {:.0} req/s sustained at p99 <= {SLO:?} (breaks by {:.0})",
                cap.sustained, cap.broke_at
            );
            baseline_entries.push((format!("capacity/{name}_rps"), cap.sustained));
            json_entries.push((
                format!("capacity/{name}_rps"),
                cap.sustained,
                cap.sustained,
                cap.broke_at,
            ));
        }
    }

    // --- fixed rate: hedging must beat the slow replica's tail -------
    // Round-robin over one fast and one deliberately slowed replica makes
    // the slow replica the primary for half the arrivals; with hedging
    // the duplicate lands on the fast replica after <= 10 ms instead of
    // waiting out the full 40 ms service time.
    {
        let duel = |hedging: Option<HedgeConfig>| {
            let mut b = ShardedEngine::builder()
                .with_policy(RoutingPolicy::RoundRobin)
                .with_replica_config(replica_config())
                .add_replica(Box::new(SleepBackend { per_window: FAST }))
                .add_replica(Box::new(SleepBackend { per_window: SLOW }));
            if let Some(h) = hedging {
                b = b.with_hedging(h);
            }
            b.build()
        };
        let rate = 40.0;
        let plain = duel(None);
        let lat_plain = open_loop_trial(&|w| plain.classify(w), rate, trial * 2, 0xBEE5);
        let hedged = duel(Some(hedge));
        let lat_hedged = open_loop_trial(&|w| hedged.classify(w), rate, trial * 2, 0xBEE5);
        let stats = hedged.shutdown();

        for (name, lat) in [("plain", &lat_plain), ("hedged", &lat_hedged)] {
            let (p50, p95, p99) = (pct(lat, 0.5), pct(lat, 0.95), pct(lat, 0.99));
            let mean = lat.iter().sum::<Duration>() / lat.len().max(1) as u32;
            println!(
                "p99/duel-{name} @ {rate:.0}/s: p50 {p50:.1?} p95 {p95:.1?} p99 {p99:.1?} (mean {mean:.1?}, n={})",
                lat.len()
            );
            json_entries.push((
                format!("p99/duel-{name}"),
                p50.as_secs_f64(),
                p95.as_secs_f64(),
                p99.as_secs_f64(),
            ));
        }
        let (p99_plain, p99_hedged) = (pct(&lat_plain, 0.99), pct(&lat_hedged, 0.99));
        println!(
            "hedging: {} hedges fired, {} won, p99 {:.1?} -> {:.1?}",
            stats.hedges_fired, stats.hedges_won, p99_plain, p99_hedged
        );
        assert!(
            p99_hedged < p99_plain,
            "hedging must strictly improve p99 against a slowed replica: \
             plain {p99_plain:?} vs hedged {p99_hedged:?}"
        );
        assert!(stats.hedges_fired > 0, "the duel must actually hedge");
    }

    // --- baseline compare / save / JSON ------------------------------
    if let Some(name) = &baseline_name {
        let base = load_baseline(name);
        let mut worst_drop = 0.0f64;
        for (id, got) in &baseline_entries {
            match base.iter().find(|(bid, _)| bid == id) {
                Some((_, was)) if *was > 0.0 => {
                    let delta = (got - was) / was * 100.0;
                    println!("vs baseline '{name}': {id} {was:.0} -> {got:.0} ({delta:+.1}%)");
                    worst_drop = worst_drop.max(-delta);
                }
                _ => println!("vs baseline '{name}': {id} has no baseline entry"),
            }
        }
        if let Some(threshold) = fail_threshold {
            assert!(
                worst_drop <= threshold,
                "capacity regression gate: worst drop -{worst_drop:.1}% \
                 exceeds --fail-threshold {threshold}%"
            );
        }
    }
    if let Some(name) = &save_baseline {
        match store_baseline(name, &baseline_entries) {
            Ok(path) => println!("baseline '{name}' saved to {}", path.display()),
            Err(e) => eprintln!("failed to save baseline '{name}': {e}"),
        }
    }
    if let Some(path) = &json_out {
        match write_json(path, &json_entries) {
            Ok(()) => println!("json report written to {path}"),
            Err(e) => eprintln!("failed to write json report {path}: {e}"),
        }
    }
}
