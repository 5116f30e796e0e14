//! End-to-end and per-layer benchmark of bioformers.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload forward|gateway|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a run
//! that records spans. Exits 1 when an output is wrong, 2 on bad usage.
//! `NOTES.md` explains the workloads and metrics.

mod alloc;
mod fleet;
mod forward;
mod gateway;
mod ledger;
mod model;
mod probe;
mod profile;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("heap_peak_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_window", "us"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_us", "us"),
    ("tensor.gemm_calls", "count"),
    ("tensor.pack_calls", "count"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.patch_us", "us"),
    ("tensor.qkv_us", "us"),
    ("tensor.scores_us", "us"),
    ("tensor.av_us", "us"),
    ("tensor.wo_us", "us"),
    ("tensor.ffn_up_us", "us"),
    ("tensor.ffn_down_us", "us"),
    ("tensor.head_us", "us"),
    ("nn.other_us", "us"),
    ("nn.forward_p50_us", "us"),
    ("nn.forward_p99_us", "us"),
    ("quant.qgemm_us", "us"),
    ("quant.qgemm_calls", "count"),
    ("quant.patch_us", "us"),
    ("quant.qkv_us", "us"),
    ("quant.scores_us", "us"),
    ("quant.av_us", "us"),
    ("quant.wo_us", "us"),
    ("quant.ffn_up_us", "us"),
    ("quant.ffn_down_us", "us"),
    ("quant.head_us", "us"),
    ("quant.other_us", "us"),
    ("quant.forward_p50_us", "us"),
    ("quant.forward_p99_us", "us"),
    ("core.allocs_per_window", "count"),
    ("core.compute_us", "us"),
    ("core.batch_windows", "count"),
    ("serve.server.dispatch_ms", "ms"),
    ("serve.server.delivery_ms", "ms"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.server.send_us", "us"),
    ("serve.server.poll_us", "us"),
    ("serve.server.queue_full", "count"),
    ("serve.server.connect_us", "us"),
    ("serve.server.disconnect_us", "us"),
    ("serve.server.resume_us", "us"),
    ("serve.stream.decision_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub report: String,
}

/// User + system CPU time of the whole process so far, in seconds
/// (`/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // Fields 14 and 15 of the file (utime, stime) are 11 and 12 after the
    // command name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Runs `setup` [`SETUPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds.
fn timed_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::percentile(&stats::sorted(&times), 50.0);
    Ok((kept.expect("SETUPS >= 1"), median))
}

/// Sets up and runs the workload; returns its outcome and set-up time.
fn run(args: &Args) -> Result<(Outcome, f64), String> {
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "forward" => {
            let (st, setup_s) = timed_setup(|| Ok(forward::setup(seed, traced)))?;
            Ok((forward::run(st, secs, traced), setup_s))
        }
        "gateway" => {
            let (st, setup_s) = timed_setup(|| gateway::setup(seed, traced))?;
            Ok((gateway::run(st, secs, traced)?, setup_s))
        }
        "fleet" => {
            let (st, setup_s) = timed_setup(|| fleet::setup(seed, traced))?;
            Ok((fleet::run(st, secs, traced)?, setup_s))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected forward, gateway or fleet)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    let (mut outcome, setup_s) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e_bench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    outcome.metrics.insert("setup_s", setup_s);
    // A run that attempted nothing checked nothing.
    outcome.correct &= outcome.attempted > 0;

    println!(
        "host: cpu {:?}, {} hardware threads, simd tier {}; workload {} seed {} seconds {} trace {}",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        bioformers::simd::kernels().name,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("setup: median of {SETUPS} set-ups {setup_s:.4} s");
    print!("{}", outcome.report);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    let mut table = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
        let _ = writeln!(table, "  {name:<30} {value:>14.4} {unit}");
    }
    print!(
        "{}: attempted {}, failed {}, correct {}\n{table}",
        args.workload, outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
