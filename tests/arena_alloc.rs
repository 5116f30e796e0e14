//! Allocator-level proof that steady-state inference is allocation-free.
//!
//! `tests/perf_kernels.rs` checks the arena's *own* accounting
//! (`misses == 0` after warm-up); this test goes one level deeper and
//! counts actual heap allocations with a counting `#[global_allocator]`.
//! After a warm-up forward has populated the arena pool and the packed
//! weight caches, a `forward_infer_in` pass over the full bio1 model must
//! perform **zero** heap allocations — every intermediate tensor, packed
//! panel and scratch buffer comes from the pool, and `Shape` stores its
//! dims inline.
//!
//! The counter is gated on a thread-local flag so the test harness's other
//! threads cannot pollute the measurement.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::InferForward;
use bioformers::quant::QuantBioformer;
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, GestureClassifier, LatencyTrace, ShardedEngine,
    StageRecorder, StreamConfig, StreamSession,
};
use bioformers::tensor::{parallel, Tensor, TensorArena};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through to the system allocator that counts allocation events on
/// threads that opted in via `TRACKING`.
struct CountingAllocator;

fn note_allocation() {
    // try_with: allocation during thread teardown must not panic.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation tracking on and returns how many heap
/// allocations it performed on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCATIONS.with(|c| c.get())
}

fn window(batch: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[batch, 14, 300], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// The full bio1 network converted to int8 (conversion itself allocates
/// freely — only steady-state inference is under test).
fn quant_model() -> QuantBioformer {
    let cfg = BioformerConfig::bio1();
    let mut model = Bioformer::new(&cfg);
    let dict = state_dict(&mut model);
    let calib = window(4, 11);
    QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion")
}

#[test]
fn steady_state_bioformer_forward_makes_zero_heap_allocations() {
    // Force the serial kernel path: thread spawns allocate, and a bio1
    // single-window forward never crosses the parallel threshold anyway.
    parallel::set_max_threads(1);
    let model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(1, 3);
    let mut arena = TensorArena::new();

    // Sanity: the very first (cold) pass must be visible to the counter —
    // it builds the packed weight caches and fills the pool.
    let cold = count_allocations(|| {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert!(
        cold > 0,
        "counter failed to observe the warm-up allocations"
    );

    // Second warm-up pass: steady-state pooling established.
    let y = model.forward_infer_in(&x, &mut arena);
    arena.recycle(y);

    for trial in 0..3 {
        let steady = count_allocations(|| {
            let y = model.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "steady-state forward #{trial} hit the heap {steady} times"
        );
    }
    parallel::set_max_threads(0);
}

/// Autotuned kernels keep the allocation-free steady state: tuning (and
/// the repacking it forces) happens entirely at load time, so after
/// warm-up a tuned forward must hit the heap exactly as often as the
/// default one — never.
#[test]
fn steady_state_tuned_forward_makes_zero_heap_allocations() {
    parallel::set_max_threads(1);
    let mut model = Bioformer::new(&BioformerConfig::bio1());
    let (compute, _table) = bioformers::serve::tuned_compute(&model);
    model.set_backend(compute);
    let x = window(1, 13);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    for trial in 0..3 {
        let steady = count_allocations(|| {
            let y = model.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "tuned steady-state forward #{trial} hit the heap {steady} times"
        );
    }
    parallel::set_max_threads(0);
}

#[test]
fn steady_state_batched_forward_makes_zero_heap_allocations() {
    parallel::set_max_threads(1);
    let model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(8, 5);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "batched steady-state forward hit the heap");
    parallel::set_max_threads(0);
}

#[test]
fn steady_state_quant_forward_makes_zero_heap_allocations() {
    parallel::set_max_threads(1);
    let qmodel = quant_model();
    let x = window(1, 7);
    let mut arena = TensorArena::new();

    // Cold pass: populates the model's internal QuantArena pool (and must
    // be visible to the counter, proving the instrumentation works).
    let cold = count_allocations(|| {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert!(
        cold > 0,
        "counter failed to observe the warm-up allocations"
    );

    let y = qmodel.forward_infer_in(&x, &mut arena);
    arena.recycle(y);

    for trial in 0..3 {
        let steady = count_allocations(|| {
            let y = qmodel.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "steady-state int8 forward #{trial} hit the heap {steady} times"
        );
    }
    parallel::set_max_threads(0);
}

/// The decision-latency trace recorder is allocation-free from the very
/// first `record` call: its per-stage rings are preallocated at
/// construction and recording is four ring writes — strict zero, no
/// warm-up needed, even while the window wraps thousands of times.
#[test]
fn stage_recorder_records_traces_with_zero_heap_allocations() {
    let mut recorder = StageRecorder::new();
    let trace = LatencyTrace {
        buffering: Duration::from_millis(12),
        queueing: Duration::from_micros(300),
        compute: Duration::from_millis(2),
        smoothing: Duration::from_millis(40),
    };
    let allocations = count_allocations(|| {
        for _ in 0..10_000 {
            recorder.record(trace);
        }
    });
    assert_eq!(
        allocations, 0,
        "StageRecorder::record hit the heap {allocations} times"
    );
    assert_eq!(recorder.recorded(), 10_000);
}

/// Decision-latency tracing must not change a streaming session's
/// steady-state allocation profile: window marks, the trace ring and the
/// pending-trace backlog are all bounded structures preallocated at
/// session construction. `push_samples` itself does allocate (window
/// extraction, tensor construction, the returned event vec) — so the
/// proof is that the per-push allocation count is **identical** across
/// steady-state pushes while the trace machinery runs at full tilt
/// (alternating classes force two traced events per push).
#[test]
fn traced_stream_session_per_push_allocations_stay_constant() {
    parallel::set_max_threads(1);
    let model = Bioformer::new(&BioformerConfig::bio1());

    // Find two window signals the model classifies differently, so every
    // push flips the decision and exercises the event-tracing path.
    // Windows dominated by one hot channel spread over several argmax
    // classes even on an untrained model (uniform random windows don't —
    // the head's bias wins).
    let candidates: Vec<Tensor> = (0..14)
        .map(|hot| {
            let amp = (hot + 1) as f32 * 2.0;
            Tensor::from_fn(&[1, 14, 300], |i| {
                let ch = (i / 300) % 14;
                if ch == hot {
                    amp
                } else {
                    -amp * 0.3
                }
            })
        })
        .collect();
    let classes: Vec<usize> = candidates
        .iter()
        .map(|w| model.predict_batch(w).argmax_rows()[0])
        .collect();
    let (a, b) = {
        let first = classes[0];
        let other = classes
            .iter()
            .position(|&c| c != first)
            .expect("hot-channel windows must span at least two classes");
        (0, other)
    };
    // Interleave each `[1, 14, 300]` window into the frame stream an ADC
    // delivers (`[c0 c1 … c13]` per time step).
    let interleave = |w: &Tensor| -> Vec<f32> {
        let (c, len) = (w.dims()[1], w.dims()[2]);
        let mut out = Vec::with_capacity(c * len);
        for t in 0..len {
            for ch in 0..c {
                out.push(w.data()[ch * len + t]);
            }
        }
        out
    };
    let chunks = [interleave(&candidates[a]), interleave(&candidates[b])];

    let engine: std::sync::Arc<dyn bioformers::serve::Engine> = std::sync::Arc::new(
        ShardedEngine::builder()
            .with_replica_config(AsyncEngineConfig::default().with_workers(0))
            .add_replica(Box::new(model))
            .build(),
    );
    let cfg = StreamConfig::db6()
        .with_slide(300)
        .with_lookahead(0)
        .with_policy(DecisionPolicy {
            vote_depth: 1,
            min_hold: 1,
            confidence_floor: 0.0,
        });
    let mut session = StreamSession::new(engine, cfg).expect("valid stream config");
    let mut traces = Vec::with_capacity(64);

    // Warm-up: 10 pushes populate the engine's arena, the packed-weight
    // caches, and leave the session's growable vecs (predictions,
    // confidences, the engine's latency samples) at capacity 16 — no
    // doubling before push #17.
    for i in 0..10 {
        session.push_samples(&chunks[i % 2]).expect("stream push");
        traces.clear();
        session.drain_new_traces(&mut traces);
    }

    let mut counts = Vec::new();
    for i in 0..4 {
        let n = count_allocations(|| {
            let events = session.push_samples(&chunks[i % 2]).expect("stream push");
            assert!(!events.is_empty(), "class flip must emit traced events");
            traces.clear();
            session.drain_new_traces(&mut traces);
        });
        assert!(!traces.is_empty(), "events must leave traces to drain");
        counts.push(n);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "tracing changed the steady-state allocation profile: {counts:?}"
    );
    let stages = session.stage_stats();
    assert!(stages.count() >= 8, "recorder missed the traced events");
    parallel::set_max_threads(0);
}

#[test]
fn steady_state_batched_quant_forward_makes_zero_heap_allocations() {
    parallel::set_max_threads(1);
    let qmodel = quant_model();
    let x = window(8, 9);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "batched steady-state int8 forward hit the heap");
    parallel::set_max_threads(0);
}
