//! The kernel thread budget.
//!
//! Large GEMMs fan out over scoped `std::thread`s
//! ([`crate::matmul::plan_threads`] decides how many, the row-splitting
//! kernels spawn them). This module holds what that decision reads: the
//! work threshold below which a kernel stays on the caller's thread, the
//! machine's cached parallelism, and the process-wide cap benchmarks and
//! tests use to force single-threaded baselines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Minimum work (in FLOPs, see [`crate::matmul::gemm_work`]) below which a
/// kernel runs serially to avoid thread-spawn overhead.
///
/// Thread spawns cost ~0.25 ms in containerised environments, so fan-out
/// only pays for GEMMs worth tens of milliseconds of single-thread time.
/// Most parallelism in this workspace happens one level up (the trainer
/// shards mini-batches, the evaluator shards datasets); kernel-level
/// threading is a fallback for large single-call GEMMs.
pub const PARALLEL_WORK_THRESHOLD: usize = 1 << 26;

static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the number of worker threads a fanned-out kernel may use.
///
/// `0` restores the default (the machine's available parallelism, capped at
/// 16). Intended for benchmarks that need single-threaded baselines and for
/// tests.
pub fn set_max_threads(n: usize) {
    MAX_THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Serialises tests that mutate the process-global thread override; tests
/// run concurrently in one binary, so unsynchronised [`set_max_threads`]
/// calls race. Lock via [`override_guard`] before overriding.
#[cfg(test)]
pub(crate) static OVERRIDE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes the override lock and sets `n`; the previous default (0) is
/// restored when the guard drops, even on panic.
#[cfg(test)]
pub(crate) fn override_guard(n: usize) -> impl Drop {
    // The guard's only job is to hold the lock until drop.
    struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            set_max_threads(0);
        }
    }
    let lock = OVERRIDE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_max_threads(n);
    Guard(lock)
}

/// The machine's available parallelism, queried once and cached —
/// `std::thread::available_parallelism` performs cgroup filesystem reads
/// that cost ~0.7 ms per call on some container kernels, far too slow for
/// per-kernel dispatch decisions.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Returns the number of worker threads a fanned-out kernel may use.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    hardware_threads().min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override() {
        let guard = override_guard(3);
        assert_eq!(max_threads(), 3);
        drop(guard);
        assert!(max_threads() >= 1);
    }
}
