//! The kernel thread budget.
//!
//! Large GEMMs fan out over scoped `std::thread`s
//! ([`crate::matmul::plan_threads`] decides how many, the row-splitting
//! kernels spawn them). This module holds what that decision reads: the
//! work threshold below which a kernel stays on the caller's thread and
//! the machine's cached parallelism. No setting overrides either, so no
//! process-global mutable state reaches the inference path.

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

/// Returns the number of worker threads a fanned-out kernel may use: the
/// machine's available parallelism, capped at 16.
pub fn max_threads() -> usize {
    hardware_threads().min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_capped_hardware_parallelism() {
        assert_eq!(max_threads(), hardware_threads().min(16));
        assert!(max_threads() >= 1);
    }
}
