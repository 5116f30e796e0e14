//! A host-speed probe.
//!
//! The reference host is shared: its speed swings by up to 1.6x from
//! second to second with neighbour load, far more than the bounds the
//! benchmark must hold. The `forward` figures are therefore given at the
//! reference speed: `raw × speed`, where `speed = PROBE_REF_US / t` and
//! `t` is the median time of a fixed probe run beside the measured work
//! in the same second. The probe calls nothing in the program, so a
//! change to the program moves the scaled figures exactly as it moves
//! the raw ones.

use std::time::Instant;

/// Roughly the probe's median time on the reference host (the 2-vCPU
/// KVM host in `NOTES.md`). A constant: it only sets the scale of the
/// scaled figures.
pub const PROBE_REF_US: f64 = 500.0;

/// bio1's weight GEMM shapes `(k, n)` at 31 rows: Q/K/V fused, Wo, FFN up
/// and down.
const GEMMS: [(usize, usize); 4] = [(64, 768), (256, 64), (64, 128), (128, 64)];
const ROWS: usize = 31;

/// A fixed computation shaped like one bio1 fp32 forward, in plain loops:
/// the four weight GEMMs over the same ~370 KB of weights, eight `31×31`
/// row softmaxes and a LayerNorm + tanh over `31×64`. It calls nothing in
/// the program, so its time moves only with the host.
pub struct HostProbe {
    weights: Vec<Vec<f32>>,
    x: Vec<f32>,
    y: Vec<f32>,
    scores: Vec<f32>,
}

impl HostProbe {
    pub fn new() -> Self {
        HostProbe {
            weights: GEMMS
                .iter()
                .map(|&(k, n)| (0..k * n).map(|i| (i % 11) as f32 * 0.01).collect())
                .collect(),
            x: (0..ROWS * 256).map(|i| (i % 3) as f32 * 0.1).collect(),
            y: vec![0.0; ROWS * 768],
            scores: vec![0.5; 8 * ROWS * ROWS],
        }
    }

    /// Runs the probe once; returns its time in ns.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        for (w, &(k, n)) in self.weights.iter().zip(&GEMMS) {
            for i in 0..ROWS {
                let out = &mut self.y[i * n..(i + 1) * n];
                out.fill(0.0);
                for (kk, row) in w.chunks_exact(n).enumerate() {
                    let a = self.x[i * k + kk];
                    for (o, &b) in out.iter_mut().zip(row) {
                        *o += a * b;
                    }
                }
            }
        }
        for row in self.scores.chunks_exact_mut(ROWS) {
            let max = row.iter().copied().fold(f32::MIN, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            row.iter_mut().for_each(|x| *x /= sum);
        }
        for row in self.y.chunks_exact_mut(64).take(ROWS) {
            let mean = row.iter().sum::<f32>() / 64.0;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 64.0;
            let inv = 1.0 / (var + 1e-5).sqrt();
            row.iter_mut().for_each(|x| *x = ((*x - mean) * inv).tanh());
        }
        std::hint::black_box(&mut *self);
        t.elapsed().as_nanos() as u64
    }
}

/// The host speed implied by probe times (µs): `PROBE_REF_US` over their
/// median, or 1 with no samples.
pub fn speed(probe_us: &[f64]) -> f64 {
    let s = crate::stats::sorted(probe_us);
    let p50 = crate::stats::percentile(&s, 50.0);
    if p50 > 0.0 {
        PROBE_REF_US / p50
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median() {
        assert_eq!(speed(&[]), 1.0);
        assert_eq!(speed(&[PROBE_REF_US * 2.0, PROBE_REF_US * 2.0, 1e9]), 0.5);
    }

    #[test]
    fn probe_takes_time() {
        let mut p = HostProbe::new();
        assert!(p.run() > 0);
    }
}
