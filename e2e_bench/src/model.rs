//! The served models and the seeded inputs the workloads feed them.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::InferForward;
use bioformers::quant::QuantBioformer;
use bioformers::tensor::{ComputeBackend, Tensor};
use std::sync::Arc;

/// SplitMix64: a small, seedable generator for the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// One `[channels·window]` window of uniform samples.
    pub fn window(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit()).collect()
    }
}

/// Seed of the calibration windows that fix the int8 model. The models
/// are part of the program under test, so they do not vary with the
/// workload seed; only the windows fed to them do.
const CALIBRATION_SEED: u64 = 0x0ca1_1b8a;
const CALIBRATION_WINDOWS: usize = 16;

/// bio1 in fp32 on `backend`.
pub fn fp32_model(backend: Arc<dyn ComputeBackend>) -> Bioformer {
    let mut model = Bioformer::new(&BioformerConfig::bio1());
    model.set_backend(backend);
    model
}

/// bio1 converted to int8 on `backend`, calibrated on fixed windows.
pub fn int8_model(backend: Arc<dyn ComputeBackend>) -> QuantBioformer {
    let cfg = BioformerConfig::bio1();
    let dict = state_dict(&mut Bioformer::new(&cfg));
    let mut rng = Rng::new(CALIBRATION_SEED);
    let calib: Vec<f32> = (0..CALIBRATION_WINDOWS)
        .flat_map(|_| rng.window(cfg.channels * cfg.window))
        .collect();
    let calib = Tensor::from_vec(calib, &[CALIBRATION_WINDOWS, cfg.channels, cfg.window]);
    let mut model = QuantBioformer::convert(&cfg, &dict, &calib).expect("bio1 converts to int8");
    model.set_backend(backend);
    model
}

/// A `[1, channels, window]` tensor of `data`.
pub fn batch1(cfg: &BioformerConfig, data: &[f32]) -> Tensor {
    Tensor::from_vec(data.to_vec(), &[1, cfg.channels, cfg.window])
}

/// Offline fp32 class: a fresh-arena forward.
pub fn fp32_class(model: &Bioformer, data: &[f32]) -> usize {
    argmax(model.forward_infer(&batch1(model.config(), data)).data())
}

/// Offline int8 class: the single-window integer pipeline.
pub fn int8_class(model: &QuantBioformer, data: &[f32]) -> usize {
    let cfg = model.config();
    let x = Tensor::from_vec(data.to_vec(), &[cfg.channels, cfg.window]);
    argmax(&model.forward_window(&x))
}

/// Index of the largest logit (the first on ties).
pub fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

/// Interleaves a `[channels, frames]` window into the frame-major sample
/// order a stream carries.
pub fn interleave(window: &[f32], channels: usize) -> Vec<f32> {
    let frames = window.len() / channels;
    let mut out = vec![0.0; window.len()];
    for c in 0..channels {
        for t in 0..frames {
            out[t * channels + c] = window[c * frames + t];
        }
    }
    out
}

/// The `i`-th seeded `[channels, frames]` window: uniform noise with a
/// per-window gain and per-channel offsets. Plain uniform noise drives
/// the untrained bio1 to one class for about 95% of windows; the offsets
/// spread the offline classes (about half land outside the largest).
/// Each window has its own generator, so a chosen one is rebuilt from
/// its index instead of kept.
pub fn seeded_window(seed: u64, i: usize, channels: usize, frames: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let offsets: Vec<f32> = (0..channels).map(|_| 2.0 * rng.unit()).collect();
    let gain = 1.0 + rng.unit();
    let mut w = rng.window(channels * frames);
    for (row, offset) in w.chunks_exact_mut(frames).zip(&offsets) {
        row.iter_mut().for_each(|x| *x = *x * gain + offset);
    }
    w
}

/// Two `[channels·window]` windows and their offline classes.
pub type WindowPair = ([Vec<f32>; 2], [usize; 2]);

/// For each of `sessions` sessions, two seeded windows whose offline
/// classes differ, with those classes. Streaming them alternately makes
/// every window start a new decision under a vote-1, hold-1 policy.
pub fn window_pairs(
    seed: u64,
    sessions: usize,
    channels: usize,
    frames: usize,
    classify: impl Fn(&[f32]) -> usize,
) -> Result<Vec<WindowPair>, String> {
    // Candidate indices by offline class. A fixed number of candidates
    // keeps set-up work the same for every seed.
    let candidates = 16 * sessions;
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    for i in 0..candidates {
        let class = classify(&seeded_window(seed, i, channels, frames));
        if buckets.len() <= class {
            buckets.resize(class + 1, Vec::new());
        }
        buckets[class].push(i);
    }
    let mut pairs = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let mut order: Vec<usize> = (0..buckets.len()).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(buckets[c].len()));
        let (a, b) = (order[0], *order.get(1).unwrap_or(&order[0]));
        if a == b || buckets[b].is_empty() {
            return Err(format!(
                "{candidates} seeded windows hold too few of a second class \
                 to build {sessions} alternating pairs"
            ));
        }
        let ia = buckets[a].pop().expect("largest bucket is non-empty");
        let ib = buckets[b].pop().expect("checked non-empty");
        let window = |i| seeded_window(seed, i, channels, frames);
        pairs.push(([window(ia), window(ib)], [a, b]));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let wa = a.window(1000);
        assert_eq!(wa, b.window(1000));
        assert!(wa.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(wa, Rng::new(8).window(1000));
    }

    #[test]
    fn interleave_is_frame_major() {
        // 2 channels × 3 frames.
        assert_eq!(
            interleave(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0], 2),
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]
        );
    }

    #[test]
    fn pairs_have_distinct_classes() {
        let pairs = window_pairs(3, 5, 2, 2, |w| usize::from(w[0] > 0.5)).unwrap();
        assert_eq!(pairs.len(), 5);
        for (w, c) in &pairs {
            assert_ne!(c[0], c[1]);
            assert_eq!(c[0], usize::from(w[0][0] > 0.5));
            assert_eq!(c[1], usize::from(w[1][0] > 0.5));
        }
        assert!(window_pairs(3, 2, 2, 2, |_| 0).is_err());
    }

    #[test]
    fn argmax_takes_first_maximum() {
        assert_eq!(argmax(&[0.0, 2.0, 2.0, 1.0]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }
}
