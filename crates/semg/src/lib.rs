//! Synthetic surface-EMG (sEMG) data generator reproducing the statistical
//! structure of the **Ninapro DB6** dataset used by the Bioformers paper.
//!
//! The real DB6 recordings (10 able-bodied subjects × 10 sessions over 5
//! days, 8 gesture classes, 14 Delsys Trigno electrodes @ 2 kHz) cannot be
//! redistributed, so this crate synthesises signals from a physiological
//! model that preserves exactly the properties the paper's experiments
//! measure:
//!
//! * **Class structure** — each gesture drives a muscle-synergy activation
//!   vector; confusable grasp pairs have nearly collinear synergies
//!   ([`gestures`]), which caps attainable accuracy the way real sEMG
//!   does (the paper's fp32 ceiling is ≈66 %).
//! * **Inter-subject variability with shared structure** — every subject
//!   mixes muscle activity into electrodes through a perturbed copy of a
//!   common base mixing matrix ([`subject`]); the shared component is what
//!   makes the paper's inter-subject pre-training effective (Fig. 3).
//! * **Session-to-session drift** — electrode donning/doffing is modelled
//!   as a random walk on the mixing matrix plus per-session channel gains
//!   ([`session`]), so accuracy decays for test sessions farther from
//!   training (Fig. 2).
//! * **Signal realism** — amplitude-modulated band-limited stochastic
//!   carriers (20–450 Hz at 2 kHz sampling), 50 Hz interference, motion
//!   artefacts and sensor noise ([`signal`]).
//!
//! Windows follow the paper's protocol: 150 ms (300 samples) with a
//! configurable slide ([`windowing`]), and [`ninapro::NinaproDb6`] exposes
//! the session-based train/test split (sessions 1–5 train, 6–10 test).
//!
//! Everything is deterministic given [`spec::DatasetSpec::seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod gestures;
pub mod ninapro;
pub mod session;
pub mod signal;
pub mod spec;
pub mod subject;
pub mod windowing;

pub use dataset::{Normalizer, SemgDataset};
pub use gestures::Gesture;
pub use ninapro::NinaproDb6;
pub use spec::DatasetSpec;

/// Number of sEMG electrodes in Ninapro DB6 (Delsys Trigno array).
pub const CHANNELS: usize = 14;

/// Number of gesture classes (rest + 7 grasps).
pub const GESTURE_CLASSES: usize = 8;

/// Number of modelled muscle groups ("synergies") in the forearm model.
pub const MUSCLES: usize = 6;

/// Sampling rate of the electrodes in Hz.
pub const SAMPLE_RATE: usize = 2000;

/// Window length in samples (150 ms at 2 kHz), matching the paper.
pub const WINDOW: usize = 300;
