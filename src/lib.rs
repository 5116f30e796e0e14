//! # Bioformers — umbrella crate
//!
//! A from-scratch Rust reproduction of *Bioformers: Embedding Transformers
//! for Ultra-Low Power sEMG-based Gesture Recognition* (Burrello et al.,
//! DATE 2022). This crate re-exports the individual subsystem crates so that
//! examples and downstream users need a single dependency:
//!
//! * [`tensor`] — f32 tensors, matmul, conv1d, NN math primitives.
//! * [`simd`] — runtime-dispatched explicit-SIMD microkernels (AVX2 /
//!   FMA / VNNI) behind safe wrappers; the portable tier is the oracle.
//! * [`nn`] — layers with manual backprop, optimizers, training loop.
//! * [`semg`] — synthetic Ninapro-DB6-like sEMG data generator + datasets.
//! * [`core`] — the Bioformer architecture, TEMPONet baseline, the paper's
//!   training protocols and complexity accounting.
//! * [`quant`] — int8 quantization (QAT + I-BERT-style integer inference).
//! * [`gap8`] — analytical GAP8 MCU latency/energy/memory deployment model.
//!
//! # Quickstart
//!
//! ```
//! use bioformers::semg::{DatasetSpec, NinaproDb6};
//!
//! // A miniature synthetic DB6: 2 subjects, 2 sessions, deterministic.
//! let spec = DatasetSpec::tiny();
//! let db = NinaproDb6::generate(&spec);
//! assert_eq!(db.subjects().len(), 2);
//! ```
//!
//! # Serving
//!
//! The [`serve`] module unifies every precision behind one infer-only
//! trait, [`serve::GestureClassifier`] — the same trained network answers
//! as fp32 or as the fully-integer int8 pipeline the MCU runs, with no
//! model clones per request ([`nn::InferForward`]). One engine sits on
//! top, [`serve::ShardedEngine`]: a submission API over N ≥ 1 replicas,
//! each a bounded MPSC queue feeding W ≥ 0 workers that coalesce requests
//! from many clients into shared micro-batches, with per-request
//! deadlines, backpressure, graceful shutdown, latency-aware routing,
//! adaptive linger, quarantine with canary-probe re-admission and one
//! stats row per replica (`examples/serve_sharded.rs`). A replica with
//! `workers: 0` serves inline on the caller's thread — the offline
//! evaluation topology (`examples/serve_batch.rs`). The engine implements
//! the [`serve::Engine`] trait, so clients are generic over topology, and the
//! [`serve::StreamSession`] layer turns a **raw sEMG sample stream** into
//! debounced [`serve::GestureEvent`] decisions through any engine —
//! bit-matching the offline batch path (`examples/serve_stream.rs`).
//! `docs/serving.md` is the architecture guide.
//!
//! See `examples/` for end-to-end training, quantization and deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;

pub use bioformer_core as core;
pub use bioformer_gap8 as gap8;
pub use bioformer_nn as nn;
pub use bioformer_quant as quant;
pub use bioformer_semg as semg;
pub use bioformer_simd as simd;
pub use bioformer_tensor as tensor;
