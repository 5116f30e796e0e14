//! Streaming serving demo: a live Ninapro DB6 session replayed **sample by
//! sample** through a [`StreamSession`] — online sliding-window extraction,
//! per-channel normalization, int8 inference through a worker-pool
//! [`ShardedEngine`] replica,
//! and majority-vote debouncing into typed [`GestureEvent`]s — then checked
//! bit-exactly against the offline batch path.
//!
//! ```text
//! cargo run --release --example serve_stream
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::windowing::extract_all_into;
use bioformers::semg::{DatasetSpec, Gesture, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::stream::confidence;
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, Engine, GestureClassifier, GestureEvent, ShardedEngine,
    StreamConfig, StreamSession,
};
use bioformers::tensor::Tensor;
use std::time::Duration;

fn main() {
    // 1. Data + a quickly-trained Bioformer, quantized to int8 — the
    //    precision the paper deploys on the MCU.
    println!("generating tiny synthetic DB6 + training a small Bioformer...");
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed: 1,
        ..BioformerConfig::bio1()
    });
    let outcome = run_standard(&mut model, &db, 0, &ProtocolConfig::quick());
    println!(
        "fp32 test accuracy after quick training: {:.1}%\n",
        outcome.overall * 100.0
    );

    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let train_data = norm.apply(&train);
    let calib_n = train_data.x().dims()[0].min(64);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut model);
    let qmodel = std::sync::Arc::new(
        QuantBioformer::convert(model.config(), &dict, &calib).expect("quantization"),
    );

    // 2. One continuous held-out session recording: every gesture
    //    repetition back to back, exactly what the electrodes would
    //    deliver live.
    let session = db.spec().sessions / 2; // first held-out session
    let (signal, spans) = db.session_signal(0, session);
    let frames = signal.dims()[1];
    let slide = db.spec().slide;
    println!(
        "replaying subject 0 / session {session}: {frames} frames x {CHANNELS} channels \
         ({:.1} s of signal), window {WINDOW}, slide {slide}\n",
        frames as f32 / 2000.0
    );

    // 3. A streaming session over the int8 engine: push 25 ms bursts (the
    //    cadence a DMA buffer would fire at), get debounced events back.
    let engine = std::sync::Arc::new(
        ShardedEngine::builder()
            .with_replica_config(
                AsyncEngineConfig::default()
                    .with_workers(2)
                    .with_micro_batch(8)
                    .with_linger(Duration::from_micros(200)),
            )
            .add_replica(Box::new(std::sync::Arc::clone(&qmodel)))
            .build(),
    );
    let policy = DecisionPolicy {
        vote_depth: 5,
        min_hold: 3,
        confidence_floor: 0.30,
    };
    let cfg = StreamConfig::db6()
        .with_slide(slide)
        .with_lookahead(4)
        .with_policy(policy.clone())
        .with_normalizer(norm.clone());
    let mut session_stream =
        StreamSession::new(std::sync::Arc::clone(&engine) as _, cfg).expect("stream config");

    let stream: Vec<f32> = {
        let mut out = Vec::with_capacity(CHANNELS * frames);
        for t in 0..frames {
            for ch in 0..CHANNELS {
                out.push(signal.data()[ch * frames + t]);
            }
        }
        out
    };
    let burst = 50 * CHANNELS; // 25 ms of interleaved frames
    let mut events: Vec<GestureEvent> = Vec::new();
    for part in stream.chunks(burst) {
        events.extend(session_stream.push_samples(part).expect("stream push"));
    }
    let summary = session_stream.finish().expect("stream finish");
    events.extend(summary.events.iter().cloned());

    // 4. The decision timeline against the session's ground-truth spans.
    let truth_at = |window: usize| -> usize {
        let center = window * slide + WINDOW / 2;
        spans
            .iter()
            .find(|(_, r)| r.contains(&center))
            .map_or(0, |(g, _)| *g)
    };
    println!("decision timeline (ground truth in brackets):");
    for e in &events {
        if let GestureEvent::Started { window, .. } = e {
            println!(
                "  {e}   [truth: {}]",
                Gesture::from_label(truth_at(*window))
            );
        }
    }
    let decided = summary.windows;
    let mut active: Option<usize> = None;
    let mut starts = events.iter().filter_map(|e| match e {
        GestureEvent::Started { class, window, .. } => Some((*window, *class)),
        _ => None,
    });
    let mut next = starts.next();
    let mut correct = 0usize;
    for w in 0..decided {
        while let Some((at, class)) = next {
            if at <= w {
                active = Some(class);
                next = starts.next();
            } else {
                break;
            }
        }
        if active == Some(truth_at(w)) {
            correct += 1;
        }
    }
    println!(
        "\n{decided} windows streamed; debounced decisions match ground truth on \
         {:.1}% of windows ({} gesture events)",
        correct as f32 / decided.max(1) as f32 * 100.0,
        events.len(),
    );

    // 5. The offline-equivalence guarantee, checked live: extract every
    //    window offline, normalize, run one predict_batch — the streamed
    //    predictions must bit-match.
    let mut buf = Vec::new();
    let n = extract_all_into(&signal, slide, &mut buf);
    for w in buf.chunks_mut(CHANNELS * WINDOW) {
        norm.apply_window(w);
    }
    // The same int8 instance the streaming engine serves from (shared
    // behind the Arc), so the comparison cannot drift on conversion.
    let logits = qmodel.predict_batch(&Tensor::from_vec(buf, &[n, CHANNELS, WINDOW]));
    let offline_preds = logits.argmax_rows();
    let offline_confs: Vec<f32> = offline_preds
        .iter()
        .enumerate()
        .map(|(i, &p)| confidence(logits.row(i), p))
        .collect();
    assert_eq!(
        summary.predictions, offline_preds,
        "stream/offline equivalence violated"
    );
    assert_eq!(summary.confidences, offline_confs);
    println!(
        "stream/offline equivalence: {n} streamed window predictions bit-match the \
         offline batch path ✓"
    );

    // Shut down through the unified trait: the same call works for any
    // engine topology behind the stream.
    // The session (finished above) held the only other reference.
    let engine = std::sync::Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("session released its engine"));
    let backends = Engine::backends(&engine).join("+");
    let stats = Engine::shutdown(Box::new(engine));
    println!(
        "\nengine on {} served {} windows in {} batches ({:.1} req/batch, p95 {:?})",
        backends,
        stats.windows,
        stats.batches,
        stats.requests_per_batch(),
        stats.latency.p95,
    );
}
