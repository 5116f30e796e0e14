//! End-to-end tests of one engine replica with its own worker pool:
//! cross-request coalescing, deadline expiry, bounded-queue backpressure,
//! graceful shutdown with in-flight requests, and fp32-vs-int8 agreement
//! when both precisions answer through a worker-pool replica.

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::InferForward;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{AsyncEngineConfig, GestureClassifier, ServeError, ShardedEngine};
use bioformers::tensor::Tensor;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn small_bioformer(seed: u64) -> Bioformer {
    Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed,
        ..BioformerConfig::bio1()
    })
}

/// One replica with its own worker pool, configured by `cfg`.
fn single(backend: Box<dyn GestureClassifier>, cfg: AsyncEngineConfig) -> ShardedEngine {
    ShardedEngine::builder()
        .with_replica_config(cfg)
        .add_replica(backend)
        .build()
}

/// Requests waiting in the single replica's queue.
fn queue_depth(engine: &ShardedEngine) -> usize {
    engine.stats().per_replica[0].queue_depth
}

/// Normalised windows from the tiny synthetic DB6.
fn tiny_windows(n: usize) -> Tensor {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let data = norm.apply(&train);
    let n = n.min(data.x().dims()[0]);
    Tensor::from_vec(
        data.x().data()[..n * CHANNELS * WINDOW].to_vec(),
        &[n, CHANNELS, WINDOW],
    )
}

fn window_at(windows: &Tensor, i: usize) -> Tensor {
    let sample = CHANNELS * WINDOW;
    Tensor::from_vec(
        windows.data()[i * sample..(i + 1) * sample].to_vec(),
        &[1, CHANNELS, WINDOW],
    )
}

/// A backend that blocks inside `predict_batch` until the test releases it,
/// so tests can deterministically hold a worker busy while they stage the
/// queue. Also records every batch size it executes.
struct GatedBackend {
    classes: usize,
    started: mpsc::Sender<usize>,
    release: Mutex<mpsc::Receiver<()>>,
    seen: Arc<Mutex<Vec<usize>>>,
}

impl GatedBackend {
    /// Returns (backend, started-notifications, release-handle, batch-size log).
    #[allow(clippy::type_complexity)]
    fn new(
        classes: usize,
    ) -> (
        Self,
        mpsc::Receiver<usize>,
        mpsc::Sender<()>,
        Arc<Mutex<Vec<usize>>>,
    ) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let seen = Arc::new(Mutex::new(Vec::new()));
        (
            GatedBackend {
                classes,
                started: started_tx,
                release: Mutex::new(release_rx),
                seen: Arc::clone(&seen),
            },
            started_rx,
            release_tx,
            seen,
        )
    }
}

impl GestureClassifier for GatedBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        self.seen.lock().unwrap().push(n);
        let _ = self.started.send(n);
        // Block until the test sends a release token (or hangs up).
        let _ = self.release.lock().unwrap().recv();
        Tensor::zeros(&[n, self.classes])
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn name(&self) -> &str {
        "gated"
    }
}

#[test]
fn concurrent_clients_get_logits_identical_to_direct_forward() {
    let model = small_bioformer(21);
    let windows = tiny_windows(12);
    let direct = model.forward_infer(&windows);
    let n = windows.dims()[0];

    let engine = Arc::new(single(
        Box::new(model),
        AsyncEngineConfig::default()
            .with_workers(2)
            .with_micro_batch(8)
            .with_linger(Duration::from_millis(1)),
    ));

    // One client thread per window, all submitting concurrently.
    let outputs: Vec<(usize, Tensor)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..n {
            let engine = Arc::clone(&engine);
            let w = window_at(&windows, i);
            handles.push(scope.spawn(move || (i, engine.classify(w).unwrap().logits)));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, logits) in outputs {
        assert_eq!(logits.dims(), &[1, 8]);
        let expect = direct.row(i);
        assert!(
            logits.data().iter().zip(expect).all(|(a, b)| a == b),
            "window {i}: async logits differ from direct forward"
        );
    }
    let stats = Arc::into_inner(engine).unwrap().shutdown();
    assert_eq!(stats.requests, n);
    assert_eq!(stats.windows, n);
    assert_eq!(stats.expired, 0);
}

#[test]
fn backlogged_requests_coalesce_into_shared_batches() {
    let (backend, started, release, seen) = GatedBackend::new(4);
    let engine = single(
        Box::new(backend),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_micro_batch(16)
            .with_linger(Duration::ZERO),
    );

    // First request occupies the single worker inside the gated backend.
    let r0 = engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap();
    assert_eq!(started.recv().unwrap(), 1);

    // Four more queue up behind it while the worker is busy.
    let pending: Vec<_> = (0..4)
        .map(|_| engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap())
        .collect();
    assert_eq!(queue_depth(&engine), 4);

    // Release the first batch, then the coalesced one.
    release.send(()).unwrap();
    assert_eq!(started.recv().unwrap(), 4, "backlog must ride one batch");
    release.send(()).unwrap();

    assert_eq!(r0.wait().unwrap().batch_requests, 1);
    for p in pending {
        let out = p.wait().unwrap();
        assert_eq!(out.batch_requests, 4);
        assert_eq!(out.batch_windows, 4);
    }
    let stats = engine.shutdown();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.coalesced_batches, 1);
    assert!(stats.requests_per_batch() > 2.0);
    assert_eq!(*seen.lock().unwrap(), vec![1, 4]);
}

#[test]
fn deadline_expires_before_service() {
    let (backend, started, release, _seen) = GatedBackend::new(4);
    let engine = single(
        Box::new(backend),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_linger(Duration::ZERO),
    );

    // Hold the worker busy, then queue a request with a tiny deadline.
    let r0 = engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap();
    assert_eq!(started.recv().unwrap(), 1);
    let doomed = engine
        .submit_with_deadline(Tensor::zeros(&[1, 2, 5]), Duration::from_millis(1))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    release.send(()).unwrap();

    assert!(matches!(doomed.wait(), Err(ServeError::DeadlineExpired)));
    assert!(r0.wait().is_ok());
    let stats = engine.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.requests, 1);
}

#[test]
fn declared_backend_shape_rejects_malformed_requests_upfront() {
    let engine = single(
        Box::new(small_bioformer(25)),
        AsyncEngineConfig::default().with_workers(1),
    );
    // Transposed window: rejected at submission (no worker involvement,
    // no shape pinning) because the fp32 backend declares [14, 300].
    assert!(matches!(
        engine.submit(Tensor::zeros(&[1, WINDOW, CHANNELS])),
        Err(ServeError::BadRequest(_))
    ));
    // Correct traffic is unaffected afterwards.
    let out = engine.classify(tiny_windows(1)).unwrap();
    assert_eq!(out.logits.dims(), &[1, 8]);
    let stats = engine.shutdown();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn generous_deadline_is_served() {
    let model = small_bioformer(22);
    let engine = single(
        Box::new(model),
        AsyncEngineConfig::default().with_workers(1),
    );
    let out = engine
        .submit_with_deadline(tiny_windows(2), Duration::from_secs(60))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out.logits.dims(), &[2, 8]);
    assert_eq!(engine.shutdown().expired, 0);
}

#[test]
fn bounded_queue_pushes_back_when_full() {
    let (backend, started, release, _seen) = GatedBackend::new(4);
    let engine = single(
        Box::new(backend),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_linger(Duration::ZERO),
    );

    // Worker busy on r0; r1 fills the capacity-1 queue; r2 must shed.
    let r0 = engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap();
    assert_eq!(started.recv().unwrap(), 1);
    let r1 = engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap();
    assert_eq!(queue_depth(&engine), 1);
    assert_eq!(
        engine.try_submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
        ServeError::QueueFull
    );

    // Draining the queue restores capacity.
    release.send(()).unwrap();
    release.send(()).unwrap();
    assert!(r0.wait().is_ok());
    assert!(r1.wait().is_ok());
    let r3 = engine.try_submit(Tensor::zeros(&[1, 2, 5])).unwrap();
    release.send(()).unwrap();
    assert!(r3.wait().is_ok());
}

#[test]
fn shutdown_drains_inflight_requests() {
    let model = small_bioformer(23);
    let engine = single(
        Box::new(model),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_micro_batch(4)
            .with_linger(Duration::ZERO),
    );

    // Queue a burst, then shut down immediately: every accepted request
    // must still be served (graceful drain), none cancelled.
    let pending: Vec<_> = (0..6)
        .map(|_| engine.submit(tiny_windows(1)).unwrap())
        .collect();
    let stats = engine.shutdown();
    for p in pending {
        let out = p.wait().expect("drained request must be served");
        assert_eq!(out.logits.dims(), &[1, 8]);
    }
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.windows, 6);
    assert_eq!(stats.expired, 0);
}

/// The tentpole acceptance path, worker-pool edition: train → quantize →
/// serve the same windows through fp32 and int8 worker-pool replicas from
/// concurrent clients, and require the precisions to track each other.
#[test]
fn fp32_and_int8_agree_through_async_engines() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = small_bioformer(24);
    let cfg = ProtocolConfig {
        standard_epochs: 1,
        ..ProtocolConfig::quick()
    };
    let _ = run_standard(&mut model, &db, 0, &cfg);

    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let train_data = norm.apply(&train);
    let calib_n = train_data.x().dims()[0].min(32);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("conversion");

    // Sync references computed before the models move into the engines.
    let windows = tiny_windows(10);
    let n = windows.dims()[0];
    let fp32_direct = model.forward_infer(&windows);
    let int8_direct = qmodel.forward_batch(&windows);

    let async_cfg = AsyncEngineConfig::default()
        .with_workers(1)
        .with_micro_batch(8)
        .with_linger(Duration::from_millis(1));
    let fp32 = Arc::new(single(Box::new(model), async_cfg.clone()));
    let int8 = Arc::new(single(Box::new(qmodel), async_cfg));

    let collect = |engine: &Arc<ShardedEngine>| -> Vec<usize> {
        let preds: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..n {
                let engine = Arc::clone(engine);
                let w = window_at(&windows, i);
                handles.push(scope.spawn(move || {
                    let out = engine.classify(w).unwrap();
                    (i, out.predictions[0])
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut by_index = vec![0usize; n];
        for (i, p) in preds {
            by_index[i] = p;
        }
        by_index
    };

    let fp32_preds = collect(&fp32);
    let int8_preds = collect(&int8);

    // Async serving must not change either precision's answers…
    assert_eq!(fp32_preds, fp32_direct.argmax_rows());
    assert_eq!(int8_preds, int8_direct.argmax_rows());
    // …so fp32/int8 agreement matches the sync engines' agreement exactly.
    let agree = fp32_preds
        .iter()
        .zip(int8_preds.iter())
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree as f32 / n as f32 > 0.5,
        "int8 agrees with fp32 on only {agree}/{n} windows"
    );

    let s32 = Arc::into_inner(fp32).unwrap().shutdown();
    let s8 = Arc::into_inner(int8).unwrap().shutdown();
    assert_eq!(s32.requests, n);
    assert_eq!(s8.requests, n);
}
