//! Helpers shared by the serving examples (not an example itself: Cargo
//! only auto-discovers top-level `examples/*.rs` files and directories
//! with a `main.rs`).

use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::Engine;
use bioformers::tensor::Tensor;

/// Closed-loop clients driving any [`Engine`]: each owns an interleaved
/// slice of `windows` and submits them one at a time. The same function
/// drives a single worker-pool replica and a multi-replica pool — topology
/// is the engine's business, not the client's.
pub fn drive_clients(engine: &dyn Engine, windows: &Tensor, clients: usize) -> Vec<usize> {
    let n = windows.dims()[0];
    let sample = CHANNELS * WINDOW;
    let mut preds = vec![0usize; n];
    let outputs: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = c;
                while i < n {
                    let w = Tensor::from_vec(
                        windows.data()[i * sample..(i + 1) * sample].to_vec(),
                        &[1, CHANNELS, WINDOW],
                    );
                    let out = engine.classify(w).expect("serve");
                    mine.push((i, out.predictions[0]));
                    i += clients;
                }
                mine
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    for (i, p) in outputs {
        preds[i] = p;
    }
    preds
}
