//! Criterion micro-benchmarks of the fp32 compute kernels (host-side
//! throughput; the on-device numbers come from the GAP8 model).

use bioformer_tensor::conv::{conv1d_forward, Conv1dSpec};
use bioformer_tensor::ops::{layernorm_forward, softmax_rows};
use bioformer_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn t(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(dims, |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    // QKV-projection shape of Bio1 at batch 1 (31 tokens).
    let a = t(&[31, 64], 1);
    let b = t(&[256, 64], 2);
    g.bench_function("qkv_31x64x256_nt", |bench| {
        bench.iter(|| black_box(a.matmul_nt(&b)))
    });
    // Attention score shape.
    let q = t(&[31, 32], 3);
    let k = t(&[31, 32], 4);
    g.bench_function("scores_31x32x31_nt", |bench| {
        bench.iter(|| black_box(q.matmul_nt(&k)))
    });
    // Batched linear (training shape).
    let xb = t(&[992, 64], 5);
    let w = t(&[128, 64], 6);
    g.bench_function("fc1_992x64x128_nt", |bench| {
        bench.iter(|| black_box(xb.matmul_nt(&w)))
    });
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv1d");
    let x = t(&[14, 300], 7);
    let w10 = t(&[64, 14, 10], 8);
    let b64 = Tensor::zeros(&[64]);
    g.bench_function("patch_f10", |bench| {
        bench.iter(|| black_box(conv1d_forward(&x, &w10, &b64, Conv1dSpec::patch(10))))
    });
    // TEMPONet-style dilated conv.
    let xt = t(&[32, 300], 9);
    let wt = t(&[32, 32, 3], 10);
    let bt = Tensor::zeros(&[32]);
    let spec = Conv1dSpec {
        stride: 1,
        padding: 2,
        dilation: 2,
    };
    g.bench_function("tcn_dilated_32x32x3", |bench| {
        bench.iter(|| black_box(conv1d_forward(&xt, &wt, &bt, spec)))
    });
    g.finish();
}

fn bench_rowwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("rowwise");
    let scores = t(&[248, 31], 11);
    g.bench_function("softmax_248x31", |bench| {
        bench.iter(|| black_box(softmax_rows(&scores)))
    });
    let x = t(&[31, 64], 12);
    let gamma = Tensor::ones(&[64]);
    let beta = Tensor::zeros(&[64]);
    g.bench_function("layernorm_31x64", |bench| {
        bench.iter(|| black_box(layernorm_forward(&x, &gamma, &beta)))
    });
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_rowwise);
criterion_main!(benches);
