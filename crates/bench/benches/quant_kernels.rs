//! Criterion micro-benchmarks of the int8 integer kernels vs their fp32
//! counterparts — the host-side view of the quantization speed story.

use bioformer_quant::ibert::{IGelu, ILayerNorm, ISoftmax};
use bioformer_quant::kernels::qgemm_i32;
use bioformer_quant::qtensor::QParams;
use bioformer_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ti8(n: usize, seed: u64) -> Vec<i8> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as i8
        })
        .collect()
}

fn bench_qgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_gemm");
    let a = ti8(31 * 64, 1);
    let b = ti8(256 * 64, 2);
    g.bench_function("qkv_31x64x256", |bench| {
        bench.iter(|| black_box(qgemm_i32(&a, &b, None, 31, 64, 256)))
    });
    // fp32 reference of the same shape.
    let af = Tensor::from_fn(&[31, 64], |i| (i % 13) as f32 - 6.0);
    let bf = Tensor::from_fn(&[256, 64], |i| (i % 7) as f32 - 3.0);
    g.bench_function("fp32_reference_31x64x256", |bench| {
        bench.iter(|| black_box(af.matmul_nt(&bf)))
    });
    g.finish();
}

fn bench_integer_nonlinear(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_nonlinear");
    let sm = ISoftmax::new(1e-3);
    let scores: Vec<i32> = (0..31).map(|i| (i * 37 % 701) - 350).collect();
    let mut out = vec![0i8; 31];
    g.bench_function("i_softmax_row31", |bench| {
        bench.iter(|| {
            sm.apply_row(black_box(&scores), &mut out);
            black_box(out[0])
        })
    });

    let ln = ILayerNorm::new(&[1.0f32; 64], &[0.0f32; 64], QParams::symmetric(4.0));
    let row = ti8(64, 3);
    let mut lnout = vec![0i8; 64];
    g.bench_function("i_layernorm_row64", |bench| {
        bench.iter(|| {
            ln.apply_row(black_box(&row), &mut lnout);
            black_box(lnout[0])
        })
    });

    let gelu = IGelu::new(0.03, QParams::symmetric(4.0));
    g.bench_function("i_gelu_128elems", |bench| {
        bench.iter(|| {
            let mut acc = 0i32;
            for i in 0..128i32 {
                acc += gelu.apply(black_box((i - 64) as i8)) as i32;
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_qgemm, bench_integer_nonlinear);
criterion_main!(benches);
