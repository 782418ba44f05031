//! Golden numerics: the exact bits of one VGG-11 training step.
//!
//! The GEMM kernels promise bit-identical results on every host and ISA
//! tier (each output element sums in ascending `p` with separate multiply
//! and add). This test pins that promise end to end: the loss and a digest
//! of every gradient bit after one forward + backward step of the
//! benchmark's VGG-11 (width 0.22, 8×8 input) at batch 4, 16 and 40, on
//! the FP32 arm and on the INT8 arm. The constants were captured from the
//! autovectorized kernels that preceded the explicit SIMD tiles; a kernel
//! change that moves any bit of any layer fails here.

use rand::{rngs::StdRng, SeedableRng};
use socflow_nn::loss::softmax_cross_entropy;
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_nn::{Mode, Precision};
use socflow_tensor::Tensor;

/// The loss bits and gradient digest of one step.
type StepBits = (u32, u64);

/// `(batch, fp32 step bits, int8 step bits)`. The batches put the 1×1-map convolutions' `m` (= batch)
/// below and the full-map ones' `m` above their channel count `n`, so
/// `matmul_a_bt` takes both of its packing branches.
const GOLDEN: [(usize, StepBits, StepBits); 3] = [
    (
        4,
        (0x405e75c2, 0xb4271d181af44425),
        (0x406173e6, 0xb1a8f15d9be1e8c4),
    ),
    (
        16,
        (0x404d67e8, 0xa3e0e364f636b970),
        (0x404d4cbc, 0x173db4cd28de7f14),
    ),
    (
        40,
        (0x40385d1b, 0x6e2883bf8c0dfc52),
        (0x40363a07, 0xd2f747b1781142f0),
    ),
];

/// FNV-1a over the bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// One forward + backward step from freshly seeded weights, returning the
/// loss bits and the digest of the flat gradient vector.
fn step(batch: usize, precision: Precision) -> StepBits {
    let cfg = ModelConfig::new(3, 8, 10, 0.22);
    let mut net = ModelKind::Vgg11.build(cfg, &mut StdRng::seed_from_u64(42));
    let mut state = 0x5eed_u64;
    let pixels = (0..batch * 3 * 8 * 8)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    let images = Tensor::from_vec(pixels, [batch, 3, 8, 8]);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % 10).collect();
    let mode = Mode::train(precision);
    let logits = net.forward(&images, mode);
    let (loss, grad) = softmax_cross_entropy(&logits, &labels);
    net.backward(&grad, mode);
    (loss.to_bits(), digest(&net.flat_grads()))
}

#[test]
fn vgg11_fp32_step_bits_are_pinned() {
    for (batch, fp32, _) in GOLDEN {
        assert_eq!(step(batch, Precision::Fp32), fp32, "batch {batch}");
    }
}

#[test]
fn vgg11_int8_step_bits_are_pinned() {
    for (batch, _, int8) in GOLDEN {
        assert_eq!(step(batch, Precision::Int8), int8, "batch {batch}");
    }
}
