//! Symmetric per-tensor INT8 quantization.
//!
//! This module provides the numeric substrate for SoCFlow's NPU training
//! path. Mobile NPUs (Hexagon DSP and friends) execute INT8 multiply-
//! accumulate with i32 accumulators; training on them requires quantizing
//! weights, activations and gradients. We implement:
//!
//! - [`QuantParams`]: a symmetric scale chosen from the tensor's max-|x|;
//! - [`quantize`] / [`dequantize`] round-trips;
//! - [`fake_quant`]: quantize-dequantize in f32, the standard
//!   quantization-aware-training forward transform whose backward is the
//!   straight-through estimator (identity inside the clip range);
//! - [`quantized_matmul`]: an actual INT8×INT8→i32 GEMM (backed by the
//!   register-blocked integer kernel in [`crate::linalg`]) — the execution
//!   path of the mixed-precision INT8 replica arm, with per-tensor scales
//!   applied once at the i32→f32 epilogue.
//!
//! The NiTi-style integer optimizer in `socflow-nn` builds on these
//! primitives.

use crate::profile::{KernelOp, Timer};
use crate::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Quantization range of signed INT8 (symmetric; -128 is unused so the range
/// is symmetric around zero, as in most NPU kernels).
pub const INT8_MAX: f32 = 127.0;

/// A low-precision number format supported by mobile NPUs.
///
/// The SoCFlow paper's §5 notes that newer NPUs (Snapdragon 8gen1/8gen2)
/// support INT4/INT8/INT16/FP16 concurrently; this enum parameterizes the
/// fake-quantization transform so training can run in any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantFormat {
    /// 4-bit signed integer, symmetric (±7).
    Int4,
    /// 8-bit signed integer, symmetric (±127).
    Int8,
    /// 16-bit signed integer, symmetric (±32767).
    Int16,
    /// IEEE 754 half precision (10-bit mantissa).
    Fp16,
}

impl QuantFormat {
    /// Maximum representable integer magnitude of the symmetric grid
    /// (unused for [`QuantFormat::Fp16`]).
    pub fn grid_max(self) -> f32 {
        match self {
            QuantFormat::Int4 => 7.0,
            QuantFormat::Int8 => 127.0,
            QuantFormat::Int16 => 32767.0,
            QuantFormat::Fp16 => f32::NAN, // not a fixed grid
        }
    }

    /// Bytes per value on the wire.
    pub fn wire_bytes(self) -> f64 {
        match self {
            QuantFormat::Int4 => 0.5,
            QuantFormat::Int8 => 1.0,
            QuantFormat::Int16 | QuantFormat::Fp16 => 2.0,
        }
    }

    /// Fake-quantizes a tensor to this format: integer formats quantize to
    /// the symmetric grid scaled by max-|x|; FP16 rounds the mantissa to
    /// 10 bits (flushing below-half-min-normal values to zero).
    pub fn fake_quant(self, t: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.fake_quant_into(t, &mut out);
        out
    }

    /// [`QuantFormat::fake_quant`] writing into `out`, reusing its storage.
    ///
    /// The quantize→dequantize round-trip is fused into a single output pass
    /// (one read of `t` for the scale, one read-transform-write), so the INT8
    /// side of mixed precision produces no intermediate tensor.
    pub fn fake_quant_into(self, t: &Tensor, out: &mut Tensor) {
        let _timer = Timer::start(KernelOp::Quant);
        out.resize(t.shape().clone());
        let od = out.data_mut();
        match self {
            QuantFormat::Fp16 => {
                for (o, &v) in od.iter_mut().zip(t.data()) {
                    *o = fp16_round(v);
                }
            }
            _ => {
                let m = t.abs_max();
                let gm = self.grid_max();
                let scale = if m == 0.0 { 1.0 } else { m / gm };
                for (o, &v) in od.iter_mut().zip(t.data()) {
                    *o = round_clamp(v / scale, gm) * scale;
                }
            }
        }
    }
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuantFormat::Int4 => "INT4",
            QuantFormat::Int8 => "INT8",
            QuantFormat::Int16 => "INT16",
            QuantFormat::Fp16 => "FP16",
        };
        f.write_str(s)
    }
}

/// Rounds an f32 to the nearest representable IEEE half-precision value
/// (returned as f32).
pub fn fp16_round(v: f32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    // clamp to f16 range
    const F16_MAX: f32 = 65504.0;
    if v > F16_MAX {
        return F16_MAX;
    }
    if v < -F16_MAX {
        return -F16_MAX;
    }
    if v.abs() < 6.1e-5 {
        // subnormal range: quantize to multiples of the smallest subnormal
        const SUB: f32 = 5.960_464_5e-8;
        return (v / SUB).round() * SUB;
    }
    // keep 10 mantissa bits: round in the scaled-integer domain
    let bits = v.to_bits();
    let shift = 13u32; // 23 - 10 mantissa bits
    let mask = (1u32 << shift) - 1;
    let rounded = bits.wrapping_add(1 << (shift - 1)) & !mask;
    f32::from_bits(rounded)
}

/// 1.5·2²³: for `|c| < 2²²`, `c + ROUND_MAGIC` has no fraction bits left,
/// so the addition rounds `c` to the nearest integer (ties to even), and the
/// sum's low mantissa bits hold that integer in two's complement.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `x.round().clamp(-grid_max, grid_max)`, bit for bit — `-0.0` and NaN
/// included — without the `roundf` libm call that `f32::round` compiles to
/// on the baseline x86_64 target, so loops over it vectorize.
///
/// Clamps first (rounding commutes with clamping to an integer bound), then
/// rounds by adding and subtracting 1.5·2²³. That rounds ties to even, so
/// an exact tie (`|c - r| == 0.5`, exact here) moves to `c ± 0.5`: half
/// away from zero, as [`f32::round`] does. `copysign` restores the `-0.0`
/// of negative inputs that round to zero; a NaN passes through the
/// additions quieted, as `roundf` leaves it. `grid_max` must be a
/// non-negative integer below 2²² (the grids here are 7, 127 and 32767).
#[inline(always)]
pub fn round_clamp(x: f32, grid_max: f32) -> f32 {
    let c = x.clamp(-grid_max, grid_max);
    let r = (c + ROUND_MAGIC) - ROUND_MAGIC;
    let r = if (c - r).abs() == 0.5 {
        c + 0.5f32.copysign(c)
    } else {
        r
    };
    r.copysign(c)
}

/// Symmetric per-tensor quantization parameters: `real = scale * int`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value magnitude represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses a scale so that the tensor's maximum magnitude maps to ±127.
    ///
    /// An all-zero tensor gets a scale of 1.0 (any scale round-trips zeros).
    pub fn from_tensor(t: &Tensor) -> Self {
        let m = t.abs_max();
        QuantParams {
            scale: if m == 0.0 { 1.0 } else { m / INT8_MAX },
        }
    }

    /// Quantizes one value to the clipped INT8 grid.
    pub fn quantize_value(&self, v: f32) -> i8 {
        let q = round_clamp(v / self.scale, INT8_MAX);
        // `q` is an integer in ±127, or NaN, which `as i8` maps to 0. A
        // saturating float cast does not vectorize; reading the integer off
        // the magic sum does: `ROUND_MAGIC`'s low byte is zero, so the sum's
        // low byte is `q` in two's complement.
        let q = if q.is_nan() { 0.0 } else { q };
        (q + ROUND_MAGIC).to_bits() as i8
    }

    /// Recovers the real value of one quantized step.
    pub fn dequantize_value(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// Quantizes an f32 tensor to INT8 with the given parameters.
pub fn quantize(t: &Tensor, p: QuantParams) -> Vec<i8> {
    t.data().iter().map(|&v| p.quantize_value(v)).collect()
}

/// [`quantize`] writing into a caller-owned buffer (cleared and refilled),
/// so steady-state integer forwards allocate nothing.
pub fn quantize_into(t: &Tensor, p: QuantParams, out: &mut Vec<i8>) {
    let _timer = Timer::start(KernelOp::Quant);
    out.clear();
    out.extend(t.data().iter().map(|&v| p.quantize_value(v)));
}

/// Quantizes a rank-2 tensor's *transpose* into `out`: `t: (r, c)` yields a
/// row-major `(c, r)` i8 buffer. This feeds the `(n, k)` operand of
/// [`crate::linalg::matmul_i8_a_bt_slices`] without materializing an f32
/// transpose first.
///
/// # Panics
/// Panics if `t` is not rank-2.
pub fn quantize_transposed_into(t: &Tensor, p: QuantParams, out: &mut Vec<i8>) {
    let _timer = Timer::start(KernelOp::Quant);
    let (r, c) = t.shape().as_matrix();
    out.clear();
    out.resize(r * c, 0);
    let d = t.data();
    for (i, row) in d.chunks_exact(c).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * r + i] = p.quantize_value(v);
        }
    }
}

/// Dequantizes an INT8 buffer back to an f32 tensor of the given shape.
///
/// # Panics
/// Panics if `q.len() != shape.len()`.
pub fn dequantize(q: &[i8], shape: impl Into<Shape>, p: QuantParams) -> Tensor {
    let data = q.iter().map(|&v| p.dequantize_value(v)).collect();
    Tensor::from_vec(data, shape)
}

/// [`dequantize`] writing into `out`, reusing its storage.
///
/// `dequantize_into(quantize(x), ..)` equals [`fake_quant`]`(x)` for finite
/// inputs (both compute `round(clamp(v/s)) * s` with the same operand
/// order), so integer-path layers can cache the dequantized activations and
/// leave every backward pass untouched. The two differ only in the sign of
/// zero: an input in (−s/2, 0] becomes −0.0 under `fake_quant` but +0.0
/// here, since the i8 grid has no −0.
pub fn dequantize_into(q: &[i8], shape: impl Into<Shape>, p: QuantParams, out: &mut Tensor) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(shape.into());
    let od = out.data_mut();
    assert_eq!(q.len(), od.len(), "dequantize_into: length mismatch");
    for (o, &v) in od.iter_mut().zip(q) {
        *o = p.dequantize_value(v);
    }
}

/// Quantize-dequantize in f32 (the QAT "fake quantization" transform).
///
/// Forward: `round(clamp(x/s)) * s`. The corresponding backward pass is the
/// straight-through estimator: gradients flow unchanged for values inside the
/// representable range and are zeroed outside; [`ste_mask`] computes that
/// mask.
pub fn fake_quant(t: &Tensor, p: QuantParams) -> Tensor {
    let _timer = Timer::start(KernelOp::Quant);
    t.map(|v| round_clamp(v / p.scale, INT8_MAX) * p.scale)
}

/// [`fake_quant`] applied in place: fuses quantize→dequantize into one
/// read-modify-write sweep over the tensor's storage.
pub fn fake_quant_inplace(t: &mut Tensor, p: QuantParams) {
    let _timer = Timer::start(KernelOp::Quant);
    t.map_inplace(|v| round_clamp(v / p.scale, INT8_MAX) * p.scale);
}

/// Straight-through-estimator mask: 1.0 where the value is inside the
/// representable range `±127·scale`, else 0.0.
pub fn ste_mask(t: &Tensor, p: QuantParams) -> Tensor {
    let lim = INT8_MAX * p.scale;
    t.map(|v| if v.abs() <= lim { 1.0 } else { 0.0 })
}

/// Worst-case absolute rounding error of [`fake_quant`] for in-range values:
/// half a quantization step.
pub fn max_rounding_error(p: QuantParams) -> f32 {
    p.scale * 0.5
}

/// INT8×INT8→i32 matrix multiply, dequantized to f32 at the end.
///
/// `a: (m, k)` with params `pa`; `b: (k, n)` with params `pb`. The result
/// equals `dequant(int_gemm(quant(a), quant(b)))`, exactly what an NPU kernel
/// would produce.
///
/// # Panics
/// Panics if the inner dimensions disagree or buffer lengths are wrong.
pub fn quantized_matmul(
    a: &[i8],
    pa: QuantParams,
    b: &[i8],
    pb: QuantParams,
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    // Pack Bᵀ so both operands of every dot product are contiguous, then run
    // the register-blocked integer kernel. i32 accumulation is exact, so the
    // packing changes nothing numerically.
    let mut bt = vec![0i8; n * k];
    for (p, brow) in b.chunks_exact(n).enumerate() {
        for (j, &bv) in brow.iter().enumerate() {
            bt[j * k + p] = bv;
        }
    }
    let mut out = vec![0i32; m * n];
    crate::linalg::matmul_i8_a_bt_slices(a, &bt, &mut out, m, k, n);
    let s = pa.scale * pb.scale;
    Tensor::from_vec(
        out.into_iter().map(|v| v as f32 * s).collect(),
        Shape::from([m, n]),
    )
}

/// Adds simulated quantization noise to a gradient tensor, as integer
/// training does when gradients themselves are kept in INT8.
///
/// The noise is deterministic (hash of the index and `seed`), uniform in
/// ±half a quantization step of the gradient's own scale — the worst-case
/// rounding error model used in integer-training analyses.
pub fn gradient_quant_noise(grad: &Tensor, seed: u64) -> Tensor {
    let mut out = Tensor::default();
    gradient_quant_noise_into(grad, seed, &mut out);
    out
}

/// [`gradient_quant_noise`] writing into `out`, reusing its storage.
pub fn gradient_quant_noise_into(grad: &Tensor, seed: u64, out: &mut Tensor) {
    let _timer = Timer::start(KernelOp::Quant);
    let p = QuantParams::from_tensor(grad);
    let half = max_rounding_error(p);
    out.resize(grad.shape().clone());
    for (i, (o, &g)) in out.data_mut().iter_mut().zip(grad.data()).enumerate() {
        let mut h = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        let u = (h >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
        *o = g + (2.0 * u - 1.0) * half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_half_step() {
        let t = Tensor::from_vec(vec![-1.0, -0.33, 0.0, 0.5, 0.99, 1.27], [6]);
        let p = QuantParams::from_tensor(&t);
        let q = quantize(&t, p);
        let back = dequantize(&q, [6], p);
        for (orig, rec) in t.data().iter().zip(back.data()) {
            assert!((orig - rec).abs() <= max_rounding_error(p) + 1e-6);
        }
    }

    #[test]
    fn extremes_map_to_127() {
        let t = Tensor::from_vec(vec![-2.0, 2.0], [2]);
        let p = QuantParams::from_tensor(&t);
        let q = quantize(&t, p);
        assert_eq!(q, vec![-127, 127]);
    }

    #[test]
    fn zero_tensor_roundtrips() {
        let t = Tensor::zeros([4]);
        let p = QuantParams::from_tensor(&t);
        assert_eq!(p.scale, 1.0);
        let q = quantize(&t, p);
        assert_eq!(dequantize(&q, [4], p), t);
    }

    #[test]
    fn fake_quant_equals_quant_dequant() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.37).sin()).collect(), [64]);
        let p = QuantParams::from_tensor(&t);
        let fq = fake_quant(&t, p);
        let qd = dequantize(&quantize(&t, p), [64], p);
        for (a, b) in fq.data().iter().zip(qd.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fused_variants_match_allocating() {
        let t = Tensor::from_vec((0..96).map(|i| (i as f32 * 0.37).sin()).collect(), [96]);
        let p = QuantParams::from_tensor(&t);
        let mut inplace = t.clone();
        fake_quant_inplace(&mut inplace, p);
        assert_eq!(inplace, fake_quant(&t, p));

        for f in [
            QuantFormat::Int4,
            QuantFormat::Int8,
            QuantFormat::Int16,
            QuantFormat::Fp16,
        ] {
            // recycled buffer of the wrong shape must be resized + overwritten
            let mut out = Tensor::full([3], 9.0);
            f.fake_quant_into(&t, &mut out);
            assert_eq!(out, f.fake_quant(&t));
        }

        let mut noisy = Tensor::default();
        gradient_quant_noise_into(&t, 42, &mut noisy);
        assert_eq!(noisy, gradient_quant_noise(&t, 42));
    }

    #[test]
    fn ste_mask_zeroes_out_of_range() {
        let p = QuantParams { scale: 0.01 }; // range ±1.27
        let t = Tensor::from_vec(vec![0.5, -1.2, 2.0, -3.0], [4]);
        assert_eq!(ste_mask(&t, p).data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn quantized_matmul_close_to_f32() {
        let m = 4;
        let k = 6;
        let n = 5;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.13).sin()).collect(),
            [m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect(),
            [k, n],
        );
        let pa = QuantParams::from_tensor(&a);
        let pb = QuantParams::from_tensor(&b);
        let qa = quantize(&a, pa);
        let qb = quantize(&b, pb);
        let qres = quantized_matmul(&qa, pa, &qb, pb, m, k, n);
        let fres = crate::linalg::matmul(&a, &b);
        // Error per output element is bounded by k * (sa*|b| + sb*|a| + sa*sb) / 2-ish;
        // for unit-magnitude inputs a loose bound of k * 2.5 * max_step suffices.
        let tol = k as f32 * 1.5 * (pa.scale + pb.scale);
        for (qv, fv) in qres.data().iter().zip(fres.data()) {
            assert!((qv - fv).abs() <= tol, "{qv} vs {fv} (tol {tol})");
        }
    }

    #[test]
    fn quantized_matmul_matches_widened_reference_exactly() {
        // The integer path is exact: i32 accumulation with one f32 scale at
        // the end must reproduce the naive widened product bit for bit.
        let (m, k, n) = (7, 19, 11);
        let mut state = 0x5EEDu64;
        let mut next_i8 = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next_i8()).collect();
        let pa = QuantParams { scale: 0.031 };
        let pb = QuantParams { scale: 0.27 };
        let got = quantized_matmul(&a, pa, &b, pb, m, k, n);
        let s = pa.scale * pb.scale;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
                assert_eq!(got.data()[i * n + j], acc as f32 * s);
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_quantize() {
        let t = Tensor::from_vec(
            (0..24).map(|i| ((i as f32) * 0.7).sin() * 2.0).collect(),
            [4, 6],
        );
        let p = QuantParams::from_tensor(&t);

        let mut q = vec![5i8; 3]; // wrong size: must be cleared and refilled
        quantize_into(&t, p, &mut q);
        assert_eq!(q, quantize(&t, p));

        let mut back = Tensor::full([2], 9.0);
        dequantize_into(&q, [4, 6], p, &mut back);
        assert_eq!(back, dequantize(&q, [4, 6], p));

        // dequantize(quantize(x)) equals fake_quant(x); bitwise here because
        // no input lies in (−s/2, 0] (see `roundtrip_loses_only_the_sign_of_zero`).
        let fq = fake_quant(&t, p);
        assert_eq!(
            back.data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            fq.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );

        // transposed quantization == quantize(transpose)
        let mut qt = Vec::new();
        quantize_transposed_into(&t, p, &mut qt);
        let tt = crate::linalg::transpose(&t);
        assert_eq!(qt, quantize(&tt, p));
    }

    /// `dequantize(quantize(x))` equals `fake_quant(x)` in value everywhere
    /// and in bits everywhere but one place: an input in (−s/2, 0], which
    /// rounds to zero, keeps its sign through `fake_quant` (−0.0), while the
    /// i8 round trip has no −0 and yields +0.0.
    #[test]
    fn roundtrip_loses_only_the_sign_of_zero() {
        let p = QuantParams { scale: 0.5 };
        let signed_zero = [-0.0, -1e-30, -0.1, -0.2499];
        let exact = [0.0, 1e-30, 0.1, 0.25, -0.25, -0.26, 0.7, -0.7, 60.0, -70.0];
        let xs: Vec<f32> = signed_zero.iter().chain(&exact).copied().collect();
        let t = Tensor::from_vec(xs.clone(), [xs.len()]);
        let fq = fake_quant(&t, p);
        let rt = dequantize(&quantize(&t, p), [xs.len()], p);
        for (i, ((&x, &f), &r)) in xs.iter().zip(fq.data()).zip(rt.data()).enumerate() {
            assert_eq!(f, r, "value at {x}");
            if i < signed_zero.len() {
                assert_eq!((f.to_bits(), r.to_bits()), ((-0.0f32).to_bits(), 0), "{x}");
            } else {
                assert_eq!(f.to_bits(), r.to_bits(), "bits at {x}");
            }
        }
    }

    /// Checks `round_clamp` against `round().clamp()` bit for bit at every
    /// grid, and `quantize_value` against the old `as i8` cast.
    fn check_round_clamp(x: f32) {
        for gm in [7.0f32, 127.0, 32767.0] {
            let want = x.round().clamp(-gm, gm);
            assert_eq!(
                round_clamp(x, gm).to_bits(),
                want.to_bits(),
                "{x:e} ({:#010x}) at ±{gm}",
                x.to_bits()
            );
        }
        let unit = QuantParams { scale: 1.0 };
        let want = x.round().clamp(-INT8_MAX, INT8_MAX) as i8;
        assert_eq!(
            unit.quantize_value(x),
            want,
            "{x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_clamp_matches_round_then_clamp() {
        // A prime stride over every f32 bit pattern: both signs, every
        // exponent, NaN payloads.
        for bits in (0..=u32::MAX).step_by(4099) {
            check_round_clamp(f32::from_bits(bits));
        }
        // Every tie k.5 up past the largest grid, and its ±1-ulp neighbours.
        for k in 0..=32768u32 {
            let tie = k as f32 + 0.5;
            for v in [tie, -tie] {
                for x in [v, v.next_up(), v.next_down()] {
                    check_round_clamp(x);
                }
            }
        }
        for x in [
            0.0,
            -0.0,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFC0_1234), // negative quiet NaN with payload
        ] {
            check_round_clamp(x);
        }
    }

    /// All 2³² inputs. Run with
    /// `cargo test --release -p socflow-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive: about a minute in release"]
    fn round_clamp_matches_round_then_clamp_exhaustively() {
        for bits in 0..=u32::MAX {
            check_round_clamp(f32::from_bits(bits));
        }
    }

    #[test]
    fn formats_rank_by_fidelity() {
        // finer formats must reconstruct with smaller error
        let t = Tensor::from_vec(
            (0..256).map(|i| ((i as f32) * 0.41).sin() * 3.0).collect(),
            [256],
        );
        let err = |f: QuantFormat| f.fake_quant(&t).sub(&t).l2_norm();
        let (e4, e8, e16) = (
            err(QuantFormat::Int4),
            err(QuantFormat::Int8),
            err(QuantFormat::Int16),
        );
        let ef16 = err(QuantFormat::Fp16);
        assert!(e4 > e8, "INT4 {e4} must be coarser than INT8 {e8}");
        assert!(e8 > e16, "INT8 {e8} must be coarser than INT16 {e16}");
        assert!(ef16 < e8, "FP16 {ef16} should beat INT8 {e8} on this range");
    }

    #[test]
    fn format_fake_quant_matches_int8_path() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.37).sin()).collect(), [64]);
        let via_format = QuantFormat::Int8.fake_quant(&t);
        let via_params = fake_quant(&t, QuantParams::from_tensor(&t));
        for (a, b) in via_format.data().iter().zip(via_params.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fp16_round_properties() {
        // exactly representable values survive
        for v in [0.0f32, 1.0, -2.5, 0.125, 65504.0] {
            assert_eq!(fp16_round(v), v, "{v}");
        }
        // overflow clamps
        assert_eq!(fp16_round(1e6), 65504.0);
        assert_eq!(fp16_round(-1e6), -65504.0);
        // relative error below 2^-10 for normal values
        for v in [std::f32::consts::PI, 1234.567, -0.003_456_7] {
            let r = fp16_round(v);
            assert!(((r - v) / v).abs() < 1.0 / 1024.0, "{v} → {r}");
        }
        // idempotent
        let r = fp16_round(std::f32::consts::E);
        assert_eq!(fp16_round(r), r);
    }

    #[test]
    fn wire_bytes_per_format() {
        assert_eq!(QuantFormat::Int4.wire_bytes(), 0.5);
        assert_eq!(QuantFormat::Int8.wire_bytes(), 1.0);
        assert_eq!(QuantFormat::Fp16.wire_bytes(), 2.0);
    }

    #[test]
    fn gradient_noise_bounded_and_deterministic() {
        let g = Tensor::from_vec((0..32).map(|i| (i as f32 - 16.0) * 0.1).collect(), [32]);
        let p = QuantParams::from_tensor(&g);
        let n1 = gradient_quant_noise(&g, 42);
        let n2 = gradient_quant_noise(&g, 42);
        assert_eq!(n1, n2, "same seed must give identical noise");
        let n3 = gradient_quant_noise(&g, 43);
        assert_ne!(n1, n3, "different seeds should differ");
        let half = max_rounding_error(p);
        for (orig, noisy) in g.data().iter().zip(n1.data()) {
            assert!((orig - noisy).abs() <= half + 1e-6);
        }
    }
}
