//! Dense linear algebra: tiled, register-blocked matrix multiply and
//! transposes.
//!
//! These routines are the compute kernels behind [`socflow_nn`]'s linear and
//! (via im2col) convolution layers. Each product is computed by an
//! `MR × NR` micro-kernel that keeps a fixed-size accumulator tile in
//! registers and streams contiguously over the operands, so rustc
//! autovectorizes the inner loops without any nightly SIMD or external
//! dependencies. Edge tails (shapes that are not multiples of the tile) fall
//! back to scalar loops with the same accumulation order.
//!
//! **Numerics contract:** every kernel accumulates each output element
//! strictly sequentially over the shared dimension `p` in ascending order —
//! the same order as a naive triple loop. Tiling changes *which* elements are
//! computed together, never the floating-point summation order, so results
//! are bit-identical to the pre-tiled kernels and deterministic across runs.
//!
//! **SIMD:** the `simd` cargo feature covers only the f32 accumulate steps
//! (explicit SSE2/NEON lanes instead of autovectorized loops). The integer
//! GEMM packs i16 pairs and always runs an SSE2 `_mm_madd_epi16` step on
//! x86_64 — SSE2 is part of that target's baseline — and a portable scalar
//! step elsewhere; its i32 sums are exact, so every path agrees bit for bit.
//!
//! **Parallelism:** large products are split into fixed-size row panels of
//! the output (`ROWS_PER_CHUNK` rows each) and dispatched on the
//! [`crate::runtime`] worker pool. The panel decomposition depends only on
//! `m` — never on the thread count — and each panel is computed by the same
//! sequential micro-kernel writing a disjoint output region, so the
//! parallel kernels are bit-identical to the single-threaded ones at any
//! `SOCFLOW_THREADS` setting.
//!
//! Every entry point has an `_into` variant that writes into a caller-owned
//! [`Tensor`] (resizing its storage as needed) and a `_slices` variant that
//! operates on raw row-major buffers; the allocating wrappers remain for API
//! compatibility.
//!
//! [`socflow_nn`]: https://docs.rs/socflow-nn

use crate::profile::{KernelOp, Timer};
use crate::Tensor;
use std::cell::RefCell;

/// Rows of the register accumulator tile.
const MR: usize = 4;
/// Columns of the register accumulator tile (two 8-lane vectors on AVX2).
const NR: usize = 16;

thread_local! {
    /// Scratch panel used by [`matmul_a_bt_slices`] to pack a transposed
    /// `k × NR` tile of `B`. Thread-local so replica jobs and pool workers
    /// never contend; reused across calls so steady-state matmuls allocate
    /// nothing.
    static PACK_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows of output per parallel panel. A multiple of `MR`, so interior panels
/// tile exactly like the single-threaded sweep; chosen from the problem
/// shape only (never the thread count) to keep the partition deterministic.
const ROWS_PER_CHUNK: usize = 32;

/// Minimum multiply-add count before a product takes the parallel path;
/// below this the pool round-trip costs more than the kernel itself. The
/// serial and parallel paths produce identical bytes, so this threshold
/// affects wall-clock only.
const PAR_MIN_WORK: usize = 1 << 18;

use crate::runtime::SendPtr;

/// Splits `m` output rows into shape-fixed panels and runs
/// `panel(i0, i1, out_rows)` for each on the worker pool. `out_rows` is the
/// `(i1 - i0) × n` sub-slice of `out` starting at row `i0`. Generic over the
/// element type so the f32 kernels and the i8→i32 integer GEMM share one
/// partitioner.
fn par_row_panels<T: Send>(
    out: &mut [T],
    m: usize,
    n: usize,
    panel: &(dyn Fn(usize, usize, &mut [T]) + Sync),
) {
    let chunks = m.div_ceil(ROWS_PER_CHUNK);
    let out_ptr = SendPtr::new(out);
    crate::runtime::parallel_for_chunks(chunks, &|c| {
        let i0 = c * ROWS_PER_CHUNK;
        let i1 = (i0 + ROWS_PER_CHUNK).min(m);
        // Safety: panels [i0, i1) are pairwise disjoint and in-bounds.
        let out_rows = unsafe { out_ptr.slice(i0 * n, (i1 - i0) * n) };
        panel(i0, i1, out_rows);
    });
}

/// Whether a product of this shape is worth dispatching on the pool.
fn worth_parallel(m: usize, k: usize, n: usize) -> bool {
    m > ROWS_PER_CHUNK && m * k * n >= PAR_MIN_WORK && crate::runtime::threads() > 1
}

// ---------------------------------------------------------------------------
// f32 micro-kernel accumulate steps: scalar reference + optional SIMD lanes
// ---------------------------------------------------------------------------
//
// The `simd` cargo feature swaps the micro-kernels' innermost accumulate
// steps for explicit `std::arch` lanes — SSE2 on x86_64 and NEON on aarch64,
// both part of their target's baseline ABI, so no runtime feature detection
// is needed. The SIMD bodies use a separate multiply and add (never FMA) and
// keep each accumulator lane's additions in the same ascending-`p` order as
// the scalar loop, so every output element sees the identical sequence of
// f32 roundings: scalar and SIMD builds are bitwise-identical
// (property-pinned in `tests/properties.rs`). The feature covers only these
// f32 lanes: the integer GEMM further down always takes its SSE2 step on
// x86_64.

/// Scalar reference for the f32 accumulate step: `acc[c] += av * brow[c]`
/// over the `NR` lanes. Kept compiled in every configuration — the SIMD
/// lanes are property-pinned against it.
#[cfg_attr(
    all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
#[inline(always)]
fn axpy_nr_scalar(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
    for (c, &bv) in acc.iter_mut().zip(brow.iter()) {
        *c += av * bv;
    }
}

/// SSE2 f32 accumulate step: four 4-lane vectors cover the `NR = 16` tile.
/// `_mm_mul_ps` + `_mm_add_ps` (no FMA) round exactly like the scalar loop.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn axpy_nr(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
    debug_assert!(brow.len() >= NR);
    // Safety: SSE2 is part of the x86_64 baseline ABI; loads/stores are the
    // unaligned variants; both buffers hold at least NR elements.
    unsafe {
        use std::arch::x86_64::*;
        let avv = _mm_set1_ps(av);
        let mut lane = 0;
        while lane < NR {
            let b = _mm_loadu_ps(brow.as_ptr().add(lane));
            let c = _mm_loadu_ps(acc.as_ptr().add(lane));
            let r = _mm_add_ps(c, _mm_mul_ps(avv, b));
            _mm_storeu_ps(acc.as_mut_ptr().add(lane), r);
            lane += 4;
        }
    }
}

/// NEON f32 accumulate step (`vmulq_f32` + `vaddq_f32`, no fused multiply).
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[inline(always)]
fn axpy_nr(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
    debug_assert!(brow.len() >= NR);
    // Safety: NEON is part of the aarch64 baseline ABI; both buffers hold at
    // least NR elements.
    unsafe {
        use std::arch::aarch64::*;
        let avv = vdupq_n_f32(av);
        let mut lane = 0;
        while lane < NR {
            let b = vld1q_f32(brow.as_ptr().add(lane));
            let c = vld1q_f32(acc.as_ptr().add(lane));
            let r = vaddq_f32(c, vmulq_f32(avv, b));
            vst1q_f32(acc.as_mut_ptr().add(lane), r);
            lane += 4;
        }
    }
}

/// Without the `simd` feature (or on other architectures) the accumulate
/// step *is* the scalar reference.
#[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
#[inline(always)]
fn axpy_nr(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
    axpy_nr_scalar(acc, av, brow);
}

// ---------------------------------------------------------------------------
// C = A × B
// ---------------------------------------------------------------------------

/// `C = A × B` for row-major matrices `A: (m, k)`, `B: (k, n)`.
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
///
/// ```
/// use socflow_tensor::{Tensor, linalg};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
/// assert_eq!(linalg::matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] writing into `out`, reusing its storage (resized as needed).
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul inner dims: ({m},{k}) x ({k2},{n})");
    out.resize([m, n]);
    matmul_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = A × B` on raw row-major slices: `a: (m, k)`, `b: (k, n)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// # Panics
/// Panics (in debug builds via slice indexing) if the slice lengths do not
/// match the given dimensions.
pub fn matmul_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_slices: a length");
    assert_eq!(b.len(), k * n, "matmul_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_slices: out length");
    let _t = Timer::start(KernelOp::Matmul);
    if worth_parallel(m, k, n) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            matmul_panel(&a[i0 * k..i1 * k], b, out_rows, i1 - i0, k, n);
        });
    } else {
        matmul_panel(a, b, out, m, k, n);
    }
}

/// Sequential `MR × NR` kernel over an `m`-row slice of `A`/`out`: the
/// original single-threaded sweep, reused verbatim by every parallel panel.
fn matmul_panel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut j = 0;
    // Full NR-wide column panels.
    while j + NR <= n {
        let mut i = 0;
        // MR × NR register tiles.
        while i + MR <= m {
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                let brow = &b[p * n + j..p * n + j + NR];
                for (mi, accrow) in acc.iter_mut().enumerate() {
                    let av = a[(i + mi) * k + p];
                    axpy_nr(accrow, av, brow);
                }
            }
            for (mi, accrow) in acc.iter().enumerate() {
                let orow = i + mi;
                out[orow * n + j..orow * n + j + NR].copy_from_slice(accrow);
            }
            i += MR;
        }
        // Row tail: fewer than MR rows left, still NR-wide.
        while i < m {
            let mut acc = [0.0f32; NR];
            for p in 0..k {
                let av = a[i * k + p];
                let brow = &b[p * n + j..p * n + j + NR];
                axpy_nr(&mut acc, av, brow);
            }
            out[i * n + j..i * n + j + NR].copy_from_slice(&acc);
            i += 1;
        }
        j += NR;
    }
    // Column tail: fewer than NR columns left, all rows.
    if j < n {
        for i in 0..m {
            let orow = &mut out[i * n + j..(i + 1) * n];
            orow.fill(0.0);
            for p in 0..k {
                let av = a[i * k + p];
                let brow = &b[p * n + j..(p + 1) * n];
                for (c, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *c += av * bv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C = Aᵀ × B
// ---------------------------------------------------------------------------

/// `C = Aᵀ × B` for `A: (k, m)`, `B: (k, n)` without materializing `Aᵀ`.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_at_b_into(a, b, &mut out);
    out
}

/// [`matmul_at_b`] writing into `out`, reusing its storage.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_at_b shared dims: ({k},{m})ᵀ x ({k2},{n})");
    out.resize([m, n]);
    matmul_at_b_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = Aᵀ × B` on raw row-major slices: `a: (k, m)`, `b: (k, n)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_at_b_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_at_b_slices: a length");
    assert_eq!(b.len(), k * n, "matmul_at_b_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_at_b_slices: out length");
    let _t = Timer::start(KernelOp::MatmulAtB);
    if worth_parallel(m, k, n) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            matmul_at_b_panel(a, b, out_rows, i0, i1, m, k, n);
        });
    } else {
        matmul_at_b_panel(a, b, out, 0, m, m, k, n);
    }
}

/// Sequential kernel for output rows `i0..i1` of `C = Aᵀ × B`. Unlike
/// [`matmul_panel`], `a` cannot be row-sliced (row `i` of `Aᵀ` is the
/// stride-`m` column `i` of `A`), so the panel takes the full operands plus
/// a global row range; `out` holds only the panel's rows.
///
/// Identical tiling to `matmul_panel`; only the A addressing differs: the
/// MR values needed per `p` are contiguous in A's row `p`.
#[allow(clippy::too_many_arguments)]
fn matmul_at_b_panel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    i1: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        let mut i = i0;
        while i + MR <= i1 {
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                let apanel = &a[p * m + i..p * m + i + MR];
                let brow = &b[p * n + j..p * n + j + NR];
                for (accrow, &av) in acc.iter_mut().zip(apanel.iter()) {
                    axpy_nr(accrow, av, brow);
                }
            }
            for (mi, accrow) in acc.iter().enumerate() {
                let orow = i - i0 + mi;
                out[orow * n + j..orow * n + j + NR].copy_from_slice(accrow);
            }
            i += MR;
        }
        while i < i1 {
            let mut acc = [0.0f32; NR];
            for p in 0..k {
                let av = a[p * m + i];
                let brow = &b[p * n + j..p * n + j + NR];
                axpy_nr(&mut acc, av, brow);
            }
            let orow = i - i0;
            out[orow * n + j..orow * n + j + NR].copy_from_slice(&acc);
            i += 1;
        }
        j += NR;
    }
    if j < n {
        for i in i0..i1 {
            let li = i - i0;
            let orow = &mut out[li * n + j..(li + 1) * n];
            orow.fill(0.0);
            for p in 0..k {
                let av = a[p * m + i];
                let brow = &b[p * n + j..(p + 1) * n];
                for (c, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *c += av * bv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C = A × Bᵀ
// ---------------------------------------------------------------------------

/// `C = A × Bᵀ` for `A: (m, k)`, `B: (n, k)` without materializing `Bᵀ`.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_a_bt_into(a, b, &mut out);
    out
}

/// [`matmul_a_bt`] writing into `out`, reusing its storage.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = a.shape().as_matrix();
    let (n, k2) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_a_bt shared dims: ({m},{k}) x ({n},{k2})ᵀ");
    out.resize([m, n]);
    matmul_a_bt_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = A × Bᵀ` on raw row-major slices: `a: (m, k)`, `b: (n, k)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// Packs each `NR`-row tile of `B` into a transposed `k × NR` panel (held in
/// thread-local scratch) so the same lane-parallel micro-kernel as
/// [`matmul_slices`] applies; per-element accumulation stays sequential over
/// `p`, bit-identical to a scalar dot product.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_a_bt_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_a_bt_slices: a length");
    assert_eq!(b.len(), n * k, "matmul_a_bt_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_a_bt_slices: out length");
    let _t = Timer::start(KernelOp::MatmulABt);
    if worth_parallel(m, k, n) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            matmul_a_bt_panel(&a[i0 * k..i1 * k], b, out_rows, i1 - i0, k, n);
        });
    } else {
        matmul_a_bt_panel(a, b, out, m, k, n);
    }
}

/// Sequential kernel over an `m`-row slice of `A`/`out` for `C = A × Bᵀ`.
/// Each executing thread packs `B` tiles into its own `PACK_PANEL`, so
/// parallel panels re-pack redundantly (~`k·n` extra reads per panel, a few
/// percent of the panel's `rows·k·n` multiply-adds) but never share scratch.
fn matmul_a_bt_panel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    PACK_PANEL.with(|panel| {
        let mut panel = panel.borrow_mut();
        panel.resize(k * NR, 0.0);
        let mut j = 0;
        while j + NR <= n {
            // Pack rows j..j+NR of B, transposed: panel[p * NR + nj] = B[j+nj][p].
            for nj in 0..NR {
                let brow = &b[(j + nj) * k..(j + nj + 1) * k];
                for (p, &bv) in brow.iter().enumerate() {
                    panel[p * NR + nj] = bv;
                }
            }
            let mut i = 0;
            while i + MR <= m {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &panel[p * NR..(p + 1) * NR];
                    for (mi, accrow) in acc.iter_mut().enumerate() {
                        let av = a[(i + mi) * k + p];
                        axpy_nr(accrow, av, brow);
                    }
                }
                for (mi, accrow) in acc.iter().enumerate() {
                    let orow = i + mi;
                    out[orow * n + j..orow * n + j + NR].copy_from_slice(accrow);
                }
                i += MR;
            }
            while i < m {
                let mut acc = [0.0f32; NR];
                for p in 0..k {
                    let av = a[i * k + p];
                    let brow = &panel[p * NR..(p + 1) * NR];
                    axpy_nr(&mut acc, av, brow);
                }
                out[i * n + j..i * n + j + NR].copy_from_slice(&acc);
                i += 1;
            }
            j += NR;
        }
        // Column tail: plain sequential dot products (same order as packed path).
        if j < n {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for jj in j..n {
                    let brow = &b[jj * k..(jj + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow.iter()) {
                        acc += av * bv;
                    }
                    out[i * n + jj] = acc;
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Integer GEMM: C(i32) = A(i8) × B(i8)ᵀ
// ---------------------------------------------------------------------------
//
// Both operands are packed as sign-extended i16 *pairs* along `k`: a packed
// block of `w` rows stores, for each pair index `q`, the `w` rows' values at
// `p = 2q` and `2q + 1` side by side. One SSE2 `_mm_madd_epi16` then
// multiplies a broadcast A pair against four B column pairs and sums each
// pair into an i32 lane — two multiply-adds per lane per step. `k` is
// zero-padded to even and both row counts to whole blocks, so the tile has
// no scalar tail; the padding adds exact zeros, which cannot change an
// integer sum. On x86_64 the packing itself runs four rows at a time
// through an SSE2 sign-extend and 4×4 transpose, since at batch-sized `m`
// packing B costs more than the multiply.

/// Rows of the integer accumulator tile.
const MR_I8: usize = 4;
/// Columns of the integer accumulator tile (two 4-lane i32 vectors).
const NR_I8: usize = 8;

thread_local! {
    /// Packed B panels for [`matmul_i8_a_bt_slices`], built once per call on
    /// the calling thread and shared read-only by every row panel.
    static I8_PACK_B: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
    /// Packed A row blocks, one panel at a time, on the executing thread.
    static I8_PACK_A: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Packs `rows` row-major length-`k` i8 rows into blocks of `w` rows (`w` a
/// multiple of 4), each block laid out as `k.div_ceil(2)` steps of `w` i16
/// pairs. Missing rows and the odd-`k` tail are zero.
fn pack_i8_pairs(src: &[i8], rows: usize, k: usize, w: usize, dst: &mut Vec<i16>) {
    debug_assert_eq!(w % 4, 0, "pack width must be a multiple of 4");
    let steps = k.div_ceil(2);
    let block = steps * 2 * w;
    dst.clear();
    dst.resize(rows.div_ceil(w) * block, 0);
    let slot = |r: usize| (r / w) * block + (r % w) * 2;
    let mut r = 0;
    // Four rows at a time, 8 pairs per pass: a quad never straddles a block.
    #[cfg(target_arch = "x86_64")]
    while r + 4 <= rows {
        let done = pack_quad_sse2(&src[r * k..(r + 4) * k], k, w, &mut dst[slot(r)..]);
        if 2 * done < k {
            for i in r..r + 4 {
                let out = &mut dst[slot(i) + done * 2 * w..];
                pack_row_pairs(&src[i * k + 2 * done..(i + 1) * k], w, out);
            }
        }
        r += 4;
    }
    for i in r..rows {
        pack_row_pairs(&src[i * k..(i + 1) * k], w, &mut dst[slot(i)..]);
    }
}

/// Scalar packing of one row's values: pair `q` goes to `out[q * 2w..]`.
fn pack_row_pairs(row: &[i8], w: usize, out: &mut [i16]) {
    for (pair, o) in row.chunks(2).zip(out.chunks_mut(2 * w)) {
        o[0] = i16::from(pair[0]);
        if let Some(&v) = pair.get(1) {
            o[1] = i16::from(v);
        }
    }
}

/// SSE2 packing of four rows, 16 values of `k` per pass: sign-extend each
/// row's bytes to i16, then a 4×4 transpose of the i32-sized pairs puts
/// step `q`'s four row pairs side by side. Returns the pairs packed; the
/// caller packs the rest of each row.
#[cfg(target_arch = "x86_64")]
fn pack_quad_sse2(quad: &[i8], k: usize, w: usize, out: &mut [i16]) -> usize {
    let passes = k / 16;
    if passes == 0 {
        return 0;
    }
    assert!(quad.len() >= 4 * k && out.len() >= (passes * 8 - 1) * 2 * w + 8);
    // Safety: SSE2 is baseline on x86_64; loads read 16 bytes at
    // `i*k + 16*c + 15 < (i+1)*k`, stores write 8 i16 at
    // `q*2w + 7 ≤ (8*passes - 1)*2w + 7`, both bounded by the assert.
    unsafe {
        use std::arch::x86_64::*;
        for c in 0..passes {
            let mut lo = [_mm_setzero_si128(); 4];
            let mut hi = [_mm_setzero_si128(); 4];
            for i in 0..4 {
                let v = _mm_loadu_si128(quad.as_ptr().add(i * k + 16 * c) as *const __m128i);
                lo[i] = _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
                hi[i] = _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
            }
            for (half, x) in [lo, hi].iter().enumerate() {
                let t0 = _mm_unpacklo_epi32(x[0], x[1]);
                let t1 = _mm_unpacklo_epi32(x[2], x[3]);
                let t2 = _mm_unpackhi_epi32(x[0], x[1]);
                let t3 = _mm_unpackhi_epi32(x[2], x[3]);
                let cols = [
                    _mm_unpacklo_epi64(t0, t1),
                    _mm_unpackhi_epi64(t0, t1),
                    _mm_unpacklo_epi64(t2, t3),
                    _mm_unpackhi_epi64(t2, t3),
                ];
                for (j, col) in cols.iter().enumerate() {
                    let q = 8 * c + 4 * half + j;
                    _mm_storeu_si128(out.as_mut_ptr().add(q * 2 * w) as *mut __m128i, *col);
                }
            }
        }
    }
    passes * 8
}

/// Scalar reference for the integer tile: the exact `MR_I8 × NR_I8` i32
/// sums of one packed A block against one packed B panel. Kept compiled on
/// every target — the SSE2 step is pinned against it.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn i8_tile_scalar(ap: &[i16], bp: &[i16]) -> [[i32; NR_I8]; MR_I8] {
    let mut acc = [[0i32; NR_I8]; MR_I8];
    for (a, b) in ap.chunks_exact(2 * MR_I8).zip(bp.chunks_exact(2 * NR_I8)) {
        for (accrow, ar) in acc.iter_mut().zip(a.chunks_exact(2)) {
            let (a0, a1) = (i32::from(ar[0]), i32::from(ar[1]));
            for (c, bc) in accrow.iter_mut().zip(b.chunks_exact(2)) {
                *c += a0 * i32::from(bc[0]) + a1 * i32::from(bc[1]);
            }
        }
    }
    acc
}

/// SSE2 integer tile: per pair step, `MR_I8` broadcast A pairs times two
/// 4-column B vectors through `_mm_madd_epi16` (exact: each i16 product
/// pair sums to at most 2·128² in i32) plus `_mm_add_epi32`. SSE2 is part
/// of the x86_64 baseline ABI, so this runs in every build.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn i8_tile_sse2(ap: &[i16], bp: &[i16]) -> [[i32; NR_I8]; MR_I8] {
    let steps = ap.len() / (2 * MR_I8);
    assert!(bp.len() >= steps * 2 * NR_I8, "i8 tile: short B panel");
    // Safety: SSE2 is baseline on x86_64; every load is unaligned and stays
    // inside the `steps` packed steps the assert above bounds.
    unsafe {
        use std::arch::x86_64::*;
        let mut acc = [[_mm_setzero_si128(); 2]; MR_I8];
        let (mut a, mut b) = (ap.as_ptr(), bp.as_ptr());
        for _ in 0..steps {
            let b0 = _mm_loadu_si128(b as *const __m128i);
            let b1 = _mm_loadu_si128(b.add(8) as *const __m128i);
            for (r, accrow) in acc.iter_mut().enumerate() {
                let pair = _mm_set1_epi32((a.add(2 * r) as *const i32).read_unaligned());
                accrow[0] = _mm_add_epi32(accrow[0], _mm_madd_epi16(pair, b0));
                accrow[1] = _mm_add_epi32(accrow[1], _mm_madd_epi16(pair, b1));
            }
            a = a.add(2 * MR_I8);
            b = b.add(2 * NR_I8);
        }
        let mut out = [[0i32; NR_I8]; MR_I8];
        for (o, accrow) in out.iter_mut().zip(acc.iter()) {
            _mm_storeu_si128(o.as_mut_ptr() as *mut __m128i, accrow[0]);
            _mm_storeu_si128(o.as_mut_ptr().add(4) as *mut __m128i, accrow[1]);
        }
        out
    }
}

/// The integer tile step: SSE2 on x86_64, the scalar reference elsewhere.
#[inline(always)]
fn i8_tile(ap: &[i16], bp: &[i16]) -> [[i32; NR_I8]; MR_I8] {
    #[cfg(target_arch = "x86_64")]
    {
        i8_tile_sse2(ap, bp)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        i8_tile_scalar(ap, bp)
    }
}

/// `C = A × Bᵀ` over `i8` operands with exact `i32` accumulation:
/// `a: (m, k)` and `b: (n, k)` row-major, writing `out: (m, n)`, fully
/// overwritten.
///
/// This is the NPU arm's compute kernel: integer accumulation is exact (no
/// rounding at any summation order), so the SSE2, scalar and row-parallel
/// paths are bitwise-identical by construction. `B` is packed once per
/// call, outside the row panels; each panel packs its own rows of `A` and
/// runs the `MR_I8 × NR_I8` register tile over them. Per-tensor scales are
/// *not* applied here; callers apply `sa·sb` once at the i32→f32 epilogue
/// ([`crate::quant::quantized_matmul`] does exactly that).
///
/// The accumulator bounds the shared dimension: `k · 128² < 2³¹` requires
/// `k < 2¹⁷`, far above any layer in the model zoo.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_i8_a_bt_slices(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_i8_a_bt_slices: a length");
    assert_eq!(b.len(), n * k, "matmul_i8_a_bt_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_i8_a_bt_slices: out length");
    let _t = Timer::start(KernelOp::MatmulI8);
    if k == 0 {
        out.fill(0);
        return;
    }
    I8_PACK_B.with(|bpack| {
        let mut bpack = bpack.borrow_mut();
        pack_i8_pairs(b, n, k, NR_I8, &mut bpack);
        let bpack = &bpack[..];
        if worth_parallel(m, k, n) {
            par_row_panels(out, m, n, &|i0, i1, out_rows| {
                matmul_i8_panel(&a[i0 * k..i1 * k], bpack, out_rows, i1 - i0, k, n);
            });
        } else {
            matmul_i8_panel(a, bpack, out, m, k, n);
        }
    });
}

/// Sequential integer kernel over an `m`-row slice of `A`/`out` against the
/// packed `B` panels (`k > 0`). Each B panel stays L1-resident while every
/// packed A block of the slice passes over it; padded rows and columns of a
/// tile are computed and dropped.
fn matmul_i8_panel(a: &[i8], bpack: &[i16], out: &mut [i32], m: usize, k: usize, n: usize) {
    let steps = k.div_ceil(2);
    I8_PACK_A.with(|apack| {
        let mut apack = apack.borrow_mut();
        pack_i8_pairs(a, m, k, MR_I8, &mut apack);
        for (jb, bpanel) in bpack.chunks_exact(steps * 2 * NR_I8).enumerate() {
            let j0 = jb * NR_I8;
            let cols = NR_I8.min(n - j0);
            for (ib, ablock) in apack.chunks_exact(steps * 2 * MR_I8).enumerate() {
                let i0 = ib * MR_I8;
                let tile = i8_tile(ablock, bpanel);
                for (r, row) in tile.iter().enumerate().take(m - i0) {
                    let o = (i0 + r) * n + j0;
                    out[o..o + cols].copy_from_slice(&row[..cols]);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Transpose
// ---------------------------------------------------------------------------

/// Tile edge for the blocked transpose; 32 × 32 f32 = 4 KiB, well inside L1.
const TR: usize = 32;

/// Transpose of a rank-2 tensor.
///
/// # Panics
/// Panics if the operand is not rank-2.
pub fn transpose(a: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    transpose_into(a, &mut out);
    out
}

/// [`transpose`] writing into `out`, reusing its storage.
///
/// # Panics
/// Panics if the operand is not rank-2 or `out` aliases `a` (they are
/// distinct tensors by construction, so this cannot happen through safe code).
pub fn transpose_into(a: &Tensor, out: &mut Tensor) {
    let (m, n) = a.shape().as_matrix();
    out.resize([n, m]);
    transpose_slices(a.data(), out.data_mut(), m, n);
}

/// Blocked transpose on raw row-major slices: `a: (m, n)` → `out: (n, m)`.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn transpose_slices(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    assert_eq!(a.len(), m * n, "transpose_slices: a length");
    assert_eq!(out.len(), m * n, "transpose_slices: out length");
    let _t = Timer::start(KernelOp::Transpose);
    // TR × TR blocks keep both the source rows and destination rows resident
    // in L1 while the block is swapped.
    for ib in (0..m).step_by(TR) {
        let i_end = (ib + TR).min(m);
        for jb in (0..n).step_by(TR) {
            let j_end = (jb + TR).min(n);
            for i in ib..i_end {
                for j in jb..j_end {
                    out[j * m + i] = a[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                }
            }
        }
        Tensor::from_vec(out, Shape::from([m, n]))
    }

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Tensor {
        // Simple LCG so this test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data = (0..m * n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, Shape::from([m, n]))
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_matrix(7, 5, 1);
        let b = rand_matrix(5, 9, 2);
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_matches_naive_awkward_shapes() {
        // Tile-edge torture: 1×N, N×1, primes, exact multiples, tails
        // smaller than MR/NR on both axes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 23),
            (23, 7, 1),
            (4, 4, 16),
            (8, 3, 32),
            (5, 13, 17),
            (17, 1, 19),
            (16, 16, 16),
            (19, 29, 31),
            (3, 40, 15),
            (40, 2, 48),
        ] {
            let a = rand_matrix(m, k, (m * 100 + k) as u64);
            let b = rand_matrix(k, n, (k * 100 + n) as u64);
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b));
            assert_close(&matmul_at_b(&transpose(&a), &b), &naive_matmul(&a, &b));
            assert_close(&matmul_a_bt(&a, &transpose(&b)), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let a = rand_matrix(9, 21, 11);
        let b = rand_matrix(21, 18, 12);
        let mut out = Tensor::from_vec(vec![7.0; 4], [2, 2]); // wrong shape: must resize
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, matmul(&a, &b));

        let at = transpose(&a);
        matmul_at_b_into(&at, &b, &mut out);
        assert_eq!(out, matmul_at_b(&at, &b));

        let bt = transpose(&b);
        matmul_a_bt_into(&a, &bt, &mut out);
        assert_eq!(out, matmul_a_bt(&a, &bt));

        transpose_into(&a, &mut out);
        assert_eq!(out, transpose(&a));
    }

    #[test]
    fn matmul_identity() {
        let a = rand_matrix(4, 4, 3);
        let mut id = Tensor::zeros([4, 4]);
        for i in 0..4 {
            id.set(&[i, i], 1.0);
        }
        assert_close(&matmul(&a, &id), &a);
        assert_close(&matmul(&id, &a), &a);
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = rand_matrix(6, 3, 4);
        let b = rand_matrix(6, 5, 5);
        assert_close(&matmul_at_b(&a, &b), &matmul(&transpose(&a), &b));
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = rand_matrix(3, 6, 6);
        let b = rand_matrix(5, 6, 7);
        assert_close(&matmul_a_bt(&a, &b), &matmul(&a, &transpose(&b)));
    }

    #[test]
    fn transpose_involution() {
        let a = rand_matrix(4, 7, 8);
        assert_eq!(transpose(&transpose(&a)), a);
        // Also across the TR tile edge.
        let big = rand_matrix(37, 65, 9);
        assert_eq!(transpose(&transpose(&big)), big);
    }

    #[test]
    fn parallel_panels_match_serial_bitwise() {
        // Shapes above PAR_MIN_WORK with awkward row counts (tails smaller
        // than MR and ROWS_PER_CHUNK, primes, exact multiples).
        crate::runtime::set_threads(8);
        for &(m, k, n) in &[(97, 64, 48), (130, 70, 33), (256, 64, 17), (64, 64, 64)] {
            let a = rand_matrix(m, k, (m + k) as u64);
            let b = rand_matrix(k, n, (k + n + 7) as u64);
            assert!(worth_parallel(m, k, n) || m * k * n < PAR_MIN_WORK);

            let mut serial = vec![0.0f32; m * n];
            matmul_panel(a.data(), b.data(), &mut serial, m, k, n);
            let par = matmul(&a, &b);
            assert_eq!(par.data(), &serial[..], "matmul {m}x{k}x{n}");

            let at = transpose(&a);
            let mut serial = vec![0.0f32; m * n];
            matmul_at_b_panel(at.data(), b.data(), &mut serial, 0, m, m, k, n);
            let par = matmul_at_b(&at, &b);
            assert_eq!(par.data(), &serial[..], "matmul_at_b {m}x{k}x{n}");

            let bt = transpose(&b);
            let mut serial = vec![0.0f32; m * n];
            matmul_a_bt_panel(a.data(), bt.data(), &mut serial, m, k, n);
            let par = matmul_a_bt(&a, &bt);
            assert_eq!(par.data(), &serial[..], "matmul_a_bt {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn one_by_one() {
        let a = Tensor::from_vec(vec![3.0], [1, 1]);
        let b = Tensor::from_vec(vec![4.0], [1, 1]);
        assert_eq!(matmul(&a, &b).data(), &[12.0]);
    }

    /// Deterministic pseudo-random i8 buffer covering the full [-128, 127]
    /// range (including the -128 the quantizer never emits — the kernel must
    /// not care).
    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i8
            })
            .collect()
    }

    /// The dispatched accumulate step (SIMD when the `simd` feature is on)
    /// is bitwise-identical to the scalar reference for arbitrary inputs.
    #[test]
    fn axpy_step_matches_scalar_bitwise() {
        for seed in 0..32u64 {
            let a = rand_matrix(1, NR, seed);
            let base = rand_matrix(1, NR, seed ^ 0xFFFF);
            let av = a.data()[0] * 1.7 - 0.3;
            let mut acc = [0.0f32; NR];
            let mut acc_ref = [0.0f32; NR];
            acc.copy_from_slice(base.data());
            acc_ref.copy_from_slice(base.data());
            axpy_nr(&mut acc, av, a.data());
            axpy_nr_scalar(&mut acc_ref, av, a.data());
            assert_eq!(
                acc.map(f32::to_bits),
                acc_ref.map(f32::to_bits),
                "seed {seed}"
            );
        }
    }

    /// The SSE2 integer tile equals the scalar reference exactly on packed
    /// blocks over the full i8 range, at step counts from 1 to 40.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn i8_tile_sse2_matches_scalar_exactly() {
        for k in 1..80usize {
            let a = rand_i8(MR_I8 * k, k as u64 + 1);
            let b = rand_i8(NR_I8 * k, k as u64 * 31 + 7);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            pack_i8_pairs(&a, MR_I8, k, MR_I8, &mut ap);
            pack_i8_pairs(&b, NR_I8, k, NR_I8, &mut bp);
            assert_eq!(i8_tile_sse2(&ap, &bp), i8_tile_scalar(&ap, &bp), "k {k}");
        }
        // the extreme products: every lane at -128 × -128
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_i8_pairs(&[-128; MR_I8 * 64], MR_I8, 64, MR_I8, &mut ap);
        pack_i8_pairs(&[-128; NR_I8 * 64], NR_I8, 64, NR_I8, &mut bp);
        assert_eq!(i8_tile_sse2(&ap, &bp), [[64 * 128 * 128; NR_I8]; MR_I8]);
        assert_eq!(i8_tile_scalar(&ap, &bp), [[64 * 128 * 128; NR_I8]; MR_I8]);
    }

    /// The i8 GEMM equals a naive widened-i32 triple loop exactly on
    /// awkward shapes (the f32 kernels' tile-edge torture list), the tile
    /// edges `m < MR_I8`, `n < NR_I8` and odd `k`, and the VGG-11 conv
    /// shapes of the mixed-precision arm (width 0.22, 8×8 input, batch 10).
    #[test]
    fn i8_gemm_matches_widened_reference() {
        for &(m, k, n) in &[
            (0, 3, 5),
            (3, 0, 5),
            (1, 1, 1),
            (3, 5, 7),
            (2, 2, 8),
            (4, 9, 8),
            (5, 17, 9),
            (640, 27, 14),
            (160, 126, 28),
            (40, 504, 56),
            (10, 1008, 112),
            (1, 7, 23),
            (23, 7, 1),
            (4, 4, 16),
            (8, 3, 32),
            (5, 13, 17),
            (17, 1, 19),
            (16, 16, 16),
            (19, 29, 31),
            (3, 40, 15),
            (40, 2, 48),
        ] {
            let a = rand_i8(m * k, (m * 100 + k) as u64);
            let b = rand_i8(n * k, (k * 100 + n) as u64);
            let mut out = vec![0i32; m * n];
            matmul_i8_a_bt_slices(&a, &b, &mut out, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for p in 0..k {
                        acc += a[i * k + p] as i32 * b[j * k + p] as i32;
                    }
                    assert_eq!(out[i * n + j], acc, "({i},{j}) of {m}x{k}x{n}");
                }
            }
        }
    }

    /// Row-parallel i8 GEMM is identical to the serial panel at 8 workers.
    #[test]
    fn parallel_i8_matches_serial() {
        crate::runtime::set_threads(8);
        for &(m, k, n) in &[(97, 64, 48), (130, 70, 33), (256, 64, 17)] {
            let a = rand_i8(m * k, (m + k) as u64);
            let b = rand_i8(n * k, (k + n + 7) as u64);
            let mut bpack = Vec::new();
            pack_i8_pairs(&b, n, k, NR_I8, &mut bpack);
            let mut serial = vec![0i32; m * n];
            matmul_i8_panel(&a, &bpack, &mut serial, m, k, n);
            let mut par = vec![0i32; m * n];
            matmul_i8_a_bt_slices(&a, &b, &mut par, m, k, n);
            assert_eq!(par, serial, "matmul_i8 {m}x{k}x{n}");
        }
    }
}
