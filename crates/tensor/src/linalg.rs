//! Dense linear algebra: tiled, register-blocked matrix multiply and
//! transposes.
//!
//! These routines are the compute kernels behind [`socflow_nn`]'s linear and
//! (via im2col) convolution layers.
//!
//! **One f32 tile.** Every f32 product — `A × B`, `Aᵀ × B` and `A × Bᵀ` —
//! runs one `MR × NR` register tile: `MR` rows of a strided view of A
//! against a `k × NR` panel of B, which is either read in place (`B`'s full
//! column blocks) or packed into a zero-padded panel (`B`'s last `n mod NR`
//! columns, and both operands of `A × Bᵀ`). A short last row tile repeats
//! the last valid row and drops the duplicates, and zero-padded columns are
//! computed and never stored, so no shape takes a scalar tail loop.
//!
//! **ISA tiers.** The tile is written with explicit `std::arch` intrinsics,
//! never left to autovectorization: an SSE2 `__m128` tile on x86_64 (part
//! of the baseline ABI, so always available), an AVX `__m256` tile chosen
//! at run time when the CPU reports AVX, a NEON tile on aarch64 with the
//! `simd` feature, and a portable scalar reference everywhere else. The
//! integer GEMM has the same dispatch: an SSE2 `_mm_madd_epi16` tile on
//! x86_64, an AVX2 one when the CPU has it, scalar elsewhere.
//! [`kernel_isa`] names the tiers that run.
//!
//! **Why every host computes the same bits.** Each output element is a sum
//! over the shared dimension `p` in ascending order, one multiply and one
//! add per step — the order of a naive triple loop. A SIMD lane is one
//! output element, so the tiers differ only in how many elements advance
//! together, never in the operations applied to any one of them. No tier
//! uses FMA (a fused multiply-add rounds once where the reference rounds
//! twice), and the packed `A × Bᵀ` branch that computes `Cᵀ = B × Aᵀ` only
//! swaps the operands of each IEEE multiply, which is commutative. The
//! integer tiles sum exactly in i32, where order cannot matter.
//!
//! **Parallelism:** large products are split into fixed-size row panels of
//! the output (`ROWS_PER_CHUNK` rows each) and dispatched on the
//! [`crate::runtime`] worker pool. The panel decomposition depends only on
//! `m` — never on the thread count — and each panel is computed by the same
//! sequential sweep writing a disjoint output region, so the parallel
//! kernels are bit-identical to the single-threaded ones at any
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

/// Rows of the f32 register tile.
const MR: usize = 4;
/// Columns of the f32 register tile: two 8-lane AVX vectors, or four
/// 4-lane SSE2/NEON vectors.
const NR: usize = 16;

/// One `MR × NR` block of f32 outputs.
type Tile = [[f32; NR]; MR];

thread_local! {
    /// Zero-padded `k × NR` panel for B's column tail and for the packed
    /// operand of [`matmul_a_bt_slices`]. Thread-local so replica jobs and
    /// pool workers never contend; reused across calls so steady-state
    /// matmuls allocate nothing.
    static PACK_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows of output per parallel panel. A multiple of `MR` and of `NR`, so
/// interior panels tile exactly like the single-threaded sweep; chosen from
/// the problem shape only (never the thread count) to keep the partition
/// deterministic.
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

/// Names the tiles this CPU runs, f32 first and i8 second, joined by `+`
/// (`"avx+avx2"`, `"avx+sse2"`), or one name when both are the same tier
/// (`"sse2"`, `"scalar"`). Kernel timings depend on it; results do not.
pub fn kernel_isa() -> String {
    let (f, i) = (F32Tier::detect().name(), I8Tier::detect().name());
    if f == i {
        f.to_string()
    } else {
        format!("{f}+{i}")
    }
}

// ---------------------------------------------------------------------------
// The f32 tile: a scalar reference and explicit SIMD tiers
// ---------------------------------------------------------------------------

/// The A operand of a tile, as a strided view: element `(i, p)` is
/// `data[i * rs + p * ps]`. A row-major `(m, k)` matrix is `rs = k, ps = 1`;
/// the stored `(k, m)` operand of `Aᵀ × B` is `rs = 1, ps = m`.
#[derive(Clone, Copy)]
struct AView<'a> {
    data: &'a [f32],
    rs: usize,
    ps: usize,
}

/// A `k × NR` panel of the B operand: row `p` is
/// `data[p * stride..p * stride + NR]`.
#[derive(Clone, Copy)]
struct BPanel<'a> {
    data: &'a [f32],
    stride: usize,
}

/// Asserts that every element a tile over `rows` of `a` and `k` rows of `b`
/// reads is in bounds; the SIMD tiers rely on it for their unchecked loads.
/// No index can overflow: the entry points bound every dimension by a
/// slice length.
fn assert_tile_bounds(a: AView, rows: [usize; MR], b: BPanel, k: usize) {
    if k == 0 {
        return;
    }
    for r in rows {
        assert!(
            r * a.rs + (k - 1) * a.ps < a.data.len(),
            "f32 tile: A row {r} out of bounds"
        );
    }
    assert!(
        (k - 1) * b.stride + NR <= b.data.len(),
        "f32 tile: short B panel"
    );
}

/// The f32 tile implementations. All of them return the same bits; see the
/// module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum F32Tier {
    /// Portable reference loop.
    #[cfg_attr(
        any(target_arch = "x86_64", all(feature = "simd", target_arch = "aarch64")),
        allow(dead_code)
    )]
    Scalar,
    /// `__m128` lanes; SSE2 is part of the x86_64 baseline.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// `__m256` lanes. Only [`F32Tier::detect`] and the tests construct
    /// it, both after checking that the CPU has AVX.
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// NEON lanes; NEON is part of the aarch64 baseline.
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

impl F32Tier {
    /// The fastest tier the running CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                Self::Avx
            } else {
                Self::Sse2
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        {
            Self::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", all(feature = "simd", target_arch = "aarch64"))))]
        {
            Self::Scalar
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Self::Sse2 => "sse2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx => "avx",
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            Self::Neon => "neon",
        }
    }

    /// `tile[r][c] = Σ_p a(rows[r], p) · b[p][c]`, summed in ascending `p`.
    #[inline(always)]
    fn tile(self, a: AView, rows: [usize; MR], b: BPanel, k: usize) -> Tile {
        match self {
            Self::Scalar => tile_scalar(a, rows, b, k),
            #[cfg(target_arch = "x86_64")]
            Self::Sse2 => tile_sse2(a, rows, b, k),
            #[cfg(target_arch = "x86_64")]
            Self::Avx => {
                debug_assert!(std::arch::is_x86_feature_detected!("avx"));
                // SAFETY: `Avx` is only constructed after
                // `is_x86_feature_detected!("avx")` returned true.
                unsafe { tile_avx(a, rows, b, k) }
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            Self::Neon => tile_neon(a, rows, b, k),
        }
    }
}

/// Scalar reference tile: the naive triple loop's operations, element by
/// element. Every SIMD tier is pinned against it bit for bit.
fn tile_scalar(a: AView, rows: [usize; MR], b: BPanel, k: usize) -> Tile {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let brow = &b.data[p * b.stride..p * b.stride + NR];
        for (accrow, &r) in acc.iter_mut().zip(&rows) {
            let av = a.data[r * a.rs + p * a.ps];
            for (c, &bv) in accrow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    acc
}

/// SSE2 tile: `_mm_mul_ps` + `_mm_add_ps` per lane, never fused. The 16
/// accumulators of a full 4×16 tile would not fit the 16 xmm registers
/// beside the B and A operands, so the tile runs as two 4×8 halves over the
/// whole of `k`; each element's sum is the same either way.
#[cfg(target_arch = "x86_64")]
fn tile_sse2(a: AView, rows: [usize; MR], b: BPanel, k: usize) -> Tile {
    use std::arch::x86_64::*;
    assert_tile_bounds(a, rows, b, k);
    let off = rows.map(|r| r * a.rs);
    let mut out = [[0.0f32; NR]; MR];
    for half in [0, 8] {
        // SAFETY: SSE2 is part of the x86_64 baseline. `assert_tile_bounds`
        // proves `off[r] + p·ps < a.len()` and `p·stride + NR ≤ b.len()` for
        // every `p < k`, which bounds each load; stores use unaligned
        // intrinsics into `out`, whose rows hold NR floats.
        unsafe {
            let mut acc = [[_mm_setzero_ps(); 2]; MR];
            for p in 0..k {
                let brow = b.data.as_ptr().add(p * b.stride + half);
                let (b0, b1) = (_mm_loadu_ps(brow), _mm_loadu_ps(brow.add(4)));
                for (accrow, &o) in acc.iter_mut().zip(&off) {
                    let av = _mm_set1_ps(*a.data.as_ptr().add(o + p * a.ps));
                    accrow[0] = _mm_add_ps(accrow[0], _mm_mul_ps(av, b0));
                    accrow[1] = _mm_add_ps(accrow[1], _mm_mul_ps(av, b1));
                }
            }
            for (orow, accrow) in out.iter_mut().zip(&acc) {
                _mm_storeu_ps(orow.as_mut_ptr().add(half), accrow[0]);
                _mm_storeu_ps(orow.as_mut_ptr().add(half + 4), accrow[1]);
            }
        }
    }
    out
}

/// AVX tile: two `__m256` lanes per row, `_mm256_mul_ps` + `_mm256_add_ps`,
/// never fused — eight accumulators plus two B vectors and one broadcast
/// fit the 16 ymm registers.
///
/// # Safety
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tile_avx(a: AView, rows: [usize; MR], b: BPanel, k: usize) -> Tile {
    use std::arch::x86_64::*;
    assert_tile_bounds(a, rows, b, k);
    let off = rows.map(|r| r * a.rs);
    let mut out = [[0.0f32; NR]; MR];
    // SAFETY: the caller guarantees AVX. `assert_tile_bounds` proves
    // `off[r] + p·ps < a.len()` and `p·stride + NR ≤ b.len()` for every
    // `p < k`, which bounds each load; stores use unaligned intrinsics into
    // `out`, whose rows hold NR floats.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for p in 0..k {
            let brow = b.data.as_ptr().add(p * b.stride);
            let (b0, b1) = (_mm256_loadu_ps(brow), _mm256_loadu_ps(brow.add(8)));
            for (accrow, &o) in acc.iter_mut().zip(&off) {
                let av = _mm256_set1_ps(*a.data.as_ptr().add(o + p * a.ps));
                accrow[0] = _mm256_add_ps(accrow[0], _mm256_mul_ps(av, b0));
                accrow[1] = _mm256_add_ps(accrow[1], _mm256_mul_ps(av, b1));
            }
        }
        for (orow, accrow) in out.iter_mut().zip(&acc) {
            _mm256_storeu_ps(orow.as_mut_ptr(), accrow[0]);
            _mm256_storeu_ps(orow.as_mut_ptr().add(8), accrow[1]);
        }
    }
    out
}

/// NEON tile: four `float32x4_t` lanes per row, `vmulq_f32` + `vaddq_f32`,
/// never fused; the 32 vector registers hold the whole 4×16 tile.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
fn tile_neon(a: AView, rows: [usize; MR], b: BPanel, k: usize) -> Tile {
    use std::arch::aarch64::*;
    assert_tile_bounds(a, rows, b, k);
    let off = rows.map(|r| r * a.rs);
    let mut out = [[0.0f32; NR]; MR];
    // SAFETY: NEON is part of the aarch64 baseline. `assert_tile_bounds`
    // proves `off[r] + p·ps < a.len()` and `p·stride + NR ≤ b.len()` for
    // every `p < k`, which bounds each load; stores go into `out`, whose
    // rows hold NR floats.
    unsafe {
        let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
        for p in 0..k {
            let brow = b.data.as_ptr().add(p * b.stride);
            let bv = [
                vld1q_f32(brow),
                vld1q_f32(brow.add(4)),
                vld1q_f32(brow.add(8)),
                vld1q_f32(brow.add(12)),
            ];
            for (accrow, &o) in acc.iter_mut().zip(&off) {
                let av = vdupq_n_f32(*a.data.as_ptr().add(o + p * a.ps));
                for (c, &bq) in accrow.iter_mut().zip(&bv) {
                    *c = vaddq_f32(*c, vmulq_f32(av, bq));
                }
            }
        }
        for (orow, accrow) in out.iter_mut().zip(&acc) {
            for (q, &c) in accrow.iter().enumerate() {
                vst1q_f32(orow.as_mut_ptr().add(4 * q), c);
            }
        }
    }
    out
}

/// Runs the tile down rows `i0..i1` of `a` against one B panel and hands
/// each result to `store(i, rows, tile)`, whose first `rows` rows are the
/// outputs of rows `i..i + rows`. A short last tile repeats row `i1 - 1`.
#[inline(always)]
fn sweep(
    tier: F32Tier,
    a: AView,
    (i0, i1): (usize, usize),
    b: BPanel,
    k: usize,
    mut store: impl FnMut(usize, usize, &Tile),
) {
    for i in (i0..i1).step_by(MR) {
        let rows = std::array::from_fn(|r| (i + r).min(i1 - 1));
        store(i, MR.min(i1 - i), &tier.tile(a, rows, b, k));
    }
}

/// Writes the first `rows × cols` of `tile` to `out` (row stride `n`) at
/// row `i`, column `j`.
#[inline(always)]
fn store_tile(
    out: &mut [f32],
    n: usize,
    (i, j): (usize, usize),
    rows: usize,
    cols: usize,
    tile: &Tile,
) {
    for (r, trow) in tile.iter().enumerate().take(rows) {
        let o = (i + r) * n + j;
        out[o..o + cols].copy_from_slice(&trow[..cols]);
    }
}

/// Packs `src`'s row-major length-`k` rows (at most `NR` of them)
/// transposed into a zero-padded `k × NR` panel:
/// `panel[p * NR + r] = src[r * k + p]`. Requires `k > 0`.
fn pack_transposed(src: &[f32], k: usize, panel: &mut Vec<f32>) {
    panel.clear();
    panel.resize(k * NR, 0.0);
    for (r, row) in src.chunks_exact(k).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            panel[p * NR + r] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// C = A × B and C = Aᵀ × B
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
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_slices: a length");
    assert_eq!(b.len(), k * n, "matmul_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_slices: out length");
    let _t = Timer::start(KernelOp::Matmul);
    let a = AView {
        data: a,
        rs: k,
        ps: 1,
    };
    gemm(F32Tier::detect(), a, b, out, m, k, n);
}

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
    let a = AView {
        data: a,
        rs: 1,
        ps: m,
    };
    gemm(F32Tier::detect(), a, b, out, m, k, n);
}

/// `out = A × B` for an `(m, k)` view `a` and row-major `b: (k, n)`: the
/// shared core of [`matmul_slices`] and [`matmul_at_b_slices`].
fn gemm(tier: F32Tier, a: AView, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if k == 0 {
        out.fill(0.0);
    } else if worth_parallel(m, k, n) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            gemm_panel(tier, a, (i0, i1), b, out_rows, k, n);
        });
    } else {
        gemm_panel(tier, a, (0, m), b, out, k, n);
    }
}

/// Output rows `i0..i1` of `A × B` into `out`, which holds only those rows
/// (`k > 0`). Full `NR`-column blocks of `B` are read in place; its last
/// `n mod NR` columns are packed into a zero-padded panel first.
fn gemm_panel(
    tier: F32Tier,
    a: AView,
    (i0, i1): (usize, usize),
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    let full = n - n % NR;
    for j in (0..full).step_by(NR) {
        let panel = BPanel {
            data: &b[j..],
            stride: n,
        };
        sweep(tier, a, (i0, i1), panel, k, |i, rows, t| {
            store_tile(out, n, (i - i0, j), rows, NR, t);
        });
    }
    if full < n {
        PACK_PANEL.with(|panel| {
            let mut panel = panel.borrow_mut();
            panel.clear();
            panel.resize(k * NR, 0.0);
            for (prow, brow) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                prow[..n - full].copy_from_slice(&brow[full..]);
            }
            let panel = BPanel {
                data: &panel,
                stride: NR,
            };
            sweep(tier, a, (i0, i1), panel, k, |i, rows, t| {
                store_tile(out, n, (i - i0, full), rows, n - full, t);
            });
        });
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
/// Packs whichever operand has fewer rows, `NR` rows at a time, into a
/// transposed zero-padded `k × NR` panel, so the tile's lanes run over that
/// operand's rows. Packing `B` gives `C` tile by tile; packing `A` gives
/// `Cᵀ = B × Aᵀ`, stored transposed — the same products, each with its
/// IEEE-commutative multiply's operands swapped, summed in the same order.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_a_bt_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_a_bt_slices: a length");
    assert_eq!(b.len(), n * k, "matmul_a_bt_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_a_bt_slices: out length");
    let _t = Timer::start(KernelOp::MatmulABt);
    a_bt(F32Tier::detect(), a, b, out, m, k, n);
}

/// Row-panel dispatch of [`matmul_a_bt_slices`] on tier `tier`.
fn a_bt(tier: F32Tier, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if k == 0 {
        out.fill(0.0);
    } else if worth_parallel(m, k, n) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            a_bt_panel(tier, &a[i0 * k..i1 * k], b, out_rows, i1 - i0, k, n);
        });
    } else {
        a_bt_panel(tier, a, b, out, m, k, n);
    }
}

/// Sequential `C = A × Bᵀ` over an `m`-row slice of `A`/`out` (`k > 0`).
/// The packing choice follows the slice's own `m`, so a parallel panel of
/// a wide product packs its 32 rows of `A` rather than all of `B`.
fn a_bt_panel(tier: F32Tier, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    PACK_PANEL.with(|panel| {
        let mut panel = panel.borrow_mut();
        if m < n {
            let bv = AView {
                data: b,
                rs: k,
                ps: 1,
            };
            for i in (0..m).step_by(NR) {
                let rows = NR.min(m - i);
                pack_transposed(&a[i * k..(i + rows) * k], k, &mut panel);
                let ap = BPanel {
                    data: &panel,
                    stride: NR,
                };
                sweep(tier, bv, (0, n), ap, k, |j, cols, t| {
                    for (c, trow) in t.iter().enumerate().take(cols) {
                        for (r, &v) in trow.iter().enumerate().take(rows) {
                            out[(i + r) * n + j + c] = v;
                        }
                    }
                });
            }
        } else {
            let av = AView {
                data: a,
                rs: k,
                ps: 1,
            };
            for j in (0..n).step_by(NR) {
                let cols = NR.min(n - j);
                pack_transposed(&b[j * k..(j + cols) * k], k, &mut panel);
                let bp = BPanel {
                    data: &panel,
                    stride: NR,
                };
                sweep(tier, av, (0, m), bp, k, |i, rows, t| {
                    store_tile(out, n, (i, j), rows, cols, t);
                });
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
// `p = 2q` and `2q + 1` side by side. One `_mm_madd_epi16` (SSE2) then
// multiplies a broadcast A pair against four B column pairs, and one
// `_mm256_madd_epi16` (AVX2) against all eight of a panel's, summing each
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

/// One `MR_I8 × NR_I8` block of exact i32 outputs.
type I8Tile = [[i32; NR_I8]; MR_I8];

/// The integer tile implementations. Their i32 sums are exact, so all of
/// them return the same values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum I8Tier {
    /// Portable reference loop.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    Scalar,
    /// `_mm_madd_epi16` on two `__m128i` per row; SSE2 is part of the
    /// x86_64 baseline.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// `_mm256_madd_epi16` on one `__m256i` per row. Only
    /// [`I8Tier::detect`] and the tests construct it, both after checking
    /// that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl I8Tier {
    /// The fastest tier the running CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Self::Avx2
            } else {
                Self::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::Scalar
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Self::Sse2 => "sse2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
        }
    }

    /// The exact i32 products of one packed A block and one packed B panel.
    #[inline(always)]
    fn tile(self, ap: &[i16], bp: &[i16]) -> I8Tile {
        match self {
            Self::Scalar => i8_tile_scalar(ap, bp),
            #[cfg(target_arch = "x86_64")]
            Self::Sse2 => i8_tile_sse2(ap, bp),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
                // SAFETY: `Avx2` is only constructed after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { i8_tile_avx2(ap, bp) }
            }
        }
    }
}

/// Scalar reference for the integer tile: the exact `MR_I8 × NR_I8` i32
/// sums of one packed A block against one packed B panel. Every SIMD tier
/// is pinned against it.
fn i8_tile_scalar(ap: &[i16], bp: &[i16]) -> I8Tile {
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
/// pair sums to at most 2·128² in i32) plus `_mm_add_epi32`.
#[cfg(target_arch = "x86_64")]
fn i8_tile_sse2(ap: &[i16], bp: &[i16]) -> I8Tile {
    let steps = ap.len() / (2 * MR_I8);
    assert!(bp.len() >= steps * 2 * NR_I8, "i8 tile: short B panel");
    // SAFETY: SSE2 is baseline on x86_64; every load is unaligned and stays
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

/// AVX2 integer tile: per pair step, one 8-column B vector (the panel's
/// 16 i16 of that step, read in place) times `MR_I8` broadcast A pairs
/// through `_mm256_madd_epi16` plus `_mm256_add_epi32`; exact like the
/// SSE2 tile.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_tile_avx2(ap: &[i16], bp: &[i16]) -> I8Tile {
    use std::arch::x86_64::*;
    let steps = ap.len() / (2 * MR_I8);
    assert!(bp.len() >= steps * 2 * NR_I8, "i8 tile: short B panel");
    let mut out = [[0i32; NR_I8]; MR_I8];
    // SAFETY: the caller guarantees AVX2; every load is unaligned and stays
    // inside the `steps` packed steps the assert above bounds; each store
    // writes one 8-lane row of `out`.
    unsafe {
        let mut acc = [_mm256_setzero_si256(); MR_I8];
        for q in 0..steps {
            let b = _mm256_loadu_si256(bp.as_ptr().add(q * 2 * NR_I8) as *const __m256i);
            let a = ap.as_ptr().add(q * 2 * MR_I8);
            for (r, accrow) in acc.iter_mut().enumerate() {
                let pair = _mm256_set1_epi32((a.add(2 * r) as *const i32).read_unaligned());
                *accrow = _mm256_add_epi32(*accrow, _mm256_madd_epi16(pair, b));
            }
        }
        for (o, accrow) in out.iter_mut().zip(&acc) {
            _mm256_storeu_si256(o.as_mut_ptr() as *mut __m256i, *accrow);
        }
    }
    out
}

/// `C = A × Bᵀ` over `i8` operands with exact `i32` accumulation:
/// `a: (m, k)` and `b: (n, k)` row-major, writing `out: (m, n)`, fully
/// overwritten.
///
/// This is the NPU arm's compute kernel: integer accumulation is exact (no
/// rounding at any summation order), so the AVX2, SSE2, scalar and row-parallel
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
        let tier = I8Tier::detect();
        if worth_parallel(m, k, n) {
            par_row_panels(out, m, n, &|i0, i1, out_rows| {
                matmul_i8_panel(tier, &a[i0 * k..i1 * k], bpack, out_rows, i1 - i0, k, n);
            });
        } else {
            matmul_i8_panel(tier, a, bpack, out, m, k, n);
        }
    });
}

/// Sequential integer kernel over an `m`-row slice of `A`/`out` against the
/// packed `B` panels (`k > 0`). Each B panel stays L1-resident while every
/// packed A block of the slice passes over it; padded rows and columns of a
/// tile are computed and dropped.
fn matmul_i8_panel(
    tier: I8Tier,
    a: &[i8],
    bpack: &[i16],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    let steps = k.div_ceil(2);
    I8_PACK_A.with(|apack| {
        let mut apack = apack.borrow_mut();
        pack_i8_pairs(a, m, k, MR_I8, &mut apack);
        for (jb, bpanel) in bpack.chunks_exact(steps * 2 * NR_I8).enumerate() {
            let j0 = jb * NR_I8;
            let cols = NR_I8.min(n - j0);
            for (ib, ablock) in apack.chunks_exact(steps * 2 * MR_I8).enumerate() {
                let i0 = ib * MR_I8;
                let tile = tier.tile(ablock, bpanel);
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

            let tier = F32Tier::detect();
            let mut serial = vec![0.0f32; m * n];
            let av = AView {
                data: a.data(),
                rs: k,
                ps: 1,
            };
            gemm_panel(tier, av, (0, m), b.data(), &mut serial, k, n);
            let par = matmul(&a, &b);
            assert_eq!(par.data(), &serial[..], "matmul {m}x{k}x{n}");

            let at = transpose(&a);
            let mut serial = vec![0.0f32; m * n];
            let av = AView {
                data: at.data(),
                rs: 1,
                ps: m,
            };
            gemm_panel(tier, av, (0, m), b.data(), &mut serial, k, n);
            let par = matmul_at_b(&at, &b);
            assert_eq!(par.data(), &serial[..], "matmul_at_b {m}x{k}x{n}");

            let bt = transpose(&b);
            let mut serial = vec![0.0f32; m * n];
            a_bt_panel(tier, a.data(), bt.data(), &mut serial, m, k, n);
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

    /// Every f32 tier this host can run: the scalar reference first.
    fn f32_tiers() -> Vec<F32Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![F32Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(F32Tier::Sse2);
            if std::arch::is_x86_feature_detected!("avx") {
                tiers.push(F32Tier::Avx);
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        tiers.push(F32Tier::Neon);
        tiers
    }

    /// Every i8 tier this host can run: the scalar reference first.
    fn i8_tiers() -> Vec<I8Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![I8Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(I8Tier::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(I8Tier::Avx2);
            }
        }
        tiers
    }

    /// The three GEMM forms of a layer's training step.
    #[derive(Clone, Copy, Debug)]
    enum Form {
        /// `A × B`: backward data.
        AB,
        /// `Aᵀ × B`: weight gradients.
        AtB,
        /// `A × Bᵀ`: forward.
        ABt,
    }

    /// The GEMMs of one VGG-11 training step (width 0.22, 8×8 input) at
    /// `batch`, as `(form, m, k, n)`: per conv layer the forward, weight-
    /// gradient and data-gradient products of its im2col lowering, then the
    /// classifier's.
    fn vgg11_gemms(batch: usize) -> Vec<(Form, usize, usize, usize)> {
        let ch = |base: usize| ((base as f32 * 0.22).round() as usize).max(2);
        let plan = [(64, true), (128, true), (256, false), (256, true)];
        let plan = plan
            .into_iter()
            .chain([(512, false), (512, true), (512, false), (512, true)]);
        let (mut cin, mut size, mut gemms) = (3, 8, Vec::new());
        for (base, pool) in plan {
            let (cout, rows) = (ch(base), batch * size * size);
            gemms.push((Form::ABt, rows, 9 * cin, cout));
            gemms.push((Form::AtB, cout, rows, 9 * cin));
            gemms.push((Form::AB, rows, cout, 9 * cin));
            if pool && size >= 2 {
                size /= 2;
            }
            cin = cout;
        }
        gemms.push((Form::AB, batch, cin, 10));
        gemms.push((Form::AtB, cin, batch, 10));
        gemms.push((Form::ABt, batch, 10, cin));
        gemms
    }

    /// Shapes that cross every tile edge: each column tail `n mod NR` from
    /// 1 to 15 (alone and after a full block), each row tail `m mod MR`
    /// from 1 to 3, and empty `k`, `m` and `n`.
    fn edge_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for t in 1..NR {
            shapes.push((7, 9, t));
            shapes.push((9, 5, NR + t));
            shapes.push((NR + t, 6, 3));
        }
        for r in 1..MR {
            shapes.push((MR + r, 11, 2 * NR + 1));
            shapes.push((r, 3, NR));
        }
        shapes.extend([(5, 0, 17), (20, 0, 3), (0, 5, 17), (0, 0, 0), (6, 4, 0)]);
        shapes
    }

    /// Runs one product in `form` on `tier`, returning the `(m, n)`
    /// row-major output.
    fn run_f32(
        tier: F32Tier,
        form: Form,
        a: &[f32],
        b: &[f32],
        mkn: (usize, usize, usize),
    ) -> Vec<f32> {
        let (m, k, n) = mkn;
        let mut out = vec![f32::NAN; m * n];
        match form {
            Form::AB => gemm(
                tier,
                AView {
                    data: a,
                    rs: k,
                    ps: 1,
                },
                b,
                &mut out,
                m,
                k,
                n,
            ),
            Form::AtB => gemm(
                tier,
                AView {
                    data: a,
                    rs: 1,
                    ps: m,
                },
                b,
                &mut out,
                m,
                k,
                n,
            ),
            Form::ABt => a_bt(tier, a, b, &mut out, m, k, n),
        }
        out
    }

    fn bits(v: Vec<f32>) -> Vec<u32> {
        v.into_iter().map(f32::to_bits).collect()
    }

    /// The naive triple loop for `form`: ascending `p`, multiply then add.
    fn naive(form: Form, a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (av, bv) = match form {
                        Form::AB => (a[i * k + p], b[p * n + j]),
                        Form::AtB => (a[p * m + i], b[p * n + j]),
                        Form::ABt => (a[i * k + p], b[j * k + p]),
                    };
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Every f32 tier equals the naive triple loop bit for bit, in all three
    /// forms, on every VGG-11 training GEMM at batch 4 and 16 and on every
    /// tile edge.
    #[test]
    fn f32_tiers_match_naive_bitwise() {
        let mut cases: Vec<(Form, usize, usize, usize)> =
            [4, 16].into_iter().flat_map(vgg11_gemms).collect();
        for (m, k, n) in edge_shapes() {
            cases.extend([
                (Form::AB, m, k, n),
                (Form::AtB, m, k, n),
                (Form::ABt, m, k, n),
            ]);
        }
        for (case, &(form, m, k, n)) in cases.iter().enumerate() {
            let a = rand_matrix(m, k, case as u64 * 2 + 1);
            let b = rand_matrix(k, n, case as u64 * 2 + 2);
            let expect = bits(naive(form, a.data(), b.data(), (m, k, n)));
            for tier in f32_tiers() {
                let got = bits(run_f32(tier, form, a.data(), b.data(), (m, k, n)));
                assert!(got == expect, "{tier:?} {form:?} {m}x{k}x{n}");
            }
        }
    }

    /// Every integer tier equals the scalar tile exactly on packed blocks
    /// over the full i8 range, at step counts from 1 to 40, and at the
    /// extreme products.
    #[test]
    fn i8_tiers_match_scalar_tile_exactly() {
        for k in 1..80usize {
            let a = rand_i8(MR_I8 * k, k as u64 + 1);
            let b = rand_i8(NR_I8 * k, k as u64 * 31 + 7);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            pack_i8_pairs(&a, MR_I8, k, MR_I8, &mut ap);
            pack_i8_pairs(&b, NR_I8, k, NR_I8, &mut bp);
            let expect = i8_tile_scalar(&ap, &bp);
            for tier in i8_tiers() {
                assert_eq!(tier.tile(&ap, &bp), expect, "{tier:?} k {k}");
            }
        }
        // the extreme products: every lane at -128 × -128
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_i8_pairs(&[-128; MR_I8 * 64], MR_I8, 64, MR_I8, &mut ap);
        pack_i8_pairs(&[-128; NR_I8 * 64], NR_I8, 64, NR_I8, &mut bp);
        for tier in i8_tiers() {
            assert_eq!(
                tier.tile(&ap, &bp),
                [[64 * 128 * 128; NR_I8]; MR_I8],
                "{tier:?}"
            );
        }
    }

    /// Every integer tier, through the full packed GEMM, equals a widened
    /// i32 triple loop exactly on the INT8 arm's VGG-11 forward GEMMs at
    /// batch 4 and 16 and on every tile edge.
    #[test]
    fn i8_tiers_match_widened_reference_on_layer_shapes() {
        let mut shapes: Vec<(usize, usize, usize)> = [4, 16]
            .into_iter()
            .flat_map(vgg11_gemms)
            .filter(|g| matches!(g.0, Form::ABt))
            .map(|(_, m, k, n)| (m, k, n))
            .collect();
        shapes.extend(edge_shapes().into_iter().filter(|s| s.1 > 0));
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let a = rand_i8(m * k, case as u64 * 2 + 1);
            let b = rand_i8(n * k, case as u64 * 2 + 2);
            let mut expect = vec![0i32; m * n];
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] = (0..k)
                        .map(|p| a[i * k + p] as i32 * b[j * k + p] as i32)
                        .sum();
                }
            }
            let mut bpack = Vec::new();
            pack_i8_pairs(&b, n, k, NR_I8, &mut bpack);
            for tier in i8_tiers() {
                let mut out = vec![i32::MIN; m * n];
                matmul_i8_panel(tier, &a, &bpack, &mut out, m, k, n);
                assert_eq!(out, expect, "{tier:?} {m}x{k}x{n}");
            }
        }
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
            matmul_i8_panel(I8Tier::detect(), &a, &bpack, &mut serial, m, k, n);
            let mut par = vec![0i32; m * n];
            matmul_i8_a_bt_slices(&a, &b, &mut par, m, k, n);
            assert_eq!(par, serial, "matmul_i8 {m}x{k}x{n}");
        }
    }
}
