//! The dense kernels HPL needs, on raw column-major buffers: `dgemm`
//! (C −= A·B), `dtrsm` (unit-lower triangular solve), `dscal`/`dger`-style
//! panel updates, and `idamax`.
//!
//! All three level-2/3 routines are one kernel stack in the private
//! `kernel` module: [`dgemm_minus`] is its packed, register-blocked
//! product, [`dtrsm_lower_unit`] halves its triangle until all but the
//! small diagonal blocks is a `dgemm_minus`, and [`dger_minus`] is its
//! rank-1 loop — unpacked, a column at a time, and bit for bit the
//! `k = 1` product, which packs and copies a partial tile for every narrow
//! `n`.
//! The kernel has three register tiles, and CPUID picks the first one the
//! CPU runs, once ([`kernel_name`] says which): a 24×8 AVX-512F tile, an
//! 8×6 AVX2+FMA tile, a portable 4×4 tile. On an AVX-512 host a
//! `dgemm_minus` of fewer than 24 rows (`dtrsm`'s inner products) runs the
//! 8×6 tile, which EXP-K1 measured faster there. The two FMA tiles give
//! the same bits — each element of `C` is the same chain of fused
//! negate-multiply-adds in the same order — so the host's answers depend
//! only on whether it has FMA. The functions here are safe: every length
//! the kernel relies on is asserted before it runs. Flop counts are
//! reported by the callers for the simulator's time model.

use crate::kernel;
use std::cell::RefCell;

pub use crate::kernel::{Kernel, PackedA};

/// The micro-kernel this process dispatches to — instruction set and
/// register tile, e.g. `"avx2+fma+avx512f 24x8"`, `"avx2+fma 8x6"` or
/// `"portable 4x4"`. Chosen from CPUID alone, once.
pub fn kernel_name() -> &'static str {
    Kernel::dispatched().name()
}

/// [`dgemm_minus`] on `kernel` whatever the shape — how EXP-K1 times each
/// tile the CPU has on the same operands.
///
/// # Panics
/// As [`dgemm_minus`].
#[allow(clippy::too_many_arguments)]
pub fn dgemm_minus_on(
    kernel: Kernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    kernel::gemm_minus(kernel, m, n, k, a, lda, b, ldb, c, ldc);
}

/// `C[0..m, 0..n] -= A[0..m, 0..k] * B[0..k, 0..n]` on column-major
/// buffers with leading dimensions `lda`, `ldb`, `ldc`.
///
/// # Panics
/// Panics if a leading dimension is smaller than its operand's row count
/// or a slice is shorter than its operand: `a.len() ≥ lda·(k−1)+m`,
/// `b.len() ≥ ldb·(n−1)+k`, `c.len() ≥ ldc·(n−1)+m`.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_minus(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let kernel = Kernel::dispatched().for_shape(m);
    kernel::gemm_minus(kernel, m, n, k, a, lda, b, ldb, c, ldc);
}

/// Triangles up to this order are solved by the scalar recurrence; larger
/// ones are halved. With `nb = 64` that leaves 1/8 of the flops scalar.
const TRSM_IB: usize = 8;

thread_local! {
    /// The solved upper half of the right-hand side, copied out so the
    /// update of the lower half can read it while writing the same columns.
    static TRSM_X1: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Solve `L X = B` in place where `L` is `nb × nb` **unit lower**
/// triangular (column-major, leading dim `ldl`) and `B` is `nb × n`
/// (leading dim `ldb`). On return `B` holds `X` — the `U12` block step of
/// right-looking LU.
///
/// # Panics
/// Panics if a leading dimension is smaller than `nb` or a slice is
/// shorter than its operand: `l.len() ≥ ldl·(nb−1)+nb`,
/// `b.len() ≥ ldb·(n−1)+nb`.
pub fn dtrsm_lower_unit(nb: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    trsm_on(Kernel::dispatched(), nb, n, l, ldl, b, ldb);
}

/// [`dtrsm_lower_unit`] with its products on `kernel` (routed by shape).
fn trsm_on(kernel: Kernel, nb: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    if nb == 0 || n == 0 {
        return;
    }
    assert!(ldl >= nb && ldb >= nb, "leading dims too small");
    assert!(
        l.len() >= ldl * (nb - 1) + nb,
        "L: slice shorter than nb x nb"
    );
    assert!(
        b.len() >= ldb * (n - 1) + nb,
        "B: slice shorter than nb x n"
    );
    TRSM_X1.with_borrow_mut(|x1| {
        if x1.len() < nb / 2 * n {
            x1.resize(nb / 2 * n, 0.0);
        }
        trsm_halved(kernel, nb, n, l, ldl, b, ldb, x1);
    });
}

/// `[L11 0; L21 L22]·[X1; X2] = [B1; B2]`: solve for `X1`, subtract
/// `L21·X1` from `B2` with `kernel`, solve for `X2`.
#[allow(clippy::too_many_arguments)]
fn trsm_halved(
    kernel: Kernel,
    nb: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
    x1: &mut [f64],
) {
    if nb <= TRSM_IB {
        return trsm_scalar(nb, n, l, ldl, b, ldb);
    }
    let h = nb / 2;
    trsm_halved(kernel, h, n, l, ldl, b, ldb, x1);
    for (dst, src) in x1.chunks_exact_mut(h).zip(b.chunks(ldb)).take(n) {
        dst.copy_from_slice(&src[..h]);
    }
    let on = kernel.for_shape(nb - h);
    kernel::gemm_minus(on, nb - h, n, h, &l[h..], ldl, x1, h, &mut b[h..], ldb);
    trsm_halved(
        kernel,
        nb - h,
        n,
        &l[h + h * ldl..],
        ldl,
        &mut b[h..],
        ldb,
        x1,
    );
}

/// The forward-substitution recurrence, one right-hand side at a time, on
/// a triangle of order `nb ≤ TRSM_IB`. `L` and each right-hand side are
/// copied into `TRSM_IB`-sized arrays (zero-padded: a padded row only ever
/// feeds padded rows), so the elimination loops have constant bounds and
/// unroll into straight-line code.
fn trsm_scalar(nb: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    let mut lt = [[0.0f64; TRSM_IB]; TRSM_IB];
    for (i, col) in lt.iter_mut().enumerate().take(nb) {
        col[i + 1..nb].copy_from_slice(&l[i * ldl + i + 1..i * ldl + nb]);
    }
    for bj in b.chunks_mut(ldb).take(n) {
        let mut x = [0.0f64; TRSM_IB];
        x[..nb].copy_from_slice(&bj[..nb]);
        for i in 0..TRSM_IB {
            let xi = x[i];
            // Eliminate x_i from the rows below.
            for r in i + 1..TRSM_IB {
                x[r] -= lt[i][r] * xi;
            }
        }
        bj[..nb].copy_from_slice(&x[..nb]);
    }
}

/// Index of the element with the largest absolute value (first on ties).
pub fn idamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut bv = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v.abs() > bv {
            bv = v.abs();
            best = i;
        }
    }
    Some(best)
}

/// Scale `x *= alpha`.
pub fn dscal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Rank-1 update `A[0..m, 0..n] -= x[0..m] * y[0..n]^T` (column-major,
/// leading dim `lda`) — the panel's update within an inner block. The
/// same bits as [`dgemm_minus`] with `k = 1`, without its packing.
///
/// # Panics
/// Panics if `lda < m`, `x.len() < m`, `y.len() < n` or
/// `a.len() < lda·(n−1)+m`.
pub fn dger_minus(m: usize, n: usize, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    kernel::ger_minus(Kernel::dispatched(), m, n, x, y, a, lda);
}

/// Flops of a `dgemm_minus` call (multiply + subtract).
pub fn dgemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Flops of a `dtrsm_lower_unit` call.
pub fn dtrsm_flops(nb: usize, n: usize) -> u64 {
    (nb as u64) * (nb as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{hpl_element, Matrix};
    use proptest::prelude::*;

    fn naive_mul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn dgemm_matches_naive() {
        let a = crate::matrix::hpl_matrix(1, 7);
        let b = crate::matrix::hpl_matrix(2, 7);
        let mut c = crate::matrix::hpl_matrix(3, 7);
        let expect = {
            let mut e = c.clone();
            let p = naive_mul(&a, &b);
            for j in 0..7 {
                for i in 0..7 {
                    e.set(i, j, e.get(i, j) - p.get(i, j));
                }
            }
            e
        };
        dgemm_minus(
            7,
            7,
            7,
            a.as_slice(),
            7,
            b.as_slice(),
            7,
            c.as_mut_slice(),
            7,
        );
        for j in 0..7 {
            for i in 0..7 {
                assert!((c.get(i, j) - expect.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dgemm_rectangular_with_ld() {
        // 2x3 -= (2x1)*(1x3) inside larger buffers.
        let a = vec![1.0, 2.0, 99.0, 99.0]; // lda=4, col0 = [1,2]
        let b = vec![10.0, 99.0, 20.0, 99.0, 30.0, 99.0]; // ldb=2, row0 = 10,20,30
        let mut c = vec![0.0; 12]; // ldc=4
        dgemm_minus(2, 3, 1, &a, 4, &b, 2, &mut c, 4);
        assert_eq!(c[0], -10.0);
        assert_eq!(c[1], -20.0);
        assert_eq!(c[4], -20.0);
        assert_eq!(c[5], -40.0);
        assert_eq!(c[8], -30.0);
        assert_eq!(c[9], -60.0);
        assert_eq!(c[2], 0.0, "rows beyond m untouched");
    }

    /// Marks every element of a padded buffer that no kernel may write.
    const SENTINEL: f64 = -7.25e300;

    /// `mat` laid out with leading dimension `ld > rows`, the padding rows
    /// holding [`SENTINEL`].
    fn padded(mat: &Matrix, ld: usize) -> Vec<f64> {
        let mut buf = vec![SENTINEL; ld * mat.cols()];
        for j in 0..mat.cols() {
            buf[j * ld..j * ld + mat.rows()].copy_from_slice(mat.col(j));
        }
        buf
    }

    fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, hpl_element(seed, cols, i, j));
            }
        }
        m
    }

    /// Run `C −= A·B` on every kernel this CPU supports, inside buffers
    /// whose leading dimensions exceed the operands by `pad`, and check the
    /// result against [`naive_mul`] and the padding against [`SENTINEL`].
    fn check_gemm_on_every_kernel(m: usize, n: usize, k: usize, pad: [usize; 3], seed: u64) {
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed + 1, k, n);
        let c0 = random_matrix(seed + 2, m, n);
        let product = naive_mul(&a, &b);
        let [lda, ldb, ldc] = [m + pad[0], k + pad[1], m + pad[2]];
        let (pa, pb) = (padded(&a, lda), padded(&b, ldb));
        for kernel in Kernel::supported() {
            let mut pc = padded(&c0, ldc);
            kernel::gemm_minus(kernel, m, n, k, &pa, lda, &pb, ldb, &mut pc, ldc);
            for j in 0..n {
                for i in 0..ldc {
                    let got = pc[i + j * ldc];
                    if i < m {
                        let want = c0.get(i, j) - product.get(i, j);
                        assert!(
                            (got - want).abs() <= 1e-13 * (k + 1) as f64,
                            "{}: C({i},{j}) = {got}, want {want} (m={m} n={n} k={k})",
                            kernel.name()
                        );
                    } else {
                        assert!(
                            got == SENTINEL,
                            "{}: padding row {i} of column {j} written (m={m} n={n} k={k})",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dgemm_matches_naive_on_every_kernel(
            m in 0usize..=70,
            n in 0usize..=70,
            k in 0usize..=70,
            pad in (1usize..=5, 1usize..=5, 1usize..=5),
            seed in 0u64..1000,
        ) {
            check_gemm_on_every_kernel(m, n, k, [pad.0, pad.1, pad.2], seed);
        }
    }

    #[test]
    fn dgemm_edge_tiles_and_cache_block_seams() {
        // Below one register tile, one step deep, and one past each cache
        // block (MC = 240, KC = 256, NC = 4080).
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 1),
            (7, 5, 2),
            (8, 6, 1),
            (9, 7, 3),
            (25, 9, 2),
            (129, 13, 257),
            (241, 9, 3),
            (5, 4081, 2),
        ] {
            check_gemm_on_every_kernel(m, n, k, [1, 2, 3], 77);
        }
    }

    /// `A` packed once, then one call per block of `width` columns, equals
    /// one [`dgemm_minus`] bit for bit — across the cache-block seams
    /// (MC = 240, KC = 256) and on every kernel this CPU supports.
    #[test]
    fn a_packed_operand_split_by_columns_changes_no_bit() {
        for (m, n, k, width) in [
            (129, 70, 257, 64),
            (200, 130, 64, 64),
            (241, 40, 64, 16),
            (9, 13, 3, 5),
        ] {
            let a = padded(&random_matrix(1, m, k), m + 1);
            let b = padded(&random_matrix(2, k, n), k + 2);
            let c0 = padded(&random_matrix(3, m, n), m + 3);
            let (lda, ldb, ldc) = (m + 1, k + 2, m + 3);
            for kernel in Kernel::supported() {
                let mut whole = c0.clone();
                kernel::gemm_minus(kernel, m, n, k, &a, lda, &b, ldb, &mut whole, ldc);
                let mut packed = PackedA::on(kernel, m, k);
                packed.pack(m, k, &a, lda);
                let mut split = c0.clone();
                for j in (0..n).step_by(width) {
                    let w = width.min(n - j);
                    packed.gemm_minus(w, &b[j * ldb..], ldb, &mut split[j * ldc..], ldc);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&whole) == bits(&split),
                    "{} m={m} n={n} k={k}",
                    kernel.name()
                );
            }
        }
    }

    /// The FMA kernels this CPU has, widest first.
    fn fma_kernels() -> Vec<Kernel> {
        let all = Kernel::supported().into_iter();
        all.filter(|k| k.name().starts_with("avx2+fma")).collect()
    }

    /// Every FMA kernel this CPU has leaves the same bits: `C −= A·B` with
    /// `m` and `n` off every tile multiple and across `MC`,
    /// `k` from 1 to past `KC` (256), the same product through
    /// [`PackedA`] split by columns, and [`dtrsm_lower_unit`]. On a host
    /// without AVX-512 there is one FMA kernel and the test compares it
    /// with itself (and on one without FMA it has nothing to compare).
    #[test]
    fn fma_kernels_agree_to_the_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let kernels = fma_kernels();
        for k in [1, 8, 16, 32, 64, 300] {
            for (m, n) in [
                (1, 1),
                (7, 5),
                (23, 9),
                (25, 13),
                (61, 70),
                (129, 7),
                (241, 30),
            ] {
                let (lda, ldb, ldc) = (m + 1, k + 2, m + 3);
                let a = padded(&random_matrix(1, m, k), lda);
                let b = padded(&random_matrix(2, k, n), ldb);
                let c0 = padded(&random_matrix(3, m, n), ldc);
                let mut first = None;
                for &kernel in &kernels {
                    let mut whole = c0.clone();
                    kernel::gemm_minus(kernel, m, n, k, &a, lda, &b, ldb, &mut whole, ldc);
                    let mut packed = PackedA::on(kernel, m, k);
                    packed.pack(m, k, &a, lda);
                    let mut split = c0.clone();
                    for j in (0..n).step_by(16) {
                        let w = 16.min(n - j);
                        packed.gemm_minus(w, &b[j * ldb..], ldb, &mut split[j * ldc..], ldc);
                    }
                    let want = first.get_or_insert_with(|| bits(&whole));
                    let at = format!("{} m={m} n={n} k={k}", kernel.name());
                    assert!(bits(&whole) == *want, "{at}: dgemm");
                    assert!(bits(&split) == *want, "{at}: PackedA split by columns");
                }
            }
        }
        for nb in [8, 16, 32, 64, 65] {
            for n in [1, 37, 300] {
                let (ldl, ldb) = (nb + 2, nb + 3);
                let l = padded(&random_matrix(nb as u64, nb, nb), ldl);
                let rhs = padded(&random_matrix(99, nb, n), ldb);
                let mut first = None;
                for &kernel in &kernels {
                    let mut x = rhs.clone();
                    trsm_on(kernel, nb, n, &l, ldl, &mut x, ldb);
                    let want = first.get_or_insert_with(|| bits(&x));
                    assert!(bits(&x) == *want, "{} nb={nb} n={n}: dtrsm", kernel.name());
                }
            }
        }
    }

    /// The rank-1 kernel leaves the bits `C −= A·B` with `k = 1` leaves, on
    /// every kernel this CPU supports (the portable one included), with
    /// `lda > m` and its padding untouched.
    #[test]
    fn ger_equals_gemm_with_k_one_on_every_kernel() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in [1, 7, 24, 241, 2048] {
            for n in [1, 5, 8, 63] {
                let lda = m + 3;
                let x = random_matrix(1, m, 1);
                let y = random_matrix(2, 1, n);
                let a0 = padded(&random_matrix(3, m, n), lda);
                for kernel in Kernel::supported() {
                    let mut gemm = a0.clone();
                    let (x, y) = (x.as_slice(), y.as_slice());
                    kernel::gemm_minus(kernel, m, n, 1, x, m, y, 1, &mut gemm, lda);
                    let mut ger = a0.clone();
                    kernel::ger_minus(kernel, m, n, x, y, &mut ger, lda);
                    assert!(bits(&ger) == bits(&gemm), "{} m={m} n={n}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn kernel_name_says_which_tile_runs() {
        let name = kernel_name();
        assert!(
            ["avx2+fma+avx512f 24x8", "avx2+fma 8x6", "portable 4x4"].contains(&name),
            "{name}"
        );
        assert_eq!(name, Kernel::supported()[0].name());
    }

    #[test]
    #[should_panic(expected = "A: slice shorter")]
    fn dgemm_rejects_short_a() {
        dgemm_minus(4, 3, 2, &[0.0; 7], 4, &[0.0; 6], 2, &mut [0.0; 12], 4);
    }

    #[test]
    #[should_panic(expected = "B: slice shorter")]
    fn dgemm_rejects_short_b() {
        dgemm_minus(4, 3, 2, &[0.0; 8], 4, &[0.0; 5], 2, &mut [0.0; 12], 4);
    }

    #[test]
    #[should_panic(expected = "C: slice shorter")]
    fn dgemm_rejects_short_c() {
        dgemm_minus(4, 3, 2, &[0.0; 8], 4, &[0.0; 6], 2, &mut [0.0; 11], 4);
    }

    #[test]
    #[should_panic(expected = "L: slice shorter")]
    fn dtrsm_rejects_short_l() {
        dtrsm_lower_unit(3, 2, &[0.0; 8], 3, &mut [0.0; 6], 3);
    }

    #[test]
    #[should_panic(expected = "B: slice shorter")]
    fn dtrsm_rejects_short_b() {
        dtrsm_lower_unit(3, 2, &[0.0; 9], 3, &mut [0.0; 5], 3);
    }

    #[test]
    #[should_panic(expected = "A: slice shorter")]
    fn dger_rejects_short_x() {
        dger_minus(3, 2, &[0.0; 2], &[0.0; 2], &mut [0.0; 6], 3);
    }

    #[test]
    #[should_panic(expected = "B: slice shorter")]
    fn dger_rejects_short_y() {
        dger_minus(3, 2, &[0.0; 3], &[0.0; 1], &mut [0.0; 6], 3);
    }

    #[test]
    #[should_panic(expected = "C: slice shorter")]
    fn dger_rejects_short_a() {
        dger_minus(3, 2, &[0.0; 3], &[0.0; 2], &mut [0.0; 5], 3);
    }

    #[test]
    fn dtrsm_halved_matches_the_scalar_recurrence() {
        // Orders below, at and one past the blocking (TRSM_IB = 8, halving
        // from 64), over one, a few and many right-hand sides.
        for nb in [1usize, 7, 64, 65] {
            for n in [1usize, 37, 300] {
                let src = random_matrix(nb as u64, nb, nb);
                let (ldl, ldb) = (nb + 2, nb + 3);
                let l = padded(&src, ldl);
                let rhs = random_matrix(99, nb, n);
                let mut got = padded(&rhs, ldb);
                dtrsm_lower_unit(nb, n, &l, ldl, &mut got, ldb);
                // The recurrence, element by element (strictly lower part
                // of `src`, unit diagonal implied).
                let mut want = rhs.clone();
                for j in 0..n {
                    for i in 0..nb {
                        let xi = want.get(i, j);
                        for r in i + 1..nb {
                            want.set(r, j, want.get(r, j) - src.get(r, i) * xi);
                        }
                    }
                }
                for j in 0..n {
                    for i in 0..ldb {
                        let g = got[i + j * ldb];
                        if i < nb {
                            let w = want.get(i, j);
                            assert!(
                                (g - w).abs() <= 1e-11 * w.abs().max(1.0),
                                "nb={nb} n={n}: X({i},{j}) = {g}, want {w}"
                            );
                        } else {
                            assert!(g == SENTINEL, "nb={nb} n={n}: padding ({i},{j}) written");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dtrsm_solves_unit_lower_system() {
        // L = [[1,0],[0.5,1]]; B = L * X with X = [[2],[3]] => B = [[2],[4]].
        let l = vec![1.0, 0.5, 0.0, 1.0];
        let mut b = vec![2.0, 4.0];
        dtrsm_lower_unit(2, 1, &l, 2, &mut b, 2);
        assert!((b[0] - 2.0).abs() < 1e-14);
        assert!((b[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn dtrsm_random_roundtrip() {
        let n = 6;
        let src = crate::matrix::hpl_matrix(9, n);
        // Build unit-lower L from src.
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            l.set(j, j, 1.0);
            for i in j + 1..n {
                l.set(i, j, src.get(i, j));
            }
        }
        let x = crate::matrix::hpl_matrix(10, n);
        let b = naive_mul(&l, &x);
        let mut solve = b.clone();
        dtrsm_lower_unit(n, n, l.as_slice(), n, solve.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (solve.get(i, j) - x.get(i, j)).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    solve.get(i, j),
                    x.get(i, j)
                );
            }
        }
    }

    #[test]
    fn idamax_finds_largest_abs() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[2.0, -2.0]), Some(0), "first on tie");
        assert_eq!(idamax(&[]), None);
    }

    #[test]
    fn dger_rank1() {
        let mut a = vec![0.0; 6]; // 2x3, lda 2
        dger_minus(2, 3, &[1.0, 2.0], &[10.0, 20.0, 30.0], &mut a, 2);
        assert_eq!(a, vec![-10.0, -20.0, -20.0, -40.0, -30.0, -60.0]);
    }

    #[test]
    fn dscal_scales() {
        let mut x = vec![1.0, -2.0];
        dscal(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0]);
    }

    #[test]
    fn flop_counts() {
        assert_eq!(dgemm_flops(2, 3, 4), 48);
        assert_eq!(dtrsm_flops(4, 5), 80);
    }
}
