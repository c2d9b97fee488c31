//! The one local compute kernel under [`crate::blas`]: a GotoBLAS-style
//! `C −= A·B` — operands packed into contiguous, zero-padded micro-panels
//! and an `MR × NR` register tile swept over them — and beside it its
//! `k = 1` case without the packing, the rank-1 loop [`ger_minus`] that
//! HPL's panel runs inside an inner block.
//!
//! ```text
//! for jc in 0..n step NC            B(pc.., jc..)  → NR-column panels
//!   for pc in 0..k step KC          A(ic.., pc..)  → MR-row panels
//!     for ic in 0..m step MC
//!       for jr in 0..nc step NR     B micro-panel: kc × NR, L1-resident
//!         for ir in 0..mc step MR   A micro-panel: MR × kc, streamed from L2
//!           C(ir.., jr..) −= Ã·B̃   MR × NR accumulators stay in registers
//! ```
//!
//! Three micro-kernels share the driver: an AVX-512F 24×8 one (twenty-four
//! `zmm` accumulators), an AVX2+FMA 8×6 one (twelve `ymm` accumulators) and
//! a plain-Rust 4×4 one for every other CPU. The choice is made once, from
//! CPUID, fastest first, and carried as a [`Kernel`] token that only this
//! module can mint — holding a token *is* the proof that the CPU has the
//! features its micro-kernel was compiled for. The AVX-512 token implies
//! AVX2 and FMA too, so the dispatched calls may hand a shape the 8×6 tile
//! runs faster to that tile ([`Kernel::for_shape`]).
//!
//! **Determinism.** Every element of `C` is updated by a chain of
//! subtractions whose order depends only on `(m, n, k)`: `pc` ascending,
//! then `l` ascending within the block. Edge tiles run the same micro-kernel
//! on a zero-padded copy, so whether an element sits in a full or a partial
//! tile changes nothing, and neither thread identity, buffer addresses nor
//! call history enter the arithmetic. The two FMA tiles compute the same
//! chain — `C` loaded once, one fused negate-multiply-add per `l`, stored
//! once per `pc` block — lane by lane, 8 doubles to a `zmm` or 4 to a
//! `ymm`, so they agree to the bit whatever their shape; the
//! portable tile rounds the product and the subtraction separately. The
//! rank-1 loop rounds as its token's tile does: `mul_add` (one rounding)
//! under the FMA tokens, a product then a subtraction under the portable
//! one.
//!
//! This is the only module of the crate that contains `unsafe` — the
//! crate denies `unsafe_code` and this module alone allows it: the
//! `std::arch` loads and stores of the two FMA micro-kernels and the calls
//! into the `#[target_feature]` functions. Every pointer it forms is
//! derived from a slice whose length was asserted first; callers establish
//! nothing.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::RefCell;
use std::sync::OnceLock;

/// Rows of `A` packed per `pc` block, a multiple of every kernel's `MR`:
/// an `MC × KC` block of doubles is 480 KiB, a quarter of a 2 MiB L2; at
/// HPL's `k = 64` it is 120 KiB.
const MC: usize = 240;
/// Depth of one packed block. HPL calls with `k = nb ≤ KC`, so its panels
/// are packed exactly once per call.
const KC: usize = 256;
/// Columns of `B` packed per `pc` block; a multiple of every kernel's `NR`.
const NC: usize = 4080;
/// Room for the largest register tile (24×8).
const MAX_TILE: usize = 192;

/// One packed block's worth of work, `C[0..mc, 0..nc] −= Ã·B̃`, compiled
/// for one instruction set: [`sweep`] with that set's micro-kernel inlined.
type BlockKernel =
    fn(mc: usize, nc: usize, kc: usize, a_pack: &[f64], b_pack: &[f64], c: &mut [f64], ldc: usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    Portable,
}

/// A micro-kernel this CPU can run. Only this module creates one:
/// [`Kernel::supported`] hands out the AVX2 token only after CPUID reported
/// `avx2` and `fma`, the AVX-512 one only after it reported `avx512f` as
/// well, and `Kernel::for_shape` trades the second for the first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Kind);

impl Kernel {
    /// The kernel this CPU gets, decided once per process.
    pub(crate) fn dispatched() -> Kernel {
        static CHOICE: OnceLock<Kernel> = OnceLock::new();
        *CHOICE.get_or_init(|| Kernel::supported()[0])
    }

    /// Every kernel this CPU can run, fastest first — how the tests and
    /// EXP-K1 reach the AVX2 and portable kernels on an AVX-512 host.
    pub fn supported() -> Vec<Kernel> {
        let mut all = Vec::new();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            if is_x86_feature_detected!("avx512f") {
                all.push(Kernel(Kind::Avx512));
            }
            all.push(Kernel(Kind::Avx2Fma));
        }
        all.push(Kernel(Kind::Portable));
        all
    }

    /// The kernel that runs an `m`-row `C −= A·B` whose `A` is packed per
    /// call: the 8×6 tile below [`SHORT_ROWS`] on an AVX-512 host, `self`
    /// otherwise. Same bits either way.
    pub(crate) fn for_shape(self, m: usize) -> Kernel {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 if m < SHORT_ROWS => Kernel(Kind::Avx2Fma),
            _ => self,
        }
    }

    /// Doubles an `m × k` `A` takes packed whole ([`PackedA`]): each
    /// `MC`-row block padded to the register tile's height, times `k`.
    fn packed_len(self, m: usize, k: usize) -> usize {
        let mr = match self.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => avx512::MR,
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2Fma => avx2::MR,
            Kind::Portable => portable::MR,
        };
        let rows: usize = (0..m)
            .step_by(MC)
            .map(|ic| MC.min(m - ic).next_multiple_of(mr))
            .sum();
        rows * k
    }

    /// Instruction set and register tile, e.g. `"avx2+fma 8x6"`. The
    /// AVX-512 tile's name begins like the 8×6 one's: their bits agree.
    pub fn name(self) -> &'static str {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => "avx2+fma+avx512f 24x8",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2Fma => "avx2+fma 8x6",
            Kind::Portable => "portable 4x4",
        }
    }
}

/// Below this many rows a per-call `C −= A·B` runs the 8×6 tile on an
/// AVX-512 host. `dtrsm_lower_unit`'s inner products at `nb = 64` have 8,
/// 16 and 32 rows, and the 24-row tile pads the first two to 24: EXP-K1's
/// `dgemm_8x1024x8` and `dgemm_16x1024x16` rows run 1.7–2.5× and
/// 1.1–1.4× faster on the 8×6 tile, and at 32 rows the two tiles tie.
const SHORT_ROWS: usize = 24;

/// The packed operands of the calling thread (one image = one thread).
/// Grown to what a call needs and kept, so a factorization allocates them
/// on its first update and never again.
struct PackBufs {
    a: Vec<f64>,
    b: Vec<f64>,
}

thread_local! {
    static PACK: RefCell<PackBufs> = const {
        RefCell::new(PackBufs {
            a: Vec::new(),
            b: Vec::new(),
        })
    };
}

/// Cache-line alignment for the packed panels, in doubles.
const ALIGN: usize = 8;

/// The first `len` doubles of `buf` that start on a 64-byte boundary,
/// growing `buf` if it is too short. Alignment only spares the micro-kernel
/// split loads; results do not depend on it.
fn aligned(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len + ALIGN {
        buf.resize(len + ALIGN, 0.0);
    }
    let skip = buf.as_ptr().align_offset(64).min(ALIGN);
    &mut buf[skip..skip + len]
}

/// `C[0..m, 0..n] −= A[0..m, 0..k] · B[0..k, 0..n]`, column-major.
///
/// # Panics
/// Panics if a leading dimension is smaller than its operand's row count,
/// or a slice is too short to hold its operand — the checks every raw
/// access below relies on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_minus(
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
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(lda >= m, "leading dims too small");
    assert!(a.len() >= lda * (k - 1) + m, "A: slice shorter than m x k");
    run(kernel, (m, n, k), Operand::Raw(a, lda), b, ldb, c, ldc);
}

/// `A[0..m, 0..n] −= x[0..m] · y[0..n]ᵀ`, column-major — the `k = 1` case of
/// [`gemm_minus`] without its packing: a column at a time, each element
/// updated as `gemm_minus` updates it, by one fused negate-multiply-add on
/// the FMA tokens and by a product and then a subtraction on the portable
/// one. HPL's panel runs one per column, on at most an inner block's width.
///
/// # Panics
/// Panics if `lda < m` or a slice is too short to hold its operand (named
/// as in `gemm_minus`: `x` is `A`, `y` is `B`, `a` is `C`).
pub(crate) fn ger_minus(
    kernel: Kernel,
    m: usize,
    n: usize,
    x: &[f64],
    y: &[f64],
    a: &mut [f64],
    lda: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= m, "leading dims too small");
    assert!(x.len() >= m, "A: slice shorter than m x 1");
    assert!(y.len() >= n, "B: slice shorter than 1 x n");
    assert!(a.len() >= lda * (n - 1) + m, "C: slice shorter than m x n");
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 | Kind::Avx2Fma => avx2::ger(m, n, x, y, a, lda),
        Kind::Portable => ger_columns(m, n, x, y, a, lda, |c, xi, yj| c - xi * yj),
    }
}

/// The rank-1 loop, `step(c, x_i, y_j)` giving each element's new value.
/// Lengths are checked by [`ger_minus`].
#[inline(always)]
fn ger_columns(
    m: usize,
    n: usize,
    x: &[f64],
    y: &[f64],
    a: &mut [f64],
    lda: usize,
    step: impl Fn(f64, f64, f64) -> f64,
) {
    let x = &x[..m];
    for (j, &yj) in y[..n].iter().enumerate() {
        for (c, &xi) in a[j * lda..j * lda + m].iter_mut().zip(x) {
            *c = step(*c, xi, yj);
        }
    }
}

/// Where the driver takes its packed blocks of `A` from.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// Column-major, with its leading dimension: each block is packed
    /// when the driver reaches it.
    Raw(&'a [f64], usize),
    /// Packed already, every block in the order the driver visits them
    /// ([`PackedA::pack`]).
    Packed(&'a [f64]),
}

/// `C −= A·B` on `kernel`'s driver, once `B` and `C` are checked (`A` is
/// the caller's to check). Dimensions are nonzero.
#[allow(clippy::too_many_arguments)]
fn run(
    kernel: Kernel,
    (m, n, k): (usize, usize, usize),
    a: Operand<'_>,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    assert!(ldb >= k && ldc >= m, "leading dims too small");
    assert!(b.len() >= ldb * (n - 1) + k, "B: slice shorter than k x n");
    assert!(c.len() >= ldc * (n - 1) + m, "C: slice shorter than m x n");
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 => {
            driver::<{ avx512::MR }, { avx512::NR }>(avx512::block, m, n, k, a, b, ldb, c, ldc)
        }
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2Fma => {
            driver::<{ avx2::MR }, { avx2::NR }>(avx2::block, m, n, k, a, b, ldb, c, ldc)
        }
        Kind::Portable => driver::<{ portable::MR }, { portable::NR }>(
            portable::block,
            m,
            n,
            k,
            a,
            b,
            ldb,
            c,
            ldc,
        ),
    }
}

/// The three cache-blocking loops and the packing. Dimensions are nonzero
/// and the slices hold their operands (checked by [`run`] and its callers).
#[allow(clippy::too_many_arguments)]
fn driver<const MR: usize, const NR: usize>(
    block: BlockKernel,
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_>,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    const { assert!(MR * NR <= MAX_TILE && MC.is_multiple_of(MR) && NC.is_multiple_of(NR)) };
    PACK.with_borrow_mut(|pack| {
        let kc_max = k.min(KC);
        let a_pack = match a {
            Operand::Raw(..) => aligned(&mut pack.a, m.min(MC).next_multiple_of(MR) * kc_max),
            Operand::Packed(_) => &mut [],
        };
        let b_pack = aligned(&mut pack.b, n.min(NC).next_multiple_of(NR) * kc_max);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let mut packed_at = 0;
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b::<NR>(kc, nc, &b[pc + jc * ldb..], ldb, b_pack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let ap: &[f64] = match a {
                        Operand::Raw(a, lda) => {
                            pack_a::<MR>(mc, kc, &a[ic + pc * lda..], lda, a_pack);
                            a_pack
                        }
                        Operand::Packed(all) => {
                            let len = mc.next_multiple_of(MR) * kc;
                            packed_at += len;
                            &all[packed_at - len..packed_at]
                        }
                    };
                    block(mc, nc, kc, ap, b_pack, &mut c[ic + jc * ldc..], ldc);
                }
            }
        }
    });
}

/// An `A` operand packed once for several `C −= A·B` calls that share it,
/// in exactly the blocks the driver would pack for each — so the products
/// are bit-identical to [`crate::blas::dgemm_minus`]'s. HPL's pipelined
/// trailing update makes one call per block column, and packing `L21` for
/// every one of them costs what EXP-K1's `blocks64_wall` row shows.
pub struct PackedA {
    kernel: Kernel,
    m: usize,
    k: usize,
    buf: Vec<f64>,
}

impl PackedA {
    /// Nothing packed, room for an `m × k` operand: packing one that large
    /// or smaller never allocates.
    pub fn with_capacity(m: usize, k: usize) -> Self {
        Self::on(Kernel::dispatched(), m, k)
    }

    /// [`Self::with_capacity`] for `kernel`'s tile.
    pub(crate) fn on(kernel: Kernel, m: usize, k: usize) -> Self {
        let mut buf = Vec::new();
        aligned(&mut buf, kernel.packed_len(m, k));
        PackedA {
            kernel,
            m: 0,
            k: 0,
            buf,
        }
    }

    /// Pack `A[0..m, 0..k]` (column-major, leading dimension `lda`) in
    /// place of what was packed before.
    ///
    /// # Panics
    /// Panics if `lda < m` or `a` is shorter than `lda·(k−1)+m`.
    pub fn pack(&mut self, m: usize, k: usize, a: &[f64], lda: usize) {
        (self.m, self.k) = (m, k);
        if m == 0 || k == 0 {
            return;
        }
        assert!(lda >= m, "leading dims too small");
        assert!(a.len() >= lda * (k - 1) + m, "A: slice shorter than m x k");
        let out = aligned(&mut self.buf, self.kernel.packed_len(m, k));
        match self.kernel.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => pack_whole::<{ avx512::MR }>(m, k, a, lda, out),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2Fma => pack_whole::<{ avx2::MR }>(m, k, a, lda, out),
            Kind::Portable => pack_whole::<{ portable::MR }>(m, k, a, lda, out),
        }
    }

    /// `C[0..m, 0..n] −= A·B[0..k, 0..n]` with the `m × k` `A` packed last.
    ///
    /// # Panics
    /// Panics if `ldb < k`, `ldc < m`, or `b` or `c` is shorter than its
    /// operand.
    pub fn gemm_minus(&self, n: usize, b: &[f64], ldb: usize, c: &mut [f64], ldc: usize) {
        let (m, k) = (self.m, self.k);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let len = self.kernel.packed_len(m, k);
        let skip = self.buf.as_ptr().align_offset(64).min(ALIGN);
        let a = Operand::Packed(&self.buf[skip..skip + len]);
        run(self.kernel, (m, n, k), a, b, ldb, c, ldc);
    }
}

/// Pack all of `A[0..m, 0..k]` into `out`, block `(pc, ic)` after block —
/// the driver's order, `pc` outer.
fn pack_whole<const MR: usize>(m: usize, k: usize, a: &[f64], lda: usize, out: &mut [f64]) {
    let mut at = 0;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            let len = mc.next_multiple_of(MR) * kc;
            pack_a::<MR>(mc, kc, &a[ic + pc * lda..], lda, &mut out[at..at + len]);
            at += len;
        }
    }
}

/// The two register-blocking loops over one packed block, `tile` being the
/// `MR × NR` micro-kernel: `tile(kc, ã, b̃, c, ldc)` performs
/// `C[0..MR, 0..NR] −= ã·b̃` where `ã` is `kc` groups of `MR` values, `b̃`
/// is `kc` groups of `NR` values and `c` starts at the tile's first element.
///
/// A partial tile runs the same micro-kernel on a zero-padded copy and
/// writes back only the elements that exist, so rows and columns beyond
/// the operand are never touched.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep<const MR: usize, const NR: usize>(
    tile: impl Fn(usize, &[f64], &[f64], &mut [f64], usize),
    mc: usize,
    nc: usize,
    kc: usize,
    a_pack: &[f64],
    b_pack: &[f64],
    c: &mut [f64],
    ldc: usize,
) {
    let b_panels = b_pack[..nc.next_multiple_of(NR) * kc].chunks_exact(NR * kc);
    for (jr, bp) in (0..nc).step_by(NR).zip(b_panels) {
        let nr = NR.min(nc - jr);
        let cj = &mut c[jr * ldc..];
        let a_panels = a_pack[..mc.next_multiple_of(MR) * kc].chunks_exact(MR * kc);
        for (ir, ap) in (0..mc).step_by(MR).zip(a_panels) {
            let mr = MR.min(mc - ir);
            let ct = &mut cj[ir..];
            if mr == MR && nr == NR {
                tile(kc, ap, bp, ct, ldc);
            } else {
                let mut tmp = [0.0f64; MAX_TILE];
                copy_tile::<MR>(&mut tmp, MR, ct, ldc, mr, nr);
                tile(kc, ap, bp, &mut tmp, MR);
                copy_tile::<MR>(ct, ldc, &tmp, MR, mr, nr);
            }
        }
    }
}

/// Copy the `mr × nr` corner of a tile between two column-major buffers.
/// Most partial tiles are short of columns only (`mr == MR`), and for
/// those the copy length is a constant the compiler turns into two moves.
#[inline(always)]
fn copy_tile<const MR: usize>(
    dst: &mut [f64],
    ldd: usize,
    src: &[f64],
    lds: usize,
    mr: usize,
    nr: usize,
) {
    for j in 0..nr {
        if mr == MR {
            dst[j * ldd..j * ldd + MR].copy_from_slice(&src[j * lds..j * lds + MR]);
        } else {
            dst[j * ldd..j * ldd + mr].copy_from_slice(&src[j * lds..j * lds + mr]);
        }
    }
}

/// Pack the `mc × kc` block at `a` into `MR`-row panels: panel `p` holds,
/// for `l = 0..kc`, the `MR` values `A[p·MR.., l]`, rows past `mc` as zeros.
fn pack_a<const MR: usize>(mc: usize, kc: usize, a: &[f64], lda: usize, out: &mut [f64]) {
    for (p, panel) in out[..mc.next_multiple_of(MR) * kc]
        .chunks_exact_mut(MR * kc)
        .enumerate()
    {
        let r0 = p * MR;
        let rows = MR.min(mc - r0);
        for (l, dst) in panel.chunks_exact_mut(MR).enumerate() {
            let src = &a[l * lda + r0..l * lda + r0 + rows];
            if rows == MR {
                dst.copy_from_slice(src);
            } else {
                dst[..rows].copy_from_slice(src);
                dst[rows..].fill(0.0);
            }
        }
    }
}

/// Pack the `kc × nc` block at `b` into `NR`-column panels: panel `q`
/// holds, for `l = 0..kc`, the `NR` values `B[l, q·NR..]`, columns past
/// `nc` as zeros.
fn pack_b<const NR: usize>(kc: usize, nc: usize, b: &[f64], ldb: usize, out: &mut [f64]) {
    for (q, panel) in out[..nc.next_multiple_of(NR) * kc]
        .chunks_exact_mut(NR * kc)
        .enumerate()
    {
        let c0 = q * NR;
        for j in 0..NR {
            if c0 + j < nc {
                let col = &b[(c0 + j) * ldb..(c0 + j) * ldb + kc];
                for (l, &v) in col.iter().enumerate() {
                    panel[l * NR + j] = v;
                }
            } else {
                for l in 0..kc {
                    panel[l * NR + j] = 0.0;
                }
            }
        }
    }
}

mod portable {
    pub(super) const MR: usize = 4;
    pub(super) const NR: usize = 4;

    /// The portable [`super::BlockKernel`].
    pub(super) fn block(
        mc: usize,
        nc: usize,
        kc: usize,
        a_pack: &[f64],
        b_pack: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) {
        super::sweep::<MR, NR>(tile, mc, nc, kc, a_pack, b_pack, c, ldc);
    }

    /// The portable 4×4 micro-kernel: sixteen scalar accumulators the
    /// compiler keeps in registers (and vectorizes where the target allows).
    #[inline(always)]
    fn tile(kc: usize, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
        let mut acc = [[0.0f64; MR]; NR];
        for (j, col) in acc.iter_mut().enumerate() {
            col.copy_from_slice(&c[j * ldc..j * ldc + MR]);
        }
        for (al, bl) in a[..kc * MR]
            .chunks_exact(MR)
            .zip(b[..kc * NR].chunks_exact(NR))
        {
            for (col, &blj) in acc.iter_mut().zip(bl) {
                for (x, &ali) in col.iter_mut().zip(al) {
                    *x -= ali * blj;
                }
            }
        }
        for (j, col) in acc.iter().enumerate() {
            c[j * ldc..j * ldc + MR].copy_from_slice(col);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_broadcast_sd, _mm256_fnmadd_pd, _mm256_loadu_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };

    pub(super) const MR: usize = 8;
    pub(super) const NR: usize = 6;

    /// The AVX2+FMA [`super::BlockKernel`]. Private to the module tree: it
    /// is reachable only through a `Kernel(Kind::Avx2Fma)` token.
    pub(super) fn block(
        mc: usize,
        nc: usize,
        kc: usize,
        a_pack: &[f64],
        b_pack: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) {
        // SAFETY: this function is only ever named by `run` under a
        // `Kind::Avx2Fma` token, which `Kernel::supported` creates only
        // after CPUID reported avx2 and fma — or `Kernel::for_shape`
        // from a `Kind::Avx512` one, which it creates only after the same.
        unsafe { block_impl(mc, nc, kc, a_pack, b_pack, c, ldc) }
    }

    /// [`super::sweep`] and [`tile`] compiled together with AVX2 and FMA
    /// enabled, so the micro-kernel inlines into the loops around it.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn block_impl(
        mc: usize,
        nc: usize,
        kc: usize,
        a_pack: &[f64],
        b_pack: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) {
        super::sweep::<MR, NR>(
            // SAFETY: AVX2 and FMA are this function's own precondition.
            |kc, a, b, c, ldc| unsafe { tile(kc, a, b, c, ldc) },
            mc,
            nc,
            kc,
            a_pack,
            b_pack,
            c,
            ldc,
        );
    }

    /// [`super::ger_minus`] on an FMA token: the element chain of the 8×6
    /// tile at `k = 1`, `c = −(x·y) + c` rounded once.
    pub(super) fn ger(m: usize, n: usize, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
        // SAFETY: this function is only ever named by `ger_minus` under a
        // `Kind::Avx2Fma` or `Kind::Avx512` token, which `Kernel::supported`
        // creates only after CPUID reported avx2 and fma.
        unsafe { ger_impl(m, n, x, y, a, lda) }
    }

    /// [`super::ger_columns`] compiled with AVX2 and FMA enabled, so
    /// `mul_add` is one vector instruction.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ger_impl(m: usize, n: usize, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
        super::ger_columns(m, n, x, y, a, lda, |c, xi, yj| (-xi).mul_add(yj, c));
    }

    /// The 8×6 micro-kernel: the tile of `C` lives in twelve `ymm`
    /// registers (6 columns × 2 halves) from its load to its store, and
    /// step `l` subtracts `ã[l] · b̃[l]ᵀ` from it with twelve fused
    /// negate-multiply-adds.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. (Slice lengths are checked here.)
    #[inline(always)]
    unsafe fn tile(kc: usize, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
        assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        assert!(ldc >= MR && c.len() >= ldc * (NR - 1) + MR);
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: AVX2 is the caller's obligation.
        let mut acc = [[unsafe { _mm256_setzero_pd() }; 2]; NR];
        for (j, col) in acc.iter_mut().enumerate() {
            // SAFETY: column `j < 6` of the tile is the 8 doubles at
            // `c[j·ldc .. j·ldc + 8]`, inside `c` by the assert above;
            // each load reads one half of them.
            unsafe {
                col[0] = _mm256_loadu_pd(cp.add(j * ldc));
                col[1] = _mm256_loadu_pd(cp.add(j * ldc + 4));
            }
        }
        for l in 0..kc {
            // SAFETY: `l < kc`, so the 8 doubles at `a[l·8..]` and the 6 at
            // `b[l·6..]` are inside the packed panels by the assert above.
            unsafe {
                let a_lo = _mm256_loadu_pd(ap.add(l * MR));
                let a_hi = _mm256_loadu_pd(ap.add(l * MR + 4));
                for (j, col) in acc.iter_mut().enumerate() {
                    let b_lj = _mm256_broadcast_sd(&*bp.add(l * NR + j));
                    col[0] = _mm256_fnmadd_pd(a_lo, b_lj, col[0]);
                    col[1] = _mm256_fnmadd_pd(a_hi, b_lj, col[1]);
                }
            }
        }
        for (j, col) in acc.iter().enumerate() {
            // SAFETY: the same 8 doubles per column that were loaded above.
            unsafe {
                _mm256_storeu_pd(cp.add(j * ldc), col[0]);
                _mm256_storeu_pd(cp.add(j * ldc + 4), col[1]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512d, _mm512_fnmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd,
    };

    pub(super) const MR: usize = 24;
    pub(super) const NR: usize = 8;
    /// `zmm` registers per column of the tile.
    const V: usize = MR / 8;

    /// The AVX-512F [`super::BlockKernel`]. Private to the module tree: it
    /// is reachable only through a `Kernel(Kind::Avx512)` token.
    pub(super) fn block(
        mc: usize,
        nc: usize,
        kc: usize,
        a_pack: &[f64],
        b_pack: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) {
        // SAFETY: this function is only ever named by `run` under a
        // `Kind::Avx512` token, which `Kernel::supported` creates only
        // after CPUID reported avx512f, avx2 and fma.
        unsafe { block_impl(mc, nc, kc, a_pack, b_pack, c, ldc) }
    }

    /// [`super::sweep`] and [`tile`] compiled together with AVX-512F
    /// enabled, so the micro-kernel inlines into the loops around it.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn block_impl(
        mc: usize,
        nc: usize,
        kc: usize,
        a_pack: &[f64],
        b_pack: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) {
        super::sweep::<MR, NR>(
            // SAFETY: AVX-512F is this function's own precondition.
            |kc, a, b, c, ldc| unsafe { tile(kc, a, b, c, ldc) },
            mc,
            nc,
            kc,
            a_pack,
            b_pack,
            c,
            ldc,
        );
    }

    /// The 24×8 micro-kernel: the tile of `C` lives in twenty-four `zmm`
    /// registers (8 columns × 3 thirds) from its load to its store, and
    /// step `l` subtracts `ã[l] · b̃[l]ᵀ` from it with twenty-four fused
    /// negate-multiply-adds — lane for lane the 8×6 tile's chain.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. (Slice lengths are checked here.)
    #[inline(always)]
    unsafe fn tile(kc: usize, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize) {
        assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        assert!(ldc >= MR && c.len() >= ldc * (NR - 1) + MR);
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: AVX-512F is the caller's obligation.
        let zero: __m512d = unsafe { _mm512_setzero_pd() };
        let mut acc = [[zero; V]; NR];
        for (j, col) in acc.iter_mut().enumerate() {
            for (v, x) in col.iter_mut().enumerate() {
                // SAFETY: column `j < 8` of the tile is the 24 doubles at
                // `c[j·ldc .. j·ldc + 24]`, inside `c` by the assert above;
                // load `v < 3` reads the third at `8·v`.
                *x = unsafe { _mm512_loadu_pd(cp.add(j * ldc + 8 * v)) };
            }
        }
        for l in 0..kc {
            let mut a_l = [zero; V];
            for (v, x) in a_l.iter_mut().enumerate() {
                // SAFETY: `l < kc`, so the 24 doubles at `a[l·24..]` are
                // inside the packed panel by the assert above.
                *x = unsafe { _mm512_loadu_pd(ap.add(l * MR + 8 * v)) };
            }
            for (j, col) in acc.iter_mut().enumerate() {
                // SAFETY: `l < kc` and `j < 8`, so `b[l·8 + j]` is inside
                // the packed panel by the assert above; AVX-512F is the
                // caller's obligation.
                let b_lj = unsafe { _mm512_set1_pd(*bp.add(l * NR + j)) };
                for (x, &a_v) in col.iter_mut().zip(&a_l) {
                    // SAFETY: AVX-512F is the caller's obligation.
                    *x = unsafe { _mm512_fnmadd_pd(a_v, b_lj, *x) };
                }
            }
        }
        for (j, col) in acc.iter().enumerate() {
            for (v, &x) in col.iter().enumerate() {
                // SAFETY: the same 24 doubles per column that were loaded
                // above.
                unsafe { _mm512_storeu_pd(cp.add(j * ldc + 8 * v), x) };
            }
        }
    }
}
