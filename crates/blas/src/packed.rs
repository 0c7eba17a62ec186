//! BLIS-style packed GEMM: cache blocking + register-blocked microkernel.
//!
//! One sequential call computes `C := alpha * op(A) * op(B) + beta * C`
//! through the classic five-loop structure:
//!
//! ```text
//! for jc in 0..n step NC            // B block   -> L3
//!   for pc in 0..k step KC          // rank-KC update
//!     pack op(B)[pc.., jc..] into NR-column micro-panels   (bpack)
//!     for ic in 0..m step MC        // A block   -> L2
//!       pack op(A)[ic.., pc..] into MR-row micro-panels    (apack)
//!       for jr, ir over micro-tiles:
//!         microkernel: MR x NR register tile over KC       (C -> registers)
//! ```
//!
//! Transposition and conjugation are applied *while packing*, so the
//! microkernel is op-free: it streams two contiguous panels and issues
//! nothing but fused multiply-adds. Fringe tiles are zero-padded in the
//! packs and spilled through a stack temporary on writeback.
//!
//! The microkernel is selected at runtime: hand-written AVX-512 and
//! AVX2+FMA kernels for all four scalar types when the CPU supports them
//! (checked once), and a const-generic autovectorized kernel otherwise.

use crate::params::{gemm_params, MAX_MR, MAX_NR};
use polar_matrix::{MatMut, MatRef, Op, Uplo};
use polar_scalar::{Complex32, Complex64, Scalar};
use std::any::TypeId;

/// Microkernel register shape `(MR, NR)` for scalar type `S`, honoring
/// env overrides, else matching the best SIMD kernel the CPU offers.
pub(crate) fn tile_shape<S: Scalar>() -> (usize, usize) {
    let p = gemm_params();
    if let (Some(mr), Some(nr)) = (p.mr_override, p.nr_override) {
        return (mr, nr);
    }
    let (mr, nr) = match SIMD_KERNELS.iter().find(|k| k.serves::<S>()) {
        Some(k) => (k.mr, k.nr),
        // complex: each accumulator is two reals; keep the tile small
        None if S::IS_COMPLEX => (4, 4),
        None => (8, 4),
    };
    (p.mr_override.unwrap_or(mr), p.nr_override.unwrap_or(nr))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kern {
    Generic,
    F64Avx512,
    F64Avx2,
    F32Avx512,
    F32Avx2,
    Z64Avx512,
    Z64Avx2,
    C32Avx512,
    C32Avx2,
}

/// The scalar types a SIMD kernel is written for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    F32,
    F64,
    C32,
    C64,
}

impl Ty {
    fn of<S: Scalar>() -> Option<Ty> {
        let is = |t: TypeId| TypeId::of::<S>() == t;
        [
            (TypeId::of::<f32>(), Ty::F32),
            (TypeId::of::<f64>(), Ty::F64),
            (TypeId::of::<Complex32>(), Ty::C32),
            (TypeId::of::<Complex64>(), Ty::C64),
        ]
        .into_iter()
        .find_map(|(t, ty)| is(t).then_some(ty))
    }
}

/// One hand-written kernel: the scalar type and ISA it needs and the one
/// register tile it computes.
struct SimdKernel {
    kern: Kern,
    ty: Ty,
    avx512: bool,
    mr: usize,
    nr: usize,
}

impl SimdKernel {
    #[inline]
    fn serves<S: Scalar>(&self) -> bool {
        Some(self.ty) == Ty::of::<S>()
            && if self.avx512 { cpu_has_avx512() } else { cpu_has_avx2_fma() }
    }
}

/// Every SIMD kernel, the widest ISA of a type first: [`tile_shape`] takes
/// the first one the host can run, [`select_kernel`] the one whose tile is
/// the shape in force. (A `const` of plain values: for a given `S` the
/// searches below fold to the one or two ISA checks that can match.)
const SIMD_KERNELS: [SimdKernel; 8] = {
    const fn k(kern: Kern, ty: Ty, avx512: bool, mr: usize, nr: usize) -> SimdKernel {
        SimdKernel { kern, ty, avx512, mr, nr }
    }
    [
        k(Kern::F64Avx512, Ty::F64, true, 16, 8),
        k(Kern::F64Avx2, Ty::F64, false, 8, 6),
        k(Kern::F32Avx512, Ty::F32, true, 32, 8),
        k(Kern::F32Avx2, Ty::F32, false, 16, 6),
        k(Kern::Z64Avx512, Ty::C64, true, 8, 4),
        k(Kern::Z64Avx2, Ty::C64, false, 4, 3),
        k(Kern::C32Avx512, Ty::C32, true, 16, 4),
        k(Kern::C32Avx2, Ty::C32, false, 8, 3),
    ]
};

// Miri interprets no vendor intrinsics: under it every type takes the
// const-generic kernel, which is what lets it run whole small solves.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn cpu_has_avx2_fma() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn cpu_has_avx512() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

#[cfg(any(not(target_arch = "x86_64"), miri))]
fn cpu_has_avx2_fma() -> bool {
    false
}

#[cfg(any(not(target_arch = "x86_64"), miri))]
fn cpu_has_avx512() -> bool {
    false
}

pub(crate) fn select_kernel<S: Scalar>(mr: usize, nr: usize) -> Kern {
    SIMD_KERNELS
        .iter()
        .find(|k| k.serves::<S>() && (k.mr, k.nr) == (mr, nr))
        .map_or(Kern::Generic, |k| k.kern)
}

/// The microkernel packed products of `S` run on in this process and its
/// tile, as `"Z64Avx512 8x4"` (`"Generic 4x4"`: the const-generic fallback).
pub fn microkernel<S: Scalar>() -> String {
    let (mr, nr) = tile_shape::<S>();
    format!("{:?} {mr}x{nr}", select_kernel::<S>(mr, nr))
}

/// What one sweep over a block of `C` may skip.
#[derive(Clone, Copy)]
pub(crate) enum Mask {
    Full,
    /// Only the `uplo` triangle of `C` is written; entry `(i, j)` of the
    /// block lies on the diagonal when `i + d == j`.
    C(Uplo, isize),
    /// The packed `A` (`on_a`) or `B` operand is triangular, stored with
    /// its other triangle zeroed ([`mask_packed`]): entry `x` of a panel
    /// (a row of `A`, a column of `B`) meets only `k <= x + d` (`upto`) or
    /// only `k >= x + d`, so a micro-panel runs over that k-range alone.
    K {
        on_a: bool,
        upto: bool,
        d: isize,
    },
}

/// The k-range `[k0, k1)` of `0..kcb` that panel entries `x0..x0 + w` of a
/// triangular operand meet (see [`Mask::K`]).
fn k_range(upto: bool, d: isize, x0: usize, w: usize, kcb: usize) -> (usize, usize) {
    let clamp = |k: isize| k.clamp(0, kcb as isize) as usize;
    if upto {
        (0, clamp((x0 + w) as isize + d))
    } else {
        (clamp(x0 as isize + d), kcb)
    }
}

/// Make packed `w`-wide micro-panels of `len` entries hold a triangle: zero
/// what lies past the diagonal inside each panel's k-range (whatever the
/// other triangle's storage held is never multiplied) and, for `unit`, put
/// ones on the diagonal. `upto`/`d` as in [`Mask::K`].
pub(crate) fn mask_packed<S: Scalar>(
    buf: &mut [S],
    w: usize,
    len: usize,
    kcb: usize,
    upto: bool,
    d: isize,
    unit: bool,
) {
    for x in 0..len {
        let (x0, r) = (x / w * w, x % w);
        let panel = &mut buf[x0 * kcb..][..w * kcb];
        let diag = x as isize + d;
        let (k0, k1) = k_range(upto, d, x0, w, kcb);
        let past =
            if upto { (diag + 1).max(0) as usize..k1 } else { k0..k1.min(diag.max(0) as usize) };
        for k in past {
            panel[k * w + r] = S::ZERO;
        }
        if unit && (k0 as isize..k1 as isize).contains(&diag) {
            panel[diag as usize * w + r] = S::ONE;
        }
    }
}

/// Sequential packed GEMM over one block of `C`, or over the triangle of
/// it a [`Mask::C`] names. Dimension compatibility is the caller's
/// responsibility (checked in `gemm`).
#[allow(clippy::too_many_arguments)] // BLAS gemm signature + the mask
pub(crate) fn gemm_packed<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    mask: Mask,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match op_a {
        Op::NoTrans => a.ncols(),
        _ => a.nrows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    let p = gemm_params();
    let (mr, nr) = tile_shape::<S>();
    let kc = p.kc.min(k).max(1);
    let mc = p.mc.min(m);
    let nc = p.nc.min(n);

    let mut apack = vec![S::ZERO; mc.next_multiple_of(mr) * kc];
    let mut bpack = vec![S::ZERO; nc.next_multiple_of(nr) * kc];
    gemm_packed_with(op_a, op_b, alpha, a, b, beta, c, &mut apack, &mut bpack, mask);
}

/// The five-loop body of [`gemm_packed`] over caller-owned pack buffers
/// (`apack` >= `min(mc, m).next_multiple_of(mr) * min(kc, k)` elements,
/// `bpack` likewise with `nc`/`nr`), so batch drivers amortize the buffer
/// allocation across many calls instead of paying it per entry.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
pub(crate) fn gemm_packed_with<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
    apack: &mut [S],
    bpack: &mut [S],
    mask: Mask,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match op_a {
        Op::NoTrans => a.ncols(),
        _ => a.nrows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == S::ZERO {
        scale_block(&mut c, beta);
        return;
    }

    let p = gemm_params();
    let (mr, nr) = tile_shape::<S>();
    let kern = select_kernel::<S>(mr, nr);
    let kc = p.kc.min(k);
    let mc = p.mc.min(m);
    let nc = p.nc.min(n);

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            // beta applies on the first rank-kc update only; later
            // updates accumulate
            let beta_eff = if pc == 0 { beta } else { S::ONE };
            pack_b(op_b, b, pc, jc, kcb, ncb, nr, bpack);
            for ic in (0..m).step_by(mc) {
                let mcb = mc.min(m - ic);
                pack_a(op_a, a, ic, pc, mcb, kcb, mr, apack);
                let cblk = c.rb().submatrix(ic, jc, mcb, ncb);
                let mask = match mask {
                    Mask::C(uplo, d) => Mask::C(uplo, d + ic as isize - jc as isize),
                    m => m,
                };
                macro_kernel(kern, alpha, apack, bpack, beta_eff, cblk, kcb, mr, nr, mask);
            }
        }
    }
}

/// Parallel packed GEMM: the same five-loop structure as [`gemm_packed`],
/// but the MC-block grid of each rank-KC update fans out over the pool.
/// The `op(B)` micro-panels are packed *once* per `(jc, pc)` and shared
/// read-only by every worker; each MC block packs its own A panel and
/// writes a disjoint row stripe of `C`. The per-element operation order is
/// identical to the sequential path regardless of thread count, so results
/// are bitwise reproducible at any pool width.
pub(crate) fn gemm_packed_par<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match op_a {
        Op::NoTrans => a.ncols(),
        _ => a.nrows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == S::ZERO {
        scale_block(&mut c, beta);
        return;
    }

    let p = gemm_params();
    let (mr, nr) = tile_shape::<S>();
    let kern = select_kernel::<S>(mr, nr);
    let kc = p.kc.min(k);
    let mc = p.mc.min(m);
    let nc = p.nc.min(n);

    let mut bpack = vec![S::ZERO; nc.next_multiple_of(nr) * kc];

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            let beta_eff = if pc == 0 { beta } else { S::ONE };
            pack_b(op_b, b, pc, jc, kcb, ncb, nr, &mut bpack);
            let cband = c.rb().submatrix(0, jc, m, ncb);
            ic_grid(kern, op_a, alpha, a, &bpack, beta_eff, cband, 0, pc, kcb, mc, mr, nr);
        }
    }
}

/// Fan the MC-block row grid of one rank-KC update out over the pool via a
/// recursive join tree. Each leaf is exactly one sequential `ic` iteration
/// of [`gemm_packed`]: pack the A block, sweep the micro-tiles.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
fn ic_grid<S: Scalar>(
    kern: Kern,
    op_a: Op,
    alpha: S,
    a: MatRef<'_, S>,
    bpack: &[S],
    beta: S,
    c: MatMut<'_, S>,
    row0: usize,
    pc: usize,
    kcb: usize,
    mc: usize,
    mr: usize,
    nr: usize,
) {
    let rows = c.nrows();
    if rows <= mc {
        let mut apack = vec![S::ZERO; rows.next_multiple_of(mr) * kcb];
        pack_a(op_a, a, row0, pc, rows, kcb, mr, &mut apack);
        macro_kernel(kern, alpha, &apack, bpack, beta, c, kcb, mr, nr, Mask::Full);
        return;
    }
    let half = (rows.div_ceil(mc) / 2) * mc;
    let (c1, c2) = c.split_at_row(half);
    rayon::join(
        || ic_grid(kern, op_a, alpha, a, bpack, beta, c1, row0, pc, kcb, mc, mr, nr),
        || ic_grid(kern, op_a, alpha, a, bpack, beta, c2, row0 + half, pc, kcb, mc, mr, nr),
    );
}

/// `C := beta * C` (beta = 0 overwrites, LAPACK semantics).
pub(crate) fn scale_block<S: Scalar>(c: &mut MatMut<'_, S>, beta: S) {
    if beta == S::ONE {
        return;
    }
    for j in 0..c.ncols() {
        let col = c.col_mut(j);
        if beta == S::ZERO {
            col.fill(S::ZERO);
        } else {
            for x in col {
                *x *= beta;
            }
        }
    }
}

/// Pack `op(A)[i0..i0+mcb, p0..p0+kcb]` into MR-row micro-panels:
/// `buf[ip*mr*kcb + p*mr + r]`, zero-padding partial panels.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
pub(crate) fn pack_a<S: Scalar>(
    op: Op,
    a: MatRef<'_, S>,
    i0: usize,
    p0: usize,
    mcb: usize,
    kcb: usize,
    mr: usize,
    buf: &mut [S],
) {
    pack_panels(a, op != Op::NoTrans, op == Op::ConjTrans, i0, p0, mcb, kcb, mr, buf);
}

/// Pack `op(B)[p0..p0+kcb, j0..j0+ncb]` into NR-column micro-panels:
/// `buf[jp*nr*kcb + p*nr + c]`, zero-padding partial panels.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
pub(crate) fn pack_b<S: Scalar>(
    op: Op,
    b: MatRef<'_, S>,
    p0: usize,
    j0: usize,
    kcb: usize,
    ncb: usize,
    nr: usize,
    buf: &mut [S],
) {
    pack_panels(b, op == Op::NoTrans, op == Op::ConjTrans, j0, p0, ncb, kcb, nr, buf);
}

/// The one packing loop behind both operands: `len` entries from `x0` on,
/// `w` per micro-panel, against `kcb` k-steps from `p0` on, as
/// `buf[(x / w) * w * kcb + p * w + x % w]`. An entry is a row of `src`
/// and a k-step a column of it, or — `entry_is_col` — the other way round
/// (a transposed `A`, an untransposed `B`).
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
fn pack_panels<S: Scalar>(
    src: MatRef<'_, S>,
    entry_is_col: bool,
    conj: bool,
    x0: usize,
    p0: usize,
    len: usize,
    kcb: usize,
    w: usize,
    buf: &mut [S],
) {
    let conj = conj && S::IS_COMPLEX;
    for (ip, dst) in buf.chunks_exact_mut(w * kcb).take(len.div_ceil(w)).enumerate() {
        let r0 = ip * w;
        let live = w.min(len - r0);
        if !entry_is_col {
            // each k-step is a contiguous chunk of one column of src
            for (pl, d) in dst.chunks_exact_mut(w).enumerate() {
                let col = &src.col(p0 + pl)[x0 + r0..x0 + r0 + live];
                if conj {
                    for (x, &v) in d.iter_mut().zip(col) {
                        *x = v.conj();
                    }
                } else {
                    d[..live].copy_from_slice(col);
                }
                d[live..].fill(S::ZERO);
            }
            continue;
        }
        // entry r is column x0 + r0 + r of src: stream the columns, four
        // at a time so the stores of one k-step share a cache line
        if live < w {
            dst.fill(S::ZERO);
        }
        let col = |r: usize| &src.col(x0 + r0 + r)[p0..p0 + kcb];
        let put = |v: S| if conj { v.conj() } else { v };
        let mut r = 0;
        while r + 4 <= live {
            let (c0, c1, c2, c3) = (col(r), col(r + 1), col(r + 2), col(r + 3));
            for (pl, d) in dst.chunks_exact_mut(w).enumerate() {
                d[r] = put(c0[pl]);
                d[r + 1] = put(c1[pl]);
                d[r + 2] = put(c2[pl]);
                d[r + 3] = put(c3[pl]);
            }
            r += 4;
        }
        for r in r..live {
            for (d, &v) in dst.chunks_exact_mut(w).zip(col(r)) {
                d[r] = put(v);
            }
        }
    }
}

/// Run the microkernel over every MR x NR tile of one packed block pair
/// that `mask` leaves: tiles outside a [`Mask::C`] triangle are skipped,
/// tiles straddling its diagonal go through the fringe temporary and merge
/// their in-triangle rows only; under a [`Mask::K`] each micro-panel of the
/// triangular operand runs over its own k-range.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
pub(crate) fn macro_kernel<S: Scalar>(
    kern: Kern,
    alpha: S,
    apack: &[S],
    bpack: &[S],
    beta: S,
    mut c: MatMut<'_, S>,
    kcb: usize,
    mr: usize,
    nr: usize,
    mask: Mask,
) {
    let mcb = c.nrows();
    let ncb = c.ncols();
    let mut tmp = [S::ZERO; MAX_MR * MAX_NR];
    for jp in 0..ncb.div_ceil(nr) {
        let j0 = jp * nr;
        let cols = nr.min(ncb - j0);
        for ip in 0..mcb.div_ceil(mr) {
            let i0 = ip * mr;
            let rows = mr.min(mcb - i0);
            // rows of the tile column j a C-mask keeps, relative to i0
            let kept = |j: usize| match mask {
                Mask::C(uplo, d) => {
                    let diag = ((j0 + j) as isize - d - i0 as isize).clamp(-1, rows as isize);
                    match uplo {
                        Uplo::Lower => diag.max(0) as usize..rows,
                        Uplo::Upper => 0..(diag + 1).min(rows as isize) as usize,
                    }
                }
                _ => 0..rows,
            };
            let (first, last) = (kept(0), kept(cols - 1));
            if first.is_empty() && last.is_empty() {
                continue;
            }
            let whole = first.len() == rows && last.len() == rows;
            let (k0, k1) = match mask {
                Mask::K { on_a: true, upto, d } => k_range(upto, d, i0, mr, kcb),
                Mask::K { on_a: false, upto, d } => k_range(upto, d, j0, nr, kcb),
                _ => (0, kcb),
            };
            let apanel = &apack[ip * mr * kcb..][k0 * mr..k1 * mr];
            let bpanel = &bpack[jp * nr * kcb..][k0 * nr..k1 * nr];
            if rows == mr && cols == nr && whole {
                let tile = c.rb().submatrix(i0, j0, mr, nr);
                micro_dispatch(kern, k1 - k0, apanel, bpanel, alpha, beta, tile, mr, nr);
            } else {
                // fringe: the full-width kernel on a stack copy of the tile,
                // then the valid region back. Every entry is scaled and
                // summed exactly as in a whole tile, so where a tile edge
                // falls (which a parallel split of C moves) never changes
                // an entry's bits
                for j in 0..cols {
                    let cj = &c.col_mut(j0 + j)[i0..i0 + rows];
                    tmp[j * mr..j * mr + rows].copy_from_slice(cj);
                }
                let t = MatMut::from_slice(&mut tmp[..mr * nr], mr, nr, mr);
                micro_dispatch(kern, k1 - k0, apanel, bpanel, alpha, beta, t, mr, nr);
                for j in 0..cols {
                    let keep = kept(j);
                    let tj = &tmp[j * mr..j * mr + rows][keep.clone()];
                    c.col_mut(j0 + j)[i0..i0 + rows][keep].copy_from_slice(tj);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
fn micro_dispatch<S: Scalar>(
    kern: Kern,
    kc: usize,
    ap: &[S],
    bp: &[S],
    alpha: S,
    beta: S,
    mut c: MatMut<'_, S>,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        // `$f` over the panels and the tile, `S` read as `$scalar` (a real,
        // or a complex of `[re, im]` pairs of `$real`).
        macro_rules! run {
            ($f:ident, $scalar:ty, $real:ty) => {{
                debug_assert!(ap.len() >= mr * kc && bp.len() >= nr * kc);
                // SAFETY: `select_kernel` returns `kern` only for S ==
                // `$scalar` on a CPU with the kernel's ISA and for the
                // kernel's own `mr x nr`; the panels hold `mr * kc` and
                // `nr * kc` scalars (the macro kernel slices them so) and
                // `c` is an `mr x nr` tile, so each of its `nr` column
                // pointers has `mr` scalars behind it.
                unsafe {
                    x86::$f(
                        kc,
                        ap.as_ptr() as *const $real,
                        bp.as_ptr() as *const $real,
                        alpha_as::<S, $scalar>(alpha),
                        alpha_as::<S, $scalar>(beta),
                        col_ptrs::<S, $real>(&mut c, nr),
                    )
                }
                return;
            }};
        }
        match kern {
            Kern::F64Avx512 => run!(micro_f64_avx512_16x8, f64, f64),
            Kern::F64Avx2 => run!(micro_f64_avx2_8x6, f64, f64),
            Kern::F32Avx512 => run!(micro_f32_avx512_32x8, f32, f32),
            Kern::F32Avx2 => run!(micro_f32_avx2_16x6, f32, f32),
            Kern::Z64Avx512 => run!(micro_z64_avx512_8x4, Complex64, f64),
            Kern::Z64Avx2 => run!(micro_z64_avx2_4x3, Complex64, f64),
            Kern::C32Avx512 => run!(micro_c32_avx512_16x4, Complex32, f32),
            Kern::C32Avx2 => run!(micro_c32_avx2_8x3, Complex32, f32),
            Kern::Generic => {}
        }
    }
    let _ = kern;
    micro_generic_dispatch(kc, ap, bp, alpha, beta, c, mr, nr);
}

/// Reinterpret a scalar known (via `select_kernel`) to be of type `T`.
#[cfg(target_arch = "x86_64")]
fn alpha_as<S: Scalar, T: Copy + 'static>(x: S) -> T {
    debug_assert_eq!(TypeId::of::<S>(), TypeId::of::<T>());
    // SAFETY: same type by the kernel-selection invariant.
    unsafe { *(&x as *const S as *const T) }
}

/// Column base pointers of an MR x NR tile, reinterpreted as `T`.
///
/// # Safety
/// `S` must be `T` or a `[T; 2]` complex (guaranteed by kernel selection)
/// and the tile must have at least `n` columns.
#[cfg(target_arch = "x86_64")]
unsafe fn col_ptrs<S: Scalar, T>(c: &mut MatMut<'_, S>, n: usize) -> [*mut T; MAX_NR] {
    let mut p = [std::ptr::null_mut(); MAX_NR];
    for (j, slot) in p.iter_mut().enumerate().take(n) {
        *slot = c.col_mut(j).as_mut_ptr() as *mut T;
    }
    p
}

#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
fn micro_generic_dispatch<S: Scalar>(
    kc: usize,
    ap: &[S],
    bp: &[S],
    alpha: S,
    beta: S,
    c: MatMut<'_, S>,
    mr: usize,
    nr: usize,
) {
    match (mr, nr) {
        (4, 4) => micro_generic::<S, 4, 4>(kc, ap, bp, alpha, beta, c),
        (8, 4) => micro_generic::<S, 8, 4>(kc, ap, bp, alpha, beta, c),
        (8, 6) => micro_generic::<S, 8, 6>(kc, ap, bp, alpha, beta, c),
        (8, 8) => micro_generic::<S, 8, 8>(kc, ap, bp, alpha, beta, c),
        (16, 6) => micro_generic::<S, 16, 6>(kc, ap, bp, alpha, beta, c),
        (16, 8) => micro_generic::<S, 16, 8>(kc, ap, bp, alpha, beta, c),
        _ => micro_dyn(kc, ap, bp, alpha, beta, c, mr, nr),
    }
}

/// Register-blocked microkernel with compile-time tile shape; the fixed
/// trip counts let the compiler keep `acc` in vector registers.
fn micro_generic<S: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[S],
    bp: &[S],
    alpha: S,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let mut acc = [[S::ZERO; MR]; NR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (accj, &bj) in acc.iter_mut().zip(b) {
            for (x, &ai) in accj.iter_mut().zip(a) {
                *x += ai * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        let col = &mut c.col_mut(j)[..MR];
        if beta == S::ZERO {
            for (x, &v) in col.iter_mut().zip(accj) {
                *x = alpha * v;
            }
        } else {
            for (x, &v) in col.iter_mut().zip(accj) {
                *x = alpha * v + beta * *x;
            }
        }
    }
}

/// Fallback for env-forced tile shapes with no monomorphized kernel.
#[allow(clippy::too_many_arguments)] // internal blocked-gemm plumbing
fn micro_dyn<S: Scalar>(
    kc: usize,
    ap: &[S],
    bp: &[S],
    alpha: S,
    beta: S,
    mut c: MatMut<'_, S>,
    mr: usize,
    nr: usize,
) {
    debug_assert!(mr <= MAX_MR && nr <= MAX_NR);
    let mut acc = [S::ZERO; MAX_MR * MAX_NR];
    for (a, b) in ap.chunks_exact(mr).zip(bp.chunks_exact(nr)).take(kc) {
        for (j, &bj) in b.iter().enumerate() {
            let row = &mut acc[j * mr..(j + 1) * mr];
            for (x, &ai) in row.iter_mut().zip(a) {
                *x += ai * bj;
            }
        }
    }
    for j in 0..nr {
        let col = &mut c.col_mut(j)[..mr];
        let accj = &acc[j * mr..(j + 1) * mr];
        if beta == S::ZERO {
            for (x, &v) in col.iter_mut().zip(accj) {
                *x = alpha * v;
            }
        } else {
            for (x, &v) in col.iter_mut().zip(accj) {
                *x = alpha * v + beta * *x;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-scheduled SIMD microkernels. Each streams zero-padded packed
    //! panels (`ap`: MR scalars per k-step, `bp`: NR scalars per k-step; a
    //! complex scalar is an `[re, im]` pair of reals) and updates an MR x NR
    //! tile of `C` given by per-column base pointers.
    use super::MAX_NR;
    use core::arch::x86_64::*;
    use polar_scalar::{Complex32, Complex64};

    /// # Safety
    /// Requires avx512f; `ap`/`bp` hold `16*kc` / `8*kc` readable f64;
    /// `cp[0..8]` each point at 16 writable f64.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_f64_avx512_16x8(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        alpha: f64,
        beta: f64,
        cp: [*mut f64; MAX_NR],
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; 8];
        for p in 0..kc {
            let a0 = _mm512_loadu_pd(ap.add(16 * p));
            let a1 = _mm512_loadu_pd(ap.add(16 * p + 8));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm512_set1_pd(*bp.add(8 * p + j));
                accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
            }
        }
        let va = _mm512_set1_pd(alpha);
        if beta == 0.0 {
            for (j, accj) in acc.iter().enumerate() {
                _mm512_storeu_pd(cp[j], _mm512_mul_pd(va, accj[0]));
                _mm512_storeu_pd(cp[j].add(8), _mm512_mul_pd(va, accj[1]));
            }
        } else {
            let vb = _mm512_set1_pd(beta);
            for (j, accj) in acc.iter().enumerate() {
                let c0 = _mm512_loadu_pd(cp[j]);
                let c1 = _mm512_loadu_pd(cp[j].add(8));
                _mm512_storeu_pd(cp[j], _mm512_fmadd_pd(vb, c0, _mm512_mul_pd(va, accj[0])));
                _mm512_storeu_pd(cp[j].add(8), _mm512_fmadd_pd(vb, c1, _mm512_mul_pd(va, accj[1])));
            }
        }
    }

    /// # Safety
    /// Requires avx2+fma; `ap`/`bp` hold `8*kc` / `6*kc` readable f64;
    /// `cp[0..6]` each point at 8 writable f64.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_f64_avx2_8x6(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        alpha: f64,
        beta: f64,
        cp: [*mut f64; MAX_NR],
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; 6];
        for p in 0..kc {
            let a0 = _mm256_loadu_pd(ap.add(8 * p));
            let a1 = _mm256_loadu_pd(ap.add(8 * p + 4));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm256_broadcast_sd(&*bp.add(6 * p + j));
                accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
            }
        }
        let va = _mm256_set1_pd(alpha);
        if beta == 0.0 {
            for (j, accj) in acc.iter().enumerate() {
                _mm256_storeu_pd(cp[j], _mm256_mul_pd(va, accj[0]));
                _mm256_storeu_pd(cp[j].add(4), _mm256_mul_pd(va, accj[1]));
            }
        } else {
            let vb = _mm256_set1_pd(beta);
            for (j, accj) in acc.iter().enumerate() {
                let c0 = _mm256_loadu_pd(cp[j]);
                let c1 = _mm256_loadu_pd(cp[j].add(4));
                _mm256_storeu_pd(cp[j], _mm256_fmadd_pd(vb, c0, _mm256_mul_pd(va, accj[0])));
                _mm256_storeu_pd(cp[j].add(4), _mm256_fmadd_pd(vb, c1, _mm256_mul_pd(va, accj[1])));
            }
        }
    }

    /// Split-accumulator complex microkernel: `$mv` vectors of `$lanes / 2`
    /// interleaved `[re, im]` pairs per column of an `($mv * $lanes / 2) x
    /// $nr` tile. With `a = [ar, ai]`, `swap(a) = [ai, ar]` and `b = br +
    /// i bi`, the product `a b` is `[ar br - ai bi, ai br + ar bi]`: the
    /// k-loop keeps `sum a * br` and `sum swap(a) * bi` apart — two FMAs per
    /// vector and k-step, nothing else — and `fmaddsub(acc_r, 1, acc_i)`
    /// (even lanes `r - i`, odd lanes `r + i`) joins them once at the end.
    /// `alpha * v` and `beta * c` are the same product against a constant.
    macro_rules! complex_microkernel {
        (
            $(#[$attr:meta])* $name:ident, $cplx:ty, $real:ty, $lanes:literal x $mv:literal, nr = $nr:literal,
            $zero:ident, $set1:ident, $load:ident, $store:ident, $swap:expr,
            $mul:ident, $add:ident, $fmadd:ident, $fmaddsub:ident
        ) => {
            $(#[$attr])*
            pub unsafe fn $name(
                kc: usize,
                ap: *const $real,
                bp: *const $real,
                alpha: $cplx,
                beta: $cplx,
                cp: [*mut $real; MAX_NR],
            ) {
                let mut acc_r = [[$zero(); $mv]; $nr];
                let mut acc_i = [[$zero(); $mv]; $nr];
                for p in 0..kc {
                    let mut a = [$zero(); $mv];
                    let mut s = [$zero(); $mv];
                    for v in 0..$mv {
                        a[v] = $load(ap.add(($mv * p + v) * $lanes));
                        s[v] = $swap(a[v]);
                    }
                    for j in 0..$nr {
                        let br = $set1(*bp.add(2 * ($nr * p + j)));
                        let bi = $set1(*bp.add(2 * ($nr * p + j) + 1));
                        for v in 0..$mv {
                            acc_r[j][v] = $fmadd(a[v], br, acc_r[j][v]);
                            acc_i[j][v] = $fmadd(s[v], bi, acc_i[j][v]);
                        }
                    }
                }
                // x * (re + i im) for interleaved x
                let times = |x, re, im| $fmaddsub(x, re, $mul($swap(x), im));
                let one = $set1(1.0);
                let (ar, ai) = ($set1(alpha.re), $set1(alpha.im));
                let (br, bi) = ($set1(beta.re), $set1(beta.im));
                let overwrite = beta == <$cplx>::default();
                for j in 0..$nr {
                    for v in 0..$mv {
                        let c = cp[j].add(v * $lanes);
                        let mut out = times($fmaddsub(acc_r[j][v], one, acc_i[j][v]), ar, ai);
                        if !overwrite {
                            out = $add(out, times($load(c), br, bi));
                        }
                        $store(c, out);
                    }
                }
            }
        };
    }

    complex_microkernel!(
        /// # Safety
        /// Requires avx512f; `ap`/`bp` hold `8*kc` / `4*kc` readable
        /// Complex64; `cp[0..4]` each point at 8 writable Complex64.
        #[target_feature(enable = "avx512f")]
        micro_z64_avx512_8x4, Complex64, f64, 8 x 2, nr = 4,
        _mm512_setzero_pd, _mm512_set1_pd, _mm512_loadu_pd, _mm512_storeu_pd,
        |x| _mm512_permute_pd(x, 0x55),
        _mm512_mul_pd, _mm512_add_pd, _mm512_fmadd_pd, _mm512_fmaddsub_pd
    );

    complex_microkernel!(
        /// # Safety
        /// Requires avx512f; `ap`/`bp` hold `16*kc` / `4*kc` readable
        /// Complex32; `cp[0..4]` each point at 16 writable Complex32.
        #[target_feature(enable = "avx512f")]
        micro_c32_avx512_16x4, Complex32, f32, 16 x 2, nr = 4,
        _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps,
        |x| _mm512_permute_ps(x, 0xB1),
        _mm512_mul_ps, _mm512_add_ps, _mm512_fmadd_ps, _mm512_fmaddsub_ps
    );

    complex_microkernel!(
        /// # Safety
        /// Requires avx2+fma; `ap`/`bp` hold `4*kc` / `3*kc` readable
        /// Complex64; `cp[0..3]` each point at 4 writable Complex64. (12
        /// accumulators, 2 + 2 operand vectors: 16 `ymm`.)
        #[target_feature(enable = "avx2,fma")]
        micro_z64_avx2_4x3, Complex64, f64, 4 x 2, nr = 3,
        _mm256_setzero_pd, _mm256_set1_pd, _mm256_loadu_pd, _mm256_storeu_pd,
        |x| _mm256_permute_pd(x, 0x5),
        _mm256_mul_pd, _mm256_add_pd, _mm256_fmadd_pd, _mm256_fmaddsub_pd
    );

    complex_microkernel!(
        /// # Safety
        /// Requires avx2+fma; `ap`/`bp` hold `8*kc` / `3*kc` readable
        /// Complex32; `cp[0..3]` each point at 8 writable Complex32.
        #[target_feature(enable = "avx2,fma")]
        micro_c32_avx2_8x3, Complex32, f32, 8 x 2, nr = 3,
        _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps,
        |x| _mm256_permute_ps(x, 0xB1),
        _mm256_mul_ps, _mm256_add_ps, _mm256_fmadd_ps, _mm256_fmaddsub_ps
    );

    /// # Safety
    /// Requires avx512f; `ap`/`bp` hold `32*kc` / `8*kc` readable f32;
    /// `cp[0..8]` each point at 32 writable f32.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_f32_avx512_32x8(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        alpha: f32,
        beta: f32,
        cp: [*mut f32; MAX_NR],
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; 8];
        for p in 0..kc {
            let a0 = _mm512_loadu_ps(ap.add(32 * p));
            let a1 = _mm512_loadu_ps(ap.add(32 * p + 16));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm512_set1_ps(*bp.add(8 * p + j));
                accj[0] = _mm512_fmadd_ps(a0, bj, accj[0]);
                accj[1] = _mm512_fmadd_ps(a1, bj, accj[1]);
            }
        }
        let va = _mm512_set1_ps(alpha);
        if beta == 0.0 {
            for (j, accj) in acc.iter().enumerate() {
                _mm512_storeu_ps(cp[j], _mm512_mul_ps(va, accj[0]));
                _mm512_storeu_ps(cp[j].add(16), _mm512_mul_ps(va, accj[1]));
            }
        } else {
            let vb = _mm512_set1_ps(beta);
            for (j, accj) in acc.iter().enumerate() {
                let c0 = _mm512_loadu_ps(cp[j]);
                let c1 = _mm512_loadu_ps(cp[j].add(16));
                _mm512_storeu_ps(cp[j], _mm512_fmadd_ps(vb, c0, _mm512_mul_ps(va, accj[0])));
                _mm512_storeu_ps(
                    cp[j].add(16),
                    _mm512_fmadd_ps(vb, c1, _mm512_mul_ps(va, accj[1])),
                );
            }
        }
    }

    /// # Safety
    /// Requires avx2+fma; `ap`/`bp` hold `16*kc` / `6*kc` readable f32;
    /// `cp[0..6]` each point at 16 writable f32.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_f32_avx2_16x6(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        alpha: f32,
        beta: f32,
        cp: [*mut f32; MAX_NR],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; 6];
        for p in 0..kc {
            let a0 = _mm256_loadu_ps(ap.add(16 * p));
            let a1 = _mm256_loadu_ps(ap.add(16 * p + 8));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm256_broadcast_ss(&*bp.add(6 * p + j));
                accj[0] = _mm256_fmadd_ps(a0, bj, accj[0]);
                accj[1] = _mm256_fmadd_ps(a1, bj, accj[1]);
            }
        }
        let va = _mm256_set1_ps(alpha);
        if beta == 0.0 {
            for (j, accj) in acc.iter().enumerate() {
                _mm256_storeu_ps(cp[j], _mm256_mul_ps(va, accj[0]));
                _mm256_storeu_ps(cp[j].add(8), _mm256_mul_ps(va, accj[1]));
            }
        } else {
            let vb = _mm256_set1_ps(beta);
            for (j, accj) in acc.iter().enumerate() {
                let c0 = _mm256_loadu_ps(cp[j]);
                let c1 = _mm256_loadu_ps(cp[j].add(8));
                _mm256_storeu_ps(cp[j], _mm256_fmadd_ps(vb, c0, _mm256_mul_ps(va, accj[0])));
                _mm256_storeu_ps(cp[j].add(8), _mm256_fmadd_ps(vb, c1, _mm256_mul_ps(va, accj[1])));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;
    use polar_matrix::Matrix;
    use polar_scalar::Real;

    fn rand_smat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(m, n, |_, _| {
            let (re, im) = (next(), next());
            S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
        })
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        rand_smat(m, n, seed)
    }

    fn check(m: usize, n: usize, k: usize, op_a: Op, op_b: Op) {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = rand_mat(ar, ac, 1);
        let b = rand_mat(br, bc, 2);
        let mut c1 = rand_mat(m, n, 3);
        let mut c2 = c1.clone();
        gemm_ref(op_a, op_b, 1.5, a.as_ref(), b.as_ref(), -0.5, c1.as_mut());
        gemm_packed(op_a, op_b, 1.5, a.as_ref(), b.as_ref(), -0.5, c2.as_mut(), Mask::Full);
        for j in 0..n {
            for i in 0..m {
                assert!(
                    (c1[(i, j)] - c2[(i, j)]).abs() < 1e-10,
                    "({i},{j}) {op_a:?} {op_b:?} m={m} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn packed_matches_ref_fringe_shapes() {
        for op_a in [Op::NoTrans, Op::Trans] {
            for op_b in [Op::NoTrans, Op::Trans] {
                check(17, 13, 29, op_a, op_b);
                check(64, 48, 16, op_a, op_b);
                check(1, 1, 1, op_a, op_b);
                check(33, 1, 7, op_a, op_b);
            }
        }
    }

    #[test]
    fn packed_spans_multiple_kc_blocks() {
        // k larger than KC exercises the beta_eff = 1 accumulation path
        let k = gemm_params().kc + 37;
        check(19, 23, k, Op::NoTrans, Op::NoTrans);
        check(19, 23, k, Op::Trans, Op::Trans);
    }

    #[test]
    fn packed_complex_conj() {
        let a = Matrix::from_fn(9, 6, |i, j| Complex64::new(i as f64 - 2.0, j as f64 + 0.5));
        let b = Matrix::from_fn(9, 5, |i, j| Complex64::new(j as f64, i as f64 - 1.0));
        let one = Complex64::from_real(1.0);
        let mut c1 = Matrix::<Complex64>::zeros(6, 5);
        let mut c2 = Matrix::<Complex64>::zeros(6, 5);
        gemm_ref(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            b.as_ref(),
            Complex64::ZERO,
            c1.as_mut(),
        );
        gemm_packed(
            Op::ConjTrans,
            Op::NoTrans,
            one,
            a.as_ref(),
            b.as_ref(),
            Complex64::ZERO,
            c2.as_mut(),
            Mask::Full,
        );
        for j in 0..5 {
            for i in 0..6 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn packed_complex64_kernel_all_ops() {
        // shapes deep enough to exercise the z microkernel across full and
        // fringe tiles and a kc-block boundary
        let k = gemm_params().kc + 9;
        for op_a in [Op::NoTrans, Op::Trans, Op::ConjTrans] {
            for op_b in [Op::NoTrans, Op::Trans, Op::ConjTrans] {
                let (ar, ac) = if op_a == Op::NoTrans { (21, k) } else { (k, 21) };
                let (br, bc) = if op_b == Op::NoTrans { (k, 14) } else { (14, k) };
                let mut s = 7u64;
                let mut next = move || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                };
                let a = Matrix::from_fn(ar, ac, |_, _| Complex64::new(next(), next()));
                let b = Matrix::from_fn(br, bc, |_, _| Complex64::new(next(), next()));
                let alpha = Complex64::new(1.25, -0.5);
                let beta = Complex64::new(-0.75, 0.25);
                let mut c1 = Matrix::from_fn(21, 14, |_, _| Complex64::new(next(), next()));
                let mut c2 = c1.clone();
                gemm_ref(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, c1.as_mut());
                gemm_packed(
                    op_a,
                    op_b,
                    alpha,
                    a.as_ref(),
                    b.as_ref(),
                    beta,
                    c2.as_mut(),
                    Mask::Full,
                );
                for j in 0..14 {
                    for i in 0..21 {
                        assert!(
                            (c1[(i, j)] - c2[(i, j)]).abs() < 1e-9 * (k as f64),
                            "({i},{j}) {op_a:?} {op_b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_par_bitwise_matches_sequential() {
        // the block-grid parallel path must be bit-identical to the
        // sequential packed kernel (thread-count-independent results)
        let p = gemm_params();
        let m = 3 * p.mc + 17;
        let a = rand_mat(m, p.kc + 5, 51);
        let b = rand_mat(p.kc + 5, 96, 52);
        let mut c1 = rand_mat(m, 96, 53);
        let mut c2 = c1.clone();
        gemm_packed(
            Op::NoTrans,
            Op::NoTrans,
            1.5,
            a.as_ref(),
            b.as_ref(),
            -0.5,
            c1.as_mut(),
            Mask::Full,
        );
        gemm_packed_par(Op::NoTrans, Op::NoTrans, 1.5, a.as_ref(), b.as_ref(), -0.5, c2.as_mut());
        for j in 0..96 {
            for i in 0..m {
                assert!(
                    c1[(i, j)].to_bits() == c2[(i, j)].to_bits(),
                    "({i},{j}) not bitwise equal"
                );
            }
        }
    }

    /// The five loops of `gemm_packed_with` over one MC/NC block, on the
    /// kernel and tile shape given instead of the ones the process selected.
    #[allow(clippy::too_many_arguments)]
    fn gemm_on<S: Scalar>(
        (kern, mr, nr): (Kern, usize, usize),
        (op_a, op_b): (Op, Op),
        alpha: S,
        a: &Matrix<S>,
        b: &Matrix<S>,
        beta: S,
        c: &mut Matrix<S>,
        k: usize,
    ) {
        let (m, n, kc) = (c.nrows(), c.ncols(), gemm_params().kc);
        let mut apack = vec![S::ZERO; m.next_multiple_of(mr) * kc];
        let mut bpack = vec![S::ZERO; n.next_multiple_of(nr) * kc];
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            let beta = if pc == 0 { beta } else { S::ONE };
            pack_b(op_b, b.as_ref(), pc, 0, kcb, n, nr, &mut bpack);
            pack_a(op_a, a.as_ref(), 0, pc, m, kcb, mr, &mut apack);
            macro_kernel(kern, alpha, &apack, &bpack, beta, c.as_mut(), kcb, mr, nr, Mask::Full);
        }
    }

    /// Every SIMD kernel of `S` this host can run — not only the one the
    /// default tile shape selects — against the reference triple loop and
    /// against the const-generic kernel at the same tile shape: full tiles
    /// and both fringes, one k-step to more than a k-block, every op pair,
    /// `alpha` / `beta` through the 0 / 1 / -1 / general writeback arms.
    fn simd_kernels_match<S: Scalar>() -> usize {
        let kc = gemm_params().kc;
        let ops: &[Op] =
            if S::IS_COMPLEX { &[Op::NoTrans, Op::Trans, Op::ConjTrans] } else { &[Op::NoTrans] };
        let general = S::from_parts(S::Real::from_f64(1.25), S::Real::from_f64(-0.5));
        let coefs = [S::ZERO, S::ONE, -S::ONE, general];
        let kernels: Vec<_> = SIMD_KERNELS.iter().filter(|k| k.serves::<S>()).collect();
        for (simd, k) in kernels.iter().flat_map(|s| [1, 7, kc, kc + 9].map(|k| (s, k))) {
            let (mr, nr) = (simd.mr, simd.nr);
            let tol = S::Real::from_f64(16.0 * S::Real::EPSILON.to_f64() * (k as f64 + 4.0));
            for (case, (m, n)) in
                [(2 * mr, 2 * nr), (2 * mr + 3, 2 * nr), (mr, nr + 1), (mr - 1, 3 * nr - 1)]
                    .into_iter()
                    .enumerate()
            {
                for (&op_a, &op_b) in ops.iter().flat_map(|a| ops.iter().map(move |b| (a, b))) {
                    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                    let (a, b) = (rand_smat::<S>(ar, ac, 61), rand_smat::<S>(br, bc, 62));
                    // the four (alpha, beta) pairs of this case; over the
                    // four shapes every pair of coefficients comes up
                    for (ia, &alpha) in coefs.iter().enumerate() {
                        let beta = coefs[(ia + case) % 4];
                        let what = format!(
                            "{} {:?} {m}x{n}x{k} {op_a:?} {op_b:?} alpha={alpha:?} beta={beta:?}",
                            S::TYPE_TAG,
                            simd.kern
                        );
                        // beta = 0 overwrites: NaN in C must not survive
                        // (the reference loop multiplies it, so it gets zeros)
                        let (mut want, c0) = if beta == S::ZERO {
                            (
                                Matrix::zeros(m, n),
                                Matrix::from_fn(m, n, |_, _| S::from_f64(f64::NAN)),
                            )
                        } else {
                            (rand_smat::<S>(m, n, 63), rand_smat::<S>(m, n, 63))
                        };
                        let (mut got, mut generic) = (c0.clone(), c0);
                        gemm_ref(op_a, op_b, alpha, a.as_ref(), b.as_ref(), beta, want.as_mut());
                        let ops = (op_a, op_b);
                        gemm_on((simd.kern, mr, nr), ops, alpha, &a, &b, beta, &mut got, k);
                        gemm_on((Kern::Generic, mr, nr), ops, alpha, &a, &b, beta, &mut generic, k);
                        for j in 0..n {
                            for i in 0..m {
                                let (g, w, f) = (got[(i, j)], want[(i, j)], generic[(i, j)]);
                                assert!(
                                    (g - w).abs() <= tol,
                                    "{what}: ({i},{j}) {g:?} vs ref {w:?}"
                                );
                                assert!(
                                    (g - f).abs() <= tol,
                                    "{what}: ({i},{j}) {g:?} vs generic {f:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        kernels.len()
    }

    #[test]
    fn every_simd_kernel_matches_reference_and_generic() {
        let ran = [
            simd_kernels_match::<f32>(),
            simd_kernels_match::<f64>(),
            simd_kernels_match::<Complex32>(),
            simd_kernels_match::<Complex64>(),
        ];
        // the table lists the AVX-512 and the AVX2 kernel of each type
        let want = usize::from(cpu_has_avx512()) + usize::from(cpu_has_avx2_fma());
        assert_eq!(ran, [want; 4]);
    }

    #[test]
    fn tile_shape_within_caps() {
        let (mr, nr) = tile_shape::<f64>();
        assert!((1..=MAX_MR).contains(&mr));
        assert!((1..=MAX_NR).contains(&nr));
    }
}
