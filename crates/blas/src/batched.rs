//! Batch-strided GEMM over [`BatchedDense`] operands.
//!
//! `gemm_batched` computes `C_k := alpha * op(A_k) * op(B_k) + beta * C_k`
//! for every entry `k` of a same-shape batch. Per-solve overhead is
//! amortized across the batch instead of paid per matrix:
//!
//! * dimension checks, microkernel selection, and the observability span
//!   happen **once** per batch, not once per entry;
//! * each entry runs the sequential `gemm_leaf` (the packed BLIS-style
//!   microkernel path for problems that amortize packing, the
//!   autovectorized axpy loop below that) — no per-entry parallel-split
//!   decision trees;
//! * parallelism comes from one recursive fork over the *batch index*,
//!   so a batch of small GEMMs fills the work-stealing pool with exactly
//!   one parallel region.

use crate::gemm::{gemm_leaf, packs};
use crate::packed::{
    gemm_packed_with, macro_kernel, pack_a, pack_b, scale_block, select_kernel, tile_shape, Mask,
};
use crate::params::{fork_lanes, gemm_params, par_threshold_flops};
use polar_matrix::{BatchedDense, BatchedMut, BatchedRef, Op};
use polar_scalar::Scalar;

/// Batched GEMM: `C_k := alpha * op_a(A_k) * op_b(B_k) + beta * C_k` for
/// every entry of the batch. All three batches must have the same batch
/// count; shapes are validated once (they are shared by construction).
pub fn gemm_batched<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: &BatchedDense<S>,
    b: &BatchedDense<S>,
    beta: S,
    c: &mut BatchedDense<S>,
) {
    let batch = c.batch();
    assert_eq!(a.batch(), batch, "gemm_batched: A batch mismatch");
    assert_eq!(b.batch(), batch, "gemm_batched: B batch mismatch");
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = op_a.apply_dims(a.nrows(), a.ncols());
    let (bk, bn) = op_b.apply_dims(b.nrows(), b.ncols());
    assert_eq!(am, m, "gemm_batched: A rows mismatch");
    assert_eq!(bn, n, "gemm_batched: B cols mismatch");
    assert_eq!(ak, bk, "gemm_batched: inner dim mismatch");
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Gemm,
        "gemm_batched",
        batch as f64 * crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::gemm(m, n, ak),
        [m, n, batch],
    );

    // Fork grain over the batch index: each side of a split owns a
    // contiguous run of entries. One entry is the smallest unit (entries
    // are independent, and per-entry problems are small by design).
    let per_entry = m.saturating_mul(n).saturating_mul(ak.max(1));
    let grain = if fork_lanes(per_entry.saturating_mul(batch)) == 1 {
        batch
    } else {
        (par_threshold_flops() / per_entry).clamp(1, batch)
    };

    let ctx = BatchCtx { op_a, op_b, alpha, beta, k: ak, packed: packs(m, n, ak) };
    batched_rec(&ctx, a, b, EntriesMut::new(c), 0, grain);
}

/// Cap (in elements per operand) on the batch-spanning pack slabs of
/// [`gemm_batched_packed`]. Batches whose packed panels exceed it fall
/// back to the per-entry five-loop with shared (but per-entry-sized)
/// buffers, which bounds workspace at a few MiB regardless of batch size.
const BATCH_PACK_CAP: usize = 1 << 20;

/// Batch-major packed GEMM: `C_k := alpha * op_a(A_k) * op_b(B_k) +
/// beta * C_k` driven through the BLIS microkernels with **one** pack
/// sweep serving the whole batch.
///
/// Where [`gemm_batched`] re-enters the per-entry leaf (re-deciding the
/// packing threshold, allocating pack buffers, and falling back to the
/// axpy loop for sub-threshold entries), this path commits to the packed
/// microkernel once for the batch:
///
/// * kernel selection, blocking parameters, and workspace allocation
///   happen once per call;
/// * per KC block, the A and B micro-panels of *every* entry are packed
///   into two contiguous batch-spanning slabs in one sweep, then one
///   macro-kernel sweep streams those slabs through the SIMD microkernel
///   entry by entry — pack cost and blocking-loop overhead amortize over
///   the batch instead of multiplying by it;
/// * small entries (below the per-entry packing threshold, e.g. `n = 16`)
///   still get the microkernel, which the per-entry heuristic denies them.
///
/// Entries too large for one `(MC, NC)` block (or exceeding
/// [`BATCH_PACK_CAP`]) run the standard five-loop per entry over shared
/// buffers — still amortizing allocation, just not the pack sweep.
///
/// The sweep is sequential and its operation order is fixed by shape
/// alone, so results are bitwise reproducible across thread counts
/// (deterministic replay included).
pub fn gemm_batched_packed<S: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: S,
    a: BatchedRef<'_, S>,
    b: BatchedRef<'_, S>,
    beta: S,
    mut c: BatchedMut<'_, S>,
) {
    let batch = c.batch();
    assert_eq!(a.batch(), batch, "gemm_batched_packed: A batch mismatch");
    assert_eq!(b.batch(), batch, "gemm_batched_packed: B batch mismatch");
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = op_a.apply_dims(a.nrows(), a.ncols());
    let (bk, bn) = op_b.apply_dims(b.nrows(), b.ncols());
    assert_eq!(am, m, "gemm_batched_packed: A rows mismatch");
    assert_eq!(bn, n, "gemm_batched_packed: B cols mismatch");
    assert_eq!(ak, bk, "gemm_batched_packed: inner dim mismatch");
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    let k = ak;
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Gemm,
        "gemm_batched_packed",
        batch as f64 * crate::flops::type_factor(S::IS_COMPLEX) * crate::flops::gemm(m, n, k),
        [m, n, batch],
    );
    if k == 0 || alpha == S::ZERO {
        for e in 0..batch {
            let mut ce = c.mat_mut(e);
            scale_block(&mut ce, beta);
        }
        return;
    }

    let p = gemm_params();
    let (mr, nr) = tile_shape::<S>();
    let kern = select_kernel::<S>(mr, nr);
    let kc = p.kc.min(k);
    // per-entry micro-panel strides within the batch-spanning slabs
    let a_stride = m.next_multiple_of(mr) * kc;
    let b_stride = n.next_multiple_of(nr) * kc;

    if m <= p.mc && n <= p.nc && a_stride.max(b_stride) <= BATCH_PACK_CAP {
        // One pack-buffer pair serves the whole batch: every entry's
        // panels are packed into the SAME (MR/NR-aligned) buffers and fed
        // to the microkernels immediately, so the buffers stay resident in
        // L1/L2 across the entire sweep. A batch-spanning slab (slot per
        // entry) measures ~2x slower here: each entry then writes and
        // reads cold lines, and at these sizes the pack traffic dominates.
        // Allocation, zero-fill, blocking setup, and kernel selection all
        // happen once per call instead of once per entry.
        let mut apack = vec![S::ZERO; a_stride];
        let mut bpack = vec![S::ZERO; b_stride];
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            let beta_eff = if pc == 0 { beta } else { S::ONE };
            let ap = m.next_multiple_of(mr) * kcb;
            let bp = n.next_multiple_of(nr) * kcb;
            for e in 0..batch {
                pack_a(op_a, a.mat(e), 0, pc, m, kcb, mr, &mut apack[..ap]);
                pack_b(op_b, b.mat(e), pc, 0, kcb, n, nr, &mut bpack[..bp]);
                macro_kernel(
                    kern,
                    alpha,
                    &apack[..ap],
                    &bpack[..bp],
                    beta_eff,
                    c.mat_mut(e),
                    kcb,
                    mr,
                    nr,
                    Mask::Full,
                );
            }
        }
        return;
    }

    // entries larger than one (MC, NC) block: standard five-loop per
    // entry, with the pack buffers hoisted out of the batch loop
    let mut apack = vec![S::ZERO; p.mc.min(m).next_multiple_of(mr) * kc];
    let mut bpack = vec![S::ZERO; p.nc.min(n).next_multiple_of(nr) * kc];
    for e in 0..batch {
        gemm_packed_with(
            op_a,
            op_b,
            alpha,
            a.mat(e),
            b.mat(e),
            beta,
            c.mat_mut(e),
            &mut apack,
            &mut bpack,
            Mask::Full,
        );
    }
}

struct BatchCtx<S> {
    op_a: Op,
    op_b: Op,
    alpha: S,
    beta: S,
    k: usize,
    packed: bool,
}

/// Mutable per-entry access to a range of a batched C, splittable at an
/// entry boundary (entries are disjoint slices of the backing buffer).
struct EntriesMut<'a, S> {
    rows: usize,
    cols: usize,
    data: &'a mut [S],
}

impl<'a, S: Scalar> EntriesMut<'a, S> {
    fn new(c: &'a mut BatchedDense<S>) -> Self {
        let (rows, cols) = (c.nrows(), c.ncols());
        Self { rows, cols, data: c.as_mut_slice() }
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.rows * self.cols).unwrap_or(0)
    }

    fn split_at(self, k: usize) -> (Self, Self) {
        let (lo, hi) = self.data.split_at_mut(k * self.rows * self.cols);
        (
            Self { rows: self.rows, cols: self.cols, data: lo },
            Self { rows: self.rows, cols: self.cols, data: hi },
        )
    }

    fn mat_mut(&mut self, k: usize) -> polar_matrix::MatMut<'_, S> {
        let per = self.rows * self.cols;
        polar_matrix::MatMut::from_slice(
            &mut self.data[k * per..(k + 1) * per],
            self.rows,
            self.cols,
            self.rows,
        )
    }
}

fn batched_rec<S: Scalar>(
    ctx: &BatchCtx<S>,
    a: &BatchedDense<S>,
    b: &BatchedDense<S>,
    mut c: EntriesMut<'_, S>,
    base: usize,
    grain: usize,
) {
    let count = c.len();
    if count <= grain {
        for k in 0..count {
            gemm_leaf(
                ctx.op_a,
                ctx.op_b,
                ctx.alpha,
                a.mat(base + k),
                b.mat(base + k),
                ctx.beta,
                c.mat_mut(k),
                ctx.k,
                ctx.packed,
            );
        }
        return;
    }
    let h = count / 2;
    let (c1, c2) = c.split_at(h);
    rayon::join(
        || batched_rec(ctx, a, b, c1, base, grain),
        || batched_rec(ctx, a, b, c2, base + h, grain),
    );
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::gemm_ref;
    use polar_matrix::Matrix;
    use polar_scalar::{Complex32, Complex64, Real};

    fn rand_batch<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64) -> BatchedDense<S> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut out = BatchedDense::zeros(m, n, batch);
        for v in out.as_mut_slice() {
            let re = next();
            let im = next();
            *v = S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im));
        }
        out
    }

    fn check_type<S: Scalar>(m: usize, n: usize, k: usize, batch: usize, tol: f64) {
        let a = rand_batch::<S>(m, k, batch, 1);
        let b = rand_batch::<S>(k, n, batch, 2);
        let mut c = rand_batch::<S>(m, n, batch, 3);
        let alpha = S::from_f64(0.75);
        let beta = S::from_f64(-0.5);

        let mut expect: Vec<Matrix<S>> = (0..batch).map(|i| c.to_matrix(i)).collect();
        for i in 0..batch {
            gemm_ref(Op::NoTrans, Op::NoTrans, alpha, a.mat(i), b.mat(i), beta, expect[i].as_mut());
        }
        gemm_batched(Op::NoTrans, Op::NoTrans, alpha, &a, &b, beta, &mut c);
        for i in 0..batch {
            for j in 0..n {
                for r in 0..m {
                    let d = (c.mat(i).at(r, j) - expect[i][(r, j)]).abs().to_f64();
                    assert!(d <= tol, "{} entry {i} ({r},{j}) diff {d}", S::TYPE_TAG);
                }
            }
        }
    }

    #[test]
    fn matches_reference_all_types() {
        check_type::<f64>(16, 16, 16, 5, 1e-12);
        check_type::<f32>(16, 16, 16, 5, 1e-4);
        check_type::<Complex64>(12, 12, 12, 4, 1e-12);
        check_type::<Complex32>(12, 12, 12, 4, 1e-4);
    }

    #[test]
    fn transposed_operands_and_odd_shapes() {
        // op(A): 7x13 from A 13x7 transposed, odd batch, rectangular C
        let batch = 3;
        let a = rand_batch::<f64>(13, 7, batch, 11);
        let b = rand_batch::<f64>(13, 5, batch, 12);
        let mut c = BatchedDense::<f64>::zeros(7, 5, batch);
        let mut expect: Vec<Matrix<f64>> = (0..batch).map(|i| c.to_matrix(i)).collect();
        for i in 0..batch {
            gemm_ref(Op::Trans, Op::NoTrans, 1.0, a.mat(i), b.mat(i), 0.0, expect[i].as_mut());
        }
        gemm_batched(Op::Trans, Op::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        for i in 0..batch {
            for j in 0..5 {
                for r in 0..7 {
                    assert!((c.mat(i).at(r, j) - expect[i][(r, j)]).abs() <= 1e-12);
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_inert() {
        let a = BatchedDense::<f64>::zeros(4, 4, 0);
        let b = BatchedDense::<f64>::zeros(4, 4, 0);
        let mut c = BatchedDense::<f64>::zeros(4, 4, 0);
        gemm_batched(Op::NoTrans, Op::NoTrans, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn batch_count_mismatch_rejected() {
        let a = BatchedDense::<f64>::zeros(4, 4, 2);
        let b = BatchedDense::<f64>::zeros(4, 4, 3);
        let mut c = BatchedDense::<f64>::zeros(4, 4, 2);
        gemm_batched(Op::NoTrans, Op::NoTrans, 1.0, &a, &b, 0.0, &mut c);
    }

    fn check_packed_type<S: Scalar>(
        m: usize,
        n: usize,
        k: usize,
        batch: usize,
        op_a: Op,
        op_b: Op,
        tol: f64,
    ) {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = rand_batch::<S>(ar, ac, batch, 21);
        let b = rand_batch::<S>(br, bc, batch, 22);
        let mut c = rand_batch::<S>(m, n, batch, 23);
        let alpha = S::from_f64(1.25);
        let beta = S::from_f64(-0.5);

        let mut expect: Vec<Matrix<S>> = (0..batch).map(|i| c.to_matrix(i)).collect();
        for i in 0..batch {
            gemm_ref(op_a, op_b, alpha, a.mat(i), b.mat(i), beta, expect[i].as_mut());
        }
        gemm_batched_packed(
            op_a,
            op_b,
            alpha,
            a.as_batched_ref(),
            b.as_batched_ref(),
            beta,
            c.as_batched_mut(),
        );
        for i in 0..batch {
            for j in 0..n {
                for r in 0..m {
                    let d = (c.mat(i).at(r, j) - expect[i][(r, j)]).abs().to_f64();
                    assert!(
                        d <= tol,
                        "{} entry {i} ({r},{j}) diff {d} [{op_a:?} {op_b:?} m={m} n={n} k={k}]",
                        S::TYPE_TAG
                    );
                }
            }
        }
    }

    #[test]
    fn batch_major_matches_reference_all_types() {
        // below the per-entry packing threshold (n = 16) and above it
        for (m, n, k) in [(16, 16, 16), (32, 32, 32), (17, 13, 29)] {
            check_packed_type::<f64>(m, n, k, 5, Op::NoTrans, Op::NoTrans, 1e-12);
            check_packed_type::<f32>(m, n, k, 5, Op::NoTrans, Op::NoTrans, 1e-3);
            check_packed_type::<Complex64>(m, n, k, 4, Op::NoTrans, Op::NoTrans, 1e-12);
            check_packed_type::<Complex32>(m, n, k, 4, Op::NoTrans, Op::NoTrans, 1e-3);
        }
    }

    #[test]
    fn batch_major_transposed_operands() {
        check_packed_type::<f64>(7, 13, 40, 3, Op::Trans, Op::NoTrans, 1e-12);
        check_packed_type::<f64>(12, 9, 25, 3, Op::NoTrans, Op::Trans, 1e-12);
        check_packed_type::<Complex64>(10, 8, 12, 3, Op::ConjTrans, Op::NoTrans, 1e-12);
        check_packed_type::<Complex64>(8, 10, 12, 3, Op::NoTrans, Op::ConjTrans, 1e-12);
    }

    #[test]
    fn batch_major_spans_kc_blocks_and_prefix() {
        // k beyond KC exercises the multi-pass accumulation (beta_eff = 1)
        let k = crate::params::gemm_params().kc + 11;
        check_packed_type::<f64>(24, 18, k, 3, Op::NoTrans, Op::NoTrans, 1e-10);

        // a prefix view runs over the leading entries only
        let a = rand_batch::<f64>(8, 8, 4, 31);
        let b = rand_batch::<f64>(8, 8, 4, 32);
        let mut c = rand_batch::<f64>(8, 8, 4, 33);
        let untouched = c.to_matrix(3);
        let mut expect: Vec<Matrix<f64>> = (0..3).map(|i| c.to_matrix(i)).collect();
        for i in 0..3 {
            gemm_ref(Op::NoTrans, Op::NoTrans, 1.0, a.mat(i), b.mat(i), 0.0, expect[i].as_mut());
        }
        gemm_batched_packed(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_batched_ref().prefix(3),
            b.as_batched_ref().prefix(3),
            0.0,
            c.as_batched_mut().prefix(3),
        );
        for i in 0..3 {
            for j in 0..8 {
                for r in 0..8 {
                    assert!((c.mat(i).at(r, j) - expect[i][(r, j)]).abs() <= 1e-12);
                }
            }
        }
        assert_eq!(c.to_matrix(3), untouched, "prefix must not touch trailing entries");
    }

    #[test]
    fn batch_major_large_entry_fallback_matches() {
        // m beyond MC forces the shared-buffer per-entry five-loop
        let m = crate::params::gemm_params().mc + 19;
        check_packed_type::<f64>(m, 24, 16, 2, Op::NoTrans, Op::NoTrans, 1e-11);
    }
}
