//! The batched QDWH driver: Algorithm 1 vectorized over a same-shape batch.
//!
//! Per-entry numerics mirror [`polar_qdwh::qdwh`] iteration for iteration;
//! what changes is *where the work lives*:
//!
//! * all iterates `X_k` sit in one [`BatchedDense`] (entry stride `m * n`),
//!   allocated once per batch and reused across iterations;
//! * each Halley iteration is **one** [`TaskDag`] over the whole batch —
//!   per entry, a `factor` task (stacked QR or Cholesky of `Z`) feeding an
//!   `update` task (the weighted combination + convergence norm) through a
//!   dependency edge, so the work-stealing pool sees a single graph with
//!   `2 * active` tasks instead of `active` independent solver calls;
//! * the condition-estimate prologue consults a [`CondestCache`] keyed by
//!   `(n, type, cond class)` so hinted repeat streams skip the per-entry
//!   `geqrf` + estimate entirely;
//! * the final `H_k = U_k^H A_k` is one [`polar_blas::gemm_batched`].
//!
//! Entries converge independently: a converged entry drops out of later
//! DAGs while the rest keep iterating. Any per-entry failure (breakdown,
//! non-finite data, iteration-cap exhaustion) aborts the whole batch with
//! [`BatchError::Entry`] — the serving tier falls back to per-job scalar
//! solves, which keeps failure semantics identical to the unbatched path.

use crate::cache::{cond_class, CondestCache, CondestKey};
use polar_blas::{gemm, gemm_batched, gemm_batched_packed, herk, norm, symmetrize, trsm};
use polar_lapack::{
    geqrf, geqrf_stacked, norm2est, orgqr, potrf, potrf_in, tr_sigma_min_est, trcondest,
    trtri_lower,
};
use polar_matrix::{
    BatchedDense, BatchedMut, BatchedRef, Diag, MatMut, MatRef, Matrix, Norm, Op, Side, Uplo,
};
use polar_qdwh::{
    halley_parameters, update_ell, IterationKind, IterationPath, IterationRecord, L0Strategy,
    QdwhError, QdwhInfo, QdwhOptions,
};
use polar_runtime::{KernelKind, TaskDag, TaskStatus, TileRef};
use polar_scalar::{Real, Scalar};
use std::sync::{Arc, OnceLock};

/// One matrix of a batch: the input `A` and, after a successful
/// [`qdwh_batched`] call, the polar factors `U` (and `H` when
/// `compute_h`). Factors are empty `0 x 0` matrices until then.
#[derive(Debug, Clone)]
pub struct BatchEntry<S: Scalar> {
    /// Input, preserved (the engine reads it for the scaling prologue and
    /// the final `H = U^H A`).
    pub a: Matrix<S>,
    /// Unitary polar factor, `m x n`, filled on success.
    pub u: Matrix<S>,
    /// Hermitian PSD factor, `n x n`, filled on success when `compute_h`.
    pub h: Matrix<S>,
    /// Estimated condition number of `a`, when the producer knows it
    /// (e.g. a truncation step that just computed the spectrum). Enables
    /// [`CondestCache`] sharing; entries without a hint always estimate
    /// their own `l_0`.
    pub cond_hint: Option<f64>,
}

impl<S: Scalar> BatchEntry<S> {
    pub fn new(a: Matrix<S>) -> Self {
        Self { a, u: Matrix::zeros(0, 0), h: Matrix::zeros(0, 0), cond_hint: None }
    }

    pub fn with_cond_hint(a: Matrix<S>, cond: f64) -> Self {
        Self { cond_hint: Some(cond), ..Self::new(a) }
    }
}

/// Options for [`qdwh_batched`].
#[derive(Clone)]
pub struct BatchOptions {
    /// Per-entry numerics (iteration family, switch threshold, iteration
    /// cap, `compute_h`, `l_0` strategy). The tiled and TSQR paths do not
    /// apply — batch entries are small by design, so factorizations run on
    /// the flat kernels and parallelism comes from the batch dimension.
    /// `L0Strategy::LuFormula` falls back to `PaperFormula` here (one QR
    /// estimate route keeps the prologue DAG uniform). The `progress` hook
    /// is not consulted (cancellation is the serving tier's job, at batch
    /// granularity).
    pub qdwh: QdwhOptions,
    /// Estimate the scaling `alpha` as `sqrt(||A||_1 ||A||_inf)` (one pass
    /// over the data, an upper bound on `||A||_2`) instead of the scalar
    /// driver's power iteration. Safe — QDWH only needs `alpha >=
    /// sigma_max` — and much cheaper at serving sizes. Disable to match
    /// the scalar path's iterates exactly (the parity suite does).
    pub fast_scale: bool,
    /// Shared condition-estimate cache; `None` disables sharing.
    pub condest_cache: Option<Arc<CondestCache>>,
    /// QR→Cholesky switch value for entries that declared a
    /// [`BatchEntry::with_cond_hint`] conditioning class (unhinted entries
    /// keep `qdwh.qr_switch_threshold`, classically 100). Safe to widen
    /// regardless of whether the hint is truthful: `Z = I + c XᴴX` has
    /// eigenvalues in `[1, 1 + c]`, so `κ(Z) ≤ 1 + c` is bounded by the
    /// switch value alone — the widened window costs at most `~c·ε`
    /// backward error in the early Gram forms, which the later,
    /// well-conditioned rounds contract, while converting the expensive
    /// per-entry stacked-QR rounds into batch-major Cholesky rounds. The
    /// effective value is capped at `1e-4/ε` per precision (f64: the 1e5
    /// default binds; f32: ~840, which still covers the κ ≤ 100 serving
    /// class whose first-round `c ≈ 764`).
    pub hinted_qr_switch_threshold: f64,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            qdwh: QdwhOptions::default(),
            fast_scale: true,
            condest_cache: None,
            hinted_qr_switch_threshold: 1e5,
        }
    }
}

impl std::fmt::Debug for BatchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchOptions")
            .field("qdwh", &self.qdwh)
            .field("fast_scale", &self.fast_scale)
            .field("condest_cache", &self.condest_cache)
            .field("hinted_qr_switch_threshold", &self.hinted_qr_switch_threshold)
            .finish()
    }
}

/// Errors from [`qdwh_batched`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// Entries do not all share one `(m, n)` shape. The engine requires
    /// shape-homogeneous batches (the dispatcher keys batches by shape);
    /// this is a typed error, never a panic.
    MixedShapes { index: usize, expected: (usize, usize), got: (usize, usize) },
    /// Every entry is `m < n`; transpose inputs as for the scalar driver.
    Shape(&'static str),
    /// Entry `index` failed; the whole batch is abandoned (callers fall
    /// back to per-entry scalar solves).
    Entry { index: usize, source: QdwhError },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::MixedShapes { index, expected, got } => write!(
                f,
                "mixed shapes in batch: entry {index} is {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            BatchError::Shape(msg) => write!(f, "shape error: {msg}"),
            BatchError::Entry { index, source } => write!(f, "batch entry {index}: {source}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Shared mutable access to the entries of a [`BatchedDense`] from DAG
/// tasks. Entries are disjoint slices of the backing buffer; the task
/// graph serializes all conflicting accesses (same contract as the tile
/// pointer in `polar-lapack`'s tiled drivers).
struct BatchPtr<S> {
    data: *mut S,
    rows: usize,
    cols: usize,
}

impl<S> Clone for BatchPtr<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for BatchPtr<S> {}
unsafe impl<S: Send> Send for BatchPtr<S> {}
unsafe impl<S: Send> Sync for BatchPtr<S> {}

/// Route a whole `qdwh_batched` call to the batch-major kernels?
///
/// Batch-major wins when the per-entry GEMMs are too small to reach the
/// packed microkernels on their own (the per-entry path falls back to the
/// axpy kernel below `PACK_MIN_FLOPS`) and the whole batch still fits one
/// KC-block pack slab. Large entries already saturate the tiled path.
///
/// `POLAR_BATCH_MAJOR=1` / `=0` force the decision either way (read once
/// per process). The heuristic is shape-keyed only — no timing, no state —
/// so the same call always takes the same path, including under
/// `POLAR_DETERMINISTIC=1`.
fn batch_major_enabled(batch: usize, n: usize) -> bool {
    static OVERRIDE: OnceLock<Option<bool>> = OnceLock::new();
    let forced = *OVERRIDE.get_or_init(|| match std::env::var("POLAR_BATCH_MAJOR") {
        Ok(v) => match v.trim() {
            "1" | "on" | "true" => Some(true),
            "0" | "off" | "false" => Some(false),
            _ => None,
        },
        Err(_) => None,
    });
    forced.unwrap_or(batch >= 2 && n <= 128)
}

/// Workspace slabs for the batch-major rounds, allocated at full batch
/// capacity the first time each iteration family runs and reused by every
/// later round of the call (active entries occupy a prefix).
struct BatchArena<S: Scalar> {
    /// Gathered active iterates, `m x n` each (Cholesky family input).
    xg: BatchedDense<S>,
    /// `X T^H` staging, `m x n`.
    w1: BatchedDense<S>,
    /// Cholesky-family results `Y = X T^H T`, `m x n`.
    yc: BatchedDense<S>,
    /// Gram matrices `G = X^H X`, then in place `Z = I + c G` and its
    /// Cholesky factor, `n x n`.
    g: BatchedDense<S>,
    /// Explicit inverses `T = L^{-1}`, `n x n`.
    t: BatchedDense<S>,
    /// QR-family `Q1` blocks, `m x n`.
    q1: BatchedDense<S>,
    /// QR-family `Q2` blocks, `n x n`.
    q2: BatchedDense<S>,
    /// QR-family results `Y = Q1 Q2^H`, `m x n`.
    yq: BatchedDense<S>,
    /// Per-entry stacked `[sqrt(c) X; I]` workspaces, `(m+n) x n`.
    wq: Vec<Matrix<S>>,
}

impl<S: Scalar> BatchArena<S> {
    fn new() -> Self {
        let empty = || BatchedDense::zeros(0, 0, 0);
        Self {
            xg: empty(),
            w1: empty(),
            yc: empty(),
            g: empty(),
            t: empty(),
            q1: empty(),
            q2: empty(),
            yq: empty(),
            wq: Vec::new(),
        }
    }

    fn ensure_chol(&mut self, m: usize, n: usize, batch: usize) {
        if self.g.batch() < batch || self.g.nrows() != n || self.xg.nrows() != m {
            self.xg = BatchedDense::zeros(m, n, batch);
            self.w1 = BatchedDense::zeros(m, n, batch);
            self.yc = BatchedDense::zeros(m, n, batch);
            self.g = BatchedDense::zeros(n, n, batch);
            self.t = BatchedDense::zeros(n, n, batch);
        }
    }

    fn ensure_qr(&mut self, m: usize, n: usize, count: usize) {
        if self.q1.batch() < count || self.q1.nrows() != m || self.q2.nrows() != n {
            let cap = count.max(self.q1.batch());
            self.q1 = BatchedDense::zeros(m, n, cap);
            self.q2 = BatchedDense::zeros(n, n, cap);
            self.yq = BatchedDense::zeros(m, n, cap);
        }
        if self.wq.first().is_some_and(|w| w.nrows() != m + n || w.ncols() != n) {
            self.wq.clear();
        }
        while self.wq.len() < count {
            self.wq.push(Matrix::zeros(m + n, n));
        }
    }
}

/// The big per-call slabs: the packed `A` copy, the iterate batch `X`,
/// the per-entry-path `Y` scratch, the `H` epilogue batch, and the
/// batch-major arena.
struct SlabCache<S: Scalar> {
    ab: BatchedDense<S>,
    x: BatchedDense<S>,
    y: BatchedDense<S>,
    hb: BatchedDense<S>,
    arena: BatchArena<S>,
}

fn slab_bytes<S: Scalar>(bd: &BatchedDense<S>) -> usize {
    bd.nrows() * bd.ncols() * bd.batch() * std::mem::size_of::<S>()
}

impl<S: Scalar> SlabCache<S> {
    fn new() -> Self {
        let empty = || BatchedDense::zeros(0, 0, 0);
        Self { ab: empty(), x: empty(), y: empty(), hb: empty(), arena: BatchArena::new() }
    }

    fn bytes(&self) -> usize {
        let a = &self.arena;
        slab_bytes(&self.ab)
            + slab_bytes(&self.x)
            + slab_bytes(&self.y)
            + slab_bytes(&self.hb)
            + slab_bytes(&a.xg)
            + slab_bytes(&a.w1)
            + slab_bytes(&a.yc)
            + slab_bytes(&a.g)
            + slab_bytes(&a.t)
            + slab_bytes(&a.q1)
            + slab_bytes(&a.q2)
            + slab_bytes(&a.yq)
            + a.wq.iter().map(|w| w.nrows() * w.ncols() * std::mem::size_of::<S>()).sum::<usize>()
    }
}

/// Reallocate only on shape change; a serving stream of same-shape
/// batches reuses the previous call's pages.
fn ensure_slab<S: Scalar>(bd: &mut BatchedDense<S>, m: usize, n: usize, batch: usize) {
    if bd.nrows() != m || bd.ncols() != n || bd.batch() != batch {
        *bd = BatchedDense::zeros(m, n, batch);
    }
}

/// Serving streams call [`qdwh_batched`] over and over with one shape;
/// reallocating ~10 MB of zeroed slabs per call costs more in page
/// faults than whole rounds of kernel work at serving sizes. Each
/// thread keeps its last call's slabs and reuses them when the shape
/// matches. Every slab entry that is read is fully written first (Gram,
/// GEMM-with-beta-0, full gathers, `trtri`'s full-triangle writes), so
/// reuse never leaks values between calls; error paths drop the slabs
/// instead of recaching them, and oversized calls are never cached.
const SLAB_CACHE_MAX_BYTES: usize = 32 << 20;

thread_local! {
    static SLAB_CACHE: std::cell::RefCell<
        std::collections::HashMap<std::any::TypeId, Box<dyn std::any::Any>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

fn slab_cache_take<S: Scalar>() -> SlabCache<S> {
    SLAB_CACHE.with(|c| {
        c.borrow_mut()
            .remove(&std::any::TypeId::of::<SlabCache<S>>())
            .and_then(|b| b.downcast::<SlabCache<S>>().ok())
            .map(|b| *b)
            .unwrap_or_else(SlabCache::new)
    })
}

fn slab_cache_put<S: Scalar>(cache: SlabCache<S>) {
    if cache.bytes() <= SLAB_CACHE_MAX_BYTES {
        SLAB_CACHE.with(|c| {
            c.borrow_mut().insert(std::any::TypeId::of::<SlabCache<S>>(), Box::new(cache));
        });
    }
}

impl<S: Scalar> BatchPtr<S> {
    fn new(b: &mut BatchedDense<S>) -> Self {
        Self { data: b.as_mut_slice().as_mut_ptr(), rows: b.nrows(), cols: b.ncols() }
    }

    /// # Safety
    /// Same contract as [`BatchPtr::mat`], extended over entries
    /// `0..count`.
    unsafe fn batched<'x>(&self, count: usize) -> BatchedRef<'x, S> {
        let per = self.rows * self.cols;
        BatchedRef::from_slice(
            std::slice::from_raw_parts(self.data, per * count),
            self.rows,
            self.cols,
            count,
        )
    }

    /// # Safety
    /// Same contract as [`BatchPtr::mat_mut`], extended over entries
    /// `0..count`.
    unsafe fn batched_mut<'x>(&self, count: usize) -> BatchedMut<'x, S> {
        let per = self.rows * self.cols;
        BatchedMut::from_slice(
            std::slice::from_raw_parts_mut(self.data, per * count),
            self.rows,
            self.cols,
            count,
        )
    }

    /// # Safety
    /// DAG dependencies must guarantee no task holds a `&mut` to entry
    /// `k` concurrently (entry `k` is in this task's read set).
    unsafe fn mat<'x>(&self, k: usize) -> MatRef<'x, S> {
        let per = self.rows * self.cols;
        MatRef::from_slice(
            std::slice::from_raw_parts(self.data.add(k * per), per),
            self.rows,
            self.cols,
            self.rows,
        )
    }

    /// # Safety
    /// DAG dependencies must guarantee exclusive access to entry `k`
    /// (entry `k` is in this task's write set).
    unsafe fn mat_mut<'x>(&self, k: usize) -> MatMut<'x, S> {
        let per = self.rows * self.cols;
        MatMut::from_slice(
            std::slice::from_raw_parts_mut(self.data.add(k * per), per),
            self.rows,
            self.cols,
            self.rows,
        )
    }

    /// # Safety
    /// Same contract as [`BatchPtr::mat`].
    unsafe fn slice<'x>(&self, k: usize) -> &'x [S] {
        let per = self.rows * self.cols;
        std::slice::from_raw_parts(self.data.add(k * per), per)
    }

    /// # Safety
    /// Same contract as [`BatchPtr::mat_mut`].
    unsafe fn slice_mut<'x>(&self, k: usize) -> &'x mut [S] {
        let per = self.rows * self.cols;
        std::slice::from_raw_parts_mut(self.data.add(k * per), per)
    }
}

/// Per-entry output slots written by DAG tasks (each task writes only its
/// own index; indices are disjoint by construction).
struct SlotsPtr<T> {
    data: *mut T,
}

impl<T> Clone for SlotsPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotsPtr<T> {}
unsafe impl<T: Send> Send for SlotsPtr<T> {}
unsafe impl<T: Send> Sync for SlotsPtr<T> {}

impl<T> SlotsPtr<T> {
    fn new(v: &mut [T]) -> Self {
        Self { data: v.as_mut_ptr() }
    }

    /// # Safety
    /// Only the task owning index `k` may write it; no concurrent reads.
    unsafe fn set(&self, k: usize, value: T) {
        *self.data.add(k) = value;
    }

    /// # Safety
    /// Same exclusivity contract as [`SlotsPtr::set`].
    unsafe fn get_mut<'x>(&self, k: usize) -> &'x mut T {
        &mut *self.data.add(k)
    }
}

/// What the prologue task computed for one entry.
#[derive(Clone, Copy)]
struct Prologue<R> {
    alpha: R,
    /// Freshly computed `l_0` (pre-clamp strategies applied), `None` when
    /// the entry used an override / cached bound or is the zero matrix.
    computed_l0: Option<R>,
}

/// Running per-entry iteration state.
struct EntryState<R: Real> {
    ell: R,
    conv: R,
    done: bool,
    info: QdwhInfo<R>,
}

/// QDWH polar decomposition of a same-shape batch: `A_k = U_k H_k` for
/// every entry, results stored back into the entries, one
/// [`QdwhInfo`] per entry returned in order.
///
/// See the module docs for the execution model. Numerical behavior per
/// entry matches [`polar_qdwh::qdwh`] with the same [`QdwhOptions`]
/// (byte-identical under `POLAR_DETERMINISTIC=1` when
/// [`BatchOptions::fast_scale`] is off and no cache is shared).
pub fn qdwh_batched<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    opts: &BatchOptions,
) -> Result<Vec<QdwhInfo<S::Real>>, BatchError> {
    let batch = entries.len();
    if batch == 0 {
        return Ok(Vec::new());
    }
    let m = entries[0].a.nrows();
    let n = entries[0].a.ncols();
    let _span = polar_obs::span!("qdwh_batched", batch, n);
    for (k, e) in entries.iter().enumerate() {
        let got = (e.a.nrows(), e.a.ncols());
        if got != (m, n) {
            return Err(BatchError::MixedShapes { index: k, expected: (m, n), got });
        }
    }
    if m < n {
        return Err(BatchError::Shape("qdwh_batched requires m >= n"));
    }
    if n == 0 {
        for e in entries.iter_mut() {
            e.u = Matrix::zeros(m, 0);
            e.h = Matrix::zeros(0, 0);
        }
        return Ok((0..batch).map(|_| empty_info()).collect());
    }
    for (k, e) in entries.iter().enumerate() {
        if e.a.has_non_finite() {
            return Err(BatchError::Entry {
                index: k,
                source: QdwhError::NonFinite { iteration: 0 },
            });
        }
    }

    let eps = S::Real::EPSILON;
    let five_eps = S::Real::from_f64(5.0) * eps;
    let conv_tol = five_eps.cbrt();
    let entry_bytes = (m * n * std::mem::size_of::<S>()) as u64;
    let tf = polar_blas::flops::type_factor(S::IS_COMPLEX);

    // ---- pack: A and the iterate batch (thread-cached slabs) ----
    let use_batch_major = batch_major_enabled(batch, n);
    let mut slabs = slab_cache_take::<S>();
    ensure_slab(&mut slabs.ab, m, n, batch);
    let mut a_batch = std::mem::replace(&mut slabs.ab, BatchedDense::zeros(0, 0, 0));
    for (k, e) in entries.iter().enumerate() {
        a_batch.set_entry(k, &e.a);
    }
    ensure_slab(&mut slabs.x, m, n, batch);
    let mut x = std::mem::replace(&mut slabs.x, BatchedDense::zeros(0, 0, 0));
    // per-entry factor scratch `Y` (Q1 Q2^H or X Z^{-1}), reused each round;
    // the batch-major path keeps its results in the arena slabs instead
    if use_batch_major {
        ensure_slab(&mut slabs.y, 0, 0, 0);
    } else {
        ensure_slab(&mut slabs.y, m, n, batch);
    }
    let mut y = std::mem::replace(&mut slabs.y, BatchedDense::zeros(0, 0, 0));
    // batch-major workspace, family slabs allocated on first use and then
    // reused by every later round of this call (and across calls, via the
    // thread-local slab cache)
    let mut arena = std::mem::replace(&mut slabs.arena, BatchArena::new());

    // ---- resolve per-entry l0 sources against the cache, batch-start ----
    // Lookups run against the cache as of batch start and folds happen
    // sequentially after the prologue DAG, so results never depend on the
    // pool's task interleaving.
    let l0_strategy = match opts.qdwh.l0_strategy {
        L0Strategy::LuFormula => L0Strategy::PaperFormula,
        s => s,
    };
    let hinted: Vec<bool> = entries.iter().map(|e| e.cond_hint.is_some()).collect();
    let mut preset_l0: Vec<Option<S::Real>> = vec![None; batch];
    let mut fold_keys: Vec<Option<CondestKey>> = vec![None; batch];
    for (k, e) in entries.iter().enumerate() {
        if let Some(v) = opts.qdwh.l0_override {
            preset_l0[k] = Some(S::Real::from_f64(v));
            continue;
        }
        let class = cond_class(e.cond_hint);
        let key = CondestKey { n, type_tag: S::TYPE_TAG, class };
        if let Some(cache) = &opts.condest_cache {
            if class != crate::cache::UNHINTED_CLASS {
                if let Some(cached) = cache.lookup(key) {
                    preset_l0[k] = Some(S::Real::from_f64(cached));
                    continue;
                }
            }
            fold_keys[k] = Some(key);
        }
    }

    // ---- prologue DAG: scale + condition-estimate every entry ----
    let mut prologue: Vec<Prologue<S::Real>> =
        vec![Prologue { alpha: S::Real::ZERO, computed_l0: None }; batch];
    {
        let mut dag = TaskDag::new();
        let mx = dag.new_matrix();
        let xp = BatchPtr::new(&mut x);
        let pp = SlotsPtr::new(&mut prologue);
        let fast_scale = opts.fast_scale;
        // chunked like the round tasks: at most ~2 prologue tasks per
        // pool worker (per-entry norms are a few microseconds on the
        // warm-cache path — task overhead would dominate them)
        let workers = rayon::current_num_threads().max(1);
        let step = batch.div_ceil((2 * workers).min(batch).max(1));
        for lo in (0..batch).step_by(step) {
            let hi = (lo + step).min(batch);
            let chunk: Vec<(usize, &Matrix<S>, bool)> = entries[lo..hi]
                .iter()
                .enumerate()
                .map(|(d, e)| (lo + d, &e.a, preset_l0[lo + d].is_none()))
                .collect();
            let prologue_flops: f64 = chunk
                .iter()
                .map(|&(_, _, need_l0)| {
                    tf * 2.0 * (m * n) as f64
                        + if need_l0 { tf * polar_blas::flops::geqrf(m, n) } else { 0.0 }
                })
                .sum();
            let writes: Vec<TileRef> =
                chunk.iter().map(|&(k, _, _)| TileRef::new(mx, k, 0, entry_bytes)).collect();
            dag.add(KernelKind::Norm, 1, prologue_flops, Vec::new(), writes, move || {
                for &(k, a_ref, need_l0) in &chunk {
                    let alpha = if fast_scale {
                        let n1: S::Real = norm(Norm::One, a_ref.as_ref());
                        let ni: S::Real = norm(Norm::Inf, a_ref.as_ref());
                        (n1 * ni).sqrt()
                    } else {
                        norm2est(a_ref).estimate
                    };
                    if alpha == S::Real::ZERO {
                        // the slab may hold a previous call's iterate;
                        // the H epilogue reads every entry of X
                        unsafe { xp.slice_mut(k) }.fill(S::ZERO);
                        unsafe { pp.set(k, Prologue { alpha, computed_l0: None }) };
                        continue;
                    }
                    // X_k := A_k / alpha
                    let inv = alpha.recip();
                    let xk = unsafe { xp.slice_mut(k) };
                    for (xi, ai) in xk.iter_mut().zip(a_ref.as_slice()) {
                        *xi = *ai * S::from_real(inv);
                    }
                    let computed_l0 = need_l0.then(|| {
                        let mut w1 = unsafe { xp.mat(k) }.to_owned();
                        let _f = geqrf(&mut w1);
                        let raw = match l0_strategy {
                            L0Strategy::SigmaMinPowerIteration => {
                                tr_sigma_min_est(&w1) * S::Real::from_f64(0.9)
                            }
                            _ => {
                                let rcond = trcondest(&w1);
                                let anorm: S::Real = norm(Norm::One, unsafe { xp.mat(k) });
                                anorm * rcond / S::Real::from_usize(n).sqrt()
                            }
                        };
                        raw.max(eps * eps).min(S::Real::ONE - eps)
                    });
                    unsafe { pp.set(k, Prologue { alpha, computed_l0 }) };
                }
            });
        }
        dag.execute();
    }
    // deterministic cache fold, in entry order
    if let Some(cache) = &opts.condest_cache {
        for k in 0..batch {
            if let (Some(key), Some(l0)) = (fold_keys[k], prologue[k].computed_l0) {
                cache.fold_min(key, l0.to_f64());
            }
        }
    }

    // ---- per-entry iteration state ----
    let mut states: Vec<EntryState<S::Real>> = (0..batch)
        .map(|k| {
            let p = prologue[k];
            if p.alpha == S::Real::ZERO {
                // zero matrix: U = leading identity block, H = 0, no work
                EntryState {
                    ell: S::Real::ONE,
                    conv: S::Real::ZERO,
                    done: true,
                    info: empty_info(),
                }
            } else {
                let l0 = preset_l0[k].or(p.computed_l0).expect("l0 resolved");
                let mut info = empty_info();
                info.alpha = p.alpha;
                info.l0 = l0;
                EntryState { ell: l0, conv: S::Real::from_f64(100.0), done: false, info }
            }
        })
        .collect();

    // ---- the fused Halley rounds ----
    let mut conv_slots: Vec<S::Real> = vec![S::Real::ZERO; batch];
    let mut err_slots: Vec<Option<QdwhError>> = vec![None; batch];
    let mut round = 0usize;
    while states.iter().any(|s| !s.done) {
        round += 1;
        for (k, s) in states.iter().enumerate() {
            if !s.done && s.info.iterations >= opts.qdwh.max_iterations {
                return Err(BatchError::Entry {
                    index: k,
                    source: QdwhError::NoConvergence { iterations: s.info.iterations },
                });
            }
        }

        // plan: per-entry weights and family, before touching any data
        struct Plan<R> {
            k: usize,
            use_qr: bool,
            ell_next: R,
            c: R,
            theta: R,
            beta: R,
        }
        let plans: Vec<Plan<S::Real>> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(k, s)| {
                let p = halley_parameters(s.ell);
                // hinted entries opted into the extended Cholesky window
                // (see [`BatchOptions::hinted_qr_switch_threshold`]); the
                // stability bound depends only on the realized c, never on
                // the hint's truthfulness, so no validation is needed here
                let switch = if hinted[k] {
                    (1e-4 / S::Real::EPSILON.to_f64())
                        .min(opts.hinted_qr_switch_threshold)
                        .max(opts.qdwh.qr_switch_threshold)
                } else {
                    opts.qdwh.qr_switch_threshold
                };
                let use_qr = match opts.qdwh.path {
                    IterationPath::Auto => p.c.to_f64() > switch,
                    IterationPath::ForceQr => true,
                    IterationPath::ForceCholesky => false,
                };
                let beta = p.b / p.c;
                let theta = if use_qr { (p.a - beta) / p.c.sqrt() } else { p.a - beta };
                Plan { k, use_qr, ell_next: update_ell(s.ell, p), c: p.c, theta, beta }
            })
            .collect();

        let active = plans.len();
        let round_start = std::time::Instant::now();
        let _iter_span = polar_obs::span!("qdwh_batched_iter", round, active);

        let mut dag = TaskDag::new();
        let mx = dag.new_matrix();
        let xp = BatchPtr::new(&mut x);
        let cp = SlotsPtr::new(&mut conv_slots);
        let ep = SlotsPtr::new(&mut err_slots);
        let exploit = opts.qdwh.exploit_structure;
        if use_batch_major {
            // ---- batch-major round ----
            //
            // The active entries split by iteration family; each family's
            // GEMM-shaped work runs as ONE batch-spanning task over compact
            // arena slabs (gathered prefix), through
            // [`gemm_batched_packed`]'s single pack sweep. Only the
            // factorizations (`potrf` + `trtri`, or the stacked QR) stay
            // per-entry — they are inherently per-matrix and run as
            // parallel DAG tasks on disjoint slab entries. The Cholesky
            // family applies `Z^{-1}` through the explicit inverse
            // `T = L^{-1}` (two batched GEMMs) instead of two per-entry
            // substitution-kernel `trsm`s.
            let ma = dag.new_matrix();
            let chol_plans: Vec<&Plan<S::Real>> = plans.iter().filter(|p| !p.use_qr).collect();
            let qr_plans: Vec<&Plan<S::Real>> = plans.iter().filter(|p| p.use_qr).collect();
            if !chol_plans.is_empty() {
                arena.ensure_chol(m, n, batch);
            }
            if !qr_plans.is_empty() {
                arena.ensure_qr(m, n, qr_plans.len());
            }
            let xgp = BatchPtr::new(&mut arena.xg);
            let w1p = BatchPtr::new(&mut arena.w1);
            let ycp = BatchPtr::new(&mut arena.yc);
            let gp = BatchPtr::new(&mut arena.g);
            let tp = BatchPtr::new(&mut arena.t);
            let q1p = BatchPtr::new(&mut arena.q1);
            let q2p = BatchPtr::new(&mut arena.q2);
            let yqp = BatchPtr::new(&mut arena.yq);
            let wqp = SlotsPtr::new(&mut arena.wq);
            let g_tile = |i| TileRef::new(ma, i, 0, entry_bytes);
            let t_tile = |i| TileRef::new(ma, i, 1, entry_bytes);
            let yc_tile = |i| TileRef::new(ma, i, 2, entry_bytes);
            let xg_tile = |i| TileRef::new(ma, i, 3, entry_bytes);
            let q1_tile = |i| TileRef::new(ma, i, 4, entry_bytes);
            let q2_tile = |i| TileRef::new(ma, i, 5, entry_bytes);
            let yq_tile = |i| TileRef::new(ma, i, 6, entry_bytes);
            // Per-entry work inside a batch-major round is tiny (a few
            // tens of microseconds at serving sizes), so one DAG task per
            // entry would drown in spawn/sync overhead — especially on a
            // single-worker pool, where the round is purely sequential
            // anyway. Chunk per-entry tasks so the round emits at most
            // ~2 tasks per pool worker: full parallelism headroom on
            // multicore, near-zero task overhead on one core.
            let chunks_of = |cnt: usize| -> Vec<(usize, usize)> {
                let workers = rayon::current_num_threads().max(1);
                let step = cnt.div_ceil((2 * workers).min(cnt).max(1));
                (0..cnt).step_by(step).map(|lo| (lo, (lo + step).min(cnt))).collect()
            };
            // scatter-update: X_k := theta Y_i + beta X_k fused with the
            // convergence norm, compact slab entries -> batch entries
            let scatter_update =
                |dag: &mut TaskDag<'_>,
                 src: BatchPtr<S>,
                 reads: Vec<TileRef>,
                 specs: Vec<(usize, usize, S::Real, S::Real)>| {
                    let flops = tf * 3.0 * (m * n) as f64 * specs.len() as f64;
                    let writes: Vec<TileRef> = specs
                        .iter()
                        .map(|&(_, k, _, _)| TileRef::new(mx, k, 0, entry_bytes))
                        .collect();
                    dag.add(KernelKind::Geadd, 0, flops, reads, writes, move || {
                        for &(i, k, theta, beta) in &specs {
                            let th = S::from_real(theta);
                            let be = S::from_real(beta);
                            let yk = unsafe { src.slice(i) };
                            let xk = unsafe { xp.slice_mut(k) };
                            let mut acc = S::Real::ZERO;
                            for (xi, yi) in xk.iter_mut().zip(yk) {
                                let old = *xi;
                                let new = *yi * th + old * be;
                                acc += (new - old).abs_sq();
                                *xi = new;
                            }
                            unsafe { cp.set(k, acc.sqrt()) };
                        }
                    });
                };
            if !chol_plans.is_empty() {
                let cnt = chol_plans.len();
                let gather: Vec<(usize, usize)> =
                    chol_plans.iter().enumerate().map(|(i, p)| (i, p.k)).collect();
                // gather + one batched Gram sweep: G_i = X_i^H X_i
                let reads: Vec<TileRef> =
                    gather.iter().map(|&(_, k)| TileRef::new(mx, k, 0, entry_bytes)).collect();
                let writes: Vec<TileRef> = (0..cnt).flat_map(|i| [xg_tile(i), g_tile(i)]).collect();
                dag.add(
                    KernelKind::Gemm,
                    1,
                    tf * cnt as f64 * polar_blas::flops::gemm(n, n, m),
                    reads,
                    writes,
                    move || {
                        for &(i, k) in &gather {
                            unsafe { xgp.slice_mut(i) }.copy_from_slice(unsafe { xp.slice(k) });
                        }
                        let xg = unsafe { xgp.batched(cnt) };
                        gemm_batched_packed(
                            Op::ConjTrans,
                            Op::NoTrans,
                            S::ONE,
                            xg,
                            xg,
                            S::ZERO,
                            unsafe { gp.batched_mut(cnt) },
                        );
                    },
                );
                // chunked per-entry work: Z = I + c G in place, factor, invert
                for (lo, hi) in chunks_of(cnt) {
                    let specs: Vec<(usize, usize, S::Real)> = chol_plans[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(d, p)| (lo + d, p.k, p.c))
                        .collect();
                    let writes: Vec<TileRef> =
                        (lo..hi).flat_map(|i| [g_tile(i), t_tile(i)]).collect();
                    dag.add_task(
                        KernelKind::Potrf,
                        1,
                        tf * 2.0 * polar_blas::flops::potrf(n) * specs.len() as f64,
                        Vec::new(),
                        writes,
                        move || {
                            for &(i, k, c) in &specs {
                                {
                                    // only the lower triangle feeds potrf
                                    let zs = unsafe { gp.slice_mut(i) };
                                    let cs = S::from_real(c);
                                    for j in 0..n {
                                        let col = &mut zs[j * n..(j + 1) * n];
                                        for v in col.iter_mut().skip(j) {
                                            *v *= cs;
                                        }
                                        col[j] += S::ONE;
                                    }
                                }
                                if let Err(e) = potrf_in(Uplo::Lower, unsafe { gp.mat_mut(i) }) {
                                    unsafe { ep.set(k, Some(QdwhError::Lapack(e))) };
                                    return TaskStatus::Cancel;
                                }
                                // an explicit inverse where a solve would be:
                                // kappa(Z) <= 1 + c, see polar_lapack's tri.rs
                                if let Err(e) =
                                    trtri_lower(unsafe { gp.mat(i) }, unsafe { tp.mat_mut(i) })
                                {
                                    unsafe { ep.set(k, Some(QdwhError::Lapack(e))) };
                                    return TaskStatus::Cancel;
                                }
                            }
                            TaskStatus::Continue
                        },
                    );
                }
                // two batched sweeps: Y = (X T^H) T = X L^{-H} L^{-1}
                let reads: Vec<TileRef> = (0..cnt).flat_map(|i| [xg_tile(i), t_tile(i)]).collect();
                let writes: Vec<TileRef> = (0..cnt).map(yc_tile).collect();
                dag.add(
                    KernelKind::Gemm,
                    1,
                    tf * cnt as f64 * 2.0 * polar_blas::flops::gemm(m, n, n),
                    reads,
                    writes,
                    move || {
                        let t = unsafe { tp.batched(cnt) };
                        gemm_batched_packed(
                            Op::NoTrans,
                            Op::ConjTrans,
                            S::ONE,
                            unsafe { xgp.batched(cnt) },
                            t,
                            S::ZERO,
                            unsafe { w1p.batched_mut(cnt) },
                        );
                        gemm_batched_packed(
                            Op::NoTrans,
                            Op::NoTrans,
                            S::ONE,
                            unsafe { w1p.batched(cnt) },
                            t,
                            S::ZERO,
                            unsafe { ycp.batched_mut(cnt) },
                        );
                    },
                );
                for (lo, hi) in chunks_of(cnt) {
                    let reads: Vec<TileRef> = (lo..hi).map(yc_tile).collect();
                    let specs: Vec<(usize, usize, S::Real, S::Real)> = chol_plans[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(d, p)| (lo + d, p.k, p.theta, p.beta))
                        .collect();
                    scatter_update(&mut dag, ycp, reads, specs);
                }
            }
            if !qr_plans.is_empty() {
                let cnt = qr_plans.len();
                // chunked per-entry stacked QR into the Q1/Q2 slabs
                for (lo, hi) in chunks_of(cnt) {
                    let specs: Vec<(usize, usize, S::Real)> = qr_plans[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(d, p)| (lo + d, p.k, p.c.sqrt()))
                        .collect();
                    let flops = tf
                        * (polar_blas::flops::geqrf(m + n, n) + polar_blas::flops::orgqr(m + n, n))
                        * specs.len() as f64;
                    let reads: Vec<TileRef> = specs
                        .iter()
                        .map(|&(_, k, _)| TileRef::new(mx, k, 0, entry_bytes))
                        .collect();
                    let writes: Vec<TileRef> =
                        (lo..hi).flat_map(|i| [q1_tile(i), q2_tile(i)]).collect();
                    dag.add(KernelKind::Geqrt, 1, flops, reads, writes, move || {
                        for &(i, k, sqrt_c) in &specs {
                            let xk = unsafe { xp.mat(k) };
                            let sc = S::from_real(sqrt_c);
                            let w = unsafe { wqp.get_mut(i) };
                            // W = [sqrt(c) X_k; I], fully rewritten (reused)
                            for j in 0..n {
                                for r in 0..m {
                                    w[(r, j)] = xk.at(r, j) * sc;
                                }
                                for r in 0..n {
                                    w[(m + r, j)] = if r == j { S::ONE } else { S::ZERO };
                                }
                            }
                            let f = if exploit { geqrf_stacked(m, w) } else { geqrf(w) };
                            let q = orgqr(w, &f);
                            let q1s = unsafe { q1p.slice_mut(i) };
                            let q2s = unsafe { q2p.slice_mut(i) };
                            for j in 0..n {
                                let col = q.as_ref().col(j);
                                q1s[j * m..(j + 1) * m].copy_from_slice(&col[..m]);
                                q2s[j * n..(j + 1) * n].copy_from_slice(&col[m..]);
                            }
                        }
                    });
                }
                // one batched sweep: Y = Q1 Q2^H
                let reads: Vec<TileRef> = (0..cnt).flat_map(|i| [q1_tile(i), q2_tile(i)]).collect();
                let writes: Vec<TileRef> = (0..cnt).map(yq_tile).collect();
                dag.add(
                    KernelKind::Gemm,
                    1,
                    tf * cnt as f64 * polar_blas::flops::gemm(m, n, n),
                    reads,
                    writes,
                    move || {
                        gemm_batched_packed(
                            Op::NoTrans,
                            Op::ConjTrans,
                            S::ONE,
                            unsafe { q1p.batched(cnt) },
                            unsafe { q2p.batched(cnt) },
                            S::ZERO,
                            unsafe { yqp.batched_mut(cnt) },
                        );
                    },
                );
                for (lo, hi) in chunks_of(cnt) {
                    let reads: Vec<TileRef> = (lo..hi).map(yq_tile).collect();
                    let specs: Vec<(usize, usize, S::Real, S::Real)> = qr_plans[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(d, p)| (lo + d, p.k, p.theta, p.beta))
                        .collect();
                    scatter_update(&mut dag, yqp, reads, specs);
                }
            }
            dag.execute();
        } else {
            let yp = BatchPtr::new(&mut y);
            for plan in &plans {
                let k = plan.k;
                let x_tile = TileRef::new(mx, k, 0, entry_bytes);
                let y_tile = TileRef::new(mx, k, 1, entry_bytes);
                // factor task: Y_k := Q1 Q2^H (QR family) or X_k Z^{-1} (Cholesky)
                if plan.use_qr {
                    let sqrt_c = plan.c.sqrt();
                    let flops = tf
                        * (polar_blas::flops::geqrf(m + n, n)
                            + polar_blas::flops::orgqr(m + n, n)
                            + polar_blas::flops::gemm(m, n, n));
                    dag.add(KernelKind::Geqrt, 1, flops, vec![x_tile], vec![y_tile], move || {
                        let xk = unsafe { xp.mat(k) };
                        let sc = S::from_real(sqrt_c);
                        // W = [sqrt(c) X_k; I]
                        let mut w = Matrix::<S>::zeros(m + n, n);
                        for j in 0..n {
                            for i in 0..m {
                                w[(i, j)] = xk.at(i, j) * sc;
                            }
                            w[(m + j, j)] = S::ONE;
                        }
                        let f = if exploit { geqrf_stacked(m, &mut w) } else { geqrf(&mut w) };
                        let q = orgqr(&w, &f);
                        let q1 = q.submatrix_owned(0, 0, m, n);
                        let q2 = q.submatrix_owned(m, 0, n, n);
                        gemm(
                            Op::NoTrans,
                            Op::ConjTrans,
                            S::ONE,
                            q1.as_ref(),
                            q2.as_ref(),
                            S::ZERO,
                            unsafe { yp.mat_mut(k) },
                        );
                    });
                } else {
                    let c = plan.c;
                    let flops = tf
                        * (polar_blas::flops::herk(n, m)
                            + polar_blas::flops::potrf(n)
                            + 2.0 * polar_blas::flops::trsm_right(m, n));
                    dag.add_task(
                        KernelKind::Potrf,
                        1,
                        flops,
                        vec![x_tile],
                        vec![y_tile],
                        move || {
                            let xk = unsafe { xp.mat(k) };
                            // Z = I + c X^H X
                            let mut z = Matrix::<S>::identity(n, n);
                            herk(Uplo::Lower, Op::ConjTrans, c, xk, S::Real::ONE, z.as_mut());
                            if let Err(e) = potrf(Uplo::Lower, &mut z) {
                                unsafe { ep.set(k, Some(QdwhError::Lapack(e))) };
                                return TaskStatus::Cancel;
                            }
                            // Y := X L^{-H} L^{-1}
                            let yk = unsafe { yp.slice_mut(k) };
                            yk.copy_from_slice(unsafe { xp.slice(k) });
                            for pass in [Op::ConjTrans, Op::NoTrans] {
                                trsm(
                                    Side::Right,
                                    Uplo::Lower,
                                    pass,
                                    Diag::NonUnit,
                                    S::ONE,
                                    z.as_ref(),
                                    unsafe { yp.mat_mut(k) },
                                );
                            }
                            TaskStatus::Continue
                        },
                    );
                }
                // update task: X_k := theta Y_k + beta X_k, fused with the
                // ||X_k - X_{k-1}||_F convergence reduction (X still holds the
                // previous iterate when this runs)
                let th = S::from_real(plan.theta);
                let be = S::from_real(plan.beta);
                dag.add(
                    KernelKind::Geadd,
                    0,
                    tf * 3.0 * (m * n) as f64,
                    vec![y_tile],
                    vec![x_tile],
                    move || {
                        let yk = unsafe { yp.slice(k) };
                        let xk = unsafe { xp.slice_mut(k) };
                        let mut acc = S::Real::ZERO;
                        for (xi, yi) in xk.iter_mut().zip(yk) {
                            let old = *xi;
                            let new = *yi * th + old * be;
                            acc += (new - old).abs_sq();
                            *xi = new;
                        }
                        unsafe { cp.set(k, acc.sqrt()) };
                    },
                );
            }
            dag.execute();
        }

        if let Some(k) = err_slots.iter().position(|e| e.is_some()) {
            let source = err_slots[k].clone().expect("error recorded");
            return Err(BatchError::Entry { index: k, source });
        }

        let secs = round_start.elapsed().as_secs_f64();
        for plan in &plans {
            let k = plan.k;
            if x.entry_slice(k).iter().any(|v| !v.is_finite()) {
                return Err(BatchError::Entry {
                    index: k,
                    source: QdwhError::NonFinite { iteration: states[k].info.iterations + 1 },
                });
            }
            let s = &mut states[k];
            s.ell = plan.ell_next;
            s.conv = conv_slots[k];
            let kind =
                if plan.use_qr { IterationKind::QrBased } else { IterationKind::CholeskyBased };
            s.info.iterations += 1;
            match kind {
                IterationKind::QrBased => s.info.qr_iterations += 1,
                IterationKind::CholeskyBased => s.info.chol_iterations += 1,
            }
            s.info.kinds.push(kind);
            // seconds is the fused round's wall time (shared by every
            // active entry); per-entry kernel splits are not separable
            // inside one fused graph, so the snapshot stays zeroed.
            s.info.records.push(IterationRecord {
                iteration: s.info.iterations,
                kind,
                ell: s.ell,
                convergence: s.conv,
                seconds: secs,
                kernels: Default::default(),
            });
            s.done = s.conv < conv_tol && (s.ell - S::Real::ONE).abs() < five_eps;
        }
    }

    // ---- epilogue: flops model, fused H = U^H A, unpack ----
    let nf = n as f64;
    for s in states.iter_mut() {
        if s.info.iterations > 0 {
            s.info.flops_estimate = tf
                * ((4.0 / 3.0) * nf.powi(3)
                    + (8.0 + 2.0 / 3.0) * nf.powi(3) * s.info.qr_iterations as f64
                    + (4.0 + 1.0 / 3.0) * nf.powi(3) * s.info.chol_iterations as f64
                    + 2.0 * nf.powi(3));
        }
    }
    if opts.qdwh.compute_h {
        ensure_slab(&mut slabs.hb, n, n, batch);
        let mut hb = std::mem::replace(&mut slabs.hb, BatchedDense::zeros(0, 0, 0));
        if use_batch_major {
            gemm_batched_packed(
                Op::ConjTrans,
                Op::NoTrans,
                S::ONE,
                x.as_batched_ref(),
                a_batch.as_batched_ref(),
                S::ZERO,
                hb.as_batched_mut(),
            );
        } else {
            gemm_batched(Op::ConjTrans, Op::NoTrans, S::ONE, &x, &a_batch, S::ZERO, &mut hb);
        }
        for (k, e) in entries.iter_mut().enumerate() {
            let mut h = hb.to_matrix(k);
            symmetrize(h.as_mut());
            e.h = h;
        }
        slabs.hb = hb;
    } else {
        for e in entries.iter_mut() {
            e.h = Matrix::zeros(0, 0);
        }
    }
    for (k, e) in entries.iter_mut().enumerate() {
        e.u = if prologue[k].alpha == S::Real::ZERO {
            Matrix::identity(m, n)
        } else {
            x.to_matrix(k)
        };
    }
    slabs.ab = a_batch;
    slabs.x = x;
    slabs.y = y;
    slabs.arena = arena;
    slab_cache_put(slabs);
    Ok(states.into_iter().map(|s| s.info).collect())
}

fn empty_info<R: Real>() -> QdwhInfo<R> {
    QdwhInfo {
        alpha: R::ZERO,
        l0: R::ZERO,
        iterations: 0,
        qr_iterations: 0,
        chol_iterations: 0,
        kinds: Vec::new(),
        records: Vec::new(),
        flops_estimate: 0.0,
        // the batched engine never takes the tile drivers (whole-batch
        // DAGs provide the parallelism instead)
        tiled_decision: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_gen::{generate, MatrixSpec};
    use polar_qdwh::orthogonality_error;
    use polar_scalar::Complex64;

    fn entries_from_specs<S: Scalar>(specs: &[MatrixSpec]) -> Vec<BatchEntry<S>> {
        specs.iter().map(|s| BatchEntry::new(generate::<S>(s).0)).collect()
    }

    #[test]
    fn batch_factors_are_accurate() {
        let specs: Vec<MatrixSpec> =
            (0..6).map(|k| MatrixSpec::ill_conditioned(48, 100 + k)).collect();
        let mut entries = entries_from_specs::<f64>(&specs);
        let infos = qdwh_batched(&mut entries, &BatchOptions::default()).expect("batch converged");
        assert_eq!(infos.len(), 6);
        for (e, info) in entries.iter().zip(&infos) {
            assert!(info.iterations >= 1 && info.iterations <= 8, "{}", info.iterations);
            let orth = orthogonality_error(&e.u);
            assert!(orth < 1e-12, "orthogonality {orth:e}");
            // backward error through the returned H
            let mut recon = e.a.clone();
            gemm(Op::NoTrans, Op::NoTrans, 1.0, e.u.as_ref(), e.h.as_ref(), -1.0, recon.as_mut());
            let berr: f64 = norm(Norm::Fro, recon.as_ref()) / norm(Norm::Fro, e.a.as_ref());
            assert!(berr < 1e-12, "backward error {berr:e}");
        }
    }

    #[test]
    fn complex_batch_converges() {
        let specs: Vec<MatrixSpec> =
            (0..3).map(|k| MatrixSpec::well_conditioned(24, 300 + k)).collect();
        let mut entries = entries_from_specs::<Complex64>(&specs);
        // fast_scale overestimates alpha (deflating l0), which can cost a
        // QR round; with the scalar path's power-iteration alpha the
        // well-conditioned profile is Cholesky-only, as in the paper
        let opts = BatchOptions { fast_scale: false, ..Default::default() };
        let infos = qdwh_batched(&mut entries, &opts).unwrap();
        for (e, info) in entries.iter().zip(&infos) {
            assert!(orthogonality_error(&e.u) < 1e-12);
            assert_eq!(info.qr_iterations, 0, "kinds: {:?}", info.kinds);
        }
    }

    #[test]
    fn mixed_shapes_rejected_with_typed_error() {
        let mut entries = vec![
            BatchEntry::new(Matrix::<f64>::identity(8, 8)),
            BatchEntry::new(Matrix::<f64>::identity(10, 8)),
        ];
        match qdwh_batched(&mut entries, &BatchOptions::default()) {
            Err(BatchError::MixedShapes { index: 1, expected: (8, 8), got: (10, 8) }) => {}
            other => panic!("expected MixedShapes, got {other:?}"),
        }
    }

    #[test]
    fn wide_batch_rejected() {
        let mut entries = vec![BatchEntry::new(Matrix::<f64>::zeros(3, 5))];
        assert!(matches!(
            qdwh_batched(&mut entries, &BatchOptions::default()),
            Err(BatchError::Shape(_))
        ));
    }

    #[test]
    fn non_finite_entry_identified() {
        let mut a = Matrix::<f64>::identity(6, 6);
        a[(2, 3)] = f64::INFINITY;
        let mut entries = vec![BatchEntry::new(Matrix::<f64>::identity(6, 6)), BatchEntry::new(a)];
        match qdwh_batched(&mut entries, &BatchOptions::default()) {
            Err(BatchError::Entry { index: 1, source: QdwhError::NonFinite { iteration: 0 } }) => {}
            other => panic!("expected per-entry NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_and_zero_entries() {
        let mut none: Vec<BatchEntry<f64>> = Vec::new();
        assert!(qdwh_batched(&mut none, &BatchOptions::default()).unwrap().is_empty());

        // a zero matrix inside an otherwise normal batch
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(12, 9));
        let mut entries =
            vec![BatchEntry::new(Matrix::<f64>::zeros(12, 12)), BatchEntry::new(a.clone())];
        let infos = qdwh_batched(&mut entries, &BatchOptions::default()).unwrap();
        assert_eq!(infos[0].iterations, 0);
        assert!(orthogonality_error(&entries[0].u) < 1e-15);
        let hz: f64 = norm(Norm::Fro, entries[0].h.as_ref());
        assert_eq!(hz, 0.0);
        assert!(orthogonality_error(&entries[1].u) < 1e-12);
    }

    #[test]
    fn condest_cache_shares_across_batches() {
        let cache = Arc::new(CondestCache::new());
        let opts = BatchOptions { condest_cache: Some(cache.clone()), ..Default::default() };
        let make = |seed_base: u64| -> Vec<BatchEntry<f64>> {
            (0..4)
                .map(|k| {
                    let (a, _) = generate::<f64>(&MatrixSpec {
                        m: 32,
                        n: 32,
                        cond: 1e6,
                        distribution: polar_gen::SigmaDistribution::Geometric,
                        seed: seed_base + k,
                    });
                    BatchEntry::with_cond_hint(a, 1e6)
                })
                .collect()
        };
        let mut first = make(10);
        qdwh_batched(&mut first, &opts).unwrap();
        // every first-batch entry missed, all folded into one key
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);
        let mut second = make(50);
        let infos = qdwh_batched(&mut second, &opts).unwrap();
        // the second batch consumes the shared bound: no fresh estimates
        assert_eq!(cache.hits(), 4);
        for (e, info) in second.iter().zip(&infos) {
            assert!(orthogonality_error(&e.u) < 1e-12);
            assert!(info.l0 > 0.0 && info.l0 < 1.0);
        }
    }

    #[test]
    fn factor_only_skips_h() {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 2));
        let mut entries = vec![BatchEntry::new(a)];
        let opts = BatchOptions { qdwh: QdwhOptions::factor_only(), ..Default::default() };
        qdwh_batched(&mut entries, &opts).unwrap();
        assert_eq!(entries[0].h.nrows(), 0);
        assert!(orthogonality_error(&entries[0].u) < 1e-13);
    }

    #[test]
    fn rectangular_batch() {
        let spec = MatrixSpec {
            m: 40,
            n: 16,
            cond: 1e8,
            distribution: polar_gen::SigmaDistribution::Geometric,
            seed: 77,
        };
        let mut entries = entries_from_specs::<f64>(&[spec.clone(), spec]);
        let infos = qdwh_batched(&mut entries, &BatchOptions::default()).unwrap();
        for (e, info) in entries.iter().zip(&infos) {
            assert_eq!(e.u.nrows(), 40);
            assert_eq!(e.u.ncols(), 16);
            assert_eq!(e.h.nrows(), 16);
            assert!(orthogonality_error(&e.u) < 1e-12);
            assert!(info.qr_iterations >= 1, "ill-conditioned start takes QR rounds");
        }
    }
}
