//! The batched QDWH driver: Algorithm 1 over a same-shape wave.
//!
//! The entries of a wave are independent, so the only parallelism is over
//! them: [`qdwh_batched`] cuts the wave into at most one contiguous chunk
//! per pool lane ([`polar_blas::params::fork_lanes`]) and each chunk runs
//! the whole solve — prologue, Halley rounds, `H` epilogue — sequentially
//! on its own thread. No task graph, no shared mutable state: a chunk owns
//! a `&mut` sub-slice of the entries and its thread's cached slabs.
//!
//! Inside a chunk the work is *batch-major*:
//!
//! * all iterates `X_k` sit in one [`BatchedDense`] (entry stride `m * n`);
//! * each Halley round splits the still-active entries by iteration family
//!   and runs each family's GEMM-shaped work as batch-spanning
//!   [`gemm_batched_packed`] sweeps over compact gathered slabs. Only the
//!   factorizations (`potrf` + `trtri`, or the stacked QR) are per-entry
//!   calls. The Cholesky family applies `Z^{-1}` through the explicit
//!   inverse `T = L^{-1}` (two batched GEMMs) instead of two per-entry
//!   substitution-kernel `trsm`s;
//! * the condition-estimate prologue consults a [`CondestCache`] keyed by
//!   `(n, type, cond class)` so hinted repeat streams skip the per-entry
//!   `geqrf` + estimate ([`polar_qdwh::estimate_l0`]) entirely;
//! * the final `H_k = U_k^H A_k` is one more batched sweep.
//!
//! Every kernel a chunk calls picks its code path from the entry shape
//! alone and runs inside [`rayon::serial_region`], so an entry's bits do
//! not depend on the pool width, on how the wave was cut, or on which
//! other entries share it.
//!
//! Entries end independently, and only at a round boundary: one that
//! converged, failed (non-finite data, an indefinite `Z`, the iteration
//! cap) or was cancelled by its own [`BatchEntry::progress`] hook drops out
//! of later rounds while the rest keep iterating, and
//! [`qdwh_batched_each`] answers for every entry on its own.

use crate::cache::{cond_class, CondestCache, CondestKey, UNHINTED_CLASS};
use polar_blas::params::fork_lanes;
use polar_blas::{gemm_batched_packed, norm, symmetrize};
use polar_lapack::{geqrf, geqrf_stacked, norm2est, orgqr, potrf_in, trtri_lower};
use polar_matrix::{BatchedDense, Matrix, Norm, Op, Uplo};
use polar_qdwh::{
    converged, estimate_l0, qdwh_flops, HalleyStep, IterationDecision, IterationProgress,
    IterationRecord, ProgressHook, QdwhError, QdwhInfo, QdwhOptions,
};
use polar_scalar::{Real, Scalar};
use std::sync::Arc;

/// One matrix of a batch: the input `A` and, once the engine has solved
/// it, the polar factors `U` (and `H` when `compute_h`). Factors are empty
/// `0 x 0` matrices until then, and stay so for an entry that failed.
#[derive(Clone)]
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
    /// This entry's progress hook, polled at the top of every round the
    /// entry is still active in with the round's number, the previous
    /// round's convergence norm and the bound `l_k` entering it; a
    /// [`IterationDecision::Cancel`] ends this entry, and no other, with
    /// [`QdwhError::Cancelled`].
    pub progress: Option<ProgressHook>,
}

impl<S: Scalar> BatchEntry<S> {
    pub fn new(a: Matrix<S>) -> Self {
        let empty = || Matrix::zeros(0, 0);
        Self { a, u: empty(), h: empty(), cond_hint: None, progress: None }
    }

    pub fn with_cond_hint(a: Matrix<S>, cond: f64) -> Self {
        Self { cond_hint: Some(cond), ..Self::new(a) }
    }
}

/// Options for [`qdwh_batched`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Per-entry numerics (iteration family, switch threshold, iteration
    /// cap, `compute_h`, `l_0` strategy — every
    /// [`L0Strategy`](polar_qdwh::L0Strategy), through
    /// [`polar_qdwh::estimate_l0`] on the flat `geqrf`). `tile_nb` is not
    /// read — batch entries are small by design, so factorizations run on
    /// the flat kernels and parallelism comes from the batch dimension.
    /// Nor is `progress`: a hook belongs to one solve, so each entry
    /// carries its own ([`BatchEntry::progress`]).
    pub qdwh: QdwhOptions,
    /// Estimate the scaling `alpha` as `sqrt(||A||_1 ||A||_inf)` (one pass
    /// over the data, an upper bound on `||A||_2`) instead of the scalar
    /// driver's power iteration. Safe — QDWH only needs `alpha >=
    /// sigma_max` — and much cheaper at serving sizes. Disable to match
    /// the scalar path's iterates exactly (the parity suite does).
    pub fast_scale: bool,
    /// Shared condition-estimate cache; `None` disables sharing.
    pub condest_cache: Option<Arc<CondestCache>>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self { qdwh: QdwhOptions::default(), fast_scale: true, condest_cache: None }
    }
}

impl BatchOptions {
    /// Do `a` and `b` agree on every [`QdwhOptions`] field the engine
    /// reads? One option set drives a whole batch, so only entries whose
    /// callers' options pass this may share one. Lives here so that it
    /// changes with the code that reads the fields.
    pub fn same_numerics(a: &QdwhOptions, b: &QdwhOptions) -> bool {
        a.compute_h == b.compute_h
            && a.path == b.path
            && a.qr_switch_threshold == b.qr_switch_threshold
            && a.max_iterations == b.max_iterations
            && a.l0_override == b.l0_override
            && a.l0_strategy == b.l0_strategy
            && a.exploit_structure == b.exploit_structure
    }
}

/// What [`qdwh_batched_each`] refuses a whole wave for, and (`Entry`)
/// what [`qdwh_batched`] folds the per-entry results into.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// Entries do not all share one `(m, n)` shape. The engine requires
    /// shape-homogeneous batches (the dispatcher keys batches by shape);
    /// this is a typed error, never a panic.
    MixedShapes { index: usize, expected: (usize, usize), got: (usize, usize) },
    /// Every entry is `m < n`; transpose inputs as for the scalar driver.
    Shape(&'static str),
    /// Entry `index` is the first that failed ([`qdwh_batched`] only; the
    /// others were solved all the same).
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

/// What [`polar_qdwh::qdwh`] would have told the caller of one entry.
impl From<BatchError> for QdwhError {
    fn from(e: BatchError) -> Self {
        match e {
            BatchError::MixedShapes { .. } => QdwhError::Shape("mixed shapes in batch"),
            BatchError::Shape(msg) => QdwhError::Shape(msg),
            BatchError::Entry { source, .. } => source,
        }
    }
}

/// QR→Cholesky switch value for entries that declared a
/// [`BatchEntry::with_cond_hint`] conditioning class (unhinted entries
/// keep `qdwh.qr_switch_threshold`, classically 100). Safe to widen
/// regardless of whether the hint is truthful: `Z = I + c XᴴX` has
/// eigenvalues in `[1, 1 + c]`, so `κ(Z) ≤ 1 + c` is bounded by the
/// switch value alone — the widened window costs at most `~c·ε` backward
/// error in the early Gram forms, which the later, well-conditioned
/// rounds contract, while converting the expensive per-entry stacked-QR
/// rounds into batch-major Cholesky rounds.
const HINTED_QR_SWITCH: f64 = 1e5;

/// Cap on [`HINTED_QR_SWITCH`] in units of `1/ε` (f64: the `1e5` above
/// binds; f32: ~840, which still covers the κ ≤ 100 serving class whose
/// first-round `c ≈ 764`).
const HINTED_QR_SWITCH_EPS_CAP: f64 = 1e-4;

/// One thread's workspace: every slab only ever grows, and a call works
/// on the prefix it needs (see [`ensure_slab`]).
struct Slabs<S: Scalar> {
    /// Packed inputs `A`, `m x n`.
    a: BatchedDense<S>,
    /// Iterates `X`, `m x n`.
    x: BatchedDense<S>,
    /// Epilogue `H = U^H A`, `n x n`.
    h: BatchedDense<S>,
    /// Gathered active iterates, `m x n` (Cholesky family input).
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
    /// The stacked `[sqrt(c) X; I]` workspace, `(m+n) x n`.
    wq: Matrix<S>,
}

impl<S: Scalar> Slabs<S> {
    fn new() -> Self {
        let empty = || BatchedDense::zeros(0, 0, 0);
        Self {
            a: empty(),
            x: empty(),
            h: empty(),
            xg: empty(),
            w1: empty(),
            yc: empty(),
            g: empty(),
            t: empty(),
            q1: empty(),
            q2: empty(),
            yq: empty(),
            wq: Matrix::zeros(0, 0),
        }
    }

    fn bytes(&self) -> usize {
        let slabs = [
            &self.a, &self.x, &self.h, &self.xg, &self.w1, &self.yc, &self.g, &self.t, &self.q1,
            &self.q2, &self.yq,
        ];
        let elems = slabs.iter().map(|s| s.as_slice().len()).sum::<usize>()
            + self.wq.nrows() * self.wq.ncols();
        elems * std::mem::size_of::<S>()
    }
}

/// Make `bd` hold at least `count` entries of shape `rows x cols`,
/// reallocating only when the entry shape changed or it is too short: a
/// serving stream whose group sizes wander (1, 2, 1, 3 …) settles on its
/// largest group's pages. Callers work on the leading `count` entries.
fn ensure_slab<S: Scalar>(bd: &mut BatchedDense<S>, rows: usize, cols: usize, count: usize) {
    if bd.nrows() != rows || bd.ncols() != cols || bd.batch() < count {
        *bd = BatchedDense::zeros(rows, cols, count);
    }
}

/// Serving streams call [`qdwh_batched`] over and over with one shape;
/// reallocating ~10 MB of zeroed slabs per call costs more in page
/// faults than whole rounds of kernel work at serving sizes. Each
/// thread keeps its last call's slabs and reuses them. Every slab entry
/// a solve reads it has fully written first (Gram, GEMM-with-beta-0, full
/// gathers, `trtri`'s full-triangle writes), so reuse never leaks values
/// between calls (the batch-spanning sweeps do read a failed entry's slots
/// as they were left; nothing reads the result); a chunk in which an entry
/// failed drops the slabs instead of recaching them, and oversized ones are
/// never cached.
const SLAB_CACHE_MAX_BYTES: usize = 32 << 20;

thread_local! {
    static SLAB_CACHE: std::cell::RefCell<
        std::collections::HashMap<std::any::TypeId, Box<dyn std::any::Any>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

fn slab_cache_take<S: Scalar>() -> Slabs<S> {
    SLAB_CACHE.with(|c| {
        c.borrow_mut()
            .remove(&std::any::TypeId::of::<Slabs<S>>())
            .and_then(|b| b.downcast::<Slabs<S>>().ok())
            .map(|b| *b)
            .unwrap_or_else(Slabs::new)
    })
}

fn slab_cache_put<S: Scalar>(slabs: Slabs<S>) {
    if slabs.bytes() <= SLAB_CACHE_MAX_BYTES {
        SLAB_CACHE.with(|c| {
            c.borrow_mut().insert(std::any::TypeId::of::<Slabs<S>>(), Box::new(slabs));
        });
    }
}

/// Running per-entry iteration state.
struct EntryState<R: Real> {
    ell: R,
    conv: R,
    /// `None` while the entry iterates, then how it ended: converged (or
    /// the zero matrix), or the error that took it out of the wave.
    outcome: Option<Result<(), QdwhError>>,
    info: QdwhInfo<R>,
    /// Freshly estimated `l_0`, `None` when the entry used an override or
    /// a cached bound, is the zero matrix or never got that far.
    fresh_l0: Option<R>,
}

impl<R: Real> EntryState<R> {
    fn ended(outcome: Result<(), QdwhError>, alpha: R) -> Self {
        let info = QdwhInfo::started(alpha, R::ZERO);
        Self { ell: R::ONE, conv: R::ZERO, outcome: Some(outcome), info, fresh_l0: None }
    }

    fn solved(&self) -> bool {
        self.outcome == Some(Ok(()))
    }
}

/// One round's step for the active entry `k`.
struct Plan<R> {
    k: usize,
    step: HalleyStep<R>,
}

/// How one entry of a wave ended: its iteration record, or the error that
/// took it, and it alone, out.
pub type EntryResult<R> = Result<QdwhInfo<R>, QdwhError>;

/// [`qdwh_batched_each`] for callers that want all or nothing: every
/// entry's [`QdwhInfo`] in order, or the failure with the lowest index
/// (entries that did not fail hold their factors either way).
pub fn qdwh_batched<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    opts: &BatchOptions,
) -> Result<Vec<QdwhInfo<S::Real>>, BatchError> {
    let each = qdwh_batched_each(entries, opts)?.into_iter().enumerate();
    each.map(|(index, r)| r.map_err(|source| BatchError::Entry { index, source })).collect()
}

/// QDWH polar decomposition of a same-shape batch: `A_k = U_k H_k` for
/// every entry, results stored back into the entries, one [`EntryResult`]
/// per entry returned in order (a failed entry's factors stay empty).
///
/// See the module docs for the execution model. Per entry the iteration
/// follows [`polar_qdwh::qdwh`] with the same [`QdwhOptions`] — same
/// parameter sequence, factors equal to rounding (the Cholesky rounds
/// apply `Z^{-1}` through an explicit inverse, so not bit for bit) — and
/// its bits depend on nothing but the entry, the options and the `l_0`
/// the [`CondestCache`] held when the call started.
pub fn qdwh_batched_each<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    opts: &BatchOptions,
) -> Result<Vec<EntryResult<S::Real>>, BatchError> {
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
        let started = || Ok(QdwhInfo::started(S::Real::ZERO, S::Real::ZERO));
        return Ok((0..batch).map(|_| started()).collect());
    }

    // ---- resolve per-entry l0 sources against the cache, batch-start ----
    // Lookups run against the cache as of batch start and folds happen
    // in entry order after every chunk has finished, so neither results
    // nor cache contents depend on how the wave was cut.
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
            if class != UNHINTED_CLASS {
                if let Some(cached) = cache.lookup(key) {
                    preset_l0[k] = Some(S::Real::from_f64(cached));
                    continue;
                }
            }
            fold_keys[k] = Some(key);
        }
    }

    // one batch-spanning GEMM sweep of the wave decides whether it is
    // worth a second lane; every round runs at least three of them
    let sweep = batch.saturating_mul(m).saturating_mul(n).saturating_mul(n);
    let lanes = fork_lanes(sweep).min(batch);
    let states = solve_lanes(entries, &preset_l0, lanes, opts);

    if let Some(cache) = &opts.condest_cache {
        // only a solve that went through vouches for its estimate
        for (key, s) in fold_keys.iter().zip(&states).filter(|(_, s)| s.solved()) {
            if let (Some(key), Some(l0)) = (key, s.fresh_l0) {
                cache.fold_min(*key, l0.to_f64());
            }
        }
    }
    Ok(states.into_iter().map(|s| s.outcome.expect("every entry ended").map(|()| s.info)).collect())
}

/// Cut `entries` into `lanes` contiguous chunks of near-equal length and
/// solve them concurrently; the states come back in entry order.
fn solve_lanes<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    preset_l0: &[Option<S::Real>],
    lanes: usize,
    opts: &BatchOptions,
) -> Vec<EntryState<S::Real>> {
    if lanes <= 1 {
        // the chunk is one lane's work: its kernels must not fork
        return rayon::serial_region(|| solve_chunk(entries, preset_l0, opts));
    }
    let left = lanes / 2;
    let cut = entries.len() * left / lanes;
    let (e_lo, e_hi) = entries.split_at_mut(cut);
    let (p_lo, p_hi) = preset_l0.split_at(cut);
    let (mut states, hi) = rayon::join(
        || solve_lanes(e_lo, p_lo, left, opts),
        || solve_lanes(e_hi, p_hi, lanes - left, opts),
    );
    states.extend(hi);
    states
}

/// Solve one chunk on the calling thread's cached slabs.
fn solve_chunk<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    preset_l0: &[Option<S::Real>],
    opts: &BatchOptions,
) -> Vec<EntryState<S::Real>> {
    let mut slabs = slab_cache_take::<S>();
    let states = run_chunk(entries, preset_l0, opts, &mut slabs);
    // a failed entry may have left non-finite values behind: drop the slabs
    if states.iter().all(EntryState::solved) {
        slab_cache_put(slabs);
    }
    states
}

/// `X_k := theta Y + beta X_k`, fused with the `||X_k - X_{k-1}||_F`
/// convergence reduction.
fn halley_update<S: Scalar>(x: &mut [S], y: &[S], theta: S::Real, beta: S::Real) -> S::Real {
    let th = S::from_real(theta);
    let be = S::from_real(beta);
    let mut acc = S::Real::ZERO;
    for (xi, yi) in x.iter_mut().zip(y) {
        let old = *xi;
        let new = *yi * th + old * be;
        acc += (new - old).abs_sq();
        *xi = new;
    }
    acc.sqrt()
}

fn run_chunk<S: Scalar>(
    entries: &mut [BatchEntry<S>],
    preset_l0: &[Option<S::Real>],
    opts: &BatchOptions,
    slabs: &mut Slabs<S>,
) -> Vec<EntryState<S::Real>> {
    let count = entries.len();
    let m = entries[0].a.nrows();
    let n = entries[0].a.ncols();
    // ---- pack + prologue: scale and condition-estimate every entry ----
    ensure_slab(&mut slabs.a, m, n, count);
    ensure_slab(&mut slabs.x, m, n, count);
    let mut states: Vec<EntryState<S::Real>> = Vec::with_capacity(count);
    for (k, e) in entries.iter().enumerate() {
        if e.a.has_non_finite() {
            let source = QdwhError::NonFinite { iteration: 0 };
            states.push(EntryState::ended(Err(source), S::Real::ZERO));
            continue;
        }
        slabs.a.set_entry(k, &e.a);
        let alpha = if opts.fast_scale {
            let n1: S::Real = norm(Norm::One, e.a.as_ref());
            let ni: S::Real = norm(Norm::Inf, e.a.as_ref());
            (n1 * ni).sqrt()
        } else {
            norm2est(&e.a).estimate
        };
        if alpha == S::Real::ZERO {
            // zero matrix: U = leading identity block, H = 0, no work.
            // The slab may hold a previous call's iterate and the H
            // epilogue reads every entry of X.
            slabs.x.entry_slice_mut(k).fill(S::ZERO);
            states.push(EntryState::ended(Ok(()), alpha));
            continue;
        }
        // X_k := A_k / alpha
        let inv = S::from_real(alpha.recip());
        for (xi, ai) in slabs.x.entry_slice_mut(k).iter_mut().zip(e.a.as_slice()) {
            *xi = *ai * inv;
        }
        let fresh_l0 = preset_l0[k].is_none().then(|| {
            let xk = slabs.x.mat(k);
            estimate_l0(xk, opts.qdwh.l0_strategy, || {
                let mut r = xk.to_owned();
                geqrf(&mut r);
                r
            })
        });
        let l0 = preset_l0[k].or(fresh_l0).expect("l0 preset or just estimated");
        states.push(EntryState {
            ell: l0,
            conv: S::Real::from_f64(100.0),
            outcome: None,
            info: QdwhInfo::started(alpha, l0),
            fresh_l0,
        });
    }

    // ---- the Halley rounds ----
    let hinted_switch = (HINTED_QR_SWITCH_EPS_CAP / S::Real::EPSILON.to_f64())
        .min(HINTED_QR_SWITCH)
        .max(opts.qdwh.qr_switch_threshold);
    let mut round = 0usize;
    // An entry ends in this loop and nowhere else: at the top of a round
    // (cap, its own hook), where its factorization breaks down, or in the
    // round's bookkeeping (non-finite iterate, convergence).
    while states.iter().any(|s| s.outcome.is_none()) {
        round += 1;
        for (s, e) in states.iter_mut().zip(entries.iter()).filter(|(s, _)| s.outcome.is_none()) {
            let iterations = s.info.iterations;
            if iterations >= opts.qdwh.max_iterations {
                s.outcome = Some(Err(QdwhError::NoConvergence { iterations }));
            } else if let Some(hook) = &e.progress {
                let iteration = iterations + 1;
                let (convergence, ell) = (s.conv.to_f64(), s.ell.to_f64());
                if hook(&IterationProgress { iteration, convergence, ell })
                    == IterationDecision::Cancel
                {
                    s.outcome = Some(Err(QdwhError::Cancelled { iteration }));
                }
            }
        }

        // plan: per-entry weights and family, before touching any data
        let plans: Vec<Plan<S::Real>> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.outcome.is_none())
            .map(|(k, s)| {
                // hinted entries opted into the extended Cholesky window
                // (see [`HINTED_QR_SWITCH`]); the stability bound depends
                // only on the realized c, never on the hint's
                // truthfulness, so no validation is needed here
                let switch = if entries[k].cond_hint.is_some() {
                    hinted_switch
                } else {
                    opts.qdwh.qr_switch_threshold
                };
                Plan { k, step: HalleyStep::at(s.ell, opts.qdwh.path, switch) }
            })
            .collect();
        if plans.is_empty() {
            break;
        }
        let round_start = std::time::Instant::now();
        let _iter_span = polar_obs::span!("qdwh_batched_iter", round, plans.len());

        let chol: Vec<&Plan<S::Real>> = plans.iter().filter(|p| !p.step.is_qr()).collect();
        if !chol.is_empty() {
            let cnt = chol.len();
            for slab in [&mut slabs.xg, &mut slabs.w1, &mut slabs.yc] {
                ensure_slab(slab, m, n, count);
            }
            for slab in [&mut slabs.g, &mut slabs.t] {
                ensure_slab(slab, n, n, count);
            }
            // gather + one batched Gram sweep: G_i = X_i^H X_i
            for (i, p) in chol.iter().enumerate() {
                slabs.xg.copy_entry_from(i, &slabs.x, p.k);
            }
            let xg = slabs.xg.as_batched_ref().prefix(cnt);
            gemm_batched_packed(
                Op::ConjTrans,
                Op::NoTrans,
                S::ONE,
                xg,
                xg,
                S::ZERO,
                slabs.g.as_batched_mut().prefix(cnt),
            );
            for (i, p) in chol.iter().enumerate() {
                // Z = I + c G in place; only the lower triangle feeds potrf
                let cs = S::from_real(p.step.c);
                for (j, col) in slabs.g.entry_slice_mut(i).chunks_exact_mut(n).enumerate() {
                    for v in &mut col[j..] {
                        *v *= cs;
                    }
                    col[j] += S::ONE;
                }
                // an explicit inverse where a solve would be:
                // kappa(Z) <= 1 + c, see polar_lapack's tri.rs
                if let Err(e) = potrf_in(Uplo::Lower, slabs.g.mat_mut(i))
                    .and_then(|()| trtri_lower(slabs.g.mat(i), slabs.t.mat_mut(i)))
                {
                    // the sweeps below still span the entry's slot; the
                    // update skips it
                    states[p.k].outcome = Some(Err(QdwhError::Lapack(e)));
                }
            }
            // two batched sweeps: Y = (X T^H) T = X L^{-H} L^{-1}
            let t = slabs.t.as_batched_ref().prefix(cnt);
            gemm_batched_packed(
                Op::NoTrans,
                Op::ConjTrans,
                S::ONE,
                xg,
                t,
                S::ZERO,
                slabs.w1.as_batched_mut().prefix(cnt),
            );
            gemm_batched_packed(
                Op::NoTrans,
                Op::NoTrans,
                S::ONE,
                slabs.w1.as_batched_ref().prefix(cnt),
                t,
                S::ZERO,
                slabs.yc.as_batched_mut().prefix(cnt),
            );
            for (i, p) in chol.iter().enumerate() {
                if states[p.k].outcome.is_some() {
                    continue;
                }
                states[p.k].conv = halley_update(
                    slabs.x.entry_slice_mut(p.k),
                    slabs.yc.entry_slice(i),
                    p.step.theta,
                    p.step.beta,
                );
            }
        }

        let qr: Vec<&Plan<S::Real>> = plans.iter().filter(|p| p.step.is_qr()).collect();
        if !qr.is_empty() {
            let cnt = qr.len();
            for slab in [&mut slabs.q1, &mut slabs.yq] {
                ensure_slab(slab, m, n, cnt);
            }
            ensure_slab(&mut slabs.q2, n, n, cnt);
            if (slabs.wq.nrows(), slabs.wq.ncols()) != (m + n, n) {
                slabs.wq = Matrix::zeros(m + n, n);
            }
            // per-entry stacked QR into the Q1/Q2 slabs
            for (i, p) in qr.iter().enumerate() {
                let xk = slabs.x.mat(p.k);
                let sc = S::from_real(p.step.c.sqrt());
                let w = &mut slabs.wq;
                // W = [sqrt(c) X_k; I], fully rewritten (reused)
                for j in 0..n {
                    for r in 0..m {
                        w[(r, j)] = xk.at(r, j) * sc;
                    }
                    for r in 0..n {
                        w[(m + r, j)] = if r == j { S::ONE } else { S::ZERO };
                    }
                }
                let f = if opts.qdwh.exploit_structure { geqrf_stacked(m, w) } else { geqrf(w) };
                let q = orgqr(w, &f);
                let q1 = slabs.q1.entry_slice_mut(i).chunks_exact_mut(m);
                let q2 = slabs.q2.entry_slice_mut(i).chunks_exact_mut(n);
                for (j, (c1, c2)) in q1.zip(q2).enumerate() {
                    let col = q.as_ref().col(j);
                    c1.copy_from_slice(&col[..m]);
                    c2.copy_from_slice(&col[m..]);
                }
            }
            // one batched sweep: Y = Q1 Q2^H
            gemm_batched_packed(
                Op::NoTrans,
                Op::ConjTrans,
                S::ONE,
                slabs.q1.as_batched_ref().prefix(cnt),
                slabs.q2.as_batched_ref().prefix(cnt),
                S::ZERO,
                slabs.yq.as_batched_mut().prefix(cnt),
            );
            for (i, p) in qr.iter().enumerate() {
                states[p.k].conv = halley_update(
                    slabs.x.entry_slice_mut(p.k),
                    slabs.yq.entry_slice(i),
                    p.step.theta,
                    p.step.beta,
                );
            }
        }

        let secs = round_start.elapsed().as_secs_f64();
        for plan in &plans {
            let k = plan.k;
            let s = &mut states[k];
            if s.outcome.is_some() {
                continue;
            }
            if slabs.x.entry_slice(k).iter().any(|v| !v.is_finite()) {
                let source = QdwhError::NonFinite { iteration: s.info.iterations + 1 };
                s.outcome = Some(Err(source));
                continue;
            }
            s.ell = plan.step.ell_after;
            // seconds is the round's wall time (shared by every active
            // entry of the chunk); per-entry kernel splits are not
            // separable inside a batched sweep, so the snapshot stays
            // zeroed.
            s.info.push(IterationRecord {
                iteration: s.info.iterations + 1,
                kind: plan.step.kind,
                ell: s.ell,
                convergence: s.conv,
                seconds: secs,
                kernels: Default::default(),
            });
            s.outcome = converged(s.conv, s.ell).then_some(Ok(()));
        }
    }

    // ---- epilogue: flops model, batched H = U^H A, unpack ----
    for s in states.iter_mut() {
        if s.info.iterations > 0 {
            let (qr, chol) = (s.info.qr_iterations, s.info.chol_iterations);
            s.info.flops_estimate = qdwh_flops(n, qr, chol, S::IS_COMPLEX);
        }
    }
    if opts.qdwh.compute_h {
        ensure_slab(&mut slabs.h, n, n, count);
        gemm_batched_packed(
            Op::ConjTrans,
            Op::NoTrans,
            S::ONE,
            slabs.x.as_batched_ref().prefix(count),
            slabs.a.as_batched_ref().prefix(count),
            S::ZERO,
            slabs.h.as_batched_mut().prefix(count),
        );
    }
    // the sweep spans every slot; only a solved entry's is unpacked
    for (k, e) in entries.iter_mut().enumerate().filter(|(k, _)| states[*k].solved()) {
        e.h = if opts.qdwh.compute_h {
            let mut h = slabs.h.to_matrix(k);
            symmetrize(h.as_mut());
            h
        } else {
            Matrix::zeros(0, 0)
        };
        // alpha is zero for the zero matrix only
        e.u = if states[k].info.alpha == S::Real::ZERO {
            Matrix::identity(m, n)
        } else {
            slabs.x.to_matrix(k)
        };
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_blas::gemm;
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
    fn failures_in_several_chunks_report_the_lowest_index() {
        // kappa = 2 converges in 4 rounds, kappa = 1e10 needs 5
        let opts = BatchOptions {
            qdwh: QdwhOptions { max_iterations: 4, ..Default::default() },
            ..Default::default()
        };
        let pool = rayon::ThreadPool::with_seed(2, None);
        // 8 entries of 32 x 32 on 2 lanes: chunks 0..4 and 4..8
        for failing in [vec![1, 6], vec![6], vec![0, 7], vec![3, 4]] {
            let mut entries: Vec<BatchEntry<f64>> = (0..8)
                .map(|k| {
                    let cond = if failing.contains(&k) { 1e10 } else { 2.0 };
                    let (a, _) = generate::<f64>(&MatrixSpec {
                        m: 32,
                        n: 32,
                        cond,
                        distribution: polar_gen::SigmaDistribution::Geometric,
                        seed: 40 + k as u64,
                    });
                    BatchEntry::new(a)
                })
                .collect();
            let err = pool.install(|| qdwh_batched(&mut entries, &opts)).unwrap_err();
            let source = QdwhError::NoConvergence { iterations: 4 };
            assert_eq!(err, BatchError::Entry { index: failing[0], source }, "{failing:?}");
        }
    }

    #[test]
    fn a_chunk_with_a_failed_entry_drops_its_slabs() {
        let wave = |poison: bool| -> Vec<BatchEntry<f64>> {
            let specs: Vec<MatrixSpec> =
                (0..3).map(|k| MatrixSpec::ill_conditioned(16, 60 + k)).collect();
            let mut entries = entries_from_specs::<f64>(&specs);
            if poison {
                entries[1].a[(4, 4)] = f64::NAN;
            }
            entries
        };
        let opts = BatchOptions::default();
        // on this thread, so that the cache read below is the one the chunk used
        rayon::serial_region(|| {
            qdwh_batched(&mut wave(false), &opts).unwrap();
            let cached = slab_cache_take::<f64>();
            assert!(cached.bytes() > 0, "a solved chunk caches its slabs");
            slab_cache_put(cached);

            let mut bad = wave(true);
            let each = qdwh_batched_each(&mut bad, &opts).unwrap();
            assert_eq!(each[1].as_ref().err(), Some(&QdwhError::NonFinite { iteration: 0 }));
            // the survivors are unpacked before the slabs go
            for k in [0, 2] {
                assert!(each[k].is_ok());
                assert!(orthogonality_error(&bad[k].u) < 1e-12);
            }
            assert_eq!(slab_cache_take::<f64>().bytes(), 0, "dropped, not recached");
        });
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
