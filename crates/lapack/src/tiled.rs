//! DAG-scheduled tile factorizations: one emitter per tile graph.
//!
//! The PLASMA/SLATE task shapes (`geqrt` → `unmqr` / `tsqrt` → `tsmqr` per
//! panel step; `potrf`/`trsm`/`herk`/`gemm` for Cholesky), each task
//! carrying a real tile-kernel body, executed by [`polar_runtime::TaskDag`]
//! on the work-stealing pool with panel-priority (lookahead) ordering.
//!
//! Each graph is written once, as a function that adds its tasks to a
//! *caller-owned* dag: [`emit_geqrf`], [`emit_orgqr`], [`emit_potrf`]. The
//! standalone drivers ([`geqrf_tiled`], [`orgqr_tiled`], [`potrf_tiled`])
//! are allocate → emit → execute wrappers; the whole-solve graphs in
//! `polar-qdwh` call the same emitters between their own assembly and
//! update tasks, so a kernel change lands in every graph at once. The
//! emitters also run without storage ([`TilePtr::shape`],
//! [`QrPtr::shape`]): the dag then converts to the body-less
//! [`polar_runtime::TaskGraph`] the simulator schedules and the
//! communication meter reads, so those see the graph the executor runs.
//! Every panel step starts with [`TaskDag::barrier`], which only the
//! simulator's fork-join mode reads.
//!
//! The stacked variant ([`geqrf_tiled_stacked`], or a [`TiledQr`] built
//! with `top_rows`) exploits the QDWH Eq. (1) `[sqrt(c) A; I]` structure
//! the way `geqrf_stacked` does for the flat path: at panel `k` only tile
//! rows up to the fill boundary carry reflector support, so tasks on
//! pristine identity/zero tile rows are never emitted (~1/3 of the QR
//! flops for square `A`).
//!
//! Access model: tiles of a [`TiledMatrix`] are separate allocations, and a
//! task body receives the tiles it declared: [`TilePtr::read`] /
//! [`TilePtr::write`] (and [`QrPtr`]'s `T`-slot equivalents) are
//! [`polar_runtime::Access`]es, whose names give [`TaskDag::add_on`] the
//! task's read and write sets and whose `get` — the only place below where
//! a pointer becomes a reference — runs inside the body: `&` for a read
//! (concurrent readers may alias), `&mut` for a write (the dag's edges keep
//! every other task off the tile).

use crate::tile_qr::{
    geqrt_blocked_into, tsmqr_blocked, tsqrt_blocked_into, unmqr_tile_blocked, TileT,
};
use crate::{LapackError, DEFAULT_BLOCK};
use polar_blas::{flops, gemm, herk, trsm};
use polar_matrix::{Diag, Matrix, Op, ProcessGrid, Side, TiledMatrix, Tiling, Uplo};
use polar_runtime::{Access, ExecOutcome, InBody, KernelKind, TaskDag, TaskStatus, TileRef};
use polar_scalar::{Real, Scalar};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Default tile size for the DAG-scheduled drivers. The paper tunes `nb =
/// 192` CPU / `320` GPU; here 256 measured best on the kernels_perf sweep —
/// big enough that the trailing `tsmqr`/`gemm` tasks run at
/// packed-microkernel speed, small enough that a 1024-square problem still
/// yields a 4x4 tile grid for the DAG to overlap.
pub fn default_tile_nb() -> usize {
    256
}

/// Tile size tuned to the pool width for an `n`-column problem. 256
/// measures best at every pool width on the whole-solve sweep (at one
/// worker the win comes from tiled trsm/herk decomposing into gemm-rich
/// tasks, which favors the same size as the parallel case); with more
/// workers the grid must additionally offer at least a couple of tile
/// columns per worker or the DAG starves. Never below 128, whatever `n`: a
/// whole-solve graph clamps its tile to the matrix itself, and pads the
/// stacked `[B; I]` so that `I` starts on a tile boundary at any size.
pub fn auto_tile_nb(n: usize) -> usize {
    let workers = rayon::current_num_threads().max(1);
    let mut nb = default_tile_nb();
    while nb > 128 && n.div_ceil(nb) < 2 * workers.min(8) {
        nb -= 64;
    }
    nb
}

/// `mt x (len / mt)` values of `T`, column-major, as the tasks of one
/// [`TaskDag`] see them: the id they are tracked under and, once bound, the
/// storage. The one index computation behind [`TilePtr`] and [`QrPtr`].
struct Slab<'a, T> {
    base: *mut T,
    mt: usize,
    len: usize,
    /// Row `i` of this view is row `row0 + i` of the storage (and of the
    /// name): see [`TilePtr::below`].
    row0: usize,
    id: u32,
    /// Payload of one value, for the communication meter.
    bytes: u64,
    _storage: PhantomData<&'a mut T>,
}

impl<T> Clone for Slab<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Slab<'_, T> {}

impl<'a, T> Slab<'a, T> {
    fn shape(dag: &mut TaskDag<'_>, mt: usize, len: usize, bytes: u64) -> Self {
        let (base, id) = (std::ptr::null_mut(), dag.new_matrix());
        Self { base, mt, len, row0: 0, id, bytes, _storage: PhantomData }
    }

    fn bind<'b>(self, storage: &'b mut [T]) -> Slab<'b, T> {
        assert_eq!(storage.len(), self.len, "bind: storage of another shape");
        Slab { base: storage.as_mut_ptr(), _storage: PhantomData, ..self }
    }

    /// Where `(i, j)` is stored — a shape's null stays null — and the name
    /// the dag tracks it under.
    fn slot(&self, i: usize, j: usize) -> (*mut T, TileRef) {
        let i = self.row0 + i;
        assert!(i < self.mt && i + j * self.mt < self.len, "tile ({i}, {j}) out of range");
        let offset = if self.base.is_null() { 0 } else { i + j * self.mt };
        (self.base.wrapping_add(offset), TileRef::new(self.id, i, j, self.bytes))
    }

    fn read(&self, i: usize, j: usize) -> TileRead<'a, T> {
        let (slot, name) = self.slot(i, j);
        TileRead { slot, name, _storage: PhantomData }
    }

    fn write(&self, i: usize, j: usize) -> TileWrite<'a, T> {
        let (slot, name) = self.slot(i, j);
        TileWrite { slot, name, _storage: PhantomData }
    }
}

/// One tile (or `T` factor) in a task's read set; the body receives `&T`.
pub struct TileRead<'a, T> {
    slot: *const T,
    name: TileRef,
    _storage: PhantomData<&'a T>,
}

/// One tile (or `T` factor) in a task's write set; the body receives
/// `&mut T`.
pub struct TileWrite<'a, T> {
    slot: *mut T,
    name: TileRef,
    _storage: PhantomData<&'a mut T>,
}

// SAFETY: the two are a `&'a T` and a `&'a mut T` that do not exist yet;
// they cross to the lane that runs the body under the bounds those do.
unsafe impl<T: Sync> Send for TileRead<'_, T> {}
unsafe impl<T: Send> Send for TileWrite<'_, T> {}

impl<T: 'static> Access for TileRead<'_, T> {
    type Out<'t> = &'t T;

    fn declare(&self, reads: &mut Vec<TileRef>, _: &mut Vec<TileRef>) {
        reads.push(self.name);
    }

    fn get<'t>(self, _: &'t InBody) -> Self::Out<'t> {
        assert!(!self.slot.is_null(), "task body over a shape-only pointer");
        // SAFETY: `slot` is in bounds of storage borrowed for `'a`, which
        // outlives the dag and so this body (`'t`). The body was given this
        // access by `add_on`, which put `name` in its read set: every task
        // with `name` in its write set — the only source of a `&mut` to the
        // slot — is ordered before or after it by a dag edge.
        unsafe { &*self.slot }
    }
}

impl<T: 'static> Access for TileWrite<'_, T> {
    type Out<'t> = &'t mut T;

    fn declare(&self, _: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
        writes.push(self.name);
    }

    fn get<'t>(self, _: &'t InBody) -> Self::Out<'t> {
        assert!(!self.slot.is_null(), "task body over a shape-only pointer");
        // SAFETY: as for `TileRead`, with `name` in the write set: every
        // other task that names the slot at all is ordered against this one
        // by a dag edge, and `add_on` refused a task naming it twice itself.
        unsafe { &mut *self.slot }
    }
}

/// A [`TiledMatrix`] as the tasks of one [`TaskDag`] see it: the matrix id
/// under which the dag tracks its tiles and, through [`TilePtr::read`] and
/// [`TilePtr::write`], the tiles themselves — for a task body, and only
/// for one that declared them:
///
/// ```compile_fail
/// use polar_lapack::TilePtr;
/// use polar_matrix::{ProcessGrid, TiledMatrix, Tiling};
/// use polar_runtime::{Access, TaskDag};
///
/// let mut m = TiledMatrix::<f64>::zeros(Tiling::new(8, 8, 4, 4), ProcessGrid::single());
/// let mut dag = TaskDag::new();
/// let p = TilePtr::new(&mut dag, &mut m);
/// // no tile accessor outside a body, and no `InBody` to resolve one with
/// let tile = p.write(0, 0).get(&polar_runtime::InBody(()));
/// ```
///
/// Public so the whole-solve graphs in `polar-qdwh` put their own tasks
/// under the same discipline. A pointer starts as a shape
/// ([`TilePtr::shape`]: tiling and matrix id, no storage), good for
/// emitting; [`TilePtr::bind`] gives it the tiles its bodies will receive,
/// and a body over an unbound pointer panics. Name a pointer's tiles only
/// in the dag that named the pointer: two dags do not order their tasks
/// against each other.
#[derive(Clone, Copy)]
pub struct TilePtr<'a, S> {
    tiles: Slab<'a, Matrix<S>>,
    tiling: Tiling,
}

impl<'a, S: Scalar> TilePtr<'a, S> {
    /// Register a matrix of the given tiling with `dag` under a fresh
    /// matrix id, without storage.
    pub fn shape(dag: &mut TaskDag<'_>, tiling: Tiling) -> Self {
        let bytes = (tiling.nb() * tiling.nb() * std::mem::size_of::<S>()) as u64;
        Self { tiles: Slab::shape(dag, tiling.mt(), tiling.mt() * tiling.nt(), bytes), tiling }
    }

    /// The same name in the dag, over the tiles of `m`.
    pub fn bind<'b>(self, m: &'b mut TiledMatrix<S>) -> TilePtr<'b, S> {
        assert_eq!(m.tiling(), self.tiling, "TilePtr::bind: storage tiled differently");
        TilePtr { tiles: self.tiles.bind(m.tiles_mut()), tiling: self.tiling }
    }

    /// Register `m` with `dag` under a fresh matrix id.
    pub fn new(dag: &mut TaskDag<'_>, m: &'a mut TiledMatrix<S>) -> Self {
        TilePtr::shape(dag, m.tiling()).bind(m)
    }

    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// Tile rows `i0..` as a matrix of their own: tile `(i, j)` of the result
    /// is tile `(i0 + i, j)` of this one, storage and name, so tasks on
    /// either are ordered against each other. How a workspace lends its
    /// bottom block out (the `Q2` rows of a stacked `Q`).
    pub fn below(self, i0: usize) -> Self {
        let t = self.tiling;
        assert!(i0 < t.mt(), "TilePtr::below: no tile row {i0}");
        let tiling = Tiling::new(t.m() - i0 * t.mb(), t.n(), t.mb(), t.nb());
        Self { tiles: Slab { row0: self.tiles.row0 + i0, ..self.tiles }, tiling }
    }

    /// Tile `(i, j)` for a task's read set.
    pub fn read(&self, i: usize, j: usize) -> TileRead<'a, Matrix<S>> {
        self.tiles.read(i, j)
    }

    /// Tile `(i, j)` for a task's write set.
    pub fn write(&self, i: usize, j: usize) -> TileWrite<'a, Matrix<S>> {
        self.tiles.write(i, j)
    }
}

/// A tile QR factorization in progress or done: the matrix being factored
/// in place plus the per-tile compact `T` factors needed to apply or form
/// `Q`. [`geqrf_tiled`] returns one; a whole-solve graph allocates one with
/// [`TiledQr::zeros`], fills `a` from its own tasks and hands
/// [`TiledQr::in_dag`] to [`emit_geqrf`] / [`emit_orgqr`].
pub struct TiledQr<S: Scalar> {
    /// Packed tiles: `R` on and above the tile diagonal, `geqrt` reflector
    /// tails below inside diagonal tiles, `tsqrt` `V2` blocks below the
    /// tile diagonal.
    pub a: TiledMatrix<S>,
    /// `T` factors: slot `i + k*mt` holds the `geqrt` T for `i == k`, the
    /// `tsqrt` T for `i > k`. Preallocated as a slab so task bodies never
    /// allocate; slots outside the factorization's row window stay empty
    /// (`k() == 0`).
    t: Vec<TileT<S>>,
    /// Dense-row count of the stacked top block when the trailing-identity
    /// structure is exploited.
    top_rows: Option<usize>,
}

impl<S: Scalar> TiledQr<S> {
    /// Workspace for factoring a matrix of the given tiling, all zero;
    /// `top_rows = Some(r)` declares the stacked `[B; D]` structure (`B`
    /// is `r` rows, `D` diagonal) and prunes the row window accordingly.
    /// Make `r` a whole number of tile rows — pad `B` with zero rows, which
    /// change neither `R` nor the other rows of `Q`: then each tile of `D`
    /// a panel reaches is upper triangular and runs the row-windowed
    /// kernels ([`TileT::upper_v2`]), and no tile kernel mixes rows of `B`'s
    /// scale with rows of `D`'s, which costs the tile QR its row-wise
    /// accuracy when the two are far apart.
    pub fn zeros(tiling: Tiling, top_rows: Option<usize>) -> Self {
        Self::over(TiledMatrix::zeros(tiling, ProcessGrid::single()), top_rows)
    }

    fn over(a: TiledMatrix<S>, top_rows: Option<usize>) -> Self {
        let tiling = a.tiling();
        let (mt, kt) = (tiling.mt(), tiling.mt().min(tiling.nt()));
        let ib = DEFAULT_BLOCK.min(tiling.nb());
        // slot (i, k) needs ib x kk storage, kk the reflector count of
        // panel k; slots beyond the stacked row window are never written
        // and get zero-width stubs
        let mut t = Vec::with_capacity(mt * kt);
        // with `B` a whole number of square tiles, `D`'s tile rows start at
        // `d0` and the one panel `k` reaches is on `D`'s diagonal: upper
        // triangular, and untouched until then
        let d0 = top_rows
            .filter(|tr| tr % tiling.mb() == 0 && tiling.mb() == tiling.nb())
            .map(|tr| tr / tiling.mb());
        for k in 0..kt {
            let kk = tiling.tile_rows(k).min(tiling.tile_cols(k));
            let lim = stacked_row_limit(tiling, top_rows, k);
            for i in 0..mt {
                let mut tt = TileT::new(ib, if i >= k && i <= lim { kk } else { 0 });
                tt.upper_v2 = i > k && d0.is_some_and(|d0| i == d0 + k);
                t.push(tt);
            }
        }
        Self { a, t, top_rows }
    }

    /// Register the factorization's storage with `dag`.
    pub fn in_dag<'a>(&'a mut self, dag: &mut TaskDag<'_>) -> QrPtr<'a, S> {
        QrPtr::shape(dag, self.a.tiling(), self.top_rows).bind(self)
    }

    /// The upper-triangular `k x n` `R` factor.
    pub fn extract_r(&self) -> Matrix<S> {
        let tiling = self.a.tiling();
        let k = tiling.m().min(tiling.n());
        let mut r = Matrix::<S>::zeros(k, tiling.n());
        for kb in 0..tiling.mt().min(tiling.nt()) {
            for jb in kb..tiling.nt() {
                let (r0, c0) = tiling.tile_origin(kb, jb);
                let tile = self.a.tile(kb, jb);
                for j in 0..tile.ncols() {
                    for i in 0..tile.nrows() {
                        if r0 + i < k && r0 + i <= c0 + j {
                            r[(r0 + i, c0 + j)] = tile[(i, j)];
                        }
                    }
                }
            }
        }
        r
    }
}

/// A [`TiledQr`] as the tasks of one dag see it: the matrix (`a`, public
/// so the owner's tasks can fill it) and, private to the emitters, the
/// `T`-factor slab under the same contract — shape first, storage by
/// [`QrPtr::bind`], like [`TilePtr`].
#[derive(Clone, Copy)]
pub struct QrPtr<'a, S: Scalar> {
    pub a: TilePtr<'a, S>,
    t: Slab<'a, TileT<S>>,
    top_rows: Option<usize>,
}

impl<'a, S: Scalar> QrPtr<'a, S> {
    /// Register a factorization of a matrix of the given tiling
    /// (`top_rows` as in [`TiledQr::zeros`]) with `dag`, without storage.
    pub fn shape(dag: &mut TaskDag<'_>, tiling: Tiling, top_rows: Option<usize>) -> Self {
        let a = TilePtr::shape(dag, tiling);
        let (mt, kt) = (tiling.mt(), tiling.mt().min(tiling.nt()));
        Self { a, t: Slab::shape(dag, mt, mt * kt, a.tiles.bytes), top_rows }
    }

    /// The same names in the dag, over the storage of `f`.
    pub fn bind<'b>(self, f: &'b mut TiledQr<S>) -> QrPtr<'b, S> {
        assert_eq!(f.top_rows, self.top_rows, "QrPtr::bind: storage pruned differently");
        QrPtr { a: self.a.bind(&mut f.a), t: self.t.bind(&mut f.t), top_rows: self.top_rows }
    }

    /// Last tile row with reflector support at panel `k`.
    fn row_limit(&self, k: usize) -> usize {
        stacked_row_limit(self.a.tiling(), self.top_rows, k)
    }
}

/// `nb^3` in real flops of `S` arithmetic (a complex multiply-add is four
/// real ones): the unit a tile task's analytic flops are quoted in. A task
/// is the counted kernel of its class, so the unit carries the type.
pub fn tile_nb3<S: Scalar>(nb: usize) -> f64 {
    flops::type_factor(S::IS_COMPLEX) * (nb as f64).powi(3)
}

/// Last tile row with reflector support at panel `k` for the stacked
/// `[B; I]` structure (`None` = dense: all rows).
fn stacked_row_limit(tiling: Tiling, top_rows: Option<usize>, k: usize) -> usize {
    let mt = tiling.mt();
    match top_rows {
        None => mt - 1,
        Some(tr) => {
            let nb = tiling.nb();
            let last_col = ((k + 1) * nb).min(tiling.n());
            (((tr + last_col - 1) / tiling.mb()).max(k)).min(mt - 1)
        }
    }
}

/// Add the tile QR of `f.a` to `dag` (PLASMA/SLATE `geqrf`: `geqrt` →
/// `unmqr` sweep, then `tsqrt` → `tsmqr` per sub-diagonal tile row), in
/// place, with the `T` factors going to `f`'s slab. With `top_rows` set,
/// only tile rows inside the fill window get tasks. The read/write sets
/// chain it behind whatever the caller's earlier tasks wrote into `f.a`;
/// a write set names the task's home tile first, so `tsqrt`/`tsmqr` run
/// where tile row `i` lives once ranks are assigned. A task's flops are the
/// LAWN 41 count of its tile kernel — `geqrt` `4/3 nb^3`, `unmqr` 2, `tsqrt`
/// 2, `tsmqr` 4 — since the task is what the kernel counters count.
pub fn emit_geqrf<'a, S: Scalar>(dag: &mut TaskDag<'a>, f: QrPtr<'a, S>) {
    let (a, t) = (f.a, f.t);
    let tiling = a.tiling();
    let (mt, nt) = (tiling.mt(), tiling.nt());
    let kt = mt.min(nt);
    let nb3 = tile_nb3::<S>(tiling.nb());
    for k in 0..kt {
        dag.barrier();
        let step = (kt - k) as i32 * 4;
        // panel: QR of the diagonal tile
        let panel = (a.write(k, k), t.write(k, k));
        dag.add_on(KernelKind::Geqrt, step + 2, 4.0 / 3.0 * nb3, panel, |(akk, t)| {
            geqrt_blocked_into(akk, t)
        });
        // apply Q_kk^H to the tiles right of the diagonal
        for j in k + 1..nt {
            dag.add_on(
                KernelKind::Unmqr,
                step + i32::from(j == k + 1),
                2.0 * nb3,
                (a.read(k, k), t.read(k, k), a.write(k, j)),
                |(v, t, c)| unmqr_tile_blocked(Op::ConjTrans, v, t, c),
            );
        }
        // annihilate sub-diagonal tiles (only rows with reflector support
        // when the stacked structure is known)
        for i in k + 1..=f.row_limit(k) {
            dag.add_on(
                KernelKind::Tsqrt,
                step + 2,
                2.0 * nb3,
                (a.write(i, k), a.write(k, k), t.write(i, k)),
                |(b, r, t)| tsqrt_blocked_into(r, b, t),
            );
            for j in k + 1..nt {
                dag.add_on(
                    KernelKind::Tsmqr,
                    step + i32::from(j == k + 1),
                    4.0 * nb3,
                    (a.read(i, k), t.read(i, k), a.write(i, j), a.write(k, j)),
                    |(v2, t, a2, a1)| tsmqr_blocked(Op::ConjTrans, v2, t, a1, a2),
                );
            }
        }
    }
}

/// Add the formation of the explicit thin `Q` of the factorization `f`
/// to `dag`: `q` (same row tiling as `f.a`, as many columns as wanted)
/// is reset to the thin identity by per-tile tasks, then the stored
/// reflectors are applied with the reverse `tsmqr`/`unmqr` sweep. The
/// reads of `f` chain the sweep behind an [`emit_geqrf`] in the same dag.
pub fn emit_orgqr<'a, S: Scalar>(dag: &mut TaskDag<'a>, f: QrPtr<'a, S>, q: TilePtr<'a, S>) {
    let (w, t) = (f.a, f.t);
    let tiling = w.tiling();
    let mt = tiling.mt();
    let kt = mt.min(tiling.nt());
    let qnt = q.tiling().nt();
    assert_eq!(q.tiling().mt(), mt, "emit_orgqr: Q and the factored matrix differ in tile rows");
    let nb = tiling.nb() as f64;
    let nb3 = tile_nb3::<S>(tiling.nb());
    dag.barrier();
    for j in 0..qnt {
        for i in 0..mt {
            dag.add_on(KernelKind::Geadd, 2, nb * nb, q.write(i, j), move |t| {
                if i == j {
                    t.set_identity();
                } else {
                    t.fill(S::ZERO);
                }
            });
        }
    }
    for k in (0..kt).rev() {
        dag.barrier();
        let step = (k + 1) as i32 * 4;
        for i in (k + 1..=f.row_limit(k)).rev() {
            for j in k..qnt {
                dag.add_on(
                    KernelKind::Tsmqr,
                    step,
                    4.0 * nb3,
                    (w.read(i, k), t.read(i, k), q.write(i, j), q.write(k, j)),
                    |(v2, t, q2, q1)| tsmqr_blocked(Op::NoTrans, v2, t, q1, q2),
                );
            }
        }
        for j in k..qnt {
            dag.add_on(
                KernelKind::Unmqr,
                step + 1,
                2.0 * nb3,
                (w.read(k, k), t.read(k, k), q.write(k, j)),
                |(v, t, c)| unmqr_tile_blocked(Op::NoTrans, v, t, c),
            );
        }
    }
}

/// Add the right-looking tile Cholesky (`potrf`/`trsm`/`herk`/`gemm`) of
/// the lower triangle of the square tiled matrix `a` to `dag`, in place.
/// A diagonal tile that is not positive definite stores the error — the
/// leading-minor offset globalized like LAPACK `info` — in `fail` and
/// cancels the dag, so an [`ExecOutcome::Cancelled`] with `fail` set
/// means this factorization broke down.
pub fn emit_potrf<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    a: TilePtr<'a, S>,
    fail: &'a OnceLock<LapackError>,
) {
    let tiling = a.tiling();
    let nt = tiling.nt();
    assert_eq!(tiling.mt(), nt, "emit_potrf: matrix must be square");
    let nb = tiling.nb();
    let nb3 = tile_nb3::<S>(nb);
    for k in 0..nt {
        dag.barrier();
        let step = (nt - k) as i32 * 4;
        dag.add_on(KernelKind::Potrf, step + 3, nb3 / 3.0, a.write(k, k), move |akk| {
            match crate::potrf(Uplo::Lower, akk) {
                Ok(()) => TaskStatus::Continue,
                Err(e) => {
                    let e = match e {
                        LapackError::NotPositiveDefinite(off) => {
                            LapackError::NotPositiveDefinite(k * nb + off)
                        }
                        other => other,
                    };
                    // first failure wins; later ones are its consequences
                    let _ = fail.set(e);
                    TaskStatus::Cancel
                }
            }
        });
        for i in k + 1..nt {
            let access = (a.read(k, k), a.write(i, k));
            dag.add_on(KernelKind::Trsm, step + 2, nb3, access, |(akk, aik)| {
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Op::ConjTrans,
                    Diag::NonUnit,
                    S::ONE,
                    akk.as_ref(),
                    aik.as_mut(),
                );
            });
        }
        for i in k + 1..nt {
            // diagonal update; feeding the next panel gets priority
            dag.add_on(
                KernelKind::Herk,
                step + i32::from(i == k + 1),
                nb3,
                (a.read(i, k), a.write(i, i)),
                |(aik, aii)| {
                    herk(
                        Uplo::Lower,
                        Op::NoTrans,
                        -S::Real::ONE,
                        aik.as_ref(),
                        S::Real::ONE,
                        aii.as_mut(),
                    );
                },
            );
            for j in k + 1..i {
                dag.add_on(
                    KernelKind::Gemm,
                    step + i32::from(j == k + 1),
                    2.0 * nb3,
                    (a.read(i, k), a.read(j, k), a.write(i, j)),
                    |(v, w, aij)| {
                        gemm(
                            Op::NoTrans,
                            Op::ConjTrans,
                            -S::ONE,
                            v.as_ref(),
                            w.as_ref(),
                            S::ONE,
                            aij.as_mut(),
                        );
                    },
                );
            }
        }
    }
}

fn geqrf_tiled_inner<S: Scalar>(
    a_dense: &Matrix<S>,
    nb: usize,
    top_rows: Option<usize>,
) -> TiledQr<S> {
    let m = a_dense.nrows();
    let n = a_dense.ncols();
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Geqrf,
        "geqrf_tiled",
        flops::type_factor(S::IS_COMPLEX) * flops::geqrf(m, n),
        [m, n, nb],
    );
    let tiles = TiledMatrix::from_dense(a_dense, nb, nb, ProcessGrid::single());
    let mut f = TiledQr::over(tiles, top_rows);
    let mut dag = TaskDag::new();
    let fp = f.in_dag(&mut dag);
    emit_geqrf(&mut dag, fp);
    // QR bodies never cancel; guard against a partially-factored result
    // if the executor ever grows new outcomes.
    let outcome = dag.execute();
    debug_assert_eq!(outcome, ExecOutcome::Completed);
    f
}

/// DAG-scheduled tile QR factorization (PLASMA/SLATE `geqrf`): cuts `a`
/// into `nb x nb` tiles and factors them with the `geqrt`/`unmqr`/`tsqrt`/
/// `tsmqr` task graph on the work-stealing pool.
pub fn geqrf_tiled<S: Scalar>(a: &Matrix<S>, nb: usize) -> TiledQr<S> {
    geqrf_tiled_inner(a, nb.max(8), None)
}

/// [`geqrf_tiled`] of the QDWH stacked matrix `W = [B; I]` (`B` is
/// `top_rows x n`), skipping every task on tile rows that are still
/// pristine identity/zero at the given panel — the tile-level analogue of
/// [`crate::geqrf_stacked`]'s shrinking row window.
pub fn geqrf_tiled_stacked<S: Scalar>(top_rows: usize, a: &Matrix<S>, nb: usize) -> TiledQr<S> {
    assert!(top_rows <= a.nrows(), "geqrf_tiled_stacked: top block larger than matrix");
    geqrf_tiled_inner(a, nb.max(8), Some(top_rows))
}

/// Form the explicit thin `Q` (`m x k_cols`) of a [`geqrf_tiled`]
/// factorization by applying the stored reflectors to the identity with the
/// reverse `tsmqr`/`unmqr` task sweep. (`&mut` because the dag's tile
/// access is handed out from a unique borrow; `f` is only read.)
pub fn orgqr_tiled<S: Scalar>(f: &mut TiledQr<S>, k_cols: usize) -> Matrix<S> {
    let tiling = f.a.tiling();
    let m = tiling.m();
    let nb = tiling.nb();
    assert!(k_cols <= tiling.n(), "orgqr_tiled: more columns than reflectors");
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Orgqr,
        "orgqr_tiled",
        flops::type_factor(S::IS_COMPLEX) * flops::orgqr(m, k_cols),
        [m, k_cols, nb],
    );
    let mut q = TiledMatrix::<S>::zeros(Tiling::new(m, k_cols, nb, nb), ProcessGrid::single());
    let mut dag = TaskDag::new();
    let (fp, qp) = (f.in_dag(&mut dag), TilePtr::new(&mut dag, &mut q));
    emit_orgqr(&mut dag, fp, qp);
    let outcome = dag.execute();
    debug_assert_eq!(outcome, ExecOutcome::Completed);
    q.to_dense()
}

/// DAG-scheduled tile Cholesky (right-looking `potrf`/`trsm`/`herk`/`gemm`
/// task graph). Lower triangle only — the QDWH Cholesky iteration's case.
/// On failure the executor cancels outstanding tasks and the leading-minor
/// offset is reported like LAPACK `info`.
pub fn potrf_tiled<S: Scalar>(uplo: Uplo, a: &mut Matrix<S>, nb: usize) -> Result<(), LapackError> {
    assert_eq!(a.nrows(), a.ncols(), "potrf_tiled: matrix must be square");
    if uplo != Uplo::Lower {
        // the solver only drives the Lower variant; keep Upper on the
        // (equally valid) flat path
        return crate::potrf(uplo, a);
    }
    let n = a.nrows();
    let nb = nb.max(8);
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Potrf,
        "potrf_tiled",
        flops::type_factor(S::IS_COMPLEX) * flops::potrf(n),
        [n, n, nb],
    );
    let mut ta = TiledMatrix::from_dense(a, nb, nb, ProcessGrid::single());
    let failure = OnceLock::new();
    let mut dag = TaskDag::new();
    let tiles = TilePtr::new(&mut dag, &mut ta);
    emit_potrf(&mut dag, tiles, &failure);
    if dag.execute() == ExecOutcome::Cancelled {
        return Err(failure.into_inner().unwrap_or(LapackError::NotPositiveDefinite(0)));
    }
    // write the factored lower triangle back (upper stays untouched, like
    // the flat potrf)
    let tiling = ta.tiling();
    for j in 0..tiling.nt() {
        for i in j..tiling.nt() {
            let (r0, c0) = tiling.tile_origin(i, j);
            let tile = ta.tile(i, j);
            for jj in 0..tile.ncols() {
                for ii in 0..tile.nrows() {
                    if r0 + ii >= c0 + jj {
                        a[(r0 + ii, c0 + jj)] = tile[(ii, jj)];
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{geqrf, orgqr, potrf};
    use polar_blas::{add, norm};
    use polar_matrix::Norm;
    use polar_scalar::Complex64;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check_tiled_qr(a0: &Matrix<f64>, nb: usize, tol: f64) {
        let (m, n) = (a0.nrows(), a0.ncols());
        let k = m.min(n);
        let mut f = geqrf_tiled(a0, nb);
        let q = orgqr_tiled(&mut f, k);
        // orthonormality
        let mut qhq = Matrix::<f64>::zeros(k, k);
        gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.as_ref(), q.as_ref(), 0.0, qhq.as_mut());
        for j in 0..k {
            for i in 0..k {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (qhq[(i, j)] - expect).abs() <= tol,
                    "QhQ({i},{j}) = {} (m={m} n={n} nb={nb})",
                    qhq[(i, j)]
                );
            }
        }
        // reconstruction
        let r = f.extract_r();
        let mut qr = Matrix::<f64>::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, q.as_ref(), r.as_ref(), 0.0, qr.as_mut());
        let mut diff = qr;
        add(-1.0, a0.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        let scale: f64 = norm(Norm::Fro, a0.as_ref());
        assert!(err <= tol * (1.0 + scale), "||QR - A|| = {err} (m={m} n={n} nb={nb})");
    }

    #[test]
    fn tiled_qr_shapes_and_tile_sizes() {
        check_tiled_qr(&rand_mat(64, 64, 1), 16, 1e-12);
        check_tiled_qr(&rand_mat(64, 64, 2), 48, 1e-12); // m not multiple of nb
        check_tiled_qr(&rand_mat(96, 32, 3), 32, 1e-12); // tall
        check_tiled_qr(&rand_mat(37, 29, 4), 16, 1e-12); // prime-ish edges
        check_tiled_qr(&rand_mat(30, 30, 5), 64, 1e-12); // nb > n: single tile
    }

    #[test]
    fn tiled_stacked_matches_dense_tiled() {
        // the windowed task graph must produce the same factorization as
        // the dense one on [B; 0; I], `B` padded to whole tile rows (the
        // skipped tasks and the skipped rows of the identity's diagonal
        // tiles are exact no-ops); 40 x 40 and 37 x 20 at nb = 16 pad and
        // end on a narrower tile, the shapes at nb = 64 run two `ib` panels
        // per windowed `tsqrt` / `tsmqr`
        for (m, n, nb) in [
            (24usize, 24usize, 16),
            (40, 40, 16),
            (37, 20, 16),
            (32, 32, 16),
            (64, 64, 64),
            (128, 64, 64),
            (128, 128, 64),
            (100, 96, 64),
        ] {
            let b = rand_mat(m, n, 10 + n as u64);
            let top = m.div_ceil(nb) * nb;
            let padded = Matrix::vstack(&b, &Matrix::zeros(top - m, n));
            let w = Matrix::vstack(&padded, &Matrix::identity(n, n));
            let mut dense = geqrf_tiled(&w, nb);
            let mut windowed = geqrf_tiled_stacked(top, &w, nb);
            let marked = windowed.t.iter().filter(|t| t.upper_v2).count();
            assert_eq!(marked, n.div_ceil(nb), "m={m} n={n} nb={nb}");
            let qd = orgqr_tiled(&mut dense, n);
            let qw = orgqr_tiled(&mut windowed, n);
            let mut diff = qd.clone();
            add(-1.0, qw.as_ref(), 1.0, diff.as_mut());
            let err: f64 = norm(Norm::Fro, diff.as_ref());
            assert!(err == 0.0, "windowed Q differs: {err} (m={m} n={n})");
            // a top block that ends inside a tile marks nothing
            if top != m {
                let w = Matrix::vstack(&b, &Matrix::identity(n, n));
                let ragged = geqrf_tiled_stacked(m, &w, nb);
                assert!(ragged.t.iter().all(|t| !t.upper_v2), "m={m} n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn tiled_qr_complex() {
        let mut s = 3u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a0 = Matrix::from_fn(40, 24, |_, _| Complex64::new(next(), next()));
        let mut f = geqrf_tiled(&a0, 16);
        let q = orgqr_tiled(&mut f, 24);
        let r = f.extract_r();
        let one = Complex64::from_real(1.0);
        let mut qr = Matrix::<Complex64>::zeros(40, 24);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            one,
            q.as_ref(),
            r.as_ref(),
            Complex64::default(),
            qr.as_mut(),
        );
        let mut diff = qr;
        add(-one, a0.as_ref(), one, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(err < 1e-12, "||QR - A|| = {err}");
    }

    #[test]
    fn potrf_tiled_matches_flat() {
        for (n, nb) in [(48usize, 16usize), (50, 16), (33, 48)] {
            let b = rand_mat(n, n, 20 + n as u64);
            // SPD: B B^H + n I
            let mut spd = Matrix::<f64>::identity(n, n);
            for d in 0..n {
                spd[(d, d)] = n as f64;
            }
            gemm(Op::NoTrans, Op::ConjTrans, 1.0, b.as_ref(), b.as_ref(), 1.0, spd.as_mut());
            let mut flat = spd.clone();
            potrf(Uplo::Lower, &mut flat).unwrap();
            let mut tiled = spd.clone();
            potrf_tiled(Uplo::Lower, &mut tiled, nb).unwrap();
            // Cholesky with positive diagonal is unique: compare directly
            for j in 0..n {
                for i in j..n {
                    assert!(
                        (flat[(i, j)] - tiled[(i, j)]).abs() <= 1e-10 * (n as f64),
                        "L({i},{j}) flat={} tiled={} (n={n} nb={nb})",
                        flat[(i, j)],
                        tiled[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn potrf_tiled_reports_indefinite() {
        let n = 40;
        let mut a = Matrix::<f64>::identity(n, n);
        a[(25, 25)] = -1.0; // tile 1 with nb=16: local 1-based info 10 → global 26
        let err = potrf_tiled(Uplo::Lower, &mut a, 16).unwrap_err();
        match err {
            LapackError::NotPositiveDefinite(off) => assert_eq!(off, 26),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tiled_qr_matches_flat_reconstruction() {
        // same A, both algorithms: the Q R products must agree even though
        // the reflectors differ
        let a0 = rand_mat(48, 48, 99);
        let mut flat = a0.clone();
        let ff = geqrf(&mut flat);
        let qf = orgqr(&flat, &ff);
        let mut ft = geqrf_tiled(&a0, 16);
        let qt = orgqr_tiled(&mut ft, 48);
        // compare the orthogonal projectors Q Q^H (basis-independent)
        let mut pf = Matrix::<f64>::zeros(48, 48);
        gemm(Op::NoTrans, Op::ConjTrans, 1.0, qf.as_ref(), qf.as_ref(), 0.0, pf.as_mut());
        let mut pt = Matrix::<f64>::zeros(48, 48);
        gemm(Op::NoTrans, Op::ConjTrans, 1.0, qt.as_ref(), qt.as_ref(), 0.0, pt.as_mut());
        let mut diff = pf;
        add(-1.0, pt.as_ref(), 1.0, diff.as_mut());
        let err: f64 = norm(Norm::Fro, diff.as_ref());
        assert!(err < 1e-12, "projector mismatch {err}");
    }
}
