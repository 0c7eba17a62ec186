//! DAG-scheduled tile factorizations: one emitter per tile graph.
//!
//! The PLASMA/SLATE task shapes (`geqrt` → `unmqr` / `tsqrt` → `tsmqr` per
//! panel step; `potrf`/`trsm`/`herk`/`gemm` for Cholesky), each task
//! carrying a real tile-kernel body, executed by [`polar_runtime::TaskDag`]
//! on the work-stealing pool with panel-priority (lookahead) ordering.
//!
//! Each graph is written once, as a function that adds its tasks to a
//! *caller-owned* dag: [`emit_geqrf`], [`emit_unmqr`] (and [`emit_orgqr`],
//! which is identity tasks plus that sweep over the factorization's own
//! tiles), [`emit_potrf`]. The standalone drivers ([`geqrf_tiled`],
//! [`geqrf_tiles`] on a matrix already tiled, [`orgqr_tiled`],
//! [`potrf_tiled`]) are allocate → emit → execute
//! wrappers; the whole-solve graphs in
//! `polar-qdwh` call the same emitters between their own assembly and
//! update tasks, so a kernel change lands in every graph at once. The
//! emitters also run without storage ([`TilePtr::shape`],
//! [`QrPtr::shape`]): the dag then converts to the body-less
//! [`polar_runtime::TaskGraph`] the simulator schedules and the
//! communication meter reads, so those see the graph the executor runs.
//! Every panel step starts with [`TaskDag::barrier`], which only the
//! simulator's fork-join mode reads.
//!
//! A [`TiledQr`] built with [`QrStructure::TriangularTop`] exploits the
//! structure of a QR-based step's `[s R; d I]`, `R` the upper triangular
//! factor of the iterate: each panel is only the identity's tile rows up to
//! the fill boundary, so tasks on `R`'s zeros and on pristine identity tile
//! rows are never emitted. [`QrPtr::over`] names the `T` factors of a
//! factorization in place of a matrix a graph already names (the iterate).
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
use std::ops::RangeInclusive;
use std::sync::OnceLock;

/// Default tile size for the DAG-scheduled drivers. The paper tunes `nb =
/// 192` CPU / `320` GPU; here 256 measured best on the kernels_perf sweep —
/// big enough that the trailing `tsmqr`/`gemm` tasks run at
/// packed-microkernel speed, small enough that a 1024-square problem still
/// yields a 4x4 tile grid for the DAG to overlap.
pub fn default_tile_nb() -> usize {
    256
}

/// Lanes [`auto_tile_nb`] sizes the tile grid for: the pool width every
/// benchmark workload runs at on the 2-core host its numbers were recorded
/// on. A constant, not the pool's width, so that a solve's tile size — and
/// with it every bit of its result — is a function of its shape alone; a
/// whole-solve graph sizes its number of term workspaces by it too.
pub const TILE_LANES: usize = 2;

/// Tile size for an `n`-column problem: the largest of 256, 192 and 128
/// that gives at least two tile columns per lane of [`TILE_LANES`], else
/// 128. 256 measures best on the whole-solve sweep (even at one worker,
/// where tiled trsm/herk decompose into gemm-rich tasks); a smaller problem
/// trades tile size for columns the DAG can overlap. Never below 128,
/// whatever `n`: a whole-solve graph clamps its tile to the matrix itself,
/// and pads the `R` of a stacked `[R; I]` so that `I` starts on a tile
/// boundary at any size.
pub fn auto_tile_nb(n: usize) -> usize {
    let mut nb = default_tile_nb();
    while nb > 128 && n.div_ceil(nb) < 2 * TILE_LANES {
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

    /// The first `m` rows as a matrix of their own, the same tiles by the
    /// same names: how a workspace lends its top block out. A stored tile
    /// of the last tile row may have rows past `m`, which a body leaves
    /// alone: it works on `tiling().tile_rows(i)` rows of tile row `i`.
    pub fn top(self, m: usize) -> Self {
        let t = self.tiling;
        assert!(m <= t.m(), "TilePtr::top: {m} rows of {}", t.m());
        Self { tiling: Tiling::new(m, t.n(), t.mb(), t.nb()), ..self }
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

/// The zeros a [`TiledQr`] knows its matrix to have, which decide the tasks
/// its graphs get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QrStructure {
    /// None: panel `k` reaches every tile row below the diagonal.
    Dense,
    /// `[R; D]`: `R` the first `top_rows` rows, upper triangular with a real
    /// diagonal (a QR's `R` factor, its last tile row padded with zero rows),
    /// and `D` diagonal. `top_rows` is a whole number of tile rows and at
    /// least one per tile column. Panel `k`'s diagonal tile is then already
    /// triangular with a real diagonal, so its `geqrt` and `unmqr` would be
    /// exact no-ops, and so would the `tsqrt` / `tsmqr` of `R`'s zero tiles
    /// below it and of `D`'s tile rows past its fill boundary: the panel is
    /// `D`'s tile rows up to that boundary. The last of them is upper
    /// triangular and runs the row-windowed kernels ([`TileT::upper_v2`]),
    /// and no tile kernel mixes rows of `R`'s scale with rows of `D`'s, which
    /// costs the tile QR its row-wise accuracy when the two are far apart.
    TriangularTop { top_rows: usize },
}

/// The `T` factors of a tile QR, apart from the tiles it factors in place:
/// slot `i + k*mt` holds the `geqrt` T for `i == k`, the `tsqrt` T for `i >
/// k`. Preallocated as a slab so task bodies never allocate; slots outside
/// the factorization's row window stay empty (`k() == 0`).
#[derive(Clone)]
pub struct TFactors<S: Scalar> {
    t: Vec<TileT<S>>,
    structure: QrStructure,
}

impl<S: Scalar> TFactors<S> {
    /// Bytes the slab holds.
    pub fn bytes(&self) -> usize {
        self.t.iter().map(|t| t.t.nrows() * t.t.ncols()).sum::<usize>() * std::mem::size_of::<S>()
    }

    /// For factoring a matrix of the given tiling and structure.
    pub fn zeros(tiling: Tiling, structure: QrStructure) -> Self {
        let (mt, kt) = (tiling.mt(), tiling.mt().min(tiling.nt()));
        let ib = DEFAULT_BLOCK.min(tiling.nb());
        // under a triangular top `D`'s tile rows start at `d0`, and the last
        // one panel `k` reaches is on `D`'s diagonal: upper triangular, and
        // untouched until then
        let d0 = match structure {
            QrStructure::Dense => None,
            QrStructure::TriangularTop { top_rows } => {
                let whole = top_rows % tiling.mb() == 0 && tiling.mb() == tiling.nb();
                assert!(
                    whole && top_rows / tiling.mb() >= tiling.nt(),
                    "TiledQr: a triangular top of {top_rows} rows is not a whole tile row per column"
                );
                Some(top_rows / tiling.mb())
            }
        };
        // slot (i, k) needs ib x kk storage, kk the reflector count of
        // panel k; slots outside the panel's tasks are never written and get
        // zero-width stubs
        let mut t = Vec::with_capacity(mt * kt);
        for k in 0..kt {
            let kk = tiling.tile_rows(k).min(tiling.tile_cols(k));
            let rows = panel_rows(tiling, structure, k);
            for i in 0..mt {
                let written = rows.contains(&i) || (i == k && structure == QrStructure::Dense);
                let mut tt = TileT::new(ib, if written { kk } else { 0 });
                tt.upper_v2 = d0.is_some_and(|d0| i == d0 + k);
                t.push(tt);
            }
        }
        Self { t, structure }
    }
}

/// A tile QR factorization in progress or done: the matrix being factored
/// in place plus the per-tile compact `T` factors needed to apply or form
/// `Q`. [`geqrf_tiled`] returns one; a whole-solve graph allocates one with
/// [`TiledQr::zeros`], fills `a` from its own tasks and hands
/// [`TiledQr::in_dag`] to [`emit_geqrf`] / [`emit_orgqr`] / [`emit_unmqr`].
/// Under a triangular top the one buffer holds the stack, its factored
/// tiles, then its explicit `Q` ([`emit_orgqr`] forms it in place).
pub struct TiledQr<S: Scalar> {
    /// Packed tiles: `R` on and above the tile diagonal, `geqrt` reflector
    /// tails below inside diagonal tiles, `tsqrt` `V2` blocks below the
    /// tile diagonal; after [`emit_orgqr`], `Q`.
    pub a: TiledMatrix<S>,
    t: TFactors<S>,
}

impl<S: Scalar> TiledQr<S> {
    /// Workspace for factoring a matrix of the given tiling and structure,
    /// all zero.
    pub fn zeros(tiling: Tiling, structure: QrStructure) -> Self {
        let a = TiledMatrix::zeros(tiling, ProcessGrid::single());
        Self { a, t: TFactors::zeros(tiling, structure) }
    }

    /// Bytes the packed tiles and the `T` factors hold.
    pub fn bytes(&self) -> usize {
        let tiling = self.a.tiling();
        tiling.m() * tiling.n() * std::mem::size_of::<S>() + self.t.bytes()
    }

    /// Register the factorization's storage with `dag`.
    pub fn in_dag<'a>(&'a mut self, dag: &mut TaskDag<'_>) -> QrPtr<'a, S> {
        QrPtr::shape(dag, self.a.tiling(), self.t.structure).bind(self)
    }

    /// The upper-triangular `k x n` `R` factor.
    pub fn extract_r(&self) -> Matrix<S> {
        packed_r(&self.a)
    }
}

/// The upper-triangular `k x n` `R` factor held by the packed tiles `a` of
/// a tile QR.
pub fn packed_r<S: Scalar>(a: &TiledMatrix<S>) -> Matrix<S> {
    let tiling = a.tiling();
    let k = tiling.m().min(tiling.n());
    let mut r = Matrix::<S>::zeros(k, tiling.n());
    for kb in 0..tiling.mt().min(tiling.nt()) {
        for jb in kb..tiling.nt() {
            let (r0, c0) = tiling.tile_origin(kb, jb);
            let tile = a.tile(kb, jb);
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

/// A [`TiledQr`] as the tasks of one dag see it: the matrix (`a`, public
/// so the owner's tasks can fill it) and, private to the emitters, the
/// `T`-factor slab under the same contract — shape first, storage by
/// [`QrPtr::bind`], like [`TilePtr`]. The factorization is of whatever
/// matrix `a` names: a graph that factors two matrices of one tiling in
/// turn points `a` at each and reuses the one slab.
#[derive(Clone, Copy)]
pub struct QrPtr<'a, S: Scalar> {
    pub a: TilePtr<'a, S>,
    t: Slab<'a, TileT<S>>,
    structure: QrStructure,
}

impl<'a, S: Scalar> QrPtr<'a, S> {
    /// Register a factorization of a matrix of the given tiling and
    /// structure with `dag`, without storage.
    pub fn shape(dag: &mut TaskDag<'_>, tiling: Tiling, structure: QrStructure) -> Self {
        let a = TilePtr::shape(dag, tiling);
        Self::over(dag, a, structure)
    }

    /// Register the `T` factors of a factorization, in place, of the matrix
    /// `a` names with `dag`, without storage for them ([`QrPtr::bind_t`]).
    pub fn over(dag: &mut TaskDag<'_>, a: TilePtr<'a, S>, structure: QrStructure) -> Self {
        let (mt, kt) = (a.tiling.mt(), a.tiling.mt().min(a.tiling.nt()));
        Self { a, t: Slab::shape(dag, mt, mt * kt, a.tiles.bytes), structure }
    }

    /// The same names in the dag, over the storage of `f`.
    pub fn bind<'b>(self, f: &'b mut TiledQr<S>) -> QrPtr<'b, S> {
        assert_eq!(f.t.structure, self.structure, "QrPtr::bind: storage pruned differently");
        QrPtr { a: self.a.bind(&mut f.a), t: self.t.bind(&mut f.t.t), structure: self.structure }
    }

    /// The same names in the dag, the `T` factors over `t`.
    pub fn bind_t(self, t: &'a mut TFactors<S>) -> Self {
        assert_eq!(t.structure, self.structure, "QrPtr::bind_t: storage pruned differently");
        Self { t: self.t.bind(&mut t.t), ..self }
    }

    /// The tile rows panel `k` annihilates.
    fn rows(&self, k: usize) -> RangeInclusive<usize> {
        panel_rows(self.a.tiling(), self.structure, k)
    }
}

/// `nb^3` in real flops of `S` arithmetic (a complex multiply-add is four
/// real ones): the unit a tile task's analytic flops are quoted in. A task
/// is the counted kernel of its class, so the unit carries the type.
pub fn tile_nb3<S: Scalar>(nb: usize) -> f64 {
    flops::type_factor(S::IS_COMPLEX) * (nb as f64).powi(3)
}

/// The tile rows below the diagonal that panel `k` of a factorization of
/// the given structure annihilates: all of them when dense, under a
/// triangular top `D`'s from its first to its fill boundary.
fn panel_rows(tiling: Tiling, structure: QrStructure, k: usize) -> RangeInclusive<usize> {
    let mt = tiling.mt();
    match structure {
        QrStructure::Dense => k + 1..=mt - 1,
        QrStructure::TriangularTop { top_rows } => {
            let last_col = ((k + 1) * tiling.nb()).min(tiling.n());
            top_rows / tiling.mb()..=((top_rows + last_col - 1) / tiling.mb()).min(mt - 1)
        }
    }
}

/// Add the tile QR of `f.a` to `dag` (PLASMA/SLATE `geqrf`: `geqrt` →
/// `unmqr` sweep, then `tsqrt` → `tsmqr` per sub-diagonal tile row), in
/// place, with the `T` factors going to `f`'s slab. Under a structure, only
/// the tile rows it leaves a panel get tasks. The read/write sets
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
        if f.structure == QrStructure::Dense {
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
                    |(v, t, c)| unmqr_tile_blocked(Op::ConjTrans, v, t, c.as_mut()),
                );
            }
        }
        // annihilate sub-diagonal tiles (only rows with reflector support
        // when the structure is known)
        for i in f.rows(k) {
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
                    |(v2, t, a2, a1)| tsmqr_blocked(Op::ConjTrans, v2, t, a1.as_mut(), a2.as_mut()),
                );
            }
        }
    }
}

/// Add the formation of the explicit thin `Q` of the factorization `f` to
/// `dag`, over `f`'s own tiles (LAPACK `orgqr`, which forms `Q` over the
/// reflectors): the triangular top's tile rows are reset to the thin identity
/// by per-tile tasks — its `R` is dead once the factorization is done —
/// then [`emit_unmqr`] applies the stored reflectors to `f.a` itself. `D`'s
/// tiles past a panel's fill boundary are already `Q`'s zeros there, and
/// each `V2` tile becomes `Q`'s tile in its place, so `f.a` holds `Q` and
/// nothing else holds it: a caller that reads `R` reads it first. Under
/// [`QrStructure::TriangularTop`] only.
pub fn emit_orgqr<'a, S: Scalar>(dag: &mut TaskDag<'a>, f: QrPtr<'a, S>) {
    let QrStructure::TriangularTop { top_rows } = f.structure else {
        panic!("emit_orgqr: Q in place under a triangular top only");
    };
    emit_identity(dag, f.a, top_rows / f.a.tiling().mb());
    emit_unmqr(dag, f, f.a, true);
}

/// Add per-tile tasks resetting the first `rows` tile rows of `q` to the
/// thin identity.
fn emit_identity<'a, S: Scalar>(dag: &mut TaskDag<'a>, q: TilePtr<'a, S>, rows: usize) {
    let nb = q.tiling().nb() as f64;
    dag.barrier();
    for j in 0..q.tiling().nt() {
        for i in 0..rows {
            dag.add_on(KernelKind::Geadd, 2, nb * nb, q.write(i, j), move |t| {
                if i == j {
                    t.set_identity();
                } else {
                    t.fill(S::ZERO);
                }
            });
        }
    }
}

/// Add `C := Q C` to `dag`, `Q` the factorization `f`'s and `c` of the
/// same row tiling as `f.a`: the stored reflectors applied with the reverse
/// `tsmqr`/`unmqr` sweep. The reads of `f` chain the sweep behind an
/// [`emit_geqrf`] in the same dag. `c` may be the top block of a larger
/// matrix ([`TilePtr::top`]), whose stored last tile row is taller than
/// `f.a`'s: every body works on `c.tiling().tile_rows(i)` rows of tile row
/// `i`, the rows of `f.a`'s tile. With `upper`, `C` is zero below its tile
/// diagonal (the identity [`emit_orgqr`] starts from), and panel `k` leaves
/// the tile columns left of `k` alone: it would map their zeros to zeros.
///
/// `c` may be `f.a` itself, under a triangular top and with `upper`
/// ([`emit_orgqr`]): `C`'s tile `(i, k)` is then the one holding `V2(i,
/// k)`, which no later panel reads and no earlier one wrote, so it is zero
/// in a `C` of its own when panel `k` first touches it. In row `i` of panel
/// `k` the tasks on columns right of `k`, which read `V2(i, k)`, go first;
/// the task on column `k` copies `V2` aside, zeroes the tile and runs the
/// same kernel on it. Every tile sees the operations it would in a `C` of
/// its own, on the same values in the same order.
pub fn emit_unmqr<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    f: QrPtr<'a, S>,
    c: TilePtr<'a, S>,
    upper: bool,
) {
    let (w, t) = (f.a, f.t);
    let tiling = w.tiling();
    let kt = tiling.mt().min(tiling.nt());
    let ct = c.tiling();
    let cnt = ct.nt();
    assert_eq!(ct.mt(), tiling.mt(), "emit_unmqr: C and the factored matrix differ in tile rows");
    let own = c.tiles.id == w.tiles.id;
    assert!(
        !own || (upper && c.tiles.row0 == w.tiles.row0 && f.structure != QrStructure::Dense),
        "emit_unmqr: C over the factorization's own tiles is an upper C under a triangular top"
    );
    let nb3 = tile_nb3::<S>(tiling.nb());
    for k in (0..kt).rev() {
        dag.barrier();
        let step = (k + 1) as i32 * 4;
        let cols = if upper { k } else { 0 }..cnt;
        // in place, a row's task on V2's own tile goes last and reads it there
        let last = own.then_some(k);
        for i in f.rows(k).rev() {
            for j in cols.clone().filter(|&j| Some(j) != last).chain(last) {
                let v2 = (Some(j) != last).then(|| w.read(i, k));
                let access = (v2, t.read(i, k), c.write(i, j), c.write(k, j));
                let (r2, r1) = (ct.tile_rows(i), ct.tile_rows(k));
                dag.add_on(KernelKind::Tsmqr, step, 4.0 * nb3, access, move |(v2, t, c2, c1)| {
                    let aside;
                    let v2 = match v2 {
                        Some(v2) => v2,
                        None => {
                            aside = c2.clone();
                            c2.fill(S::ZERO);
                            &aside
                        }
                    };
                    let (c1, c2) =
                        (c1.view_mut(0, 0, r1, c1.ncols()), c2.view_mut(0, 0, r2, c2.ncols()));
                    tsmqr_blocked(Op::NoTrans, v2, t, c1, c2);
                });
            }
        }
        if f.structure == QrStructure::Dense {
            let rk = ct.tile_rows(k);
            for j in cols {
                dag.add_on(
                    KernelKind::Unmqr,
                    step + 1,
                    2.0 * nb3,
                    (w.read(k, k), t.read(k, k), c.write(k, j)),
                    move |(v, t, c)| {
                        let c = c.view_mut(0, 0, rk, c.ncols());
                        unmqr_tile_blocked(Op::NoTrans, v, t, c)
                    },
                );
            }
        }
    }
}

/// Add the right-looking tile Cholesky (`potrf`/`trsm`/`herk`/`gemm`) of
/// the lower triangle of the square tiled matrix `a` to `dag`, in place.
/// A diagonal tile that is not positive definite stores the error — the
/// leading-minor offset globalized like LAPACK `info` — in `fail` and
/// cancels the dag, so an [`ExecOutcome::Cancelled`] with `fail` set
/// means this factorization broke down. So does a diagonal tile with a
/// pivot `l_jj` below `floor`: [`LapackError::PivotBelowFloor`] names the
/// first such row. Since `sigma_min(L) <= min_j l_jj`, a caller that only
/// wants a factor whose smallest singular value could reach `floor` stops
/// there; a floor of 0 is the plain factorization.
pub fn emit_potrf<'a, S: Scalar>(
    dag: &mut TaskDag<'a>,
    a: TilePtr<'a, S>,
    fail: &'a OnceLock<LapackError>,
    floor: S::Real,
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
            let factored = crate::potrf(Uplo::Lower, akk).and_then(|()| {
                match (0..akk.ncols()).find(|&j| akk[(j, j)].abs() < floor) {
                    Some(j) => Err(LapackError::PivotBelowFloor(k * nb + j)),
                    None => Ok(()),
                }
            });
            match factored {
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
    structure: QrStructure,
) -> TiledQr<S> {
    let mut a = TiledMatrix::from_dense(a_dense, nb, nb, ProcessGrid::single());
    let t = geqrf_tiles(&mut a, structure);
    TiledQr { a, t }
}

/// [`geqrf_tiled`] of a matrix already tiled: its tiles factored in place
/// (`R` and the reflectors, as [`TiledQr::a`] holds them; [`packed_r`]
/// reads `R`) by [`emit_geqrf`] in a dag of its own, the `T` factors
/// returned.
pub fn geqrf_tiles<S: Scalar>(a: &mut TiledMatrix<S>, structure: QrStructure) -> TFactors<S> {
    let tiling = a.tiling();
    let (m, n) = (tiling.m(), tiling.n());
    let _obs = polar_obs::kernel_span(
        polar_obs::KernelClass::Geqrf,
        "geqrf_tiled",
        flops::type_factor(S::IS_COMPLEX) * flops::geqrf(m, n),
        [m, n, tiling.nb()],
    );
    let mut t = TFactors::zeros(tiling, structure);
    let mut dag = TaskDag::new();
    let ap = TilePtr::new(&mut dag, a);
    let f = QrPtr::over(&mut dag, ap, structure).bind_t(&mut t);
    emit_geqrf(&mut dag, f);
    // QR bodies never cancel; guard against a partially-factored result
    // if the executor ever grows new outcomes.
    let outcome = dag.execute();
    debug_assert_eq!(outcome, ExecOutcome::Completed);
    t
}

/// DAG-scheduled tile QR factorization (PLASMA/SLATE `geqrf`): cuts `a`
/// into `nb x nb` tiles and factors them with the `geqrt`/`unmqr`/`tsqrt`/
/// `tsmqr` task graph on the work-stealing pool. A tile is at least 8 wide,
/// or as wide as `a` if that is less: a whole-solve graph's tiling.
pub fn geqrf_tiled<S: Scalar>(a: &Matrix<S>, nb: usize) -> TiledQr<S> {
    geqrf_tiled_inner(a, nb.max(8.min(a.ncols()).max(1)), QrStructure::Dense)
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
    emit_identity(&mut dag, qp, qp.tiling().mt());
    emit_unmqr(&mut dag, fp, qp, true);
    let outcome = dag.execute();
    debug_assert_eq!(outcome, ExecOutcome::Completed);
    q.to_dense()
}

/// DAG-scheduled tile Cholesky (right-looking `potrf`/`trsm`/`herk`/`gemm`
/// task graph). Lower triangle only — the QDWH Cholesky iteration's case.
/// On failure the executor cancels outstanding tasks and the leading-minor
/// offset is reported like LAPACK `info`.
pub fn potrf_tiled<S: Scalar>(uplo: Uplo, a: &mut Matrix<S>, nb: usize) -> Result<(), LapackError> {
    assert_eq!(uplo, Uplo::Lower, "potrf_tiled: only the lower triangle is factored");
    assert_eq!(a.nrows(), a.ncols(), "potrf_tiled: matrix must be square");
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
    emit_potrf(&mut dag, tiles, &failure, S::Real::ZERO);
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
    use polar_scalar::{Complex32, Complex64};

    #[test]
    fn auto_tile_nb_depends_on_the_shape_alone() {
        let sizes = [64, 200, 512, 768, 1024, 1536];
        let picks = || sizes.map(auto_tile_nb);
        assert_eq!(picks(), [128, 128, 128, 192, 256, 256]);
        for workers in [1, 8] {
            assert_eq!(rayon::ThreadPool::new(workers).install(picks), picks(), "{workers}");
        }
    }

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

    fn rand_scalar_mat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
        let (re, im) = (rand_mat(m, n, seed), rand_mat(m, n, seed + 1000));
        Matrix::from_fn(m, n, |i, j| {
            S::from_parts(S::Real::from_f64(re[(i, j)]), S::Real::from_f64(im[(i, j)]))
        })
    }

    /// `[s R; 0; d I]`, `R` the `n x n` factor of a tile QR (upper
    /// triangular, real diagonal) padded to whole tile rows, and the row
    /// count of its top block.
    fn triangle_stack<S: Scalar>(n: usize, nb: usize, seed: u64) -> (Matrix<S>, usize) {
        let r = geqrf_tiled(&rand_scalar_mat::<S>(n + 9, n, seed), nb).extract_r();
        let top = n.div_ceil(nb) * nb;
        let s = S::from_f64(1e4);
        let w = Matrix::from_fn(top + n, n, |i, j| match i {
            _ if i < n => s * r[(i, j)],
            _ if i >= top && i - top == j => S::from_f64(0.5),
            _ => S::ZERO,
        });
        (w, top)
    }

    fn same_entries<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> bool {
        (0..a.ncols()).all(|j| (0..a.nrows()).all(|i| a[(i, j)] == b[(i, j)]))
    }

    /// On `[R; d I]` the triangular-top graph factors only `D`'s tile rows,
    /// and what it skips are exact no-ops: its packed tiles, `T` slots and
    /// `Q` are the dense graph's, entry for entry (the dense graph's slots
    /// the triangular one never writes hold zeros), though the one tile of
    /// `D` each panel reaches last runs the row-windowed kernels. Aligned
    /// `n`, and ragged ones whose last `R` tile row is padded and whose last
    /// tile is narrower; at nb = 64 a windowed `tsqrt` / `tsmqr` runs two
    /// `ib` panels.
    fn triangular_top_matches_dense<S: Scalar>() {
        let shapes = [(20usize, 16usize), (24, 16), (32, 16), (40, 16), (37, 16), (64, 64)];
        for (n, nb) in shapes.into_iter().chain([(96, 64), (100, 64), (128, 64)]) {
            let (w, top) = triangle_stack::<S>(n, nb, n as u64);
            let mut dense = geqrf_tiled(&w, nb);
            let mut tri = geqrf_tiled_inner(&w, nb, QrStructure::TriangularTop { top_rows: top });
            let case = format!("{} n={n} nb={nb}", S::TYPE_TAG);
            let marked = tri.t.t.iter().filter(|t| t.upper_v2).count();
            assert_eq!(marked, n.div_ceil(nb), "{case}");
            assert!(same_entries(&tri.a.to_dense(), &dense.a.to_dense()), "{case}: packed tiles");
            for (slot, (t, d)) in tri.t.t.iter().zip(&dense.t.t).enumerate() {
                let same = match t.k() {
                    0 => d.t.as_slice().iter().all(|&v| v == S::ZERO),
                    _ => same_entries(&t.t, &d.t),
                };
                assert!(same, "{case}: T slot {slot}");
            }
            let qd = orgqr_tiled(&mut dense, n);
            let qt = orgqr_tiled(&mut tri, n);
            assert!(same_entries(&qt, &qd), "{case}: Q");
            // and it is the smaller graph: no geqrt, no unmqr
            assert!(tri.t.t.iter().step_by(tri.a.tiling().mt() + 1).all(|t| t.k() == 0), "{case}");
        }
    }

    #[test]
    fn triangular_top_qr_matches_the_dense_graph() {
        triangular_top_matches_dense::<f64>();
        triangular_top_matches_dense::<Complex64>();
    }

    /// `Q` of `[R; I]` is block upper triangular in each of its two blocks
    /// wherever the sweep never reached: `Q1`'s tiles `(ti, kc < ti)` and
    /// `Q2`'s `(tj, kc < tj)` are exact zeros — the tiles a product `Q1 Q2^H`
    /// may skip.
    #[test]
    fn stacked_q_is_exactly_zero_below_its_block_diagonals() {
        for (n, nb) in [(48usize, 16usize), (20, 16), (100, 32)] {
            let (w, top) = triangle_stack::<f64>(n, nb, 3 + n as u64);
            let tri = QrStructure::TriangularTop { top_rows: top };
            let q = orgqr_tiled(&mut geqrf_tiled_inner(&w, nb, tri), n);
            for (tj, kc) in (0..n.div_ceil(nb)).flat_map(|t| (0..t).map(move |kc| (t, kc))) {
                let cols = kc * nb..(kc + 1) * nb;
                let rows = |t: usize| t * nb..((t + 1) * nb).min(n);
                for (i, j) in rows(tj).flat_map(|i| cols.clone().map(move |j| (i, j))) {
                    assert_eq!(q[(top + i, j)], 0.0, "n={n}: Q2 ({i}, {j})");
                    assert_eq!(q[(i, j)], 0.0, "n={n}: Q1 ({i}, {j})");
                }
            }
        }
    }

    /// Applying the reflectors to a block upper triangular `C` changes no
    /// entry when panel `k` skips the tile columns left of `k`: the
    /// identity [`emit_orgqr`] fills, and a general one.
    #[test]
    fn unmqr_on_an_upper_c_skips_only_zeros() {
        let (m, n, nb) = (70usize, 40usize, 16usize);
        let mut f = geqrf_tiled(&rand_mat(m, n, 5), nb);
        let c0 = rand_mat(m, n, 6);
        let c0 = Matrix::from_fn(m, n, |i, j| if i / nb > j / nb { 0.0 } else { c0[(i, j)] });
        let applied = |f: &mut TiledQr<f64>, upper: bool| {
            let mut c = TiledMatrix::from_dense(&c0, nb, nb, ProcessGrid::single());
            let mut dag = TaskDag::new();
            let (fp, cp) = (f.in_dag(&mut dag), TilePtr::new(&mut dag, &mut c));
            emit_unmqr(&mut dag, fp, cp, upper);
            assert_eq!(dag.execute(), ExecOutcome::Completed);
            c.to_dense()
        };
        let (full, upper) = (applied(&mut f, false), applied(&mut f, true));
        assert!(same_entries(&full, &upper));
        // Q C = C is no application at all
        assert!(!same_entries(&full, &c0));
    }

    /// `Q` formed in place over a triangular top's own tiles ([`emit_orgqr`])
    /// is the one the identity and [`emit_unmqr`] form in a matrix of their
    /// own ([`orgqr_tiled`]), bit for bit, in every type: `n` a whole number
    /// of tiles, ragged, and narrower than one tile; every panel ends on its
    /// row-windowed tile, which at nb = 64 runs two `ib` panels.
    fn q_in_place_matches_q_aside<S: Scalar>() {
        let bits = |a: &Matrix<S>| -> Vec<[u64; 2]> {
            let parts = |x: &S| [x.re().to_f64().to_bits(), x.im().to_f64().to_bits()];
            a.as_slice().iter().map(parts).collect()
        };
        for (n, nb) in [(48usize, 16usize), (37, 16), (10, 16), (100, 64), (128, 64)] {
            let (w, top) = triangle_stack::<S>(n, nb, 11 + n as u64);
            let mut f = geqrf_tiled_inner(&w, nb, QrStructure::TriangularTop { top_rows: top });
            let case = format!("{} n={n} nb={nb}", S::TYPE_TAG);
            assert_eq!(f.t.t.iter().filter(|t| t.upper_v2).count(), n.div_ceil(nb), "{case}");
            let aside = orgqr_tiled(&mut f, n);
            let mut dag = TaskDag::new();
            let fp = f.in_dag(&mut dag);
            emit_orgqr(&mut dag, fp);
            assert_eq!(dag.execute(), ExecOutcome::Completed);
            assert_eq!(bits(&f.a.to_dense()), bits(&aside), "{case}");
        }
    }

    #[test]
    fn q_in_place_is_q_aside_bit_for_bit() {
        q_in_place_matches_q_aside::<f32>();
        q_in_place_matches_q_aside::<f64>();
        q_in_place_matches_q_aside::<Complex32>();
        q_in_place_matches_q_aside::<Complex64>();
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

    /// `spd` factored by [`emit_potrf`] at tile size `nb` under `floor`:
    /// the factored tiles and the error the graph stopped on, if it did.
    fn potrf_floored(
        spd: &Matrix<f64>,
        nb: usize,
        floor: f64,
    ) -> (TiledMatrix<f64>, Option<LapackError>) {
        let mut t = TiledMatrix::from_dense(spd, nb, nb, ProcessGrid::single());
        let failure = OnceLock::new();
        let mut dag = TaskDag::new();
        let tiles = TilePtr::new(&mut dag, &mut t);
        emit_potrf(&mut dag, tiles, &failure, floor);
        let outcome = dag.execute();
        let failure = failure.into_inner();
        assert_eq!(outcome == ExecOutcome::Cancelled, failure.is_some());
        (t, failure)
    }

    /// SPD with Cholesky pivots `pivots` (`L = diag(pivots) + strictly lower
    /// noise`, `A = L L^T`).
    fn spd_with_pivots(pivots: &[f64], seed: u64) -> Matrix<f64> {
        let n = pivots.len();
        let noise = rand_mat(n, n, seed);
        let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => pivots[i],
            std::cmp::Ordering::Greater => 0.1 * noise[(i, j)],
            std::cmp::Ordering::Less => 0.0,
        });
        let mut a = Matrix::<f64>::zeros(n, n);
        gemm(Op::NoTrans, Op::ConjTrans, 1.0, l.as_ref(), l.as_ref(), 0.0, a.as_mut());
        a
    }

    #[test]
    fn potrf_floor_cancels_at_the_first_pivot_below_it() {
        let (n, nb) = (40usize, 16usize);
        // pivots 1 except 0.01 at rows 21 and 33: the first lies in the
        // second tile, row 5 of it
        let mut pivots = vec![1.0; n];
        pivots[21] = 0.01;
        pivots[33] = 0.01;
        let spd = spd_with_pivots(&pivots, 5);
        let (_, failure) = potrf_floored(&spd, nb, 0.1);
        assert_eq!(failure, Some(LapackError::PivotBelowFloor(21)));
        // accepted exactly when every pivot is at least the floor: the
        // factor's own smallest pivot is the threshold
        let (l, failure) = potrf_floored(&spd, nb, 0.0);
        assert_eq!(failure, None);
        let dense = l.to_dense();
        let smallest = (0..n).map(|j| dense[(j, j)]).fold(f64::MAX, f64::min);
        let (_, at) = potrf_floored(&spd, nb, smallest);
        assert_eq!(at, None, "a pivot equal to the floor holds");
        let (_, above) = potrf_floored(&spd, nb, smallest * (1.0 + 1e-15));
        assert!(matches!(above, Some(LapackError::PivotBelowFloor(21 | 33))), "{above:?}");
        // an indefinite matrix still reports its leading minor
        let mut indefinite = Matrix::<f64>::identity(n, n);
        indefinite[(25, 25)] = -1.0;
        let (_, failure) = potrf_floored(&indefinite, nb, 0.5);
        assert_eq!(failure, Some(LapackError::NotPositiveDefinite(26)));
    }

    /// A floor of 0 (or any below every pivot) is the plain factorization:
    /// the same tasks, tile sets and edges, and the bits of the sequential
    /// right-looking tile algorithm, which applies each tile's updates in
    /// the panel order the dag's write chains impose.
    #[test]
    fn potrf_floor_of_zero_is_the_plain_tile_cholesky() {
        let (n, nb) = (50usize, 16usize);
        let b = rand_mat(n, n, 77);
        let mut spd = Matrix::<f64>::identity(n, n);
        gemm(Op::NoTrans, Op::ConjTrans, 1.0, b.as_ref(), b.as_ref(), n as f64, spd.as_mut());
        let graph = |floor: f64| {
            let failure = OnceLock::new();
            let mut dag = TaskDag::new();
            let tiles = TilePtr::<f64>::shape(&mut dag, Tiling::new(n, n, nb, nb));
            emit_potrf(&mut dag, tiles, &failure, floor);
            dag.into_graph()
        };
        let (plain, floored) = (graph(0.0), graph(1e-3));
        assert_eq!(plain.len(), floored.len());
        for (p, f) in plain.tasks.iter().zip(&floored.tasks) {
            assert_eq!(
                (p.kind, p.flops, &p.reads, &p.writes),
                (f.kind, f.flops, &f.reads, &f.writes)
            );
            assert_eq!(plain.preds(p.id), floored.preds(f.id));
        }

        let mut seq = TiledMatrix::from_dense(&spd, nb, nb, ProcessGrid::single());
        let nt = seq.nt();
        for k in 0..nt {
            potrf(Uplo::Lower, seq.tile_mut(k, k)).unwrap();
            let akk = seq.tile(k, k).clone();
            for i in k + 1..nt {
                let aik = seq.tile_mut(i, k);
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Op::ConjTrans,
                    Diag::NonUnit,
                    1.0,
                    akk.as_ref(),
                    aik.as_mut(),
                );
            }
            for i in k + 1..nt {
                let aik = seq.tile(i, k).clone();
                herk(
                    Uplo::Lower,
                    Op::NoTrans,
                    -1.0,
                    aik.as_ref(),
                    1.0,
                    seq.tile_mut(i, i).as_mut(),
                );
                for j in k + 1..i {
                    let ajk = seq.tile(j, k).clone();
                    let aij = seq.tile_mut(i, j);
                    gemm(
                        Op::NoTrans,
                        Op::ConjTrans,
                        -1.0,
                        aik.as_ref(),
                        ajk.as_ref(),
                        1.0,
                        aij.as_mut(),
                    );
                }
            }
        }
        for floor in [0.0, 1e-3] {
            let (dag, failure) = potrf_floored(&spd, nb, floor);
            assert_eq!(failure, None);
            for j in 0..nt {
                for i in j..nt {
                    let (d, s) = (dag.tile(i, j), seq.tile(i, j));
                    let same = d
                        .as_slice()
                        .iter()
                        .zip(s.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "tile ({i}, {j}) at floor {floor}");
                }
            }
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
