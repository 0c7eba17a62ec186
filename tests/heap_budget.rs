//! The heap a solve holds: its peak live heap against the buffers the
//! workspace rule (DESIGN.md §12) says it holds — the iterate, its spare,
//! the term slots, the `T` slabs of the QR factorizations, the row slots of
//! `V`, the start's Gram matrix, a Cholesky host — computed from the
//! tilings, plus a fixed transient allowance. A solve that keeps one more
//! `n x n` slab, or allocates a workspace per term, fails here.
//!
//! The allocator counts the live bytes of the whole process, so this file
//! holds one `#[test]`, and every solve runs on a pool of two workers. Each
//! case prints one line — its peak, buffers, allowance and the slack left
//! under the allowance in `nb x nb` tiles — which `cargo test --test
//! heap_budget -- --nocapture` shows.

use polar::prelude::*;
use polar_lapack::{QrStructure, TFactors, TILE_LANES};
use polar_matrix::Tiling;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(p: *mut u8, size: usize) -> *mut u8 {
    if !p.is_null() {
        PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
    }
    p
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(System.alloc(layout), layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(System.alloc_zeroed(layout), layout.size())
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Transient heap a solve may hold above its buffers: a few tiles of `nb x
/// nb` — per worker a task's temporaries (a `trtri` or `M` round tile, a QR
/// kernel's scratch) and the packed kernel's two pack buffers — and the task
/// graph's own bookkeeping, bytes per task (about 550 at these sizes).
const ALLOWANCE_TILES: usize = 8;
const ALLOWANCE_PER_TASK: usize = 768;

fn geometric<S: Scalar>(m: usize, n: usize, cond: f64, seed: u64) -> Matrix<S> {
    let spec = MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed };
    generate::<S>(&spec).0
}

/// Bytes of a matrix tiled as `t`.
fn slab<S: Scalar>(t: Tiling) -> usize {
    t.m() * t.n() * std::mem::size_of::<S>()
}

/// What a solve of an `m x n` matrix at tile size `nb` holds.
#[derive(Clone, Copy)]
struct Holds {
    m: usize,
    n: usize,
    nb: usize,
    /// The iterate has a spare buffer: a several-term Cholesky-based step,
    /// or a QR-based step of several rounds of slots or on more tile rows
    /// than tile columns.
    spare: bool,
    /// Stacked term slots with their `T` factors (a QR-based step), and the
    /// `T` factors of the QR of `X`.
    slots: usize,
    /// `n x n` slabs besides them: the start's Gram matrix, Cholesky hosts.
    nn: usize,
    /// Cholesky hosts with a top half, `ceil(n / nb) nb x n`, for `M` or a
    /// Gram matrix.
    tops: usize,
    /// Row slots of `V` (a one-term Cholesky-based step without a spare or
    /// a QR term slot).
    rows: bool,
}

impl Holds {
    fn bytes<S: Scalar>(self) -> usize {
        let Self { m, n, nb, .. } = self;
        let tiles = |rows| Tiling::new(rows, n, nb, nb);
        let (x, top) = (tiles(m), n.div_ceil(nb) * nb);
        let stacked = tiles(top + n);
        let w_t = TFactors::<S>::zeros(stacked, QrStructure::TriangularTop { top_rows: top });
        let x_t = TFactors::<S>::zeros(x, QrStructure::Dense).bytes();
        let slots =
            self.slots * (slab::<S>(stacked) + w_t.bytes()) + (self.slots > 0) as usize * x_t;
        let rows = tiles(m.div_ceil(nb).min(2 * TILE_LANES) * nb);
        slab::<S>(x) * (1 + self.spare as usize)
            + slots
            + (self.nn + self.tops) * slab::<S>(tiles(n))
            + self.tops * slab::<S>(tiles(top))
            + self.rows as usize * slab::<S>(rows)
    }
}

/// Solve `a` on two workers and check its peak live heap above what was
/// live before against `holds`: at least the buffers (they are all live at
/// once), at most the buffers and the allowance for the tasks of its steps'
/// graph.
fn check<S: Scalar>(case: &str, a: &Matrix<S>, opts: &QdwhOptions, holds: Holds) {
    let Holds { m, n, nb, .. } = holds;
    let buffers = holds.bytes::<S>();
    let pool = rayon::ThreadPool::new(2);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let pd = pool.install(|| qdwh(a, opts)).expect("converges");
    let peak = PEAK.load(Relaxed) - before;
    let tasks = polar_qdwh::task_graph::<S>(m, n, nb, &pd.info.kinds, opts.terms).tasks.len();
    let tile = slab::<S>(Tiling::new(nb, nb, nb, nb));
    let allowance = ALLOWANCE_TILES * tile + ALLOWANCE_PER_TASK * tasks;
    let seen = format!("{case}: peak {peak} B, buffers {buffers} B, {tasks} tasks");
    let slack = (buffers + allowance) as f64 - peak as f64;
    println!("{seen}, allowance {allowance} B: slack {:.1} tiles of {tile} B", slack / tile as f64);
    assert!(peak >= buffers, "{seen}: the solve holds less than its buffers");
    assert!(peak <= buffers + allowance, "{seen}: over the allowance of {allowance} B");
}

#[test]
fn a_solve_holds_its_buffers_and_a_few_tiles() {
    let tiled = |nb| QdwhOptions { tile_nb: Some(nb), ..Default::default() };
    let nb = 48;

    // QR-first Zolo-PD, one QR-based step then a several-term
    // Cholesky-based one: `M` and the Gram matrix in the slots' top halves
    let (m, n) = (192, 192);
    let opts = QdwhOptions { terms: 8, ..tiled(nb) };
    let holds = Holds { m, n, nb, spare: true, slots: 2, nn: 0, tops: 0, rows: false };
    check("zolo r = 8, QR first", &geometric::<f64>(m, n, 1e8, 1), &opts, holds);

    // square QR-first QDWH: one slot and one iterate buffer — the QR-based
    // steps lift their product in the slot's top half, the Cholesky-based
    // ones keep V there
    let holds = Holds { slots: 1, spare: false, ..holds };
    check("qdwh, QR first", &geometric::<f64>(m, n, 1e16, 2), &tiled(nb), holds);

    // tall QR-first QDWH: the lift has more tile rows than the slot's top
    // half, so the QR-based steps write the spare, and V lives there
    let (m, n) = (288, 96);
    let holds = Holds { m, n, nb, spare: true, slots: 1, nn: 0, tops: 0, rows: false };
    check("qdwh, tall QR first", &geometric::<f64>(m, n, 1e16, 5), &tiled(nb), holds);

    // certified tall c64 QDWH: one iterate buffer, row slots, the start's
    // Gram matrix and an n x n host
    let holds = Holds { m, n, nb, spare: false, slots: 0, nn: 2, tops: 0, rows: true };
    check("qdwh c64, certified", &geometric::<Complex64>(m, n, 10.0, 3), &tiled(nb), holds);

    // certified several-term Zolo-PD: the start's Gram matrix, M in slot
    // 0's top half, slot 1 an n x n host
    let (m, n) = (200, 90);
    let opts = QdwhOptions { terms: 4, ..tiled(nb) };
    let holds = Holds { m, n, nb, spare: true, slots: 0, nn: 2, tops: 1, rows: false };
    check("zolo r = 4, certified", &geometric::<f64>(m, n, 10.0, 4), &opts, holds);
}
