//! The heap a solve holds: its peak live heap against the buffers the
//! workspace rule (DESIGN.md §12) says it holds — the iterate, its spare,
//! the term slots and, for a QR-based step, the `T` slabs of the QR
//! factorizations — computed from the tilings, plus a fixed transient
//! allowance. A solve that keeps one more `n x n` slab, or allocates a
//! workspace per term, fails here.
//!
//! The allocator counts the live bytes of the whole process, so this file
//! holds one `#[test]`, and every solve runs on a pool of two workers. Each
//! case prints one line — its peak, buffers, allowance and the slack left
//! under the allowance in `nb x nb` tiles — which `cargo test --test
//! heap_budget -- --nocapture` shows.

use polar::prelude::*;
use polar_lapack::{QrStructure, TFactors};
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

/// What a solve of an `m x n` matrix at tile size `nb` holds: the rule.
#[derive(Clone, Copy)]
struct Holds {
    m: usize,
    n: usize,
    nb: usize,
    /// The iterate has a spare buffer: a QR-based step of more terms than
    /// slots or on more tile rows than tile columns.
    spare: bool,
    /// Term slots, each one stacked buffer `(ceil(n / nb) nb + n) x n`.
    slots: usize,
    /// A step is QR-based: the slots' `T` factors, and those of the QR of
    /// `X`.
    qr: bool,
}

impl Holds {
    fn bytes<S: Scalar>(self) -> usize {
        let Self { m, n, nb, .. } = self;
        let tiles = |rows| Tiling::new(rows, n, nb, nb);
        let (x, top) = (tiles(m), n.div_ceil(nb) * nb);
        let stacked = tiles(top + n);
        let w_t = TFactors::<S>::zeros(stacked, QrStructure::TriangularTop { top_rows: top });
        let x_t = TFactors::<S>::zeros(x, QrStructure::Dense).bytes();
        let t = |bytes: usize| if self.qr { bytes } else { 0 };
        slab::<S>(x) * (1 + self.spare as usize)
            + self.slots * (slab::<S>(stacked) + t(w_t.bytes()))
            + t(x_t)
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

    // QR-first Zolo-PD, one QR-based step of more terms than slots (it
    // writes the spare) then a several-term Cholesky-based one
    let (m, n) = (192, 192);
    let opts = QdwhOptions { terms: 8, ..tiled(nb) };
    let holds = Holds { m, n, nb, spare: true, slots: 2, qr: true };
    check("zolo r = 8, QR first", &geometric::<f64>(m, n, 1e8, 1), &opts, holds);

    // square QR-first QDWH: one slot and one iterate buffer — the QR-based
    // steps lift their product in the slot's top half
    let holds = Holds { slots: 1, spare: false, ..holds };
    check("qdwh, QR first", &geometric::<f64>(m, n, 1e16, 2), &tiled(nb), holds);

    // tall QR-first QDWH: the lift has more tile rows than the slot's top
    // half, so the QR-based steps write the spare
    let (m, n) = (288, 96);
    let holds = Holds { m, n, nb, spare: true, slots: 1, qr: true };
    check("qdwh, tall QR first", &geometric::<f64>(m, n, 1e16, 5), &tiled(nb), holds);

    // certified tall c64 QDWH: one iterate buffer and one slot, the start's
    // Gram matrix and V in its top half, Z in its bottom half
    let holds = Holds { m, n, nb, spare: false, slots: 1, qr: false };
    check("qdwh c64, certified", &geometric::<Complex64>(m, n, 10.0, 3), &tiled(nb), holds);

    // certified several-term Zolo-PD: X updated in place through V in
    // slot 1's top half, M in slot 0's
    let (m, n) = (200, 90);
    let opts = QdwhOptions { terms: 4, ..tiled(nb) };
    let holds = Holds { m, n, nb, spare: false, slots: 2, qr: false };
    check("zolo r = 4, certified", &geometric::<f64>(m, n, 10.0, 4), &opts, holds);
}
