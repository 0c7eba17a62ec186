//! Tile-task graphs with inferred data dependencies.

use polar_matrix::ProcessGrid;
use std::collections::HashMap;

/// Dense-kernel task types appearing in the QDWH DAG. The names follow
/// the PLASMA/SLATE tile-kernel vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// QR of a single diagonal tile.
    Geqrt,
    /// QR of a triangle stacked on a square tile (TS kernel).
    Tsqrt,
    /// Apply a Geqrt reflector block to a tile.
    Unmqr,
    /// Apply a Tsqrt reflector block to a tile pair.
    Tsmqr,
    /// Cholesky of a diagonal tile.
    Potrf,
    /// Triangular solve on a tile.
    Trsm,
    /// Tile gemm.
    Gemm,
    /// Tile Hermitian rank-k update.
    Herk,
    /// Tile add / scale / copy (negligible-flop data motion).
    Geadd,
    /// Norm / reduction contribution.
    Norm,
    /// A whole submitted job (service-level span, not a tile kernel);
    /// `polar-svc` emits these so job lifetimes render alongside kernel
    /// rows in the same Chrome trace.
    Job,
    /// A whole (possibly blocked) QR factorization, as measured by the
    /// shared-memory solver's kernel spans rather than built tile-by-tile.
    Geqrf,
    /// Q formation / application (`orgqr` / `unmqr`) at whole-call
    /// granularity, from the shared-memory solver's kernel spans.
    Orgqr,
    /// One solver iteration (QDWH or Zolo-PD); a phase span, not a kernel.
    Iter,
    /// Any other measured span (norms, scaling, setup).
    Other,
}

impl KernelKind {
    /// Whether SLATE offloads this kernel to the GPU (trailing-update
    /// kernels) or keeps it on the CPU (panel kernels). Mirrors the hybrid
    /// execution described in §5/§6.
    pub fn gpu_eligible(self) -> bool {
        matches!(
            self,
            KernelKind::Gemm
                | KernelKind::Herk
                | KernelKind::Trsm
                | KernelKind::Tsmqr
                | KernelKind::Unmqr
        )
    }
}

/// A tile of some matrix: `(matrix id, tile row, tile col)` plus its
/// payload size in bytes (for communication costing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRef {
    pub matrix: u32,
    pub i: u32,
    pub j: u32,
    pub bytes: u64,
}

impl TileRef {
    pub fn new(matrix: u32, i: usize, j: usize, bytes: u64) -> Self {
        Self { matrix, i: i as u32, j: j as u32, bytes }
    }

    /// Key ignoring the byte payload (identity of the tile).
    pub(crate) fn key(&self) -> (u32, u32, u32) {
        (self.matrix, self.i, self.j)
    }
}

pub type TaskId = usize;

/// One tile task.
#[derive(Debug, Clone)]
pub struct Task {
    pub id: TaskId,
    pub kind: KernelKind,
    /// Real floating-point operations.
    pub flops: f64,
    /// Executing rank: 0 as emitted, the owner of the home tile after
    /// [`TaskGraph::assign_ranks`].
    pub rank: usize,
    /// Solver iteration: what the executor's lookahead window and the
    /// progress hook are keyed on.
    pub phase: u32,
    /// Fork-join step: the bulk-synchronous scheduler puts a global barrier
    /// between distinct values. The executor ignores it.
    pub barrier: u32,
    pub reads: Vec<TileRef>,
    /// Written tiles, the task's home tile first.
    pub writes: Vec<TileRef>,
}

/// Point-to-point traffic of a rank-assigned graph ([`TaskGraph::comm`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    pub point_to_point_messages: u64,
    pub point_to_point_bytes: u64,
}

impl CommStats {
    /// One message per dependency edge that carries tiles.
    pub(crate) fn of(edge_bytes: &[u64]) -> Self {
        Self {
            point_to_point_messages: edge_bytes.iter().filter(|&&b| b > 0).count() as u64,
            point_to_point_bytes: edge_bytes.iter().sum(),
        }
    }
}

/// Immutable task graph. Dependency edges are stored in two CSR
/// (offset + flat adjacency) arrays rather than per-task `Vec`s: building
/// and walking the graph then touches two contiguous slabs instead of one
/// heap allocation per task, which is what makes the per-task executor
/// overhead small enough for fine tiles.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub tasks: Vec<Task>,
    /// CSR offsets into `pred_adj`: predecessors of `t` are
    /// `pred_adj[pred_off[t]..pred_off[t + 1]]`.
    pred_off: Vec<u32>,
    pred_adj: Vec<u32>,
    /// CSR offsets into `succ_adj` (mirror of the predecessor edges).
    succ_off: Vec<u32>,
    succ_adj: Vec<u32>,
}

impl TaskGraph {
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tasks that must complete before `t`.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[u32] {
        &self.pred_adj[self.pred_off[t] as usize..self.pred_off[t + 1] as usize]
    }

    /// Tasks unblocked by `t`.
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[u32] {
        &self.succ_adj[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// Total real flops over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Longest flop-weighted path from each task to a sink, *including* the
    /// task's own flops — the computed critical-path priority of the
    /// scheduler: a ready task with more unfinished work downstream of it
    /// runs first. Tasks are created in program order and dependencies only
    /// point backwards, so a single reverse sweep suffices.
    pub fn critical_path_to_sink(&self) -> Vec<f64> {
        let n = self.tasks.len();
        let mut dist = vec![0.0f64; n];
        for t in (0..n).rev() {
            let below = self.succs(t).iter().map(|&s| dist[s as usize]).fold(0.0f64, f64::max);
            dist[t] = below + self.tasks[t].flops;
        }
        dist
    }

    /// Longest path through the graph measured in flops — an idealized
    /// infinite-parallelism lower bound on execution (communication-free).
    pub fn critical_path_flops(&self) -> f64 {
        self.critical_path_to_sink().into_iter().fold(0.0, f64::max)
    }

    /// Run every task where its home tile `(i, j)` lives under the 2D
    /// block-cyclic map of `grid` (owner computes, as in SLATE).
    pub fn assign_ranks(&mut self, grid: ProcessGrid) {
        for t in &mut self.tasks {
            let home = t.writes.first().expect("a tile task writes a tile");
            t.rank = grid.owner(home.i as usize, home.j as usize);
        }
    }

    /// Bytes each dependency edge moves between ranks, aligned with the
    /// predecessor lists (`preds(t)[e]` sends the `e`-th entry of task
    /// `t`'s slice). The one transfer rule of the workspace: a task that
    /// reads a tile last written on another rank receives it from that
    /// writer, every time; the tiles of one writer travel as one message.
    /// Tiles no task has written yet are where their first reader is.
    pub(crate) fn edge_bytes(&self) -> Vec<u64> {
        let mut bytes = vec![0u64; self.pred_adj.len()];
        let mut last_writer: HashMap<(u32, u32, u32), TaskId> = HashMap::new();
        for t in &self.tasks {
            let lo = self.pred_off[t.id] as usize;
            for r in &t.reads {
                let Some(&w) = last_writer.get(&r.key()) else { continue };
                if self.tasks[w].rank != t.rank {
                    let e = self.preds(t.id).binary_search(&(w as u32));
                    bytes[lo + e.expect("the writer of a read tile is a predecessor")] += r.bytes;
                }
            }
            for w in &t.writes {
                last_writer.insert(w.key(), t.id);
            }
        }
        bytes
    }

    /// Messages and bytes crossing rank boundaries when the graph runs
    /// under its rank assignment (see [`TaskGraph::edge_bytes`] for the
    /// rule); [`crate::simulate`] reports the same numbers.
    pub fn comm(&self) -> CommStats {
        CommStats::of(&self.edge_bytes())
    }
}

/// Builds a [`TaskGraph`] in program order, inferring RAW / WAR / WAW
/// dependencies from tile read/write sets — the same semantics as OpenMP
/// `task depend(in/out)` that SLATE relies on.
pub struct GraphBuilder {
    tasks: Vec<Task>,
    /// Flat `(task, pred)` edge slab; compiled into CSR form by
    /// [`GraphBuilder::build`]. One growable buffer for the whole graph
    /// instead of a `Vec<TaskId>` per task.
    edges: Vec<(u32, u32)>,
    /// Per-task scratch for dependency dedup, reused across `add_task`.
    scratch: Vec<TaskId>,
    last_writer: HashMap<(u32, u32, u32), TaskId>,
    readers_since_write: HashMap<(u32, u32, u32), Vec<TaskId>>,
    phase: u32,
    barrier: u32,
    next_matrix: u32,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            edges: Vec::new(),
            scratch: Vec::new(),
            last_writer: HashMap::new(),
            readers_since_write: HashMap::new(),
            phase: 0,
            barrier: 0,
            next_matrix: 0,
        }
    }

    /// Allocate a fresh matrix id for tile references.
    pub fn new_matrix(&mut self) -> u32 {
        let id = self.next_matrix;
        self.next_matrix += 1;
        id
    }

    /// Begin the next solver iteration (also a fork-join barrier).
    pub fn next_phase(&mut self) {
        self.phase += 1;
        self.barrier += 1;
    }

    /// Mark a fork-join barrier: a panel step, a sweep step, an assembly.
    pub fn barrier(&mut self) {
        self.barrier += 1;
    }

    /// Append a task; dependencies on earlier tasks are inferred.
    pub fn add_task(
        &mut self,
        kind: KernelKind,
        flops: f64,
        rank: usize,
        reads: Vec<TileRef>,
        writes: Vec<TileRef>,
    ) -> TaskId {
        let id = self.tasks.len();
        self.scratch.clear();
        // RAW: this task reads tiles someone wrote
        for r in &reads {
            if let Some(&w) = self.last_writer.get(&r.key()) {
                self.scratch.push(w);
            }
        }
        for w in &writes {
            // WAW: ordering against the previous writer
            if let Some(&prev) = self.last_writer.get(&w.key()) {
                self.scratch.push(prev);
            }
            // WAR: ordering against readers of the previous value
            if let Some(readers) = self.readers_since_write.get(&w.key()) {
                self.scratch.extend_from_slice(readers);
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for &p in self.scratch.iter().filter(|&&p| p != id) {
            self.edges.push((id as u32, p as u32));
        }

        for r in &reads {
            self.readers_since_write.entry(r.key()).or_default().push(id);
        }
        for w in &writes {
            self.last_writer.insert(w.key(), id);
            self.readers_since_write.insert(w.key(), Vec::new());
        }

        let (phase, barrier) = (self.phase, self.barrier);
        self.tasks.push(Task { id, kind, flops, rank, phase, barrier, reads, writes });
        id
    }

    pub fn build(self) -> TaskGraph {
        let n = self.tasks.len();
        // counting sort of the flat edge list into both CSR directions
        let mut pred_off = vec![0u32; n + 1];
        let mut succ_off = vec![0u32; n + 1];
        for &(t, p) in &self.edges {
            pred_off[t as usize + 1] += 1;
            succ_off[p as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
            succ_off[i + 1] += succ_off[i];
        }
        let mut pred_adj = vec![0u32; self.edges.len()];
        let mut succ_adj = vec![0u32; self.edges.len()];
        let mut pred_fill = pred_off.clone();
        let mut succ_fill = succ_off.clone();
        for &(t, p) in &self.edges {
            pred_adj[pred_fill[t as usize] as usize] = p;
            pred_fill[t as usize] += 1;
            succ_adj[succ_fill[p as usize] as usize] = t;
            succ_fill[p as usize] += 1;
        }
        TaskGraph { tasks: self.tasks, pred_off, pred_adj, succ_off, succ_adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(m: u32, i: usize, j: usize) -> TileRef {
        TileRef::new(m, i, j, 8 * 32 * 32)
    }

    #[test]
    fn raw_dependency() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        let t0 = b.add_task(KernelKind::Potrf, 100.0, 0, vec![], vec![tile(m, 0, 0)]);
        let t1 = b.add_task(KernelKind::Trsm, 200.0, 1, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]);
        let g = b.build();
        assert_eq!(g.preds(t1), &[t0 as u32]);
        assert_eq!(g.succs(t0), &[t1 as u32]);
        assert!(g.preds(t0).is_empty());
    }

    #[test]
    fn waw_and_war_dependencies() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        let w1 = b.add_task(KernelKind::Geadd, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        let r1 = b.add_task(KernelKind::Gemm, 1.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 1, 1)]);
        let w2 = b.add_task(KernelKind::Geadd, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        let g = b.build();
        // w2 must wait for the reader r1 (WAR) and the writer w1 (WAW)
        assert!(g.preds(w2).contains(&(r1 as u32)));
        assert!(g.preds(w2).contains(&(w1 as u32)));
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for j in 0..4 {
            b.add_task(KernelKind::Gemm, 10.0, j, vec![], vec![tile(m, 0, j)]);
        }
        let g = b.build();
        assert!((0..g.len()).all(|t| g.preds(t).is_empty()));
        assert_eq!(g.critical_path_flops(), 10.0);
        assert_eq!(g.total_flops(), 40.0);
    }

    #[test]
    fn critical_path_of_chain() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for k in 0..5 {
            b.add_task(
                KernelKind::Potrf,
                (k + 1) as f64,
                0,
                if k == 0 { vec![] } else { vec![tile(m, 0, 0)] },
                vec![tile(m, 0, 0)],
            );
        }
        let g = b.build();
        assert_eq!(g.critical_path_flops(), 1.0 + 2.0 + 3.0 + 4.0 + 5.0);
    }

    #[test]
    fn critical_path_to_sink_orders_chain_heads_first() {
        // two chains: a long one (3 unit tasks) and a short one (1 task);
        // the long chain's head must carry the larger remaining-work value
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for _ in 0..3 {
            b.add_task(KernelKind::Gemm, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        }
        let lone = b.add_task(KernelKind::Gemm, 1.0, 0, vec![], vec![tile(m, 1, 1)]);
        let g = b.build();
        let cp = g.critical_path_to_sink();
        assert_eq!(cp[0], 3.0);
        assert_eq!(cp[1], 2.0);
        assert_eq!(cp[2], 1.0);
        assert_eq!(cp[lone], 1.0);
    }

    #[test]
    fn comm_counts_remote_reads_of_the_last_writer() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        let bytes = 8 * 32 * 32u64;
        b.add_task(KernelKind::Potrf, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        // same-rank read: free
        b.add_task(KernelKind::Trsm, 1.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]);
        // remote reads: one message per writer, every time
        for i in 2..4 {
            let reads = vec![tile(m, 0, 0), tile(m, 1, 0), tile(m, 9, 9)];
            b.add_task(KernelKind::Gemm, 1.0, 1, reads, vec![tile(m, i, 0)]);
        }
        let g = b.build();
        // one tile from each of the two writers, per reader; the unwritten
        // (9, 9) is free
        let expect = CommStats { point_to_point_messages: 4, point_to_point_bytes: 4 * bytes };
        assert_eq!(g.comm(), expect);
    }

    #[test]
    fn assign_ranks_follows_the_home_tile() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Tsmqr, 1.0, 0, vec![], vec![tile(m, 3, 2), tile(m, 0, 2)]);
        let mut g = b.build();
        g.assign_ranks(ProcessGrid::new(2, 2));
        assert_eq!(g.tasks[0].rank, ProcessGrid::new(2, 2).rank_of(1, 0));
        g.assign_ranks(ProcessGrid::single());
        assert_eq!(g.tasks[0].rank, 0);
    }

    #[test]
    fn phases_are_recorded() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Potrf, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        b.next_phase();
        b.add_task(KernelKind::Trsm, 1.0, 0, vec![], vec![tile(m, 1, 0)]);
        let g = b.build();
        assert_eq!(g.tasks[0].phase, 0);
        assert_eq!(g.tasks[1].phase, 1);
    }

    #[test]
    fn barriers_count_steps_and_iterations() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        let add = |b: &mut GraphBuilder| {
            b.add_task(KernelKind::Gemm, 1.0, 0, vec![], vec![tile(m, 0, 0)])
        };
        add(&mut b);
        b.barrier();
        add(&mut b);
        b.next_phase();
        add(&mut b);
        let g = b.build();
        let marks: Vec<_> = g.tasks.iter().map(|t| (t.phase, t.barrier)).collect();
        assert_eq!(marks, vec![(0, 0), (0, 1), (1, 2)]);
    }

    #[test]
    fn gpu_eligibility_split() {
        assert!(KernelKind::Gemm.gpu_eligible());
        assert!(KernelKind::Tsmqr.gpu_eligible());
        assert!(!KernelKind::Geqrt.gpu_eligible());
        assert!(!KernelKind::Potrf.gpu_eligible());
    }
}
