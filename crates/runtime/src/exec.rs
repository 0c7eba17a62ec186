//! Dependency-driven execution of tile task DAGs on the work-stealing pool.
//!
//! [`GraphBuilder`] (see `graph.rs`) infers RAW/WAW/WAR dependencies from
//! tile read/write sets exactly like OpenMP `task depend` clauses.
//! [`TaskDag`] attaches a closure to every task and executes the graph:
//!
//! * tasks become *ready* when their last predecessor completes and enter a
//!   priority heap;
//! * ready tasks are ordered by **computed critical-path priority**: the
//!   longest flop-weighted path from the task to a sink of the graph
//!   ([`TaskGraph::critical_path_to_sink`]). A ready task with more
//!   unfinished work downstream runs first, which releases panel chains as
//!   early as possible — the PLASMA/SLATE mechanism for overlapping panel
//!   factorization with trailing updates. Driver-assigned priorities
//!   survive only as a tiebreak between equal critical paths;
//! * a **lookahead window** bounds run-ahead: tasks whose phase (solver
//!   iteration) is more than `LOOKAHEAD` (2) steps beyond the oldest
//!   incomplete phase sort behind every in-window task, so step-k+1 panel
//!   kernels overtake step-k trailing updates but step-k+5 work does
//!   not flush the caches while step k is still in flight;
//! * the ready set is drained by one worker loop per pool thread; workers
//!   sleep on a condvar while no task is ready and are woken by completions.
//!
//! **One level of parallelism.** The graph owns it: with every pool lane
//! draining the ready heap, a task body runs inside
//! [`rayon::serial_region`], so the BLAS/LAPACK kernels it calls see a fork
//! width of 1 and take their sequential, pack-once paths (the SLATE model:
//! the DAG supplies the concurrency, each task is a sequential tile
//! kernel). A body therefore never enters the pool's steal loop, and a
//! graph built and executed from inside a body drains inline on that
//! thread.
//!
//! A fork width of 1 (a one-worker pool, or a graph executed from inside a
//! body) drains on the calling thread in exact heap order: the release
//! order is then a pure function of the graph, which is how a test
//! reproduces a *schedule*. Task *values* do not depend on the schedule:
//! every task writes tiles no concurrent task touches, and all
//! value-affecting orderings are dependency edges.

use crate::graph::{GraphBuilder, KernelKind, TaskGraph, TaskId, TileRef};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};

/// Lookahead window width in phases; see the module docs.
const LOOKAHEAD: u32 = 2;

/// Why a [`TaskDag`] execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Every task ran to completion.
    Completed,
    /// A task body requested cancellation (e.g. a `potrf` tile hit a
    /// non-positive-definite pivot) or the `stop` predicate of
    /// [`TaskDag::execute_until`] fired; remaining tasks were abandoned.
    Cancelled,
}

/// What the executor measured of one phase (solver iteration) of a graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// When the phase's first task started and its last one ended,
    /// nanoseconds since [`polar_obs::epoch`]; stamped on every run. The
    /// windows of consecutive phases overlap: that is the lookahead.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls, analytic flops and busy time of the phase's tasks by kernel
    /// class, each task counted as one kernel of its kind's class. Zeros
    /// unless metrics were on — or the graph ran inside a counted kernel,
    /// whose flops these then are.
    pub kernels: polar_obs::KernelSnapshot,
}

impl PhaseProfile {
    /// The measured window in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Control value returned by a task body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Keep executing the graph.
    Continue,
    /// Stop: abandon all not-yet-started tasks. In-flight tasks on other
    /// workers finish first (they only touch their own tiles).
    Cancel,
}

type Body<'a> = Box<dyn FnOnce() -> TaskStatus + Send + 'a>;

/// Max-heap key. Ordering, most significant first: inside the lookahead
/// window, critical-path length to sink, driver hint, submission order.
struct ReadyKey {
    /// Task phase lies within the lookahead window of the oldest
    /// incomplete phase (computed when the task became ready; the frontier
    /// only advances, so a stale `false` is merely a weaker preference).
    ahead: bool,
    /// Critical-path-to-sink flops ([`TaskGraph::critical_path_to_sink`]).
    cp: f64,
    /// Driver-assigned static priority; tiebreak between equal paths.
    hint: i32,
    id: TaskId,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ReadyKey {}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ahead
            .cmp(&other.ahead)
            .then_with(|| self.cp.total_cmp(&other.cp))
            .then_with(|| self.hint.cmp(&other.hint))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Immutable per-execution scheduling inputs shared by all workers.
struct KeyCtx {
    /// Critical-path-to-sink per task, from the built graph.
    cp: Vec<f64>,
    /// Driver-assigned static priorities (tiebreak only).
    hints: Vec<i32>,
}

impl KeyCtx {
    fn key(&self, graph: &TaskGraph, frontier: u32, id: TaskId) -> ReadyKey {
        ReadyKey {
            ahead: graph.tasks[id].phase <= frontier.saturating_add(LOOKAHEAD),
            cp: self.cp[id],
            hint: self.hints[id],
            id,
        }
    }
}

/// A task graph under construction, with an executable body per task.
///
/// The builder side mirrors [`GraphBuilder`]: tasks are appended in program
/// order with tile read/write sets, and dependencies are inferred. Bodies
/// may borrow from the caller's stack (`'a`): [`TaskDag::execute`] blocks
/// until the whole graph is drained, so the borrows stay live.
pub struct TaskDag<'a> {
    builder: GraphBuilder,
    bodies: Vec<Option<Body<'a>>>,
    priorities: Vec<i32>,
}

impl<'a> Default for TaskDag<'a> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-task lifecycle stamps for the post-mortem layer: the instant each
/// task's last dependency cleared (entered the ready heap) and the lane
/// that released it. Empty — and free — unless tracing was enabled when
/// the execution started, so the disabled path pays nothing beyond an
/// `is_empty` branch per release.
struct LifeTable {
    dag: u32,
    ready_ns: Vec<u64>,
    ready_lane: Vec<u32>,
}

impl LifeTable {
    fn new(dag: u32, n: usize) -> Self {
        LifeTable { dag, ready_ns: vec![0; n], ready_lane: vec![0; n] }
    }

    fn disabled() -> Self {
        LifeTable { dag: 0, ready_ns: Vec::new(), ready_lane: Vec::new() }
    }

    /// Record that `id`'s last predecessor just completed on this lane.
    fn stamp(&mut self, id: TaskId) {
        if !self.ready_ns.is_empty() {
            self.ready_ns[id] = polar_obs::now_ns();
            self.ready_lane[id] = polar_obs::worker_lane();
        }
    }

    fn lifecycle(&self, id: TaskId) -> Option<polar_obs::TaskLifecycle> {
        if self.ready_ns.is_empty() {
            return None;
        }
        Some(polar_obs::TaskLifecycle {
            dag: self.dag,
            task: id as u32,
            ready_ns: self.ready_ns[id],
            ready_lane: self.ready_lane[id],
        })
    }
}

struct ExecState<'a> {
    ready: BinaryHeap<ReadyKey>,
    indeg: Vec<usize>,
    bodies: Vec<Option<Body<'a>>>,
    remaining: usize,
    cancelled: bool,
    /// Unfinished task count per phase; drives the lookahead frontier.
    phase_rem: Vec<usize>,
    /// Oldest phase with unfinished tasks.
    frontier: u32,
    /// Per phase: `start_ns` of 0 until its first task is taken.
    profile: Vec<PhaseProfile>,
    /// Lifecycle stamps (empty when tracing is off).
    life: LifeTable,
}

impl<'a> ExecState<'a> {
    /// Nothing run yet: the graph's roots ready, every phase full.
    fn new(
        graph: &TaskGraph,
        ctx: &KeyCtx,
        bodies: Vec<Option<Body<'a>>>,
        mut life: LifeTable,
    ) -> Self {
        let n = graph.len();
        let indeg: Vec<usize> = (0..n).map(|t| graph.preds(t).len()).collect();
        let mut ready = BinaryHeap::with_capacity(n);
        for (id, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready.push(ctx.key(graph, 0, id));
                life.stamp(id);
            }
        }
        let max_phase = graph.tasks.iter().map(|t| t.phase).max().unwrap_or(0);
        let mut phase_rem = vec![0usize; max_phase as usize + 1];
        for t in &graph.tasks {
            phase_rem[t.phase as usize] += 1;
        }
        let profile = vec![PhaseProfile::default(); phase_rem.len()];
        Self {
            ready,
            indeg,
            bodies,
            remaining: n,
            cancelled: false,
            phase_rem,
            frontier: 0,
            profile,
            life,
        }
    }

    /// Take the ready task the heap ranks first, with the ready-queue depth
    /// behind it. Both drains start a task here.
    fn take(&mut self, graph: &TaskGraph) -> (ReadyKey, usize, Body<'a>) {
        let key = self.ready.pop().expect("ready heap checked non-empty");
        let phase = &mut self.profile[graph.tasks[key.id].phase as usize];
        if phase.start_ns == 0 {
            phase.start_ns = polar_obs::now_ns().max(1);
        }
        let body = self.bodies[key.id].take().expect("task body ran twice");
        (key, self.ready.len(), body)
    }

    /// Book task `id` as run — `counted_ns` of busy time if its span owned
    /// the kernel counters: move the frontier past the phases that drained
    /// and release the successors it was the last predecessor of. Returns
    /// how many became ready. Both drains finish a task here.
    fn complete(
        &mut self,
        graph: &TaskGraph,
        ctx: &KeyCtx,
        id: TaskId,
        counted_ns: Option<u64>,
    ) -> usize {
        let task = &graph.tasks[id];
        let phase = task.phase as usize;
        if let Some(ns) = counted_ns {
            let class = &mut self.profile[phase].kernels.classes[kind_label(task.kind).0 as usize];
            class.calls += 1;
            class.flops += task.flops.max(0.0).round() as u64;
            class.time_ns += ns;
        }
        self.remaining -= 1;
        self.phase_rem[phase] -= 1;
        if self.phase_rem[phase] == 0 {
            self.profile[phase].end_ns = polar_obs::now_ns();
        }
        while (self.frontier as usize) < self.phase_rem.len()
            && self.phase_rem[self.frontier as usize] == 0
        {
            self.frontier += 1;
        }
        let mut released = 0;
        for &s in graph.succs(id) {
            let s = s as usize;
            self.indeg[s] -= 1;
            if self.indeg[s] == 0 {
                self.ready.push(ctx.key(graph, self.frontier, s));
                self.life.stamp(s);
                released += 1;
            }
        }
        released
    }
}

impl<'a> TaskDag<'a> {
    pub fn new() -> Self {
        Self { builder: GraphBuilder::new(), bodies: Vec::new(), priorities: Vec::new() }
    }

    /// Allocate a fresh matrix id for [`TileRef`]s.
    pub fn new_matrix(&mut self) -> u32 {
        self.builder.new_matrix()
    }

    /// Begin a new phase (solver iteration) for lookahead-window purposes.
    pub fn next_phase(&mut self) {
        self.builder.next_phase();
    }

    /// Mark a fork-join barrier ([`GraphBuilder::barrier`]); execution
    /// ignores it.
    pub fn barrier(&mut self) {
        self.builder.barrier();
    }

    /// The dependency graph alone, bodies dropped unrun: what
    /// [`TaskDag::execute`] would schedule, for simulation and metering.
    pub fn into_graph(self) -> TaskGraph {
        self.builder.build()
    }

    /// Number of tasks submitted so far.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Append a task whose body can cancel the whole graph.
    ///
    /// `priority` is a static scheduling *hint*: the executor orders ready
    /// tasks by computed critical-path length and consults the hint only to
    /// break ties. `flops` feeds that critical-path computation (and the
    /// graph accounting), not the obs counters — bodies report their own
    /// kernel spans.
    pub fn add_task(
        &mut self,
        kind: KernelKind,
        priority: i32,
        flops: f64,
        reads: Vec<TileRef>,
        writes: Vec<TileRef>,
        body: impl FnOnce() -> TaskStatus + Send + 'a,
    ) -> TaskId {
        let id = self.builder.add_task(kind, flops, 0, reads, writes);
        debug_assert_eq!(id, self.bodies.len());
        self.bodies.push(Some(Box::new(body)));
        self.priorities.push(priority);
        id
    }

    /// [`TaskDag::add_task`] for infallible bodies.
    pub fn add(
        &mut self,
        kind: KernelKind,
        priority: i32,
        flops: f64,
        reads: Vec<TileRef>,
        writes: Vec<TileRef>,
        body: impl FnOnce() + Send + 'a,
    ) -> TaskId {
        self.add_task(kind, priority, flops, reads, writes, move || {
            body();
            TaskStatus::Continue
        })
    }

    /// Build the dependency graph and run every task, respecting
    /// dependencies and priorities. Blocks until the graph is drained (or
    /// cancelled). Uses the pool serving the calling thread; at a fork
    /// width of 1 the schedule is a fixed sequential order.
    pub fn execute(self) -> ExecOutcome {
        self.execute_until(|_| false)
    }

    /// [`TaskDag::execute`] with an external stop condition: before every
    /// task release, in both drains, the executor calls `stop` with the
    /// oldest phase that still has unfinished tasks, and `true` is treated
    /// exactly like a body returning [`TaskStatus::Cancel`] — nothing more
    /// is released, bodies already in flight on other lanes finish, and
    /// the outcome is [`ExecOutcome::Cancelled`].
    ///
    /// Calls are serialized (the parallel drain polls under its state
    /// lock) and the phase argument never decreases. Every task of an
    /// earlier phase has completed, and its writes are visible, when
    /// `stop` runs. Keep it cheap: it runs once per task, from whichever
    /// pool thread releases next, and holds up the other lanes' releases
    /// while it does.
    pub fn execute_until(self, stop: impl Fn(u32) -> bool + Sync) -> ExecOutcome {
        self.execute_profiled(stop).0
    }

    /// [`TaskDag::execute_until`], and what the run measured of each phase
    /// (all of them, in order; a phase a cancelled run never finished has no
    /// end).
    pub fn execute_profiled(
        self,
        stop: impl Fn(u32) -> bool + Sync,
    ) -> (ExecOutcome, Vec<PhaseProfile>) {
        let TaskDag { builder, bodies, priorities } = self;
        let graph = Arc::new(builder.build());
        let n = graph.len();
        if n == 0 {
            return (ExecOutcome::Completed, Vec::new());
        }

        // When tracing, register the built graph in the post-mortem side
        // table under a fresh dag id so the analyzer can rejoin executed
        // spans (tagged with the same id) to their dependency structure.
        let life = if polar_obs::trace_enabled() {
            let dag = crate::postmortem::record_graph(Arc::clone(&graph));
            LifeTable::new(dag, n)
        } else {
            LifeTable::disabled()
        };

        let ctx = KeyCtx { cp: graph.critical_path_to_sink(), hints: priorities };
        let state = ExecState::new(&graph, &ctx, bodies, life);

        // Width 1 is a one-worker pool or a graph executed from inside a
        // task body (a serial region): either way there is no lane to fan
        // out to, so drain inline.
        let lanes = rayon::fork_width();
        if lanes <= 1 {
            return execute_sequential(&graph, &ctx, state, &stop);
        }

        let state = Mutex::new(state);
        let work = Condvar::new();
        fanout(lanes.min(n), &|| worker_loop(&graph, &ctx, &state, &work, &stop));
        let state = state.into_inner().expect("a panicking body unwinds out of the fanout");
        let outcome = if state.cancelled { ExecOutcome::Cancelled } else { ExecOutcome::Completed };
        (outcome, state.profile)
    }
}

/// Fixed-order sequential drain: the one-lane schedule.
fn execute_sequential(
    graph: &TaskGraph,
    ctx: &KeyCtx,
    mut state: ExecState<'_>,
    stop: &dyn Fn(u32) -> bool,
) -> (ExecOutcome, Vec<PhaseProfile>) {
    while !state.ready.is_empty() {
        if stop(state.frontier) {
            return (ExecOutcome::Cancelled, state.profile);
        }
        let (ReadyKey { id, cp, .. }, depth, body) = state.take(graph);
        let span = task_span(graph, id, cp, depth, state.life.lifecycle(id));
        let status = body();
        let counted_ns = span.finish();
        if status == TaskStatus::Cancel {
            return (ExecOutcome::Cancelled, state.profile);
        }
        state.complete(graph, ctx, id, counted_ns);
    }
    (ExecOutcome::Completed, state.profile)
}

/// Cancels the graph and wakes every waiter if dropped while still armed,
/// i.e. when a task body panics: without this the unwind would skip the
/// `remaining` bookkeeping and every other lane (plus the caller blocked in
/// the fanout) would wait on the condvar forever — a kernel assertion
/// failure must surface as a propagated panic, not a silent hang.
struct BodyGuard<'s, 'a> {
    state: &'s Mutex<ExecState<'a>>,
    work: &'s Condvar,
    armed: bool,
}

impl Drop for BodyGuard<'_, '_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut guard) = self.state.lock() {
                guard.cancelled = true;
            }
            self.work.notify_all();
        }
    }
}

/// One ready-queue worker; runs on a pool thread until the graph drains.
fn worker_loop<'a>(
    graph: &TaskGraph,
    ctx: &KeyCtx,
    state: &Mutex<ExecState<'a>>,
    work: &Condvar,
    stop: &(dyn Fn(u32) -> bool + Sync),
) {
    let mut guard = state.lock().unwrap();
    loop {
        if guard.cancelled || guard.remaining == 0 {
            work.notify_all();
            return;
        }
        if guard.ready.is_empty() {
            // Ready starvation: this worker found no runnable task. The
            // park interval is recorded as a `dag_park` span (dims[0] =
            // dag id) so the post-mortem can build idle/starvation
            // profiles per worker lane; `phase_span_dims` self-gates on
            // the trace bit, so the disabled path only pays one relaxed
            // load. The span covers the whole condvar wait, including
            // spurious wakeups that loop straight back in.
            let dag = guard.life.dag;
            let _park = polar_obs::phase_span_dims("dag_park", [dag as usize, 0, 0]);
            guard = work.wait(guard).unwrap();
            continue;
        }
        // polled under the lock: calls are serialized and see the
        // frontier only ever advance
        if stop(guard.frontier) {
            guard.cancelled = true;
            work.notify_all();
            return;
        }
        let (ReadyKey { id, cp, .. }, depth, body) = guard.take(graph);
        let lifecycle = guard.life.lifecycle(id);
        drop(guard);

        let mut unwind_guard = BodyGuard { state, work, armed: true };
        let span = task_span(graph, id, cp, depth, lifecycle);
        let status = rayon::serial_region(body);
        let counted_ns = span.finish();
        unwind_guard.armed = false;
        drop(unwind_guard);

        guard = state.lock().unwrap();
        if status == TaskStatus::Cancel {
            guard.cancelled = true;
            work.notify_all();
            return;
        }
        let released = guard.complete(graph, ctx, id, counted_ns);
        if guard.remaining == 0 {
            work.notify_all();
            return;
        }
        // wake a sleeper for every newly-ready task: this worker may be
        // away for a while before it takes one itself
        if released > 1 {
            work.notify_all();
        } else if released == 1 {
            work.notify_one();
        }
        // This lane holds its pool worker until the graph drains: between
        // two tasks, serve what the rest of the process queued for the
        // pool. Only with the finished task booked — what runs here may be
        // another graph's whole fan-out, whose idle frames steal unstarted
        // lanes of *this* graph, and such a lane, parked on top of this
        // frame for the successors of a task still unbooked in it, waits
        // forever.
        drop(guard);
        rayon::yield_to_injected();
        guard = state.lock().unwrap();
    }
}

/// The span of one tile task: the counted kernel of its kind's class
/// ([`polar_obs::task_span`]) with the task's analytic flops. The span dims
/// carry the scheduler's decision inputs — critical-path priority (flops),
/// ready-queue depth at dispatch, and phase — which `solver_trace` surfaces
/// as Chrome-trace args. When the executor has a lifecycle stamp for the
/// task (tracing was on when the graph launched) the span additionally
/// carries `{dag, task, ready_ns, ready_lane}` so the post-mortem layer can
/// rejoin it to the recorded [`TaskGraph`].
fn task_span(
    graph: &TaskGraph,
    id: TaskId,
    cp: f64,
    ready_depth: usize,
    lifecycle: Option<polar_obs::TaskLifecycle>,
) -> polar_obs::SpanGuard {
    let t = &graph.tasks[id];
    let (class, name) = kind_label(t.kind);
    let dims = [cp as usize, ready_depth, t.phase as usize];
    polar_obs::task_span(class, name, t.flops, dims, lifecycle)
}

pub(crate) fn kind_label(kind: KernelKind) -> (polar_obs::KernelClass, &'static str) {
    use polar_obs::KernelClass as C;
    match kind {
        KernelKind::Geqrt => (C::Geqrf, "task_geqrt"),
        KernelKind::Tsqrt => (C::Geqrf, "task_tsqrt"),
        KernelKind::Unmqr => (C::Orgqr, "task_unmqr"),
        KernelKind::Tsmqr => (C::Orgqr, "task_tsmqr"),
        KernelKind::Potrf => (C::Potrf, "task_potrf"),
        KernelKind::Trsm => (C::Trsm, "task_trsm"),
        KernelKind::Gemm => (C::Gemm, "task_gemm"),
        KernelKind::Herk => (C::Herk, "task_herk"),
        _ => (C::Other, "task_other"),
    }
}

/// Run `f` once on each of `n` pool lanes via a recursive join tree.
fn fanout<F: Fn() + Sync>(n: usize, f: &F) {
    if n <= 1 {
        f();
    } else {
        let half = n / 2;
        rayon::join(|| fanout(n - half, f), || fanout(half, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};
    use std::sync::Mutex as StdMutex;

    fn tile(m: u32, i: usize, j: usize) -> TileRef {
        TileRef::new(m, i, j, 64)
    }

    /// The sequential drain, whatever the pool size.
    fn drain_sequentially(dag: TaskDag<'_>) -> ExecOutcome {
        let TaskDag { builder, bodies, priorities } = dag;
        let graph = builder.build();
        let ctx = KeyCtx { cp: graph.critical_path_to_sink(), hints: priorities };
        let state = ExecState::new(&graph, &ctx, bodies, LifeTable::disabled());
        execute_sequential(&graph, &ctx, state, &|_| false).0
    }

    #[test]
    fn runs_every_task_once() {
        let counter = AtomicUsize::new(0);
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        for j in 0..16 {
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, j)], || {
                counter.fetch_add(1, AtOrd::SeqCst);
            });
        }
        assert_eq!(dag.execute(), ExecOutcome::Completed);
        assert_eq!(counter.load(AtOrd::SeqCst), 16);
    }

    #[test]
    fn respects_dependency_chain() {
        // a chain writing the same tile must execute in program order
        let log = StdMutex::new(Vec::new());
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        let log = &log;
        for k in 0..32 {
            // deliberately inverted priority: deps must still win
            dag.add(KernelKind::Potrf, -k, 1.0, vec![], vec![tile(m, 0, 0)], move || {
                log.lock().unwrap().push(k);
            });
        }
        assert_eq!(dag.execute(), ExecOutcome::Completed);
        assert_eq!(*log.lock().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_orders_join_after_branches() {
        let log = StdMutex::new(Vec::new());
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        dag.add(KernelKind::Geqrt, 0, 1.0, vec![], vec![tile(m, 0, 0)], || {
            log.lock().unwrap().push(0);
        });
        {
            let log = &log;
            for b in 1..=2 {
                dag.add(
                    KernelKind::Trsm,
                    0,
                    1.0,
                    vec![tile(m, 0, 0)],
                    vec![tile(m, b, 0)],
                    move || {
                        // branch ids recorded as 1/2 in any order
                        log.lock().unwrap().push(b);
                    },
                );
            }
        }
        dag.add(
            KernelKind::Gemm,
            0,
            1.0,
            vec![tile(m, 1, 0), tile(m, 2, 0)],
            vec![tile(m, 3, 0)],
            || {
                log.lock().unwrap().push(3);
            },
        );
        assert_eq!(dag.execute(), ExecOutcome::Completed);
        let got = log.lock().unwrap().clone();
        assert_eq!(got[0], 0);
        assert_eq!(got[3], 3);
        assert_eq!(
            {
                let mut mid = got[1..3].to_vec();
                mid.sort_unstable();
                mid
            },
            vec![1, 2]
        );
    }

    #[test]
    fn cancel_abandons_remaining_tasks() {
        let ran = AtomicUsize::new(0);
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        // serialized chain so the cancel point is deterministic
        let ran_ref = &ran;
        for k in 0..10 {
            dag.add_task(KernelKind::Potrf, 0, 1.0, vec![], vec![tile(m, 0, 0)], move || {
                ran_ref.fetch_add(1, AtOrd::SeqCst);
                if k == 3 {
                    TaskStatus::Cancel
                } else {
                    TaskStatus::Continue
                }
            });
        }
        assert_eq!(dag.execute(), ExecOutcome::Cancelled);
        assert_eq!(ran.load(AtOrd::SeqCst), 4);
    }

    #[test]
    fn hint_breaks_ties_between_equal_critical_paths() {
        // independent tasks with equal flops have equal critical paths; the
        // driver hint must decide the sequential drain order
        let log = StdMutex::new(Vec::new());
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        {
            let log = &log;
            for (idx, prio) in [(0usize, 1i32), (1, 5), (2, 3)] {
                dag.add(KernelKind::Gemm, prio, 1.0, vec![], vec![tile(m, 0, idx)], move || {
                    log.lock().unwrap().push(idx);
                });
            }
        }
        drain_sequentially(dag);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn critical_path_outranks_hint() {
        // a 3-deep chain head (cp = 3) must beat a lone task (cp = 1) even
        // when the lone task carries a larger driver hint
        let log = StdMutex::new(Vec::new());
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        {
            let log = &log;
            for k in 0..3 {
                dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, 0)], move || {
                    log.lock().unwrap().push(k);
                });
            }
            dag.add(KernelKind::Gemm, 100, 1.0, vec![], vec![tile(m, 1, 1)], move || {
                log.lock().unwrap().push(99);
            });
        }
        drain_sequentially(dag);
        // chain head first (cp 3.0 beats hint 100 at cp 1.0); once the
        // remaining chain link ties at cp 1.0 the hint decides again
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 99, 2]);
    }

    #[test]
    fn lookahead_window_defers_far_future_phases() {
        // two independent tasks: one in phase 0 with a short path, one in
        // phase 9 with a long downstream chain. Outside the window the
        // far-future task must wait despite its larger critical path.
        let log = StdMutex::new(Vec::new());
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        {
            let log = &log;
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, 0)], move || {
                log.lock().unwrap().push(0);
            });
            for _ in 0..9 {
                dag.next_phase();
            }
            for k in 0..3 {
                dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 1, 1)], move || {
                    log.lock().unwrap().push(10 + k);
                });
            }
        }
        drain_sequentially(dag);
        // phase-0 task first even though the phase-9 chain is longer
        assert_eq!(*log.lock().unwrap(), vec![0, 10, 11, 12]);
    }

    /// Two phases of `per_phase` chained tasks each, 10 flops a task.
    fn two_phase_dag<'a>(per_phase: usize) -> TaskDag<'a> {
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        for phase in 0..2 {
            if phase == 1 {
                dag.next_phase();
            }
            let kind = if phase == 0 { KernelKind::Geqrt } else { KernelKind::Potrf };
            for _ in 0..per_phase {
                dag.add(kind, 0, 10.0, vec![], vec![tile(m, 0, 0)], || {});
            }
        }
        dag
    }

    #[test]
    fn phases_are_stamped_always_and_counted_under_metrics() {
        use polar_obs::KernelClass;
        let _serial = polar_obs::scope_lock();
        let (outcome, quiet) = two_phase_dag(3).execute_profiled(|_| false);
        assert_eq!(outcome, ExecOutcome::Completed);
        assert_eq!(quiet.len(), 2);
        for p in &quiet {
            assert!(p.start_ns > 0 && p.end_ns >= p.start_ns, "{p:?}");
            assert_eq!(p.kernels.total_calls(), 0, "metrics are off");
        }
        assert!(quiet[0].end_ns <= quiet[1].end_ns);

        let scope = polar_obs::scope();
        let (_, counted) = two_phase_dag(3).execute_profiled(|_| false);
        // inside a counted kernel the tasks are nested: nothing of theirs
        let driver = polar_obs::kernel_span(KernelClass::Geqrf, "driver", 1.0, [0; 3]);
        let (_, nested) = two_phase_dag(3).execute_profiled(|_| false);
        drop(driver);
        let report = scope.finish();
        let qr = counted[0].kernels.get(KernelClass::Geqrf);
        assert_eq!((qr.calls, qr.flops), (3, 30));
        assert_eq!(counted[0].kernels.total_calls(), 3, "phase 0 holds its own tasks only");
        assert_eq!(counted[1].kernels.get(KernelClass::Potrf).calls, 3);
        assert!(nested.iter().all(|p| p.kernels.total_calls() == 0));
        // the process-wide counters saw the same tasks, and the driver
        // (and whatever the other tests of this binary ran meanwhile)
        assert!(report.kernels.get(KernelClass::Geqrf).flops >= 31);
        assert!(report.kernels.get(KernelClass::Potrf).calls >= 3);

        // a cancelled run returns what it measured so far
        let (outcome, cut) = two_phase_dag(3).execute_profiled(|phase| phase == 1);
        assert_eq!(outcome, ExecOutcome::Cancelled);
        assert!(cut[0].end_ns > 0 && cut[1].end_ns == 0, "{cut:?}");
    }

    #[test]
    fn empty_dag_completes() {
        assert_eq!(TaskDag::new().execute(), ExecOutcome::Completed);
    }

    /// Fork width seen by each worker of the installed 2-worker pool: the
    /// barrier makes the two closures overlap, so they sit on both workers.
    fn widths_on_both_workers() -> (usize, usize) {
        let both = std::sync::Barrier::new(2);
        let probe = || {
            both.wait();
            rayon::fork_width()
        };
        rayon::join(probe, probe)
    }

    /// A graph of `n` independent tasks whose first two bodies rendezvous,
    /// so both lanes of a 2-worker pool are inside a body at once; task
    /// `special` additionally returns `how()`.
    fn two_lane_dag<'a>(
        n: usize,
        special: usize,
        how: fn() -> TaskStatus,
        both: &'a std::sync::Barrier,
    ) -> TaskDag<'a> {
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        for j in 0..n {
            dag.add_task(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, j)], move || {
                if j < 2 {
                    both.wait();
                }
                assert_eq!(rayon::fork_width(), 1, "a task body is a serial region");
                if j == special {
                    how()
                } else {
                    TaskStatus::Continue
                }
            });
        }
        dag
    }

    #[test]
    fn bodies_are_serial_regions() {
        let pool = rayon::ThreadPool::new(2);
        pool.install(|| {
            let both = std::sync::Barrier::new(2);
            let dag = two_lane_dag(64, usize::MAX, || TaskStatus::Continue, &both);
            assert_eq!(dag.execute(), ExecOutcome::Completed);
            assert_eq!(widths_on_both_workers(), (2, 2), "width restored after a normal return");
        });
    }

    #[test]
    fn joins_inside_bodies_run_both_closures_inline() {
        // both closures of every join run, return in order and stay on the
        // body's thread
        let (sum, inline) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        let (sum, inline) = (&sum, &inline);
        for j in 0..64 {
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, j)], move || {
                let me = std::thread::current().id();
                let ((a, ta), (b, tb)) = rayon::join(
                    || (1usize, std::thread::current().id()),
                    || (2usize, std::thread::current().id()),
                );
                sum.fetch_add(a + 10 * b, AtOrd::SeqCst);
                inline.fetch_add(usize::from(ta == me && tb == me), AtOrd::SeqCst);
            });
        }
        let pool = rayon::ThreadPool::new(2);
        assert_eq!(pool.install(|| dag.execute()), ExecOutcome::Completed);
        assert_eq!(sum.load(AtOrd::SeqCst), 64 * 21);
        assert_eq!(inline.load(AtOrd::SeqCst), 64);
    }

    #[test]
    fn width_is_restored_after_cancel_and_after_a_panicking_body() {
        let pool = rayon::ThreadPool::new(2);
        pool.install(|| {
            let both = std::sync::Barrier::new(2);
            let dag = two_lane_dag(8, 1, || TaskStatus::Cancel, &both);
            assert_eq!(dag.execute(), ExecOutcome::Cancelled);
            assert_eq!(widths_on_both_workers(), (2, 2), "width restored after Cancel");

            let both = std::sync::Barrier::new(2);
            let dag = two_lane_dag(8, 1, || panic!("tile kernel assertion"), &both);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dag.execute()));
            assert!(res.is_err(), "body panic must unwind out of execute()");
            assert_eq!(widths_on_both_workers(), (2, 2), "width restored after a panic");
        });
    }

    #[test]
    fn panic_in_body_propagates_instead_of_hanging() {
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        for j in 0..8 {
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, j)], move || {
                if j == 3 {
                    panic!("tile kernel assertion");
                }
            });
        }
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dag.execute()));
        assert!(res.is_err(), "body panic must unwind out of execute()");
        // the executor (and pool) survive: a fresh graph still runs
        let ran = AtomicUsize::new(0);
        let mut dag2 = TaskDag::new();
        let m2 = dag2.new_matrix();
        let ran_ref = &ran;
        for j in 0..8 {
            dag2.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m2, 0, j)], move || {
                ran_ref.fetch_add(1, AtOrd::SeqCst);
            });
        }
        assert_eq!(dag2.execute(), ExecOutcome::Completed);
        assert_eq!(ran.load(AtOrd::SeqCst), 8);
    }

    #[test]
    fn nested_execute_inside_body_inherits_the_region() {
        // a task body may itself build and execute a graph: it drains inline
        // on the body's thread, and the inner bodies are still inside the
        // outer body's serial region
        let pool = rayon::ThreadPool::new(2);
        let inner_ran = AtomicUsize::new(0);
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        let inner_ran = &inner_ran;
        dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, 0)], move || {
            let outer = std::thread::current().id();
            let mut inner = TaskDag::new();
            let mi = inner.new_matrix();
            for j in 0..4 {
                inner.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(mi, 0, j)], move || {
                    assert_eq!(rayon::fork_width(), 1);
                    assert_eq!(std::thread::current().id(), outer);
                    inner_ran.fetch_add(1, AtOrd::SeqCst);
                });
            }
            assert_eq!(inner.execute(), ExecOutcome::Completed);
            assert_eq!(rayon::fork_width(), 1, "still inside the outer body");
        });
        // a second task so the outer graph fans out over both lanes
        dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, 1)], || {});
        assert_eq!(pool.install(|| dag.execute()), ExecOutcome::Completed);
        assert_eq!(inner_ran.load(AtOrd::SeqCst), 4);
    }
}
