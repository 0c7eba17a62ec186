//! Execution post-mortem: reconstruct what the DAG executor *actually did*
//! from measured spans, and explain it.
//!
//! The executor ([`crate::exec`]) tags every task span with a
//! [`polar_obs::TaskLifecycle`] — the dag id, task id, the instant the
//! task's last dependency cleared, and the lane that released it — and
//! registers the built [`TaskGraph`] here under the same dag id (see
//! [`record_graph`]). [`analyze`] rejoins the two and computes, per
//! executed dag:
//!
//! * **measured critical path** — the longest dependency chain through the
//!   graph weighted by *measured* task durations (not modeled flops). The
//!   executor never starts a task before its predecessors finish, so
//!   `makespan >= critical_path` is an invariant of correct data; the gap
//!   between them is scheduling slack the machine could still recover;
//! * **per-worker utilization** — busy nanoseconds per lane over the dag
//!   makespan (task spans on one lane never overlap), plus aggregate
//!   **parallel efficiency** `total_busy / (makespan * workers)`;
//! * **queue-wait histogram** — `start - ready` per task: how long ready
//!   work sat in the heap behind higher-priority tasks;
//! * **ready starvation** — `dag_park` spans recorded by workers that
//!   found the ready heap empty (idle/park intervals);
//! * **top-k bottlenecks by slack** — tasks whose `earliest-possible
//!   placement` window is tightest: `slack = CP - (cp_in + cp_out - dur)`.
//!   Zero-slack tasks sit *on* the measured critical path; shaving them
//!   shortens the whole solve;
//! * **task migration** — tasks whose executing lane differs from the lane
//!   that released them (the shared-heap analogue of a deque steal).
//!
//! The per-class breakdown (`task_gemm`, `task_geqrt`, ...) is the bridge
//! to `polar-sim`: calibrating an [`crate::sched::ExecutionModel`] from
//! measured seconds-per-flop and replaying the same graph through
//! [`crate::sched::simulate`] yields the sim-vs-real makespan comparison
//! `solver_profile --analyze` emits (see `polar-sim::real`).

use crate::graph::TaskGraph;
use crate::sched::{ScheduleStats, SchedulingMode};
use polar_obs::{Histogram, HistogramSnapshot, SpanRecord, TaskLifecycle};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Span name used by executor workers for ready-starvation intervals
/// (`dims[0]` = dag id).
pub const PARK_SPAN: &str = "dag_park";

/// Most graphs retained in the side table before the oldest are dropped.
/// Tracing long-running services must not leak one graph per solve; the
/// analyzer only ever needs the graphs belonging to the spans still in the
/// obs buffers, which are drained on the same cadence.
const MAX_RECORDED_GRAPHS: usize = 64;

static NEXT_DAG: AtomicU32 = AtomicU32::new(1);

type GraphTable = Mutex<Vec<(u32, Arc<TaskGraph>)>>;

fn table() -> &'static GraphTable {
    static TABLE: OnceLock<GraphTable> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register an executed graph under a fresh process-unique dag id; the
/// executor stamps the same id into every task span's lifecycle. Bounded:
/// beyond [`MAX_RECORDED_GRAPHS`] undrained graphs the oldest is dropped.
pub fn record_graph(graph: Arc<TaskGraph>) -> u32 {
    let id = NEXT_DAG.fetch_add(1, Ordering::Relaxed);
    let mut t = table().lock().unwrap();
    if t.len() >= MAX_RECORDED_GRAPHS {
        t.remove(0);
    }
    t.push((id, graph));
    id
}

/// Drain every graph recorded since the last call (the graph-side analogue
/// of [`polar_obs::take_spans`]). Pair the result with drained spans and
/// feed both to [`analyze`].
pub fn take_executed_graphs() -> Vec<(u32, Arc<TaskGraph>)> {
    std::mem::take(&mut *table().lock().unwrap())
}

/// Busy time and occupancy of one worker lane within one dag.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Obs lane: 0 = external/caller thread, `i + 1` = pool worker `i`.
    pub lane: u32,
    /// Tasks this lane executed.
    pub tasks: usize,
    /// Sum of task durations on this lane, ns.
    pub busy_ns: u64,
    /// `busy_ns / makespan_ns` — fraction of the dag's lifetime this lane
    /// spent inside task bodies.
    pub utilization: f64,
}

/// One high-leverage task: low slack (near or on the measured critical
/// path) and long duration.
#[derive(Debug, Clone)]
pub struct BottleneckTask {
    pub task: u32,
    pub name: &'static str,
    pub lane: u32,
    pub duration_ns: u64,
    /// `CP - (longest chain through this task)`; zero means the task sits
    /// on the measured critical path.
    pub slack_ns: u64,
}

/// Aggregate over one task class (span name, e.g. `task_gemm`).
#[derive(Debug, Clone)]
pub struct ClassBreakdown {
    pub name: &'static str,
    pub tasks: usize,
    pub busy_ns: u64,
    /// Modeled flops (from the graph), for seconds-per-flop calibration.
    pub flops: f64,
}

/// Distribution summary of a set of wait intervals.
#[derive(Debug, Clone)]
pub struct WaitStats {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub hist: HistogramSnapshot,
}

impl WaitStats {
    fn from_samples(samples: &[u64]) -> Self {
        let h = Histogram::default();
        let mut total = 0u64;
        let mut max = 0u64;
        for &s in samples {
            h.record_ns(s);
            total += s;
            max = max.max(s);
        }
        WaitStats { count: samples.len() as u64, total_ns: total, max_ns: max, hist: h.snapshot() }
    }
}

/// Post-mortem of one executed dag.
#[derive(Debug, Clone)]
pub struct DagPostmortem {
    /// Process-unique dag id ([`record_graph`]).
    pub dag: u32,
    /// Task spans observed (== graph size unless the dag was cancelled).
    pub spans: usize,
    /// Tasks in the dependency graph.
    pub graph_tasks: usize,
    /// Wall interval covered by the dag's task spans, ns since obs epoch.
    pub first_start_ns: u64,
    pub last_end_ns: u64,
    /// `last_end - first_start`.
    pub makespan_ns: u64,
    /// Longest dependency chain weighted by measured durations, ns.
    pub critical_path_ns: u64,
    /// Tasks on that chain.
    pub critical_path_tasks: usize,
    /// Sum of all task durations, ns.
    pub total_busy_ns: u64,
    /// Modeled flops of the whole graph / of its flop-weighted critical
    /// path (schedule-independent; from [`TaskGraph`]).
    pub total_flops: f64,
    pub cp_flops: f64,
    /// Lanes that executed at least one task, ascending.
    pub workers: Vec<WorkerStats>,
    /// `total_busy / (makespan * workers.len())`.
    pub parallel_efficiency: f64,
    /// Heap wait per task: `start - ready`.
    pub queue_wait: WaitStats,
    /// Ready-starvation (`dag_park`) intervals attributed to this dag.
    pub park: WaitStats,
    /// Tasks executed on a different lane than the one that released them.
    pub migrated_tasks: usize,
    /// Top-k tasks by (slack asc, duration desc).
    pub bottlenecks: Vec<BottleneckTask>,
    /// Per span-name aggregates, name-sorted.
    pub classes: Vec<ClassBreakdown>,
    /// Task ids in execution (span-seq) order — the schedule itself.
    pub order: Vec<u32>,
}

/// Full report over every dag found in a span drain.
#[derive(Debug, Clone, Default)]
pub struct Postmortem {
    /// Per-dag reports, ascending dag id.
    pub dags: Vec<DagPostmortem>,
}

/// How many bottleneck tasks each [`DagPostmortem`] retains.
pub const BOTTLENECK_TOP_K: usize = 5;

struct TaskObs {
    start_ns: u64,
    end_ns: u64,
    lane: u32,
    seq: u64,
    name: &'static str,
    life: TaskLifecycle,
}

/// Rejoin drained spans with their recorded graphs and compute one
/// [`DagPostmortem`] per dag that has at least one task span. Spans whose
/// dag has no recorded graph (or vice versa) are skipped, so partial
/// drains degrade to partial reports rather than errors.
pub fn analyze(spans: &[SpanRecord], graphs: &[(u32, Arc<TaskGraph>)]) -> Postmortem {
    let by_id: BTreeMap<u32, &Arc<TaskGraph>> = graphs.iter().map(|(id, g)| (*id, g)).collect();

    // Partition task spans by dag; collect park intervals by dims[0].
    let mut tasks: BTreeMap<u32, Vec<TaskObs>> = BTreeMap::new();
    let mut parks: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if s.name == PARK_SPAN {
            parks.entry(s.dims[0] as u32).or_default().push(s.end_ns.saturating_sub(s.start_ns));
            continue;
        }
        let Some(life) = s.lifecycle else { continue };
        if !by_id.contains_key(&life.dag) {
            continue;
        }
        tasks.entry(life.dag).or_default().push(TaskObs {
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            lane: s.lane,
            seq: s.seq,
            name: s.name,
            life,
        });
    }

    let mut dags = Vec::with_capacity(tasks.len());
    for (dag, mut obs) in tasks {
        let graph = by_id[&dag];
        obs.sort_by_key(|o| o.seq);
        let park = parks.remove(&dag).unwrap_or_default();
        dags.push(analyze_dag(dag, graph, &obs, &park));
    }
    Postmortem { dags }
}

fn analyze_dag(dag: u32, graph: &TaskGraph, obs: &[TaskObs], park: &[u64]) -> DagPostmortem {
    let n = graph.len();
    // Per-task measured interval; tasks without a span (cancelled dag)
    // contribute zero duration but keep their edges in the chain sweep.
    let mut span_of: Vec<Option<&TaskObs>> = vec![None; n];
    for o in obs {
        let t = o.life.task as usize;
        if t < n && span_of[t].is_none() {
            span_of[t] = Some(o);
        }
    }
    let dur = |t: usize| -> u64 { span_of[t].map_or(0, |o| o.end_ns.saturating_sub(o.start_ns)) };

    let first_start_ns = obs.iter().map(|o| o.start_ns).min().unwrap_or(0);
    let last_end_ns = obs.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let makespan_ns = last_end_ns.saturating_sub(first_start_ns);

    // Measured critical path. GraphBuilder emits edges from earlier to
    // later task ids only (dependencies are inferred in program order), so
    // ascending id order is topological.
    let mut cp_in = vec![0u64; n]; // longest chain ending at t, inclusive
    let mut best_pred = vec![usize::MAX; n];
    for t in 0..n {
        let mut best = 0u64;
        for &p in graph.preds(t) {
            let p = p as usize;
            if cp_in[p] > best {
                best = cp_in[p];
                best_pred[t] = p;
            }
        }
        cp_in[t] = best + dur(t);
    }
    let mut cp_out = vec![0u64; n]; // longest chain starting at t, inclusive
    for t in (0..n).rev() {
        let best = graph.succs(t).iter().map(|&s| cp_out[s as usize]).max().unwrap_or(0);
        cp_out[t] = best + dur(t);
    }
    let (cp_sink, critical_path_ns) = cp_in
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(t, v)| (v, std::cmp::Reverse(t)))
        .unwrap_or((0, 0));
    let mut critical_path_tasks = 0usize;
    if critical_path_ns > 0 {
        let mut t = cp_sink;
        loop {
            critical_path_tasks += 1;
            if best_pred[t] == usize::MAX {
                break;
            }
            t = best_pred[t];
        }
    }

    // Per-lane busy/occupancy.
    let mut lanes: BTreeMap<u32, (usize, u64)> = BTreeMap::new();
    let mut total_busy_ns = 0u64;
    for o in obs {
        let d = o.end_ns.saturating_sub(o.start_ns);
        let e = lanes.entry(o.lane).or_insert((0, 0));
        e.0 += 1;
        e.1 += d;
        total_busy_ns += d;
    }
    let workers: Vec<WorkerStats> = lanes
        .into_iter()
        .map(|(lane, (tasks, busy_ns))| WorkerStats {
            lane,
            tasks,
            busy_ns,
            utilization: if makespan_ns == 0 { 1.0 } else { busy_ns as f64 / makespan_ns as f64 },
        })
        .collect();
    let parallel_efficiency = if makespan_ns == 0 || workers.is_empty() {
        1.0
    } else {
        total_busy_ns as f64 / (makespan_ns as f64 * workers.len() as f64)
    };

    // Queue wait (start - ready) and migration.
    let mut waits = Vec::with_capacity(obs.len());
    let mut migrated_tasks = 0usize;
    for o in obs {
        waits.push(o.start_ns.saturating_sub(o.life.ready_ns));
        if o.lane != o.life.ready_lane {
            migrated_tasks += 1;
        }
    }

    // Slack-ranked bottlenecks.
    let mut ranked: Vec<BottleneckTask> = obs
        .iter()
        .map(|o| {
            let t = o.life.task as usize;
            let through = cp_in[t] + cp_out[t] - dur(t);
            BottleneckTask {
                task: o.life.task,
                name: o.name,
                lane: o.lane,
                duration_ns: o.end_ns.saturating_sub(o.start_ns),
                slack_ns: critical_path_ns.saturating_sub(through),
            }
        })
        .collect();
    ranked.sort_by_key(|b| (b.slack_ns, std::cmp::Reverse(b.duration_ns), b.task));
    ranked.truncate(BOTTLENECK_TOP_K);

    // Per-class aggregates (modeled flops come from the graph so that a
    // calibrated sim model can be fit from measured seconds per flop).
    let mut classes: BTreeMap<&'static str, ClassBreakdown> = BTreeMap::new();
    for o in obs {
        let t = o.life.task as usize;
        let e = classes.entry(o.name).or_insert(ClassBreakdown {
            name: o.name,
            tasks: 0,
            busy_ns: 0,
            flops: 0.0,
        });
        e.tasks += 1;
        e.busy_ns += o.end_ns.saturating_sub(o.start_ns);
        if t < n {
            e.flops += graph.tasks[t].flops;
        }
    }

    DagPostmortem {
        dag,
        spans: obs.len(),
        graph_tasks: n,
        first_start_ns,
        last_end_ns,
        makespan_ns,
        critical_path_ns,
        critical_path_tasks,
        total_busy_ns,
        total_flops: graph.total_flops(),
        cp_flops: graph.critical_path_flops(),
        workers,
        parallel_efficiency,
        queue_wait: WaitStats::from_samples(&waits),
        park: WaitStats::from_samples(park),
        migrated_tasks,
        bottlenecks: ranked,
        classes: classes.into_values().collect(),
        order: obs.iter().map(|o| o.life.task).collect(),
    }
}

impl DagPostmortem {
    /// `makespan / critical_path` — 1.0 means the schedule is CP-bound and
    /// no scheduling improvement can help; large values mean slack.
    pub fn cp_stretch(&self) -> f64 {
        if self.critical_path_ns == 0 {
            1.0
        } else {
            self.makespan_ns as f64 / self.critical_path_ns as f64
        }
    }

    /// Project this dag's *measured* schedule into a
    /// [`crate::sched::ScheduleStats`] so it is directly comparable with
    /// the output of [`crate::sched::simulate`] on the same graph.
    pub fn to_schedule_stats(&self) -> ScheduleStats {
        ScheduleStats {
            makespan: self.makespan_ns as f64 * 1e-9,
            total_task_seconds: self.total_busy_ns as f64 * 1e-9,
            per_rank_busy: self.workers.iter().map(|w| w.busy_ns as f64 * 1e-9).collect(),
            messages: 0,
            bytes: 0,
            tasks: self.spans,
        }
    }
}

impl Postmortem {
    /// Canonical timing-free description of what executed: per dag (in
    /// launch order, renumbered so process-global ids cancel out) the task
    /// count, graph shape digest, and the execution order itself. On a
    /// one-worker pool two runs of the same solve must produce
    /// byte-identical digests — the replay CI gate compares exactly this.
    pub fn schedule_digest(&self) -> String {
        let mut out = String::new();
        for (ord, d) in self.dags.iter().enumerate() {
            let _ = writeln!(
                out,
                "dag {ord}: tasks={}/{} flops={:.6e} cp_flops={:.6e} order={:?}",
                d.spans, d.graph_tasks, d.total_flops, d.cp_flops, d.order
            );
        }
        out
    }

    /// Serialize as a JSON array (one object per dag).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.dags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&dag_json(d));
        }
        out.push(']');
        out
    }
}

fn wait_json(w: &WaitStats) -> String {
    let q =
        |d: Option<std::time::Duration>| d.map_or("null".to_string(), |v| v.as_nanos().to_string());
    format!(
        "{{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
        w.count,
        w.total_ns,
        w.max_ns,
        q(w.hist.p50),
        q(w.hist.p95),
        q(w.hist.p99),
    )
}

fn dag_json(d: &DagPostmortem) -> String {
    let workers: Vec<String> = d
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"lane\": {}, \"tasks\": {}, \"busy_ns\": {}, \"utilization\": {:.6}}}",
                w.lane, w.tasks, w.busy_ns, w.utilization
            )
        })
        .collect();
    let bottlenecks: Vec<String> = d
        .bottlenecks
        .iter()
        .map(|b| {
            format!(
                "{{\"task\": {}, \"name\": \"{}\", \"lane\": {}, \"duration_ns\": {}, \"slack_ns\": {}}}",
                b.task, b.name, b.lane, b.duration_ns, b.slack_ns
            )
        })
        .collect();
    let classes: Vec<String> = d
        .classes
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"tasks\": {}, \"busy_ns\": {}, \"flops\": {:.3e}}}",
                c.name, c.tasks, c.busy_ns, c.flops
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"dag\": {}, \"tasks\": {}, \"graph_tasks\": {}, ",
            "\"makespan_ns\": {}, \"critical_path_ns\": {}, \"critical_path_tasks\": {}, ",
            "\"cp_stretch\": {:.6}, \"total_busy_ns\": {}, \"parallel_efficiency\": {:.6}, ",
            "\"total_flops\": {:.3e}, \"cp_flops\": {:.3e}, \"migrated_tasks\": {}, ",
            "\"queue_wait\": {}, \"park\": {}, ",
            "\"workers\": [{}], \"bottlenecks\": [{}], \"classes\": [{}]}}"
        ),
        d.dag,
        d.spans,
        d.graph_tasks,
        d.makespan_ns,
        d.critical_path_ns,
        d.critical_path_tasks,
        d.cp_stretch(),
        d.total_busy_ns,
        d.parallel_efficiency,
        d.total_flops,
        d.cp_flops,
        d.migrated_tasks,
        wait_json(&d.queue_wait),
        wait_json(&d.park),
        workers.join(", "),
        bottlenecks.join(", "),
        classes.join(", "),
    )
}

/// One named Chrome-trace counter track sampled at event timestamps.
#[derive(Debug, Clone)]
pub struct CounterTrack {
    pub name: &'static str,
    /// `(ts_ns, value)` samples, ascending and unique in `ts_ns`.
    pub samples: Vec<(u64, f64)>,
}

/// Build the utilization counter tracks for a span drain:
///
/// * `worker_occupancy` — number of task bodies in flight, stepped at every
///   task start/end;
/// * `ready_queue_depth` — the executor's ready-heap depth sampled at each
///   dispatch (`dims[1]` of task spans).
///
/// Samples are timestamp-sorted and deduplicated (last value wins) so
/// Perfetto never sees out-of-order counter events, which it drops.
pub fn counter_tracks(spans: &[SpanRecord]) -> Vec<CounterTrack> {
    let mut steps: Vec<(u64, i64)> = Vec::new();
    let mut depth: Vec<(u64, f64)> = Vec::new();
    for s in spans {
        if s.lifecycle.is_none() && !s.name.starts_with("task_") {
            continue;
        }
        steps.push((s.start_ns, 1));
        steps.push((s.end_ns, -1));
        depth.push((s.start_ns, s.dims[1] as f64));
    }
    steps.sort_unstable();
    let mut occupancy: Vec<(u64, f64)> = Vec::with_capacity(steps.len());
    let mut running = 0i64;
    for (ts, d) in steps {
        running += d;
        match occupancy.last_mut() {
            Some(last) if last.0 == ts => last.1 = running as f64,
            _ => occupancy.push((ts, running as f64)),
        }
    }
    depth.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    depth.dedup_by_key(|s| s.0);
    vec![
        CounterTrack { name: "worker_occupancy", samples: occupancy },
        CounterTrack { name: "ready_queue_depth", samples: depth },
    ]
}

/// Relative makespan error of a simulated schedule against a measured one,
/// in percent (positive = simulation predicts slower than reality).
pub fn makespan_error_pct(predicted: &ScheduleStats, measured: &DagPostmortem) -> f64 {
    let real = measured.makespan_ns as f64 * 1e-9;
    if real <= 0.0 {
        return 0.0;
    }
    (predicted.makespan - real) / real * 100.0
}

/// Re-export so callers naming the mode for sim-vs-real comparisons do not
/// need a second `use` path.
pub use crate::sched::SchedulingMode as SimMode;

/// Convenience: simulate the recorded graph of `d` under `model` and
/// return `(stats, error_pct)` against the measured makespan.
pub fn sim_vs_real<M: crate::sched::ExecutionModel>(
    graph: &TaskGraph,
    model: &M,
    measured: &DagPostmortem,
) -> (ScheduleStats, f64) {
    let stats = crate::sched::simulate(graph, model, SchedulingMode::TaskBased);
    let err = makespan_error_pct(&stats, measured);
    (stats, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, KernelKind, TileRef};
    use polar_obs::KernelClass;

    fn tile(m: u32, i: usize, j: usize) -> TileRef {
        TileRef::new(m, i, j, 64)
    }

    /// A -> B chain plus independent C; hand-checkable everything.
    fn abc_graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Geqrt, 10.0, 0, vec![], vec![tile(m, 0, 0)]); // A = 0
        b.add_task(KernelKind::Gemm, 20.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]); // B = 1
        b.add_task(KernelKind::Gemm, 5.0, 0, vec![], vec![tile(m, 2, 2)]); // C = 2
        b.build()
    }

    #[allow(clippy::too_many_arguments)]
    fn task_obs_span(
        name: &'static str,
        seq: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
        dag: u32,
        task: u32,
        ready_ns: u64,
        ready_lane: u32,
    ) -> SpanRecord {
        SpanRecord {
            name,
            class: Some(KernelClass::Gemm),
            seq,
            lane,
            depth: 0,
            start_ns,
            end_ns,
            flops: 0,
            dims: [0, 3, 0],
            lifecycle: Some(TaskLifecycle { dag, task, ready_ns, ready_lane }),
        }
    }

    fn abc_spans(dag: u32) -> Vec<SpanRecord> {
        vec![
            // A on lane 1: [0, 100]
            task_obs_span("task_geqrt", 0, 1, 0, 100, dag, 0, 0, 0),
            // C on lane 2: [0, 50], released by lane 0, executed on lane 2
            task_obs_span("task_gemm", 1, 2, 0, 50, dag, 2, 0, 0),
            // B on lane 1: ready at 100 (A's end), starts 120, ends 300
            task_obs_span("task_gemm", 2, 1, 120, 300, dag, 1, 100, 1),
        ]
    }

    #[test]
    fn synthetic_dag_exact_critical_path_and_utilization() {
        let graph = Arc::new(abc_graph());
        let pm = analyze(&abc_spans(7), &[(7, graph)]);
        assert_eq!(pm.dags.len(), 1);
        let d = &pm.dags[0];
        assert_eq!(d.dag, 7);
        assert_eq!(d.spans, 3);
        assert_eq!(d.graph_tasks, 3);
        // makespan: spans cover [0, 300]
        assert_eq!(d.makespan_ns, 300);
        // measured CP: A(100) + B(180) = 280 over 2 tasks; C(50) is off-path
        assert_eq!(d.critical_path_ns, 280);
        assert_eq!(d.critical_path_tasks, 2);
        assert!(d.makespan_ns >= d.critical_path_ns);
        // busy: lane 1 = 100 + 180 = 280, lane 2 = 50
        assert_eq!(d.total_busy_ns, 330);
        let lanes: Vec<(u32, u64)> = d.workers.iter().map(|w| (w.lane, w.busy_ns)).collect();
        assert_eq!(lanes, vec![(1, 280), (2, 50)]);
        assert!((d.workers[0].utilization - 280.0 / 300.0).abs() < 1e-12);
        // efficiency: 330 / (300 * 2 lanes)
        assert!((d.parallel_efficiency - 330.0 / 600.0).abs() < 1e-12);
        for w in &d.workers {
            assert!(w.utilization <= 1.0 + 1e-12);
        }
        // queue waits: A 0, C 0, B 20
        assert_eq!(d.queue_wait.count, 3);
        assert_eq!(d.queue_wait.total_ns, 20);
        assert_eq!(d.queue_wait.max_ns, 20);
        // migration: C released on lane 0, ran on lane 2; A likewise (0->1);
        // B released and run on lane 1
        assert_eq!(d.migrated_tasks, 2);
        // execution order by seq
        assert_eq!(d.order, vec![0, 2, 1]);
        // graph-side flop accounting is passed through
        assert_eq!(d.total_flops, 35.0);
        assert_eq!(d.cp_flops, 30.0);
    }

    #[test]
    fn bottlenecks_rank_by_slack_then_duration() {
        let graph = Arc::new(abc_graph());
        let pm = analyze(&abc_spans(1), &[(1, graph)]);
        let b = &pm.dags[0].bottlenecks;
        assert_eq!(b.len(), 3);
        // A and B are on the CP (slack 0); B is longer so it leads
        assert_eq!(b[0].task, 1);
        assert_eq!(b[0].slack_ns, 0);
        assert_eq!(b[1].task, 0);
        assert_eq!(b[1].slack_ns, 0);
        // C: chain through C = 50 ns, slack = 280 - 50
        assert_eq!(b[2].task, 2);
        assert_eq!(b[2].slack_ns, 230);
    }

    #[test]
    fn park_spans_feed_starvation_stats() {
        let graph = Arc::new(abc_graph());
        let mut spans = abc_spans(3);
        spans.push(SpanRecord {
            name: PARK_SPAN,
            class: None,
            seq: 10,
            lane: 2,
            depth: 0,
            start_ns: 60,
            end_ns: 160,
            flops: 0,
            dims: [3, 0, 0],
            lifecycle: None,
        });
        let pm = analyze(&spans, &[(3, graph)]);
        let d = &pm.dags[0];
        assert_eq!(d.park.count, 1);
        assert_eq!(d.park.total_ns, 100);
    }

    #[test]
    fn spans_without_recorded_graph_are_skipped() {
        let pm = analyze(&abc_spans(9), &[]);
        assert!(pm.dags.is_empty());
    }

    #[test]
    fn digest_is_timing_free_and_order_sensitive() {
        let graph = Arc::new(abc_graph());
        let a = analyze(&abc_spans(5), &[(5, Arc::clone(&graph))]);
        // shift all timestamps: digest must not change
        let mut shifted = abc_spans(5);
        for s in &mut shifted {
            s.start_ns += 1_000_000;
            s.end_ns += 1_000_000;
            if let Some(l) = &mut s.lifecycle {
                l.ready_ns += 1_000_000;
            }
        }
        let b = analyze(&shifted, &[(5, Arc::clone(&graph))]);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        // different dag id, same schedule: digest normalizes ids away
        let mut renamed = abc_spans(6);
        for s in &mut renamed {
            if let Some(l) = &mut s.lifecycle {
                l.dag = 6;
            }
        }
        let c = analyze(&renamed, &[(6, Arc::clone(&graph))]);
        assert_eq!(a.schedule_digest(), c.schedule_digest());
        // a different execution order must change the digest
        let mut swapped = abc_spans(5);
        swapped[0].seq = 2;
        swapped[2].seq = 0;
        let d = analyze(&swapped, &[(5, graph)]);
        assert_ne!(a.schedule_digest(), d.schedule_digest());
    }

    #[test]
    fn json_contains_headline_numbers() {
        let graph = Arc::new(abc_graph());
        let pm = analyze(&abc_spans(2), &[(2, graph)]);
        let j = pm.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"critical_path_ns\": 280"));
        assert!(j.contains("\"makespan_ns\": 300"));
        assert!(j.contains("\"queue_wait\""));
        assert!(j.contains("\"utilization\""));
        assert!(j.contains("\"task_geqrt\""));
    }

    #[test]
    fn counter_tracks_are_sorted_and_deduped() {
        let tracks = counter_tracks(&abc_spans(1));
        assert_eq!(tracks.len(), 2);
        let occ = &tracks[0];
        assert_eq!(occ.name, "worker_occupancy");
        // ts 0: A and C start (2 in flight); 50: C ends; 100: A ends;
        // 120: B starts; 300: B ends
        assert_eq!(occ.samples, vec![(0, 2.0), (50, 1.0), (100, 0.0), (120, 1.0), (300, 0.0)]);
        for w in occ.samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let depth = &tracks[1];
        assert_eq!(depth.name, "ready_queue_depth");
        assert_eq!(depth.samples.len(), 2); // ts 0 dedupes to one sample
    }

    #[test]
    fn measured_stats_compare_against_simulation() {
        let graph = abc_graph();
        let pm = analyze(&abc_spans(4), &[(4, Arc::new(graph.clone()))]);
        let d = &pm.dags[0];
        struct Unit;
        impl crate::sched::ExecutionModel for Unit {
            fn ranks(&self) -> usize {
                1
            }
            fn slots(&self, _r: usize) -> usize {
                2
            }
            fn task_seconds(&self, task: &crate::graph::Task) -> f64 {
                // 10 ns of model time per flop
                task.flops * 10e-9
            }
            fn message_seconds(&self, _b: u64, _f: usize, _t: usize) -> f64 {
                0.0
            }
        }
        let (stats, err) = sim_vs_real(&graph, &Unit, d);
        // model CP: (10 + 20) flops * 10 ns = 300 ns predicted makespan;
        // measured 300 ns -> 0% error
        assert!((stats.makespan - 300e-9).abs() < 1e-15);
        assert!(err.abs() < 1e-9);
        let m = d.to_schedule_stats();
        assert!((m.makespan - 300e-9).abs() < 1e-15);
        assert_eq!(m.tasks, 3);
    }

    #[test]
    fn record_table_caps_and_drains() {
        // ids are process-global; just check drain semantics and the cap
        let g = Arc::new(abc_graph());
        let before = take_executed_graphs().len(); // clear
        let _ = before;
        let mut ids = Vec::new();
        for _ in 0..(MAX_RECORDED_GRAPHS + 8) {
            ids.push(record_graph(Arc::clone(&g)));
        }
        let drained = take_executed_graphs();
        assert_eq!(drained.len(), MAX_RECORDED_GRAPHS);
        // oldest were dropped: the drained set is the tail of ids
        assert_eq!(drained[0].0, ids[8]);
        assert!(take_executed_graphs().is_empty());
    }
}
