//! Deterministic schedule simulation over a [`TaskGraph`].

use crate::graph::{CommStats, Task, TaskGraph};

/// Abstract machine executing a task graph. `polar-sim` implements this
/// for Summit / Frontier node models; tests use unit-cost toys.
pub trait ExecutionModel {
    /// Number of ranks (MPI processes).
    fn ranks(&self) -> usize;
    /// Concurrent execution slots per rank (cores, or GPU streams for
    /// accelerated configurations).
    fn slots(&self, rank: usize) -> usize;
    /// Execution time of one task on its rank, in seconds.
    fn task_seconds(&self, task: &Task) -> f64;
    /// Time for a `bytes`-sized tile transfer between two ranks
    /// (latency + bytes / bandwidth); `from == to` is free.
    fn message_seconds(&self, bytes: u64, from: usize, to: usize) -> f64;
    /// Cost of a global barrier (fork-join mode only). Default: a small
    /// log-tree latency.
    fn barrier_seconds(&self) -> f64 {
        let r = self.ranks().max(2) as f64;
        2e-6 * r.log2()
    }
}

/// Scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// SLATE: tasks start as soon as their data (including in-flight tile
    /// transfers) is available and a slot frees up; communication overlaps
    /// computation; lookahead across phases emerges naturally.
    TaskBased,
    /// ScaLAPACK/POLAR: a global barrier separates steps
    /// ([`Task::barrier`]); no task of step `k+1` starts before every task
    /// of step `k` finished everywhere (the bulk-synchronous fork-join
    /// model of §3).
    ForkJoin,
}

/// Outcome of a simulated schedule.
#[derive(Debug, Clone)]
pub struct ScheduleStats {
    /// End-to-end execution time, seconds.
    pub makespan: f64,
    /// Sum of task times (serial work), seconds.
    pub total_task_seconds: f64,
    /// Busy time per rank.
    pub per_rank_busy: Vec<f64>,
    /// Cross-rank tile messages ([`TaskGraph::comm`]).
    pub messages: u64,
    /// Cross-rank bytes ([`TaskGraph::comm`]).
    pub bytes: u64,
    /// Tasks executed.
    pub tasks: usize,
}

impl ScheduleStats {
    /// Aggregate parallel efficiency: serial work / (makespan * total slots).
    /// Degenerate inputs are defined rather than NaN: an empty schedule
    /// (`makespan <= 0`) is perfectly efficient, a machine with zero slots
    /// has efficiency 0.
    pub fn efficiency(&self, total_slots: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        if total_slots == 0 {
            return 0.0;
        }
        self.total_task_seconds / (self.makespan * total_slots as f64)
    }

    /// Sustained rate in Tflop/s given the graph's total flops.
    pub fn tflops(&self, total_flops: f64) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        total_flops / self.makespan / 1e12
    }
}

/// Scheduler-decision metadata attached to measured task spans: what the
/// executor knew when it dispatched the task. Rendered as Chrome-trace
/// `args` so Perfetto shows them on click.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedArgs {
    /// Computed critical-path-to-sink priority (flops) of the task.
    pub cp_flops: u64,
    /// Ready-queue depth at the moment the task was popped.
    pub ready_depth: u32,
    /// Phase / solver-iteration index the task belongs to.
    pub step: u32,
    /// Nanoseconds the task waited in the ready heap before dispatch
    /// (`start - deps_ready`); 0 when the span carried no lifecycle.
    pub queue_wait_ns: u64,
}

/// One task's placement in a simulated schedule (for trace export). Also
/// the common currency for *measured* solver spans: `solver_trace`
/// converts `polar_obs` span records into `TraceEvent`s with `rank` = pool
/// worker lane and `slot` = nesting depth.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub task: usize,
    pub rank: usize,
    pub slot: usize,
    pub start: f64,
    pub end: f64,
    pub kind: crate::graph::KernelKind,
    /// Span name overriding the `kind` debug name in the exported trace
    /// (`None` for simulated tile tasks, `Some` for measured spans).
    pub label: Option<&'static str>,
    /// Scheduler metadata for measured DAG task spans.
    pub args: Option<SchedArgs>,
}

/// [`simulate`] variant that also returns the full per-task placement,
/// suitable for [`write_chrome_trace`].
pub fn simulate_traced<M: ExecutionModel>(
    graph: &TaskGraph,
    model: &M,
    mode: SchedulingMode,
) -> (ScheduleStats, Vec<TraceEvent>) {
    let mut events = Vec::with_capacity(graph.len());
    let stats = simulate_impl(graph, model, mode, Some(&mut events));
    (stats, events)
}

/// Serialize one complete event as a Chrome-trace JSON object (no trailing
/// comma/newline). Shared by [`write_chrome_trace`] and `solver_trace`.
pub(crate) fn event_json(e: &TraceEvent) -> String {
    let name: std::borrow::Cow<'_, str> = match e.label {
        Some(l) => l.into(),
        None => format!("{:?}#{}", e.kind, e.task).into(),
    };
    let args: std::borrow::Cow<'_, str> = match e.args {
        Some(a) => format!(
            ", \"args\": {{\"cp_flops\": {}, \"ready_depth\": {}, \"step\": {}, \"queue_wait_ns\": {}}}",
            a.cp_flops, a.ready_depth, a.step, a.queue_wait_ns
        )
        .into(),
        None => "".into(),
    };
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}{args}}}",
        e.start * 1e6,
        (e.end - e.start) * 1e6,
        e.rank,
        e.slot,
    )
}

/// Serialize a traced schedule as Chrome tracing JSON (open in
/// `chrome://tracing` or Perfetto): one row per (rank, slot), durations in
/// microseconds of simulated time. Events are emitted in ascending start
/// order regardless of input order — Perfetto tolerates unordered complete
/// events but *drops* out-of-order counter samples, and measured traces
/// (svc `SpanLog`, `solver_trace`) interleave buffers from many threads on
/// the shared `polar_obs::epoch` clock, so serialization is where ordering
/// is enforced once for every producer.
pub fn write_chrome_trace<W: std::io::Write>(
    events: &[TraceEvent],
    mut w: W,
) -> std::io::Result<()> {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by(|a, b| a.start.total_cmp(&b.start));
    writeln!(w, "[")?;
    for (i, e) in order.iter().enumerate() {
        let comma = if i + 1 == order.len() { "" } else { "," };
        writeln!(w, "  {}{comma}", event_json(e))?;
    }
    writeln!(w, "]")
}

/// Simulate executing `graph` on `model` under `mode`.
///
/// Greedy list scheduling in program order: each task starts at the later
/// of (a) its data-ready time — predecessor finish plus tile-transfer time
/// for cross-rank edges — and (b) the earliest free execution slot on its
/// rank. Program order is how SLATE's OpenMP tasks are submitted, so this
/// matches the modeled runtime's admissible schedules.
pub fn simulate<M: ExecutionModel>(
    graph: &TaskGraph,
    model: &M,
    mode: SchedulingMode,
) -> ScheduleStats {
    simulate_impl(graph, model, mode, None)
}

fn simulate_impl<M: ExecutionModel>(
    graph: &TaskGraph,
    model: &M,
    mode: SchedulingMode,
    mut trace: Option<&mut Vec<TraceEvent>>,
) -> ScheduleStats {
    let n = graph.len();
    let ranks = model.ranks();
    let mut finish = vec![0.0f64; n];
    // per-rank slot free times
    let mut slots: Vec<Vec<f64>> =
        (0..ranks).map(|r| vec![0.0f64; model.slots(r).max(1)]).collect();
    let mut busy = vec![0.0f64; ranks];
    let edge_bytes = graph.edge_bytes();
    let mut sent = edge_bytes.iter(); // one entry per predecessor edge, in task order
    let mut total_task_seconds = 0.0f64;

    // fork-join: running end time of the previous step
    let mut current_step = 0u32;
    let mut step_end = 0.0f64; // max finish among completed steps
    let mut running_step_max = 0.0f64;

    for t in 0..n {
        let task = &graph.tasks[t];
        let rank = task.rank.min(ranks - 1);

        if mode == SchedulingMode::ForkJoin && task.barrier != current_step {
            // barrier: everything in earlier steps must have finished
            step_end = step_end.max(running_step_max) + model.barrier_seconds();
            running_step_max = 0.0;
            current_step = task.barrier;
        }

        // data-ready: predecessors + tile transfer for cross-rank edges (a
        // pure ordering edge, WAR/WAW, still needs a zero-byte sync)
        let mut ready = if mode == SchedulingMode::ForkJoin { step_end } else { 0.0 };
        for (&p, &bytes) in graph.preds(t).iter().zip(sent.by_ref()) {
            let p = p as usize;
            let prank = graph.tasks[p].rank.min(ranks - 1);
            ready = ready.max(finish[p] + model.message_seconds(bytes, prank, rank));
        }

        // earliest free slot on this rank
        let slot = {
            let s = &mut slots[rank];
            let mut best = 0usize;
            for (i, &v) in s.iter().enumerate() {
                if v < s[best] {
                    best = i;
                }
            }
            best
        };
        let start = ready.max(slots[rank][slot]);
        let dur = model.task_seconds(task);
        let end = start + dur;
        slots[rank][slot] = end;
        finish[t] = end;
        busy[rank] += dur;
        total_task_seconds += dur;
        running_step_max = running_step_max.max(end);
        if let Some(ev) = trace.as_deref_mut() {
            ev.push(TraceEvent {
                task: t,
                rank,
                slot,
                start,
                end,
                kind: task.kind,
                label: None,
                args: None,
            });
        }
    }

    let makespan = finish.iter().cloned().fold(0.0f64, f64::max);
    let comm = CommStats::of(&edge_bytes);
    ScheduleStats {
        makespan,
        total_task_seconds,
        per_rank_busy: busy,
        messages: comm.point_to_point_messages,
        bytes: comm.point_to_point_bytes,
        tasks: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, KernelKind, TileRef};

    /// Unit-cost machine: every task takes its flops as seconds; messages
    /// cost `latency + bytes * inv_bw`.
    struct ToyModel {
        ranks: usize,
        slots: usize,
        latency: f64,
        inv_bw: f64,
    }

    impl ExecutionModel for ToyModel {
        fn ranks(&self) -> usize {
            self.ranks
        }
        fn slots(&self, _r: usize) -> usize {
            self.slots
        }
        fn task_seconds(&self, task: &Task) -> f64 {
            task.flops
        }
        fn message_seconds(&self, bytes: u64, from: usize, to: usize) -> f64 {
            if from == to {
                0.0
            } else {
                self.latency + bytes as f64 * self.inv_bw
            }
        }
        fn barrier_seconds(&self) -> f64 {
            10.0
        }
    }

    fn tile(m: u32, i: usize, j: usize) -> TileRef {
        TileRef::new(m, i, j, 100)
    }

    #[test]
    fn serial_chain_sums() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for _ in 0..4 {
            b.add_task(KernelKind::Potrf, 5.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 0, 0)]);
        }
        let g = b.build();
        let model = ToyModel { ranks: 4, slots: 4, latency: 0.0, inv_bw: 0.0 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        assert_eq!(s.makespan, 20.0);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for j in 0..8 {
            b.add_task(KernelKind::Gemm, 3.0, 0, vec![], vec![tile(m, 0, j)]);
        }
        let g = b.build();
        // 8 tasks, 4 slots on one rank: two waves
        let model = ToyModel { ranks: 1, slots: 4, latency: 0.0, inv_bw: 0.0 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        assert_eq!(s.makespan, 6.0);
        assert_eq!(s.total_task_seconds, 24.0);
        assert!((s.efficiency(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_rank_edge_pays_message_time() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Potrf, 5.0, 0, vec![], vec![tile(m, 0, 0)]);
        b.add_task(KernelKind::Trsm, 5.0, 1, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]);
        let g = b.build();
        let model = ToyModel { ranks: 2, slots: 1, latency: 2.0, inv_bw: 0.01 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        // 5 + (2 + 100*0.01) + 5 = 13
        assert!((s.makespan - 13.0).abs() < 1e-12);
        assert_eq!(s.messages, 1);
        assert_eq!(s.bytes, 100);
    }

    #[test]
    fn same_rank_edge_is_free() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Potrf, 5.0, 0, vec![], vec![tile(m, 0, 0)]);
        b.add_task(KernelKind::Trsm, 5.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]);
        let g = b.build();
        let model = ToyModel { ranks: 2, slots: 1, latency: 2.0, inv_bw: 0.01 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        assert_eq!(s.makespan, 10.0);
        assert_eq!(s.messages, 0);
    }

    #[test]
    fn fork_join_pays_barriers_task_based_overlaps() {
        // two phases; phase 2's tasks are independent of phase 1
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Gemm, 5.0, 0, vec![], vec![tile(m, 0, 0)]);
        b.next_phase();
        b.add_task(KernelKind::Gemm, 5.0, 1, vec![], vec![tile(m, 1, 1)]);
        let g = b.build();
        let model = ToyModel { ranks: 2, slots: 1, latency: 0.0, inv_bw: 0.0 };

        let tb = simulate(&g, &model, SchedulingMode::TaskBased);
        // independent tasks on different ranks: fully overlapped
        assert_eq!(tb.makespan, 5.0);

        let fj = simulate(&g, &model, SchedulingMode::ForkJoin);
        // barrier forces serialization: 5 + barrier(10) + 5
        assert_eq!(fj.makespan, 20.0);
    }

    #[test]
    fn fork_join_never_faster_than_task_based() {
        // random-ish layered DAG
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for layer in 0..5 {
            for j in 0..6 {
                let reads = if layer == 0 { vec![] } else { vec![tile(m, layer - 1, (j + 1) % 6)] };
                b.add_task(
                    KernelKind::Gemm,
                    (1 + (j * layer) % 4) as f64,
                    j % 3,
                    reads,
                    vec![tile(m, layer, j)],
                );
            }
            b.next_phase();
        }
        let g = b.build();
        let model = ToyModel { ranks: 3, slots: 2, latency: 0.5, inv_bw: 0.001 };
        let tb = simulate(&g, &model, SchedulingMode::TaskBased);
        let fj = simulate(&g, &model, SchedulingMode::ForkJoin);
        assert!(fj.makespan >= tb.makespan, "fj {} < tb {}", fj.makespan, tb.makespan);
    }

    #[test]
    fn makespan_bounds() {
        // makespan >= critical path (unit model), makespan <= serial sum
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for k in 0..10 {
            let reads = if k == 0 { vec![] } else { vec![tile(m, 0, k - 1)] };
            b.add_task(KernelKind::Gemm, 2.0, k % 4, reads, vec![tile(m, 0, k)]);
            b.add_task(KernelKind::Herk, 1.0, (k + 1) % 4, vec![], vec![tile(m, 1, k)]);
        }
        let g = b.build();
        let model = ToyModel { ranks: 4, slots: 1, latency: 0.0, inv_bw: 0.0 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        assert!(s.makespan >= g.critical_path_flops() - 1e-12);
        assert!(s.makespan <= s.total_task_seconds + 1e-12);
    }

    #[test]
    fn traced_simulation_matches_plain() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for k in 0..6 {
            let reads = if k == 0 { vec![] } else { vec![tile(m, 0, k - 1)] };
            b.add_task(KernelKind::Gemm, 2.0, k % 2, reads, vec![tile(m, 0, k)]);
        }
        let g = b.build();
        let model = ToyModel { ranks: 2, slots: 1, latency: 0.5, inv_bw: 0.001 };
        let plain = simulate(&g, &model, SchedulingMode::TaskBased);
        let (stats, events) = simulate_traced(&g, &model, SchedulingMode::TaskBased);
        assert_eq!(stats.makespan, plain.makespan);
        assert_eq!(events.len(), 6);
        // events are consistent: end - start == task duration; no slot
        // hosts two overlapping events
        for e in &events {
            assert!((e.end - e.start - 2.0).abs() < 1e-12);
        }
        for a in &events {
            for b2 in &events {
                if a.task != b2.task && a.rank == b2.rank && a.slot == b2.slot {
                    assert!(a.end <= b2.start + 1e-12 || b2.end <= a.start + 1e-12);
                }
            }
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Potrf, 1.0, 0, vec![], vec![tile(m, 0, 0)]);
        b.add_task(KernelKind::Trsm, 1.0, 0, vec![tile(m, 0, 0)], vec![tile(m, 1, 0)]);
        let g = b.build();
        let model = ToyModel { ranks: 1, slots: 1, latency: 0.0, inv_bw: 0.0 };
        let (_, events) = simulate_traced(&g, &model, SchedulingMode::TaskBased);
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"ph\": \"X\"").count(), 2);
        assert!(s.contains("Potrf#0"));
        // exactly one separating comma between the two event objects
        assert_eq!(s.matches("},\n").count(), 1);
    }

    #[test]
    fn chrome_trace_emits_sched_args() {
        let events = vec![TraceEvent {
            task: 0,
            rank: 0,
            slot: 0,
            start: 0.0,
            end: 1e-6,
            kind: KernelKind::Gemm,
            label: Some("task_gemm"),
            args: Some(SchedArgs { cp_flops: 123456, ready_depth: 7, step: 3, queue_wait_ns: 42 }),
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains(
            "\"args\": {\"cp_flops\": 123456, \"ready_depth\": 7, \"step\": 3, \"queue_wait_ns\": 42}"
        ));
    }

    #[test]
    fn chrome_trace_orders_events_by_timestamp() {
        // events arriving out of order (multi-thread buffers) must be
        // serialized in ascending ts
        let mk = |task: usize, start: f64| TraceEvent {
            task,
            rank: 0,
            slot: 0,
            start,
            end: start + 1e-6,
            kind: KernelKind::Gemm,
            label: None,
            args: None,
        };
        let events = vec![mk(0, 3e-6), mk(1, 1e-6), mk(2, 2e-6)];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let ts: Vec<usize> = s.match_indices("\"ts\": ").map(|(i, _)| i).collect();
        let vals: Vec<f64> =
            ts.iter().map(|&i| s[i + 6..].split(',').next().unwrap().parse().unwrap()).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn tflops_reporting() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Gemm, 1e12, 0, vec![], vec![tile(m, 0, 0)]);
        let g = b.build();
        let model = ToyModel { ranks: 1, slots: 1, latency: 0.0, inv_bw: 0.0 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        // 1e12 flops in 1e12 seconds = 1e-12 Tflop/s... the toy model's
        // seconds == flops, so tflops = total/makespan/1e12 = 1e-12
        assert!((s.tflops(g.total_flops()) - 1e-12).abs() < 1e-20);
    }
}
