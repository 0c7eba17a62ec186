//! Sim-vs-real: calibrate an [`ExecutionModel`] from a *measured* run and
//! replay the executed graph through the discrete-event scheduler.
//!
//! The post-mortem layer (`polar_runtime::postmortem`) reconstructs what
//! the DAG executor did — per-task durations, per-worker busy time, the
//! measured makespan. [`MeasuredHost`] turns those measurements into the
//! simplest machine model that could have produced them: one rank,
//! `slots = workers`, a single fitted seconds-per-flop rate plus a fixed
//! per-task dispatch overhead. Replaying the same [`TaskGraph`] through
//! [`polar_runtime::simulate`] under that model then answers the question
//! the sim-vs-real CI gate asks: *does the simulator's list-scheduling
//! abstraction predict the measured makespan once its rates are honest?*
//! A large error means the simulator's scheduling assumptions (not its
//! rates — those are fitted) diverge from the real executor, which is
//! exactly the regression the nightly drift gate watches for.

use polar_runtime::postmortem::DagPostmortem;
use polar_runtime::{simulate, ExecutionModel, ScheduleStats, SchedulingMode, Task, TaskGraph};

/// Execution model fitted from one measured dag: uniform seconds-per-flop
/// plus constant per-task overhead, `slots` concurrent workers, one rank
/// (in-process pool ⇒ no messages).
#[derive(Debug, Clone, Copy)]
pub struct MeasuredHost {
    /// Concurrent execution slots (= worker lanes observed).
    pub slots: usize,
    /// Fitted compute rate, seconds per flop.
    pub secs_per_flop: f64,
    /// Fixed per-task cost (dispatch + body prologue), seconds.
    pub task_overhead_s: f64,
}

impl MeasuredHost {
    /// Fit from a measured dag post-mortem: `secs_per_flop` makes the
    /// modeled serial work equal the measured total busy time after
    /// subtracting a per-task overhead share. With zero flops recorded
    /// (degenerate graphs) everything lands in overhead.
    pub fn calibrate(d: &DagPostmortem) -> Self {
        let slots = d.workers.len().max(1);
        let tasks = d.spans.max(1) as f64;
        let busy_s = d.total_busy_ns as f64 * 1e-9;
        // Attribute the *minimum* observed task duration to fixed overhead
        // (a zero-flop task would still cost roughly that much), the rest
        // to flops.
        let min_task_s = d
            .classes
            .iter()
            .filter(|c| c.tasks > 0)
            .map(|c| c.busy_ns as f64 * 1e-9 / c.tasks as f64)
            .fold(f64::INFINITY, f64::min);
        let task_overhead_s =
            if min_task_s.is_finite() { (min_task_s * 0.1).min(1e-4) } else { 0.0 };
        let compute_s = (busy_s - task_overhead_s * tasks).max(0.0);
        let secs_per_flop = if d.total_flops > 0.0 { compute_s / d.total_flops } else { 0.0 };
        MeasuredHost { slots, secs_per_flop, task_overhead_s }
    }
}

impl ExecutionModel for MeasuredHost {
    fn ranks(&self) -> usize {
        1
    }
    fn slots(&self, _rank: usize) -> usize {
        self.slots
    }
    fn task_seconds(&self, task: &Task) -> f64 {
        self.task_overhead_s + task.flops * self.secs_per_flop
    }
    fn message_seconds(&self, _bytes: u64, _from: usize, _to: usize) -> f64 {
        0.0
    }
    fn barrier_seconds(&self) -> f64 {
        0.0
    }
}

/// Predicted-vs-measured error for one task class.
#[derive(Debug, Clone)]
pub struct ClassError {
    pub name: &'static str,
    pub tasks: usize,
    /// Measured busy seconds of the class.
    pub measured_s: f64,
    /// Modeled seconds under the calibrated rate.
    pub predicted_s: f64,
    /// `(predicted - measured) / measured * 100`, 0 when nothing measured.
    pub error_pct: f64,
}

/// One sim-vs-real comparison: the calibrated model, the simulated
/// schedule of the measured graph, and the error decomposition.
#[derive(Debug, Clone)]
pub struct SimVsReal {
    pub model: MeasuredHost,
    pub predicted: ScheduleStats,
    /// Measured makespan, seconds.
    pub measured_makespan_s: f64,
    /// `(predicted.makespan - measured) / measured * 100`.
    pub makespan_error_pct: f64,
    pub classes: Vec<ClassError>,
}

/// Calibrate a [`MeasuredHost`] from `measured`, replay `graph` through
/// the task-based discrete-event scheduler, and report makespan plus
/// per-class error.
pub fn compare(graph: &TaskGraph, measured: &DagPostmortem) -> SimVsReal {
    let model = MeasuredHost::calibrate(measured);
    let predicted = simulate(graph, &model, SchedulingMode::TaskBased);
    let measured_makespan_s = measured.makespan_ns as f64 * 1e-9;
    let makespan_error_pct = if measured_makespan_s > 0.0 {
        (predicted.makespan - measured_makespan_s) / measured_makespan_s * 100.0
    } else {
        0.0
    };
    let classes = measured
        .classes
        .iter()
        .map(|c| {
            let measured_s = c.busy_ns as f64 * 1e-9;
            let predicted_s =
                c.tasks as f64 * model.task_overhead_s + c.flops * model.secs_per_flop;
            ClassError {
                name: c.name,
                tasks: c.tasks,
                measured_s,
                predicted_s,
                error_pct: if measured_s > 0.0 {
                    (predicted_s - measured_s) / measured_s * 100.0
                } else {
                    0.0
                },
            }
        })
        .collect();
    SimVsReal { model, predicted, measured_makespan_s, makespan_error_pct, classes }
}

impl SimVsReal {
    /// Serialize as one JSON object (the `sim_vs_real` row of
    /// `solver_profile --analyze`'s report).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"tasks\": {}, \"measured_s\": {:.6e}, \"predicted_s\": {:.6e}, \"error_pct\": {:.3}}}",
                    c.name, c.tasks, c.measured_s, c.predicted_s, c.error_pct
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"predicted_makespan_s\": {:.6e}, \"measured_makespan_s\": {:.6e}, ",
                "\"makespan_error_pct\": {:.3}, \"model\": {{\"slots\": {}, ",
                "\"secs_per_flop\": {:.6e}, \"task_overhead_s\": {:.6e}}}, ",
                "\"per_class\": [{}]}}"
            ),
            self.predicted.makespan,
            self.measured_makespan_s,
            self.makespan_error_pct,
            self.model.slots,
            self.model.secs_per_flop,
            self.model.task_overhead_s,
            classes.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_obs::{KernelClass, SpanRecord, TaskLifecycle};
    use polar_runtime::postmortem::analyze;
    use polar_runtime::{GraphBuilder, KernelKind, TileRef};
    use std::sync::Arc;

    fn tile(m: u32, i: usize, j: usize) -> TileRef {
        TileRef::new(m, i, j, 64)
    }

    /// 4 independent gemms, 1e6 flops each, measured at exactly 1 ms each
    /// on two lanes => rate 1 ns/flop (minus the small overhead share).
    fn measured_pair() -> (TaskGraph, DagPostmortem) {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        for j in 0..4 {
            b.add_task(KernelKind::Gemm, 1e6, 0, vec![], vec![tile(m, 0, j)]);
        }
        let graph = b.build();
        let spans: Vec<SpanRecord> = (0..4u32)
            .map(|t| SpanRecord {
                name: "task_gemm",
                class: Some(KernelClass::Gemm),
                seq: t as u64,
                lane: 1 + t % 2,
                depth: 0,
                start_ns: (t as u64 / 2) * 1_000_000,
                end_ns: (t as u64 / 2 + 1) * 1_000_000,
                flops: 0,
                dims: [0, 1, 0],
                lifecycle: Some(TaskLifecycle { dag: 1, task: t, ready_ns: 0, ready_lane: 0 }),
            })
            .collect();
        let pm = analyze(&spans, &[(1, Arc::new(graph.clone()))]);
        (graph, pm.dags.into_iter().next().unwrap())
    }

    #[test]
    fn calibrated_model_reproduces_measured_makespan() {
        let (graph, d) = measured_pair();
        assert_eq!(d.workers.len(), 2);
        let cmp = compare(&graph, &d);
        // 2 waves of 2 tasks on 2 slots, each task fitted to ~1 ms:
        // predicted makespan == measured 2 ms to within the overhead split
        assert!((cmp.measured_makespan_s - 2e-3).abs() < 1e-12);
        assert!(
            cmp.makespan_error_pct.abs() < 1.0,
            "calibrated replay should be within 1%, got {:.3}%",
            cmp.makespan_error_pct
        );
        // per-class decomposition covers the one class, near-exactly
        assert_eq!(cmp.classes.len(), 1);
        assert_eq!(cmp.classes[0].name, "task_gemm");
        assert!(cmp.classes[0].error_pct.abs() < 1.0);
    }

    #[test]
    fn sim_vs_real_json_has_the_gate_fields() {
        let (graph, d) = measured_pair();
        let j = compare(&graph, &d).to_json();
        for key in [
            "predicted_makespan_s",
            "measured_makespan_s",
            "makespan_error_pct",
            "secs_per_flop",
            "per_class",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    /// The fused Zolo shape: r independent QR branches, each feeding a
    /// private-slab gemm, joined by one fixed-order combine. The replay
    /// must track the measured makespan, and the *structural* measured
    /// critical path must sit strictly below the serial sum of the
    /// per-term QR durations — the property the ci.sh zolo leg gates on.
    #[test]
    fn r_way_zolo_graph_replays_and_shows_branch_concurrency() {
        const R: usize = 4;
        let mut b = GraphBuilder::new();
        let mw = b.new_matrix();
        let my = b.new_matrix();
        let mx = b.new_matrix();
        for j in 0..R {
            b.add_task(KernelKind::Geqrt, 2e6, 0, vec![], vec![tile(mw, j, 0)]);
        }
        for j in 0..R {
            b.add_task(KernelKind::Gemm, 1e6, 0, vec![tile(mw, j, 0)], vec![tile(my, j, 0)]);
        }
        b.add_task(
            KernelKind::Geadd,
            0.5e6,
            0,
            (0..R).map(|j| tile(my, j, 0)).collect(),
            vec![tile(mx, 0, 0)],
        );
        let graph = b.build();

        // two lanes, greedy: [qr0 qr1] [g0 g1] [qr2 qr3] [g2 g3] [combine]
        let mk = |t: u32, name: &'static str, class, lane, s_ms: f64, e_ms: f64| SpanRecord {
            name,
            class: Some(class),
            seq: t as u64,
            lane,
            depth: 0,
            start_ns: (s_ms * 1e6) as u64,
            end_ns: (e_ms * 1e6) as u64,
            flops: 0,
            dims: [0, 1, 0],
            lifecycle: Some(TaskLifecycle { dag: 3, task: t, ready_ns: 0, ready_lane: 0 }),
        };
        let spans = vec![
            mk(0, "task_geqrt", KernelClass::Geqrf, 1, 0.0, 2.0),
            mk(1, "task_geqrt", KernelClass::Geqrf, 2, 0.0, 2.0),
            mk(4, "task_gemm", KernelClass::Gemm, 1, 2.0, 3.0),
            mk(5, "task_gemm", KernelClass::Gemm, 2, 2.0, 3.0),
            mk(2, "task_geqrt", KernelClass::Geqrf, 1, 3.0, 5.0),
            mk(3, "task_geqrt", KernelClass::Geqrf, 2, 3.0, 5.0),
            mk(6, "task_gemm", KernelClass::Gemm, 1, 5.0, 6.0),
            mk(7, "task_gemm", KernelClass::Gemm, 2, 5.0, 6.0),
            mk(8, "task_geadd", KernelClass::Other, 1, 6.0, 6.5),
        ];
        let pm = analyze(&spans, &[(3, Arc::new(graph.clone()))]);
        let d = &pm.dags[0];

        // branch concurrency: structural CP = qr + gemm + combine = 3.5 ms,
        // strictly below the 4 x 2 ms serial sum of the QR terms
        let qr_busy: u64 =
            d.classes.iter().filter(|c| c.name == "task_geqrt").map(|c| c.busy_ns).sum();
        assert_eq!(qr_busy, 8_000_000);
        assert_eq!(d.critical_path_ns, 3_500_000);
        assert!(
            d.critical_path_ns < qr_busy,
            "r-way graph must expose concurrent QR branches: CP {} >= serial sum {}",
            d.critical_path_ns,
            qr_busy
        );

        // calibrated replay of the same graph stays close to the measured
        // 6.5 ms makespan
        let cmp = compare(&graph, d);
        assert!((cmp.measured_makespan_s - 6.5e-3).abs() < 1e-12);
        assert!(
            cmp.makespan_error_pct.abs() < 5.0,
            "r-way replay error {:.3}%",
            cmp.makespan_error_pct
        );
    }

    #[test]
    fn zero_flop_graph_degenerates_gracefully() {
        let mut b = GraphBuilder::new();
        let m = b.new_matrix();
        b.add_task(KernelKind::Gemm, 0.0, 0, vec![], vec![tile(m, 0, 0)]);
        let graph = b.build();
        let spans = vec![SpanRecord {
            name: "task_gemm",
            class: Some(KernelClass::Gemm),
            seq: 0,
            lane: 1,
            depth: 0,
            start_ns: 0,
            end_ns: 1_000,
            flops: 0,
            dims: [0; 3],
            lifecycle: Some(TaskLifecycle { dag: 2, task: 0, ready_ns: 0, ready_lane: 0 }),
        }];
        let pm = analyze(&spans, &[(2, Arc::new(graph.clone()))]);
        let cmp = compare(&graph, &pm.dags[0]);
        assert!(cmp.model.secs_per_flop == 0.0);
        assert!(cmp.predicted.makespan.is_finite());
    }
}
