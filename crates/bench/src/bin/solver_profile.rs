//! Instrumented end-to-end solver profile: QDWH and Zolo-PD under full
//! observability, from the driver loop down to the thread-pool workers.
//!
//! Writes up to three artifacts:
//!
//! * a JSON profile (`--out`, default `target/solver_profile.json`): wall time,
//!   per-kernel-class achieved GFlop/s, per-iteration records with the
//!   QR-vs-Cholesky kernel-time split, and pool counters;
//! * a Chrome trace (`--trace`, default `target/solver_trace.json`): open in
//!   Perfetto — one lane (`pid`) per pool worker, spans for
//!   gemm/herk/trsm/geqrf/potrf and the solver phases, plus
//!   `worker_occupancy` / `ready_queue_depth` counter tracks.
//!   `--trace-max-events N` bounds the complete-event count (head+tail
//!   kept, `"truncated": true` recorded);
//! * with `--analyze`, a scheduler post-mortem (`--analyze-out`, default
//!   `target/solver_analyze.json`): per executed dag the measured critical path,
//!   per-worker utilization, queue-wait and ready-starvation histograms,
//!   top-slack bottlenecks, and a sim-vs-real row replaying the executed
//!   graph through the calibrated discrete-event scheduler.
//!   `--drift-gate PCT` fails the run when |makespan error| exceeds PCT.
//!
//! `--smoke` shrinks the problem, re-parses every artifact to prove it is
//! well-formed, and asserts the disabled-path overhead budget: one
//! inactive span guard must cost < 1% of a small gemm.

use polar_bench::Args;
use polar_gen::generate;
use polar_matrix::{Matrix, Op};
use polar_obs::{KernelClass, Report, SpanRecord};
use polar_qdwh::{qdwh, IterationRecord, PolarDecomposition, QdwhOptions};
use polar_runtime::TaskGraph;
use polar_scalar::Scalar;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut s = seed | 1;
    Matrix::from_fn(m, n, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// Kernel-time split of one iteration: QR-side (geqrf + orgqr) vs
/// Cholesky-side (potrf + trsm + herk) vs gemm, in seconds.
fn iteration_split(r: &IterationRecord<f64>) -> (f64, f64, f64) {
    let ns = |c: KernelClass| r.kernels.get(c).time_ns as f64 * 1e-9;
    let qr = ns(KernelClass::Geqrf) + ns(KernelClass::Orgqr);
    let chol = ns(KernelClass::Potrf) + ns(KernelClass::Trsm) + ns(KernelClass::Herk);
    (qr, chol, ns(KernelClass::Gemm))
}

fn records_json(records: &[IterationRecord<f64>]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let (qr_s, chol_s, gemm_s) = iteration_split(r);
        let _ = write!(
            s,
            "      {{\"iteration\": {}, \"kind\": \"{:?}\", \"ell\": {:e}, \"convergence\": {:e}, \"seconds\": {:.6}, \"gflops\": {:.3}, \"qr_kernel_seconds\": {qr_s:.6}, \"chol_kernel_seconds\": {chol_s:.6}, \"gemm_kernel_seconds\": {gemm_s:.6}}}",
            r.iteration,
            r.kind,
            r.ell,
            r.convergence,
            r.seconds,
            r.achieved_gflops(),
        );
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]");
    s
}

fn phase_json(name: &str, report: &Report, records: &[IterationRecord<f64>]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  \"{name}\": {{");
    let _ = writeln!(s, "    \"wall_seconds\": {:.6},", report.wall_ns as f64 * 1e-9);
    let _ = writeln!(s, "    \"achieved_gflops\": {:.3},", report.achieved_gflops());
    let _ = writeln!(s, "    \"spans\": {},", report.spans.len());
    let _ = writeln!(s, "    \"kernels\": {},", report.kernels.to_json());
    let _ = writeln!(s, "    \"iteration_records\": {}", records_json(records));
    s.push_str("  }");
    s
}

/// Disabled-path overhead: cost of one inert span guard vs one small gemm.
/// Returns (ns per guard, ns per gemm).
fn disabled_overhead() -> (f64, f64) {
    assert!(!polar_obs::metrics_enabled() && !polar_obs::trace_enabled());
    const GUARDS: u32 = 1_000_000;
    let t = Instant::now();
    for i in 0..GUARDS {
        let g = polar_obs::kernel_span(
            KernelClass::Gemm,
            "overhead_probe",
            2.0 * 64.0 * 64.0 * 64.0,
            [64, 64, i as usize],
        );
        std::hint::black_box(&g);
    }
    let guard_ns = t.elapsed().as_secs_f64() * 1e9 / GUARDS as f64;

    let a = rand_mat(64, 64, 21);
    let b = rand_mat(64, 64, 22);
    let mut c = Matrix::<f64>::zeros(64, 64);
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t = Instant::now();
        polar_blas::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (guard_ns, best * 1e9)
}

/// All `pool.*` counters as a JSON object body (key order fixed by the
/// registry's sorted snapshot; the `pool.` prefix is stripped).
fn pool_json() -> String {
    let mut rows: Vec<(String, u64)> = polar_obs::counters_snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with("pool."))
        .map(|(k, v)| (k["pool.".len()..].to_string(), v))
        .collect();
    rows.sort();
    let body: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Scheduler post-mortem over the drained spans + executed graphs: writes
/// the `--analyze-out` JSON and enforces the structural invariants (worker
/// utilization <= 1, makespan >= measured critical path) plus the
/// optional sim-vs-real drift gate.
fn write_analysis(
    path: &str,
    n: usize,
    smoke: bool,
    spans: &[SpanRecord],
    graphs: &[(u32, Arc<TaskGraph>)],
    drift_gate_pct: f64,
) {
    let pm = polar_runtime::analyze(spans, graphs);
    assert!(!pm.dags.is_empty(), "--analyze saw no executed task dags at n={n}");

    for d in &pm.dags {
        assert!(
            d.makespan_ns >= d.critical_path_ns,
            "dag {}: makespan {} ns < measured critical path {} ns",
            d.dag,
            d.makespan_ns,
            d.critical_path_ns
        );
        assert!(
            d.parallel_efficiency <= 1.0 + 1e-9,
            "dag {}: parallel efficiency {} > 1",
            d.dag,
            d.parallel_efficiency
        );
        for w in &d.workers {
            assert!(
                w.utilization <= 1.0 + 1e-9,
                "lane {} utilization {} > 1",
                w.lane,
                w.utilization
            );
        }
    }

    // Sim-vs-real on the largest dag (the fused QDWH solve).
    let big = pm.dags.iter().max_by_key(|d| d.spans).expect("non-empty");
    let graph = graphs
        .iter()
        .find(|(id, _)| *id == big.dag)
        .map(|(_, g)| g)
        .expect("analyzed dag has its recorded graph");
    let cmp = polar_sim::sim_vs_real(graph, big);

    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"harness\": \"solver_profile_analyze\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"n\": {n},");
    j.push_str(&polar_bench::Provenance::collect().json_fields());
    let _ = writeln!(j, "  \"dags\": {},", pm.to_json());
    let _ = writeln!(j, "  \"pool\": {},", pool_json());
    let _ = writeln!(j, "  \"sim_vs_real\": {}", cmp.to_json());
    j.push_str("}\n");
    polar_bench::create_out(path).write_all(j.as_bytes()).expect("write analyze json");

    for d in &pm.dags {
        eprintln!(
            "dag {}: {} tasks, makespan {:.3} ms, CP {:.3} ms over {} tasks (stretch {:.2}), \
             {} lanes, efficiency {:.1}%, queue-wait p95 {:?}, {} migrated",
            d.dag,
            d.spans,
            d.makespan_ns as f64 * 1e-6,
            d.critical_path_ns as f64 * 1e-6,
            d.critical_path_tasks,
            d.cp_stretch(),
            d.workers.len(),
            d.parallel_efficiency * 100.0,
            d.queue_wait.hist.p95,
            d.migrated_tasks,
        );
    }
    eprintln!(
        "sim-vs-real (dag {}): predicted {:.3} ms vs measured {:.3} ms ({:+.2}%)",
        big.dag,
        cmp.predicted.makespan * 1e3,
        cmp.measured_makespan_s * 1e3,
        cmp.makespan_error_pct
    );
    if drift_gate_pct > 0.0 {
        assert!(
            cmp.makespan_error_pct.abs() <= drift_gate_pct,
            "sim-vs-real drift gate: |{:.2}%| > {:.2}%",
            cmp.makespan_error_pct,
            drift_gate_pct
        );
    }
}

/// The `--zolo-cp-gate` branch-concurrency check: analyze only the dags
/// the zolo phase executed and assert the measured critical path of the
/// fused solve sits strictly below the serial sum of its QR-class task
/// durations. With r >= 2 independent term-QR branches per iteration (the
/// QRs of `[s_j R; 0; d_j I]` over the iteration's one QR of `X`) that
/// inequality holds structurally (the CP can traverse only one
/// branch per iteration), so the gate proves the analyzer saw at least
/// two concurrently-runnable QR branches — even on a single-core runner,
/// because the measured CP is computed from the dependency graph, not
/// the schedule.
///
/// Also fails a silent fall-back to QR-only: the solve must end
/// Cholesky-based — fewer term QRs than `r` per iteration, and
/// `task_potrf` tasks in the dag.
fn zolo_cp_gate(
    spans: &[SpanRecord],
    zolo_graphs: &[(u32, Arc<TaskGraph>)],
    zolo: &PolarDecomposition<f64>,
    r: usize,
) {
    let (iterations, qrs) = (zolo.info.iterations, r * zolo.info.qr_iterations);
    assert!(
        qrs < r * iterations,
        "zolo cp gate: {qrs} term QRs in {iterations} iterations at r={r} — no iteration was \
         Cholesky-based (kinds {:?})",
        zolo.info.kinds
    );
    let pm = polar_runtime::analyze(spans, zolo_graphs);
    let d = pm.dags.iter().max_by_key(|d| d.spans).expect("--zolo-cp-gate saw no zolo dag");
    let qr_busy: u64 = d
        .classes
        .iter()
        .filter(|c| matches!(c.name, "task_geqrt" | "task_tsqrt" | "task_unmqr" | "task_tsmqr"))
        .map(|c| c.busy_ns)
        .sum();
    assert!(qr_busy > 0, "zolo dag {} recorded no QR-class tasks", d.dag);
    let potrf_tasks = d.classes.iter().find(|c| c.name == "task_potrf").map_or(0, |c| c.tasks);
    assert!(potrf_tasks > 0, "zolo dag {} recorded no task_potrf tasks", d.dag);
    assert!(
        d.critical_path_ns < qr_busy,
        "zolo cp gate: measured critical path {} ns >= serial sum of QR task durations {} ns \
         at r={r} — the r branches did not run as independent dag work",
        d.critical_path_ns,
        qr_busy
    );
    eprintln!(
        "zolo cp gate: r={r}, CP {:.3} ms < serial QR sum {:.3} ms ({:.2}x concurrency headroom), pass",
        d.critical_path_ns as f64 * 1e-6,
        qr_busy as f64 * 1e-6,
        qr_busy as f64 / d.critical_path_ns.max(1) as f64
    );
}

/// Smoke validation: every artifact re-parses, the trace is non-empty with
/// the expected event fields and kernel spans, and worker lanes appear.
fn validate_artifacts(
    profile_path: &str,
    trace_path: &str,
    analyze_path: Option<&str>,
    spans: &[SpanRecord],
) {
    use serde::json::{from_str, Value};

    let profile = from_str(&std::fs::read_to_string(profile_path).expect("read profile"))
        .expect("profile JSON is well-formed");
    for phase in ["qdwh", "zolo"] {
        let p = profile.get(phase).unwrap_or_else(|| panic!("profile has {phase}"));
        assert!(p.get("wall_seconds").and_then(Value::as_f64).expect("wall_seconds") > 0.0);
        let recs = p.get("iteration_records").and_then(|v| v.as_array()).expect("records");
        assert!(!recs.is_empty(), "{phase}: no iteration records");
        // per-iteration kernel attribution: on the fused whole-solve path
        // the task graph executes as one unit, so kernel flops accrue to
        // the record that drained them — some iterations read 0 GFlop/s
        let mut any_gflops = false;
        for r in recs {
            let g = r.get("gflops").and_then(Value::as_f64).expect("gflops");
            assert!(g >= 0.0);
            any_gflops |= g > 0.0;
        }
        assert!(any_gflops, "{phase}: no iteration recorded kernel flops");
    }

    let trace = from_str(&std::fs::read_to_string(trace_path).expect("read trace"))
        .expect("trace JSON is well-formed");
    let truncated = trace.get("truncated").and_then(Value::as_bool).expect("trace has 'truncated'");
    let total =
        trace.get("totalTaskEvents").and_then(Value::as_f64).expect("totalTaskEvents") as usize;
    assert_eq!(total, spans.len());
    let events = trace.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    let mut names = std::collections::BTreeSet::new();
    let mut lanes = std::collections::BTreeSet::new();
    let mut complete = 0usize;
    let mut counters = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    for e in events {
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        assert!(ts >= last_ts, "trace events out of timestamp order");
        last_ts = ts;
        match e.get("ph").and_then(Value::as_str).expect("ph") {
            "X" => {
                complete += 1;
                assert!(e.get("dur").and_then(Value::as_f64).expect("dur") >= 0.0);
                names.insert(e.get("name").and_then(Value::as_str).expect("name").to_string());
                lanes.insert(e.get("pid").and_then(Value::as_f64).expect("pid") as u64);
            }
            "C" => {
                counters += 1;
                let args = e.get("args").expect("counter args");
                assert!(args.get("value").and_then(Value::as_f64).is_some());
            }
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    if truncated {
        assert!(complete < spans.len(), "truncated trace kept every event");
    } else {
        assert_eq!(complete, spans.len());
    }
    assert!(counters > 0, "trace lacks counter-track samples");
    for expected in ["qdwh", "gemm", "potrf", "trsm", "herk"] {
        assert!(names.contains(expected), "trace lacks '{expected}' spans: {names:?}");
    }
    // the condition-estimate QR (a tile graph of its own), the whole-solve
    // graph, and Zolo-PD's span around its own
    for expected in ["geqrf_tiled", "solve_graph", "zolo"] {
        assert!(names.contains(expected), "trace lacks '{expected}' spans: {names:?}");
    }
    if rayon::current_num_threads() > 1 {
        assert!(lanes.iter().any(|&l| l > 0), "no spans on pool-worker lanes");
    }

    if let Some(path) = analyze_path {
        let analysis = from_str(&std::fs::read_to_string(path).expect("read analysis"))
            .expect("analysis JSON is well-formed");
        let dags = analysis.get("dags").and_then(|v| v.as_array()).expect("dags array");
        assert!(!dags.is_empty(), "analysis has no dags");
        for d in dags {
            let makespan = d.get("makespan_ns").and_then(Value::as_f64).expect("makespan_ns");
            let cp = d.get("critical_path_ns").and_then(Value::as_f64).expect("critical_path_ns");
            assert!(makespan >= cp);
            for w in d.get("workers").and_then(|v| v.as_array()).expect("workers") {
                let u = w.get("utilization").and_then(Value::as_f64).expect("utilization");
                assert!(u <= 1.0 + 1e-9);
            }
            assert!(d.get("queue_wait").is_some() && d.get("park").is_some());
        }
        let svr = analysis.get("sim_vs_real").expect("sim_vs_real row");
        assert!(svr.get("makespan_error_pct").and_then(Value::as_f64).is_some());
        assert!(svr.get("predicted_makespan_s").and_then(Value::as_f64).is_some());
    }
    eprintln!(
        "smoke: artifacts validated ({complete} complete + {counters} counter events, {} lanes{})",
        lanes.len(),
        if analyze_path.is_some() { ", analysis ok" } else { "" }
    );
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("--smoke");
    let analyze = args.flag("--analyze");
    // the post-mortem smoke wants a graph of several tile columns
    let n: usize = args.get(
        "--n",
        if smoke && analyze {
            512
        } else if smoke {
            192
        } else {
            768
        },
    );
    let seed: u64 = args.get("--seed", 42);
    let zolo_r: usize = args.get("--zolo-r", 8);
    let cp_gate = args.flag("--zolo-cp-gate");
    let trace_max: usize = args.get("--trace-max-events", 0);
    let trace_cap = if trace_max == 0 { usize::MAX } else { trace_max };
    let drift_gate: f64 = args.get("--drift-gate", 0.0);
    let out: String = args.get("--out", "target/solver_profile.json".into());
    let trace_out: String = args.get("--trace", "target/solver_trace.json".into());
    let analyze_out: String = args.get("--analyze-out", "target/solver_analyze.json".into());

    // Measure the disabled path before anything enables observability.
    let (guard_ns, gemm_ns) = disabled_overhead();
    eprintln!(
        "disabled-path: {guard_ns:.1} ns/guard vs {:.1} us per 64x64x64 gemm ({:.3}%)",
        gemm_ns / 1e3,
        100.0 * guard_ns / gemm_ns
    );
    if smoke {
        assert!(
            guard_ns < gemm_ns / 100.0,
            "disabled span guard ({guard_ns:.1} ns) exceeds 1% of a small gemm ({gemm_ns:.1} ns)"
        );
    }

    let (a, _) = generate::<f64>(&polar_bench::paper_matrix_spec(n, seed));
    rayon::join(|| (), || ()); // warm the pool so worker lanes exist up front

    eprintln!("qdwh n={n} (instrumented)...");
    let scope = polar_obs::scope();
    let pd = qdwh(&a, &QdwhOptions::default()).expect("qdwh converges");
    let qdwh_report = scope.finish();
    // drain the qdwh dags now so the next drain isolates the zolo ones
    let mut graphs = polar_runtime::take_executed_graphs();

    eprintln!("zolo n={n} r={zolo_r} (instrumented)...");
    let zopts = QdwhOptions { terms: zolo_r, ..Default::default() };
    let scope = polar_obs::scope();
    let zolo = qdwh(&a, &zopts).expect("zolo converges");
    let zolo_report = scope.finish();
    let zolo_graphs = polar_runtime::take_executed_graphs();
    graphs.extend(zolo_graphs.iter().cloned());

    // ---- profile JSON ----
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"harness\": \"solver_profile\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"n\": {n},");
    let _ = writeln!(j, "  \"type\": \"{}\",", f64::TYPE_TAG);
    j.push_str(&polar_bench::Provenance::collect().json_fields());
    let _ = writeln!(j, "{},", phase_json("qdwh", &qdwh_report, &pd.info.records));
    let _ = writeln!(j, "{},", phase_json("zolo", &zolo_report, &zolo.info.records));
    let _ = writeln!(j, "  \"pool\": {}", pool_json());
    j.push_str("}\n");
    polar_bench::create_out(&out).write_all(j.as_bytes()).expect("write profile json");

    // ---- Chrome trace: both phases share the process epoch, so their
    // spans concatenate into one aligned timeline ----
    let mut spans = qdwh_report.spans.clone();
    spans.extend(zolo_report.spans.iter().cloned());
    let file = polar_bench::create_out(&trace_out);
    polar_runtime::write_solver_trace_capped(&spans, std::io::BufWriter::new(file), trace_cap)
        .expect("write chrome trace");

    // ---- scheduler post-mortem over the executed dags ----
    if analyze {
        write_analysis(&analyze_out, n, smoke, &spans, &graphs, drift_gate);
    }
    if cp_gate {
        zolo_cp_gate(&spans, &zolo_graphs, &zolo, zolo_r);
    }

    println!("{j}");
    eprintln!(
        "qdwh: {} iters, {:.2} GFlop/s | zolo: {} iters, {:.2} GFlop/s | trace: {} spans -> {trace_out}",
        pd.info.iterations,
        qdwh_report.achieved_gflops(),
        zolo.info.iterations,
        zolo_report.achieved_gflops(),
        spans.len()
    );

    if smoke {
        validate_artifacts(&out, &trace_out, analyze.then_some(analyze_out.as_str()), &spans);
    }
}
