//! Integration tests for the observability stack: a real instrumented
//! QDWH solve must produce (a) a well-formed Chrome trace whose spans
//! nest cleanly per (lane, depth), (b) per-iteration records with a
//! QR-vs-Cholesky kernel split, each the solve graph's own phase, and (c)
//! flop counters — on a graph the tasks are the counted kernels — that
//! agree with a model of the tile algorithm built from the independent
//! counts in `polar_sim::kernel_flops`.

use polar::obs::{self, KernelClass};
use polar::prelude::*;
use polar::qdwh::IterationKind;
use polar::sim::kernel_flops;

/// One instrumented solve under the process-global scope lock (obs state
/// is shared by every test in the binary).
fn profiled_qdwh(n: usize) -> (PolarDecomposition<f64>, obs::Report) {
    let _guard = obs::scope_lock();
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 7));
    rayon::join(|| (), || ()); // make sure pool workers (and lanes) exist
    let scope = obs::scope();
    let pd = qdwh(&a, &QdwhOptions::default()).expect("qdwh converges");
    (pd, scope.finish())
}

#[test]
fn trace_round_trips_and_spans_nest_per_lane() {
    let (_, report) = profiled_qdwh(96);
    assert!(!report.spans.is_empty());

    // serialize through the runtime's Chrome-trace writer, then re-parse
    let mut buf = Vec::new();
    polar::runtime::write_solver_trace(&report.spans, &mut buf).unwrap();
    let parsed = serde::json::from_str(std::str::from_utf8(&buf).unwrap())
        .expect("trace is well-formed JSON");
    let obj = parsed.as_object().expect("trace is a JSON object");
    assert_eq!(obj.get("truncated").and_then(|v| v.as_bool()), Some(false));
    let events = obj.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let complete: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")).collect();
    assert_eq!(complete.len(), report.spans.len());

    // every complete event has the Perfetto fields; counter events carry a
    // value; and the stream is globally timestamp-ordered (Perfetto drops
    // out-of-order counter samples)
    let mut last_ts = f64::MIN;
    for e in events {
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(ts >= 0.0);
        assert!(ts >= last_ts, "events not timestamp-sorted");
        last_ts = ts;
        match e.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                let name = e.get("name").and_then(|v| v.as_str()).expect("name");
                assert!(!name.is_empty());
                assert!(e.get("dur").and_then(|v| v.as_f64()).expect("dur") >= 0.0);
                e.get("pid").and_then(|v| v.as_f64()).expect("pid");
                e.get("tid").and_then(|v| v.as_f64()).expect("tid");
            }
            Some("C") => {
                e.get("args").and_then(|a| a.get("value")).and_then(|v| v.as_f64()).expect("value");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // the solver phases, the tile tasks of both iteration kinds and the
    // kernels nested in them all appear
    let names: std::collections::BTreeSet<&str> = report.spans.iter().map(|s| s.name).collect();
    for expected in [
        "qdwh",
        "geqrf_tiled",
        "solve_graph",
        "task_geqrt",
        "task_tsqrt",
        "task_tsmqr",
        "task_potrf",
        "task_trsm",
        "task_herk",
        "task_gemm",
        "gemm",
        "potrf",
        "herk",
    ] {
        assert!(names.contains(expected), "missing '{expected}' in {names:?}");
    }

    // spans on one (lane, depth) row are monotonically ordered and never
    // overlap: that pair is exactly a Perfetto (pid, tid) row, and a row
    // with overlapping complete-spans renders garbage
    let mut rows: std::collections::BTreeMap<(u32, u32), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for s in &report.spans {
        assert!(s.end_ns >= s.start_ns, "span {} ends before it starts", s.name);
        rows.entry((s.lane, s.depth)).or_default().push((s.start_ns, s.end_ns));
    }
    for ((lane, depth), mut row) in rows {
        row.sort_unstable();
        for w in row.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "overlapping spans on lane {lane} depth {depth}: \
                 [{}, {}) then [{}, {})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn counted_flops_match_the_analytic_model_within_1_percent() {
    let n = 96usize;
    let (pd, report) = profiled_qdwh(n);
    let it_qr = pd.info.qr_iterations as f64;
    let it_chol = pd.info.chol_iterations as f64;
    assert!(it_qr >= 1.0 && it_chol >= 1.0, "want both iteration kinds");

    // Model of the tile algorithm at one tile column (a tile is never wider
    // than the matrix: nb = n = 96, X one tile, W two), built from
    // polar_sim::kernel_flops (shares no code with the emitters' weights):
    //   QR-based iteration (Eq. 1): geqrt of X's tile, tsqrt of the
    //   identity's tile against R — together the stacked 2n x n geqrf —
    //   then Q: tsmqr on the tile pair (two n^3 gemms) and unmqr on the top
    //   tile; the update is one n x n gemm;
    //   Cholesky-based iteration (Eq. 2): herk, potrf, the inverse of L's
    //   one diagonal tile (n^3 / 3, potrf's count), two triangular sweeps.
    // A task carries the LAWN 41 count of its tile kernel, so both classes
    // agree with the model to the herk diagonal and rounding, well inside
    // the test name's 1 %.
    let factor = kernel_flops::geqrf(2 * n, n);
    let form_q = 2.0 * kernel_flops::gemm(n, n, n) + kernel_flops::unmqr(n, n, n);
    let qr_iter = factor + form_q + kernel_flops::gemm(n, n, n);
    let chol_iter = kernel_flops::herk(n, n)
        + 2.0 * kernel_flops::potrf(n)
        + 2.0 * kernel_flops::trsm_right(n, n);

    let counted = report.kernels.get(KernelClass::Geqrf).flops as f64
        + report.kernels.get(KernelClass::Orgqr).flops as f64;
    // + one square geqrf: the l_0 condition estimate (Algorithm 1 line 19),
    // a tile graph of its own counted once as its driver
    let model = it_qr * (factor + form_q) + kernel_flops::geqrf(n, n);
    // (tasks whose inner kernels were the counted ones read 11x low here)
    let rel = (counted - model).abs() / model;
    assert!(rel < 0.01, "QR-class flops off by {:.3}%: {counted} vs {model}", rel * 100.0);

    let counted_chol = report.kernels.get(KernelClass::Herk).flops as f64
        + report.kernels.get(KernelClass::Potrf).flops as f64
        + report.kernels.get(KernelClass::Trsm).flops as f64;
    let model_chol = it_chol * chol_iter;
    let rel = (counted_chol - model_chol).abs() / model_chol;
    assert!(
        rel < 0.01,
        "Cholesky-class flops off by {:.3}%: {counted_chol} vs {model_chol}",
        rel * 100.0
    );

    // the records partition what the graph's tasks counted: every class
    // total is the sum over the iterations' own phases, plus what ran
    // outside the graph (the estimate's QR — and its triangular solves, the
    // gemm forming H: classes left out here)
    for class in [KernelClass::Geqrf, KernelClass::Orgqr, KernelClass::Potrf, KernelClass::Herk] {
        let in_phases: u64 = pd.info.records.iter().map(|r| r.kernels.get(class).flops).sum();
        let outside =
            if class == KernelClass::Geqrf { kernel_flops::geqrf(n, n) as u64 } else { 0 };
        assert_eq!(report.kernels.get(class).flops, in_phases + outside, "{class:?}");
    }

    // whole-solve total: iterations + condition estimation + final H gemm
    let total = report.kernels.total_flops() as f64;
    assert!(total > it_qr * qr_iter + it_chol * chol_iter - 1.0);
}

#[test]
fn iteration_records_split_qr_vs_cholesky_kernel_time() {
    let (pd, _) = profiled_qdwh(96);
    assert_eq!(pd.info.records.len(), pd.info.iterations);
    for r in &pd.info.records {
        let qr_ns =
            r.kernels.get(KernelClass::Geqrf).time_ns + r.kernels.get(KernelClass::Orgqr).time_ns;
        let chol_ns = r.kernels.get(KernelClass::Potrf).time_ns;
        match r.kind {
            IterationKind::QrBased => {
                assert!(qr_ns > 0, "iter {}: QR-based but no QR kernel time", r.iteration);
                assert_eq!(chol_ns, 0, "iter {}: QR-based but potrf ran", r.iteration);
            }
            IterationKind::CholeskyBased => {
                assert!(chol_ns > 0, "iter {}: Cholesky-based but no potrf time", r.iteration);
                assert_eq!(qr_ns, 0, "iter {}: Cholesky-based but QR ran", r.iteration);
            }
        }
        assert!(r.seconds > 0.0);
        assert!(r.achieved_gflops() > 0.0);
        assert!(r.convergence.is_finite());
        // measured, not apportioned: a phase is busy no longer than its
        // window on every lane
        let lanes = rayon::current_num_threads() as f64;
        assert!(r.kernels.total_time_ns() as f64 * 1e-9 <= r.seconds * lanes * 1.001, "{r:?}");
    }
    // convergence_history() is the backward-compatible projection
    assert_eq!(
        pd.info.convergence_history(),
        pd.info.records.iter().map(|r| r.convergence).collect::<Vec<_>>()
    );
}

/// Moved here from polar-qdwh's unit tests: only in this binary does every
/// test hold the scope lock, so no concurrent solve bleeds into the
/// per-iteration call counts.
#[test]
fn iteration_records_capture_kernel_split_under_metrics() {
    let _guard = obs::scope_lock();
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 15));
    let scope = obs::scope();
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    let _ = scope.finish();
    assert!(pd.info.qr_iterations >= 1 && pd.info.chol_iterations >= 1);
    for rec in &pd.info.records {
        match rec.kind {
            IterationKind::QrBased => {
                assert!(rec.kernels.get(KernelClass::Geqrf).calls >= 1, "{rec:?}");
                assert_eq!(rec.kernels.get(KernelClass::Potrf).calls, 0);
            }
            IterationKind::CholeskyBased => {
                // one tile column: one potrf task; the diagonal tile's
                // inverse and the two sweeps are trsm-class
                assert_eq!(rec.kernels.get(KernelClass::Potrf).calls, 1, "{rec:?}");
                assert_eq!(rec.kernels.get(KernelClass::Trsm).calls, 3, "{rec:?}");
                assert_eq!(rec.kernels.get(KernelClass::Geqrf).calls, 0);
            }
        }
        assert!(rec.kernels.total_flops() > 0);
    }
}

#[test]
fn disabled_observability_records_nothing() {
    let _guard = obs::scope_lock();
    let before = obs::kernel_snapshot();
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(48, 3));
    let pd = qdwh(&a, &QdwhOptions::default()).expect("qdwh converges");
    let delta = obs::kernel_snapshot().delta(&before);
    assert_eq!(delta.total_calls(), 0, "counters moved while disabled");
    assert!(obs::take_spans().is_empty(), "spans recorded while disabled");
    // records still exist (measured window + convergence), just without
    // kernels
    assert_eq!(pd.info.records.len(), pd.info.iterations);
    assert!(pd.info.records.iter().all(|r| r.kernels.total_calls() == 0 && r.seconds > 0.0));
}
