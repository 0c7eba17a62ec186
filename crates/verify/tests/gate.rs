//! Gate mechanics: baseline round-trip, regression detection with named
//! metric + cond bucket, and byte-deterministic report rendering.

use polar_verify::{
    check, parse_baseline, render_baseline, render_report, run_grid, CaseSpec, SolverPath,
};

/// A grid small enough for debug-mode CI but still spanning solver
/// paths, shapes, and a non-trivial cond.
fn mini_grid() -> Vec<CaseSpec> {
    vec![
        CaseSpec { type_tag: "d", solver: SolverPath::Qdwh, m: 24, n: 24, cond: 1e8, seed: 1 },
        CaseSpec { type_tag: "z", solver: SolverPath::Qdwh, m: 72, n: 24, cond: 1e4, seed: 2 },
        CaseSpec { type_tag: "s", solver: SolverPath::Qdwh, m: 24, n: 24, cond: 1e3, seed: 3 },
        CaseSpec { type_tag: "d", solver: SolverPath::Zolo, m: 24, n: 24, cond: 1e6, seed: 4 },
    ]
}

#[test]
fn baseline_round_trip_and_gate_pass() {
    let results = run_grid(&mini_grid()).expect("mini grid solves");
    let text = render_baseline(&results);
    let baseline = parse_baseline(&text).expect("own output parses");
    assert_eq!(baseline.cases.len(), results.len());
    for (b, r) in baseline.cases.iter().zip(&results) {
        assert_eq!(b.id, r.spec.id());
        // shortest-roundtrip formatting: values survive exactly
        assert_eq!(b.values.backward, r.metrics.backward);
        assert_eq!(b.values.psd, r.metrics.psd);
        assert!(b.bands.orthogonality >= r.metrics.orthogonality);
    }
    assert!(check(&results, &baseline).is_empty(), "fresh results pass their own baseline");
}

#[test]
fn regression_fails_with_named_metric_and_cond_bucket() {
    let results = run_grid(&mini_grid()).expect("mini grid solves");
    let mut baseline = parse_baseline(&render_baseline(&results)).unwrap();
    // simulate a regression: tighten one band below the observed value
    baseline.cases[0].bands.backward = results[0].metrics.backward / 2.0;
    let failures = check(&results, &baseline);
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert_eq!(f.case_id, results[0].spec.id());
    assert_eq!(f.metric, "backward");
    assert_eq!(f.cond_bucket, "1e8");
    let msg = f.to_string();
    assert!(msg.contains("'backward'") && msg.contains("cond bucket 1e8"), "{msg}");
}

#[test]
fn grid_drift_is_flagged_both_ways() {
    let results = run_grid(&mini_grid()).expect("mini grid solves");
    let full = parse_baseline(&render_baseline(&results)).unwrap();

    // baseline missing a case that ran
    let mut missing = full.clone();
    missing.cases.remove(0);
    let failures = check(&results, &missing);
    assert!(failures.iter().any(|f| f.metric.contains("missing from baseline")), "{failures:?}");

    // baseline case that no longer runs
    let failures = check(&results[1..], &full);
    assert!(failures.iter().any(|f| f.metric.contains("did not run")), "{failures:?}");
}

#[test]
fn report_rendering_is_deterministic_and_gated() {
    let results = run_grid(&mini_grid()[..2]).expect("cases solve");
    let baseline = parse_baseline(&render_baseline(&results)).unwrap();
    let a = render_report(&results, Some(&baseline));
    let b = render_report(&results, Some(&baseline));
    assert_eq!(a, b, "same inputs must render byte-identical reports");
    assert!(a.contains("\"gate\": \"pass\""));
    // report is valid JSON for downstream consumers
    let parsed = serde::json::from_str(&a).expect("report is well-formed JSON");
    let cases = parsed.get("cases").and_then(|v| v.as_array()).unwrap();
    assert_eq!(cases.len(), 2);
    for c in cases {
        let m = c.get("metrics").unwrap();
        for name in ["backward", "orthogonality", "hermitian", "psd"] {
            assert_eq!(
                m.get(name).unwrap().get("pass").and_then(serde::json::Value::as_bool),
                Some(true)
            );
        }
    }

    // ungated rendering marks itself as such
    let ungated = render_report(&results, None);
    assert!(ungated.contains("\"gate\": \"ungated\""));
}
