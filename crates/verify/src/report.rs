//! Baseline compare, tolerance bands, and the JSON artifacts.
//!
//! Both artifacts are rendered with a fixed case order, fixed key order,
//! shortest-roundtrip float formatting, and no timestamps — so a rerun,
//! at any pool width, produces byte-identical output, which is the property
//! the CI gate asserts.

use crate::cases::CaseSpec;
use crate::run::{eps_for_tag, CaseMetrics, CaseResult, METRIC_NAMES};
use serde::json::{from_str, Value};
use std::fmt::Write as _;

/// A fresh metric may exceed its baseline value by this factor before
/// the gate trips (absorbs cross-machine SIMD-dispatch and scheduling
/// differences in the last bits).
pub const BAND_FACTOR: f64 = 8.0;

/// Band floor, in units of the scalar type's machine epsilon: baselines
/// near zero (e.g. the symmetrized-H metrics) would otherwise produce
/// unmeetable bands.
pub const FLOOR_EPS_MULT: f64 = 200.0;

/// Per-metric tolerance bands of one case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBands {
    pub backward: f64,
    pub orthogonality: f64,
    pub hermitian: f64,
    pub psd: f64,
}

impl MetricBands {
    /// Bands derived from observed baseline values:
    /// `max(value * BAND_FACTOR, FLOOR_EPS_MULT * eps_type)`.
    pub fn from_values(metrics: &CaseMetrics, type_tag: &str) -> Self {
        let floor = FLOOR_EPS_MULT * eps_for_tag(type_tag);
        let band = |v: f64| (v * BAND_FACTOR).max(floor);
        Self {
            backward: band(metrics.backward),
            orthogonality: band(metrics.orthogonality),
            hermitian: band(metrics.hermitian),
            psd: band(metrics.psd),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        match name {
            "backward" => Some(self.backward),
            "orthogonality" => Some(self.orthogonality),
            "hermitian" => Some(self.hermitian),
            "psd" => Some(self.psd),
            _ => None,
        }
    }
}

/// One baseline entry: the recorded metric values and their bands.
#[derive(Debug, Clone)]
pub struct BaselineCase {
    pub id: String,
    pub values: CaseMetrics,
    pub bands: MetricBands,
}

/// The parsed accuracy baseline.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub cases: Vec<BaselineCase>,
}

impl Baseline {
    pub fn get(&self, id: &str) -> Option<&BaselineCase> {
        self.cases.iter().find(|c| c.id == id)
    }
}

/// One gate violation, named precisely enough to act on: the case, the
/// metric, the cond bucket, and both sides of the comparison.
#[derive(Debug, Clone)]
pub struct GateFailure {
    pub case_id: String,
    pub metric: String,
    pub cond_bucket: String,
    pub observed: f64,
    pub allowed: f64,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: metric '{}' = {:e} exceeds band {:e} (cond bucket {})",
            self.case_id, self.metric, self.observed, self.allowed, self.cond_bucket
        )
    }
}

/// Compare fresh results against the baseline. Returns every violation:
/// metrics outside their band, cases missing from the baseline (the grid
/// grew — regenerate), and baseline cases that did not run (the grid
/// shrank — also regenerate).
pub fn check(results: &[CaseResult], baseline: &Baseline) -> Vec<GateFailure> {
    let mut failures = Vec::new();
    for r in results {
        let id = r.spec.id();
        let Some(base) = baseline.get(&id) else {
            failures.push(GateFailure {
                case_id: id,
                metric: "<case missing from baseline>".into(),
                cond_bucket: r.spec.cond_bucket(),
                observed: f64::NAN,
                allowed: f64::NAN,
            });
            continue;
        };
        for name in METRIC_NAMES {
            let observed = r.metrics.get(name).expect("known metric");
            let allowed = base.bands.get(name).expect("known metric");
            // negated so that a NaN metric fails the gate instead of passing
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(observed <= allowed) {
                failures.push(GateFailure {
                    case_id: id.clone(),
                    metric: name.into(),
                    cond_bucket: r.spec.cond_bucket(),
                    observed,
                    allowed,
                });
            }
        }
    }
    for base in &baseline.cases {
        if !results.iter().any(|r| r.spec.id() == base.id) {
            failures.push(GateFailure {
                case_id: base.id.clone(),
                metric: "<baseline case did not run>".into(),
                cond_bucket: "-".into(),
                observed: f64::NAN,
                allowed: f64::NAN,
            });
        }
    }
    failures
}

fn write_case_header(out: &mut String, spec: &CaseSpec) {
    let _ = write!(
        out,
        "      \"id\": \"{}\",\n      \"solver\": \"{}\",\n      \"type\": \"{}\",\n      \"m\": {},\n      \"n\": {},\n      \"cond\": {:e},\n      \"seed\": {},\n",
        spec.id(),
        spec.solver.as_str(),
        spec.type_tag,
        spec.m,
        spec.n,
        spec.cond,
        spec.seed
    );
}

/// Render the baseline artifact: per case, each metric's observed value
/// and the tolerance band derived from it.
pub fn render_baseline(results: &[CaseResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"kind\": \"baseline\",");
    let _ = writeln!(out, "  \"band_factor\": {BAND_FACTOR},");
    let _ = writeln!(out, "  \"floor_eps_mult\": {FLOOR_EPS_MULT},");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, r) in results.iter().enumerate() {
        let bands = MetricBands::from_values(&r.metrics, r.spec.type_tag);
        out.push_str("    {\n");
        write_case_header(&mut out, &r.spec);
        let _ = writeln!(out, "      \"metrics\": {{");
        for (k, name) in METRIC_NAMES.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{name}\": {{\"value\": {:e}, \"tol\": {:e}}}{}",
                r.metrics.get(name).unwrap(),
                bands.get(name).unwrap(),
                if k + 1 < METRIC_NAMES.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      }}");
        out.push_str(if i + 1 < results.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the report artifact: observed metrics, the bands they were
/// judged against (when a baseline was provided), pass/fail per metric,
/// and the iteration telemetry. Deliberately timestamp-free.
pub fn render_report(results: &[CaseResult], baseline: Option<&Baseline>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"kind\": \"report\",");
    let failures = baseline.map(|b| check(results, b));
    match &failures {
        None => {
            let _ = writeln!(out, "  \"gate\": \"ungated\",");
        }
        Some(f) if f.is_empty() => {
            let _ = writeln!(out, "  \"gate\": \"pass\",");
        }
        Some(_) => {
            let _ = writeln!(out, "  \"gate\": \"fail\",");
        }
    }
    let _ = writeln!(out, "  \"cases\": [");
    for (i, r) in results.iter().enumerate() {
        let base = baseline.and_then(|b| b.get(&r.spec.id()));
        out.push_str("    {\n");
        write_case_header(&mut out, &r.spec);
        let _ = writeln!(out, "      \"iterations\": {},", r.iterations);
        let _ = writeln!(out, "      \"qr_iterations\": {},", r.qr_iterations);
        let _ = writeln!(out, "      \"chol_iterations\": {},", r.chol_iterations);
        let _ = writeln!(out, "      \"metrics\": {{");
        for (k, name) in METRIC_NAMES.iter().enumerate() {
            let value = r.metrics.get(name).unwrap();
            let trail = if k + 1 < METRIC_NAMES.len() { "," } else { "" };
            match base {
                Some(b) => {
                    let tol = b.bands.get(name).unwrap();
                    let _ = writeln!(
                        out,
                        "        \"{name}\": {{\"value\": {value:e}, \"tol\": {tol:e}, \"pass\": {}}}{trail}",
                        value <= tol
                    );
                }
                None => {
                    let _ = writeln!(out, "        \"{name}\": {{\"value\": {value:e}}}{trail}");
                }
            }
        }
        let _ = writeln!(out, "      }}");
        out.push_str(if i + 1 < results.len() { "    },\n" } else { "    }\n" });
    }
    let _ = writeln!(out, "  ],");
    match &failures {
        Some(f) if !f.is_empty() => {
            let _ = writeln!(out, "  \"failures\": [");
            for (i, fail) in f.iter().enumerate() {
                let _ = writeln!(out, "    \"{fail}\"{}", if i + 1 < f.len() { "," } else { "" });
            }
            let _ = writeln!(out, "  ]");
        }
        _ => {
            let _ = writeln!(out, "  \"failures\": []");
        }
    }
    out.push('}');
    out.push('\n');
    out
}

fn field_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{ctx}: missing number '{key}'"))
}

/// Parse a baseline artifact previously written by [`render_baseline`].
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let root = from_str(text).map_err(|e| format!("baseline: {e}"))?;
    let kind = root.get("kind").and_then(Value::as_str).unwrap_or("");
    if kind != "baseline" {
        return Err(format!("baseline: kind is {kind:?}, expected \"baseline\""));
    }
    let cases = root
        .get("cases")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "baseline: missing 'cases' array".to_string())?;
    let mut out = Vec::with_capacity(cases.len());
    for c in cases {
        let id = c
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| "baseline case: missing 'id'".to_string())?
            .to_string();
        let metrics =
            c.get("metrics").ok_or_else(|| format!("baseline case {id}: missing 'metrics'"))?;
        let pick = |name: &str| -> Result<(f64, f64), String> {
            let m = metrics.get(name).ok_or_else(|| format!("case {id}: missing '{name}'"))?;
            Ok((field_f64(m, "value", &id)?, field_f64(m, "tol", &id)?))
        };
        let (bw, bw_t) = pick("backward")?;
        let (orth, orth_t) = pick("orthogonality")?;
        let (herm, herm_t) = pick("hermitian")?;
        let (psd, psd_t) = pick("psd")?;
        out.push(BaselineCase {
            id,
            values: CaseMetrics { backward: bw, orthogonality: orth, hermitian: herm, psd },
            bands: MetricBands {
                backward: bw_t,
                orthogonality: orth_t,
                hermitian: herm_t,
                psd: psd_t,
            },
        });
    }
    Ok(Baseline { cases: out })
}
