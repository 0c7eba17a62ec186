//! The names. `BENCHMARK.json` at the repo root lists the end-to-end
//! metrics and the per-layer metrics every traced run prints (a unit
//! test compares the two); every later change quotes them. README.md has
//! the definitions and the interaction table.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees; reported by every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "solve_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "solves_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "slo_ok_share", unit: "share", better: Better::Higher, bound: 0.1 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// Where a per-layer metric is measured, and so which runs report it. A
/// metric is never reported where it was not measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A fixed-shape probe of one layer's public function: the same call
    /// whatever the workload. `run` measures the probes once per set, in
    /// a child of their own.
    Probe,
    /// The traced stint of every workload.
    Every,
    /// The traced stint of the named workloads; no other run reports it.
    Only(&'static [&'static str]),
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

impl PerLayer {
    /// `--workload W --trace 1` must print one list on every workload
    /// (the driver's contract): the probes and what every traced stint
    /// measures. `BENCHMARK.json` lists exactly these.
    pub fn on_every_run(&self) -> bool {
        matches!(self.source, Source::Probe | Source::Every)
    }

    /// Whether `workload`'s own entry of a result file carries the metric.
    pub fn on_workload(&self, workload: &str) -> bool {
        match self.source {
            Source::Probe => false,
            Source::Every => true,
            Source::Only(names) => names.contains(&workload),
        }
    }
}

const fn pl(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer { name, unit, better, source }
}

use Better::{Higher, Lower};
use Source::{Every, Only, Probe};

const DENSE: Source = Only(&["dense_ill_1024", "dense_rect_c64", "zolo_ill_768"]);
const SVC: Source = Only(&["svc_batch_64", "svc_mixed_open"]);
const WAVES: Source = Only(&["svc_batch_64"]);
const OPEN: Source = Only(&["svc_mixed_open"]);
/// The workload `run` repeats with one pool thread.
pub const SCALING_WORKLOAD: &str = "dense_ill_1024";
const SCALING: Source = Only(&[SCALING_WORKLOAD]);

/// `runtime.*` numbers of the scheduler post-mortem: present when the
/// traced stint executed a task DAG (n ≥ 512: never under `--smoke`).
pub const DAG_METRICS: [&str; 5] = [
    "runtime.parallel_efficiency",
    "runtime.cp_stretch",
    "runtime.idle_share",
    "runtime.ready_wait_p50_us",
    "runtime.tasks",
];

/// Single-layer metrics of the traced run. No bounds: they explain a
/// movement of an end-to-end metric, they are not gates.
pub const PER_LAYER: &[PerLayer] = &[
    // svc
    pl("svc.queue_wait_p50_ms", "ms", Lower, SVC),
    pl("svc.queue_wait_p95_ms", "ms", Lower, SVC),
    pl("svc.run_p50_ms", "ms", Lower, SVC),
    pl("svc.run_p95_ms", "ms", Lower, SVC),
    pl("svc.small_job_p95_ms", "ms", Lower, OPEN),
    pl("svc.big_job_p95_ms", "ms", Lower, OPEN),
    pl("svc.job_p50_ms", "ms", Lower, OPEN),
    pl("svc.overhead_share", "share", Lower, WAVES),
    pl("svc.batch_fill_ratio", "share", Higher, SVC),
    pl("svc.batch_size_mean", "count", Higher, SVC),
    pl("svc.fused_batches", "count", Lower, SVC),
    pl("svc.condest_hit_ratio", "share", Higher, SVC),
    pl("svc.submit_us_p50", "us", Lower, SVC),
    pl("svc.rejected", "count", Lower, SVC),
    pl("svc.retries", "count", Lower, SVC),
    pl("svc.gen_lateness_p95_ms", "ms", Lower, OPEN),
    pl("svc.backlog_end", "count", Lower, OPEN),
    // batch
    pl("batch.entry_us", "us", Lower, Probe),
    pl("batch.entry_us_cold", "us", Lower, Probe),
    pl("batch.speedup_vs_looped", "x", Higher, Probe),
    pl("batch.gflops", "GFlop/s", Higher, Probe),
    // core
    pl("core.iterations", "count", Lower, DENSE),
    pl("core.qr_iterations", "count", Lower, DENSE),
    pl("core.chol_iterations", "count", Lower, DENSE),
    pl("core.gflops", "GFlop/s", Higher, Every),
    pl("core.frac_of_gemm", "share", Higher, Every),
    pl("core.first_solve_s", "s", Lower, DENSE),
    pl("core.solve_s_1t", "s", Lower, SCALING),
    pl("core.orth_err_max", "rel", Lower, Every),
    pl("core.backward_err_max", "rel", Lower, Every),
    // runtime
    pl("runtime.parallel_speedup", "x", Higher, SCALING),
    pl("runtime.scaling_efficiency", "share", Higher, SCALING),
    pl("runtime.task_overhead_us", "us", Lower, Probe),
    pl("runtime.parallel_efficiency", "share", Higher, DENSE),
    pl("runtime.cp_stretch", "x", Lower, DENSE),
    pl("runtime.idle_share", "share", Lower, DENSE),
    pl("runtime.ready_wait_p50_us", "us", Lower, DENSE),
    pl("runtime.tasks", "count", Lower, DENSE),
    // lapack
    pl("lapack.geqrf_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.orgqr_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.potrf_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.trtri_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.geqrf_tiled_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.potrf_tiled_gflops", "GFlop/s", Higher, Probe),
    pl("lapack.geqrf_vs_gemm", "share", Higher, Probe),
    pl("lapack.qr_busy_share", "share", Lower, Every),
    pl("lapack.potrf_busy_share", "share", Lower, Every),
    // blas
    pl("blas.gemm_gflops", "GFlop/s", Higher, Probe),
    pl("blas.gemm_tile_gflops", "GFlop/s", Higher, Probe),
    pl("blas.gemm_c64_gflops", "GFlop/s", Higher, Probe),
    pl("blas.trsm_gflops", "GFlop/s", Higher, Probe),
    pl("blas.herk_gflops", "GFlop/s", Higher, Probe),
    pl("blas.gemm_batched_gflops", "GFlop/s", Higher, Probe),
    pl("blas.trsm_vs_gemm", "share", Higher, Probe),
    pl("blas.herk_vs_gemm", "share", Higher, Probe),
    pl("blas.gemm_busy_share", "share", Higher, Every),
    pl("blas.trsm_busy_share", "share", Lower, Every),
    pl("blas.herk_busy_share", "share", Lower, Every),
    pl("blas.kernel_flops", "flop", Lower, Every),
    // matrix
    pl("matrix.tile_roundtrip_gbs", "GB/s", Higher, Probe),
    pl("matrix.batched_gather_gbs", "GB/s", Higher, Probe),
    // gen
    pl("gen.generate_s", "s", Lower, Every),
    // obs
    pl("obs.tracing_overhead_pct", "%", Lower, Every),
    pl("obs.disabled_guard_ns", "ns", Lower, Probe),
];

/// One measured value, with how many samples stand behind it and, for a
/// percentile chosen by the sample count, which one it is.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
    pub note: Option<String>,
}

/// Values collected during a run, looked up by name at the end.
#[derive(Debug, Default)]
pub struct Sheet {
    pub rows: Vec<Measured>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_full(name, value, unit, None, None);
    }

    pub fn put_full(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        note: Option<String>,
    ) {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.rows.push(Measured { name: name.to_string(), value, unit, samples, note });
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.rows.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or_else(|| panic!("metric {name} was not measured")).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{from_str, Value};

    fn names_ok<'a>(names: impl Iterator<Item = &'a str>) {
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
    }

    fn unit_ok(u: &str) {
        assert!(u.len() <= 16 && !u.is_empty(), "{u}");
        assert!(u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{u}");
    }

    #[test]
    fn tables_obey_the_naming_limits() {
        names_ok(END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)));
        END_TO_END.iter().for_each(|m| unit_ok(m.unit));
        PER_LAYER.iter().for_each(|m| unit_ok(m.unit));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in PER_LAYER {
            if let Source::Only(names) = m.source {
                assert!(names.iter().all(|n| crate::workloads::NAMES.contains(n)), "{}", m.name);
            }
        }
        assert!(DAG_METRICS.iter().all(|d| PER_LAYER.iter().any(|m| m.name == *d)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
    }

    /// `BENCHMARK.json` is what the driver and later issues read; the
    /// tables above are what the program prints. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            v.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Value::as_f64))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), Some(m.bound)))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .filter(|m| m.on_every_run())
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), None))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);

        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }
}
