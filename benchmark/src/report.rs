//! `run`: every workload in its own child process, one after another,
//! collected into `out/result.json`; `compare`: two such files, metric by
//! metric, against the bounds.

use crate::json::Json;
use crate::metrics::{Better, Source, DAG_METRICS, END_TO_END, PER_LAYER, SCALING_WORKLOAD};
use crate::stats::{median, spread};
use crate::workloads::NAMES;
use serde::json::{from_str, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub sets: usize,
    /// End-to-end runs per workload and set (seeds `seed`, `seed + 1`, …);
    /// with four or more, the result carries each metric's spread.
    pub repeats: usize,
    pub smoke: bool,
}

/// Current git revision read from `.git` (no subprocess), walking up from
/// the working directory; `None` in an exported checkout. Not
/// `polar_bench::git_rev`: the benchmark depends only on the layers it
/// measures, so reshaping the repo's harness crate cannot break it.
fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let Some(sym) = head.trim().strip_prefix("ref: ") else {
                return Some(head.trim().to_string());
            };
            if let Ok(hash) = std::fs::read_to_string(git.join(sym)) {
                return Some(hash.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            return packed.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, name)| *name == sym).map(|(hash, _)| hash.to_string())
            });
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn cpu_flags() -> Vec<String> {
    const WATCHED: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl"];
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = info.lines().find(|l| l.starts_with("flags")).unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    WATCHED.iter().filter(|w| have.contains(w)).map(|w| w.to_string()).collect()
}

/// What was measured, on what, built how: opens every result file.
fn provenance(threads: usize) -> Json {
    let strs = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
    Json::obj([
        ("git_rev", git_rev().map_or(Json::Null, Json::Str)),
        ("nproc", Json::Int(crate::nproc() as u64)),
        ("pool_threads", Json::Int(threads as u64)),
        ("cpu_flags", strs(cpu_flags())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("release_build", Json::Bool(!cfg!(debug_assertions))),
        ("scrubbed_env", strs(crate::scrubbed_vars())),
    ])
}

fn workload_args(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Vec<String> {
    let mut args: Vec<String> =
        ["child", "--workload", workload, "--seed"].map(String::from).into();
    args.extend([seed.to_string(), "--seconds".into(), seconds.to_string()]);
    args.extend(["--trace".into(), u8::from(trace).to_string()]);
    args.extend(smoke.then(|| "--smoke".to_string()));
    args
}

fn probe_args(seed: u64, smoke: bool) -> Vec<String> {
    let mut args = vec!["probes".to_string(), "--seed".into(), seed.to_string()];
    args.extend(smoke.then(|| "--smoke".to_string()));
    args
}

/// Start a measuring child, pass on its per-metric listing and return
/// the `detail` object it printed last.
fn measure(args: &[String], threads: usize) -> Result<Value, String> {
    let stdout = crate::spawn_self(args, threads)?;
    let mut detail = None;
    for l in stdout.lines() {
        match l.strip_prefix("detail ") {
            Some(d) => detail = Some(d),
            None => println!("{l}"),
        }
    }
    let detail = detail.ok_or(format!("child {args:?} printed no detail line"))?;
    from_str(detail).map_err(|e| format!("child {args:?}: detail does not parse: {e}"))
}

fn measured<'a>(detail: &'a Value, name: &str) -> Option<&'a Value> {
    detail
        .get("metrics")
        .and_then(Value::as_array)?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn value_of(detail: &Value, name: &str) -> Result<f64, String> {
    measured(detail, name)
        .and_then(|m| num(m, "value"))
        .ok_or(format!("metric {name} missing from a child's output"))
}

/// `core.frac_of_gemm`, the paper's "% of peak": the workload's achieved
/// rate over the GEMM rate the probes measured on the same host.
fn frac_of_gemm(own: &Value, probes: &Value) -> Result<f64, String> {
    Ok(value_of(own, "core.gflops")? / value_of(probes, "blas.gemm_gflops")?)
}

/// The driver's form, `--workload W --seed N --seconds S --trace 0|1`:
/// one run, ending with the contract's result line. `--trace 1` prints
/// the per-layer metrics every run has: the workload's own traced stint,
/// then the probes.
pub fn single(a: &crate::child::Args) -> Result<i32, String> {
    let threads = crate::default_threads();
    let own = measure(&workload_args(&a.workload, a.seed, a.seconds, a.trace, a.smoke), threads)?;
    let metric = |name: &str, unit: &str, value: f64| {
        (name.to_string(), Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    };
    let metrics = if a.trace {
        let probes = measure(&probe_args(a.seed, a.smoke), threads)?;
        let ratio = frac_of_gemm(&own, &probes)?;
        println!("  {:<32} {ratio:>18.6} share", "core.frac_of_gemm");
        PER_LAYER
            .iter()
            .filter(|d| d.on_every_run())
            .map(|d| {
                let value = match (d.name, d.source) {
                    ("core.frac_of_gemm", _) => ratio,
                    (name, Source::Probe) => value_of(&probes, name)?,
                    (name, _) => value_of(&own, name)?,
                };
                Ok(metric(d.name, d.unit, value))
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|d| Ok(metric(d.name, d.unit, value_of(&own, d.name)?)))
            .collect::<Result<Vec<_>, String>>()?
    };
    let count = |key: &str| num(&own, key).ok_or(format!("child reported no {key} count"));
    let (attempted, failed) = (count("attempted")? as u64, count("failed")? as u64);
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(0)
}

fn copy_optional(fields: &mut Vec<(String, Json)>, m: &Value) {
    if let Some(n) = num(m, "samples") {
        fields.push(("samples".into(), Json::Int(n as u64)));
    }
    if let Some(note) = m.get("note").and_then(Value::as_str) {
        fields.push(("note".into(), Json::str(note)));
    }
}

/// A metric of a result file without runs behind it: name, unit,
/// direction, value and — when read from a child — samples and note.
fn plain(name: &str, unit: &str, better: Better, value: f64, from: Option<&Value>) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(name)),
        ("unit".to_string(), Json::str(unit)),
        ("better".to_string(), Json::str(better.as_str())),
        ("value".to_string(), Json::Num(value)),
    ];
    if let Some(m) = from {
        copy_optional(&mut fields, m);
    }
    Json::Obj(fields)
}

/// What `run` measured for one workload.
struct Measurements {
    e2e_runs: Vec<Value>,
    traced: Value,
    /// `SCALING_WORKLOAD` only: an end-to-end run with one pool thread.
    one_thread: Option<Value>,
}

/// One workload's entry of the result document.
fn workload_entry(
    name: &str,
    m: &Measurements,
    probes: &Value,
    threads: usize,
) -> Result<Json, String> {
    let at = |e: String| format!("{name}: {e}");
    let total = |key: &str| m.e2e_runs.iter().filter_map(|d| num(d, key)).sum::<f64>() as u64;
    let (attempted, failed) = (total("attempted"), total("failed"));

    let mut end_to_end = Vec::new();
    let mut medians = Vec::new();
    for def in END_TO_END {
        let values = m
            .e2e_runs
            .iter()
            .map(|d| value_of(d, def.name).map_err(at))
            .collect::<Result<Vec<f64>, _>>()?;
        medians.push((def.name, median(&values)));
        let mut fields = vec![
            ("name".to_string(), Json::str(def.name)),
            ("unit".to_string(), Json::str(def.unit)),
            ("better".to_string(), Json::str(def.better.as_str())),
            ("bound".to_string(), Json::Num(def.bound)),
            ("value".to_string(), Json::Num(median(&values))),
            ("values".to_string(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
            // quartile spread needs a handful of runs to mean anything
            (
                "spread".to_string(),
                if values.len() >= 4 { Json::Num(spread(&values)) } else { Json::Null },
            ),
        ];
        copy_optional(&mut fields, measured(&m.e2e_runs[0], def.name).expect("checked above"));
        end_to_end.push(Json::Obj(fields));
    }

    // per-layer numbers no single child holds: a workload's rate against
    // the probed GEMM rate, and the 1-thread run against the end-to-end one
    let mut derived = vec![("core.frac_of_gemm", frac_of_gemm(&m.traced, probes).map_err(at)?)];
    if let Some(one_thread) = &m.one_thread {
        let one = value_of(one_thread, "solve_s").map_err(at)?;
        let pool = medians.iter().find(|(n, _)| *n == "solve_s").expect("an end-to-end metric").1;
        derived.push(("core.solve_s_1t", one));
        derived.push(("runtime.parallel_speedup", one / pool));
        derived.push(("runtime.scaling_efficiency", one / pool / threads as f64));
    }
    let mut per_layer = Vec::new();
    for def in PER_LAYER.iter().filter(|d| d.on_workload(name)) {
        if let Some((_, v)) = derived.iter().find(|(n, _)| *n == def.name) {
            per_layer.push(plain(def.name, def.unit, def.better, *v, None));
        } else if let Some(from) = measured(&m.traced, def.name) {
            let v = value_of(&m.traced, def.name).map_err(at)?;
            per_layer.push(plain(def.name, def.unit, def.better, v, Some(from)));
        } else if !DAG_METRICS.contains(&def.name) {
            return Err(at(format!("metric {} missing from the traced run", def.name)));
        }
    }
    let extra = [
        ("job_p50_ms", "ms"),
        ("job_p95_ms", "ms"),
        ("slo_miss_share", "share"),
        ("failed_share", "share"),
    ]
    .iter()
    .map(|(n, unit)| {
        let first = &m.e2e_runs[0];
        Ok(plain(n, unit, Better::Lower, value_of(first, n).map_err(at)?, measured(first, n)))
    })
    .collect::<Result<Vec<_>, String>>()?;
    let self_time = m
        .traced
        .get("layer_self_time_ms")
        .and_then(Value::as_object)
        .map(|o| Json::obj(o.iter().filter_map(|(k, v)| Some((k.clone(), Json::Num(v.as_f64()?))))))
        .unwrap_or(Json::Null);

    Ok(Json::obj([
        ("name", Json::str(name)),
        (
            "operations",
            Json::obj([
                ("attempted", Json::Int(attempted)),
                ("succeeded", Json::Int(attempted - failed)),
                ("failed", Json::Int(failed)),
            ]),
        ),
        ("end_to_end", Json::Arr(end_to_end)),
        ("also_printed", Json::Arr(extra)),
        ("per_layer", Json::Arr(per_layer)),
        ("layer_self_time_ms", self_time),
        ("trace_file", Json::str(format!("trace_{name}.json"))),
    ]))
}

/// One full set: the layer probes once, then every workload — end-to-end
/// runs first (observability off), then the shorter traced run. Returns
/// the result document and how many operations failed their checks.
fn run_set(opts: &RunOpts, threads: usize) -> Result<(Json, u64), String> {
    println!("== probes");
    let probes = measure(&probe_args(opts.seed, opts.smoke), threads)?;
    let probe_rows = PER_LAYER
        .iter()
        .filter(|d| d.source == Source::Probe)
        .map(|d| {
            let v = value_of(&probes, d.name)?;
            Ok(plain(d.name, d.unit, d.better, v, measured(&probes, d.name)))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let mut entries = Vec::new();
    let mut failed = 0;
    for name in NAMES {
        println!("== {name}");
        let child = |seed, seconds, trace, threads| {
            measure(&workload_args(name, seed, seconds, trace, opts.smoke), threads)
                .map_err(|e| format!("{name}: {e}"))
        };
        let m = Measurements {
            e2e_runs: (0..opts.repeats as u64)
                .map(|rep| child(opts.seed + rep, opts.seconds, false, threads))
                .collect::<Result<Vec<_>, _>>()?,
            traced: child(opts.seed, opts.seconds, true, threads)?,
            // the real pair behind `runtime.scaling_efficiency`: the same
            // workload, half as long, in a process with one pool thread
            one_thread: (name == SCALING_WORKLOAD)
                .then(|| child(opts.seed, opts.seconds / 2.0, false, 1))
                .transpose()?,
        };
        failed += m.e2e_runs.iter().chain([&m.traced]).filter_map(|d| num(d, "failed")).sum::<f64>()
            as u64;
        entries.push(workload_entry(name, &m, &probes, threads)?);
    }
    let doc = Json::obj([
        ("provenance", provenance(threads)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("repeats", Json::Int(opts.repeats as u64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("probes", Json::Arr(probe_rows)),
        ("workloads", Json::Arr(entries)),
    ]);
    Ok((doc, failed))
}

/// `listed` holds exactly the `declared` metrics, in order, each with its
/// unit and a finite value.
fn check_metrics(at: &str, listed: &[Value], declared: &[(&str, &str)]) -> Result<(), String> {
    let names: Vec<&str> =
        listed.iter().filter_map(|m| m.get("name").and_then(Value::as_str)).collect();
    let expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
    if names != expected {
        return Err(format!("{at}: metrics {names:?}, declared {expected:?}"));
    }
    for (m, (metric, unit)) in listed.iter().zip(declared) {
        let ok = m.get("unit").and_then(Value::as_str) == Some(unit)
            && num(m, "value").is_some_and(f64::is_finite);
        if !ok {
            return Err(format!("{at}: entry for {metric} is malformed"));
        }
    }
    Ok(())
}

/// Schema check of a result document: provenance complete, the probes
/// and every workload present, each with exactly the metrics declared
/// for it (units right, values finite), operation counts consistent.
pub fn validate(doc: &Value) -> Result<(), String> {
    let prov = doc.get("provenance").ok_or("no provenance header")?;
    for key in
        ["git_rev", "nproc", "pool_threads", "cpu_flags", "rustc", "release_build", "scrubbed_env"]
    {
        prov.get(key).ok_or(format!("provenance lacks {key}"))?;
    }
    fn section<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
        v.get(key).and_then(Value::as_array).ok_or(format!("no {key} section"))
    }
    let probes: Vec<(&str, &str)> =
        PER_LAYER.iter().filter(|d| d.source == Source::Probe).map(|d| (d.name, d.unit)).collect();
    check_metrics("probes", section(doc, "probes")?, &probes)?;

    let workloads = section(doc, "workloads")?;
    let names: Vec<&str> =
        workloads.iter().filter_map(|w| w.get("name").and_then(Value::as_str)).collect();
    if names != NAMES {
        return Err(format!("workloads {names:?}, expected {NAMES:?}"));
    }
    for (w, name) in workloads.iter().zip(NAMES) {
        let ops = w.get("operations").ok_or(format!("{name}: no operations"))?;
        let count = |k: &str| num(ops, k).ok_or(format!("{name}: operations lacks {k}"));
        if count("attempted")? < 1.0
            || count("succeeded")? + count("failed")? != count("attempted")?
        {
            return Err(format!("{name}: inconsistent operation counts"));
        }
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        check_metrics(name, section(w, "end_to_end").map_err(|e| format!("{name}: {e}"))?, &e2e)?;
        // the scheduler post-mortem is there whole or not at all
        let listed = section(w, "per_layer").map_err(|e| format!("{name}: {e}"))?;
        let has_dag = listed.iter().any(|m| {
            m.get("name").and_then(Value::as_str).is_some_and(|n| DAG_METRICS.contains(&n))
        });
        let declared: Vec<(&str, &str)> = PER_LAYER
            .iter()
            .filter(|d| d.on_workload(name) && (has_dag || !DAG_METRICS.contains(&d.name)))
            .map(|d| (d.name, d.unit))
            .collect();
        check_metrics(name, listed, &declared)?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: the data cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

/// Judge run set `b` against `a` on one metric: medians, each side's
/// runs, and each side's spread when it had enough runs to have one.
pub fn judge(
    better: Better,
    bound: f64,
    a: (f64, &[f64], Option<f64>),
    b: (f64, &[f64], Option<f64>),
) -> (f64, Verdict) {
    let rel = (b.0 - a.0) / a.0.abs();
    let worse_by = if better == Better::Lower { rel } else { -rel };
    let is_better = |x: f64, y: f64| if better == Better::Lower { x < y } else { x > y };
    let b_always_better = b.1.iter().all(|&x| a.1.iter().all(|&y| is_better(x, y)));
    let wide = [a.2, b.2].iter().flatten().any(|&s| s > bound);
    let verdict = if wide && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (rel, verdict)
}

fn e2e_row<'a>(doc: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    doc.get("workloads")
        .and_then(Value::as_array)?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get("end_to_end")
        .and_then(Value::as_array)?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
}

/// Compare two result documents: per workload × end-to-end metric, both
/// values, the relative difference (base: `a`), the bound, the verdict.
/// Returns the table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "(b-a)/a", "bound"
    );
    let mut any_worse = false;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("first file has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    for workload in names {
        for def in END_TO_END {
            let side = |doc, which: &str| -> Result<(f64, Vec<f64>, Option<f64>), String> {
                let row = e2e_row(doc, workload, def.name)
                    .ok_or(format!("{which} file lacks {workload}/{}", def.name))?;
                let value = num(row, "value")
                    .ok_or(format!("{which}: {workload}/{} has no value", def.name))?;
                let values = row
                    .get("values")
                    .and_then(Value::as_array)
                    .map(|v| v.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_else(|| vec![value]);
                Ok((value, values, num(row, "spread")))
            };
            let (av, avs, asp) = side(a, "first")?;
            let (bv, bvs, bsp) = side(b, "second")?;
            let (rel, verdict) = judge(def.better, def.bound, (av, &avs, asp), (bv, &bvs, bsp));
            any_worse |= verdict == Verdict::Worse;
            let verdict = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            let _ = writeln!(
                table,
                "{workload:<16} {:<13} {av:>14.6} {bv:>14.6} {:>+8.2}% {:>6.1}%  {verdict}",
                def.name,
                100.0 * rel,
                100.0 * def.bound,
            );
        }
    }
    Ok((table, any_worse))
}

pub fn read_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `run` subcommand. Returns the process exit code: 1 when a set
/// could not be measured or written, when an operation failed its output
/// check, or when the last set is `worse` than the first.
pub fn run(opts: &RunOpts) -> i32 {
    let threads = crate::default_threads();
    let out_dir = crate::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for set in 1..=opts.sets {
        if opts.sets > 1 {
            println!("==== set {set} of {}", opts.sets);
        }
        let (doc, failed) = match run_set(opts, threads) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("run failed: {e}");
                return 1;
            }
        };
        let name =
            if set == 1 { "result.json".to_string() } else { format!("result_set{set}.json") };
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
        // the file just written must re-parse and obey its own schema
        if let Err(e) = read_doc(&path).and_then(|v| validate(&v)) {
            eprintln!("{} fails its schema check: {e}", path.display());
            return 1;
        }
        println!("result -> {} (schema ok)", path.display());
        if failed > 0 {
            eprintln!("{failed} operations failed their output checks");
            return 1;
        }
        files.push(path);
    }
    if let [a, .., b] = files.as_slice() {
        println!("==== compare {} {}", a.display(), b.display());
        return compare_files(a, b);
    }
    0
}

/// The `compare` subcommand. Exit code 1 when any metric is `worse`.
pub fn compare_files(a: &Path, b: &Path) -> i32 {
    let result = read_doc(a).and_then(|a| read_doc(b).and_then(|b| compare(&a, &b)));
    match result {
        Ok((table, any_worse)) => {
            print!("{table}");
            i32::from(any_worse)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let one = |v: f64| (v, vec![v], None);
        let j =
            |better, bound, a: &(f64, Vec<f64>, Option<f64>), b: &(f64, Vec<f64>, Option<f64>)| {
                judge(better, bound, (a.0, &a.1, a.2), (b.0, &b.1, b.2)).1
            };
        // lower is better: +4% inside a 5% bound, +6% outside
        assert_eq!(j(Better::Lower, 0.05, &one(1.0), &one(1.04)), Verdict::Ok);
        assert_eq!(j(Better::Lower, 0.05, &one(1.0), &one(1.06)), Verdict::Worse);
        assert_eq!(j(Better::Lower, 0.05, &one(1.0), &one(0.5)), Verdict::Ok);
        // higher is better: the sign flips
        assert_eq!(j(Better::Higher, 0.05, &one(100.0), &one(94.0)), Verdict::Worse);
        assert_eq!(j(Better::Higher, 0.05, &one(100.0), &one(106.0)), Verdict::Ok);
        // a spread wider than the bound: unresolved, unless every run of b
        // beats every run of a
        let noisy_a = (1.0, vec![0.9, 1.0, 1.1, 1.2], Some(0.2));
        let b_mixed = (1.0, vec![0.95, 1.0, 1.05, 1.1], Some(0.1));
        let b_clear = (0.5, vec![0.4, 0.5, 0.5, 0.6], Some(0.2));
        assert_eq!(j(Better::Lower, 0.05, &noisy_a, &b_mixed), Verdict::Unresolved);
        assert_eq!(j(Better::Lower, 0.05, &noisy_a, &b_clear), Verdict::Ok);
    }
}
