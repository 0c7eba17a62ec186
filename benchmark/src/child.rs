//! The measuring processes: one workload, one seed, end-to-end
//! (`--trace 0`) or traced per-layer (`--trace 1`); or the layer probes.
//! The parent starts each with a scrubbed environment and reads the
//! `detail` line it prints last.

use crate::json::Json;
use crate::metrics::{Measured, Sheet};
use crate::probes;
use crate::rng::Rng;
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, Timing};
use crate::workloads::dense::{self, DenseOutcome};
use crate::workloads::svc::{self, SvcOutcome, SvcState};
use crate::workloads::{self, DenseSpec, SvcSpec, Workload};
use polar_obs::{KernelClass, Report, SpanRecord};
use polar_runtime::TaskGraph;
use polar_scalar::{Complex64, Scalar};
use std::sync::Arc;
use std::time::Instant;

/// An end-to-end run is this many segments, each a fresh set-up (new
/// inputs from the seed, new service) followed by its share of the timed
/// window; samples are pooled and `setup_s` is the median set-up. Where
/// threads and pages land differs from one set-up to the next and shifts a
/// whole stint by several percent; pooling segments keeps one unlucky
/// placement from deciding a run.
const SEGMENTS: usize = 3;

/// The seed of segment `k` of a run.
fn segment_seed(seed: u64, k: usize) -> u64 {
    Rng::stream(seed, &format!("segment.{k}")).next_u64()
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run hands back to `main`: the sheet of everything measured and
/// the operation counts.
pub struct RunResult {
    pub sheet: Sheet,
    pub attempted: usize,
    pub failed: usize,
    /// Per-layer self time of the benchmark's own spans (traced runs).
    pub layer_self_ms: Vec<(&'static str, f64)>,
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The operation counts and samples the end-to-end metrics are made of.
struct Summary<'a> {
    /// Seconds per solve as the caller sees them: the median wall of one
    /// direct call, or the timed window over the solves a service returned.
    solve_s: f64,
    /// Caller-observed time of each operation, seconds.
    latency_s: &'a [f64],
    window_s: f64,
    attempted: usize,
    failed: usize,
    within_slo: usize,
    setup_s: &'a [f64],
}

/// The end-to-end metrics, the same way on every workload.
fn end_to_end(sheet: &mut Sheet, s: &Summary) {
    let t = Timing::of(s.latency_s, 95.0);
    let n = Some(t.samples);
    let correct = s.attempted - s.failed;
    sheet.put_full("solve_s", s.solve_s, "s", n, None);
    sheet.put_full("solves_per_s", correct as f64 / s.window_s, "1/s", Some(correct), None);
    let ok_share = s.within_slo as f64 / s.attempted as f64;
    sheet.put_full("slo_ok_share", ok_share, "share", Some(s.attempted), None);
    sheet.put_full("setup_s", median(s.setup_s), "s", Some(s.setup_s.len()), None);
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
    // printed, not gated. The job percentiles swing 15-30 % from run to
    // run of the same code on the open loop (README, "Why the latency
    // percentiles are not gated"); the two shares can be exactly zero (the
    // result line carries failures as `failed` / `attempted`).
    sheet.put_full("job_p50_ms", t.median * 1e3, "ms", n, None);
    let note = match t.tail {
        Some((p, _)) => format!("p{p}"),
        None => "the median: too few samples for a higher percentile".to_string(),
    };
    sheet.put_full("job_p95_ms", t.tail_or_median() * 1e3, "ms", n, Some(note));
    sheet.put("slo_miss_share", 1.0 - ok_share, "share");
    sheet.put("failed_share", s.failed as f64 / s.attempted as f64, "share");
}

fn dense_end_to_end<S: Scalar>(spec: &DenseSpec, args: &Args) -> RunResult {
    let rec = &Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut out = DenseOutcome::default();
    for k in 0..SEGMENTS {
        let seed = segment_seed(args.seed, k);
        let t = Instant::now();
        let input = dense::setup::<S>(spec, seed, rec);
        setup_s.push(t.elapsed().as_secs_f64());
        let budget_s = args.seconds / SEGMENTS as f64;
        out.absorb(dense::stint(spec, &input.a, budget_s, 1, seed, rec, out.attempted as u64));
    }
    let mut sheet = Sheet::default();
    let summary = Summary {
        solve_s: median(&out.solve_s),
        latency_s: &out.solve_s,
        window_s: out.solve_s.iter().sum(),
        attempted: out.attempted,
        failed: out.failed,
        within_slo: out.within_slo,
        setup_s: &setup_s,
    };
    end_to_end(&mut sheet, &summary);
    RunResult { sheet, attempted: out.attempted, failed: out.failed, layer_self_ms: Vec::new() }
}

fn svc_stint(
    spec: &SvcSpec,
    state: &SvcState,
    open: bool,
    budget_s: f64,
    seed: u64,
    rec: &Recorder,
    op_base: u64,
) -> SvcOutcome {
    if open {
        svc::open_stint(spec, state, budget_s, seed, rec, op_base)
    } else {
        svc::wave_stint(spec, state, budget_s, 3, seed, rec, op_base)
    }
}

fn svc_end_to_end(spec: &SvcSpec, open: bool, args: &Args) -> RunResult {
    let rec = &Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut out = SvcOutcome::default();
    for k in 0..SEGMENTS {
        let seed = segment_seed(args.seed, k);
        let t = Instant::now();
        let state = svc::setup(spec, seed, open, rec);
        setup_s.push(t.elapsed().as_secs_f64());
        let budget_s = args.seconds / SEGMENTS as f64;
        out.absorb(svc_stint(spec, &state, open, budget_s, seed, rec, out.attempted as u64));
        state.svc.shutdown();
    }
    let latency_s: Vec<f64> = out.latency_ms.iter().map(|ms| ms / 1e3).collect();
    let mut sheet = Sheet::default();
    let summary = Summary {
        solve_s: out.window_s / (out.attempted - out.failed).max(1) as f64,
        latency_s: &latency_s,
        window_s: out.window_s,
        attempted: out.attempted,
        failed: out.failed,
        within_slo: out.within_slo,
        setup_s: &setup_s,
    };
    end_to_end(&mut sheet, &summary);
    RunResult { sheet, attempted: out.attempted, failed: out.failed, layer_self_ms: Vec::new() }
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// What `polar_obs` and the DAG executor recorded while a closure ran.
struct Observed {
    report: Report,
    graphs: Vec<(u32, Arc<TaskGraph>)>,
}

fn observe<R>(f: impl FnOnce() -> R) -> (R, Observed) {
    drop(polar_runtime::take_executed_graphs());
    let scope = polar_obs::scope();
    let r = f();
    let report = scope.finish();
    (r, Observed { report, graphs: polar_runtime::take_executed_graphs() })
}

/// `obs.tracing_overhead_pct`: the traced stint's median operation
/// against that of the equal untraced stint that ran just before it.
fn put_tracing_overhead(sheet: &mut Sheet, traced: &[f64], untraced: &[f64]) {
    let (traced, untraced) = (median(traced), median(untraced));
    sheet.put("obs.tracing_overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
}

/// A percentile line; none when the stint produced no such sample (every
/// job of a class refused or unfinished — the run reports failures then).
fn put_pctl(sheet: &mut Sheet, name: &str, samples: &[f64], p: f64, unit: &'static str) {
    if !samples.is_empty() {
        sheet.put_full(name, percentile(samples, p), unit, Some(samples.len()), None);
    }
}

/// A ratio line; none when its base is zero (nothing was counted).
fn put_ratio(sheet: &mut Sheet, name: &str, num: f64, den: f64, unit: &'static str) {
    if den > 0.0 {
        sheet.put(name, num / den, unit);
    }
}

fn svc_metrics(sheet: &mut Sheet, o: &SvcOutcome) {
    put_pctl(sheet, "svc.queue_wait_p50_ms", &o.queue_wait_ms, 50.0, "ms");
    put_pctl(sheet, "svc.queue_wait_p95_ms", &o.queue_wait_ms, 95.0, "ms");
    put_pctl(sheet, "svc.run_p50_ms", &o.run_ms, 50.0, "ms");
    put_pctl(sheet, "svc.run_p95_ms", &o.run_ms, 95.0, "ms");
    put_pctl(sheet, "svc.submit_us_p50", &o.submit_us, 50.0, "us");
    let c = o.counters;
    put_ratio(sheet, "svc.batch_fill_ratio", c.fused_jobs as f64, c.fused_capacity as f64, "share");
    put_ratio(sheet, "svc.batch_size_mean", c.fused_jobs as f64, c.fused_batches as f64, "count");
    sheet.put("svc.fused_batches", c.fused_batches as f64, "count");
    let lookups = (c.condest_hits + c.condest_misses) as f64;
    put_ratio(sheet, "svc.condest_hit_ratio", c.condest_hits as f64, lookups, "share");
    sheet.put("svc.rejected", c.rejected as f64, "count");
    sheet.put("svc.retries", c.retries as f64, "count");
}

fn open_loop_metrics(sheet: &mut Sheet, o: &SvcOutcome) {
    put_pctl(sheet, "svc.small_job_p95_ms", &o.small_ms, 95.0, "ms");
    put_pctl(sheet, "svc.big_job_p95_ms", &o.big_ms, 95.0, "ms");
    put_pctl(sheet, "svc.job_p50_ms", &o.latency_ms, 50.0, "ms");
    put_pctl(sheet, "svc.gen_lateness_p95_ms", &o.lateness_ms, 95.0, "ms");
    sheet.put("svc.backlog_end", o.backlog_end as f64, "count");
}

fn core_metrics(sheet: &mut Sheet, o: &DenseOutcome, first_solve_s: f64) {
    let n = o.iterations.len();
    let mean = |f: fn(&(usize, usize, usize)) -> usize| {
        o.iterations.iter().map(f).sum::<usize>() as f64 / n as f64
    };
    if n > 0 {
        sheet.put_full("core.iterations", mean(|i| i.0), "count", Some(n), None);
        sheet.put_full("core.qr_iterations", mean(|i| i.1), "count", Some(n), None);
        sheet.put_full("core.chol_iterations", mean(|i| i.2), "count", Some(n), None);
    }
    let gflops = o.flops_per_solve / median(&o.solve_s) / 1e9;
    sheet.put_full("core.gflops", gflops, "GFlop/s", Some(o.solve_s.len()), None);
    sheet.put("core.first_solve_s", first_solve_s, "s");
}

/// Busy lane time per kernel class, from the spans `polar_obs` recorded:
/// on each lane, every outermost span that carries a class (a DAG task —
/// classed by its kind — or a kernel call outside any task) counts its
/// whole duration for that class; what runs nested inside it is part of it.
fn class_lane_ns(spans: &[SpanRecord]) -> [f64; KernelClass::COUNT] {
    let mut classed: Vec<&SpanRecord> = spans.iter().filter(|s| s.class.is_some()).collect();
    classed.sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut busy = [0.0; KernelClass::COUNT];
    let (mut lane, mut reach) = (u32::MAX, 0);
    for s in classed {
        if s.lane != lane {
            (lane, reach) = (s.lane, 0);
        }
        if s.start_ns >= reach {
            busy[s.class.expect("filtered") as usize] += (s.end_ns - s.start_ns) as f64;
            reach = s.end_ns;
        }
    }
    busy
}

/// Kernel-class busy shares and flops per operation of the traced stint.
fn kernel_metrics(sheet: &mut Sheet, report: &Report, ops: usize) {
    let busy = class_lane_ns(&report.spans);
    let total: f64 = busy.iter().sum();
    let mut share = |name: &str, classes: &[KernelClass]| {
        let ns: f64 = classes.iter().map(|&c| busy[c as usize]).sum();
        put_ratio(sheet, name, ns, total, "share");
    };
    share("lapack.qr_busy_share", &[KernelClass::Geqrf, KernelClass::Orgqr]);
    share("lapack.potrf_busy_share", &[KernelClass::Potrf]);
    share("blas.gemm_busy_share", &[KernelClass::Gemm]);
    share("blas.trsm_busy_share", &[KernelClass::Trsm]);
    share("blas.herk_busy_share", &[KernelClass::Herk]);
    // analytic flops the kernels accounted for: a count, repeats exactly
    let per_op = report.kernels.total_flops() as f64 / ops as f64;
    sheet.put_full("blas.kernel_flops", per_op, "flop", Some(ops), None);
}

/// Scheduler post-mortem over the task DAGs a stint executed; nothing
/// when it executed none (shapes below the tiled threshold).
fn runtime_metrics(sheet: &mut Sheet, observed: &Observed, ops: usize) {
    if observed.graphs.is_empty() {
        return;
    }
    let pm = polar_runtime::analyze(&observed.report.spans, &observed.graphs);
    let sum = |f: fn(&polar_runtime::DagPostmortem) -> f64| pm.dags.iter().map(f).sum::<f64>();
    let busy = sum(|d| d.total_busy_ns as f64);
    let lane_time = sum(|d| d.makespan_ns as f64 * d.workers.len() as f64);
    put_ratio(sheet, "runtime.parallel_efficiency", busy, lane_time, "share");
    let (makespan, critical_path) =
        (sum(|d| d.makespan_ns as f64), sum(|d| d.critical_path_ns as f64));
    put_ratio(sheet, "runtime.cp_stretch", makespan, critical_path, "x");
    // lanes parked for want of a ready task, as a share of lane time
    put_ratio(sheet, "runtime.idle_share", sum(|d| d.park.total_ns as f64), lane_time, "share");
    let ready_wait_us: Vec<f64> = observed
        .report
        .spans
        .iter()
        .filter_map(|s| s.lifecycle.map(|l| s.start_ns.saturating_sub(l.ready_ns) as f64 / 1e3))
        .collect();
    put_pctl(sheet, "runtime.ready_wait_p50_us", &ready_wait_us, 50.0, "us");
    let tasks = ready_wait_us.len() as f64 / ops as f64;
    sheet.put_full("runtime.tasks", tasks, "count", Some(ops), None);
}

/// The traced stint of a dense workload, after an equal untraced one.
fn dense_traced<S: Scalar>(
    spec: &DenseSpec,
    budget_s: f64,
    seed: u64,
    rec: &Recorder,
    sheet: &mut Sheet,
) -> (usize, usize) {
    let quiet = Recorder::new(false);
    let input = dense::setup::<S>(spec, seed, rec);
    let untraced = dense::stint(spec, &input.a, budget_s, 2, seed, &quiet, 0);
    let (out, observed) = observe(|| dense::stint(spec, &input.a, budget_s, 2, seed, rec, 0));
    sheet.put("gen.generate_s", input.gen_s, "s");
    put_tracing_overhead(sheet, &out.solve_s, &untraced.solve_s);
    kernel_metrics(sheet, &observed.report, out.attempted);
    runtime_metrics(sheet, &observed, out.attempted);
    core_metrics(sheet, &out, input.warmup_s);
    sheet.put("core.orth_err_max", out.orth_max, "rel");
    sheet.put("core.backward_err_max", out.backward_max, "rel");
    (out.attempted, out.failed)
}

/// The traced stint of a service workload, after an equal untraced one;
/// on the closed loop, then the same waves straight through the engine.
fn svc_traced(
    spec: &SvcSpec,
    open: bool,
    budget_s: f64,
    seed: u64,
    rec: &Recorder,
    sheet: &mut Sheet,
) -> (usize, usize) {
    let quiet = Recorder::new(false);
    let state = svc::setup(spec, seed, open, rec);
    let untraced = svc_stint(spec, &state, open, budget_s, seed, &quiet, 0);
    let (out, observed) = observe(|| svc_stint(spec, &state, open, budget_s, seed, rec, 0));
    sheet.put("gen.generate_s", state.gen_s, "s");
    put_tracing_overhead(sheet, &out.latency_ms, &untraced.latency_ms);
    kernel_metrics(sheet, &observed.report, out.attempted);
    svc_metrics(sheet, &out);
    if open {
        open_loop_metrics(sheet, &out);
    } else {
        // `1 − direct engine wall ÷ service wall`, wave for wave
        let direct = svc::direct_waves(spec, &state, budget_s / 2.0, out.wave_s.len(), rec);
        sheet.put("svc.overhead_share", 1.0 - median(&direct) / median(&out.wave_s), "share");
    }
    state.svc.shutdown();
    // paper flop formula of every returned solve over the timed window
    sheet.put("core.gflops", out.flops / out.window_s / 1e9, "GFlop/s");
    sheet.put("core.orth_err_max", out.orth_max, "rel");
    sheet.put("core.backward_err_max", out.backward_max, "rel");
    (out.attempted, out.failed)
}

/// The workload's own traced stint, a quarter of `--seconds`, on the
/// inputs of the end-to-end run's first segment; writes the trace file.
fn traced(workload: &Workload, args: &Args) -> RunResult {
    let rec = Recorder::new(true);
    let mut sheet = Sheet::default();
    let budget_s = args.seconds / 4.0;
    let seed = segment_seed(args.seed, 0);
    let (attempted, failed) = match workload {
        Workload::Dense(s) if s.complex => {
            dense_traced::<Complex64>(s, budget_s, seed, &rec, &mut sheet)
        }
        Workload::Dense(s) => dense_traced::<f64>(s, budget_s, seed, &rec, &mut sheet),
        Workload::Waves(s) => svc_traced(s, false, budget_s, seed, &rec, &mut sheet),
        Workload::Open(s) => svc_traced(s, true, budget_s, seed, &rec, &mut sheet),
    };

    let spans = rec.take();
    let layer_self_ms = spans::layer_self_time_ns(&spans)
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6))
        .collect();
    let path = crate::out_dir().join(format!("trace_{}.json", args.workload));
    let write = std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans::write_chrome_trace(&spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
    match write {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    RunResult { sheet, attempted, failed, layer_self_ms }
}

// ---------------------------------------------------------------------------
// Entry points and output
// ---------------------------------------------------------------------------

fn metric_json(m: &Measured) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(m.name.clone())),
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::str(m.unit)),
    ];
    if let Some(n) = m.samples {
        fields.push(("samples".to_string(), Json::Int(n as u64)));
    }
    if let Some(note) = &m.note {
        fields.push(("note".to_string(), Json::str(note.clone())));
    }
    Json::Obj(fields)
}

/// Print every metric by name with its unit, then the `detail` line the
/// parent process collects.
fn print_result(result: &RunResult) {
    for m in &result.sheet.rows {
        let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
        let note = m.note.as_deref().map_or(String::new(), |s| format!("  ({s})"));
        let small = m.value != 0.0 && m.value.abs() < 1e-3;
        let value = if small { format!("{:e}", m.value) } else { format!("{:.6}", m.value) };
        println!("  {:<32} {value:>18} {}{samples}{note}", m.name, m.unit);
    }
    for (layer, ms) in &result.layer_self_ms {
        println!("  self time {layer:<22} {ms:>16.3} ms");
    }
    let detail = Json::obj([
        ("attempted", Json::Int(result.attempted as u64)),
        ("failed", Json::Int(result.failed as u64)),
        ("metrics", Json::Arr(result.sheet.rows.iter().map(metric_json).collect())),
        (
            "layer_self_time_ms",
            Json::obj(result.layer_self_ms.iter().map(|(l, ms)| (*l, Json::Num(*ms)))),
        ),
    ]);
    println!("detail {}", detail.to_line());
}

fn refuse_debug_build(smoke: bool) -> bool {
    let refuse = cfg!(debug_assertions) && !smoke;
    if refuse {
        eprintln!("refusing to measure a debug build; build with --release");
    }
    refuse
}

/// Body of the `child` process: run one workload. Returns the exit code.
pub fn run(args: &Args) -> i32 {
    let threads = crate::pool_threads();
    let Some(workload) = workloads::by_name(&args.workload, args.smoke, threads) else {
        eprintln!("unknown workload {:?}; known: {:?}", args.workload, workloads::NAMES);
        return 2;
    };
    if refuse_debug_build(args.smoke) {
        return 2;
    }
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke shapes)" } else { "" }
    );
    let result = if args.trace {
        traced(&workload, args)
    } else {
        match &workload {
            Workload::Dense(s) if s.complex => dense_end_to_end::<Complex64>(s, args),
            Workload::Dense(s) => dense_end_to_end::<f64>(s, args),
            Workload::Waves(s) => svc_end_to_end(s, false, args),
            Workload::Open(s) => svc_end_to_end(s, true, args),
        }
    };
    println!(
        "operations: attempted {} succeeded {} failed {}",
        result.attempted,
        result.attempted - result.failed,
        result.failed
    );
    print_result(&result);
    0
}

/// Body of the `probes` process: every fixed-shape layer probe, once.
pub fn run_probes(seed: u64, smoke: bool) -> i32 {
    if refuse_debug_build(smoke) {
        return 2;
    }
    let threads = crate::pool_threads();
    println!("probes seed {seed} threads {threads}{}", if smoke { " (smoke shapes)" } else { "" });
    let mut sheet = Sheet::default();
    probes::run_all(&probes::Shapes::new(smoke), seed, &mut sheet);
    print_result(&RunResult { sheet, attempted: 0, failed: 0, layer_self_ms: Vec::new() });
    0
}
