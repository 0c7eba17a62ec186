//! polar-rs benchmark: five workloads, service → kernel.
//!
//! ```text
//! polar-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the result object
//!     {"correct", "attempted", "failed", "metrics"} (this is the command
//!     BENCHMARK.json names)
//! polar-benchmark run [--seed N] [--seconds S] [--sets K] [--repeats R] [--smoke]
//!     the layer probes, then every workload end-to-end and traced, each
//!     in its own child process; prints every metric and writes
//!     benchmark/out/result.json
//! polar-benchmark compare a.json b.json
//!     two result files, metric by metric, against the bounds
//! ```
//!
//! README.md in this directory explains the workloads, the metrics and
//! how they are expected to move.

mod check;
mod child;
mod json;
mod metrics;
mod probes;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
pub const DEFAULT_SECONDS: u64 = 12;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool threads (and service workers) every workload runs with: all the
/// cores up to four, set explicitly so no run depends on a default.
pub fn default_threads() -> usize {
    nproc().min(4)
}

/// The pool width this process was started with.
pub fn pool_threads() -> usize {
    std::env::var("POLAR_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_threads)
}

/// `POLAR_*` variables present in this process's environment; children
/// are started without them.
pub fn scrubbed_vars() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("POLAR_"))
        .collect();
    vars.sort();
    vars
}

/// Where result and trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Start this executable again as a child with every `POLAR_*` variable
/// removed and `POLAR_NUM_THREADS` set, wait for it, and return its
/// stdout. The pool reads its width once at start-up, so a different
/// width needs a new process.
pub fn spawn_self(args: &[String], threads: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for var in scrubbed_vars() {
        cmd.env_remove(var);
    }
    cmd.env("POLAR_NUM_THREADS", threads.to_string());
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).stdout(Stdio::piped());
    let out = cmd.output().map_err(|e| format!("cannot start child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} exited with {}", args, out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output is not UTF-8: {e}"))
}

/// `--key value` arguments, each checked where it enters.
struct Cli {
    raw: Vec<String>,
}

impl Cli {
    fn value(&self, key: &str) -> Option<&str> {
        self.raw.iter().position(|a| a == key).and_then(|i| self.raw.get(i + 1)).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.parsed("--seconds", DEFAULT_SECONDS as f64)?;
        if s.is_finite() && s > 0.0 && s <= 600.0 {
            Ok(s)
        } else {
            Err(format!("--seconds: {s} is outside (0, 600]"))
        }
    }

    fn child_args(&self) -> Result<child::Args, String> {
        Ok(child::Args {
            workload: self.value("--workload").ok_or("--workload is required")?.to_string(),
            seed: self.parsed("--seed", 1)?,
            seconds: self.seconds()?,
            trace: match self.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace: {v:?} is neither 0 nor 1")),
            },
            smoke: self.flag("--smoke"),
        })
    }
}

fn usage() -> i32 {
    eprintln!(
        "usage:\n  polar-benchmark --workload W --seed N --seconds S --trace 0|1\n  \
         polar-benchmark run [--seed N] [--seconds S] [--sets K] [--repeats R] [--smoke]\n  \
         polar-benchmark compare a.json b.json\nworkloads: {}",
        workloads::NAMES.join(" ")
    );
    2
}

fn dispatch(cli: &Cli) -> Result<i32, String> {
    Ok(match cli.raw.first().map(String::as_str) {
        // the measuring processes the other forms start, never typed
        Some("child") => child::run(&cli.child_args()?),
        Some("probes") => child::run_probes(cli.parsed("--seed", 1)?, cli.flag("--smoke")),
        Some("run") => {
            let smoke = cli.flag("--smoke");
            let opts = report::RunOpts {
                seed: cli.parsed("--seed", 1)?,
                seconds: if smoke && cli.value("--seconds").is_none() {
                    0.5
                } else {
                    cli.seconds()?
                },
                sets: cli.parsed("--sets", 1usize)?.clamp(1, 8),
                repeats: cli.parsed("--repeats", 1usize)?.clamp(1, 32),
                smoke,
            };
            report::run(&opts)
        }
        Some("compare") => match (cli.raw.get(1), cli.raw.get(2)) {
            (Some(a), Some(b)) => report::compare_files(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        // the driver's form: flags only. Validate here, measure in
        // children whose environment is scrubbed.
        Some(flag) if flag.starts_with("--") => report::single(&cli.child_args()?)?,
        _ => usage(),
    })
}

fn main() {
    let cli = Cli { raw: std::env::args().skip(1).collect() };
    let code = dispatch(&cli).unwrap_or_else(|e| {
        eprintln!("polar-benchmark: {e}");
        2
    });
    std::process::exit(code);
}
