//! `polar-verify` — the accuracy gate CLI.
//!
//! ```sh
//! cargo run --release -p polar-verify                     # sweep + report, no gate
//! cargo run --release -p polar-verify -- --gate           # compare vs baseline, exit 1 on regression
//! cargo run --release -p polar-verify -- --write-baseline # regenerate results/ACCURACY_baseline.json
//! ```
//!
//! Flags: `--baseline <path>` (default `results/ACCURACY_baseline.json`),
//! `--out <path>` (default `ACCURACY_report.json`). Any two runs produce
//! byte-identical reports, whatever the pool width: a solve's bits depend on
//! its shape alone, and the artifact is timestamp-free.

use polar_verify::{
    case_grid, check, parse_baseline, render_baseline, render_report, run_grid, METRIC_NAMES,
};
use std::process::ExitCode;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let baseline_path =
        arg_value(&args, "--baseline").unwrap_or_else(|| "results/ACCURACY_baseline.json".into());
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "ACCURACY_report.json".into());

    let grid = case_grid();
    eprintln!("polar-verify: {} cases, {} pool workers", grid.len(), rayon::current_num_threads());

    let results = match run_grid(&grid) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("polar-verify: solver failure: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:>28} | {:>12} {:>13} {:>12} {:>12} | {:>4}",
        "case", "backward", "orthogonality", "hermitian", "psd", "iter"
    );
    for r in &results {
        println!(
            "{:>28} | {:>12.3e} {:>13.3e} {:>12.3e} {:>12.3e} | {:>4}",
            r.spec.id(),
            r.metrics.backward,
            r.metrics.orthogonality,
            r.metrics.hermitian,
            r.metrics.psd,
            r.iterations
        );
    }

    if write_baseline {
        let text = render_baseline(&results);
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("polar-verify: cannot write baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("polar-verify: baseline written to {baseline_path}");
    }

    let baseline = if gate {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "polar-verify: cannot read baseline {baseline_path}: {e} \
                     (run with --write-baseline to create it)"
                );
                return ExitCode::FAILURE;
            }
        };
        match parse_baseline(&text) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("polar-verify: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let report = render_report(&results, baseline.as_ref());
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("polar-verify: cannot write report {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("polar-verify: report written to {out_path}");

    if let Some(b) = &baseline {
        let failures = check(&results, b);
        if failures.is_empty() {
            eprintln!(
                "polar-verify: GATE PASS — {} cases x {} metrics within tolerance bands",
                results.len(),
                METRIC_NAMES.len()
            );
        } else {
            eprintln!("polar-verify: GATE FAIL — {} violation(s):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
