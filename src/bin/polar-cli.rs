//! `polar-cli` — command-line driver for the polar decomposition library.
//!
//! ```sh
//! polar-cli decompose --n 256 --cond 1e16 [--method qdwh|zolo|svd] [--complex]
//! polar-cli svd       --m 300 --n 180 --cond 1e8 [--k 10]
//! polar-cli eig       --n 128 [--k 5]
//! polar-cli model     --machine summit|frontier --nodes 8 --n 100000
//! polar-cli bench-figures        # regenerate every paper figure (model)
//! ```

use polar::prelude::*;
use polar::qdwh::{orthogonality_error, qdwh_partial_svd, QdwhError};
use polar::sim::machine::NodeSpec;
use polar::sim::{estimate_qdwh_time, Implementation, ILL_CONDITIONED_PROFILE};

fn arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn spec_from(args: &[String]) -> MatrixSpec {
    let n = arg(args, "--n", 256usize);
    let m = arg(args, "--m", n);
    MatrixSpec {
        m,
        n,
        cond: arg(args, "--cond", 1e16f64),
        distribution: SigmaDistribution::Geometric,
        seed: arg(args, "--seed", 42u64),
    }
}

fn cmd_decompose(args: &[String]) -> Result<(), QdwhError> {
    let spec = spec_from(args);
    let method: String = arg(args, "--method", "qdwh".to_string());
    println!(
        "polar decomposition: {} x {}, cond {:.1e}, method {method}",
        spec.m, spec.n, spec.cond
    );
    let t0 = std::time::Instant::now();
    // Zolo-PD is QDWH with eight terms per step
    let terms = if method == "zolo" { 8 } else { 1 };
    let opts = QdwhOptions { terms, ..Default::default() };
    let run =
        |a: &Matrix<f64>| -> Result<(polar::qdwh::PolarDecomposition<f64>, String), QdwhError> {
            match method.as_str() {
                "svd" => Ok((svd_based_polar(a)?, String::new())),
                _ => {
                    let pd = qdwh(a, &opts)?;
                    // a stacked QR per term of every QR-based iteration
                    let qrs = terms * pd.info.qr_iterations;
                    let extra = if terms > 1 {
                        format!(", {qrs} QR factorizations")
                    } else {
                        String::new()
                    };
                    Ok((pd, extra))
                }
            }
        };
    if flag(args, "--complex") {
        let (a, _) = generate::<Complex64>(&spec);
        let pd = match method.as_str() {
            "svd" => svd_based_polar(&a)?,
            _ => qdwh(&a, &opts)?,
        };
        println!("  scalar type        : complex f64");
        println!("  iterations         : {}", pd.info.iterations);
        println!("  orthogonality error: {:.3e}", orthogonality_error(&pd.u));
        println!("  backward error     : {:.3e}", pd.backward_error(&a));
    } else {
        let (a, _) = generate::<f64>(&spec);
        let (pd, extra) = run(&a)?;
        println!("  scalar type        : f64");
        println!(
            "  iterations         : {} ({} QR + {} Cholesky){extra}",
            pd.info.iterations, pd.info.qr_iterations, pd.info.chol_iterations
        );
        println!("  orthogonality error: {:.3e}", orthogonality_error(&pd.u));
        println!("  backward error     : {:.3e}", pd.backward_error(&a));
    }
    println!("  wall time          : {:?}", t0.elapsed());
    Ok(())
}

fn cmd_svd(args: &[String]) -> Result<(), QdwhError> {
    let spec = spec_from(args);
    let k = arg(args, "--k", 0usize);
    let (a, _) = generate::<f64>(&spec);
    let t0 = std::time::Instant::now();
    if k > 0 {
        let p = qdwh_partial_svd(&a, k, &QdwhOptions::default())?;
        println!("dominant {k} singular values ({:?}):", t0.elapsed());
        for (i, s) in p.sigma.iter().enumerate() {
            println!("  sigma_{i} = {s:.6e}");
        }
    } else {
        let svd = polar::qdwh::qdwh_svd(&a, &QdwhOptions::default())?;
        println!(
            "QDWH-SVD: {} singular values in [{:.3e}, {:.3e}] ({:?}; polar stage {} iterations)",
            svd.sigma.len(),
            svd.sigma.last().unwrap(),
            svd.sigma[0],
            t0.elapsed(),
            svd.polar_iterations,
        );
    }
    Ok(())
}

fn cmd_eig(args: &[String]) -> Result<(), QdwhError> {
    let n = arg(args, "--n", 128usize);
    let k = arg(args, "--k", 0usize);
    let seed = arg(args, "--seed", 42u64);
    // random symmetric input
    let mut s = seed | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let g = Matrix::from_fn(n, n, |_, _| next());
    let a = Matrix::from_fn(n, n, |i, j| (g[(i, j)] + g[(j, i)]) / 2.0);
    let t0 = std::time::Instant::now();
    if k > 0 {
        let p = polar::qdwh::qdwh_partial_eig(&a, k, &QdwhOptions::default())?;
        println!("top {k} eigenvalues ({:?}; {} polar splits):", t0.elapsed(), p.polar_count);
        for (i, v) in p.values.iter().enumerate() {
            println!("  lambda_{i} = {v:.6e}");
        }
    } else {
        let e = polar::qdwh::qdwh_eig(&a, &QdwhOptions::default())?;
        println!(
            "QDWH-eig: {} eigenvalues in [{:.3e}, {:.3e}] ({:?}; {} polar decompositions)",
            e.values.len(),
            e.values.last().unwrap(),
            e.values[0],
            t0.elapsed(),
            e.polar_count,
        );
    }
    Ok(())
}

fn cmd_model(args: &[String]) {
    let machine: String = arg(args, "--machine", "summit".to_string());
    let nodes = arg(args, "--nodes", 1usize);
    let n = arg(args, "--n", 100_000usize);
    let nb = arg(args, "--nb", 320usize);
    let node = if machine == "frontier" { NodeSpec::frontier() } else { NodeSpec::summit() };
    let (it_qr, it_chol) = ILL_CONDITIONED_PROFILE;
    println!("modeled QDWH on {machine}, {nodes} node(s), n = {n}, nb = {nb}:");
    for (label, imp) in [
        ("SLATE GPU ", Implementation::SlateGpu),
        ("SLATE CPU ", Implementation::SlateCpu),
        ("ScaLAPACK ", Implementation::ScaLapack),
    ] {
        let r = estimate_qdwh_time(&node, nodes, imp, n, nb, it_qr, it_chol);
        println!(
            "  {label}: {:>9.2} Tflop/s  ({:.1} s; compute {:.0}s, panel {:.0}s, net {:.0}s)",
            r.tflops, r.seconds, r.compute_seconds, r.panel_seconds, r.network_seconds
        );
    }
}

fn main() {
    // POLAR_METRICS=1 enables kernel counters; POLAR_TRACE=<path> also
    // records spans, written as a Chrome trace on exit (open in Perfetto).
    let obs_cfg = polar::obs::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    let rest = if argv.is_empty() { &[] } else { &argv[1..] };
    let result = match cmd {
        "decompose" => cmd_decompose(rest),
        "svd" => cmd_svd(rest),
        "eig" => cmd_eig(rest),
        "model" => {
            cmd_model(rest);
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: polar-cli <decompose|svd|eig|model> [options]\n\
                 \n  decompose --n N [--m M] [--cond C] [--method qdwh|zolo|svd] [--complex] [--seed S]\
                 \n  svd       --n N [--m M] [--cond C] [--k K]\
                 \n  eig       --n N [--k K]\
                 \n  model     --machine summit|frontier --nodes P --n N [--nb B]"
            );
            Ok(())
        }
    };
    if let Some(path) = &obs_cfg.trace_path {
        match polar::runtime::write_trace_file(path) {
            Ok(spans) => eprintln!("wrote {spans} spans to {}", path.display()),
            Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
        }
    }
    if polar::obs::metrics_enabled() {
        eprintln!("kernel counters: {}", polar::obs::kernel_snapshot().to_json());
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
