//! ABL-ZOLO: Zolo-PD vs QDWH (paper §8 future work, implemented here).
//!
//! Two parts:
//! 1. *numeric* — real runs comparing iteration counts, QR factorization
//!    counts, and accuracy: Zolo-PD converges in 2 iterations at
//!    κ = 1e16 where QDWH takes 6, at the price of 8 stacked QRs in the
//!    first and 8 Cholesky factorizations in the second;
//! 2. *modeled* — the strong-scaling crossover: at a fixed problem size,
//!    QDWH (fewer flops) wins on few nodes, Zolo-PD (shorter critical
//!    path, r independent chains per iteration) wins once the node count
//!    grows.
//!
//! ```sh
//! cargo run --release -p polar-bench --bin ablation_zolo
//! ```

use polar_gen::{generate, MatrixSpec};
use polar_qdwh::{orthogonality_error, qdwh, zolo_pd, QdwhOptions, ZoloOptions};
use polar_sim::machine::NodeSpec;
use polar_sim::{estimate_qdwh_time, estimate_zolo_time, Implementation};

fn main() {
    // --- numeric comparison ---
    println!("# ABL-ZOLO part 1: numeric comparison at kappa = 1e16 (n = 96)");
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(96, 8));
    let q = qdwh(&a, &QdwhOptions::default()).unwrap();
    let z = zolo_pd(&a, &ZoloOptions::default()).unwrap();
    println!(
        "#   {:<8} {:>10} {:>8} {:>12} {:>12} {:>12}",
        "method", "iterations", "QRs", "orth err", "bwd err", "flops"
    );
    println!(
        "    {:<8} {:>10} {:>8} {:>12.2e} {:>12.2e} {:>12.3e}",
        "qdwh",
        q.info.iterations,
        q.info.qr_iterations,
        orthogonality_error(&q.u),
        q.backward_error(&a),
        q.info.flops_estimate
    );
    println!(
        "    {:<8} {:>10} {:>8} {:>12.2e} {:>12.2e} {:>12.3e}",
        "zolo-pd",
        z.pd.info.iterations,
        z.qr_factorizations,
        orthogonality_error(&z.pd.u),
        z.pd.backward_error(&a),
        z.pd.info.flops_estimate
    );
    assert!(z.pd.info.iterations <= 2 && q.info.iterations >= 5);

    // --- modeled strong-scaling crossover ---
    println!("\n# ABL-ZOLO part 2: modeled strong scaling (Summit GPU, n = 60k, r = 8)");
    println!("#  {:>6} | {:>12} {:>12} | {:>8}", "nodes", "QDWH s", "Zolo s", "winner");
    let node = NodeSpec::summit();
    let n = 60_000;
    let mut crossover: Option<usize> = None;
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        let tq = estimate_qdwh_time(&node, nodes, Implementation::SlateGpu, n, 320, 3, 3).seconds;
        let tz = estimate_zolo_time(&node, nodes, n, 320, 8).seconds;
        let winner = if tz < tq { "zolo" } else { "qdwh" };
        if tz < tq && crossover.is_none() {
            crossover = Some(nodes);
        }
        println!("   {nodes:>6} | {tq:>12.1} {tz:>12.1} | {winner:>8}");
    }
    match crossover {
        Some(c) => println!("# crossover at ~{c} nodes: Zolo-PD becomes attractive in the strong-scaling regime (§8)."),
        None => println!("# no crossover in range — widen the sweep."),
    }
}
