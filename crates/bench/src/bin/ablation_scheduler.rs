//! ABL-SCHED: task-based vs fork-join scheduling of the *same* QDWH tile
//! DAG — the mechanism behind the paper's §3 argument that POLAR's
//! bulk-synchronous ScaLAPACK substrate limits concurrency (lookahead is
//! impractical under fork-join).
//!
//! Runs the discrete-event scheduler in both modes over the whole-solve
//! graph the solver itself emits (`polar_qdwh::task_graph`; fork-join
//! reads the panel-step barriers the emitters mark) and reports the
//! makespan gap and parallel efficiency.
//!
//! ```sh
//! cargo run --release -p polar-bench --bin ablation_scheduler
//! ```

use polar_bench::paper_profile_graph;
use polar_runtime::{simulate, SchedulingMode};
use polar_sim::machine::{ClusterModel, ExecTarget, NodeSpec};

fn main() {
    let summit = NodeSpec::summit();

    println!("# ABL-SCHED: identical QDWH tile DAG under both scheduling modes");
    println!(
        "# {:>6} {:>6} {:>7} | {:>12} {:>12} | {:>8} | {:>7} {:>7}",
        "tiles", "nodes", "tasks", "task-based s", "fork-join s", "fj/tb", "eff(tb)", "eff(fj)"
    );

    for (t, nodes) in [(12usize, 1usize), (16, 1), (24, 2), (32, 4)] {
        let ranks = nodes * summit.slate_ranks_per_node;
        let g = paper_profile_graph(t, 320, ranks);
        let model = ClusterModel::slate(summit.clone(), nodes, ExecTarget::CpuOnly, 320);
        let tb = simulate(&g, &model, SchedulingMode::TaskBased);
        let fj = simulate(&g, &model, SchedulingMode::ForkJoin);
        let slots: usize =
            (0..ranks).map(|r| polar_runtime::ExecutionModel::slots(&model, r)).sum();
        println!(
            "  {:>6} {:>6} {:>7} | {:>12.3} {:>12.3} | {:>7.2}x | {:>6.1}% {:>6.1}%",
            t,
            nodes,
            g.len(),
            tb.makespan,
            fj.makespan,
            fj.makespan / tb.makespan,
            100.0 * tb.efficiency(slots),
            100.0 * fj.efficiency(slots),
        );
        assert!(fj.makespan >= tb.makespan, "fork-join must not win");
    }
    println!("# the fork-join penalty is the concurrency POLAR leaves on the table (§3).");
}
