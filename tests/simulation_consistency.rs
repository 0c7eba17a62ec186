//! Integration between the numerical library and the performance stack:
//! the whole-solve tile DAG the solver emits, the schedulers, and the
//! analytic model must tell a mutually consistent story.

use polar::matrix::ProcessGrid;
use polar::qdwh::{task_graph, IterationKind};
use polar::runtime::{simulate, SchedulingMode, TaskGraph};
use polar::sim::machine::{ClusterModel, ExecTarget, NodeSpec};
use polar::sim::{estimate_qdwh_time, qdwh_flops, Implementation};

/// The graph of a square f64 solve, `t` tiles of 320 a side, on the
/// squarest grid of `ranks`.
fn qdwh_graph(t: usize, ranks: usize, it_qr: usize, it_chol: usize) -> TaskGraph {
    let n = t * 320;
    let kinds =
        [vec![IterationKind::QrBased; it_qr], vec![IterationKind::CholeskyBased; it_chol]].concat();
    let mut g = task_graph::<f64>(n, n, 320, &kinds, 1, true);
    g.assign_ranks(ProcessGrid::squarest(ranks));
    g
}

#[test]
fn dag_flops_match_measured_iteration_profile() {
    // run the real algorithm, take its iteration profile, expand the DAG
    // for that profile, and compare flop totals with the paper formula
    use polar::prelude::*;
    let n = 64;
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 3));
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    let g = task_graph::<f64>(n, n, 8, &pd.info.kinds, 1, true);
    let formula = qdwh_flops(n, pd.info.qr_iterations, pd.info.chol_iterations);
    let ratio = g.total_flops() / formula;
    assert!((0.5..2.5).contains(&ratio), "DAG/formula ratio {ratio}");
    assert!((pd.info.flops_estimate - formula).abs() < 1.0);
}

#[test]
fn des_fork_join_slower_than_task_based_on_qdwh_dag() {
    let g = qdwh_graph(16, 4, 1, 1);
    let model = ClusterModel::slate(NodeSpec::summit(), 2, ExecTarget::CpuOnly, 320);
    let tb = simulate(&g, &model, SchedulingMode::TaskBased);
    let fj = simulate(&g, &model, SchedulingMode::ForkJoin);
    assert!(fj.makespan > tb.makespan, "fork-join {} vs task-based {}", fj.makespan, tb.makespan);
    // the gap is the paper's core scheduling argument: it should be
    // substantial, not epsilon
    assert!(fj.makespan > 1.05 * tb.makespan);
}

#[test]
fn des_gpu_faster_than_cpu_on_qdwh_dag() {
    let g = qdwh_graph(20, 2, 3, 3);
    let node = NodeSpec::summit();
    let gpu = ClusterModel::slate(node.clone(), 1, ExecTarget::GpuAccelerated, 320);
    let cpu = ClusterModel::slate(node, 1, ExecTarget::CpuOnly, 320);
    let t_gpu = simulate(&g, &gpu, SchedulingMode::TaskBased);
    let t_cpu = simulate(&g, &cpu, SchedulingMode::TaskBased);
    assert!(t_gpu.makespan < t_cpu.makespan);
}

#[test]
fn des_and_analytic_agree_on_ordering() {
    // On a mid-size DAG, the DES and the analytic model must rank the
    // three implementations identically (GPU > CPU >= ScaLAPACK).
    let t = 24;
    let nb = 320;
    let n = t * nb;
    let node = NodeSpec::summit();

    let g_slate = qdwh_graph(t, 2, 3, 3);
    let gpu_des = simulate(
        &g_slate,
        &ClusterModel::slate(node.clone(), 1, ExecTarget::GpuAccelerated, nb),
        SchedulingMode::TaskBased,
    );
    let cpu_des = simulate(
        &g_slate,
        &ClusterModel::slate(node.clone(), 1, ExecTarget::CpuOnly, nb),
        SchedulingMode::TaskBased,
    );

    let gpu_ana = estimate_qdwh_time(&node, 1, Implementation::SlateGpu, n, nb, 3, 3);
    let cpu_ana = estimate_qdwh_time(&node, 1, Implementation::SlateCpu, n, nb, 3, 3);

    assert!(gpu_des.makespan < cpu_des.makespan);
    assert!(gpu_ana.seconds < cpu_ana.seconds);

    // quantitative cross-validation: the DES/analytic ratio stays within
    // a factor of 3 for both targets (they are different abstractions)
    for (des, ana, label) in
        [(gpu_des.makespan, gpu_ana.seconds, "gpu"), (cpu_des.makespan, cpu_ana.seconds, "cpu")]
    {
        let ratio = des / ana;
        assert!(
            (1.0 / 3.0..3.0).contains(&ratio),
            "{label}: DES {des:.2}s vs analytic {ana:.2}s (ratio {ratio:.2})"
        );
    }
}

#[test]
fn block_cyclic_balances_des_load() {
    let g = qdwh_graph(16, 4, 1, 1);
    let model = ClusterModel::slate(NodeSpec::summit(), 2, ExecTarget::CpuOnly, 320);
    let s = simulate(&g, &model, SchedulingMode::TaskBased);
    let max_busy = s.per_rank_busy.iter().cloned().fold(0.0f64, f64::max);
    let min_busy = s.per_rank_busy.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max_busy < 2.0 * min_busy, "block-cyclic should balance load: {:?}", s.per_rank_busy);
}

#[test]
fn communication_grows_with_ranks() {
    let bytes = |ranks| qdwh_graph(16, ranks, 1, 1).comm().point_to_point_bytes;
    assert_eq!(bytes(1), 0, "one rank: every tile is local");
    assert!(bytes(8) > bytes(2) && bytes(2) > 0);
}

#[test]
fn des_reports_the_graph_meter() {
    // one byte-counting rule: what the simulator charges transfer time for
    // is what the meter counts, in either scheduling mode
    let g = qdwh_graph(8, 4, 1, 1); // a 2 x 2 grid
    let metered = g.comm();
    assert!(metered.point_to_point_messages > 0);
    let model = ClusterModel::slate(NodeSpec::summit(), 2, ExecTarget::CpuOnly, 320);
    for mode in [SchedulingMode::TaskBased, SchedulingMode::ForkJoin] {
        let s = simulate(&g, &model, mode);
        assert_eq!(
            (s.messages, s.bytes),
            (metered.point_to_point_messages, metered.point_to_point_bytes)
        );
    }
}

#[test]
fn more_nodes_reduce_des_makespan_at_fixed_size() {
    let t = 20;
    let g1 = qdwh_graph(t, 2, 1, 1);
    let g4 = qdwh_graph(t, 8, 1, 1);
    let node = NodeSpec::summit();
    let m1 = ClusterModel::slate(node.clone(), 1, ExecTarget::CpuOnly, 320);
    let m4 = ClusterModel::slate(node, 4, ExecTarget::CpuOnly, 320);
    let s1 = simulate(&g1, &m1, SchedulingMode::TaskBased);
    let s4 = simulate(&g4, &m4, SchedulingMode::TaskBased);
    assert!(s4.makespan < s1.makespan, "4 nodes {} vs 1 node {}", s4.makespan, s1.makespan);
}
