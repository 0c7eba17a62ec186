//! The body-less graph `qdwh_task_graph` hands to the simulator and the
//! communication meter is the graph the executor ran: same tasks, same
//! tile sets, same dependency edges. Alone in its test binary — it drains
//! the process-wide table of executed graphs.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_qdwh::{
    halley_parameters, qdwh, qdwh_task_graph, update_ell, IterationKind, QdwhOptions,
};

#[test]
fn task_graph_is_the_executed_graph() {
    let (n, nb) = (96usize, 16usize);
    // sigma_min / sigma_max = 0.995 > l0 = 0.99: two planned iterations
    // converge; the switch threshold sits between their `c`, which forces
    // one QR-based and one Cholesky-based iteration
    let l0 = 0.99f64;
    let first = halley_parameters(l0);
    let second = halley_parameters(update_ell(l0, first));
    let opts = QdwhOptions {
        tile_nb: Some(nb),
        l0_override: Some(l0),
        qr_switch_threshold: 0.5 * (first.c + second.c),
        ..Default::default()
    };
    let spec = MatrixSpec {
        m: n,
        n,
        cond: 1.0 / 0.995,
        distribution: SigmaDistribution::Geometric,
        seed: 3,
    };
    let (a, _) = generate::<f64>(&spec);

    let scope = polar_obs::scope();
    drop(polar_runtime::take_executed_graphs());
    let pd = qdwh(&a, &opts).expect("converges");
    let executed = polar_runtime::take_executed_graphs();
    drop(scope.finish());
    assert_eq!(pd.info.kinds, [IterationKind::QrBased, IterationKind::CholeskyBased]);
    // l0 was given, so no condition-estimate graph ran: the one graph is
    // the whole solve
    assert_eq!(executed.len(), 1);
    let ran = &executed[0].1;

    let emitted = qdwh_task_graph::<f64>(n, n, nb, &pd.info.kinds, opts.exploit_structure);
    assert_eq!(emitted.len(), ran.len());
    for (e, r) in emitted.tasks.iter().zip(&ran.tasks) {
        let id = e.id;
        assert_eq!((e.kind, e.flops, e.phase, e.barrier), (r.kind, r.flops, r.phase, r.barrier));
        assert_eq!((&e.reads, &e.writes), (&r.reads, &r.writes), "tile sets of task {id}");
        assert_eq!(emitted.preds(id), ran.preds(id), "predecessors of task {id}");
    }
    // PR 15's trtri tasks and the structure-exploiting row limit are in it
    assert!(emitted.len() < qdwh_task_graph::<f64>(n, n, nb, &pd.info.kinds, false).len());
}
