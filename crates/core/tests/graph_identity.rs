//! The body-less graph `task_graph` hands to the simulator and the
//! communication meter is the graph the executor ran: same tasks, same
//! tile sets, same dependency edges — for QDWH's one-term steps and
//! Zolo-PD's `r`-term ones. Alone in its test binary — it drains the
//! process-wide table of executed graphs.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{halley_parameters, qdwh, task_graph, update_ell, IterationKind, QdwhOptions};
use polar_runtime::TaskGraph;
use std::sync::Arc;

const N: usize = 96;
const NB: usize = 16;
const QR_THEN_CHOL: [IterationKind; 2] = [IterationKind::QrBased, IterationKind::CholeskyBased];

fn input(cond: f64) -> Matrix<f64> {
    let spec = MatrixSpec { m: N, n: N, cond, distribution: SigmaDistribution::Geometric, seed: 3 };
    generate::<f64>(&spec).0
}

/// The graphs `solve` ran under tracing, in order.
fn executed<T>(solve: impl FnOnce() -> T) -> (T, Vec<Arc<TaskGraph>>) {
    let scope = polar_obs::scope();
    drop(polar_runtime::take_executed_graphs());
    let out = solve();
    let graphs = polar_runtime::take_executed_graphs();
    drop(scope.finish());
    (out, graphs.into_iter().map(|(_, g)| g).collect())
}

fn assert_same_graph(emitted: &TaskGraph, ran: &TaskGraph) {
    assert_eq!(emitted.len(), ran.len());
    for (e, r) in emitted.tasks.iter().zip(&ran.tasks) {
        let id = e.id;
        assert_eq!((e.kind, e.flops, e.phase, e.barrier), (r.kind, r.flops, r.phase, r.barrier));
        assert_eq!((&e.reads, &e.writes), (&r.reads, &r.writes), "tile sets of task {id}");
        assert_eq!(emitted.preds(id), ran.preds(id), "predecessors of task {id}");
    }
}

#[test]
fn task_graph_is_the_executed_graph() {
    // sigma_min / sigma_max = 0.995 > l0 = 0.99: two planned iterations
    // converge; the switch threshold sits between their `c`, which forces
    // one QR-based and one Cholesky-based iteration
    let l0 = 0.99f64;
    let first = halley_parameters(l0);
    let second = halley_parameters(update_ell(l0, first));
    let opts = QdwhOptions {
        tile_nb: Some(NB),
        l0_override: Some(l0),
        qr_switch_threshold: 0.5 * (first.c + second.c),
        ..Default::default()
    };
    let a = input(1.0 / 0.995);
    let (pd, ran) = executed(|| qdwh(&a, &opts).expect("converges"));
    assert_eq!(pd.info.kinds, QR_THEN_CHOL);
    // l0 was given, so no condition-estimate graph ran: the one graph is
    // the whole solve
    assert_eq!(ran.len(), 1);

    let emitted = task_graph::<f64>(N, N, NB, &pd.info.kinds, 1);
    assert_same_graph(&emitted, &ran[0]);

    // Zolo-PD's graph is the same emitter at `terms = r`: `r` stacked QRs
    // and `r - 1` private slabs in the QR-based step, `r` Cholesky terms
    // over one shared Gram matrix in the Cholesky-based one
    for (r, cond) in [(3usize, 60.0), (8, 1e16)] {
        let opts = QdwhOptions { terms: r, tile_nb: Some(NB), ..Default::default() };
        let a = input(cond);
        let (pd, ran) = executed(|| qdwh(&a, &opts).expect("converges"));
        assert_eq!(pd.info.kinds, QR_THEN_CHOL, "r = {r}");
        // the condition estimate's QR, then the whole solve
        assert_eq!(ran.len(), 2, "r = {r}");
        let emitted = task_graph::<f64>(N, N, NB, &pd.info.kinds, r);
        assert_same_graph(&emitted, &ran[1]);
        assert!(emitted.len() > task_graph::<f64>(N, N, NB, &pd.info.kinds, 1).len());
    }
}
