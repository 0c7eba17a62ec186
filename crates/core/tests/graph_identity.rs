//! The body-less graph `task_graph` hands to the simulator and the
//! communication meter is the graph the executor ran: same tasks, same
//! tile sets, same dependency edges — for QDWH's one-term steps and
//! Zolo-PD's `r`-term ones. Alone in its test binary — it drains the
//! process-wide table of executed graphs — and one solve at a time.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{halley_parameters, qdwh, task_graph, update_ell, IterationKind, QdwhOptions};
use polar_runtime::{KernelKind, TaskGraph};
use std::sync::{Arc, Mutex};

const N: usize = 96;
const NB: usize = 16;
const QR_THEN_CHOL: [IterationKind; 2] = [IterationKind::QrBased, IterationKind::CholeskyBased];

fn input(cond: f64) -> Matrix<f64> {
    let spec = MatrixSpec { m: N, n: N, cond, distribution: SigmaDistribution::Geometric, seed: 3 };
    generate::<f64>(&spec).0
}

/// The graphs `solve` ran under tracing, in order. One solve at a time:
/// the table is the process's.
fn executed<T>(solve: impl FnOnce() -> T) -> (T, Vec<Arc<TaskGraph>>) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scope = polar_obs::scope();
    drop(polar_runtime::take_executed_graphs());
    let out = solve();
    let graphs = polar_runtime::take_executed_graphs();
    drop(scope.finish());
    (out, graphs.into_iter().map(|(_, g)| g).collect())
}

/// The start stage's graphs and the solve's, in order: a solve graph
/// reduces a convergence norm.
fn split(ran: &[Arc<TaskGraph>]) -> (Vec<&TaskGraph>, Vec<&TaskGraph>) {
    let solve = |g: &&TaskGraph| has(g, KernelKind::Norm);
    let starts = ran.iter().map(|g| &**g).take_while(|g| !solve(g)).collect::<Vec<_>>();
    let solves = ran[starts.len()..].iter().map(|g| &**g).collect::<Vec<_>>();
    assert!(solves.iter().all(solve), "a start graph after the solve's");
    (starts, solves)
}

fn has(graph: &TaskGraph, kind: KernelKind) -> bool {
    graph.tasks.iter().any(|t| t.kind == kind)
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
    // over the start's QR of X in the QR-based step, `r` Cholesky terms
    // over one shared Gram matrix summed into one X M in the Cholesky-based
    // one
    for (r, cond) in [(3usize, 60.0), (8, 1e16)] {
        let opts = QdwhOptions { terms: r, tile_nb: Some(NB), ..Default::default() };
        let a = input(cond);
        let (pd, ran) = executed(|| qdwh(&a, &opts).expect("converges"));
        assert_eq!(pd.info.kinds, QR_THEN_CHOL, "r = {r}");
        // the Gram matrix's declined attempt at certifying l0 (a Zolotarev
        // step is Cholesky-based from 1 - eps; its leading tile, then, if
        // that held, the whole matrix), the condition estimate's QR, then
        // the whole solve
        let (starts, solves) = split(&ran);
        assert!(matches!(starts.len(), 2 | 3), "r = {r}");
        let (qr, attempts) = starts.split_last().expect("a start");
        assert!(attempts.iter().all(|g| has(g, KernelKind::Potrf) && !has(g, KernelKind::Geqrt)));
        assert!(has(qr, KernelKind::Geqrt), "r = {r}");
        assert_eq!(solves.len(), 1, "r = {r}");
        let emitted = task_graph::<f64>(N, N, NB, &pd.info.kinds, r);
        assert_same_graph(&emitted, solves[0]);
        assert!(emitted.len() > task_graph::<f64>(N, N, NB, &pd.info.kinds, 1).len());
    }
}

/// A Cholesky-first solve under the default options: `l0` certified on the
/// Gram matrix — its own graph, ahead of the solve's, and no QR — whose
/// first step reads that matrix instead of forming one. `task_graph` of a
/// Cholesky-first plan is that solve graph.
#[test]
fn a_certified_start_hands_its_gram_matrix_to_the_first_step() {
    const QR_KINDS: [KernelKind; 4] =
        [KernelKind::Geqrt, KernelKind::Tsqrt, KernelKind::Unmqr, KernelKind::Tsmqr];
    for r in [1usize, 3] {
        let opts = QdwhOptions { terms: r, tile_nb: Some(NB), ..Default::default() };
        let a = input(2.0);
        let (pd, ran) = executed(|| qdwh(&a, &opts).expect("converges"));
        assert!(pd.info.kinds.iter().all(|&k| k == IterationKind::CholeskyBased), "r = {r}");
        // the start — its leading tile, then the whole Gram matrix — the
        // solve, and a continuation step if one was asked for
        assert!(ran.iter().all(|g| g.tasks.iter().all(|t| !QR_KINDS.contains(&t.kind))), "r = {r}");
        let (starts, solves) = split(&ran);
        assert_eq!(starts.len(), 2, "r = {r}");
        for start in &starts {
            assert!(start.tasks.iter().all(|t| t.phase == 0), "r = {r}");
            assert!(has(start, KernelKind::Herk) && has(start, KernelKind::Potrf), "r = {r}");
        }
        assert_eq!(starts[0].tasks.iter().filter(|t| t.kind == KernelKind::Herk).count(), 1);

        let solve = solves[0];
        let steps = solve.tasks.iter().map(|t| t.phase as usize).max().expect("tasks") + 1;
        let emitted = task_graph::<f64>(N, N, NB, &pd.info.kinds[..steps], r);
        assert_same_graph(&emitted, solve);
        // the first step's Z_j are shifted copies of the given X^H X: it
        // has the herk tasks of its Cholesky factorizations, the second
        // those and the Gram matrix's diagonal tiles
        assert!(steps >= 2, "r = {r}");
        let herks = |phase| {
            solve
                .tasks
                .iter()
                .filter(|t| t.phase == phase)
                .filter(|t| t.kind == KernelKind::Herk)
                .count()
        };
        assert_eq!(herks(0) + N / NB, herks(1), "r = {r}");
    }
}

/// A QR-first Zolo-PD solve under the default options factors `X_0` once:
/// the start stage's tile QR, which estimated `l0`, is the first step's
/// shared factor: phase 0 of the solve graph has no `geqrt`. A later
/// QR-based step (at `r = 3` the second of three) factors its own `X`.
#[test]
fn zolo_first_qr_step_reuses_the_start_factor() {
    for r in [3usize, 8] {
        let opts = QdwhOptions { terms: r, tile_nb: Some(NB), ..Default::default() };
        let a = input(1e16);
        let (pd, ran) = executed(|| qdwh(&a, &opts).expect("converges"));
        let (starts, solves) = split(&ran);
        let geqrts = |g: &TaskGraph, phase: u32| {
            g.tasks.iter().filter(|t| t.kind == KernelKind::Geqrt && t.phase == phase).count()
        };
        assert_eq!(geqrts(starts.last().expect("the start's QR"), 0), N / NB, "r = {r}");
        for (k, &kind) in pd.info.kinds.iter().enumerate() {
            let own = k > 0 && kind == IterationKind::QrBased;
            assert_eq!(geqrts(solves[0], k as u32), if own { N / NB } else { 0 }, "r = {r}");
        }
    }
}
