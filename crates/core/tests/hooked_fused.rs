//! The progress hook inside the whole-solve graphs: polling it changes no
//! bit of the result, it sees the solve advance, and a `Cancel` abandons
//! the graph. Every test takes `polar_obs::scope_lock()`, which also
//! serializes them: the span-counting ones must see only their own solve.

use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{
    qdwh, zolo_pd, IterationDecision, IterationProgress, ProgressHook, QdwhError, QdwhOptions,
    ZoloOptions,
};
use polar_scalar::{Complex64, Scalar};
use std::sync::{Arc, Mutex};

fn spec(m: usize, n: usize, cond: f64, seed: u64) -> MatrixSpec {
    MatrixSpec { m, n, cond, distribution: SigmaDistribution::Geometric, seed }
}

fn tiled() -> QdwhOptions {
    QdwhOptions { tile_nb: Some(16), ..Default::default() }
}

fn tiled_zolo(r: usize) -> ZoloOptions {
    ZoloOptions { r, max_iterations: 12, tile_nb: Some(16), ..Default::default() }
}

/// A hook that logs every snapshot and cancels from iteration `cancel_at` on.
fn recording_hook(cancel_at: usize) -> (ProgressHook, Arc<Mutex<Vec<IterationProgress>>>) {
    let seen: Arc<Mutex<Vec<IterationProgress>>> = Arc::default();
    let log = seen.clone();
    let hook: ProgressHook = Arc::new(move |p: &IterationProgress| {
        log.lock().unwrap().push(*p);
        if p.iteration >= cancel_at {
            IterationDecision::Cancel
        } else {
            IterationDecision::Continue
        }
    });
    (hook, seen)
}

fn assert_same_bits<S: Scalar>(what: &str, a: &Matrix<S>, b: &Matrix<S>) {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "{what}: shape");
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            assert!(a[(i, j)] == b[(i, j)], "{what} {}: ({i},{j}) differs", S::TYPE_TAG);
        }
    }
}

/// What a hook that never cancels must have seen over a whole solve whose
/// per-iteration convergence norms were `norms`.
fn assert_watched_the_solve(seen: &[IterationProgress], norms: &[f64]) {
    assert!(seen.len() > norms.len(), "polled per task release, not per iteration");
    assert_eq!(seen[0].iteration, 1);
    assert!(seen.windows(2).all(|w| w[0].iteration <= w[1].iteration), "frontier went back");
    assert!(seen.windows(2).all(|w| w[0].ell <= w[1].ell), "planned ell marches to 1");
    for p in seen.iter().filter(|p| p.iteration >= 2) {
        // the norm the previous iteration's sink published, to the bit
        assert_eq!(p.convergence, norms[p.iteration - 2], "at iteration {}", p.iteration);
    }
}

fn norms<R: polar_scalar::Real>(info: &polar_qdwh::QdwhInfo<R>) -> Vec<f64> {
    info.records.iter().map(|r| r.convergence.to_f64()).collect()
}

fn qdwh_case<S: Scalar>(sp: MatrixSpec) {
    let (az, _) = generate::<Complex64>(&sp);
    let a = Matrix::<S>::from_fn(sp.m, sp.n, |i, j| {
        S::from_parts(
            <S::Real as polar_scalar::Real>::from_f64(az[(i, j)].re),
            <S::Real as polar_scalar::Real>::from_f64(az[(i, j)].im),
        )
    });
    let plain = qdwh(&a, &tiled()).expect("un-hooked solve");
    let (hook, seen) = recording_hook(usize::MAX);
    let hooked = qdwh(&a, &QdwhOptions { progress: Some(hook), ..tiled() }).expect("hooked solve");
    assert_eq!(plain.info.kinds, hooked.info.kinds);
    assert_same_bits("qdwh U", &plain.u, &hooked.u);
    assert_same_bits("qdwh H", &plain.h, &hooked.h);
    assert_watched_the_solve(&seen.lock().unwrap(), &norms(&hooked.info));

    // on a one-worker pool the drain is sequential (as under
    // POLAR_DETERMINISTIC=1): the frontier is exact, so the last release
    // is polled as the last iteration
    let (hook, seen) = recording_hook(usize::MAX);
    let opts = QdwhOptions { progress: Some(hook), ..tiled() };
    let one = rayon::ThreadPool::new(1).install(|| qdwh(&a, &opts)).expect("one worker");
    assert_same_bits("qdwh U, one worker", &plain.u, &one.u);
    let seen = seen.lock().unwrap();
    assert_watched_the_solve(&seen, &norms(&one.info));
    assert_eq!(seen.last().unwrap().iteration, one.info.iterations);
}

#[test]
fn a_hooked_solve_is_bitwise_the_unhooked_solve() {
    let _serial = polar_obs::scope_lock();
    // kappa = 1e16: QR iterations, then Cholesky ones
    qdwh_case::<f64>(spec(70, 52, 1e16, 41));
    qdwh_case::<Complex64>(spec(64, 64, 1e16, 42));

    for (r, sp) in [(2usize, spec(70, 52, 1e8, 43)), (4, spec(64, 64, 1e16, 44))] {
        let (a, _) = generate::<f64>(&sp);
        let plain = zolo_pd(&a, &tiled_zolo(r)).expect("un-hooked zolo");
        let (hook, seen) = recording_hook(usize::MAX);
        let hooked =
            zolo_pd(&a, &ZoloOptions { progress: Some(hook), ..tiled_zolo(r) }).expect("hooked");
        assert_eq!(plain.qr_factorizations, hooked.qr_factorizations);
        assert_same_bits("zolo U", &plain.pd.u, &hooked.pd.u);
        assert_same_bits("zolo H", &plain.pd.h, &hooked.pd.h);
        assert_watched_the_solve(&seen.lock().unwrap(), &norms(&hooked.pd.info));
    }
    let (az, _) = generate::<Complex64>(&spec(64, 64, 1e10, 45));
    let plain = zolo_pd(&az, &tiled_zolo(3)).expect("un-hooked zolo");
    let (hook, _) = recording_hook(usize::MAX);
    let hooked = zolo_pd(&az, &ZoloOptions { progress: Some(hook), ..tiled_zolo(3) }).unwrap();
    assert_same_bits("zolo U", &plain.pd.u, &hooked.pd.u);
}

/// Phases (0-based) of the tile tasks a scope recorded.
fn task_phases(report: &polar_obs::Report) -> Vec<usize> {
    report.spans.iter().filter(|s| s.name.starts_with("task_")).map(|s| s.dims[2]).collect()
}

#[test]
fn a_hook_cancelling_at_iteration_2_stops_the_graph_there() {
    let _serial = polar_obs::scope_lock();
    let (a, _) = generate::<f64>(&spec(96, 96, 1e16, 46));

    let scope = polar_obs::scope();
    let full = qdwh(&a, &tiled()).expect("full solve");
    let full_tasks = task_phases(&scope.finish());
    assert!(full.info.iterations >= 5, "kappa = 1e16 plans 5-6 iterations");
    assert_eq!(full_tasks.iter().max(), Some(&(full.info.iterations - 1)));

    // a two-worker pool: the parallel drain (where the frontier may in
    // principle step over a phase whose sink finished out of order)
    let (hook, seen) = recording_hook(2);
    let opts = QdwhOptions { progress: Some(hook), ..tiled() };
    let scope = polar_obs::scope();
    let res = rayon::ThreadPool::new(2).install(|| qdwh(&a, &opts));
    let tasks = task_phases(&scope.finish());
    assert!(matches!(res, Err(QdwhError::Cancelled { iteration }) if iteration >= 2), "{res:?}");
    assert!(tasks.len() < full_tasks.len(), "{} of {} tasks ran", tasks.len(), full_tasks.len());
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    assert!(seen.windows(2).all(|w| w[0].iteration <= w[1].iteration));
    assert_eq!(seen.iter().filter(|p| p.iteration >= 2).count(), 1, "never polled after Cancel");
    assert!(seen.last().unwrap().convergence > 0.0, "iteration 1's norm came with the cancel");

    // a one-worker pool drains in heap order (the POLAR_DETERMINISTIC
    // drain): phases beyond the lookahead window of the frontier never
    // start, so with the frontier on phase 0 until the cancel nothing of
    // iteration 4 or later has run
    let (hook, _) = recording_hook(2);
    let opts = QdwhOptions { progress: Some(hook), ..tiled() };
    let scope = polar_obs::scope();
    let res = rayon::ThreadPool::new(1).install(|| qdwh(&a, &opts));
    let tasks = task_phases(&scope.finish());
    assert_eq!(res.err(), Some(QdwhError::Cancelled { iteration: 2 }));
    assert!(!tasks.is_empty() && tasks.iter().all(|&phase| phase <= 2), "{tasks:?}");

    // cancelled before the first release: nothing is built
    let (hook, seen) = recording_hook(1);
    let opts = QdwhOptions { progress: Some(hook), ..tiled() };
    let scope = polar_obs::scope();
    assert_eq!(qdwh(&a, &opts).err(), Some(QdwhError::Cancelled { iteration: 1 }));
    let report = scope.finish();
    assert!(task_phases(&report).is_empty());
    assert!(report.spans.iter().all(|s| s.name != "solve_graph"), "no graph, no allocation");
    assert_eq!(seen.lock().unwrap().len(), 1);
}

#[test]
fn a_hooked_solve_runs_the_fused_graph() {
    let _serial = polar_obs::scope_lock();
    let (a, _) = generate::<f64>(&spec(83, 47, 1e12, 47));
    let (hook, _) = recording_hook(usize::MAX);
    let scope = polar_obs::scope();
    qdwh(&a, &QdwhOptions { progress: Some(hook), ..tiled() }).expect("hooked solve");
    let spans = scope.finish().spans;
    assert!(spans.iter().any(|s| s.name == "solve_graph" && s.dims[..2] == [83, 47]));

    let (hook, _) = recording_hook(usize::MAX);
    let scope = polar_obs::scope();
    zolo_pd(&a, &ZoloOptions { progress: Some(hook), ..tiled_zolo(4) }).expect("hooked zolo");
    let spans = scope.finish().spans;
    assert!(spans.iter().any(|s| s.name == "solve_graph" && s.dims[..2] == [83, 47]));
}
