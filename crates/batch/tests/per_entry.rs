//! A wave answers per entry: an entry that fails or is cancelled ends
//! alone, with its own error under its own index, and every other entry's
//! bits are what they are in a wave the bad ones never rode in — on one
//! lane and on two, wherever the lane cut falls.

use polar_batch::{
    cond_class, qdwh_batched, qdwh_batched_each, BatchEntry, BatchError, BatchOptions,
    CondestCache, CondestKey, EntryResult,
};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_lapack::LapackError;
use polar_qdwh::{
    IterationDecision, IterationPath, IterationProgress, ProgressHook, QdwhError, QdwhInfo,
    QdwhOptions,
};
use polar_scalar::Scalar;
use std::sync::{Arc, Mutex};

const WAVE: usize = 8;
const N: usize = 32;

/// Entry `k` of every wave here, at condition number `cond`.
fn entry(k: usize, cond: f64) -> BatchEntry<f64> {
    let distribution = SigmaDistribution::Geometric;
    let spec = MatrixSpec { m: N, n: N, cond, distribution, seed: 40 + k as u64 };
    BatchEntry::new(generate::<f64>(&spec).0)
}

/// Solve `wave` on a pool of `width` lanes (8 entries of 32 x 32 fork on
/// two: chunks 0..4 and 4..8).
fn solve_on(
    width: usize,
    wave: &mut [BatchEntry<f64>],
    opts: &BatchOptions,
) -> Vec<EntryResult<f64>> {
    let pool = rayon::ThreadPool::new(width);
    pool.install(|| qdwh_batched_each(wave, opts)).expect("one tall shape")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Factors, iteration kinds and convergence norms, bit for bit.
fn assert_same_solve(
    (ea, ia): (&BatchEntry<f64>, &QdwhInfo<f64>),
    (eb, ib): (&BatchEntry<f64>, &QdwhInfo<f64>),
    what: &str,
) {
    assert_eq!(bits(ea.u.as_slice()), bits(eb.u.as_slice()), "{what}: U");
    assert_eq!(bits(ea.h.as_slice()), bits(eb.h.as_slice()), "{what}: H");
    assert_eq!(ia.kinds, ib.kinds, "{what}: kinds");
    let norms =
        |i: &QdwhInfo<f64>| bits(&i.records.iter().map(|r| r.convergence).collect::<Vec<_>>());
    assert_eq!(norms(ia), norms(ib), "{what}: convergence norms");
}

/// Waves of 8 whose entries in `failing` come from `bad` and the rest at
/// kappa = 2: exactly the bad ones fail, each with `expected`, and the rest
/// are solved as if they had been submitted without them.
fn bad_entries_fail_alone(
    opts: &BatchOptions,
    bad: impl Fn(usize) -> BatchEntry<f64>,
    expected: impl Fn(&QdwhError) -> bool,
) {
    let all_of_a_chunk = vec![0, 1, 2, 3];
    for failing in
        [vec![1, 6], vec![6], vec![0, 7], vec![3, 4], vec![2, 3, 4, 5, 6], all_of_a_chunk]
    {
        let good: Vec<usize> = (0..WAVE).filter(|k| !failing.contains(k)).collect();
        let mut alone: Vec<BatchEntry<f64>> = good.iter().map(|&k| entry(k, 2.0)).collect();
        let alone_infos: Vec<QdwhInfo<f64>> =
            solve_on(1, &mut alone, opts).into_iter().map(|r| r.expect("kappa = 2")).collect();

        for width in [1, 2] {
            let what = format!("{failing:?} on {width} lane(s)");
            let mut wave: Vec<BatchEntry<f64>> = (0..WAVE)
                .map(|k| if failing.contains(&k) { bad(k) } else { entry(k, 2.0) })
                .collect();
            let outcomes = solve_on(width, &mut wave, opts);
            assert_eq!(outcomes.len(), WAVE);
            for &k in &failing {
                let err = outcomes[k].as_ref().expect_err(&what);
                assert!(expected(err), "{what}: entry {k} failed with {err:?}");
                assert_eq!((wave[k].u.nrows(), wave[k].h.nrows()), (0, 0), "{what}: no factors");
            }
            for (i, &k) in good.iter().enumerate() {
                let info =
                    outcomes[k].as_ref().unwrap_or_else(|e| panic!("{what}: entry {k}: {e}"));
                assert_same_solve((&wave[k], info), (&alone[i], &alone_infos[i]), &what);
            }

            // the all-or-nothing fold names the first of them
            let mut again: Vec<BatchEntry<f64>> =
                wave.iter().map(|e| BatchEntry::new(e.a.clone())).collect();
            let pool = rayon::ThreadPool::new(width);
            match pool.install(|| qdwh_batched(&mut again, opts)) {
                Err(BatchError::Entry { index, source }) => {
                    assert_eq!(index, failing[0], "{what}");
                    assert_eq!(Some(&source), outcomes[index].as_ref().err(), "{what}");
                }
                other => panic!("{what}: expected the first failure, got {other:?}"),
            }
        }
    }
}

#[test]
fn non_finite_input_fails_alone() {
    let poisoned = |k: usize| {
        let mut e = entry(k, 2.0);
        e.a[(k % N, 3)] = f64::INFINITY;
        e
    };
    let at_input = |e: &QdwhError| *e == QdwhError::NonFinite { iteration: 0 };
    bad_entries_fail_alone(&BatchOptions::default(), poisoned, at_input);
}

#[test]
fn indefinite_gram_matrix_fails_alone() {
    // Z = I + c X^H X with c ~ 1/l0^2 ~ 1e32: the rounding errors of the
    // Gram matrix, times c, swamp the identity
    let opts = BatchOptions {
        qdwh: QdwhOptions { path: IterationPath::ForceCholesky, ..Default::default() },
        ..Default::default()
    };
    let indefinite =
        |e: &QdwhError| matches!(e, QdwhError::Lapack(LapackError::NotPositiveDefinite(_)));
    bad_entries_fail_alone(&opts, |k| entry(k, 1e16), indefinite);
}

#[test]
fn iteration_cap_fails_alone() {
    // kappa = 2 converges in 4 rounds, kappa = 1e10 needs 5
    let opts = BatchOptions {
        qdwh: QdwhOptions { max_iterations: 4, ..Default::default() },
        ..Default::default()
    };
    let capped = |e: &QdwhError| *e == QdwhError::NoConvergence { iterations: 4 };
    bad_entries_fail_alone(&opts, |k| entry(k, 1e10), capped);
}

/// A hook that records every snapshot and cancels at round `at`.
fn cancelling_at(at: usize) -> (ProgressHook, Arc<Mutex<Vec<IterationProgress>>>) {
    let seen: Arc<Mutex<Vec<IterationProgress>>> = Arc::default();
    let log = seen.clone();
    let hook: ProgressHook = Arc::new(move |p: &IterationProgress| {
        log.lock().unwrap().push(*p);
        if p.iteration == at {
            IterationDecision::Cancel
        } else {
            IterationDecision::Continue
        }
    });
    (hook, seen)
}

#[test]
fn a_hook_cancels_its_own_entry_between_rounds() {
    let opts = BatchOptions::default();
    let full = || -> Vec<BatchEntry<f64>> { (0..WAVE).map(|k| entry(k, 1e6)).collect() };
    let mut reference = full();
    let ref_infos: Vec<QdwhInfo<f64>> =
        solve_on(1, &mut reference, &opts).into_iter().map(|r| r.expect("converges")).collect();

    for width in [1, 2] {
        for cancelled in [0, 3, 4, 7] {
            let what = format!("entry {cancelled} on {width} lane(s)");
            let mut wave = full();
            let (hook, seen) = cancelling_at(2);
            wave[cancelled].progress = Some(hook);
            // a hook that never cancels changes nothing
            let (bystander, watched) = cancelling_at(usize::MAX);
            wave[(cancelled + 1) % WAVE].progress = Some(bystander);

            let outcomes = solve_on(width, &mut wave, &opts);
            for k in 0..WAVE {
                if k == cancelled {
                    let cancelled_at = QdwhError::Cancelled { iteration: 2 };
                    assert_eq!(outcomes[k].as_ref().err(), Some(&cancelled_at), "{what}");
                    assert_eq!(wave[k].u.nrows(), 0, "{what}: no factors");
                } else {
                    let info = outcomes[k].as_ref().unwrap_or_else(|e| panic!("{what}: {k}: {e}"));
                    assert_same_solve((&wave[k], info), (&reference[k], &ref_infos[k]), &what);
                }
            }

            // polled before round 1 and before round 2, each time with the
            // previous round's norm and the bound entering the round
            let first = &ref_infos[cancelled].records[0];
            let entering = |iteration, convergence: f64, ell: f64| IterationProgress {
                iteration,
                convergence,
                ell,
            };
            assert_eq!(
                *seen.lock().unwrap(),
                vec![
                    entering(1, 100.0, ref_infos[cancelled].l0),
                    entering(2, first.convergence, first.ell)
                ],
                "{what}"
            );
            // the bystander was polled once per round it was active in
            let rounds: Vec<usize> = watched.lock().unwrap().iter().map(|p| p.iteration).collect();
            let expected: Vec<usize> = (1..=ref_infos[(cancelled + 1) % WAVE].iterations).collect();
            assert_eq!(rounds, expected, "{what}");
        }
    }
}

#[test]
fn only_a_solved_entry_vouches_for_its_l0() {
    // one condition class per fate, so that the cache shows who folded
    let key = |cond: f64| CondestKey {
        n: N,
        type_tag: <f64 as Scalar>::TYPE_TAG,
        class: cond_class(Some(cond)),
    };
    let hinted = |k: usize, cond: f64| BatchEntry { cond_hint: Some(cond), ..entry(k, cond) };
    for width in [1, 2] {
        let cache = Arc::new(CondestCache::new());
        let opts = BatchOptions {
            qdwh: QdwhOptions { max_iterations: 4, ..Default::default() },
            condest_cache: Some(cache.clone()),
            ..Default::default()
        };
        let mut wave: Vec<BatchEntry<f64>> = (0..WAVE).map(|k| hinted(k, 2.0)).collect();
        wave[1] = hinted(1, 1e10); // estimates its l_0, then hits the cap
        wave[5] = hinted(5, 1e3); // estimates its l_0, then is cancelled
        wave[5].progress = Some(cancelling_at(2).0);
        wave[6] = hinted(6, 1e7); // never gets as far as an estimate
        wave[6].a[(0, 0)] = f64::NAN;

        let outcomes = solve_on(width, &mut wave, &opts);
        let failed: Vec<usize> = (0..WAVE).filter(|&k| outcomes[k].is_err()).collect();
        assert_eq!(failed, vec![1, 5, 6], "{outcomes:?}");
        assert!(cache.lookup(key(2.0)).is_some(), "the five solved entries folded theirs");
        assert_eq!(cache.len(), 1, "and nobody else");
        for cond in [1e10, 1e3, 1e7] {
            assert_eq!(cache.lookup(key(cond)), None, "class of kappa = {cond:e}");
        }
    }
}

/// A rank-deficient f32 entry — a zero column puts its bound on the f32
/// floor `eps^2`, where single-precision Halley weights overflow — plays
/// the f64 plan every solve plays, and converges.
#[test]
fn a_rank_deficient_f32_entry_converges() {
    let (mut a, _) = generate::<f64>(&MatrixSpec::well_conditioned(N, 3));
    for i in 0..N {
        a[(i, 5)] = 0.0;
    }
    let single = polar_matrix::Matrix::<f32>::from_fn(N, N, |i, j| a[(i, j)] as f32);
    let mut wave = vec![BatchEntry::new(single.clone())];
    let results = qdwh_batched_each(&mut wave, &BatchOptions::default()).expect("one shape");
    assert!(results[0].is_ok(), "{:?}", results[0]);
    // ||A - U H||_F / ||A||_F at the f32 level
    let (mut err, mut scale) = (0.0f64, 0.0f64);
    for j in 0..N {
        for i in 0..N {
            let uh: f64 = (0..N).map(|k| wave[0].u[(i, k)] as f64 * wave[0].h[(k, j)] as f64).sum();
            err += (single[(i, j)] as f64 - uh).powi(2);
            scale += (single[(i, j)] as f64).powi(2);
        }
    }
    assert!((err / scale).sqrt() < 1e-5, "backward error {:e}", (err / scale).sqrt());
}
