//! Shape churn over the thread-local slab cache: whatever a thread solved
//! before — larger waves, smaller ones, other shapes and scalar types, a
//! wave that failed half-way — a call's results are bit for bit those of
//! the same call on a thread that never solved anything.

use polar_batch::{qdwh_batched, BatchEntry, BatchError, BatchOptions};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{QdwhError, QdwhOptions};
use polar_scalar::{Complex64, Scalar};

#[derive(Clone, Copy)]
struct Call {
    m: usize,
    n: usize,
    batch: usize,
    seed: u64,
    /// `None`: the default cap, every entry converges.
    max_iterations: Option<usize>,
}

type Factors<S> = Vec<(Matrix<S>, Matrix<S>)>;

/// The whole call on the calling thread (one lane, so one slab cache).
fn solve<S: Scalar>(c: Call) -> Result<Factors<S>, BatchError> {
    let mut entries: Vec<BatchEntry<S>> = (0..c.batch)
        .map(|k| {
            // QR-round, hinted Cholesky-window, Cholesky-only and zero
            // entries, so every slab and both families are in play
            let spec = MatrixSpec {
                m: c.m,
                n: c.n,
                cond: [1e4, 50.0, 2.0][k % 3],
                distribution: SigmaDistribution::Geometric,
                seed: c.seed + k as u64,
            };
            let a = generate::<S>(&spec).0;
            match k % 4 {
                1 => BatchEntry::with_cond_hint(a, spec.cond),
                3 if k % 3 == 0 => BatchEntry::new(Matrix::zeros(c.m, c.n)),
                _ => BatchEntry::new(a),
            }
        })
        .collect();
    let mut opts = BatchOptions::default();
    if let Some(cap) = c.max_iterations {
        opts.qdwh = QdwhOptions { max_iterations: cap, ..Default::default() };
    }
    rayon::serial_region(|| qdwh_batched(&mut entries, &opts))?;
    Ok(entries.into_iter().map(|e| (e.u, e.h)).collect())
}

fn same_as_on_a_fresh_thread<S: Scalar>(c: Call) -> Result<(), BatchError> {
    let here = solve::<S>(c);
    let fresh = std::thread::spawn(move || solve::<S>(c)).join().expect("fresh thread");
    match (&here, &fresh) {
        (Ok(a), Ok(b)) => {
            for (k, ((ua, ha), (ub, hb))) in a.iter().zip(b).enumerate() {
                assert!(
                    ua.as_slice() == ub.as_slice(),
                    "U of entry {k} differs from a fresh thread's"
                );
                assert!(
                    ha.as_slice() == hb.as_slice(),
                    "H of entry {k} differs from a fresh thread's"
                );
            }
        }
        _ => assert_eq!(here.as_ref().err(), fresh.as_ref().err()),
    }
    here.map(|_| ())
}

#[test]
fn results_do_not_depend_on_what_the_thread_solved_before() {
    let call = |m, n, batch, seed| Call { m, n, batch, seed, max_iterations: None };
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 5, 1)).unwrap();
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 2, 2)).unwrap(); // shrink
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 13, 3)).unwrap(); // grow past the first
    same_as_on_a_fresh_thread::<f32>(call(24, 24, 3, 4)).unwrap(); // another type's slabs
    same_as_on_a_fresh_thread::<f64>(call(16, 16, 4, 5)).unwrap(); // smaller entries
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 6, 6)).unwrap(); // back again

    // the kappa = 1e4 entries need a fifth round: the wave fails with the
    // slabs full of a half-finished solve
    let failing = Call { max_iterations: Some(4), ..call(40, 32, 6, 7) };
    assert_eq!(
        same_as_on_a_fresh_thread::<f64>(failing),
        Err(BatchError::Entry { index: 0, source: QdwhError::NoConvergence { iterations: 4 } })
    );
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 4, 8)).unwrap(); // after the failure
    same_as_on_a_fresh_thread::<Complex64>(call(20, 12, 2, 9)).unwrap();
    same_as_on_a_fresh_thread::<f64>(call(48, 32, 1, 10)).unwrap(); // same n, other m
    same_as_on_a_fresh_thread::<f64>(call(40, 32, 13, 11)).unwrap();
}
