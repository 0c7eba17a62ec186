//! Paper-parity accuracy at the ill-conditioned end of the sweep, plus
//! bitwise independence of a solve from the pool width it runs on.
//!
//! These are the Fig. 1 claims the CI gate protects: backward error,
//! orthogonality, and the Hermitian/PSD quality of H all stay at machine
//! precision even at cond 1e13 on tall rectangular inputs.

use polar::prelude::*;
use polar::qdwh::{hermitian_deviation, orthogonality_error, psd_deviation, IterationKind};
use polar_verify::{run_case, CaseSpec, SolverPath};

const RECT_N: usize = 48;
const RECT_M: usize = 3 * RECT_N;

fn rect_spec(cond: f64, seed: u64) -> MatrixSpec {
    MatrixSpec { m: RECT_M, n: RECT_N, cond, distribution: SigmaDistribution::Geometric, seed }
}

#[test]
fn ill_conditioned_rectangular_metrics_f64() {
    for (cond, seed) in [(1e10, 71u64), (1e13, 72)] {
        let (a, _) = generate::<f64>(&rect_spec(cond, seed));
        let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
        // the three paper metrics are cond-independent (backward stability)
        assert!(pd.backward_error(&a) < 1e-13, "backward error at cond {cond:e}");
        assert!(orthogonality_error(&pd.u) < 1e-13, "orthogonality at cond {cond:e}");
        assert!(hermitian_deviation(&pd.h) < 1e-13, "H symmetry at cond {cond:e}");
        assert!(psd_deviation(&pd.h).unwrap() < 1e-13, "H PSD deviation at cond {cond:e}");
    }
}

#[test]
fn ill_conditioned_rectangular_metrics_c64() {
    let (a, _) = generate::<Complex64>(&rect_spec(1e13, 73));
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    assert!(pd.backward_error(&a) < 1e-13);
    assert!(orthogonality_error(&pd.u) < 1e-13);
    assert!(hermitian_deviation(&pd.h) < 1e-13);
    assert!(psd_deviation(&pd.h).unwrap() < 1e-13);
}

#[test]
fn gate_metrics_match_direct_solve_at_cond_1e13() {
    // the verify harness must measure the same decomposition the public
    // API produces — no drift between the gate and the library
    let spec = CaseSpec {
        type_tag: "d",
        solver: SolverPath::Qdwh,
        m: RECT_M,
        n: RECT_N,
        cond: 1e13,
        seed: 74,
    };
    let result = run_case(&spec).unwrap();
    let (a, _) = generate::<f64>(&spec.matrix_spec());
    let pd = qdwh(&a, &QdwhOptions::default()).unwrap();
    assert_eq!(result.metrics.backward, pd.backward_error(&a));
    assert_eq!(result.metrics.orthogonality, orthogonality_error(&pd.u));
    assert_eq!(result.iterations, pd.info.iterations);
}

/// Everything of a solve that must not depend on the pool: the bits of `U`
/// and `H`, the iteration kinds and the bits of the convergence norms.
type SolveBits = (Vec<u64>, Vec<u64>, Vec<IterationKind>, Vec<u64>);

fn solve_bits<S: Scalar>(pd: &PolarDecomposition<S>) -> SolveBits {
    let norms = pd.info.records.iter().map(|r| r.convergence.to_f64().to_bits()).collect();
    (matrix_bits(&pd.u), matrix_bits(&pd.h), pd.info.kinds.clone(), norms)
}

fn matrix_bits<S: Scalar>(a: &Matrix<S>) -> Vec<u64> {
    a.as_slice()
        .iter()
        .flat_map(|x| [x.re().to_f64().to_bits(), x.im().to_f64().to_bits()])
        .collect()
}

/// `solve` on pools of 1, 2, 3, 4 and 8 workers, all at once: every run's
/// `bits` are those of the one-worker run, which is returned.
fn same_on_every_width<T: Send, B: PartialEq>(
    what: &str,
    solve: impl Fn() -> T + Sync,
    bits: impl Fn(&T) -> B,
) -> T {
    let on = |workers| rayon::ThreadPool::new(workers).install(&solve);
    let (one, wide) = std::thread::scope(|s| {
        let wide = [2, 3, 4, 8].map(|workers| (workers, s.spawn(move || on(workers))));
        (on(1), wide.map(|(workers, run)| (workers, run.join().expect("solve panicked"))))
    });
    let expected = bits(&one);
    for (workers, run) in wide {
        assert!(
            bits(&run) == expected,
            "{what}: the bits at {workers} workers are not one worker's"
        );
    }
    one
}

fn width_independent<S: Scalar>(cond: f64, seed: u64, terms: usize) -> PolarDecomposition<S> {
    // 200 columns: a tile size read off the pool width would be 192 at one
    // worker and 128 at two
    let spec =
        MatrixSpec { m: 240, n: 200, cond, distribution: SigmaDistribution::Geometric, seed };
    let (a, _) = generate::<S>(&spec);
    let opts = QdwhOptions { terms, ..Default::default() };
    let what = format!("{} terms={terms}", S::TYPE_TAG);
    same_on_every_width(&what, || qdwh(&a, &opts).expect("qdwh converges"), solve_bits)
}

#[test]
fn solve_bits_do_not_depend_on_the_pool_width() {
    let qr = width_independent::<f64>(1e10, 75, 1);
    assert!(qr.info.qr_iterations >= 1, "the input runs a QR iteration: {:?}", qr.info.kinds);
    // kappa = 2 keeps the complex types, which are the slowest in a debug
    // build, at three Cholesky-based iterations
    width_independent::<Complex64>(2.0, 76, 1);
    width_independent::<f32>(2.0, 77, 1);
    width_independent::<Complex32>(2.0, 78, 1);
    let zolo = width_independent::<f64>(2.0, 79, 8);
    // H is Hermitian, with its spectrum in [0.5, 1]: its eigendecomposition
    // splits 200 columns first
    let eig = || qdwh_eig(&zolo.h, &QdwhOptions::default()).expect("qdwh_eig converges");
    same_on_every_width("d qdwh_eig", eig, |e| {
        let values: Vec<u64> = e.values.iter().map(|v| v.to_bits()).collect();
        (values, matrix_bits(&e.vectors), e.polar_count)
    });
}
