//! One level of parallelism, seen from the solvers: a tile-task body is a
//! serial region (its kernels pack once and fork nothing), and — since who
//! runs a leaf must never change how an entry is summed — the whole-solve
//! graphs return the same bits from a one-worker pool (sequential drain,
//! nothing forks anywhere) and a two-worker pool (parallel drain inside
//! the graph, forking kernels around it).

use polar_blas::gemm;
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::{Matrix, Op};
use polar_qdwh::{qdwh, zolo_pd, QdwhOptions, ZoloOptions};
use polar_runtime::{ExecOutcome, KernelKind, TaskDag, TileRef};
use polar_scalar::{Complex32, Complex64, Real, Scalar};

#[test]
fn gemm_inside_a_task_body_is_one_leaf() {
    if rayon::deterministic_mode().is_some() {
        return; // the replay drain's bodies are the documented exception
    }
    // below two MC blocks: the forking path would be the recursive split,
    // one `gemm_leaf` span per leaf. The odd inner dimension (splits never
    // cut it) tells this call's leaves from those of the solves the other
    // tests of this binary run meanwhile.
    let (m, n, k) = (200, 300, 101);
    let a = Matrix::<f64>::from_fn(m, k, |i, j| ((i + 3 * j) % 7) as f64 - 3.0);
    let b = Matrix::<f64>::from_fn(k, n, |i, j| ((2 * i + j) % 5) as f64 - 2.0);
    let mut c = Matrix::<f64>::zeros(m, n);

    let _serial = polar_obs::scope_lock();
    let pool = rayon::ThreadPool::new(2);
    let scope = polar_obs::scope();
    pool.install(|| {
        let mut dag = TaskDag::new();
        let mid = dag.new_matrix();
        let tile = |j| TileRef::new(mid, 0, j, 64);
        dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(0)], || {
            gemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        });
        // a second task, so the graph fans out over both lanes
        dag.add(KernelKind::Geadd, 0, 1.0, vec![], vec![tile(1)], || {});
        assert_eq!(dag.execute(), ExecOutcome::Completed);
    });
    let spans = scope.finish().spans;
    let leaves: Vec<_> = spans.iter().filter(|s| s.name == "gemm_leaf" && s.dims[2] == k).collect();
    assert_eq!(leaves.len(), 1, "one gemm call in a body packs once: {leaves:?}");
    assert_eq!(leaves[0].dims, [m, n, k]);
}

fn cast<S: Scalar>(a: &Matrix<Complex64>) -> Matrix<S> {
    Matrix::from_fn(a.nrows(), a.ncols(), |i, j| {
        S::from_parts(S::Real::from_f64(a[(i, j)].re), S::Real::from_f64(a[(i, j)].im))
    })
}

fn assert_same_bits<S: Scalar>(what: &str, one: &Matrix<S>, two: &Matrix<S>) {
    for j in 0..one.ncols() {
        for i in 0..one.nrows() {
            let (x, y) = (one[(i, j)], two[(i, j)]);
            assert!(
                x.re().to_f64().to_bits() == y.re().to_f64().to_bits()
                    && x.im().to_f64().to_bits() == y.im().to_f64().to_bits(),
                "{what} {}: U({i},{j}) differs between 1 and 2 workers: {x:?} vs {y:?}",
                S::TYPE_TAG
            );
        }
    }
}

/// `solve` on a one-worker and on a two-worker pool.
fn on_one_and_two_workers<T: Send>(solve: impl Fn() -> T + Sync) -> (T, T) {
    let one = rayon::ThreadPool::new(1).install(&solve);
    let two = rayon::ThreadPool::new(2).install(&solve);
    (one, two)
}

fn qdwh_fused_case<S: Scalar>(spec: MatrixSpec) {
    let (az, _) = generate::<Complex64>(&spec);
    let a = cast::<S>(&az);
    let opts = QdwhOptions { tile_nb: Some(32), ..Default::default() };
    let (one, two) = on_one_and_two_workers(|| qdwh(&a, &opts).expect("qdwh converges"));
    assert_eq!(one.info.kinds, two.info.kinds);
    assert_same_bits("qdwh fused", &one.u, &two.u);
}

#[test]
fn qdwh_fused_dag_is_bitwise_identical_on_one_and_two_workers() {
    // kappa = 1e16 runs QR and Cholesky iterations in double precision;
    // single precision gets the same mix from kappa = 1e5
    let spec = |m, cond, seed| MatrixSpec {
        m,
        n: 96,
        cond,
        distribution: SigmaDistribution::Geometric,
        seed,
    };
    qdwh_fused_case::<f64>(spec(96, 1e16, 21));
    qdwh_fused_case::<f64>(spec(150, 1e16, 22)); // X's last tile row is padded in W
    qdwh_fused_case::<Complex64>(spec(96, 1e16, 23));
    qdwh_fused_case::<f32>(spec(96, 1e5, 24));
    qdwh_fused_case::<Complex32>(spec(96, 1e5, 25));
}

#[test]
fn zolo_fused_dag_is_bitwise_identical_on_one_and_two_workers() {
    let (a, _) = generate::<f64>(&MatrixSpec {
        m: 96,
        n: 96,
        cond: 1e8,
        distribution: SigmaDistribution::Geometric,
        seed: 31,
    });
    let zopts = ZoloOptions { tile_nb: Some(32), ..Default::default() };
    let (one, two) = on_one_and_two_workers(|| zolo_pd(&a, &zopts).expect("zolo converges"));
    assert_eq!(one.qr_factorizations, two.qr_factorizations);
    assert_same_bits("zolo fused", &one.pd.u, &two.pd.u);
}
