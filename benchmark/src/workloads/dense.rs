//! Direct solver calls: one matrix, solved over and over.

use crate::check;
use crate::rng::Rng;
use crate::spans::Recorder;
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_qdwh::{
    qdwh, zolo_pd, PolarDecomposition, QdwhError, QdwhInfo, QdwhOptions, ZoloOptions,
};
use polar_scalar::Scalar;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    Qdwh,
    Zolo,
}

impl Solver {
    pub fn span_name(self) -> &'static str {
        match self {
            Solver::Qdwh => "core.qdwh",
            Solver::Zolo => "core.zolo_pd",
        }
    }
}

#[derive(Debug, Clone)]
pub struct DenseSpec {
    pub solver: Solver,
    /// `Complex64` instead of `f64`.
    pub complex: bool,
    pub m: usize,
    pub n: usize,
    pub cond: f64,
    /// Accuracy tolerance of a correct output.
    pub tol: f64,
    /// Frozen time limit of one solve, for `slo_ok_share`.
    pub slo_ms: f64,
}

/// The input of a dense workload and what making it ready cost.
pub struct DenseInput<S: Scalar> {
    pub a: Matrix<S>,
    pub gen_s: f64,
    /// Wall of the warm-up solve: on the first set-up of a process this
    /// is the cold call (pool start, first-touch, slab caches).
    pub warmup_s: f64,
}

/// Everything one stint of solves produced.
#[derive(Debug, Default)]
pub struct DenseOutcome {
    /// Wall of each timed solve, seconds.
    pub solve_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub within_slo: usize,
    /// Iteration counts `(total, qr, cholesky)` of each solve.
    pub iterations: Vec<(usize, usize, usize)>,
    /// Paper flop formula for one solve (from `QdwhInfo`).
    pub flops_per_solve: f64,
    pub orth_max: f64,
    pub backward_max: f64,
}

impl DenseOutcome {
    /// Pool another segment's outcome into this one.
    pub fn absorb(&mut self, other: DenseOutcome) {
        self.solve_s.extend(other.solve_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_slo += other.within_slo;
        self.iterations.extend(other.iterations);
        self.flops_per_solve = other.flops_per_solve;
        self.orth_max = self.orth_max.max(other.orth_max);
        self.backward_max = self.backward_max.max(other.backward_max);
    }
}

pub fn solve<S: Scalar>(solver: Solver, a: &Matrix<S>) -> Result<PolarDecomposition<S>, QdwhError> {
    match solver {
        Solver::Qdwh => qdwh(a, &QdwhOptions::default()),
        Solver::Zolo => zolo_pd(a, &ZoloOptions::default()).map(|z| z.pd),
    }
}

/// Set-up: generate the matrix from the seed, then one warm-up solve.
pub fn setup<S: Scalar>(spec: &DenseSpec, seed: u64, rec: &Recorder) -> DenseInput<S> {
    let matrix_seed = Rng::stream(seed, "dense.matrix").next_u64();
    let t = Instant::now();
    let (a, _) = rec.within("gen.generate", None, 0, || {
        generate::<S>(&MatrixSpec {
            m: spec.m,
            n: spec.n,
            cond: spec.cond,
            distribution: SigmaDistribution::Geometric,
            seed: matrix_seed,
        })
    });
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = solve(spec.solver, &a);
    let warmup_s = t.elapsed().as_secs_f64();
    assert!(warm.is_ok(), "warm-up solve failed: {:?}", warm.err());
    DenseInput { a, gen_s, warmup_s }
}

fn iteration_counts<R>(info: &QdwhInfo<R>) -> (usize, usize, usize) {
    (info.iterations, info.qr_iterations, info.chol_iterations)
}

/// Solve `a` repeatedly until the timed solves add up to `budget_s`
/// (at least `min_solves`). Each output is checked right after its solve,
/// with the clock stopped.
pub fn stint<S: Scalar>(
    spec: &DenseSpec,
    a: &Matrix<S>,
    budget_s: f64,
    min_solves: usize,
    seed: u64,
    rec: &Recorder,
    op_base: u64,
) -> DenseOutcome {
    let mut out = DenseOutcome::default();
    let mut spot = Rng::stream(seed, "dense.spot");
    let mut spent = 0.0;
    while spent < budget_s || out.solve_s.len() < min_solves {
        let op = op_base + out.attempted as u64;
        let root = rec.open("op.solve", None, op);
        let call = rec.open(spec.solver.span_name(), root, op);
        let t = Instant::now();
        let result = std::hint::black_box(solve(spec.solver, std::hint::black_box(a)));
        let dt = t.elapsed().as_secs_f64();
        rec.close(call);
        spent += dt;
        out.solve_s.push(dt);
        out.attempted += 1;

        let correct = rec.within("check.accuracy", root, op, || match &result {
            Ok(pd) => {
                out.iterations.push(iteration_counts(&pd.info));
                out.flops_per_solve = pd.info.flops_estimate;
                let (acc, ok) = check::accuracy(a, pd, spec.tol, &mut spot);
                out.orth_max = out.orth_max.max(acc.orth);
                out.backward_max = out.backward_max.max(acc.backward);
                if !ok {
                    eprintln!("solve {op} is outside the tolerance {:e}: {acc:?}", spec.tol);
                }
                ok
            }
            Err(e) => {
                eprintln!("solve {op} failed: {e}");
                false
            }
        });
        rec.close(root);
        if !correct {
            out.failed += 1;
        } else if dt * 1e3 <= spec.slo_ms {
            out.within_slo += 1;
        }
    }
    out
}
