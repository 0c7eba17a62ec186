//! The five workloads. Three call the solvers directly (the paper's use:
//! one large decomposition at a time), two go through `polar-svc` (the
//! serving use: streams of small ones). README.md says why each exists
//! and which layer each one stresses or bypasses.

pub mod dense;
pub mod svc;

pub use dense::{DenseSpec, Solver};
pub use svc::SvcSpec;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] =
    ["dense_ill_1024", "dense_rect_c64", "zolo_ill_768", "svc_batch_64", "svc_mixed_open"];

/// Accuracy every output must meet (orthogonality and backward error,
/// both relative): the paper's 1e-15 class with headroom for n.
const TOL: f64 = 5e-14;

/// Zolo-PD (r = 8, two iterations) keeps `TOL` only with room to spare in
/// its conditioning: its backward error on this code has a tail that
/// grows with κ — up to 6e-10 over 61 matrices at κ = 1e16, 1.2e-11 over
/// 228 at κ = 1e12, 1.0e-14 over 200 at κ = 1e8 (README, "Output checks").
/// The workload runs where no output comes near the tolerance: the same
/// two iterations, 16 stacked QRs and time as at 1e16.
const ZOLO_COND: f64 = 1e8;

pub enum Workload {
    Dense(DenseSpec),
    /// Closed loop: waves of `Batched` jobs, next wave after the last.
    Waves(SvcSpec),
    /// Open loop: Poisson arrivals of small jobs and a few large ones.
    Open(SvcSpec),
}

pub fn svc_spec(smoke: bool, threads: usize) -> SvcSpec {
    SvcSpec {
        small_n: if smoke { 16 } else { 64 },
        small_cond: 100.0,
        pool: if smoke { 32 } else { 256 },
        wave: if smoke { 8 } else { 32 },
        warmup_waves: if smoke { 4 } else { 20 },
        workers: threads,
        big_n: if smoke { 96 } else { 512 },
        big_cond: 1e16,
        big_pool: if smoke { 2 } else { 4 },
        rate_per_s: 400.0,
        big_period_s: if smoke { 0.25 } else { 0.8 },
        small_slo_ms: 30.0,
        big_slo_ms: 500.0,
        drain_s: if smoke { 3.0 } else { 10.0 },
        tol: TOL,
    }
}

/// Look a workload up by name; `smoke` shrinks every shape so the whole
/// set runs in seconds with the same output schema.
pub fn by_name(name: &str, smoke: bool, threads: usize) -> Option<Workload> {
    let dense = |solver, complex, m: usize, n: usize, cond, tol, slo_ms| {
        let (m, n) = if smoke { (m / 8, n / 8) } else { (m, n) };
        Workload::Dense(DenseSpec { solver, complex, m, n, cond, tol, slo_ms })
    };
    Some(match name {
        "dense_ill_1024" => dense(Solver::Qdwh, false, 1024, 1024, 1e16, TOL, 2_000.0),
        "dense_rect_c64" => dense(Solver::Qdwh, true, 1536, 512, 10.0, TOL, 2_000.0),
        "zolo_ill_768" => dense(Solver::Zolo, false, 768, 768, ZOLO_COND, TOL, 4_000.0),
        "svc_batch_64" => Workload::Waves(svc_spec(smoke, threads)),
        "svc_mixed_open" => Workload::Open(svc_spec(smoke, threads)),
        _ => return None,
    })
}
