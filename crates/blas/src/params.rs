//! Runtime-tunable kernel parameters.
//!
//! Every knob has a sane default and an env-var override so the ablation
//! binaries can sweep blocking parameters without rebuilding:
//!
//! | env var                     | meaning                                    |
//! |-----------------------------|--------------------------------------------|
//! | `POLAR_PAR_THRESHOLD_FLOPS` | min multiply-adds worth forking ([`fork_lanes`]) |
//! | `POLAR_GEMM_MC`             | rows of the packed `A` block (L2 resident) |
//! | `POLAR_GEMM_KC`             | depth of the packed rank-`kc` update       |
//! | `POLAR_GEMM_NC`             | cols of the packed `B` block (L3 resident) |
//! | `POLAR_GEMM_MR`             | microkernel register rows (1..=32)         |
//! | `POLAR_GEMM_NR`             | microkernel register cols (1..=8)          |
//!
//! `MR`/`NR` default per scalar type (and to the shapes the SIMD
//! microkernels implement when the CPU supports them); setting the env
//! vars forces one shape for all types, falling back to the generic
//! microkernel if no SIMD kernel matches. Values are read once, at first
//! kernel call, and logged at debug level (`POLAR_LOG=debug`).

use std::sync::OnceLock;

/// Hard caps on the microkernel tile so fringe temporaries can live on
/// the stack.
pub const MAX_MR: usize = 32;
/// See [`MAX_MR`].
pub const MAX_NR: usize = 8;

/// Cache-blocking and register-blocking configuration for packed GEMM.
#[derive(Debug, Clone, Copy)]
pub struct GemmParams {
    /// Rows of the packed block of `op(A)` (sized for L2).
    pub mc: usize,
    /// Inner (k) depth of one packed rank-`kc` update.
    pub kc: usize,
    /// Columns of the packed block of `op(B)` (sized for L3).
    pub nc: usize,
    /// Forced microkernel rows, if `POLAR_GEMM_MR` is set.
    pub mr_override: Option<usize>,
    /// Forced microkernel cols, if `POLAR_GEMM_NR` is set.
    pub nr_override: Option<usize>,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok().filter(|&v| v > 0)
}

/// The process-wide GEMM blocking parameters (env read once).
pub fn gemm_params() -> &'static GemmParams {
    static PARAMS: OnceLock<GemmParams> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let p = GemmParams {
            mc: env_usize("POLAR_GEMM_MC").unwrap_or(128),
            kc: env_usize("POLAR_GEMM_KC").unwrap_or(256),
            nc: env_usize("POLAR_GEMM_NC").unwrap_or(2048),
            mr_override: env_usize("POLAR_GEMM_MR").map(|v| v.clamp(1, MAX_MR)),
            nr_override: env_usize("POLAR_GEMM_NR").map(|v| v.clamp(1, MAX_NR)),
        };
        polar_obs::log!(
            polar_obs::LogLevel::Debug,
            "blas params: mc={} kc={} nc={} mr={:?} nr={:?} par_threshold={}",
            p.mc,
            p.kc,
            p.nc,
            p.mr_override,
            p.nr_override,
            par_threshold_flops()
        );
        p
    })
}

/// Multiply-adds below which a call is not worth forking ([`fork_lanes`],
/// gemm's leaf grain); no recursion base or kernel choice depends on it.
pub fn par_threshold_flops() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| env_usize("POLAR_PAR_THRESHOLD_FLOPS").unwrap_or(1 << 16))
}

/// The one fork decision every kernel goes through: the lanes a call of
/// `work` multiply-adds may split across. 1 (sequential, pack-once) below
/// the threshold, on a one-worker pool and inside a `TaskDag` task body,
/// where the graph owns the parallelism ([`rayon::fork_width`]).
pub fn fork_lanes(work: usize) -> usize {
    if work < par_threshold_flops() {
        return 1;
    }
    rayon::fork_width()
}

/// [`rayon::join`] where [`fork_lanes`]`(work)` allows it, else inline.
pub fn fork_join<A, B, RA, RB>(work: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if fork_lanes(work) > 1 {
        rayon::join(a, b)
    } else {
        (a(), b())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = gemm_params();
        assert!(p.kc >= 16 && p.mc >= 16 && p.nc >= 16);
        assert!(par_threshold_flops() >= 1);
    }

    #[test]
    fn env_parser_rejects_junk() {
        assert_eq!(env_usize("POLAR_TEST_UNSET_VAR_XYZ"), None);
    }
}
