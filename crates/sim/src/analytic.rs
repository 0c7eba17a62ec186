//! Closed-form performance model for distributed QDWH.
//!
//! The tile DAG of a paper-scale run (n = 175k, nb = 320) has ~1e8 tasks —
//! too many for discrete-event simulation — so the figure sweeps use this
//! analytic model, cross-validated against the DES at moderate sizes
//! (see the workspace test `tests/simulation_consistency.rs`).
//!
//! The model decomposes QDWH into its §4 operation sequence and charges
//! each operation with four mechanisms:
//!
//! 1. **throughput** — flops at the aggregate achievable rate of the
//!    target (GPU trailing updates or CPU cores), degraded by per-kernel
//!    and tile-size efficiency plus per-task launch overhead;
//! 2. **panel critical path** — `n/nb` sequential panel steps per
//!    factorization, executed on host cores, plus a sync latency each;
//! 3. **network** — communication-avoiding 2D block-cyclic volume
//!    `~c·8·n²·sqrt(P)` bytes through the node injection bandwidth;
//! 4. **host↔device staging** (GPU targets) — tile traffic over
//!    NVLink / Infinity Fabric with a cache-reuse factor.
//!
//! The two runtimes differ in composition: SLATE (task-based) *overlaps*
//! the mechanisms (`max`), ScaLAPACK/POLAR (fork-join) *serializes* them
//! (`+`, plus a barrier per panel step) — the §3 argument, in formula form.

use crate::machine::{ExecTarget, NodeSpec};
use crate::qdwh_flops;

/// Which implementation of QDWH is being modeled (the three series of
/// Figs. 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// SLATE, GPU-accelerated, task-based (blue squares).
    SlateGpu,
    /// SLATE, CPU-only, task-based (orange circles).
    SlateCpu,
    /// POLAR's ScaLAPACK QDWH: CPU-only, fork-join (green triangles).
    ScaLapack,
}

impl Implementation {
    pub fn target(self) -> ExecTarget {
        match self {
            Implementation::SlateGpu => ExecTarget::GpuAccelerated,
            _ => ExecTarget::CpuOnly,
        }
    }

    pub fn fork_join(self) -> bool {
        matches!(self, Implementation::ScaLapack)
    }

    pub fn ranks_per_node(self, node: &NodeSpec) -> usize {
        match self {
            Implementation::ScaLapack => node.scalapack_ranks_per_node,
            _ => node.slate_ranks_per_node,
        }
    }
}

/// Time breakdown returned by [`estimate_qdwh_time`].
#[derive(Debug, Clone)]
pub struct AnalyticBreakdown {
    pub seconds: f64,
    pub compute_seconds: f64,
    pub panel_seconds: f64,
    pub network_seconds: f64,
    pub staging_seconds: f64,
    pub barrier_seconds: f64,
    /// Real flops by the paper's §4 formula.
    pub flops: f64,
    /// Reported rate: formula flops / modeled seconds, Tflop/s — the
    /// quantity on the y-axes of Figs. 2–6.
    pub tflops: f64,
}

/// Operation classes with distinct kernel-efficiency profiles.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)] // each class is "<kernel>-like"
enum OpClass {
    /// geqrf / orgqr: tsmqr-dominated updates, heavyweight CPU panels.
    QrLike,
    /// potrf + herk: gemm-like updates, light panels.
    CholLike,
    /// pure gemm.
    GemmLike,
    /// triangular solves.
    TrsmLike,
}

impl OpClass {
    /// Update-kernel efficiency relative to dgemm.
    fn efficiency(self) -> f64 {
        match self {
            OpClass::GemmLike => 0.90,
            OpClass::CholLike => 0.80,
            OpClass::TrsmLike => 0.65,
            OpClass::QrLike => 0.55,
        }
    }

    /// Network-volume coefficient `c` in `bytes = c * 8 n^2 sqrt(P)`.
    fn net_coeff(self) -> f64 {
        match self {
            OpClass::GemmLike => 2.0,
            OpClass::CholLike => 1.0,
            OpClass::TrsmLike => 1.5,
            OpClass::QrLike => 3.0,
        }
    }
}

/// One §4 operation: flops, panel-step count, panel work per step.
struct Op {
    class: OpClass,
    flops: f64,
    steps: f64,
    panel_flops_per_step: f64,
}

/// The operation sequence of Algorithm 1 for the given iteration profile.
fn op_sequence(n: usize, nb: usize, it_qr: usize, it_chol: usize) -> Vec<Op> {
    let nf = n as f64;
    let nbf = nb as f64;
    let t = (nf / nbf).ceil().max(1.0);
    let n3 = nf.powi(3);
    let mut ops = Vec::new();

    // condition estimate: QR of the scaled input (lines 15-17)
    ops.push(Op {
        class: OpClass::QrLike,
        flops: (4.0 / 3.0) * n3,
        steps: t,
        panel_flops_per_step: 2.0 * (nf / 2.0) * nbf * nbf,
    });

    for _ in 0..it_qr {
        // geqrf of the stacked (2n x n) W
        ops.push(Op {
            class: OpClass::QrLike,
            flops: (10.0 / 3.0) * n3,
            steps: t,
            panel_flops_per_step: 2.0 * 1.5 * nf * nbf * nbf,
        });
        // explicit Q generation (unmqr on identity)
        ops.push(Op {
            class: OpClass::QrLike,
            flops: (10.0 / 3.0) * n3,
            steps: t,
            panel_flops_per_step: 0.5 * nf * nbf * nbf,
        });
        // X = theta Q1 Q2^H + beta X
        ops.push(Op {
            class: OpClass::GemmLike,
            flops: 2.0 * n3,
            steps: t,
            panel_flops_per_step: 0.0,
        });
    }

    for _ in 0..it_chol {
        // Z = I + c X^H X
        ops.push(Op { class: OpClass::CholLike, flops: n3, steps: t, panel_flops_per_step: 0.0 });
        // potrf(Z)
        ops.push(Op {
            class: OpClass::CholLike,
            flops: n3 / 3.0,
            steps: t,
            panel_flops_per_step: nbf.powi(3) / 3.0,
        });
        // two right-side triangular solves
        ops.push(Op {
            class: OpClass::TrsmLike,
            flops: 2.0 * n3,
            steps: 2.0 * t,
            panel_flops_per_step: 0.0,
        });
    }

    // H = U^H A
    ops.push(Op { class: OpClass::GemmLike, flops: 2.0 * n3, steps: t, panel_flops_per_step: 0.0 });

    ops
}

/// Tile-size utilization of the compute device.
///
/// Unimodal in `nb`, peaking at the paper's tuned values (GPU: 320,
/// CPU: 192). Rising flank: small tiles underfill the pipeline / vector
/// units. Falling flank: oversized tiles lose task parallelism,
/// lookahead depth, and cache residency — the reasons the paper's tuning
/// sweep (§7.2) settled on 320/192 rather than "as big as possible".
/// The GPU curve is additionally scaled so a tuned-tile kernel reaches
/// ~55% of the device's dgemm rate, which is what SLATE-style tile
/// execution achieves on V100/MI250X at nb = 320.
fn tile_utilization(nb: usize, gpu: bool) -> f64 {
    let (sat, over_penalty, scale) = if gpu { (320.0, 0.6, 0.55) } else { (160.0, 0.1, 1.0) };
    let r = nb as f64 / sat;
    let up = (1.9 * r / (1.0 + r)).min(1.0);
    let over = 1.0 + over_penalty * (r - 1.0).max(0.0);
    (up / over) * scale
}

/// Model the end-to-end QDWH time.
pub fn estimate_qdwh_time(
    node: &NodeSpec,
    nodes: usize,
    implementation: Implementation,
    n: usize,
    nb: usize,
    it_qr: usize,
    it_chol: usize,
) -> AnalyticBreakdown {
    let ops = op_sequence(n, nb, it_qr, it_chol);
    let flops = qdwh_flops(n, it_qr, it_chol);
    cost_operations(node, nodes, implementation, n, nb, &ops, flops)
}

/// Cost an arbitrary operation sequence on the modeled machine (shared by
/// the QDWH and Zolo-PD estimators).
fn cost_operations(
    node: &NodeSpec,
    nodes: usize,
    implementation: Implementation,
    n: usize,
    nb: usize,
    ops: &[Op],
    flops: f64,
) -> AnalyticBreakdown {
    let ranks = nodes * implementation.ranks_per_node(node);
    let target = implementation.target();
    let fork_join = implementation.fork_join();
    let nbf = nb as f64;

    // aggregate achievable update rate, flop/s
    let util = tile_utilization(nb, target == ExecTarget::GpuAccelerated);
    // GPU occupancy: accelerators only reach their rate when each rank
    // has enough independent tiles in flight. The local trailing-matrix
    // tile count (t^2 / ranks) is the available parallelism; ~2000 tiles
    // per rank saturate the device. This is why the paper's GPU curves
    // keep climbing with matrix size while the CPU curves flatten early,
    // and why adding nodes at fixed n starves the GPUs (Fig. 4's limited
    // strong scaling).
    let t_tiles = (n as f64 / nb as f64).ceil();
    let occupancy = match target {
        ExecTarget::CpuOnly => 1.0,
        ExecTarget::GpuAccelerated => {
            let local = t_tiles * t_tiles / ranks as f64;
            local / (local + node.gpu_saturation_tiles)
        }
    };
    let agg_update = match target {
        ExecTarget::CpuOnly => nodes as f64 * node.cpu_cores as f64 * node.cpu_core_gflops * 1e9,
        ExecTarget::GpuAccelerated => nodes as f64 * node.gpus as f64 * node.gpu_gflops * 1e9,
    } * util
        * occupancy;

    // panel execution: host cores of one rank, at half dgemm efficiency
    // (panels are skinny and partly level-2)
    let cores_per_rank =
        (node.cpu_cores as f64 / implementation.ranks_per_node(node) as f64).max(1.0);
    let panel_rate = cores_per_rank * node.cpu_core_gflops * 1e9 * 0.9;
    // aggregate CPU rate available for panels across the machine
    let agg_cpu = nodes as f64 * node.cpu_cores as f64 * node.cpu_core_gflops * 1e9 * 0.9;

    // network: aggregate injection bandwidth and per-hop latency
    let net_bw = nodes as f64 * node.nic_gbs * 1e9;
    let sync_lat = node.latency_us * 1e-6 * (ranks.max(2) as f64).log2();

    // host<->device staging (GPU only)
    let hd_bw = nodes as f64 * node.gpus as f64 * node.host_device_gbs * 1e9;
    let tile_reuse = 8.0;

    // per-task launch overhead amortized over concurrent streams
    let (task_overhead, streams) = match target {
        ExecTarget::GpuAccelerated => (6e-6, (2 * node.gpus * nodes) as f64),
        ExecTarget::CpuOnly => (8e-7, (node.cpu_cores * nodes) as f64),
    };

    let single_node_net_discount = if nodes == 1 { 0.25 } else { 1.0 };

    let mut compute_s = 0.0;
    let mut panel_s = 0.0;
    let mut network_s = 0.0;
    let mut staging_s = 0.0;
    let mut barrier_s = 0.0;
    let mut total = 0.0;

    for op in ops {
        let eff = op.class.efficiency();
        let panel_total = op.steps * op.panel_flops_per_step;
        let update_flops = (op.flops - panel_total).max(0.0);

        // throughput term
        let ntasks = update_flops / (2.0 * nbf.powi(3));
        let t_overhead = ntasks * task_overhead / streams;
        let mut t_update = update_flops / (agg_update * eff) + t_overhead;
        // GPU runs still execute panels on host cores (aggregate view)
        let t_panel_throughput = panel_total / agg_cpu;
        if target == ExecTarget::GpuAccelerated {
            t_update += t_panel_throughput;
        } else {
            t_update += t_panel_throughput * 0.5; // folded into core time
        }

        // staging term (GPU)
        let t_staging = if target == ExecTarget::GpuAccelerated {
            let bytes = ntasks * 3.0 * 8.0 * nbf * nbf / tile_reuse;
            bytes / hd_bw
        } else {
            0.0
        };

        // panel critical path
        let t_panel_cp = op.steps * (op.panel_flops_per_step / panel_rate + sync_lat);

        // network term
        let net_bytes = op.class.net_coeff()
            * 8.0
            * (n as f64).powi(2)
            * (ranks as f64).sqrt()
            * single_node_net_discount;
        let t_net = net_bytes / net_bw;

        let t_op = if fork_join {
            // bulk synchronous: phases serialize, barrier per panel step
            let t_barrier = op.steps * 4.0 * sync_lat;
            barrier_s += t_barrier;
            t_update + t_staging + t_net + t_panel_cp + t_barrier
        } else {
            // task-based: mechanisms overlap
            (t_update + t_staging).max(t_panel_cp).max(t_net)
        };

        compute_s += t_update;
        panel_s += t_panel_cp;
        network_s += t_net;
        staging_s += t_staging;
        total += t_op;
    }

    AnalyticBreakdown {
        seconds: total,
        compute_seconds: compute_s,
        panel_seconds: panel_s,
        network_seconds: network_s,
        staging_seconds: staging_s,
        barrier_seconds: barrier_s,
        flops,
        tflops: flops / total / 1e12,
    }
}

/// Model Zolo-PD (the paper's §8 future-work algorithm) on the same
/// machine at its `r = 8` double-precision guarantee of two iterations:
/// `r` *mutually independent* stacked-QR chains, then — the interval being
/// well conditioned after one iteration — `r` independent Cholesky chains
/// over one shared Gram matrix.
///
/// With `nodes >= r`, the node set splits into `r` groups that execute the
/// chains concurrently, so one Zolo iteration costs what one chain costs
/// on `nodes/r` nodes — and only 2 iterations are needed. This is the
/// strong-scaling trade the paper describes: more flops than QDWH, but a
/// much shorter critical path at high node counts.
pub fn estimate_zolo_time(
    node: &NodeSpec,
    nodes: usize,
    n: usize,
    nb: usize,
    r: usize,
) -> AnalyticBreakdown {
    assert!(r >= 1);
    let nf = n as f64;
    let nbf = nb as f64;
    let t = (nf / nbf).ceil().max(1.0);
    let n3 = nf.powi(3);

    // iteration 1, one partial-fraction chain: stacked geqrf + explicit Q
    // + accumulate
    let qr_chain = [
        Op {
            class: OpClass::QrLike,
            flops: (10.0 / 3.0) * n3,
            steps: t,
            panel_flops_per_step: 2.0 * 1.5 * nf * nbf * nbf,
        },
        Op {
            class: OpClass::QrLike,
            flops: (10.0 / 3.0) * n3,
            steps: t,
            panel_flops_per_step: 0.5 * nf * nbf * nbf,
        },
        Op { class: OpClass::GemmLike, flops: 2.0 * n3, steps: t, panel_flops_per_step: 0.0 },
    ];
    // iteration 2, one chain in n x n space: potrf of the shifted Gram
    // matrix, the inverse T of its factor and the chain's share T^H T of
    // the iteration's M
    let chol_chain = [
        Op {
            class: OpClass::CholLike,
            flops: n3 / 3.0,
            steps: t,
            panel_flops_per_step: nbf.powi(3) / 3.0,
        },
        Op { class: OpClass::TrsmLike, flops: n3 / 3.0, steps: t, panel_flops_per_step: 0.0 },
        Op { class: OpClass::GemmLike, flops: n3 / 3.0, steps: t, panel_flops_per_step: 0.0 },
    ];
    // on the full machine: condition estimate, iteration 2's Gram matrix
    // (formed once, shifted per chain) and its one X M gemm, H
    let shared_ops = [
        Op {
            class: OpClass::QrLike,
            flops: (4.0 / 3.0) * n3,
            steps: t,
            panel_flops_per_step: 2.0 * (nf / 2.0) * nbf * nbf,
        },
        Op { class: OpClass::CholLike, flops: n3, steps: t, panel_flops_per_step: 0.0 },
        Op { class: OpClass::GemmLike, flops: 2.0 * n3, steps: t, panel_flops_per_step: 0.0 },
        Op { class: OpClass::GemmLike, flops: 2.0 * n3, steps: t, panel_flops_per_step: 0.0 },
    ];

    // group decomposition of the machine
    let groups = nodes.min(r).max(1);
    let nodes_per_group = (nodes / groups).max(1);
    let rounds = r.div_ceil(groups) as f64;

    let cost = |ops: &[Op], nodes| {
        let flops = ops.iter().map(|o| o.flops).sum();
        cost_operations(node, nodes, Implementation::SlateGpu, n, nb, ops, flops)
    };
    let (qr, chol) = (cost(&qr_chain, nodes_per_group), cost(&chol_chain, nodes_per_group));
    let shared = cost(&shared_ops, nodes);
    let total =
        |part: fn(&AnalyticBreakdown) -> f64| rounds * (part(&qr) + part(&chol)) + part(&shared);

    let seconds = total(|b| b.seconds);
    let flops = r as f64 * (qr.flops + chol.flops) + shared.flops;
    AnalyticBreakdown {
        seconds,
        compute_seconds: total(|b| b.compute_seconds),
        panel_seconds: total(|b| b.panel_seconds),
        network_seconds: total(|b| b.network_seconds),
        staging_seconds: total(|b| b.staging_seconds),
        barrier_seconds: 0.0,
        flops,
        tflops: flops / seconds / 1e12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summit() -> NodeSpec {
        NodeSpec::summit()
    }

    #[test]
    fn gpu_beats_cpu_and_grows_with_n() {
        let mut prev = 0.0;
        for n in [20_000usize, 60_000, 100_000, 140_000] {
            let gpu = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, n, 320, 3, 3);
            let cpu = estimate_qdwh_time(&summit(), 1, Implementation::SlateCpu, n, 192, 3, 3);
            assert!(gpu.tflops > cpu.tflops, "n={n}");
            assert!(gpu.tflops > prev, "GPU rate must grow with n");
            prev = gpu.tflops;
        }
    }

    #[test]
    fn slate_cpu_similar_to_scalapack() {
        // §7.2: "Using only CPU cores, SLATE's performance is similar to
        // the ScaLAPACK performance."
        for n in [40_000usize, 80_000] {
            let slate = estimate_qdwh_time(&summit(), 1, Implementation::SlateCpu, n, 192, 3, 3);
            let scal = estimate_qdwh_time(&summit(), 1, Implementation::ScaLapack, n, 192, 3, 3);
            let ratio = slate.tflops / scal.tflops;
            assert!((0.8..2.5).contains(&ratio), "n={n}: ratio {ratio}");
        }
    }

    #[test]
    fn fork_join_is_never_faster() {
        for nodes in [1usize, 8] {
            for n in [20_000usize, 80_000] {
                let tb =
                    estimate_qdwh_time(&summit(), nodes, Implementation::SlateCpu, n, 192, 3, 3);
                let fj =
                    estimate_qdwh_time(&summit(), nodes, Implementation::ScaLapack, n, 192, 3, 3);
                assert!(fj.seconds >= tb.seconds * 0.95, "nodes={nodes} n={n}");
            }
        }
    }

    #[test]
    fn headline_speedup_in_paper_range() {
        // §1/§7.2: up to ~18x on 1 node at large sizes, ~13x at 8 nodes.
        let n1 = 130_000;
        let gpu1 = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, n1, 320, 3, 3);
        let sca1 = estimate_qdwh_time(&summit(), 1, Implementation::ScaLapack, n1, 192, 3, 3);
        let s1 = gpu1.tflops / sca1.tflops;
        assert!((12.0..26.0).contains(&s1), "1-node speedup {s1}");

        // at 8 nodes the same mid-range sizes leave the GPUs partially
        // starved, pulling the ratio down toward the paper's ~13x
        let n8 = 130_000;
        let gpu8 = estimate_qdwh_time(&summit(), 8, Implementation::SlateGpu, n8, 320, 3, 3);
        let sca8 = estimate_qdwh_time(&summit(), 8, Implementation::ScaLapack, n8, 192, 3, 3);
        let s8 = gpu8.tflops / sca8.tflops;
        assert!((9.0..19.0).contains(&s8), "8-node speedup {s8}");
        assert!(s8 < s1, "speedup declines from 1 to 8 nodes at fixed n");
    }

    #[test]
    fn frontier_16_nodes_near_paper_rate() {
        // Fig. 5/6: ~180 Tflop/s at 16 Frontier nodes, n = 175k.
        let fr = NodeSpec::frontier();
        let r = estimate_qdwh_time(&fr, 16, Implementation::SlateGpu, 175_000, 320, 3, 3);
        assert!((100.0..300.0).contains(&r.tflops), "Frontier 16-node rate {} Tflop/s", r.tflops);
    }

    #[test]
    fn weak_scaling_improves_with_nodes() {
        // Fig. 4: at each node count the largest problem achieves a higher
        // rate than the same problem on fewer nodes... i.e. more nodes at
        // larger n => more Tflop/s.
        let small = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, 100_000, 320, 3, 3);
        let big = estimate_qdwh_time(&summit(), 8, Implementation::SlateGpu, 250_000, 320, 3, 3);
        assert!(big.tflops > small.tflops);
    }

    #[test]
    fn strong_scaling_is_sublinear() {
        // Fig. 4: strong scaling at fixed n is limited.
        let n = 60_000;
        let one = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, n, 320, 3, 3);
        let many = estimate_qdwh_time(&summit(), 16, Implementation::SlateGpu, n, 320, 3, 3);
        let speedup = one.seconds / many.seconds;
        assert!(speedup > 1.0, "some speedup expected");
        assert!(speedup < 16.0, "strong scaling must be sublinear: {speedup}");
    }

    #[test]
    fn tile_size_sweet_spots() {
        // §7.2: nb = 320 best on GPUs, nb = 192 best on CPUs.
        let better_gpu = |a: usize, b: usize| {
            let ta = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, 80_000, a, 3, 3);
            let tb = estimate_qdwh_time(&summit(), 1, Implementation::SlateGpu, 80_000, b, 3, 3);
            ta.tflops >= tb.tflops
        };
        assert!(better_gpu(320, 64));
        let better_cpu = |a: usize, b: usize| {
            let ta = estimate_qdwh_time(&summit(), 1, Implementation::SlateCpu, 80_000, a, 3, 3);
            let tb = estimate_qdwh_time(&summit(), 1, Implementation::SlateCpu, 80_000, b, 3, 3);
            ta.tflops >= tb.tflops
        };
        assert!(better_cpu(192, 32));
    }

    #[test]
    fn breakdown_sums_are_sane() {
        let r = estimate_qdwh_time(&summit(), 4, Implementation::SlateGpu, 100_000, 320, 3, 3);
        assert!(r.seconds > 0.0);
        assert!(r.compute_seconds > 0.0);
        assert!(r.panel_seconds > 0.0);
        assert!(r.tflops > 0.0);
        // task-based: overlapped total can't exceed the serial sum
        assert!(
            r.seconds
                <= r.compute_seconds
                    + r.panel_seconds
                    + r.network_seconds
                    + r.staging_seconds
                    + 1e-9
        );
    }

    #[test]
    fn zolo_wins_in_strong_scaling_regime() {
        // §8: Zolo-PD burns more flops but has a shorter critical path;
        // at a fixed moderate n it must overtake QDWH once the node count
        // is large enough to host the independent QR chains.
        let node = NodeSpec::summit();
        let n = 60_000;
        let qdwh_time = |nodes| {
            estimate_qdwh_time(&node, nodes, Implementation::SlateGpu, n, 320, 3, 3).seconds
        };
        let zolo_time = |nodes| estimate_zolo_time(&node, nodes, n, 320, 8).seconds;
        // few nodes: QDWH's lower flop count wins
        assert!(qdwh_time(1) < zolo_time(1), "1 node: QDWH should win");
        // many nodes: Zolo's concurrency wins (from 8 nodes on since its
        // Cholesky-based second iteration runs in n x n space; from 16
        // with two triangular sweeps per chain, and with two QR-based
        // iterations the crossover sat between 16 and 32)
        assert!(zolo_time(8) < qdwh_time(8), "8 nodes: Zolo should win");
        assert!(zolo_time(16) < qdwh_time(16), "16 nodes: Zolo should win");
        assert!(zolo_time(32) < qdwh_time(32), "32 nodes: Zolo should win");
    }

    #[test]
    fn zolo_flops_exceed_qdwh() {
        let node = NodeSpec::summit();
        let z = estimate_zolo_time(&node, 8, 100_000, 320, 8);
        assert!(z.flops > crate::qdwh_flops(100_000, 3, 3));
    }

    #[test]
    fn zolo_scales_past_r_groups() {
        let node = NodeSpec::summit();
        let t8 = estimate_zolo_time(&node, 8, 100_000, 320, 8).seconds;
        let t16 = estimate_zolo_time(&node, 16, 100_000, 320, 8).seconds;
        assert!(t16 < t8, "groups of 2 nodes each still speed up");
    }
}
