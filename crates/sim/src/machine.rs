//! Hardware models for the paper's two testbeds (§7.1) and an
//! implementation of the runtime's [`ExecutionModel`] on top of them.

use polar_runtime::{ExecutionModel, KernelKind, Task};

/// Execution target: which resources run the compute kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTarget {
    /// CPU cores only (the paper's "SLATE CPU" and ScaLAPACK series).
    CpuOnly,
    /// GPU-accelerated: trailing-update (gemm-like) kernels on the
    /// accelerators, panel kernels on the host, PCIe/NVLink staging costs
    /// on every offloaded tile (the paper's "SLATE GPU" series).
    GpuAccelerated,
}

/// One node's hardware parameters. Rates are *achievable dgemm* rates,
/// not theoretical peaks (peaks are recorded separately for the
/// percent-of-peak numbers the paper quotes).
#[derive(Debug, Clone)]
pub struct NodeSpec {
    pub name: &'static str,
    /// Usable CPU cores per node (OS-reserved cores excluded, §7.1).
    pub cpu_cores: usize,
    /// Achievable per-core dgemm rate, Gflop/s.
    pub cpu_core_gflops: f64,
    /// Theoretical per-core peak, Gflop/s.
    pub cpu_core_peak_gflops: f64,
    /// Accelerator devices per node (GPUs on Summit, GCDs on Frontier).
    pub gpus: usize,
    /// Achievable per-device dgemm rate, Gflop/s.
    pub gpu_gflops: f64,
    /// Theoretical per-device peak, Gflop/s.
    pub gpu_peak_gflops: f64,
    /// Host<->device bandwidth per device, GB/s (NVLink / Infinity Fabric).
    pub host_device_gbs: f64,
    /// Node injection bandwidth into the network, GB/s per direction.
    pub nic_gbs: f64,
    /// Inter-node message latency, microseconds.
    pub latency_us: f64,
    /// Whether the NIC is attached to the GPUs (Frontier) or the CPUs
    /// (Summit) — with GPU-attached NICs, GPU-aware MPI avoids the
    /// host staging hop (§5, §7.2).
    pub gpu_attached_nic: bool,
    /// MPI ranks per node used by the paper's runs.
    pub slate_ranks_per_node: usize,
    /// MPI ranks per node for the ScaLAPACK baseline (one per core).
    pub scalapack_ranks_per_node: usize,
    /// Tiles-in-flight per rank needed to saturate one accelerator
    /// (occupancy constant of the analytic model).
    pub gpu_saturation_tiles: f64,
}

impl NodeSpec {
    /// Summit (§7.1): 2x22-core POWER9 (2 cores reserved -> 42 usable),
    /// 6 V100 GPUs, NVLink, dual-rail EDR InfiniBand.
    pub fn summit() -> Self {
        NodeSpec {
            name: "summit",
            cpu_cores: 42,
            // POWER9 @3.07 GHz, 8 DP flops/cycle ~ 24.5 peak; ~70% in dgemm
            cpu_core_gflops: 17.0,
            cpu_core_peak_gflops: 24.5,
            gpus: 6,
            // V100: 7.8 TF peak, ~6.7 TF dgemm
            gpu_gflops: 5800.0,
            gpu_peak_gflops: 7800.0,
            host_device_gbs: 50.0,
            // dual-rail EDR 100 Gb/s: ~23 GB/s effective injection
            nic_gbs: 23.0,
            latency_us: 1.5,
            gpu_attached_nic: false,
            slate_ranks_per_node: 2,
            scalapack_ranks_per_node: 42,
            gpu_saturation_tiles: 6000.0,
        }
    }

    /// Frontier (§7.1): 64-core EPYC (8 reserved -> 56 usable), 4 MI250X
    /// = 8 GCDs, Infinity Fabric, Slingshot with GPU-attached NICs.
    pub fn frontier() -> Self {
        NodeSpec {
            name: "frontier",
            cpu_cores: 56,
            // EPYC "Trento" @2 GHz, 16 DP flops/cycle ~ 32 peak; ~75% dgemm
            cpu_core_gflops: 24.0,
            cpu_core_peak_gflops: 32.0,
            gpus: 8,
            // MI250X GCD: 23.9 TF vector peak, ~15 TF sustained dgemm
            gpu_gflops: 13000.0,
            gpu_peak_gflops: 23900.0,
            host_device_gbs: 36.0,
            // 4x Slingshot NICs ~ 25 GB/s each
            nic_gbs: 100.0,
            latency_us: 2.0,
            gpu_attached_nic: true,
            slate_ranks_per_node: 8,
            scalapack_ranks_per_node: 56,
            gpu_saturation_tiles: 1500.0,
        }
    }

    /// Aggregate achievable compute rate for a target, Gflop/s per node.
    pub fn node_gflops(&self, target: ExecTarget) -> f64 {
        match target {
            ExecTarget::CpuOnly => self.cpu_cores as f64 * self.cpu_core_gflops,
            ExecTarget::GpuAccelerated => self.gpus as f64 * self.gpu_gflops,
        }
    }

    /// Aggregate theoretical peak for a target, Gflop/s per node.
    pub fn node_peak_gflops(&self, target: ExecTarget) -> f64 {
        match target {
            ExecTarget::CpuOnly => self.cpu_cores as f64 * self.cpu_core_peak_gflops,
            ExecTarget::GpuAccelerated => self.gpus as f64 * self.gpu_peak_gflops,
        }
    }
}

/// A cluster of identical nodes plus the execution configuration, usable
/// as the runtime's [`ExecutionModel`] for discrete-event simulation.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    pub node: NodeSpec,
    pub nodes: usize,
    pub target: ExecTarget,
    /// MPI ranks per node for this configuration.
    pub ranks_per_node: usize,
    /// Tile size (affects per-tile kernel efficiency).
    pub nb: usize,
}

impl ClusterModel {
    pub fn slate(node: NodeSpec, nodes: usize, target: ExecTarget, nb: usize) -> Self {
        let ranks_per_node = node.slate_ranks_per_node;
        Self { node, nodes, target, ranks_per_node, nb }
    }

    pub fn scalapack(node: NodeSpec, nodes: usize, nb: usize) -> Self {
        let ranks_per_node = node.scalapack_ranks_per_node;
        Self { node, nodes, target: ExecTarget::CpuOnly, ranks_per_node, nb }
    }

    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Per-kernel efficiency relative to the dgemm rate: panel kernels are
    /// memory-bound / short, trailing updates run near dgemm speed.
    fn kernel_efficiency(&self, kind: KernelKind) -> f64 {
        match kind {
            KernelKind::Gemm | KernelKind::Herk => 0.92,
            KernelKind::Trsm | KernelKind::Tsmqr | KernelKind::Unmqr => 0.75,
            KernelKind::Geqrt | KernelKind::Tsqrt => 0.45,
            KernelKind::Potrf => 0.55,
            KernelKind::Geadd | KernelKind::Norm => 0.10,
            // whole-call QR spans blend panel and trailing-update work
            KernelKind::Geqrf => 0.55,
            KernelKind::Orgqr => 0.70,
            // service-level job spans and whole solver iterations never
            // appear in kernel DAGs; if one does, treat it as composite
            // work at blended efficiency
            KernelKind::Job | KernelKind::Iter | KernelKind::Other => 0.50,
        }
    }

    /// Tile-size utilization: unimodal with peaks at the paper's tuned
    /// sizes (GPU 320, CPU 192) — see `polar_sim::analytic` for the
    /// rationale. The GPU curve is scaled to the ~55% of dgemm rate that
    /// tuned-tile execution achieves on V100/MI250X.
    fn tile_utilization(&self, gpu: bool) -> f64 {
        let (sat, over_penalty, scale) = if gpu { (320.0, 0.6, 0.55) } else { (192.0, 0.35, 1.0) };
        let r = self.nb as f64 / sat;
        let up = ((1.9 * r) / (1.0 + r)).min(1.0);
        let over = 1.0 + over_penalty * (r - 1.0).max(0.0);
        (up / over) * scale
    }

    /// Rate in Gflop/s for one execution slot handling `kind`.
    fn slot_gflops(&self, kind: KernelKind) -> f64 {
        let eff = self.kernel_efficiency(kind);
        match self.target {
            ExecTarget::CpuOnly => {
                // slot = one core's share: ranks own cores/ranks_per_node
                // cores each, and slots() exposes that many units
                self.node.cpu_core_gflops * eff * self.tile_utilization(false)
            }
            ExecTarget::GpuAccelerated => {
                if kind.gpu_eligible() {
                    // slot = one device stream
                    self.node.gpu_gflops / self.gpus_per_rank() as f64
                        * eff
                        * self.tile_utilization(true)
                } else {
                    // panel kernels stay on host cores
                    self.node.cpu_core_gflops * eff * self.tile_utilization(false)
                }
            }
        }
    }

    fn gpus_per_rank(&self) -> usize {
        (self.node.gpus / self.ranks_per_node).max(1)
    }
}

impl ExecutionModel for ClusterModel {
    fn ranks(&self) -> usize {
        self.total_ranks()
    }

    fn slots(&self, _rank: usize) -> usize {
        match self.target {
            ExecTarget::CpuOnly => (self.node.cpu_cores / self.ranks_per_node).max(1),
            // one rank drives its GPUs plus its host cores; expose GPU
            // streams as the slots (2 per device keeps them fed)
            ExecTarget::GpuAccelerated => 2 * self.gpus_per_rank(),
        }
    }

    fn task_seconds(&self, task: &Task) -> f64 {
        let rate = self.slot_gflops(task.kind) * 1e9;
        let compute = if rate > 0.0 { task.flops / rate } else { 0.0 };
        // GPU kernels pay host<->device staging for their working set when
        // the NIC isn't GPU-attached (Summit) — SLATE caches tiles on the
        // device, so charge a fraction of the touched bytes
        let staging = if self.target == ExecTarget::GpuAccelerated && task.kind.gpu_eligible() {
            let touched: u64 = task.reads.iter().chain(task.writes.iter()).map(|t| t.bytes).sum();
            let reuse = 8.0; // tile cache hit ratio
            (touched as f64 / reuse) / (self.node.host_device_gbs * 1e9)
        } else {
            0.0
        };
        // fixed per-task overhead: kernel launch / task scheduling
        let overhead = match self.target {
            ExecTarget::GpuAccelerated => 6e-6,
            ExecTarget::CpuOnly => 8e-7,
        };
        compute + staging + overhead
    }

    fn message_seconds(&self, bytes: u64, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let same_node = self.node_of(from) == self.node_of(to);
        if same_node {
            // shared-memory transfer: generous bandwidth, tiny latency
            2e-7 + bytes as f64 / (80.0e9)
        } else {
            let mut lat = self.node.latency_us * 1e-6;
            let mut bw = self.node.nic_gbs * 1e9 / self.ranks_per_node as f64;
            // Summit-style host-attached NIC with GPU data: extra hop
            // through host memory (no benefit from GPU-aware MPI, §7.2)
            if self.target == ExecTarget::GpuAccelerated && !self.node.gpu_attached_nic {
                lat += 2e-6;
                bw *= 0.8;
            }
            lat + bytes as f64 / bw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_runtime::TileRef;

    fn gemm_task(flops: f64, nb: usize) -> Task {
        let bytes = (8 * nb * nb) as u64;
        Task {
            id: 0,
            kind: KernelKind::Gemm,
            flops,
            rank: 0,
            phase: 0,
            barrier: 0,
            reads: vec![TileRef::new(0, 0, 0, bytes), TileRef::new(1, 0, 0, bytes)],
            writes: vec![TileRef::new(2, 0, 0, bytes)],
        }
    }

    #[test]
    fn summit_spec_matches_paper() {
        let s = NodeSpec::summit();
        assert_eq!(s.cpu_cores, 42); // 2 of 44 reserved for OS
        assert_eq!(s.gpus, 6);
        assert!(!s.gpu_attached_nic);
        assert_eq!(s.slate_ranks_per_node, 2); // 3 GPUs per rank
        assert_eq!(s.scalapack_ranks_per_node, 42); // 1 rank per core
    }

    #[test]
    fn frontier_spec_matches_paper() {
        let f = NodeSpec::frontier();
        assert_eq!(f.cpu_cores, 56); // 8 of 64 reserved
        assert_eq!(f.gpus, 8); // 4 MI250X = 8 GCDs
        assert!(f.gpu_attached_nic);
        assert_eq!(f.slate_ranks_per_node, 8); // 1 GCD per rank
    }

    #[test]
    fn gpu_node_much_faster_than_cpu_node() {
        let s = NodeSpec::summit();
        let ratio = s.node_gflops(ExecTarget::GpuAccelerated) / s.node_gflops(ExecTarget::CpuOnly);
        // the hardware ratio bounds the achievable speedup (~18x observed)
        assert!(ratio > 20.0 && ratio < 100.0, "ratio = {ratio}");
    }

    #[test]
    fn gemm_task_time_scales_with_rate() {
        let s = NodeSpec::summit();
        let nb = 320;
        let flops = 2.0 * (nb as f64).powi(3);
        let gpu = ClusterModel::slate(s.clone(), 1, ExecTarget::GpuAccelerated, nb);
        let cpu = ClusterModel::slate(s, 1, ExecTarget::CpuOnly, nb);
        let t_gpu = gpu.task_seconds(&gemm_task(flops, nb));
        let t_cpu = cpu.task_seconds(&gemm_task(flops, nb));
        assert!(t_gpu < t_cpu, "gpu {t_gpu} vs cpu {t_cpu}");
    }

    #[test]
    fn tile_utilization_prefers_tuned_sizes() {
        let s = NodeSpec::summit();
        // GPU: nb = 320 beats much smaller and slightly beats much larger
        let u = |nb: usize| {
            ClusterModel::slate(s.clone(), 1, ExecTarget::GpuAccelerated, nb).tile_utilization(true)
        };
        assert!(u(320) > u(64));
        assert!(u(320) > u(1024));
        // CPU: 192 is the sweet spot
        let c = |nb: usize| {
            ClusterModel::slate(s.clone(), 1, ExecTarget::CpuOnly, nb).tile_utilization(false)
        };
        assert!(c(192) > c(32));
        assert!(c(192) >= c(640) * 0.99);
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let s = NodeSpec::summit();
        let m = ClusterModel::slate(s, 4, ExecTarget::CpuOnly, 192);
        let intra = m.message_seconds(1 << 20, 0, 1); // ranks 0,1 on node 0
        let inter = m.message_seconds(1 << 20, 0, m.ranks_per_node); // node 0 -> 1
        assert!(intra < inter);
        assert_eq!(m.message_seconds(1 << 20, 3, 3), 0.0);
    }

    #[test]
    fn summit_gpu_pays_host_nic_penalty() {
        let summit = ClusterModel::slate(NodeSpec::summit(), 2, ExecTarget::GpuAccelerated, 320);
        let frontier =
            ClusterModel::slate(NodeSpec::frontier(), 2, ExecTarget::GpuAccelerated, 320);
        let b = 4 << 20;
        let ts = summit.message_seconds(b, 0, summit.ranks_per_node);
        // normalize by nominal nic share to compare penalty structure
        let ts_nominal = summit.node.latency_us * 1e-6
            + b as f64 / (summit.node.nic_gbs * 1e9 / summit.ranks_per_node as f64);
        assert!(ts > ts_nominal, "host-attached NIC must cost extra");
        let tf = frontier.message_seconds(b, 0, frontier.ranks_per_node);
        let tf_nominal = frontier.node.latency_us * 1e-6
            + b as f64 / (frontier.node.nic_gbs * 1e9 / frontier.ranks_per_node as f64);
        assert!((tf - tf_nominal).abs() < 1e-12, "GPU-attached NIC has no extra hop");
    }
}
