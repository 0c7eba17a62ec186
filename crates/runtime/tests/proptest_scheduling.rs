//! Property-based tests of the schedule simulator: invariants that any
//! admissible schedule must satisfy, over randomized layered DAGs.

use polar_runtime::{
    simulate, ExecutionModel, GraphBuilder, KernelKind, SchedulingMode, Task, TileRef,
};
use proptest::prelude::*;

struct UnitModel {
    ranks: usize,
    slots: usize,
    latency: f64,
    byte_cost: f64,
}

impl ExecutionModel for UnitModel {
    fn ranks(&self) -> usize {
        self.ranks
    }
    fn slots(&self, _r: usize) -> usize {
        self.slots
    }
    fn task_seconds(&self, task: &Task) -> f64 {
        task.flops
    }
    fn message_seconds(&self, bytes: u64, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.latency + bytes as f64 * self.byte_cost
        }
    }
}

/// Build a random layered DAG: `layers x width` tasks, each reading a
/// random subset of the previous layer.
fn layered_dag(
    layers: usize,
    width: usize,
    rank_mod: usize,
    dep_pattern: u64,
) -> polar_runtime::TaskGraph {
    let mut b = GraphBuilder::new();
    let m = b.new_matrix();
    for layer in 0..layers {
        for w in 0..width {
            let mut reads = Vec::new();
            if layer > 0 {
                for p in 0..width {
                    if (dep_pattern >> ((layer * width + w + p) % 60)) & 1 == 1 {
                        reads.push(TileRef::new(m, layer - 1, p, 64));
                    }
                }
            }
            let flops = 1.0 + ((layer * 7 + w * 3) % 5) as f64;
            b.add_task(
                KernelKind::Gemm,
                flops,
                (layer + w) % rank_mod,
                reads,
                vec![TileRef::new(m, layer, w, 64)],
            );
        }
        b.next_phase();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_bounds_hold(
        layers in 1usize..6,
        width in 1usize..8,
        ranks in 1usize..5,
        slots in 1usize..4,
        pattern in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, ranks, pattern);
        // comm-free model: serial-sum upper bound only holds without comm
        let model = UnitModel { ranks, slots, latency: 0.0, byte_cost: 0.0 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        // lower bound: critical path; upper bound: serial execution
        prop_assert!(s.makespan >= g.critical_path_flops() - 1e-9);
        prop_assert!(s.makespan <= s.total_task_seconds + 1e-9);
        // per-rank busy times sum to the serial time
        let busy: f64 = s.per_rank_busy.iter().sum();
        prop_assert!((busy - s.total_task_seconds).abs() < 1e-9);
    }

    #[test]
    fn fork_join_dominated_by_task_based(
        layers in 1usize..6,
        width in 1usize..8,
        ranks in 1usize..5,
        pattern in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, ranks, pattern);
        let model = UnitModel { ranks, slots: 2, latency: 0.1, byte_cost: 1e-9 };
        let tb = simulate(&g, &model, SchedulingMode::TaskBased);
        let fj = simulate(&g, &model, SchedulingMode::ForkJoin);
        prop_assert!(fj.makespan >= tb.makespan - 1e-9);
    }

    #[test]
    fn more_slots_never_hurt(
        layers in 1usize..5,
        width in 2usize..8,
        pattern in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, 2, pattern);
        let m1 = UnitModel { ranks: 2, slots: 1, latency: 0.0, byte_cost: 0.0 };
        let m4 = UnitModel { ranks: 2, slots: 4, latency: 0.0, byte_cost: 0.0 };
        let s1 = simulate(&g, &m1, SchedulingMode::TaskBased);
        let s4 = simulate(&g, &m4, SchedulingMode::TaskBased);
        prop_assert!(s4.makespan <= s1.makespan + 1e-9);
    }

    #[test]
    fn zero_latency_single_rank_equals_list_schedule(
        layers in 1usize..5,
        width in 1usize..6,
        pattern in any::<u64>(),
    ) {
        // single rank, single slot: makespan == serial sum exactly
        let g = layered_dag(layers, width, 1, pattern);
        let model = UnitModel { ranks: 1, slots: 1, latency: 5.0, byte_cost: 1e-9 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        prop_assert!((s.makespan - s.total_task_seconds).abs() < 1e-9);
        prop_assert_eq!(s.messages, 0);
    }

    #[test]
    fn message_accounting_consistent(
        layers in 2usize..5,
        width in 1usize..6,
        ranks in 2usize..5,
        pattern in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, ranks, pattern);
        let model = UnitModel { ranks, slots: 2, latency: 0.01, byte_cost: 1e-9 };
        let s = simulate(&g, &model, SchedulingMode::TaskBased);
        // every metered message carries the tile payload of 64 bytes
        prop_assert_eq!(s.bytes, s.messages * 64);
        // the schedule reports the graph's own meter
        let metered = g.comm();
        prop_assert_eq!(
            (s.messages, s.bytes),
            (metered.point_to_point_messages, metered.point_to_point_bytes)
        );
    }
}
