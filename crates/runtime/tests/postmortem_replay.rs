//! Schedule replay gate: on a one-worker pool two in-process runs of the
//! same task dag must yield byte-identical post-mortem schedule digests. The digest ([`Postmortem::schedule_digest`]) is
//! timing-free — task counts, graph flops, and the execution order itself
//! — and renumbers process-global dag ids, so the only way two runs can
//! differ is a genuinely nondeterministic schedule, which is exactly the
//! regression this test pins.

use polar_runtime::{analyze, take_executed_graphs, KernelKind, TaskDag, TileRef};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tile(m: u32, i: usize, j: usize) -> TileRef {
    TileRef::new(m, i, j, 64)
}

/// A small diamond-plus-chain dag with enough width that a work-stealing
/// schedule would be racy: the one-lane drain must serialize it into one
/// stable order.
fn run_solve_once(pool: &rayon::ThreadPool) -> String {
    let scope = polar_obs::scope();
    let done = AtomicUsize::new(0);
    {
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        // layer 0: 4 independent "factor" tasks
        for j in 0..4 {
            dag.add(
                KernelKind::Geqrt,
                0,
                1e6 * (j + 1) as f64,
                vec![],
                vec![tile(m, 0, j)],
                || {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
        dag.next_phase();
        // layer 1: pairwise joins
        for j in 0..2 {
            dag.add(
                KernelKind::Gemm,
                0,
                2e6,
                vec![tile(m, 0, 2 * j), tile(m, 0, 2 * j + 1)],
                vec![tile(m, 1, j)],
                || {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
        dag.next_phase();
        // layer 2: final reduction
        dag.add(
            KernelKind::Potrf,
            0,
            5e5,
            vec![tile(m, 1, 0), tile(m, 1, 1)],
            vec![tile(m, 2, 0)],
            || {
                done.fetch_add(1, Ordering::Relaxed);
            },
        );
        pool.install(|| dag.execute());
    }
    assert_eq!(done.load(Ordering::Relaxed), 7, "every task body ran");

    let report = scope.finish();
    let graphs = take_executed_graphs();
    let pm = analyze(&report.spans, &graphs);
    assert_eq!(pm.dags.len(), 1, "one executed dag recorded");
    let d = &pm.dags[0];
    assert_eq!(d.spans, 7);
    assert_eq!(d.graph_tasks, 7);
    assert!(d.makespan_ns >= d.critical_path_ns);
    pm.schedule_digest()
}

#[test]
fn one_lane_replay_is_byte_stable() {
    let _g = polar_obs::scope_lock();
    // a one-worker pool pins the executor to its one sequential schedule
    let pool = rayon::ThreadPool::new(1);
    let first = run_solve_once(&pool);
    let second = run_solve_once(&pool);
    assert!(!first.is_empty());
    assert_eq!(first, second, "post-mortem digests diverged between replays");

    // The digest is order-sensitive: it must encode the actual schedule,
    // not just the task multiset. The one-lane drain pops ready
    // tasks by descending critical-path length, so the wide layer runs
    // heaviest-first (task 3 carries 4e6 flops, task 0 only 1e6).
    assert!(first.contains("order=[3, 2, 1, 0, 4, 5, 6]"), "unexpected digest: {first}");
}
