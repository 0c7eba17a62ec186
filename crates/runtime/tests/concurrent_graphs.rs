//! Several threads outside the pool run task graphs at once on a pool wider
//! than they are many. A lane serves the pool's injection queue between two
//! of its tasks, and what it picks up there may be another graph's whole
//! fan-out, whose idle frames steal unstarted lanes of the first graph: the
//! lane must have booked its finished task before, or those lanes wait for
//! its successors on top of the frame that would release them.
//!
//! Alone in its binary: the pool width is read once per process.

use polar_runtime::{ExecOutcome, KernelKind, TaskDag, TileRef};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A chain of `links` diamonds (one task, two independent ones, a join):
/// ready tasks come one or two at a time, so lanes park and wake all along.
fn run_one_graph(links: usize) -> usize {
    let ran = AtomicUsize::new(0);
    let mut dag = TaskDag::new();
    let m = dag.new_matrix();
    let tile = |i: usize| TileRef::new(m, i, 0, 8);
    for _ in 0..links {
        let bump = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        dag.add(KernelKind::Geqrt, 0, 1.0, vec![], vec![tile(0)], bump);
        dag.add(KernelKind::Unmqr, 0, 1.0, vec![tile(0)], vec![tile(1)], bump);
        dag.add(KernelKind::Unmqr, 0, 1.0, vec![tile(0)], vec![tile(2)], bump);
        dag.add(KernelKind::Gemm, 0, 1.0, vec![tile(1), tile(2)], vec![tile(0)], bump);
    }
    assert_eq!(dag.execute(), ExecOutcome::Completed);
    ran.into_inner()
}

#[test]
fn graphs_launched_from_several_threads_all_drain() {
    std::env::set_var("POLAR_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4, "the pool was sized before this test");

    let (done, all_done) = mpsc::channel();
    for _ in 0..3 {
        let done = done.clone();
        std::thread::spawn(move || {
            for _ in 0..300 {
                assert_eq!(run_one_graph(8), 32);
            }
            done.send(()).unwrap();
        });
    }
    for _ in 0..3 {
        // seconds of work; a minute means a lane is parked for good
        all_done.recv_timeout(Duration::from_secs(60)).expect("a graph never drained");
    }
}
