//! `TaskDag::execute_until`: an external stop condition polled before
//! every task release, in both drains.

use polar_runtime::{ExecOutcome, KernelKind, TaskDag, TileRef};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn tile(m: u32, i: usize, j: usize) -> TileRef {
    TileRef::new(m, i, j, 64)
}

/// `phases` phases of `per_phase` independent counting tasks each.
fn phased_dag(phases: usize, per_phase: usize, ran: &AtomicUsize) -> TaskDag<'_> {
    let mut dag = TaskDag::new();
    let m = dag.new_matrix();
    for p in 0..phases {
        if p > 0 {
            dag.next_phase();
        }
        for j in 0..per_phase {
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, p, j)], move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
    }
    dag
}

#[test]
fn stop_in_the_sequential_drain_abandons_the_rest() {
    // a one-worker pool takes the same drain POLAR_DETERMINISTIC=1 does
    let pool = rayon::ThreadPool::new(1);
    let (ran, seen) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
    let stop = |at: usize| {
        let (ran, seen) = (&ran, &seen);
        move |frontier: u32| {
            seen.lock().unwrap().push(frontier);
            ran.load(Ordering::SeqCst) >= at
        }
    };
    let out = pool.install(|| phased_dag(4, 5, &ran).execute_until(stop(7)));
    assert_eq!(out, ExecOutcome::Cancelled);
    assert_eq!(ran.load(Ordering::SeqCst), 7, "one poll per release: stops exactly at 7");
    let frontiers = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(frontiers.len(), 8);
    assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "{frontiers:?}");
    assert_eq!(frontiers.last(), Some(&1), "phase 0 (5 tasks) had drained");

    ran.store(0, Ordering::SeqCst);
    let out = pool.install(|| phased_dag(4, 5, &ran).execute_until(stop(usize::MAX)));
    assert_eq!(out, ExecOutcome::Completed);
    assert_eq!(ran.load(Ordering::SeqCst), 20);
    let frontiers = seen.lock().unwrap();
    assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "{frontiers:?}");
    assert_eq!(frontiers.last(), Some(&3));
}

#[test]
fn stop_in_the_parallel_drain_lets_in_flight_bodies_finish() {
    if rayon::deterministic_mode().is_some() {
        return; // every graph takes the sequential drain
    }
    let pool = rayon::ThreadPool::new(2);
    pool.install(|| {
        // bodies 0 and 1 rendezvous, so both lanes are inside a body;
        // body 0 then asks for the stop, body 1 stays in flight until
        // the other lane's poll has fired
        use std::sync::atomic::AtomicBool;
        let both = std::sync::Barrier::new(2);
        let (wanted, fired, finished) =
            (AtomicBool::new(false), AtomicBool::new(false), AtomicBool::new(false));
        let ran = AtomicUsize::new(0);
        let mut dag = TaskDag::new();
        let m = dag.new_matrix();
        let (both, wanted, fired, finished, ran) = (&both, &wanted, &fired, &finished, &ran);
        for j in 0..16 {
            dag.add(KernelKind::Gemm, 0, 1.0, vec![], vec![tile(m, 0, j)], move || {
                ran.fetch_add(1, Ordering::SeqCst);
                if j < 2 {
                    both.wait();
                }
                if j == 0 {
                    wanted.store(true, Ordering::SeqCst);
                }
                if j == 1 {
                    while !fired.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    finished.store(true, Ordering::SeqCst);
                }
            });
        }
        let out = dag.execute_until(|_| {
            let stop = wanted.load(Ordering::SeqCst);
            fired.store(stop, Ordering::SeqCst);
            stop
        });
        assert_eq!(out, ExecOutcome::Cancelled);
        assert!(finished.load(Ordering::SeqCst), "execute_until waits for the in-flight body");
        assert_eq!(ran.load(Ordering::SeqCst), 2, "nothing was released after the stop");
        // the serial region of the stopped lanes' bodies is gone: a barrier
        // makes the two probes overlap, so they sit on both workers
        let on_both = std::sync::Barrier::new(2);
        let probe = || {
            on_both.wait();
            rayon::fork_width()
        };
        assert_eq!(rayon::join(probe, probe), (2, 2), "width restored after a stop");

        // a predicate that never fires is `execute()`
        let ran = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        let out = phased_dag(3, 8, &ran).execute_until(|frontier| {
            seen.lock().unwrap().push(frontier);
            false
        });
        assert_eq!(out, ExecOutcome::Completed);
        assert_eq!(ran.load(Ordering::SeqCst), 24);
        let frontiers = seen.lock().unwrap();
        assert_eq!(frontiers.len(), 24, "one poll per release");
        assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "{frontiers:?}");
    });
}
