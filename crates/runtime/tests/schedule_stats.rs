//! Integration coverage for `ScheduleStats` degenerate-input behavior —
//! the numbers experiment reports and the service metrics layer depend on.
//! (Byte accounting is `TaskGraph::comm`, tested with the graph.)

use polar_runtime::ScheduleStats;

fn stats(makespan: f64, work: f64) -> ScheduleStats {
    ScheduleStats {
        makespan,
        total_task_seconds: work,
        per_rank_busy: vec![],
        messages: 0,
        bytes: 0,
        tasks: 0,
    }
}

#[test]
fn efficiency_zero_makespan_is_one() {
    assert_eq!(stats(0.0, 0.0).efficiency(8), 1.0);
    assert_eq!(stats(-1.0, 5.0).efficiency(8), 1.0);
}

#[test]
fn efficiency_zero_slots_is_zero_not_nan() {
    let e = stats(2.0, 10.0).efficiency(0);
    assert_eq!(e, 0.0);
    assert!(!e.is_nan());
}

#[test]
fn efficiency_regular_case() {
    // 10 seconds of work over 2 seconds on 8 slots = 62.5%
    assert!((stats(2.0, 10.0).efficiency(8) - 0.625).abs() < 1e-15);
}

#[test]
fn tflops_zero_makespan_is_zero() {
    assert_eq!(stats(0.0, 0.0).tflops(1e15), 0.0);
    assert_eq!(stats(-2.0, 0.0).tflops(1e15), 0.0);
}

#[test]
fn tflops_regular_case() {
    assert!((stats(2.0, 0.0).tflops(4e12) - 2.0).abs() < 1e-12);
}
