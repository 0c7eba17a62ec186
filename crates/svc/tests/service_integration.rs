//! End-to-end acceptance tests for the job service: backpressure,
//! cooperative cancellation, deadline enforcement, fault-injected
//! retries, drain semantics, and telemetry export.

use polar_gen::{generate, MatrixSpec};
use polar_matrix::Matrix;
use polar_qdwh::{IterationPath, QdwhError, QdwhOptions};
use polar_svc::{
    FaultPlan, JobError, JobKind, JobOutput, JobSpec, PolarService, ServiceConfig, SubmitError,
};
use std::time::{Duration, Instant};

/// A forced-QR job of order `n`: nine iterations, polled at every task
/// release.
fn slow_job_of(n: usize) -> JobSpec {
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 3));
    let mut spec = JobSpec::qdwh(a);
    spec.opts = QdwhOptions {
        path: IterationPath::ForceQr,
        l0_override: Some(1e-20),
        ..Default::default()
    };
    spec
}

/// The order at which [`slow_job_of`] keeps a worker busy for a few hundred
/// milliseconds in this build, whatever the profile (n = 100 does in a
/// debug build and takes 14 ms in a release one): sized once per process by
/// timing runs of growing order.
fn slow_order() -> usize {
    static ORDER: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ORDER.get_or_init(|| {
        let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
        let mut n = 100;
        while n < 500 {
            let r = svc.try_submit(slow_job_of(n)).unwrap().wait();
            assert!(r.output.is_ok());
            if r.run >= Duration::from_millis(150) {
                break;
            }
            n = (n * 3 / 2).min(500); // ~3.4x the work
        }
        svc.shutdown();
        n
    })
}

/// A job that keeps a worker busy for a few hundred milliseconds. Tests
/// that act *during* a run wait for the run to show in the metrics
/// ([`wait_in_flight`]), not for a measured share of another run.
fn slow_job() -> JobSpec {
    slow_job_of(slow_order())
}

/// Block until exactly `n` jobs are executing.
fn wait_in_flight(svc: &PolarService, n: u64) {
    let give_up = Instant::now() + Duration::from_secs(60);
    while svc.metrics().in_flight != n {
        assert!(Instant::now() < give_up, "never saw {n} jobs in flight");
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn small_job(seed: u64) -> JobSpec {
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, seed));
    JobSpec::qdwh(a)
}

#[test]
fn normal_jobs_complete_with_correct_factors() {
    let svc = PolarService::start(ServiceConfig::default());
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(48, 5));
    let h = svc.try_submit(JobSpec::qdwh(a.clone())).unwrap();
    let r = h.wait();
    let out = r.output.expect("job succeeds");
    assert!(polar_qdwh::orthogonality_error(out.u()) < 1e-12);
    assert_eq!(r.attempts, 1);
    assert!(r.run > Duration::ZERO);

    // all solver kinds work end to end, Zolo-PD among them
    let (b, _) = generate::<f64>(&MatrixSpec::well_conditioned(24, 6));
    for (kind, terms) in
        [(JobKind::Qdwh, 1), (JobKind::QdwhSvd, 1), (JobKind::SvdPolar, 1), (JobKind::Qdwh, 8)]
    {
        let mut spec = JobSpec::new(kind, b.clone());
        spec.opts.terms = terms;
        let h = svc.try_submit(spec).unwrap();
        assert!(h.wait().output.is_ok(), "{kind:?} terms {terms}");
    }
    svc.shutdown();
}

#[test]
fn zolo_jobs_are_qdwh_jobs_with_terms() {
    let svc = PolarService::start(ServiceConfig::default());
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 9));
    let mut spec = JobSpec::qdwh(a.clone());
    // several tiles a term even at this test-sized n
    spec.opts = QdwhOptions { terms: 4, tile_nb: Some(8), ..Default::default() };
    let out = svc.try_submit(spec.clone()).unwrap().wait().output.expect("zolo job succeeds");
    let JobOutput::Polar(pd) = out else { panic!("a polar job answers with a decomposition") };
    assert!(polar_qdwh::orthogonality_error(&pd.u) < 1e-12);
    // the service ran the library's solve: the same four-term steps, bit for bit
    let direct = polar_qdwh::qdwh(&a, &spec.opts).unwrap();
    assert_eq!(pd.info.kinds, direct.info.kinds);
    assert_eq!(pd.u.as_slice(), direct.u.as_slice());
    svc.shutdown();
}

/// The batch engine plays one-term steps: a `Batched` job asking for more
/// fails at once, with no retry, instead of running as QDWH.
#[test]
fn a_batched_job_of_several_terms_fails_permanently() {
    let svc =
        PolarService::start(ServiceConfig { workers: 1, max_retries: 5, ..Default::default() });
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 12));
    let mut spec = JobSpec::batched(a);
    spec.opts.terms = 4;
    match svc.try_submit(spec).unwrap().wait().output {
        Err(JobError::Failed { error: QdwhError::Shape(_), attempts: 1 }) => {}
        other => panic!("expected a permanent Shape failure, got {other:?}"),
    }
    assert_eq!(svc.metrics().retries, 0);
    svc.shutdown();
}

#[test]
fn backpressure_rejects_with_queue_full() {
    // one worker, a one-slot admission queue, and every attempt of every
    // job failing with an injected transient fault + backoff: the worker
    // stays busy, the dispatcher blocks handing off the next job, and
    // the admission channel fills.
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        batch_max: 1,
        fault: FaultPlan { nth: 1, failures_per_job: 30 },
        max_retries: 30,
        retry_backoff: Duration::from_millis(20),
        default_timeout: Some(Duration::from_millis(300)),
        ..Default::default()
    });

    // A transient QueueFull can resolve while the dispatcher drains, so
    // loop until the *blocking* submit also sheds load — that means the
    // queue stayed full for its whole 10 ms deadline.
    let mut handles = Vec::new();
    let mut saw_queue_full = false;
    let mut blocking_queue_full = false;
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        match svc.try_submit(small_job(7)) {
            Ok(h) => handles.push(h),
            Err(SubmitError::QueueFull) => {
                saw_queue_full = true;
                match svc.submit(small_job(8), Duration::from_millis(10)) {
                    Err(SubmitError::QueueFull) => {
                        blocking_queue_full = true;
                        break;
                    }
                    // the dispatcher freed a slot mid-wait: keep loading
                    Ok(h) => handles.push(h),
                    Err(e) => panic!("unexpected submit error {e:?}"),
                }
            }
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
    }
    assert!(saw_queue_full, "bounded queue must shed load");
    assert!(blocking_queue_full, "blocking submit must time out while saturated");
    assert!(svc.metrics().rejected_full >= 2);

    svc.shutdown();
    // every admitted job reached a terminal state (fault plan + budget
    // means Failed, not success — they still must complete)
    for h in handles {
        assert!(h.try_wait().is_some(), "drain left a job unresolved");
    }
}

#[test]
fn cancellation_lands_between_iterations() {
    let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
    let full = svc.try_submit(slow_job()).unwrap().wait();
    assert!(full.output.is_ok(), "uncancelled job succeeds");

    let h = svc.try_submit(slow_job()).unwrap();
    // the job is running: cancel
    wait_in_flight(&svc, 1);
    h.cancel();
    let r = h.wait();
    assert_eq!(r.output.err(), Some(JobError::Cancelled));
    assert_eq!(r.attempts, 1, "was mid-run, not queued");
    assert!(r.run < full.run, "cancelled after {:?} of {:?}", r.run, full.run);
    assert_eq!(svc.metrics().cancelled, 1);
    svc.shutdown();
}

/// The n = 100 forced-QR job (`terms = 1`), or its Zolo-PD counterpart,
/// with small tiles: a few thousand tile tasks, so a cancel or a deadline
/// has to land *inside* the graph.
fn slow_fused_job(terms: usize) -> JobSpec {
    let mut spec = slow_job_of(100);
    spec.opts = QdwhOptions { terms, tile_nb: Some(16), ..spec.opts };
    spec
}

#[test]
fn cancel_and_deadline_land_inside_the_fused_graph() {
    for terms in [1, 2] {
        let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
        // the un-cancelled solve sets the scale
        let full = svc.try_submit(slow_fused_job(terms)).unwrap().wait();
        assert!(full.output.is_ok(), "terms {terms}: uncancelled job succeeds");
        let quarter = full.run / 4;

        let h = svc.try_submit(slow_fused_job(terms)).unwrap();
        wait_in_flight(&svc, 1);
        h.cancel();
        let r = h.wait();
        assert_eq!(r.output.err(), Some(JobError::Cancelled), "terms {terms}");
        assert_eq!(r.attempts, 1, "terms {terms}: was mid-run, not queued");
        assert!(r.run < full.run, "terms {terms}: cancelled after {:?} of {:?}", r.run, full.run);

        let h = svc.try_submit(slow_fused_job(terms).with_timeout(quarter)).unwrap();
        let r = h.wait();
        assert_eq!(r.output.err(), Some(JobError::TimedOut { budget: quarter }), "terms {terms}");
        assert!(r.run >= quarter, "terms {terms}: budget elapsed before the hook fired");
        assert!(r.run < full.run, "terms {terms}: timed out after {:?} of {:?}", r.run, full.run);

        let m = svc.metrics();
        assert_eq!((m.completed, m.cancelled, m.timed_out), (1, 1, 1), "terms {terms}");
        svc.shutdown();
    }
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
    let blocker = svc.try_submit(slow_job()).unwrap();
    let queued = svc.try_submit(small_job(9)).unwrap();
    queued.cancel();
    let r = queued.wait();
    assert_eq!(r.output.err(), Some(JobError::Cancelled));
    assert_eq!(r.attempts, 0, "never executed");
    assert!(blocker.wait().output.is_ok());
    svc.shutdown();
}

#[test]
fn timeout_is_enforced_and_reported() {
    let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
    let full = svc.try_submit(slow_job()).unwrap().wait();
    assert!(full.output.is_ok(), "unbudgeted job succeeds");
    let budget = full.run / 4;

    let h = svc.try_submit(slow_job().with_timeout(budget)).unwrap();
    let r = h.wait();
    assert_eq!(r.output.err(), Some(JobError::TimedOut { budget }));
    assert!(r.run >= budget, "budget elapsed before the hook fired");
    assert!(r.run < full.run, "timed out after {:?} of {:?}", r.run, full.run);
    assert_eq!(svc.metrics().timed_out, 1);
    svc.shutdown();
}

#[test]
fn injected_transient_fault_succeeds_on_retry() {
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        fault: FaultPlan { nth: 1, failures_per_job: 2 },
        max_retries: 3,
        retry_backoff: Duration::from_millis(1),
        ..Default::default()
    });
    let h = svc.try_submit(small_job(10)).unwrap();
    let r = h.wait();
    assert!(r.output.is_ok(), "survives transient faults: {:?}", r.output.err());
    assert_eq!(r.attempts, 3, "two injected failures, then success");
    let m = svc.metrics();
    assert_eq!(m.retries, 2);
    assert_eq!(m.injected_faults, 2);
    assert_eq!(m.completed, 1);
    svc.shutdown();
}

#[test]
fn retry_budget_exhaustion_fails_with_attempt_count() {
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        fault: FaultPlan { nth: 1, failures_per_job: 10 },
        max_retries: 2,
        retry_backoff: Duration::from_millis(1),
        ..Default::default()
    });
    let r = svc.try_submit(small_job(11)).unwrap().wait();
    match r.output {
        Err(JobError::Failed { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected exhaustion, got {other:?}"),
    }
    assert_eq!(svc.metrics().failed, 1);
    svc.shutdown();
}

#[test]
fn permanent_failures_do_not_retry() {
    let svc =
        PolarService::start(ServiceConfig { workers: 1, max_retries: 5, ..Default::default() });
    let mut a = Matrix::<f64>::identity(8, 8);
    a[(2, 3)] = f64::NAN;
    // a degree outside 1..=8 would size `r` workspaces: refused as a shape
    let mut out_of_range = JobSpec::qdwh(Matrix::identity(8, 8));
    out_of_range.opts.terms = 9;
    for (spec, why) in [(JobSpec::qdwh(a), "NonFinite"), (out_of_range, "Shape")] {
        match svc.try_submit(spec).unwrap().wait().output {
            Err(JobError::Failed { attempts, .. }) => {
                assert_eq!(attempts, 1, "{why} is permanent: no retry")
            }
            other => panic!("expected {why} failure, got {other:?}"),
        }
    }
    assert_eq!(svc.metrics().retries, 0);
    svc.shutdown();
}

#[test]
fn drain_completes_in_flight_work_then_rejects() {
    let svc = PolarService::start(ServiceConfig { workers: 2, ..Default::default() });
    let handles: Vec<_> = (0..6).map(|s| svc.try_submit(small_job(20 + s)).unwrap()).collect();
    svc.drain();

    // drained: everything submitted is terminal, nothing queued or running
    let m = svc.metrics();
    assert_eq!(m.completed, 6);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.in_flight, 0);
    for h in handles {
        assert!(h.try_wait().unwrap().output.is_ok());
    }

    // and no new work is accepted
    assert!(matches!(svc.try_submit(small_job(1)), Err(SubmitError::Stopped)));
    assert!(matches!(
        svc.submit(small_job(1), Duration::from_millis(5)),
        Err(SubmitError::Stopped)
    ));
    svc.shutdown();
}

#[test]
fn mixed_workload_batches_small_jobs_and_exports_telemetry() {
    let svc = PolarService::start(ServiceConfig {
        workers: 1, // one worker so small jobs pile up behind the large one
        batch_max: 4,
        ..Default::default()
    });

    // a large job occupies the worker while a burst of small jobs queues
    let (big, _) = generate::<f64>(&MatrixSpec::ill_conditioned(96, 30));
    let big_h = svc.try_submit(JobSpec::qdwh(big).with_priority(3)).unwrap();
    let small_hs: Vec<_> = (0..11).map(|s| svc.try_submit(small_job(40 + s)).unwrap()).collect();

    assert!(big_h.wait().output.is_ok());
    for h in small_hs {
        assert!(h.wait().output.is_ok());
    }
    svc.drain();

    let m = svc.metrics();
    assert_eq!(m.completed, 12);
    assert!(m.batches >= 1, "small jobs behind a busy worker must coalesce");
    assert!(m.wait.p50.is_some() && m.wait.p95.is_some() && m.wait.p99.is_some());
    assert!(m.run.p50.is_some());
    assert!(m.throughput_per_sec > 0.0);

    // exports: flat JSON + two-line CSV
    let json = m.to_json();
    assert!(json.contains("\"completed\": 12"));
    assert!(json.contains("wait_p95_us"));
    let csv = m.to_csv();
    assert_eq!(csv.lines().count(), 2);

    // Chrome trace: valid JSON array with one Job span per executed job
    let path = std::env::temp_dir().join("polar_svc_integration_trace.json");
    {
        let f = std::fs::File::create(&path).unwrap();
        svc.write_chrome_trace(f).unwrap();
    }
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(trace.trim_start().starts_with('['));
    assert!(trace.trim_end().ends_with(']'));
    assert_eq!(trace.matches("\"ph\": \"X\"").count(), 12);
    assert!(trace.contains("Job#"));
    // spans nest within service uptime and have positive duration
    for ev in svc.spans().events() {
        assert!(ev.end >= ev.start);
        assert!(ev.start >= 0.0);
    }
    svc.shutdown();
}

#[test]
fn priorities_order_queued_work() {
    // One worker pinned by two slow blockers (one running, one buffered
    // in the shallow work channel). Everything submitted meanwhile waits
    // in the dispatcher's heap, where priority ordering applies. At most
    // one low-priority job can escape ahead of the high-priority one
    // (the item the dispatcher may already hold while blocked on
    // handoff).
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        batch_max: 1, // no coalescing: observe pure priority order
        ..Default::default()
    });
    let blockers = [svc.try_submit(slow_job()).unwrap(), svc.try_submit(slow_job()).unwrap()];
    wait_in_flight(&svc, 1); // first blocker is running
    let lows: Vec<_> =
        (0..5).map(|s| svc.try_submit(small_job(50 + s).with_priority(0)).unwrap()).collect();
    let high = svc.try_submit(small_job(60).with_priority(9)).unwrap();

    for b in blockers {
        assert!(b.wait().output.is_ok());
    }
    let high_r = high.wait();
    assert!(high_r.output.is_ok());
    let low_rs: Vec<_> = lows.into_iter().map(|h| h.wait()).collect();
    let jumped = low_rs
        .iter()
        .filter(|r| {
            assert!(r.output.is_ok());
            r.wait < high_r.wait
        })
        .count();
    assert!(jumped <= 1, "{jumped} low-priority jobs ran before the high-priority one");
    svc.shutdown();
}

// ---- fused batched engine (JobKind::Batched) ----

#[test]
fn batched_jobs_fuse_and_produce_correct_factors() {
    let svc = PolarService::start(ServiceConfig { workers: 2, batch_max: 8, ..Default::default() });
    let specs: Vec<JobSpec> = (0..6)
        .map(|s| {
            let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 100 + s));
            JobSpec::batched(a)
        })
        .collect();
    let handles = svc.submit_batch(specs).unwrap();
    for h in handles {
        let r = h.wait();
        let out = r.output.expect("fused job succeeds");
        assert!(polar_qdwh::orthogonality_error(out.u()) < 1e-12);
        assert_eq!(r.attempts, 1);
    }
    svc.drain();
    let m = svc.metrics();
    assert!(m.fused_batches >= 1, "no fused dispatch recorded: {m:?}");
    assert_eq!(m.batch_size.count, m.fused_batches);
    assert_eq!(m.completed, 6);
    // the fused span is in the trace
    let mut buf = Vec::new();
    svc.write_chrome_trace(&mut buf).unwrap();
    assert!(String::from_utf8(buf).unwrap().contains("fused_batch"));
    svc.shutdown();
}

#[test]
fn same_shape_jobs_with_different_options_are_not_fused() {
    // one option set drives a fused group: a job that asked for H must not
    // ride behind a factor_only head (it used to, and got an empty H)
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        batch_max: 2,
        // hold the under-full groups open so both jobs are queued together
        batch_gather_window: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 70));
    let (b, _) = generate::<f64>(&MatrixSpec::ill_conditioned(32, 71));
    let mut u_only = JobSpec::batched(a);
    u_only.opts = QdwhOptions::factor_only();
    let handles = svc.submit_batch(vec![u_only, JobSpec::batched(b.clone())]).unwrap();
    let mut results = handles.into_iter().map(|h| h.wait().output.expect("job succeeds"));
    let (JobOutput::Polar(first), JobOutput::Polar(second)) =
        (results.next().unwrap(), results.next().unwrap())
    else {
        unreachable!("polar job kinds only")
    };
    assert_eq!(first.h.nrows(), 0, "factor_only job asked for no H");
    assert!(polar_qdwh::orthogonality_error(&first.u) < 1e-12);
    assert_eq!((second.h.nrows(), second.h.ncols()), (32, 32), "default job asked for H");
    assert!(polar_qdwh::orthogonality_error(&second.u) < 1e-12);
    assert!(second.backward_error(&b) < 1e-12);
    svc.drain();
    assert_eq!(svc.metrics().fused_batches, 2, "two option sets, two groups");
    svc.shutdown();
}

#[test]
fn mixed_shape_batch_rejected_with_typed_error_and_nothing_admitted() {
    let svc = PolarService::start(ServiceConfig::default());
    let mk = |n: usize, s: u64| {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, s));
        JobSpec::batched(a)
    };
    let err = match svc.submit_batch(vec![mk(16, 1), mk(16, 2), mk(24, 3)]) {
        Err(e) => e,
        Ok(_) => panic!("mixed-shape batch was admitted"),
    };
    assert_eq!(err, SubmitError::MixedShapes { index: 2, expected: (16, 16), got: (24, 24) });
    assert_eq!(svc.metrics().submitted, 0, "rejection must not admit anything");
    svc.shutdown();
}

#[test]
fn dispatcher_only_fuses_matching_shapes() {
    // two shape groups interleaved: every job must still complete, and
    // each fused group is shape-pure by construction (wrong grouping
    // would panic inside the engine's shape validation)
    let svc =
        PolarService::start(ServiceConfig { workers: 2, batch_max: 16, ..Default::default() });
    let mut handles = Vec::new();
    for s in 0..4u64 {
        for &n in &[16usize, 24] {
            let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(n, 7 * s + n as u64));
            handles.push(svc.try_submit(JobSpec::batched(a)).unwrap());
        }
    }
    for h in handles {
        let r = h.wait();
        assert!(r.output.is_ok(), "{:?}", r.output.err());
    }
    svc.shutdown();
}

#[test]
fn cancelled_batched_job_takes_scalar_path_and_reports_cancelled() {
    let svc = PolarService::start(ServiceConfig { workers: 1, ..Default::default() });
    // occupy the single worker so the batched jobs sit in the queue
    let blocker = svc.try_submit(slow_job()).unwrap();
    wait_in_flight(&svc, 1);
    let specs: Vec<JobSpec> = (0..2)
        .map(|s| {
            let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 200 + s));
            JobSpec::batched(a)
        })
        .collect();
    let handles = svc.submit_batch(specs).unwrap();
    handles[0].cancel();
    assert!(blocker.wait().output.is_ok());
    let r0 = handles.into_iter().next().unwrap().wait();
    assert_eq!(r0.output.unwrap_err(), JobError::Cancelled);
    svc.shutdown();
}

/// A service whose one worker solves eight queued `Batched` jobs of one
/// shape as one wave: the group ships the moment the eighth is queued.
fn one_wave_service(max_retries: u32) -> PolarService {
    PolarService::start(ServiceConfig {
        workers: 1,
        batch_max: 8,
        batch_gather_window: Some(Duration::from_secs(30)),
        max_retries,
        ..Default::default()
    })
}

fn batched_member(seed: u64, cond: f64) -> JobSpec {
    let spec = MatrixSpec {
        m: 32,
        n: 32,
        cond,
        distribution: polar_gen::SigmaDistribution::Geometric,
        seed,
    };
    JobSpec::batched(generate::<f64>(&spec).0)
}

#[test]
fn a_poisoned_member_of_a_wave_fails_alone() {
    let svc = one_wave_service(5);
    let mut specs: Vec<JobSpec> = (0..8).map(|s| batched_member(600 + s, 1e3)).collect();
    specs[3].matrix[(2, 3)] = f64::NAN;
    let results: Vec<_> = svc.submit_batch(specs).unwrap().into_iter().map(|h| h.wait()).collect();
    for (k, r) in results.iter().enumerate() {
        assert_eq!(r.attempts, 1, "member {k}: the wave was everyone's only attempt");
        match &r.output {
            Err(e) if k == 3 => {
                let error = polar_qdwh::QdwhError::NonFinite { iteration: 0 };
                assert_eq!(*e, JobError::Failed { error, attempts: 1 });
            }
            Ok(out) => assert!(polar_qdwh::orthogonality_error(out.u()) < 1e-12, "member {k}"),
            Err(e) => panic!("member {k} went down with the poisoned one: {e}"),
        }
    }
    svc.drain();
    // one engine call answered all eight; nobody was run again
    let m = svc.metrics();
    assert_eq!((m.fused_batches, m.fused_jobs), (1, 8), "{m:?}");
    assert_eq!((m.completed, m.failed, m.retries), (7, 1, 0), "{m:?}");
    svc.shutdown();
}

#[test]
fn a_transient_failure_in_a_wave_retries_alone_on_the_scalar_path() {
    // kappa = 2 converges in 4 rounds, kappa = 1e10 needs 5: the cap is a
    // transient failure, and the same cap fails both scalar retries
    let svc = one_wave_service(2);
    let mut specs: Vec<JobSpec> = (0..8).map(|s| batched_member(620 + s, 2.0)).collect();
    specs[5] = batched_member(625, 1e10);
    for spec in &mut specs {
        spec.opts.max_iterations = 4;
    }
    let results: Vec<_> = svc.submit_batch(specs).unwrap().into_iter().map(|h| h.wait()).collect();
    for (k, r) in results.iter().enumerate() {
        if k == 5 {
            let error = polar_qdwh::QdwhError::NoConvergence { iterations: 4 };
            assert_eq!(r.output.as_ref().err(), Some(&JobError::Failed { error, attempts: 3 }));
        } else {
            assert!(r.output.is_ok(), "member {k}: {:?}", r.output.as_ref().err());
            assert_eq!(r.attempts, 1, "member {k} was not run again");
        }
    }
    svc.drain();
    let m = svc.metrics();
    assert_eq!((m.fused_batches, m.fused_jobs), (1, 8), "{m:?}");
    assert_eq!((m.completed, m.failed, m.retries), (7, 1, 2), "{m:?}");
    svc.shutdown();
}

#[test]
fn cancel_and_deadline_end_one_member_each_of_a_wave_in_flight() {
    // nine forced-QR rounds an entry, at an order that keeps the wave in
    // flight for a good part of a second in this build
    let svc = one_wave_service(0);
    let budget = Duration::from_millis(1);
    let mut specs: Vec<JobSpec> = (0..8)
        .map(|_| JobSpec { kind: JobKind::Batched, ..slow_job_of(slow_order() / 2) })
        .collect();
    specs[5] = specs[5].clone().with_timeout(budget);
    let handles = svc.submit_batch(specs).unwrap();
    wait_in_flight(&svc, 8);
    handles[2].cancel();

    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    for (k, r) in results.iter().enumerate() {
        assert_eq!(r.attempts, 1, "member {k} rode the wave");
        match k {
            2 => assert_eq!(r.output.as_ref().err(), Some(&JobError::Cancelled)),
            5 => assert_eq!(r.output.as_ref().err(), Some(&JobError::TimedOut { budget })),
            _ => assert!(r.output.is_ok(), "member {k}: {:?}", r.output.as_ref().err()),
        }
    }
    svc.drain();
    let m = svc.metrics();
    assert_eq!((m.fused_batches, m.fused_jobs), (1, 8), "{m:?}");
    assert_eq!((m.completed, m.cancelled, m.timed_out), (6, 1, 1), "{m:?}");
    svc.shutdown();
}

#[test]
fn gather_window_coalesces_staggered_batched_submissions() {
    // without a window the first Batched job ships alone the instant a
    // worker frees up; the bounded window holds the under-full group open
    // so the stragglers ride the same fused dispatch
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        batch_max: 4,
        batch_gather_window: Some(Duration::from_millis(500)),
        ..Default::default()
    });
    let mk = |s: u64| {
        let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 300 + s));
        JobSpec::batched(a)
    };
    let first = svc.try_submit(mk(0)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut handles = vec![first];
    for s in 1..4u64 {
        handles.push(svc.try_submit(mk(s)).unwrap());
    }
    for h in handles {
        assert!(h.wait().output.is_ok());
    }
    svc.drain();
    let m = svc.metrics();
    assert_eq!(m.fused_batches, 1, "staggered jobs split across fused dispatches: {m:?}");
    assert_eq!(m.fused_jobs, 4);
    assert_eq!(m.fused_capacity, 4);
    assert!((m.batch_fill_ratio() - 1.0).abs() < 1e-12);
    assert!(m.to_json().contains("batch_fill_ratio"));
    svc.shutdown();
}

#[test]
fn gather_window_expiry_ships_underfull_group() {
    // a lone Batched job must not wait forever for company: once the
    // window lapses the fragment dispatches, and the fill ratio records
    // the unused capacity
    let svc = PolarService::start(ServiceConfig {
        workers: 1,
        batch_max: 4,
        batch_gather_window: Some(Duration::from_millis(20)),
        ..Default::default()
    });
    let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(16, 400));
    let h = svc.try_submit(JobSpec::batched(a)).unwrap();
    assert!(h.wait().output.is_ok());
    svc.drain();
    let m = svc.metrics();
    assert_eq!(m.fused_batches, 1);
    assert_eq!(m.fused_jobs, 1);
    assert!((m.batch_fill_ratio() - 0.25).abs() < 1e-12, "{}", m.batch_fill_ratio());
    svc.shutdown();
}

#[test]
fn cond_hints_feed_the_service_condest_cache() {
    // two same-shape hinted batches: the first misses and seeds the
    // service-wide cache, the second reuses its l_0 bound (hits) — and
    // the factors stay accurate either way
    let svc = PolarService::start(ServiceConfig { workers: 1, batch_max: 8, ..Default::default() });
    for round in 0..2u64 {
        let specs: Vec<JobSpec> = (0..4)
            .map(|s| {
                let (a, _) =
                    generate::<f64>(&MatrixSpec::ill_conditioned(24, 500 + 10 * round + s));
                JobSpec::batched(a).with_cond_hint(1e3)
            })
            .collect();
        for h in svc.submit_batch(specs).unwrap() {
            let r = h.wait();
            let out = r.output.expect("hinted fused job succeeds");
            assert!(polar_qdwh::orthogonality_error(out.u()) < 1e-12);
        }
    }
    svc.drain();
    let m = svc.metrics();
    assert!(m.condest_misses >= 1, "first hinted batch must miss: {m:?}");
    assert!(m.condest_hits >= 1, "second hinted batch must hit the cached bound: {m:?}");
    assert!(m.to_json().contains("condest_hits"));
    svc.shutdown();
}
