//! Worker pool: executes dispatched jobs with timeout, cancellation,
//! fault injection, and retry-with-backoff.
//!
//! Workers share one MPMC work queue; each loops `pop -> execute` until
//! the dispatcher closes it. A [`WorkItem::Batch`] is fanned out inside
//! the worker with `rayon::join` (recursive halving), so a batch of small
//! jobs fills the worker's cores without occupying more than one dispatch
//! slot. Whatever ran a job, [`finish_job`] is how it ends.

use crate::dispatch::WorkItem;
use crate::fault::FaultPlan;
use crate::job::{JobError, JobOutput, JobResult, JobSpec};
use crate::metrics::MetricsRegistry;
use crate::queue::{AdmittedJob, Bounded};
use crate::trace::SpanLog;
use polar_batch::{qdwh_batched_each, BatchEntry, BatchOptions, CondestCache};
use polar_lapack::FailureClass;
use polar_qdwh::{
    qdwh, qdwh_svd, svd_based_polar, zolo_pd, IterationDecision, PolarDecomposition, ProgressHook,
    QdwhError, ZoloOptions,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution-time configuration shared by all workers.
pub(crate) struct ExecContext {
    pub metrics: Arc<MetricsRegistry>,
    pub spans: Arc<SpanLog>,
    pub fault: FaultPlan,
    pub default_timeout: Option<Duration>,
    /// Retries allowed *after* the first attempt for transient failures.
    pub max_retries: u32,
    /// First-retry backoff; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Service-wide condition-estimate cache fed to every fused batch.
    pub condest_cache: Arc<CondestCache>,
}

/// Worker thread body.
pub(crate) fn run_worker(worker_id: usize, work: Arc<Bounded<WorkItem>>, ctx: Arc<ExecContext>) {
    while let Ok(item) = work.pop(None) {
        match item {
            WorkItem::Single(job) => execute_job(*job, worker_id, 0, &ctx),
            WorkItem::Batch(batch) => run_batch(batch, worker_id, &ctx),
            WorkItem::Fused(batch) => run_fused(batch, worker_id, &ctx),
        }
    }
}

/// Recursive halving over the batch with `rayon::join`: lanes run
/// concurrently when threads are available, degrading gracefully to
/// sequential execution under load.
fn run_batch(batch: Vec<AdmittedJob>, worker_id: usize, ctx: &Arc<ExecContext>) {
    let indexed: Vec<(usize, AdmittedJob)> = batch.into_iter().enumerate().collect();
    run_batch_rec(indexed, worker_id, ctx);
}

fn run_batch_rec(mut jobs: Vec<(usize, AdmittedJob)>, worker_id: usize, ctx: &Arc<ExecContext>) {
    match jobs.len() {
        0 => {}
        1 => {
            let (lane, job) = jobs.pop().unwrap();
            execute_job(job, worker_id, lane, ctx);
        }
        n => {
            let rest = jobs.split_off(n / 2);
            let (a, b) = (jobs, rest);
            rayon::join(|| run_batch_rec(a, worker_id, ctx), || run_batch_rec(b, worker_id, ctx));
        }
    }
}

/// The budget a job runs under: its own, else the service default.
fn budget(job: &AdmittedJob, ctx: &ExecContext) -> Option<Duration> {
    job.spec.timeout.or(ctx.default_timeout)
}

/// When the budget of a job started at `start` runs out.
fn deadline(job: &AdmittedJob, start: Instant, ctx: &ExecContext) -> Option<Instant> {
    budget(job, ctx).map(|b| start + b)
}

/// The hook a job's solver polls: its cancel token, then its deadline.
fn job_hook(job: &AdmittedJob, deadline: Option<Instant>) -> ProgressHook {
    let cancel = job.cancel.clone();
    Arc::new(move |_progress| {
        if cancel.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d) {
            IterationDecision::Cancel
        } else {
            IterationDecision::Continue
        }
    })
}

/// What [`job_hook`] firing meant: the token beats the deadline for
/// attribution.
fn hook_fired(job: &AdmittedJob, ctx: &ExecContext) -> JobError {
    if job.cancel.is_cancelled() {
        JobError::Cancelled
    } else {
        JobError::TimedOut { budget: budget(job, ctx).unwrap_or_default() }
    }
}

/// Execute a shape-homogeneous group of [`crate::job::JobKind::Batched`]
/// jobs as one engine call: the wave is every member's first attempt, each
/// under its own hook. Jobs that are already cancelled or flagged by the
/// fault injector take the scalar path (which owns those semantics), and so
/// does, alone and from its second attempt on, a member the engine failed:
/// the retry policy lives there.
fn run_fused(batch: Vec<AdmittedJob>, worker_id: usize, ctx: &Arc<ExecContext>) {
    let mut fused: Vec<AdmittedJob> = Vec::new();
    for job in batch {
        if job.cancel.is_cancelled() || ctx.fault.should_fail(job.id.0, 1) {
            execute_job(job, worker_id, 0, ctx);
        } else {
            fused.push(job);
        }
    }
    if fused.is_empty() {
        return;
    }

    let lanes = fused.len();
    ctx.metrics.in_flight.fetch_add(lanes as i64, Ordering::Relaxed);
    let start = Instant::now();

    let mut entries: Vec<BatchEntry<f64>> = fused
        .iter()
        .map(|job| BatchEntry {
            cond_hint: job.spec.cond_hint,
            progress: Some(job_hook(job, deadline(job, start, ctx))),
            ..BatchEntry::new(job.spec.matrix.clone())
        })
        .collect();
    // the dispatcher fuses only jobs whose solver options agree
    // (`dispatch::fuses_with`), so any member's set speaks for the group
    let opts = BatchOptions {
        qdwh: fused[0].spec.opts.clone(),
        condest_cache: Some(ctx.condest_cache.clone()),
        ..Default::default()
    };
    // a wave refused whole (a wide shape) is every member's own failure
    let verdicts = qdwh_batched_each(&mut entries, &opts)
        .unwrap_or_else(|refused| vec![Err(QdwhError::from(refused)); lanes]);
    ctx.metrics.in_flight.fetch_sub(lanes as i64, Ordering::Relaxed);

    // one whole-batch span (slot 0), then a lane span per member
    let first = fused[0].id.0;
    ctx.spans.record_labeled(first, worker_id, 0, start, Instant::now(), Some("fused_batch"));
    for (lane, ((job, entry), verdict)) in fused.into_iter().zip(entries).zip(verdicts).enumerate()
    {
        let output = match verdict {
            Ok(info) => Ok(JobOutput::Polar(PolarDecomposition { u: entry.u, h: entry.h, info })),
            Err(QdwhError::Cancelled { .. }) => Err(hook_fired(&job, ctx)),
            Err(e) => {
                run_attempts(job, worker_id, lane + 1, ctx, start, Some(e));
                continue;
            }
        };
        finish_job(job, worker_id, lane + 1, ctx, start, 1, output);
    }
}

fn solve(
    spec: &JobSpec,
    hook: ProgressHook,
    metrics: &MetricsRegistry,
) -> Result<JobOutput, QdwhError> {
    let mut opts = spec.opts.clone();
    opts.progress = Some(hook.clone());
    match spec.kind {
        // a Batched job on the scalar path (fault injection, a retry) is
        // just a QDWH solve
        crate::job::JobKind::Qdwh | crate::job::JobKind::Batched => {
            qdwh(&spec.matrix, &opts).map(JobOutput::Polar)
        }
        crate::job::JobKind::QdwhSvd => qdwh_svd(&spec.matrix, &opts).map(JobOutput::Svd),
        // the Jacobi baseline has no iteration hook; cancellation and
        // deadline are checked between attempts only
        crate::job::JobKind::SvdPolar => svd_based_polar(&spec.matrix).map(JobOutput::Polar),
        crate::job::JobKind::Zolo => {
            let zolo = ZoloOptions { progress: Some(hook), ..spec.zolo.clone() };
            zolo_pd(&spec.matrix, &zolo).map(|out| {
                MetricsRegistry::inc(&metrics.zolo_jobs);
                metrics.zolo_qr_total.fetch_add(out.qr_factorizations as u64, Ordering::Relaxed);
                JobOutput::Polar(out.pd)
            })
        }
    }
}

/// Synthetic transient failure used by the injector (the shape a
/// preempted accelerator or exhausted budget produces).
fn injected_error() -> QdwhError {
    QdwhError::NoConvergence { iterations: 0 }
}

fn execute_job(job: AdmittedJob, worker_id: usize, lane: usize, ctx: &Arc<ExecContext>) {
    // cancelled while still queued: never starts
    if job.cancel.is_cancelled() {
        MetricsRegistry::inc(&ctx.metrics.cancelled);
        let _ = job.result_tx.send(JobResult {
            id: job.id,
            attempts: 0,
            wait: job.submitted.elapsed(),
            run: Duration::ZERO,
            output: Err(JobError::Cancelled),
        });
        return;
    }
    run_attempts(job, worker_id, lane, ctx, Instant::now(), None);
}

/// The attempt loop of a job that started at `start`. `first` is what a
/// fused wave already said about its first attempt.
fn run_attempts(
    job: AdmittedJob,
    worker_id: usize,
    lane: usize,
    ctx: &Arc<ExecContext>,
    start: Instant,
    mut first: Option<QdwhError>,
) {
    let metrics = &ctx.metrics;
    metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let deadline = deadline(&job, start, ctx);
    let hook = job_hook(&job, deadline);

    let mut attempts = 0u32;
    let outcome: Result<JobOutput, JobError> = loop {
        attempts += 1;
        let result = if let Some(e) = first.take() {
            Err(e)
        } else if ctx.fault.should_fail(job.id.0, attempts) {
            MetricsRegistry::inc(&metrics.injected_faults);
            Err(injected_error())
        } else {
            solve(&job.spec, hook.clone(), metrics)
        };

        match result {
            Ok(out) => break Ok(out),
            Err(QdwhError::Cancelled { .. }) => break Err(hook_fired(&job, ctx)),
            Err(e) => {
                let retryable = e.class() == FailureClass::Transient
                    && attempts <= ctx.max_retries
                    && !job.cancel.is_cancelled()
                    && deadline.map(|d| Instant::now() < d).unwrap_or(true);
                if !retryable {
                    break Err(JobError::Failed { error: e, attempts });
                }
                MetricsRegistry::inc(&metrics.retries);
                // exponential backoff, capped by the remaining budget
                let mut pause = ctx.retry_backoff * 2u32.saturating_pow(attempts - 1);
                if let Some(d) = deadline {
                    pause = pause.min(d.saturating_duration_since(Instant::now()));
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
    };
    metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    finish_job(job, worker_id, lane, ctx, start, attempts, outcome);
}

/// The one way a job that ran ends: latency histograms, the health
/// window, the outcome counter, its span, then the result to its handle.
fn finish_job(
    job: AdmittedJob,
    worker_id: usize,
    lane: usize,
    ctx: &ExecContext,
    start: Instant,
    attempts: u32,
    output: Result<JobOutput, JobError>,
) {
    let metrics = &ctx.metrics;
    let end = Instant::now();
    let (wait, run) = (start.duration_since(job.submitted), end.duration_since(start));
    metrics.wait.record(wait);
    metrics.run.record(run);
    metrics.health.record(polar_obs::now_ns(), wait.as_nanos() as u64, run.as_nanos() as u64);
    ctx.spans.record(job.id.0, worker_id, lane, start, end);
    MetricsRegistry::inc(match &output {
        Ok(_) => &metrics.completed,
        Err(JobError::Cancelled) => &metrics.cancelled,
        Err(JobError::TimedOut { .. }) => &metrics.timed_out,
        Err(_) => &metrics.failed,
    });
    let _ = job.result_tx.send(JobResult { id: job.id, attempts, wait, run, output });
}
