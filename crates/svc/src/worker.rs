//! Worker pool: executes dispatched jobs with timeout, cancellation,
//! fault injection, and retry-with-backoff.
//!
//! Workers share one MPMC work channel; each loops `recv -> execute`
//! until the dispatcher closes the channel. A [`WorkItem::Batch`] is fan
//! out inside the worker with `rayon::join` (recursive halving), so a
//! batch of small jobs fills the worker's cores without occupying more
//! than one dispatch slot.

use crate::dispatch::{RunnableJob, WorkItem};
use crate::fault::FaultPlan;
use crate::job::{JobError, JobOutput, JobResult, JobSpec};
use crate::metrics::MetricsRegistry;
use crate::trace::SpanLog;
use crossbeam::channel::Receiver;
use polar_batch::{qdwh_batched, BatchEntry, BatchOptions, CondestCache};
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
pub(crate) fn run_worker(worker_id: usize, work: Receiver<WorkItem>, ctx: Arc<ExecContext>) {
    while let Ok(item) = work.recv() {
        match item {
            WorkItem::Single(rj) => execute_job(*rj, worker_id, 0, &ctx),
            WorkItem::Batch(batch) => run_batch(batch, worker_id, &ctx),
            WorkItem::Fused(batch) => run_fused(batch, worker_id, &ctx),
        }
    }
}

/// Recursive halving over the batch with `rayon::join`: lanes run
/// concurrently when threads are available, degrading gracefully to
/// sequential execution under load.
fn run_batch(batch: Vec<RunnableJob>, worker_id: usize, ctx: &Arc<ExecContext>) {
    let indexed: Vec<(usize, RunnableJob)> = batch.into_iter().enumerate().collect();
    run_batch_rec(indexed, worker_id, ctx);
}

fn run_batch_rec(mut jobs: Vec<(usize, RunnableJob)>, worker_id: usize, ctx: &Arc<ExecContext>) {
    match jobs.len() {
        0 => {}
        1 => {
            let (lane, rj) = jobs.pop().unwrap();
            execute_job(rj, worker_id, lane, ctx);
        }
        n => {
            let rest = jobs.split_off(n / 2);
            let (a, b) = (jobs, rest);
            rayon::join(|| run_batch_rec(a, worker_id, ctx), || run_batch_rec(b, worker_id, ctx));
        }
    }
}

/// Execute a shape-homogeneous group of [`crate::job::JobKind::Batched`]
/// jobs as one `qdwh_batched` call. Jobs that are already cancelled or
/// flagged by the fault injector take the scalar path (which owns those
/// semantics); if the fused engine rejects the group, every member falls
/// back to scalar execution, so per-job retry/timeout behavior is
/// preserved on failure.
fn run_fused(batch: Vec<RunnableJob>, worker_id: usize, ctx: &Arc<ExecContext>) {
    let mut fused: Vec<RunnableJob> = Vec::new();
    for rj in batch {
        if rj.job.cancel.is_cancelled() || ctx.fault.should_fail(rj.job.id.0, 1) {
            execute_job(rj, worker_id, 0, ctx);
        } else {
            fused.push(rj);
        }
    }
    if fused.is_empty() {
        return;
    }

    let metrics = &ctx.metrics;
    let lanes = fused.len();
    metrics.in_flight.fetch_add(lanes as i64, Ordering::Relaxed);
    let start = Instant::now();

    let mut entries: Vec<BatchEntry<f64>> = fused
        .iter()
        .map(|rj| {
            let a = rj.job.spec.matrix.clone();
            match rj.job.spec.cond_hint {
                Some(c) => BatchEntry::with_cond_hint(a, c),
                None => BatchEntry::new(a),
            }
        })
        .collect();
    // the dispatcher fuses only jobs whose solver options agree
    // (`dispatch::fuses_with`), so any member's set speaks for the group
    let opts = BatchOptions {
        qdwh: {
            let mut o = fused[0].job.spec.opts.clone();
            o.progress = None; // no between-iteration hook in fused mode
            o
        },
        condest_cache: Some(ctx.condest_cache.clone()),
        ..Default::default()
    };
    let result = qdwh_batched(&mut entries, &opts);
    let end = Instant::now();
    let run = end.duration_since(start);
    metrics.in_flight.fetch_sub(lanes as i64, Ordering::Relaxed);

    match result {
        Ok(infos) => {
            // one whole-batch span (slot 0), then a lane span per member
            ctx.spans.record_labeled(
                fused[0].job.id.0,
                worker_id,
                0,
                start,
                end,
                Some("fused_batch"),
            );
            for (lane, ((rj, entry), info)) in fused.into_iter().zip(entries).zip(infos).enumerate()
            {
                let job = rj.job;
                let wait = start.duration_since(job.submitted);
                metrics.wait.record(wait);
                metrics.run.record(run);
                metrics.health.record(
                    polar_obs::now_ns(),
                    wait.as_nanos() as u64,
                    run.as_nanos() as u64,
                );
                MetricsRegistry::inc(&metrics.completed);
                ctx.spans.record(job.id.0, worker_id, lane + 1, start, end);
                let pd = PolarDecomposition { u: entry.u, h: entry.h, info };
                let _ = job.result_tx.send(JobResult {
                    id: job.id,
                    attempts: 1,
                    wait,
                    run,
                    output: Ok(JobOutput::Polar(pd)),
                });
            }
        }
        Err(e) => {
            polar_obs::log!(
                polar_obs::LogLevel::Error,
                "fused batch of {lanes} rejected ({e}); falling back to scalar jobs"
            );
            for rj in fused {
                execute_job(rj, worker_id, 0, ctx);
            }
        }
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
        // a Batched job on the scalar path (fallback, cancellation,
        // fault injection) is just a QDWH solve
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

fn execute_job(rj: RunnableJob, worker_id: usize, lane: usize, ctx: &Arc<ExecContext>) {
    let job = rj.job;
    let metrics = &ctx.metrics;

    // cancelled while still queued: never starts
    if job.cancel.is_cancelled() {
        MetricsRegistry::inc(&metrics.cancelled);
        let _ = job.result_tx.send(JobResult {
            id: job.id,
            attempts: 0,
            wait: job.submitted.elapsed(),
            run: Duration::ZERO,
            output: Err(JobError::Cancelled),
        });
        return;
    }

    metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let budget = job.spec.timeout.or(ctx.default_timeout);
    let start = Instant::now();
    let wait = start.duration_since(job.submitted);
    metrics.wait.record(wait);
    let deadline = budget.map(|b| start + b);

    let cancel = job.cancel.clone();
    let hook: ProgressHook = Arc::new(move |_progress| {
        if cancel.is_cancelled() {
            return IterationDecision::Cancel;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return IterationDecision::Cancel;
            }
        }
        IterationDecision::Continue
    });

    let mut attempts = 0u32;
    let outcome: Result<JobOutput, JobError> = loop {
        attempts += 1;
        let result = if ctx.fault.should_fail(job.id.0, attempts) {
            MetricsRegistry::inc(&metrics.injected_faults);
            Err(injected_error())
        } else {
            solve(&job.spec, hook.clone(), metrics)
        };

        match result {
            Ok(out) => break Ok(out),
            Err(QdwhError::Cancelled { .. }) => {
                // the hook fired: token beats deadline for attribution
                if job.cancel.is_cancelled() {
                    break Err(JobError::Cancelled);
                }
                break Err(JobError::TimedOut { budget: budget.unwrap_or_default() });
            }
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

    let end = Instant::now();
    let run = end.duration_since(start);
    metrics.run.record(run);
    metrics.health.record(polar_obs::now_ns(), wait.as_nanos() as u64, run.as_nanos() as u64);
    metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    ctx.spans.record(job.id.0, worker_id, lane, start, end);

    match &outcome {
        Ok(_) => MetricsRegistry::inc(&metrics.completed),
        Err(JobError::Cancelled) => MetricsRegistry::inc(&metrics.cancelled),
        Err(JobError::TimedOut { .. }) => MetricsRegistry::inc(&metrics.timed_out),
        Err(_) => MetricsRegistry::inc(&metrics.failed),
    }

    let _ = job.result_tx.send(JobResult { id: job.id, attempts, wait, run, output: outcome });
}
