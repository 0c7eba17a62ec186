//! The service: wiring, lifecycle, and the public submit API.

use crate::dispatch::{run_dispatcher, DispatcherConfig, WorkItem};
use crate::fault::FaultPlan;
use crate::job::{JobHandle, JobSpec};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::queue::{AdmissionQueue, Bounded, SubmitError};
use crate::trace::SpanLog;
use crate::worker::{run_worker, ExecContext};
use polar_batch::CondestCache;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Construction-time knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue capacity; beyond it submissions feel backpressure.
    pub queue_capacity: usize,
    /// Max small jobs coalesced into one dispatched batch.
    pub batch_max: usize,
    /// Jobs estimated at or below this many flops count as "small" and
    /// are eligible for batching. Default: a 64×64 QDWH (paper cost
    /// model), about 2e7 flops.
    pub small_job_flops: f64,
    /// Bounded batch-gathering window: how long the dispatcher may hold
    /// an under-full same-shape `Batched` group open for late arrivals
    /// before dispatching it anyway. `None` (the default) keeps today's
    /// dispatch-immediately behavior; setting it trades up to that much
    /// first-job latency for fuller fused batches (watch the
    /// `batch_fill_ratio` metric).
    pub batch_gather_window: Option<Duration>,
    /// Default per-job wall-clock budget; `None` = unlimited.
    pub default_timeout: Option<Duration>,
    /// Retries after the first attempt for transient failures.
    pub max_retries: u32,
    /// First-retry backoff; doubles each retry.
    pub retry_backoff: Duration,
    /// Deterministic transient-fault injection (tests, chaos drills).
    pub fault: FaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8),
            queue_capacity: 64,
            batch_max: 4,
            small_job_flops: crate::dispatch::estimate_flops(crate::job::JobKind::Qdwh, 64, 64, 0),
            batch_gather_window: None,
            default_timeout: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            fault: FaultPlan::DISABLED,
        }
    }
}

/// A running polar-decomposition job service.
///
/// Dropping the service without calling [`PolarService::shutdown`]
/// detaches its threads (they exit once the work drains); call
/// `shutdown` (or `drain` + `shutdown`) for a deterministic stop.
pub struct PolarService {
    queue: Option<AdmissionQueue>,
    accepting: Arc<AtomicBool>,
    metrics: Arc<MetricsRegistry>,
    condest_cache: Arc<CondestCache>,
    spans: Arc<SpanLog>,
    started: Instant,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PolarService {
    /// Spawn the dispatcher and worker pool and start accepting jobs.
    pub fn start(cfg: ServiceConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::default());
        metrics.workers.store(cfg.workers.max(1) as u64, std::sync::atomic::Ordering::Relaxed);
        let spans = Arc::new(SpanLog::new());
        let accepting = Arc::new(AtomicBool::new(true));

        let (queue, admission_rx) =
            AdmissionQueue::new(cfg.queue_capacity, accepting.clone(), metrics.clone());

        // the work hand-off is shallow so priority decisions stay in the
        // heap until a worker is actually free
        let (work_tx, work_rx) = Bounded::<WorkItem>::new(1);

        let dispatcher = {
            let metrics = metrics.clone();
            let dcfg = DispatcherConfig {
                batch_max: cfg.batch_max.max(1),
                small_job_flops: cfg.small_job_flops,
                batch_gather_window: cfg.batch_gather_window,
            };
            std::thread::Builder::new()
                .name("polar-svc-dispatch".into())
                .spawn(move || run_dispatcher(admission_rx, work_tx, dcfg, metrics))
                .expect("spawn dispatcher")
        };

        // one condition-estimate cache for the whole service: every fused
        // batch reads and feeds it, so repeat (shape, cond-class) streams
        // skip the l_0 prologue after their first batch
        let condest_cache = Arc::new(CondestCache::new());
        let ctx = Arc::new(ExecContext {
            metrics: metrics.clone(),
            spans: spans.clone(),
            fault: cfg.fault,
            default_timeout: cfg.default_timeout,
            max_retries: cfg.max_retries,
            retry_backoff: cfg.retry_backoff,
            condest_cache: condest_cache.clone(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = work_rx.clone();
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("polar-svc-worker-{i}"))
                    .spawn(move || run_worker(i, rx, ctx))
                    .expect("spawn worker")
            })
            .collect();

        PolarService {
            queue: Some(queue),
            accepting,
            metrics,
            condest_cache,
            spans,
            started: Instant::now(),
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    fn queue(&self) -> Result<&AdmissionQueue, SubmitError> {
        self.queue.as_ref().ok_or(SubmitError::Stopped)
    }

    /// Non-blocking submission; [`SubmitError::QueueFull`] under
    /// backpressure.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.queue()?.submit(spec, Duration::ZERO)
    }

    /// Blocking submission: waits up to `deadline` for queue space.
    pub fn submit(&self, spec: JobSpec, deadline: Duration) -> Result<JobHandle, SubmitError> {
        self.queue()?.submit(spec, deadline)
    }

    /// Submit a group of same-shape matrices for the fused batched
    /// engine ([`crate::job::JobKind::Batched`]): each spec's kind is
    /// forced to `Batched` and the dispatcher re-coalesces them (with any
    /// other queued `Batched` jobs of that shape and the same solver
    /// options) into whole-batch solves.
    ///
    /// Mixed shapes are rejected up front with
    /// [`SubmitError::MixedShapes`] — the fused engine packs entries into
    /// one contiguous panel, so a group must be shape-homogeneous. If the
    /// queue fills partway through, the already-admitted jobs are
    /// cancelled and [`SubmitError::QueueFull`] is returned, so the call
    /// is all-or-nothing from the caller's perspective.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> Result<Vec<JobHandle>, SubmitError> {
        if let Some(first) = specs.first() {
            let expected = (first.matrix.nrows(), first.matrix.ncols());
            for (index, spec) in specs.iter().enumerate() {
                let got = (spec.matrix.nrows(), spec.matrix.ncols());
                if got != expected {
                    return Err(SubmitError::MixedShapes { index, expected, got });
                }
            }
        }
        let queue = self.queue()?;
        let mut handles = Vec::with_capacity(specs.len());
        for mut spec in specs {
            spec.kind = crate::job::JobKind::Batched;
            match queue.submit(spec, Duration::ZERO) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    for h in &handles {
                        h.cancel();
                    }
                    return Err(e);
                }
            }
        }
        Ok(handles)
    }

    /// Point-in-time metrics (counters, gauges, latency quantiles,
    /// throughput over service uptime).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut s = self.metrics.snapshot(self.started.elapsed());
        s.condest_hits = self.condest_cache.hits();
        s.condest_misses = self.condest_cache.misses();
        s
    }

    /// The service-wide condition-estimate cache (hit/miss counters are
    /// also exported through [`PolarService::metrics`]).
    pub fn condest_cache(&self) -> &Arc<CondestCache> {
        &self.condest_cache
    }

    /// Per-job spans recorded so far (Chrome-trace export via
    /// [`PolarService::write_chrome_trace`]).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Serialize all job spans as Chrome tracing JSON.
    pub fn write_chrome_trace<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        self.spans.write_chrome_trace(w)
    }

    /// Stop accepting new jobs and block until everything already
    /// admitted reaches a terminal state. Idempotent.
    pub fn drain(&self) {
        self.accepting.store(false, Ordering::Release);
        // after accepting=false no submission increments `submitted`, so
        // the target is stable once observed
        loop {
            let s = self.metrics.snapshot(self.started.elapsed());
            let terminal = s.completed + s.failed + s.cancelled + s.timed_out;
            if terminal >= s.submitted {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Drain, then join the dispatcher and every worker.
    pub fn shutdown(mut self) {
        self.drain();
        // closing admission lets the dispatcher exit, which closes the
        // work queue, which stops the workers
        drop(self.queue.take());
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
