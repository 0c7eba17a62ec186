//! Job vocabulary: what clients submit and what they get back.

use crate::cancel::CancelToken;
use polar_matrix::Matrix;
use polar_qdwh::{PolarDecomposition, QdwhError, QdwhOptions, QdwhSvd, ZoloOptions};
use std::time::Duration;

/// Monotonically increasing job identifier, assigned at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Which solver a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// QDWH polar decomposition (Algorithm 1) — the workhorse.
    Qdwh,
    /// Thin SVD via QDWH-PD + Hermitian EVD (§3 application).
    QdwhSvd,
    /// SVD-based polar decomposition, the paper's §3 baseline.
    SvdPolar,
    /// QDWH via the batched engine (`polar-batch`): the dispatcher
    /// coalesces `Batched` jobs of one shape and one set of solver options
    /// into a group and the worker solves the whole group as one
    /// `qdwh_batched` call — one dispatch slot, the group cut into one
    /// contiguous chunk per pool lane, each chunk solved start to finish
    /// in batch-major rounds. A member is told what a scalar job is told:
    /// its own failure, cancellation or deadline ends it at the next round
    /// and leaves the rest of its wave untouched.
    Batched,
    /// Zolotarev polar decomposition (`zolo_pd`): trades `r` times the
    /// flops of QDWH for fewer iterations, with the r shifted stacked-QR
    /// terms of each iteration running concurrently in one task graph.
    /// Configure via [`JobSpec::zolo`] /
    /// [`JobSpec::with_zolo_r`].
    Zolo,
}

/// A unit of work: solver kind, input matrix, and scheduling knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub kind: JobKind,
    /// Input matrix (`m >= n` as the solvers require).
    pub matrix: Matrix<f64>,
    /// Higher runs earlier. Ties break toward cheaper jobs
    /// (shortest-job-first), then submission order.
    pub priority: u8,
    /// Per-job wall-clock budget measured from run start; `None` falls
    /// back to the service default. Enforced where the solver polls its
    /// progress hook: at every task release of the solve's graph, so within
    /// one tile task at any size; at every round of a [`JobKind::Batched`]
    /// wave.
    pub timeout: Option<Duration>,
    /// Solver options (the service overwrites the `progress` hook).
    pub opts: QdwhOptions,
    /// Zolotarev options, consulted only by [`JobKind::Zolo`] jobs
    /// (`zolo.r` picks the degree; the service overwrites the `progress`
    /// hook).
    pub zolo: ZoloOptions,
    /// Client-supplied condition-number estimate for the input (e.g. a
    /// tensor-network loop that knows its truncation spectra). Consulted
    /// only on the fused [`JobKind::Batched`] path, where it keys the
    /// service-wide condition-estimate cache so repeat shapes skip the
    /// `l_0` prologue. A wrong hint costs iterations, never accuracy.
    pub cond_hint: Option<f64>,
}

impl JobSpec {
    pub fn qdwh(matrix: Matrix<f64>) -> Self {
        Self::new(JobKind::Qdwh, matrix)
    }

    /// A job for the fused batched engine (see [`JobKind::Batched`]).
    pub fn batched(matrix: Matrix<f64>) -> Self {
        Self::new(JobKind::Batched, matrix)
    }

    /// A Zolotarev polar-decomposition job (see [`JobKind::Zolo`]).
    pub fn zolo(matrix: Matrix<f64>) -> Self {
        Self::new(JobKind::Zolo, matrix)
    }

    pub fn new(kind: JobKind, matrix: Matrix<f64>) -> Self {
        JobSpec {
            kind,
            matrix,
            priority: 0,
            timeout: None,
            opts: QdwhOptions::default(),
            zolo: ZoloOptions::default(),
            cond_hint: None,
        }
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set the Zolotarev degree `r ∈ 1..=8` for a [`JobKind::Zolo`] job.
    pub fn with_zolo_r(mut self, r: usize) -> Self {
        self.zolo.r = r;
        self
    }

    /// Attach a condition-number hint (see [`JobSpec::cond_hint`]).
    pub fn with_cond_hint(mut self, cond: f64) -> Self {
        self.cond_hint = Some(cond);
        self
    }
}

/// Successful payload, by solver kind.
#[derive(Debug, Clone)]
pub enum JobOutput {
    Polar(PolarDecomposition<f64>),
    Svd(QdwhSvd<f64>),
}

impl JobOutput {
    /// The unitary polar factor / left singular vectors, whichever the
    /// job produced.
    pub fn u(&self) -> &Matrix<f64> {
        match self {
            JobOutput::Polar(pd) => &pd.u,
            JobOutput::Svd(svd) => &svd.u,
        }
    }
}

/// Why a job did not produce output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Cancelled via its [`CancelToken`] (possibly while still queued).
    Cancelled,
    /// Exceeded its wall-clock budget; reports the budget that was
    /// enforced.
    TimedOut { budget: Duration },
    /// The solver failed and no retry budget remained (or the failure was
    /// permanent). `attempts` counts executions, so `1` means no retry.
    Failed { error: QdwhError, attempts: u32 },
    /// The service stopped before the job ran.
    ServiceStopped,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "cancelled"),
            JobError::TimedOut { budget } => write!(f, "timed out after {budget:?}"),
            JobError::Failed { error, attempts } => {
                write!(f, "failed after {attempts} attempt(s): {error}")
            }
            JobError::ServiceStopped => write!(f, "service stopped before execution"),
        }
    }
}

impl std::error::Error for JobError {}

/// Terminal record for one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub id: JobId,
    /// Executions performed (retries count; a queue-side cancellation is
    /// zero attempts).
    pub attempts: u32,
    /// Admission → first run start.
    pub wait: Duration,
    /// Cumulative execution time across attempts.
    pub run: Duration,
    pub output: Result<JobOutput, JobError>,
}

/// Client-side handle returned at submission.
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) cancel: CancelToken,
    pub(crate) result: std::sync::mpsc::Receiver<JobResult>,
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// A token that cancels this job cooperatively.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Request cancellation (takes effect at the solver's next progress
    /// poll, or before start).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> JobResult {
        match self.result.recv() {
            Ok(r) => r,
            Err(_) => JobResult {
                id: self.id,
                attempts: 0,
                wait: Duration::ZERO,
                run: Duration::ZERO,
                output: Err(JobError::ServiceStopped),
            },
        }
    }

    /// Non-blocking poll; `None` while the job is still queued/running.
    pub fn try_wait(&self) -> Option<JobResult> {
        self.result.try_recv().ok()
    }
}
