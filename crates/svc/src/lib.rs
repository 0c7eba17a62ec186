//! # polar-svc — embeddable job service for polar-decomposition workloads
//!
//! The paper's benchmarks run one decomposition at a time on a dedicated
//! allocation. Production deployments of the same kernels (block
//! orthogonalization inside electronic-structure codes, batched subspace
//! projection) instead see *streams* of decomposition requests of mixed
//! sizes and urgencies. This crate wraps the workspace's QDWH solvers in
//! a small, embeddable job service:
//!
//! * **Admission** ([`queue`]): a bounded queue with backpressure.
//!   [`PolarService::try_submit`] fails fast with
//!   [`SubmitError::QueueFull`]; [`PolarService::submit`] blocks up to a
//!   deadline.
//! * **Dispatch** ([`dispatch`]): priority- plus size-aware ordering.
//!   Job cost is estimated with the paper's §4 flop formula
//!   ([`polar_qdwh::qdwh_flops`]); small jobs are batched onto one worker
//!   (amortizing scheduling overhead the way SLATE batches tile
//!   kernels), large jobs get a worker to themselves and fan out
//!   internally with `rayon`.
//! * **Execution** ([`worker`]): per-job timeout and cooperative
//!   cancellation, both enforced through the
//!   [`polar_qdwh::QdwhOptions::progress`] hook — at every tile-task
//!   release of a solve's graph, at every round of a batched wave, member
//!   by member; transient failures (classified by
//!   [`polar_qdwh::QdwhError::class`]) retry with exponential backoff,
//!   permanent ones reject immediately.
//! * **Telemetry** ([`metrics`], [`trace`]): counters, gauges and
//!   log-scale latency histograms with JSON/CSV export, plus per-job
//!   spans exported through the runtime's Chrome-trace writer so job
//!   lifetimes render exactly like simulated kernel timelines.
//! * **Lifecycle**: [`PolarService::drain`] completes in-flight work and
//!   rejects new submissions; [`PolarService::shutdown`] joins every
//!   thread.
//!
//! ```
//! use polar_svc::{JobSpec, PolarService, ServiceConfig};
//! use polar_gen::{generate, MatrixSpec};
//!
//! let svc = PolarService::start(ServiceConfig::default());
//! let (a, _) = generate::<f64>(&MatrixSpec::well_conditioned(32, 7));
//! let handle = svc.try_submit(JobSpec::qdwh(a)).unwrap();
//! let result = handle.wait();
//! assert!(result.output.is_ok());
//! svc.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
pub mod dispatch;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod service;
pub mod trace;
pub mod worker;

pub use cancel::CancelToken;
pub use fault::FaultPlan;
pub use job::{JobError, JobHandle, JobId, JobKind, JobOutput, JobResult, JobSpec};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use queue::SubmitError;
pub use service::{PolarService, ServiceConfig};
