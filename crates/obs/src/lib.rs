//! `polar-obs`: zero-dependency observability for the whole solver stack.
//!
//! The crate is a leaf of the workspace dependency graph (it depends on
//! nothing, everything else may depend on it) and provides four layers:
//!
//! 1. **Global state + epoch** — a single `AtomicU32` holds the
//!    metrics/trace enable bits, so the disabled fast path of every hook is
//!    one relaxed load and a branch. One process-wide [`epoch`] anchors all
//!    timestamps (solver spans and `polar-svc` job spans alike), so traces
//!    from different subsystems concatenate with aligned clocks.
//! 2. **Kernel accounting** — [`kernel_span`] RAII guards attribute wall
//!    time and analytic flops to a [`KernelClass`] (gemm / herk / trsm /
//!    geqrf / orgqr / potrf), with outermost-kernel suppression so a `gemm`
//!    issued *inside* `trsm` is not double-counted. [`kernel_snapshot`]
//!    reads the per-class totals; snapshot deltas give per-iteration
//!    breakdowns and achieved GFlop/s.
//! 3. **Structured spans** — [`span!`] / [`phase_span`] record start/end
//!    nanoseconds, worker lane, and nesting depth into per-thread buffers;
//!    [`take_spans`] drains them for export as a Chrome trace (one Perfetto
//!    lane per pool worker).
//! 4. **Registry + logging** — named [`counter`]/[`gauge`]/[`histogram`]
//!    instruments for low-rate events (pool steals, jobs), and a leveled
//!    [`log!`] macro honoring `POLAR_LOG={error,info,debug}`.
//!
//! Activation: set `POLAR_METRICS=1` and/or `POLAR_TRACE=<path>` in the
//! environment (see [`init_from_env`]), or use the programmatic
//! [`scope`] API which enables everything, runs, and hands back a
//! [`Report`].

#![forbid(unsafe_code)]

mod hist;
mod logging;
mod registry;
mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use logging::{capture_logs, log_enabled, log_message, set_log_level, LogCapture, LogLevel};
pub use registry::{
    counter, counters_snapshot, gauge, gauges_snapshot, histogram, histograms_snapshot, Counter,
    Gauge,
};
pub use span::{
    epoch, init_from_env, kernel_snapshot, kernel_span, leaf_span, metrics_enabled, now_ns,
    phase_span, phase_span_dims, reset_kernel_counters, run_with_ctx, scope, scope_lock,
    set_metrics_enabled, set_trace_enabled, set_worker_lane, take_spans, task_ctx, task_span,
    trace_enabled, worker_lane, EnvConfig, KernelClass, KernelCounts, KernelSnapshot, Report,
    Scope, SpanGuard, SpanRecord, TaskCtx, TaskLifecycle, KERNEL_CLASSES,
};

/// Open a structured span that lasts until the returned guard is dropped.
///
/// `span!("geqrf")` records a named phase span; `span!("geqrf", m, n)`
/// additionally records up to three dimensions. When tracing is disabled
/// the expansion is a relaxed atomic load and a branch.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::phase_span($name)
    };
    ($name:expr, $d0:expr) => {
        $crate::phase_span_dims($name, [$d0 as usize, 0, 0])
    };
    ($name:expr, $d0:expr, $d1:expr) => {
        $crate::phase_span_dims($name, [$d0 as usize, $d1 as usize, 0])
    };
    ($name:expr, $d0:expr, $d1:expr, $d2:expr) => {
        $crate::phase_span_dims($name, [$d0 as usize, $d1 as usize, $d2 as usize])
    };
}

/// Leveled logging macro. `obs::log!(LogLevel::Debug, "pool: {} workers", n)`
/// prints to stderr iff `POLAR_LOG` (or a programmatic [`set_log_level`])
/// admits the level.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $($arg:tt)+) => {
        if $crate::log_enabled($lvl) {
            $crate::log_message($lvl, module_path!(), format_args!($($arg)+));
        }
    };
}
