//! Global enable state, the process-wide epoch, kernel flop/time
//! accounting, and the structured span layer.
//!
//! Design constraints (from the observability issue):
//! * the disabled path of every hook must be a relaxed atomic load plus a
//!   branch — no allocation, no locking, no thread-local registration;
//! * spans are buffered per thread (a `Mutex<Vec<_>>` per thread that is
//!   only ever contended by the drain) so recording never serializes the
//!   pool workers against each other;
//! * kernel counters use *outermost-kernel attribution*: the `gemm` calls
//!   `trsm` issues internally must not be double-counted, including when
//!   the nested call runs on a different pool worker. The suppression
//!   depth is therefore part of [`TaskCtx`], which the rayon-shim pool
//!   captures at fork and restores inside stolen jobs.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const METRICS_BIT: u32 = 1;
const TRACE_BIT: u32 = 2;

static STATE: AtomicU32 = AtomicU32::new(0);

/// True when kernel/flop accounting is enabled (relaxed load + branch).
#[inline]
pub fn metrics_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & METRICS_BIT != 0
}

/// True when span tracing is enabled (relaxed load + branch).
#[inline]
pub fn trace_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE_BIT != 0
}

/// Enable or disable kernel/flop accounting globally.
pub fn set_metrics_enabled(on: bool) {
    if on {
        STATE.fetch_or(METRICS_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!METRICS_BIT, Ordering::Relaxed);
    }
}

/// Enable or disable span tracing globally.
pub fn set_trace_enabled(on: bool) {
    if on {
        STATE.fetch_or(TRACE_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!TRACE_BIT, Ordering::Relaxed);
    }
}

/// The process-wide time origin. Every timestamp recorded by this crate —
/// and by `polar_svc::SpanLog`, which reuses this epoch — is nanoseconds
/// since this instant, so traces from different subsystems concatenate
/// with aligned clocks.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Observability settings parsed from the environment by [`init_from_env`].
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    /// `POLAR_METRICS` was set to something other than `0`.
    pub metrics: bool,
    /// `POLAR_TRACE=<path>`: destination for the Chrome trace.
    pub trace_path: Option<std::path::PathBuf>,
}

/// Read `POLAR_METRICS` / `POLAR_TRACE` and enable the corresponding
/// subsystems. `POLAR_TRACE` implies metrics (a trace without counters is
/// rarely useful and the marginal cost is one atomic add per kernel).
pub fn init_from_env() -> EnvConfig {
    let metrics = std::env::var_os("POLAR_METRICS").is_some_and(|v| v != "0");
    let trace_path =
        std::env::var_os("POLAR_TRACE").filter(|v| !v.is_empty()).map(std::path::PathBuf::from);
    if metrics || trace_path.is_some() {
        set_metrics_enabled(true);
    }
    if trace_path.is_some() {
        set_trace_enabled(true);
    }
    EnvConfig { metrics, trace_path }
}

// ---------------------------------------------------------------------------
// Kernel classes and flop/time accounting
// ---------------------------------------------------------------------------

/// The kernel classes tracked by the flop accountant. These mirror the
/// paper's per-kernel breakdown: GEMM / HERK / TRSM from Level-3 BLAS and
/// the QR (geqrf + orgqr) vs. Cholesky (potrf) split of QDWH Eq. (1)/(2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelClass {
    /// General matrix multiply (including the `gemmA` variant).
    Gemm = 0,
    /// Hermitian rank-k update.
    Herk = 1,
    /// Triangular solve / triangular multiply.
    Trsm = 2,
    /// QR factorization (`geqrf`, stacked variant, tile `geqrt` / `tsqrt`).
    Geqrf = 3,
    /// Q formation / application (`orgqr`, `unmqr`).
    Orgqr = 4,
    /// Cholesky factorization.
    Potrf = 5,
    /// Anything else worth timing but not in the paper's model.
    Other = 6,
}

/// All kernel classes in index order (the order of [`KernelSnapshot`] rows).
pub const KERNEL_CLASSES: [KernelClass; 7] = [
    KernelClass::Gemm,
    KernelClass::Herk,
    KernelClass::Trsm,
    KernelClass::Geqrf,
    KernelClass::Orgqr,
    KernelClass::Potrf,
    KernelClass::Other,
];

impl KernelClass {
    /// Number of kernel classes (rows in a [`KernelSnapshot`]).
    pub const COUNT: usize = 7;

    /// Stable lowercase name used in JSON output and counter names.
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Gemm => "gemm",
            KernelClass::Herk => "herk",
            KernelClass::Trsm => "trsm",
            KernelClass::Geqrf => "geqrf",
            KernelClass::Orgqr => "orgqr",
            KernelClass::Potrf => "potrf",
            KernelClass::Other => "other",
        }
    }
}

#[derive(Default)]
struct ClassStats {
    calls: AtomicU64,
    flops: AtomicU64,
    time_ns: AtomicU64,
}

fn kernel_stats() -> &'static [ClassStats; KernelClass::COUNT] {
    static STATS: OnceLock<[ClassStats; KernelClass::COUNT]> = OnceLock::new();
    STATS.get_or_init(Default::default)
}

/// Totals for one kernel class: outermost calls, analytic real flops, and
/// wall nanoseconds attributed to the class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Number of outermost (non-nested) kernel invocations.
    pub calls: u64,
    /// Analytic real-flop total (complex kernels count 4x).
    pub flops: u64,
    /// Wall time of those invocations, in nanoseconds.
    pub time_ns: u64,
}

impl KernelCounts {
    /// Achieved GFlop/s (`flops / time`); zero when no time was recorded.
    pub fn gflops(&self) -> f64 {
        if self.time_ns == 0 {
            0.0
        } else {
            // flops per nanosecond is numerically equal to GFlop/s.
            self.flops as f64 / self.time_ns as f64
        }
    }

    fn saturating_sub(&self, earlier: &Self) -> Self {
        KernelCounts {
            calls: self.calls.saturating_sub(earlier.calls),
            flops: self.flops.saturating_sub(earlier.flops),
            time_ns: self.time_ns.saturating_sub(earlier.time_ns),
        }
    }
}

/// A point-in-time copy of every kernel class's counters. Differences of
/// two snapshots give per-phase / per-iteration breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// One row per [`KERNEL_CLASSES`] entry, in that order.
    pub classes: [KernelCounts; KernelClass::COUNT],
}

impl KernelSnapshot {
    /// Counters for one class.
    pub fn get(&self, class: KernelClass) -> KernelCounts {
        self.classes[class as usize]
    }

    /// Component-wise `self - earlier` (saturating).
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        let mut out = KernelSnapshot::default();
        for i in 0..KernelClass::COUNT {
            out.classes[i] = self.classes[i].saturating_sub(&earlier.classes[i]);
        }
        out
    }

    /// Total analytic flops across all classes.
    pub fn total_flops(&self) -> u64 {
        self.classes.iter().map(|c| c.flops).sum()
    }

    /// Total attributed kernel wall time in nanoseconds.
    pub fn total_time_ns(&self) -> u64 {
        self.classes.iter().map(|c| c.time_ns).sum()
    }

    /// Total outermost kernel invocations.
    pub fn total_calls(&self) -> u64 {
        self.classes.iter().map(|c| c.calls).sum()
    }

    /// Hand-rolled JSON object `{"gemm": {"calls": .., "flops": ..,
    /// "time_ns": .., "gflops": ..}, ...}` (classes with zero calls are
    /// skipped).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        let mut first = true;
        for class in KERNEL_CLASSES {
            let c = self.get(class);
            if c.calls == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\"{}\":{{\"calls\":{},\"flops\":{},\"time_ns\":{},\"gflops\":{:.3}}}",
                class.name(),
                c.calls,
                c.flops,
                c.time_ns,
                c.gflops()
            );
        }
        s.push('}');
        s
    }
}

/// Read the current kernel counter totals.
pub fn kernel_snapshot() -> KernelSnapshot {
    let stats = kernel_stats();
    let mut out = KernelSnapshot::default();
    for (i, s) in stats.iter().enumerate() {
        out.classes[i] = KernelCounts {
            calls: s.calls.load(Ordering::Relaxed),
            flops: s.flops.load(Ordering::Relaxed),
            time_ns: s.time_ns.load(Ordering::Relaxed),
        };
    }
    out
}

/// Reset all kernel counters to zero (test/bench isolation helper).
pub fn reset_kernel_counters() {
    for s in kernel_stats() {
        s.calls.store(0, Ordering::Relaxed);
        s.flops.store(0, Ordering::Relaxed);
        s.time_ns.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Per-thread state: worker lane, span nesting depth, kernel suppression
// ---------------------------------------------------------------------------

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
    static LOCAL_BUF: RefCell<Option<Arc<SpanBuf>>> = const { RefCell::new(None) };
}

/// Associate the calling thread with a pool worker lane. Lane 0 is
/// reserved for non-pool threads (the caller / main thread); pool worker
/// `i` becomes lane `i + 1`. Called by the rayon-shim at worker startup.
pub fn set_worker_lane(worker_index: usize) {
    LANE.with(|l| l.set(worker_index as u32 + 1));
}

/// The calling thread's trace lane (0 = external thread).
pub fn worker_lane() -> u32 {
    LANE.with(|l| l.get())
}

/// The observability context a forked task must inherit from its spawner:
/// currently just the kernel-suppression depth, so a `gemm` block that
/// `trsm` forks onto another worker still counts as *nested* and is not
/// double-counted. Captured by the pool at fork time via [`task_ctx`] and
/// reinstated around the job body with [`run_with_ctx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskCtx {
    suppress: u32,
}

/// Capture the calling thread's context for a task about to be forked.
#[inline]
pub fn task_ctx() -> TaskCtx {
    TaskCtx { suppress: SUPPRESS.with(|s| s.get()) }
}

/// Run `f` with the given forked-task context installed, restoring the
/// thread's previous context afterwards (including on unwind).
#[inline]
pub fn run_with_ctx<R>(ctx: TaskCtx, f: impl FnOnce() -> R) -> R {
    struct Restore(u32);
    impl Drop for Restore {
        fn drop(&mut self) {
            SUPPRESS.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SUPPRESS.with(|s| s.replace(ctx.suppress)));
    f()
}

// ---------------------------------------------------------------------------
// Span records and per-thread buffers
// ---------------------------------------------------------------------------

/// Scheduler-lifecycle metadata attached to DAG task spans by the
/// executor: which executed graph the task belongs to, its task id within
/// that graph, when its last dependency resolved (so queue wait is
/// `start_ns - ready_ns`), and the lane that released it (so a span whose
/// recording lane differs from `ready_lane` migrated between workers —
/// the shared-heap analogue of a deque steal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskLifecycle {
    /// Id of the executed DAG (one per `TaskDag::execute`).
    pub dag: u32,
    /// Task id within that DAG (index into the recorded `TaskGraph`).
    pub task: u32,
    /// Nanoseconds since [`epoch`] when the task's last predecessor
    /// completed (source tasks: when the ready heap was seeded).
    pub ready_ns: u64,
    /// Lane of the worker that made the task ready.
    pub ready_lane: u32,
}

/// One completed span: a named interval on a worker lane at a nesting
/// depth, optionally tagged with a kernel class and analytic flops.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name (kernel name or phase name).
    pub name: &'static str,
    /// Kernel class for kernel spans; `None` for phase spans.
    pub class: Option<KernelClass>,
    /// Globally unique, monotonically allocated sequence number.
    pub seq: u64,
    /// Trace lane: 0 = external thread, `i + 1` = pool worker `i`.
    pub lane: u32,
    /// Nesting depth on the recording thread at span start (0 = top).
    pub depth: u32,
    /// Start, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// End, nanoseconds since [`epoch`].
    pub end_ns: u64,
    /// Analytic real flops attributed to this span (0 for phase spans).
    pub flops: u64,
    /// Up to three problem dimensions (m, n, k); zeros when unused.
    pub dims: [usize; 3],
    /// Executor lifecycle metadata; `Some` only for DAG task spans
    /// ([`task_span`]) of a graph launched with tracing on.
    pub lifecycle: Option<TaskLifecycle>,
}

struct SpanBuf {
    events: Mutex<Vec<SpanRecord>>,
}

fn all_bufs() -> &'static Mutex<Vec<Arc<SpanBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<SpanBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

fn push_span(rec: SpanRecord) {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(SpanBuf { events: Mutex::new(Vec::new()) });
            all_bufs().lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        buf.events.lock().unwrap().push(rec);
    });
}

/// Drain every thread's span buffer, returning all completed spans sorted
/// by start time (ties broken by sequence number).
pub fn take_spans() -> Vec<SpanRecord> {
    let bufs: Vec<Arc<SpanBuf>> = all_bufs().lock().unwrap().clone();
    let mut out = Vec::new();
    for buf in bufs {
        out.append(&mut buf.events.lock().unwrap());
    }
    out.sort_by_key(|s| (s.start_ns, s.seq));
    out
}

// ---------------------------------------------------------------------------
// RAII guards
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: &'static str,
    class: Option<KernelClass>,
    flops: f64,
    dims: [usize; 3],
    lifecycle: Option<TaskLifecycle>,
    start_ns: u64,
    depth: u32,
    /// This span is the outermost kernel on its task and owns the
    /// class counters (it bumped SUPPRESS and must release it).
    counts: bool,
    /// Record a `SpanRecord` at drop (tracing was on at creation).
    traced: bool,
}

/// RAII guard returned by [`kernel_span`] / [`phase_span`] / [`span!`].
/// Dropping it ends the span. When observability is disabled the guard is
/// inert and creation cost one relaxed load.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard { active: None };
}

#[inline]
fn state() -> u32 {
    STATE.load(Ordering::Relaxed)
}

/// Open a kernel span: attributes `flops` analytic real flops and the
/// guard's wall time to `class` *if* this is the outermost kernel on the
/// current task, and records a trace span either way. `dims` are the
/// problem sizes (for the trace only). Disabled path: one relaxed load.
#[inline]
pub fn kernel_span(
    class: KernelClass,
    name: &'static str,
    flops: f64,
    dims: [usize; 3],
) -> SpanGuard {
    if state() == 0 {
        return SpanGuard::INERT;
    }
    span_slow(name, Some(class), flops, dims, None, true)
}

/// Open a trace-only span tagged with a kernel class: never touches the
/// class counters (used at leaf level, e.g. per packed-GEMM block, so the
/// per-worker lanes show where the flops actually ran). Disabled path:
/// one relaxed load.
#[inline]
pub fn leaf_span(
    class: KernelClass,
    name: &'static str,
    flops: f64,
    dims: [usize; 3],
) -> SpanGuard {
    if state() & TRACE_BIT == 0 {
        return SpanGuard::INERT;
    }
    span_slow(name, Some(class), flops, dims, None, false)
}

/// [`kernel_span`] for a DAG task body: on a graph the task is the counted
/// kernel — it owns the class counters with its analytic `flops`, and the
/// kernels its body calls are nested under it — unless the graph itself
/// runs inside a counted kernel. The trace span additionally carries the
/// executor's [`TaskLifecycle`] metadata when it stamped one, from which
/// the post-mortem analyzer reconstructs the executed graph (queue waits,
/// measured critical path, worker occupancy). [`SpanGuard::finish`] tells
/// the executor what was counted. Disabled path: one relaxed load.
#[inline]
pub fn task_span(
    class: KernelClass,
    name: &'static str,
    flops: f64,
    dims: [usize; 3],
    lifecycle: Option<TaskLifecycle>,
) -> SpanGuard {
    if state() == 0 {
        return SpanGuard::INERT;
    }
    span_slow(name, Some(class), flops, dims, lifecycle, true)
}

/// Open a named phase span (no kernel class, no flops): QDWH iterations,
/// solver phases, etc. Disabled path: one relaxed load.
#[inline]
pub fn phase_span(name: &'static str) -> SpanGuard {
    phase_span_dims(name, [0, 0, 0])
}

/// [`phase_span`] with problem dimensions attached.
#[inline]
pub fn phase_span_dims(name: &'static str, dims: [usize; 3]) -> SpanGuard {
    if state() & TRACE_BIT == 0 {
        return SpanGuard::INERT;
    }
    span_slow(name, None, 0.0, dims, None, false)
}

#[cold]
fn span_slow(
    name: &'static str,
    class: Option<KernelClass>,
    flops: f64,
    dims: [usize; 3],
    lifecycle: Option<TaskLifecycle>,
    want_counts: bool,
) -> SpanGuard {
    let st = state();
    let traced = st & TRACE_BIT != 0;
    let counts =
        want_counts && st & METRICS_BIT != 0 && class.is_some() && SUPPRESS.with(|s| s.get()) == 0;
    if counts {
        // Anything nested under this guard — same thread or forked to
        // another worker via the pool's TaskCtx — is a sub-kernel.
        SUPPRESS.with(|s| s.set(s.get() + 1));
    }
    if !counts && !traced {
        return SpanGuard::INERT;
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            class,
            flops,
            dims,
            lifecycle,
            start_ns: now_ns(),
            depth,
            counts,
            traced,
        }),
    }
}

impl SpanGuard {
    /// End the span now. The nanoseconds it added to its class's counters,
    /// if it owned them (metrics on, outermost kernel); `None` otherwise.
    pub fn finish(mut self) -> Option<u64> {
        self.end()
    }

    fn end(&mut self) -> Option<u64> {
        let a = self.active.take()?;
        let end_ns = now_ns();
        let elapsed = end_ns.saturating_sub(a.start_ns);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if a.counts {
            SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
            if let Some(class) = a.class {
                let stats = &kernel_stats()[class as usize];
                stats.calls.fetch_add(1, Ordering::Relaxed);
                stats.flops.fetch_add(a.flops.max(0.0).round() as u64, Ordering::Relaxed);
                stats.time_ns.fetch_add(elapsed, Ordering::Relaxed);
            }
        }
        if a.traced {
            push_span(SpanRecord {
                name: a.name,
                class: a.class,
                seq: next_seq(),
                lane: worker_lane(),
                depth: a.depth,
                start_ns: a.start_ns,
                end_ns,
                flops: a.flops.max(0.0).round() as u64,
                dims: a.dims,
                lifecycle: a.lifecycle,
            });
        }
        a.counts.then_some(elapsed)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end();
    }
}

// ---------------------------------------------------------------------------
// Programmatic scope API
// ---------------------------------------------------------------------------

/// Everything observed between [`scope`] and [`Scope::finish`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Kernel counter deltas accumulated inside the scope.
    pub kernels: KernelSnapshot,
    /// All spans recorded inside the scope, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Wall time of the scope in nanoseconds.
    pub wall_ns: u64,
}

impl Report {
    /// Overall achieved GFlop/s: total analytic flops over scope wall time.
    pub fn achieved_gflops(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.kernels.total_flops() as f64 / self.wall_ns as f64
        }
    }
}

/// Guard for a profiling scope opened with [`scope`]. Restores the prior
/// enable state when finished.
#[must_use = "call finish() to collect the report"]
pub struct Scope {
    baseline: KernelSnapshot,
    prev_state: u32,
    start_ns: u64,
}

/// Serialize callers that enable process-global observability (scopes,
/// counter assertions) — mainly tests, which otherwise interleave their
/// counter deltas. Poisoning is ignored: a panicked test must not
/// cascade.
pub fn scope_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enable metrics + tracing, discard any stale buffered spans, and return
/// a [`Scope`] whose [`finish`](Scope::finish) yields the [`Report`] for
/// everything run in between. Scopes are process-global: do not overlap
/// two scopes from different threads.
pub fn scope() -> Scope {
    let prev_state = STATE.fetch_or(METRICS_BIT | TRACE_BIT, Ordering::Relaxed);
    drop(take_spans()); // start with clean buffers
    Scope { baseline: kernel_snapshot(), prev_state, start_ns: now_ns() }
}

impl Scope {
    /// Close the scope: restore the previous enable state and collect the
    /// kernel deltas and spans observed since [`scope`] was called.
    pub fn finish(self) -> Report {
        let kernels = kernel_snapshot().delta(&self.baseline);
        let spans = take_spans();
        let wall_ns = now_ns().saturating_sub(self.start_ns);
        STATE.store(self.prev_state, Ordering::Relaxed);
        Report { kernels, spans, wall_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Obs state is process-global; the tests in this module serialize on
    // one mutex so enable bits and counters don't interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_guards_are_inert() {
        let _g = lock();
        set_metrics_enabled(false);
        set_trace_enabled(false);
        let before = kernel_snapshot();
        {
            let _k = kernel_span(KernelClass::Gemm, "gemm", 1e6, [8, 8, 8]);
            let _p = phase_span("phase");
        }
        assert_eq!(kernel_snapshot(), before);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn kernel_span_counts_flops_and_time() {
        let _g = lock();
        let s = scope();
        {
            let _k = kernel_span(KernelClass::Potrf, "potrf", 123.0, [4, 4, 0]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = s.finish();
        let c = report.kernels.get(KernelClass::Potrf);
        assert_eq!(c.calls, 1);
        assert_eq!(c.flops, 123);
        assert!(c.time_ns >= 1_000_000, "time_ns = {}", c.time_ns);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "potrf");
        assert!(report.spans[0].end_ns > report.spans[0].start_ns);
    }

    #[test]
    fn nested_kernels_count_once() {
        let _g = lock();
        let s = scope();
        {
            let _outer = kernel_span(KernelClass::Trsm, "trsm", 100.0, [4, 4, 0]);
            let _inner = kernel_span(KernelClass::Gemm, "gemm", 999.0, [4, 4, 4]);
        }
        let report = s.finish();
        assert_eq!(report.kernels.get(KernelClass::Trsm).calls, 1);
        assert_eq!(report.kernels.get(KernelClass::Gemm).calls, 0);
        // …but the trace still shows both spans, inner at depth 1.
        assert_eq!(report.spans.len(), 2);
        let inner = report.spans.iter().find(|s| s.name == "gemm").unwrap();
        assert_eq!(inner.depth, 1);
    }

    #[test]
    fn a_task_span_is_the_counted_kernel_and_says_so() {
        let _g = lock();
        let s = scope();
        let task = task_span(KernelClass::Geqrf, "task_geqrt", 40.0, [0; 3], None);
        drop(kernel_span(KernelClass::Gemm, "gemm", 999.0, [4, 4, 4]));
        let counted = task.finish();
        // a graph run inside a counted kernel: its tasks are nested in it
        let driver = kernel_span(KernelClass::Potrf, "potrf_tiled", 7.0, [0; 3]);
        assert_eq!(task_span(KernelClass::Potrf, "task_potrf", 5.0, [0; 3], None).finish(), None);
        drop(driver);
        let report = s.finish();
        let geqrf = report.kernels.get(KernelClass::Geqrf);
        assert_eq!((geqrf.calls, geqrf.flops, Some(geqrf.time_ns)), (1, 40, counted));
        assert_eq!(report.kernels.get(KernelClass::Gemm).calls, 0);
        assert_eq!(report.kernels.get(KernelClass::Potrf).flops, 7);
        assert_eq!(report.spans.len(), 4);
    }

    #[test]
    fn suppression_propagates_via_task_ctx() {
        let _g = lock();
        let s = scope();
        {
            let _outer = kernel_span(KernelClass::Herk, "herk", 50.0, [4, 4, 0]);
            let ctx = task_ctx();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    run_with_ctx(ctx, || {
                        let _nested = kernel_span(KernelClass::Gemm, "gemm", 77.0, [2, 2, 2]);
                    });
                    // Outside the ctx the same thread is top-level again.
                    let _top = kernel_span(KernelClass::Gemm, "gemm", 11.0, [2, 2, 2]);
                });
            });
        }
        let report = s.finish();
        assert_eq!(report.kernels.get(KernelClass::Herk).calls, 1);
        assert_eq!(report.kernels.get(KernelClass::Gemm).calls, 1);
        assert_eq!(report.kernels.get(KernelClass::Gemm).flops, 11);
    }

    #[test]
    fn snapshot_delta_is_componentwise() {
        let a = KernelSnapshot {
            classes: {
                let mut c = [KernelCounts::default(); KernelClass::COUNT];
                c[0] = KernelCounts { calls: 5, flops: 100, time_ns: 50 };
                c
            },
        };
        let b = KernelSnapshot {
            classes: {
                let mut c = [KernelCounts::default(); KernelClass::COUNT];
                c[0] = KernelCounts { calls: 7, flops: 160, time_ns: 90 };
                c
            },
        };
        let d = b.delta(&a);
        assert_eq!(d.get(KernelClass::Gemm), KernelCounts { calls: 2, flops: 60, time_ns: 40 });
    }

    #[test]
    fn span_macro_records_dims() {
        let _g = lock();
        let s = scope();
        {
            let _sp = crate::span!("geqrf", 12, 7);
        }
        let report = s.finish();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].dims, [12, 7, 0]);
        assert_eq!(report.spans[0].class, None);
    }

    #[test]
    fn gflops_is_flops_per_ns() {
        let c = KernelCounts { calls: 1, flops: 2_000_000_000, time_ns: 1_000_000_000 };
        assert!((c.gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worker_lane_defaults_to_external() {
        assert_eq!(worker_lane(), 0);
        std::thread::spawn(|| {
            set_worker_lane(3);
            assert_eq!(worker_lane(), 4);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn kernel_snapshot_json_skips_idle_classes() {
        let snap = KernelSnapshot {
            classes: {
                let mut c = [KernelCounts::default(); KernelClass::COUNT];
                c[KernelClass::Potrf as usize] = KernelCounts { calls: 2, flops: 64, time_ns: 32 };
                c
            },
        };
        let json = snap.to_json();
        assert!(json.contains("\"potrf\""), "{json}");
        assert!(!json.contains("\"gemm\""), "{json}");
    }
}
