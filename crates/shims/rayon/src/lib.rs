//! Offline drop-in subset of the `rayon` API, backed by a persistent
//! work-stealing thread pool.
//!
//! The previous shim spawned fresh OS threads on every [`join`] via
//! `std::thread::scope`, which charged every recursive split in the BLAS
//! kernels a full thread spawn/teardown. This version keeps a fixed set
//! of worker threads alive for the life of the process:
//!
//! * each worker owns a deque; [`join`] called on a worker pushes the
//!   second closure onto that deque (LIFO for the owner) and runs the
//!   first closure inline;
//! * idle workers steal from the *front* of other workers' deques (FIFO,
//!   so thieves take the oldest — largest — subproblems) or from a
//!   global injection queue fed by non-pool threads;
//! * a worker waiting for a stolen closure to finish keeps executing
//!   other pending work instead of blocking, so nested joins deeper than
//!   the worker count cannot deadlock;
//! * panics inside either closure are captured and re-thrown at the
//!   join point, matching rayon semantics.
//!
//! The global pool is sized by `POLAR_NUM_THREADS` (falling back to
//! `std::thread::available_parallelism`) and created lazily on first
//! use. Independent pools can be created with [`ThreadPool::new`] for
//! scaling experiments; dropping a pool terminates its workers.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Jobs: type-erased pointers to stack-allocated closures. A `StackJob`
// lives on the stack of the thread that created it, which blocks (or
// keeps stealing) until the job's latch is set — so the raw pointer in
// `JobRef` never outlives the closure it points to.
// ---------------------------------------------------------------------------

struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only created from a StackJob whose owner keeps it
// alive until the latch is set; executing it from another thread is the
// entire point of work stealing.
unsafe impl Send for JobRef {}

impl JobRef {
    unsafe fn execute(self) {
        (self.exec)(self.data)
    }
}

/// One-shot completion flag with both a spin-probe (for workers, which
/// prefer to steal while waiting) and a blocking wait (for external
/// threads parked on an injected job).
struct Latch {
    done: AtomicBool,
    lock: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Self { done: AtomicBool::new(false), lock: Mutex::new(false), cv: Condvar::new() }
    }

    #[inline]
    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.done.store(true, Ordering::Release);
        let mut flagged = self.lock.lock().unwrap();
        *flagged = true;
        drop(flagged);
        self.cv.notify_all();
    }

    fn wait(&self) {
        if self.probe() {
            return;
        }
        let mut flagged = self.lock.lock().unwrap();
        while !*flagged {
            flagged = self.cv.wait(flagged).unwrap();
        }
    }

    /// Bounded wait used by workers between steal attempts.
    fn wait_timeout(&self, dur: Duration) {
        if self.probe() {
            return;
        }
        let flagged = self.lock.lock().unwrap();
        if !*flagged {
            let _ = self.cv.wait_timeout(flagged, dur).unwrap();
        }
    }
}

struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: Latch,
    /// Observability context of the forking thread, reinstated around the
    /// job body wherever it ends up running, so a kernel's internal forks
    /// stay attributed to the outermost kernel even when stolen.
    obs_ctx: polar_obs::TaskCtx,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R,
{
    fn new(f: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: Latch::new(),
            obs_ctx: polar_obs::task_ctx(),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef { data: self as *const Self as *const (), exec: Self::execute_raw }
    }

    /// # Safety
    /// `ptr` must point to a live `StackJob<F, R>` that has not executed.
    unsafe fn execute_raw(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        let f = (*this.func.get()).take().expect("job executed twice");
        let ctx = this.obs_ctx;
        let res = panic::catch_unwind(AssertUnwindSafe(|| polar_obs::run_with_ctx(ctx, f)));
        *this.result.get() = Some(res);
        this.latch.set();
    }

    /// Result of the executed job; re-raises a captured panic.
    fn take_result(&self) -> R {
        // SAFETY: only called after the latch is set, when no other
        // thread touches the cell.
        let res = unsafe { (*self.result.get()).take() };
        match res.expect("job result missing") {
            Ok(v) => v,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry: the shared state of one pool.
// ---------------------------------------------------------------------------

struct Registry {
    /// Per-worker deques. Owners push/pop at the back; thieves pop at
    /// the front. The critical sections are a few instructions, so a
    /// mutex per deque performs like a lock-free deque at BLAS task
    /// granularity without the memory-ordering hazards.
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Jobs injected by threads outside the pool.
    injected: Mutex<VecDeque<JobRef>>,
    idle_lock: Mutex<()>,
    wake: Condvar,
    terminate: AtomicBool,
    steal_rotor: AtomicUsize,
}

impl Registry {
    fn new(workers: usize) -> Self {
        Self {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injected: Mutex::new(VecDeque::new()),
            idle_lock: Mutex::new(()),
            wake: Condvar::new(),
            terminate: AtomicBool::new(false),
            steal_rotor: AtomicUsize::new(0),
        }
    }

    fn push_local(&self, index: usize, job: JobRef) {
        self.deques[index].lock().unwrap().push_back(job);
        self.wake.notify_one();
    }

    /// Pop the worker's most recent job, but only if it is still `data`
    /// (i.e. it has not been stolen). Returns whether it was popped.
    fn pop_local_if(&self, index: usize, data: *const ()) -> bool {
        let mut dq = self.deques[index].lock().unwrap();
        if dq.back().is_some_and(|j| std::ptr::eq(j.data, data)) {
            dq.pop_back();
            true
        } else {
            false
        }
    }

    fn inject(&self, job: JobRef) {
        self.injected.lock().unwrap().push_back(job);
        self.wake.notify_all();
    }

    /// Find any runnable job: own deque first (LIFO), then the
    /// injection queue, then other workers' deques (FIFO).
    fn find_work(&self, index: usize) -> Option<JobRef> {
        if let Some(job) = self.deques[index].lock().unwrap().pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injected.lock().unwrap().pop_front() {
            if polar_obs::metrics_enabled() {
                pool_counters().injected.inc();
            }
            return Some(job);
        }
        let n = self.deques.len();
        let start = self.steal_rotor.fetch_add(1, Ordering::Relaxed);
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == index {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                if polar_obs::metrics_enabled() {
                    pool_counters().steals.inc();
                }
                return Some(job);
            }
        }
        // Full scan found nothing: a failed steal spin. The counter sizes
        // how much of the pool's idle time is spent probing empty deques
        // versus parked on the condvar (`pool.parks`).
        if polar_obs::metrics_enabled() {
            pool_counters().failed_steals.inc();
        }
        None
    }

    fn has_work(&self) -> bool {
        if !self.injected.lock().unwrap().is_empty() {
            return true;
        }
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }
}

/// Pool-wide counters registered in the `polar-obs` registry: successful
/// steals from other workers' deques, pickups of externally injected
/// jobs, full scans that found nothing (`failed_steal_spins`), and condvar
/// parks. Only incremented when metrics are enabled.
struct PoolCounters {
    steals: &'static polar_obs::Counter,
    injected: &'static polar_obs::Counter,
    failed_steals: &'static polar_obs::Counter,
    parks: &'static polar_obs::Counter,
}

fn pool_counters() -> &'static PoolCounters {
    static COUNTERS: OnceLock<PoolCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| PoolCounters {
        steals: polar_obs::counter("pool.steals"),
        injected: polar_obs::counter("pool.injected_jobs"),
        failed_steals: polar_obs::counter("pool.failed_steal_spins"),
        parks: polar_obs::counter("pool.parks"),
    })
}

/// Per-worker tasks-executed counter (`pool.worker<i>.tasks`), registered
/// lazily per index. Names are leaked once per distinct index — the obs
/// registry requires `&'static str` — and shared across pools.
fn worker_tasks_counter(index: usize) -> &'static polar_obs::Counter {
    static PER_WORKER: OnceLock<Mutex<Vec<&'static polar_obs::Counter>>> = OnceLock::new();
    let table = PER_WORKER.get_or_init(|| Mutex::new(Vec::new()));
    let mut v = table.lock().unwrap();
    while v.len() <= index {
        let name: &'static str =
            Box::leak(format!("pool.worker{}.tasks", v.len()).into_boxed_str());
        v.push(polar_obs::counter(name));
    }
    v[index]
}

thread_local! {
    /// (registry pointer, worker index) when the current thread is a
    /// pool worker. The raw pointer is valid for the worker's lifetime
    /// because the worker thread owns an `Arc<Registry>`.
    static CURRENT_WORKER: Cell<Option<(*const Registry, usize)>> = const { Cell::new(None) };
    /// Set while the current thread is inside a [`serial_region`].
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

fn worker_main(registry: Arc<Registry>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((Arc::as_ptr(&registry), index))));
    // Worker i reports on trace lane i + 1 (lane 0 = external threads).
    polar_obs::set_worker_lane(index);
    let tasks = worker_tasks_counter(index);
    let mut idle_rounds = 0u32;
    loop {
        if let Some(job) = registry.find_work(index) {
            // SAFETY: the job's owner keeps the StackJob alive until the
            // latch (set inside execute) is observed.
            unsafe { job.execute() };
            if polar_obs::metrics_enabled() {
                tasks.inc();
            }
            idle_rounds = 0;
            continue;
        }
        if registry.terminate.load(Ordering::Acquire) {
            break;
        }
        idle_rounds += 1;
        if idle_rounds < 16 {
            std::thread::yield_now();
            continue;
        }
        let guard = registry.idle_lock.lock().unwrap();
        if registry.terminate.load(Ordering::Acquire) {
            break;
        }
        if registry.has_work() {
            continue;
        }
        // the timeout bounds any lost-wakeup race
        if polar_obs::metrics_enabled() {
            pool_counters().parks.inc();
        }
        let _ = registry.wake.wait_timeout(guard, Duration::from_millis(2)).unwrap();
    }
    CURRENT_WORKER.with(|c| c.set(None));
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A persistent work-stealing thread pool.
///
/// [`join`] uses a lazily created global instance; independent pools
/// exist for thread-scaling experiments and tests.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Pool with exactly `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let registry = Arc::new(Registry::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("polar-pool-{i}"))
                    .spawn(move || worker_main(reg, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { registry, handles }
    }

    pub fn num_threads(&self) -> usize {
        self.registry.deques.len()
    }

    /// Run `f` on a worker thread of this pool, blocking the caller
    /// until it completes. Calling from a worker of this pool runs `f`
    /// inline.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        if let Some((reg, _)) = CURRENT_WORKER.with(|c| c.get()) {
            if std::ptr::eq(reg, Arc::as_ptr(&self.registry)) {
                return f();
            }
        }
        let job = StackJob::new(f);
        self.registry.inject(job.as_job_ref());
        job.latch.wait();
        job.take_result()
    }

    /// Fork-join on this pool; see the free function [`join`].
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.num_threads() <= 1 || SERIAL.with(Cell::get) {
            // a single worker can never run the closures concurrently, and
            // a serial region must not: skip the queue round-trip entirely
            return (a(), b());
        }
        if let Some((reg, index)) = CURRENT_WORKER.with(|c| c.get()) {
            if std::ptr::eq(reg, Arc::as_ptr(&self.registry)) {
                // SAFETY: reg points to this pool's live registry.
                return unsafe { join_in_worker(&*reg, index, a, b) };
            }
        }
        self.install(move || {
            let (reg, index) =
                CURRENT_WORKER.with(|c| c.get()).expect("install ran outside a worker");
            // SAFETY: we are on a worker of this pool; reg is live.
            unsafe { join_in_worker(&*reg, index, a, b) }
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::Release);
        self.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl ThreadPool {
    fn wake_all(&self) {
        let _guard = self.registry.idle_lock.lock().unwrap();
        self.registry.wake.notify_all();
    }
}

/// The fork half of `join` running on worker `index` of `registry`:
/// expose `b` for stealing, run `a` inline, then either run `b` locally
/// (not stolen) or keep executing other work until the thief finishes.
///
/// # Safety
/// Must be called on the worker thread `index` of `registry`.
unsafe fn join_in_worker<A, B, RA, RB>(registry: &Registry, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b);
    let job_ref = job_b.as_job_ref();
    let data = job_ref.data;
    registry.push_local(index, job_ref);

    let ra = panic::catch_unwind(AssertUnwindSafe(a));

    if registry.pop_local_if(index, data) {
        // not stolen: run inline
        StackJob::<B, RB>::execute_raw(data);
    } else {
        // stolen: help with other work instead of blocking the core
        while !job_b.latch.probe() {
            if let Some(job) = registry.find_work(index) {
                job.execute();
            } else {
                job_b.latch.wait_timeout(Duration::from_micros(200));
            }
        }
    }

    let rb = job_b.take_result();
    match ra {
        Ok(ra) => (ra, rb),
        Err(payload) => panic::resume_unwind(payload),
    }
}

fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

fn default_pool_size() -> usize {
    parse_threads(std::env::var("POLAR_NUM_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let workers = default_pool_size();
        polar_obs::log!(polar_obs::LogLevel::Info, "global pool: {workers} workers");
        ThreadPool::new(workers)
    })
}

/// Number of worker threads in the pool serving the current thread.
pub fn current_num_threads() -> usize {
    if let Some((reg, _)) = CURRENT_WORKER.with(|c| c.get()) {
        // SAFETY: a set CURRENT_WORKER implies a live registry.
        return unsafe { (*reg).deques.len() };
    }
    global_pool().num_threads()
}

/// Run `f` with the calling thread's fork width pinned to 1: until `f`
/// returns or unwinds, [`fork_width`] is 1 and [`join`] on this thread runs
/// both closures inline, so the thread never enters the steal loop. For a
/// scheduler whose own units of work already fill every lane: a fork from
/// inside a unit gains no concurrency and costs a steal and a re-packing.
pub fn serial_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SERIAL.with(|s| s.replace(true)));
    f()
}

/// Lanes a fork from the calling thread can spread over: 1 inside a
/// [`serial_region`], else [`current_num_threads`].
pub fn fork_width() -> usize {
    if SERIAL.with(Cell::get) {
        1
    } else {
        current_num_threads()
    }
}

/// Cooperative yield for a job that keeps its pool worker for a long time
/// (one lane of a task graph): if the calling thread is a pool worker and
/// a thread outside the pool has queued a job for it, run that job here,
/// now, and return `true`. Without it, everything the rest of the process
/// sends to the pool — a kernel's fork, another graph's lanes — waits
/// until the long job ends. Only the injection queue is served: halves
/// forked by other workers stay theirs.
pub fn yield_to_injected() -> bool {
    let Some((reg, _)) = CURRENT_WORKER.with(|c| c.get()) else { return false };
    // SAFETY: a set CURRENT_WORKER implies a live registry.
    let Some(job) = (unsafe { &*reg }).injected.lock().unwrap().pop_front() else {
        return false;
    };
    if polar_obs::metrics_enabled() {
        pool_counters().injected.inc();
    }
    // SAFETY: the job's owner keeps the StackJob alive until the latch
    // (set inside execute) is observed.
    unsafe { job.execute() };
    true
}

/// Run two closures, potentially in parallel, returning both results.
///
/// Both closures always run; panics propagate; results come back in
/// order. All parallelism goes through the persistent pool — no threads
/// are spawned per call. Inside a [`ThreadPool::install`] scope the
/// closures run on that pool; otherwise on the global pool. Inside a
/// [`serial_region`] both run inline on the calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if fork_width() <= 1 {
        return (a(), b());
    }
    if let Some((reg, index)) = CURRENT_WORKER.with(|c| c.get()) {
        // SAFETY: a set CURRENT_WORKER implies this thread is worker
        // `index` of the live registry `reg`.
        return unsafe { join_in_worker(&*reg, index, a, b) };
    }
    global_pool().join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_in_order() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn deep_recursion_does_not_explode() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 100_000), 100_000 * 99_999 / 2);
    }

    #[test]
    fn join_propagates_panic() {
        let r = std::panic::catch_unwind(|| {
            join(|| 1, || panic!("boom"));
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_first_closure() {
        let r = std::panic::catch_unwind(|| {
            join(|| panic!("first"), || 2);
        });
        assert!(r.is_err());
    }

    #[test]
    fn nested_joins_deeper_than_worker_count() {
        // 2 workers, recursion depth 12: waiting workers must keep
        // executing pending jobs instead of deadlocking.
        let pool = ThreadPool::new(2);
        fn depth_sum(d: usize) -> usize {
            if d == 0 {
                return 1;
            }
            let (a, b) = join(|| depth_sum(d - 1), || depth_sum(d - 1));
            a + b
        }
        let total = pool.install(|| depth_sum(12));
        assert_eq!(total, 1 << 12);
        assert_eq!(pool.num_threads(), 2);
    }

    #[test]
    fn panic_in_stolen_job_propagates() {
        let pool = ThreadPool::new(4);
        for _ in 0..20 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    join(
                        || std::thread::sleep(Duration::from_micros(100)),
                        || panic!("stolen boom"),
                    );
                })
            }));
            assert!(r.is_err());
        }
        // the pool survives the panics
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn pool_reuse_across_drop_and_reinit() {
        for round in 0..3 {
            let pool = ThreadPool::new(3);
            let counter = AtomicUsize::new(0);
            pool.install(|| {
                join(
                    || counter.fetch_add(1, Ordering::Relaxed),
                    || counter.fetch_add(1, Ordering::Relaxed),
                );
            });
            assert_eq!(counter.load(Ordering::Relaxed), 2, "round {round}");
            drop(pool); // workers terminate; next round spawns fresh ones
        }
    }

    #[test]
    fn install_runs_on_worker_thread() {
        let pool = ThreadPool::new(2);
        let on_worker = pool.install(|| CURRENT_WORKER.with(|c| c.get()).is_some());
        assert!(on_worker);
        assert!(CURRENT_WORKER.with(|c| c.get()).is_none());
    }

    #[test]
    fn concurrent_external_joins() {
        // many non-pool threads hammering the global pool at once
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let (a, b) = join(move || t * 2, move || t * 3);
                    assert_eq!(a, t * 2);
                    assert_eq!(b, t * 3);
                });
            }
        });
    }

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn current_num_threads_positive() {
        assert!(current_num_threads() >= 1);
        let pool = ThreadPool::new(5);
        assert_eq!(pool.install(current_num_threads), 5);
    }

    #[test]
    fn serial_region_pins_join_to_the_calling_thread() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            assert_eq!(fork_width(), 2);
            let me = std::thread::current().id();
            serial_region(|| {
                assert_eq!(fork_width(), 1);
                assert_eq!(current_num_threads(), 2, "the pool itself is unchanged");
                // the other worker is idle and would steal a queued closure
                for _ in 0..64 {
                    let (ta, tb) =
                        join(|| std::thread::current().id(), || std::thread::current().id());
                    assert_eq!((ta, tb), (me, me));
                }
                // regions nest and unwind back to the enclosing state
                serial_region(|| assert_eq!(fork_width(), 1));
                assert_eq!(fork_width(), 1);
            });
            assert_eq!(fork_width(), 2);
            let r = panic::catch_unwind(|| serial_region(|| panic!("inside region")));
            assert!(r.is_err());
            assert_eq!(fork_width(), 2, "a panic must not leave the thread serial");
        });
    }
}
