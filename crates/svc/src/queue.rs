//! Bounded admission queue with backpressure.
//!
//! Admission is a bounded queue ([`Bounded`]) between clients and the
//! dispatcher. When the service falls behind, the queue fills and
//! clients feel it immediately: [`AdmissionQueue::submit`] rejects with
//! [`SubmitError::QueueFull`], at once or after blocking up to a
//! caller-chosen deadline. Load is shed at the
//! door instead of accumulating unboundedly — the service-level analogue
//! of SLATE's bounded lookahead window.

use crate::cancel::CancelToken;
use crate::job::{JobHandle, JobId, JobResult, JobSpec};
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A bounded FIFO for any number of pushing and popping threads: the
/// admission queue, and the one-slot hand-off from the dispatcher to the
/// workers. Two condvars, so that a push wakes one popper and a pop one
/// pusher. Poppers share the queue itself; the pushing side is its
/// [`Producer`], and dropping that closes the queue: what is queued still
/// drains, then every `pop` reports [`PopError::Closed`].
pub(crate) struct Bounded<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The pushing side of a [`Bounded`] queue.
pub(crate) struct Producer<T>(Arc<Bounded<T>>);

/// Why a [`Bounded::pop`] came back empty-handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopError {
    /// Nothing arrived within the wait.
    Timeout,
    /// The queue is closed and drained.
    Closed,
}

/// Wait on `cv` until notified or until `deadline`, whichever is first;
/// `None` once the deadline has passed.
fn wait_until<'a, S>(
    cv: &Condvar,
    guard: MutexGuard<'a, S>,
    deadline: Option<Instant>,
) -> Option<MutexGuard<'a, S>> {
    match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
        None => Some(cv.wait(guard).unwrap_or_else(|e| e.into_inner())),
        Some(Duration::ZERO) => None,
        Some(left) => Some(cv.wait_timeout(guard, left).unwrap_or_else(|e| e.into_inner()).0),
    }
}

/// `wait` from now, as a deadline; none for `None` or a wait past the clock.
fn deadline_in(wait: Option<Duration>) -> Option<Instant> {
    wait.and_then(|w| Instant::now().checked_add(w))
}

impl<T> Producer<T> {
    /// Queue `value`, waiting up to `wait` for room (`None`: as long as it
    /// takes, `Some(ZERO)`: not at all); a queue still full hands it back.
    pub fn push(&self, value: T, wait: Option<Duration>) -> Result<(), T> {
        let queue = &*self.0;
        let deadline = deadline_in(wait);
        let mut st = queue.lock();
        while st.items.len() >= queue.capacity {
            match wait_until(&queue.not_full, st, deadline) {
                Some(guard) => st = guard,
                None => return Err(value),
            }
        }
        st.items.push_back(value);
        drop(st);
        queue.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.not_empty.notify_all();
    }
}

impl<T> Bounded<T> {
    pub fn new(capacity: usize) -> (Producer<T>, Arc<Self>) {
        let queue = Arc::new(Bounded {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Producer(queue.clone()), queue)
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // every update is one `VecDeque` call or one flag store: the state
        // a panicking holder leaves behind is valid
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take the oldest value, waiting up to `wait` for one (`None`: until
    /// the queue is closed).
    pub fn pop(&self, wait: Option<Duration>) -> Result<T, PopError> {
        let deadline = deadline_in(wait);
        let mut st = self.lock();
        loop {
            if let Some(value) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Ok(value);
            }
            if st.closed {
                return Err(PopError::Closed);
            }
            st = wait_until(&self.not_empty, st, deadline).ok_or(PopError::Timeout)?;
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity (after waiting out the
    /// deadline, for the blocking variant). Try again later or shed load.
    QueueFull,
    /// The service is draining or stopped; no new work is accepted.
    Stopped,
    /// A batch submission mixed shapes: the fused engine packs entries
    /// into one contiguous panel, so every matrix in a batch must share
    /// `(rows, cols)`. Nothing was admitted.
    MixedShapes {
        /// Index of the first offending entry.
        index: usize,
        /// Shape of entry 0, `(rows, cols)`.
        expected: (usize, usize),
        /// Shape of the offending entry.
        got: (usize, usize),
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::Stopped => write!(f, "service is draining or stopped"),
            SubmitError::MixedShapes { index, expected, got } => write!(
                f,
                "batch entry {index} is {}x{} but entry 0 is {}x{}: fused batches must be \
                 shape-homogeneous",
                got.0, got.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job after admission, en route to the dispatcher.
pub(crate) struct AdmittedJob {
    pub id: JobId,
    pub spec: JobSpec,
    pub cancel: CancelToken,
    pub submitted: Instant,
    pub result_tx: SyncSender<JobResult>,
}

/// Client-facing side of the admission queue.
pub(crate) struct AdmissionQueue {
    tx: Producer<AdmittedJob>,
    next_id: AtomicU64,
    accepting: Arc<AtomicBool>,
    metrics: Arc<MetricsRegistry>,
}

impl AdmissionQueue {
    /// Build the queue; the popping side goes to the dispatcher.
    pub fn new(
        capacity: usize,
        accepting: Arc<AtomicBool>,
        metrics: Arc<MetricsRegistry>,
    ) -> (Self, Arc<Bounded<AdmittedJob>>) {
        let (tx, rx) = Bounded::new(capacity);
        let q = AdmissionQueue { tx, next_id: AtomicU64::new(1), accepting, metrics };
        (q, rx)
    }

    fn admit(&self, spec: JobSpec) -> (AdmittedJob, JobHandle) {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let cancel = CancelToken::new();
        let (result_tx, result_rx) = sync_channel(1);
        let job =
            AdmittedJob { id, spec, cancel: cancel.clone(), submitted: Instant::now(), result_tx };
        let handle = JobHandle { id, cancel, result: result_rx };
        (job, handle)
    }

    /// Admit `spec` if the queue has room within `wait` (`ZERO`: fail fast
    /// under backpressure).
    pub fn submit(&self, spec: JobSpec, wait: Duration) -> Result<JobHandle, SubmitError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        let (job, handle) = self.admit(spec);
        if self.tx.push(job, Some(wait)).is_err() {
            MetricsRegistry::inc(&self.metrics.rejected_full);
            return Err(SubmitError::QueueFull);
        }
        MetricsRegistry::inc(&self.metrics.submitted);
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_queue_hands_the_value_back_until_a_pop_makes_room() {
        let (tx, rx) = Bounded::new(2);
        assert_eq!(tx.push(1, Some(Duration::ZERO)), Ok(()));
        assert_eq!(tx.push(2, None), Ok(()));
        assert_eq!(tx.push(3, Some(Duration::ZERO)), Err(3));
        let before = Instant::now();
        assert_eq!(tx.push(3, Some(Duration::from_millis(20))), Err(3));
        assert!(before.elapsed() >= Duration::from_millis(20), "waited out its deadline");
        assert_eq!(rx.pop(None), Ok(1));
        assert_eq!(tx.push(3, Some(Duration::ZERO)), Ok(()));
        assert_eq!((rx.pop(None), rx.pop(None)), (Ok(2), Ok(3)), "first in, first out");
        assert_eq!(rx.pop(Some(Duration::ZERO)), Err(PopError::Timeout));
        assert_eq!(rx.pop(Some(Duration::from_millis(5))), Err(PopError::Timeout));
    }

    #[test]
    fn dropping_the_producer_drains_then_closes() {
        let (tx, rx) = Bounded::new(4);
        tx.push(7, None).unwrap();
        let waiting = {
            let rx = rx.clone();
            std::thread::spawn(move || (rx.pop(None), rx.pop(None)))
        };
        drop(tx);
        assert_eq!(waiting.join().unwrap(), (Ok(7), Err(PopError::Closed)));
        assert_eq!(rx.pop(Some(Duration::from_secs(5))), Err(PopError::Closed), "without waiting");
    }

    #[test]
    fn every_value_reaches_exactly_one_popper() {
        // a one-slot hand-off, as between the dispatcher and the workers
        let (tx, rx) = Bounded::new(1);
        let poppers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || std::iter::from_fn(|| rx.pop(None).ok()).sum::<u64>())
            })
            .collect();
        for v in 1..=200u64 {
            tx.push(v, None).unwrap();
        }
        drop(tx);
        let total: u64 = poppers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(total, 200 * 201 / 2);
    }
}
