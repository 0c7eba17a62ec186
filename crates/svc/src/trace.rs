//! Per-job span recording, exported through the runtime's Chrome-trace
//! writer.
//!
//! Service job lifetimes reuse [`polar_runtime::TraceEvent`] — the same
//! record the schedule simulator emits — so a service trace opens in
//! `chrome://tracing`/Perfetto with one row per worker (`pid` = worker,
//! `tid` = batch lane) exactly like a simulated kernel timeline. Spans are
//! measured from the process-wide [`polar_obs::epoch`] — the same zero the
//! solver's kernel spans use — so a job trace and a solver trace
//! concatenate with aligned clocks instead of each starting at its own
//! arbitrary zero.

use polar_runtime::{write_chrome_trace, KernelKind, TraceEvent};
use std::sync::Mutex;
use std::time::Instant;

/// Collects job spans; one per service, shared by all workers.
pub struct SpanLog {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { epoch: polar_obs::epoch(), events: Mutex::new(Vec::new()) }
    }

    /// The span list. A push or a clone leaves it valid at every step, so
    /// a worker that panicked while holding the lock poisons nothing.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The instant job spans are measured from: the process-wide
    /// [`polar_obs::epoch`], shared with the solver's kernel spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record one executed span. `lane` distinguishes jobs a worker ran
    /// concurrently out of one batch.
    pub fn record(&self, job_id: u64, worker: usize, lane: usize, start: Instant, end: Instant) {
        self.record_labeled(job_id, worker, lane, start, end, None);
    }

    /// [`SpanLog::record`] with an explicit span name (used for fused
    /// whole-batch spans, which cover several jobs at once).
    pub fn record_labeled(
        &self,
        job_id: u64,
        worker: usize,
        lane: usize,
        start: Instant,
        end: Instant,
        label: Option<&'static str>,
    ) {
        let ev = TraceEvent {
            task: job_id as usize,
            rank: worker,
            slot: lane,
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            kind: KernelKind::Job,
            label,
            args: None,
        };
        self.lock().push(ev);
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all spans recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Serialize the spans as Chrome tracing JSON.
    pub fn write_chrome_trace<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let events = self.events();
        write_chrome_trace(&events, w)
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_export_as_chrome_trace() {
        let log = SpanLog::new();
        let t0 = log.epoch();
        log.record(1, 0, 0, t0, t0 + Duration::from_millis(3));
        log.record(2, 1, 0, t0 + Duration::from_millis(1), t0 + Duration::from_millis(2));
        assert_eq!(log.len(), 2);

        let mut buf = Vec::new();
        log.write_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"ph\": \"X\"").count(), 2);
        assert!(s.contains("Job#1"), "{s}");
        assert!(s.contains("\"pid\": 1"));
    }

    #[test]
    fn epoch_is_the_process_wide_obs_epoch() {
        // two logs created at different times still share one zero, and
        // that zero is the solver spans' zero — traces concatenate aligned
        let a = SpanLog::new();
        std::thread::sleep(Duration::from_millis(1));
        let b = SpanLog::new();
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.epoch(), polar_obs::epoch());
    }

    #[test]
    fn span_times_are_relative_to_epoch() {
        let log = SpanLog::new();
        let t0 = log.epoch();
        log.record(7, 2, 1, t0 + Duration::from_millis(10), t0 + Duration::from_millis(15));
        let ev = &log.events()[0];
        assert!((ev.start - 0.010).abs() < 1e-9);
        assert!((ev.end - 0.015).abs() < 1e-9);
        assert_eq!(ev.rank, 2);
        assert_eq!(ev.slot, 1);
    }
}
