//! Lock-free service telemetry: counters, gauges, log-scale histograms.
//!
//! The log2-bucketed [`Histogram`] lives in `polar-obs` (every layer of
//! the stack uses it); it is re-exported here so existing `polar_svc`
//! users keep compiling. Everything is atomics, so recording from workers
//! never contends with export.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub use polar_obs::{Histogram, HistogramSnapshot};

/// Jobs kept in the scheduler-health rolling window.
const HEALTH_WINDOW: usize = 256;

/// One completed job's timing, on the shared `polar_obs` clock.
#[derive(Debug, Clone, Copy)]
struct HealthSample {
    end_ns: u64,
    wait_ns: u64,
    run_ns: u64,
}

/// Rolling window of recent job timings: the service-side scheduler-health
/// view. Whereas the cumulative histograms never forget, this window
/// answers "how is the pool doing *right now*" — mean wait/run and worker
/// utilization over the last [`HEALTH_WINDOW`] jobs.
#[derive(Debug, Default)]
pub struct SchedulerHealth {
    ring: Mutex<VecDeque<HealthSample>>,
}

impl SchedulerHealth {
    /// Record one finished job (`end_ns` on the [`polar_obs::now_ns`]
    /// clock, so samples order consistently with solver spans).
    pub fn record(&self, end_ns: u64, wait_ns: u64, run_ns: u64) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == HEALTH_WINDOW {
            ring.pop_front();
        }
        ring.push_back(HealthSample { end_ns, wait_ns, run_ns });
    }

    /// Summarize the current window given the worker count.
    pub fn snapshot(&self, workers: u64) -> SchedulerHealthSnapshot {
        let ring = self.ring.lock().unwrap();
        let jobs = ring.len() as u64;
        if jobs == 0 {
            return SchedulerHealthSnapshot::default();
        }
        let total_wait: u64 = ring.iter().map(|s| s.wait_ns).sum();
        let total_run: u64 = ring.iter().map(|s| s.run_ns).sum();
        // window span: earliest job start (end - run) to latest end
        let span_end = ring.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let span_start = ring.iter().map(|s| s.end_ns.saturating_sub(s.run_ns)).min().unwrap_or(0);
        let span_ns = span_end.saturating_sub(span_start);
        let utilization = if span_ns == 0 || workers == 0 {
            0.0
        } else {
            (total_run as f64 / (span_ns as f64 * workers as f64)).min(1.0)
        };
        SchedulerHealthSnapshot {
            window_jobs: jobs,
            window_span_ns: span_ns,
            utilization,
            mean_wait_us: total_wait as f64 / jobs as f64 / 1e3,
            mean_run_us: total_run as f64 / jobs as f64 / 1e3,
        }
    }
}

/// Point-in-time view of the [`SchedulerHealth`] window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerHealthSnapshot {
    /// Jobs currently in the window (saturates at the window size).
    pub window_jobs: u64,
    /// Wall span the window covers, ns.
    pub window_span_ns: u64,
    /// `sum(run) / (span * workers)`, clamped to 1.0 — fraction of worker
    /// capacity spent inside solves over the window.
    pub utilization: f64,
    pub mean_wait_us: f64,
    pub mean_run_us: f64,
}

/// All service counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // counters
    pub submitted: AtomicU64,
    pub rejected_full: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub timed_out: AtomicU64,
    pub retries: AtomicU64,
    pub batches: AtomicU64,
    /// Shape-homogeneous groups dispatched to the fused batched engine
    /// (one per `WorkItem::Fused`, regardless of group size).
    pub fused_batches: AtomicU64,
    /// Jobs shipped inside fused groups (the numerator of
    /// `batch_fill_ratio`).
    pub fused_jobs: AtomicU64,
    /// Sum of `batch_max` over fused groups — the jobs those dispatch
    /// slots *could* have carried. `fused_jobs / fused_capacity` is the
    /// fill ratio the batch-gathering window exists to raise.
    pub fused_capacity: AtomicU64,
    pub injected_faults: AtomicU64,
    // gauges
    pub queue_depth: AtomicI64,
    pub in_flight: AtomicI64,
    // histograms
    pub wait: Histogram,
    pub run: Histogram,
    /// Fused-batch size distribution. The log2 histogram is time-typed;
    /// sizes are recorded via `record_ns(len)`, so quantiles read back as
    /// "nanoseconds" whose numeric value is a job count.
    pub batch_size: Histogram,
    /// Dispatch worker count, set once at service start (0 = unknown);
    /// denominators for window utilization.
    pub workers: AtomicU64,
    /// Rolling-window scheduler health over recent jobs.
    pub health: SchedulerHealth,
}

impl MetricsRegistry {
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self, uptime: Duration) -> MetricsSnapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let secs = uptime.as_secs_f64();
        let workers = self.workers.load(Ordering::Relaxed);
        MetricsSnapshot {
            workers,
            health: self.health.snapshot(workers),
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            fused_jobs: self.fused_jobs.load(Ordering::Relaxed),
            fused_capacity: self.fused_capacity.load(Ordering::Relaxed),
            condest_hits: 0,
            condest_misses: 0,
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed).max(0) as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed).max(0) as u64,
            throughput_per_sec: if secs > 0.0 { completed as f64 / secs } else { 0.0 },
            wait: self.wait.snapshot(),
            run: self.run.snapshot(),
            batch_size: self.batch_size.snapshot(),
        }
    }
}

/// Exportable point-in-time view of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub rejected_full: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub timed_out: u64,
    pub retries: u64,
    pub batches: u64,
    pub fused_batches: u64,
    /// Jobs carried by fused groups vs the slots those groups offered
    /// (see [`MetricsRegistry::fused_capacity`]).
    pub fused_jobs: u64,
    pub fused_capacity: u64,
    /// Condition-estimate cache traffic on the fused path. The cache
    /// lives on the service, not the registry, so these are zero in a
    /// bare-registry snapshot and filled in by
    /// [`crate::PolarService::metrics`].
    pub condest_hits: u64,
    pub condest_misses: u64,
    pub injected_faults: u64,
    pub queue_depth: u64,
    pub in_flight: u64,
    pub throughput_per_sec: f64,
    pub wait: HistogramSnapshot,
    pub run: HistogramSnapshot,
    /// Fused-batch sizes, in jobs (see
    /// [`MetricsRegistry::batch_size`]).
    pub batch_size: HistogramSnapshot,
    /// Dispatch worker count (0 when the registry is used standalone).
    pub workers: u64,
    /// Rolling-window scheduler health.
    pub health: SchedulerHealthSnapshot,
}

fn opt_us(d: Option<Duration>) -> f64 {
    d.map(|d| d.as_secs_f64() * 1e6).unwrap_or(0.0)
}

/// Decode a size-valued histogram quantile (recorded with `record_ns`,
/// so the nanosecond count *is* the job count).
fn opt_jobs(d: Option<Duration>) -> f64 {
    d.map(|d| d.as_nanos() as f64).unwrap_or(0.0)
}

impl MetricsSnapshot {
    /// Fraction of offered fused-slot capacity actually carried
    /// (`fused_jobs / fused_capacity`; 0 before any fused dispatch).
    pub fn batch_fill_ratio(&self) -> f64 {
        if self.fused_capacity == 0 {
            0.0
        } else {
            self.fused_jobs as f64 / self.fused_capacity as f64
        }
    }

    fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("submitted", self.submitted as f64),
            ("rejected_full", self.rejected_full as f64),
            ("completed", self.completed as f64),
            ("failed", self.failed as f64),
            ("cancelled", self.cancelled as f64),
            ("timed_out", self.timed_out as f64),
            ("retries", self.retries as f64),
            ("batches", self.batches as f64),
            ("fused_batches", self.fused_batches as f64),
            ("fused_jobs", self.fused_jobs as f64),
            ("fused_capacity", self.fused_capacity as f64),
            ("batch_fill_ratio", self.batch_fill_ratio()),
            ("condest_hits", self.condest_hits as f64),
            ("condest_misses", self.condest_misses as f64),
            ("injected_faults", self.injected_faults as f64),
            ("queue_depth", self.queue_depth as f64),
            ("in_flight", self.in_flight as f64),
            ("throughput_per_sec", self.throughput_per_sec),
            ("wait_count", self.wait.count as f64),
            ("wait_p50_us", opt_us(self.wait.p50)),
            ("wait_p95_us", opt_us(self.wait.p95)),
            ("wait_p99_us", opt_us(self.wait.p99)),
            ("run_count", self.run.count as f64),
            ("run_p50_us", opt_us(self.run.p50)),
            ("run_p95_us", opt_us(self.run.p95)),
            ("run_p99_us", opt_us(self.run.p99)),
            // batch sizes are stored as "nanoseconds": read back as jobs
            ("batch_size_count", self.batch_size.count as f64),
            ("batch_size_p50", opt_jobs(self.batch_size.p50)),
            ("batch_size_p99", opt_jobs(self.batch_size.p99)),
            // rolling-window scheduler health
            ("sched_workers", self.workers as f64),
            ("window_jobs", self.health.window_jobs as f64),
            ("window_utilization", self.health.utilization),
            ("window_mean_wait_us", self.health.mean_wait_us),
            ("window_mean_run_us", self.health.mean_run_us),
        ]
    }

    /// One flat JSON object (hand-rolled: the workspace has no JSON
    /// serializer dependency).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows()
            .iter()
            .map(|(k, v)| {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("  \"{k}\": {}", *v as i64)
                } else {
                    format!("  \"{k}\": {v:.3}")
                }
            })
            .collect();
        format!("{{\n{}\n}}", body.join(",\n"))
    }

    /// Two-line CSV: header row + value row.
    pub fn to_csv(&self) -> String {
        let rows = self.rows();
        let header: Vec<&str> = rows.iter().map(|(k, _)| *k).collect();
        let values: Vec<String> = rows
            .iter()
            .map(|(_, v)| {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v:.3}")
                }
            })
            .collect();
        format!("{}\n{}\n", header.join(","), values.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_histogram_keeps_the_old_api() {
        // the definition moved to polar-obs; the svc-facing API (record /
        // count / quantile) must keep working through the re-export
        let h = Histogram::default();
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 1);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= Duration::from_micros(64) && p50 < Duration::from_micros(131));
    }

    #[test]
    fn snapshot_and_exports() {
        let m = MetricsRegistry::default();
        MetricsRegistry::inc(&m.submitted);
        MetricsRegistry::inc(&m.submitted);
        MetricsRegistry::inc(&m.completed);
        m.wait.record(Duration::from_micros(50));
        m.run.record(Duration::from_millis(2));
        let s = m.snapshot(Duration::from_secs(2));
        assert_eq!(s.submitted, 2);
        assert!((s.throughput_per_sec - 0.5).abs() < 1e-12);

        let json = s.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"submitted\": 2"));
        assert!(json.contains("run_p50_us"));

        let csv = s.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let values = lines.next().unwrap();
        assert_eq!(header.split(',').count(), values.split(',').count());
        assert!(header.starts_with("submitted,"));
        assert!(values.starts_with("2,"));
    }

    #[test]
    fn health_window_utilization_and_means() {
        let h = SchedulerHealth::default();
        // two workers, two jobs back-to-back: lane A runs [0, 1ms],
        // lane B runs [0, 1ms]; window span 1ms, busy 2ms => 100% of 2
        h.record(1_000_000, 10_000, 1_000_000);
        h.record(1_000_000, 30_000, 1_000_000);
        let s = h.snapshot(2);
        assert_eq!(s.window_jobs, 2);
        assert_eq!(s.window_span_ns, 1_000_000);
        assert!((s.utilization - 1.0).abs() < 1e-12);
        assert!((s.mean_wait_us - 20.0).abs() < 1e-9);
        assert!((s.mean_run_us - 1000.0).abs() < 1e-9);
        // four workers halves utilization
        assert!((h.snapshot(4).utilization - 0.5).abs() < 1e-12);
        // zero workers / empty window degenerate cleanly
        assert_eq!(h.snapshot(0).utilization, 0.0);
        assert_eq!(SchedulerHealth::default().snapshot(2), SchedulerHealthSnapshot::default());
    }

    #[test]
    fn health_window_evicts_oldest_beyond_capacity() {
        let h = SchedulerHealth::default();
        for i in 0..(HEALTH_WINDOW as u64 + 10) {
            h.record(i * 1_000, 0, 500);
        }
        let s = h.snapshot(1);
        assert_eq!(s.window_jobs, HEALTH_WINDOW as u64);
        // oldest samples (end 0..10_000) evicted: span starts at sample 10
        assert_eq!(s.window_span_ns, (HEALTH_WINDOW as u64 + 9) * 1_000 - (10 * 1_000 - 500));
    }

    #[test]
    fn snapshot_exports_health_rows() {
        let m = MetricsRegistry::default();
        m.workers.store(3, Ordering::Relaxed);
        m.health.record(2_000_000, 5_000, 1_000_000);
        let s = m.snapshot(Duration::from_secs(1));
        assert_eq!(s.workers, 3);
        assert_eq!(s.health.window_jobs, 1);
        let json = s.to_json();
        for key in ["sched_workers", "window_jobs", "window_utilization", "window_mean_wait_us"] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"sched_workers\": 3"));
    }

    #[test]
    fn zero_uptime_throughput_is_zero() {
        let m = MetricsRegistry::default();
        MetricsRegistry::inc(&m.completed);
        assert_eq!(m.snapshot(Duration::ZERO).throughput_per_sec, 0.0);
    }
}
