//! Export *measured* solver spans (from `polar-obs`) as a Chrome trace.
//!
//! The simulated schedulers in [`crate::sched`] produce [`TraceEvent`]s
//! from a modeled machine; this module produces them from a real run. Each
//! [`SpanRecord`] becomes one complete (`"ph": "X"`) event:
//!
//! * `pid` (Perfetto process row) = the span's **lane**: 0 for spans
//!   recorded on external threads (the caller driving the solve), `i + 1`
//!   for pool worker `i` — so a trace of a parallel solve opens with one
//!   lane per thread-pool worker;
//! * `tid` (thread row within the process) = nesting **depth**, which
//!   renders nested spans (`qdwh` > `qdwh_iter` > `gemm`) stacked instead
//!   of overlapping;
//! * timestamps are microseconds since the process-wide [`polar_obs::epoch`],
//!   so solver traces and `polar-svc` job traces concatenate aligned.
//!
//! The trace file is a JSON *object* (`{"traceEvents": [...], ...}`), the
//! other format Chrome/Perfetto accept, because it additionally carries:
//!
//! * **counter tracks** (`"ph": "C"`) — `worker_occupancy` (task bodies in
//!   flight) and `ready_queue_depth` (executor heap depth at each
//!   dispatch), from [`crate::postmortem::counter_tracks`], so the trace
//!   shows utilization lanes without opening the analyzer;
//! * a **truncation marker** — [`write_solver_trace_capped`] bounds the
//!   complete-event count (keeping the first/last halves plus every
//!   counter sample) and records `"truncated": true`, which keeps
//!   checked-in artifacts reviewable instead of tens of thousands of
//!   lines.
//!
//! All events are serialized in ascending-timestamp order: span buffers
//! drain per thread, and Perfetto silently drops counter samples that go
//! backwards in time.

use crate::graph::KernelKind;
use crate::sched::{event_json, SchedArgs, TraceEvent};
use polar_obs::SpanRecord;

/// Map a measured kernel class onto the DAG kernel vocabulary.
fn class_to_kind(class: Option<polar_obs::KernelClass>, name: &str) -> KernelKind {
    use polar_obs::KernelClass;
    match class {
        Some(KernelClass::Gemm) => KernelKind::Gemm,
        Some(KernelClass::Herk) => KernelKind::Herk,
        Some(KernelClass::Trsm) => KernelKind::Trsm,
        Some(KernelClass::Geqrf) => KernelKind::Geqrf,
        Some(KernelClass::Orgqr) => KernelKind::Orgqr,
        Some(KernelClass::Potrf) => KernelKind::Potrf,
        Some(KernelClass::Other) => KernelKind::Other,
        None if name.ends_with("_iter") => KernelKind::Iter,
        None => KernelKind::Other,
    }
}

/// Convert measured spans into trace events (lane -> rank, depth -> slot,
/// nanoseconds -> seconds). The span's own name labels the event. DAG task
/// spans (`task_*`) carry the executor's scheduling decision in their dims
/// — critical-path priority, ready-queue depth at dispatch, phase — plus
/// the measured queue wait when the span has a lifecycle stamp; all become
/// Chrome-trace `args` so scheduler behaviour is inspectable in Perfetto.
pub fn spans_to_events(spans: &[SpanRecord]) -> Vec<TraceEvent> {
    spans
        .iter()
        .map(|s| TraceEvent {
            task: s.seq as usize,
            rank: s.lane as usize,
            slot: s.depth as usize,
            start: s.start_ns as f64 * 1e-9,
            end: s.end_ns as f64 * 1e-9,
            kind: class_to_kind(s.class, s.name),
            label: Some(s.name),
            args: s.name.starts_with("task_").then(|| SchedArgs {
                cp_flops: s.dims[0] as u64,
                ready_depth: s.dims[1] as u32,
                step: s.dims[2] as u32,
                queue_wait_ns: s.lifecycle.map_or(0, |l| s.start_ns.saturating_sub(l.ready_ns)),
            }),
        })
        .collect()
}

fn counter_json(name: &str, ts_ns: u64, value: f64) -> String {
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {:.3}, \"pid\": 0, \"args\": {{\"value\": {value}}}}}",
        ts_ns as f64 * 1e-3,
    )
}

/// Serialize measured spans as Chrome tracing JSON (open in Perfetto or
/// `chrome://tracing`), complete events plus counter tracks, uncapped.
pub fn write_solver_trace<W: std::io::Write>(spans: &[SpanRecord], w: W) -> std::io::Result<()> {
    write_solver_trace_capped(spans, w, usize::MAX)
}

/// [`write_solver_trace`] with a bound on the number of complete events.
/// When `spans` exceeds `max_events` the middle is dropped — the first and
/// last `max_events / 2` events in time order survive, counter tracks are
/// always kept in full — and the artifact records `"truncated": true` plus
/// the original event count.
pub fn write_solver_trace_capped<W: std::io::Write>(
    spans: &[SpanRecord],
    mut w: W,
    max_events: usize,
) -> std::io::Result<()> {
    let mut events = spans_to_events(spans);
    events.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
    let total = events.len();
    let truncated = total > max_events;
    if truncated {
        let head = (max_events / 2).max(1);
        let tail = max_events.saturating_sub(head);
        events.drain(head..total - tail);
    }

    // Merge complete events and counter samples in ascending ts. Counter
    // tracks always come from the *full* span set so utilization lanes
    // stay meaningful even when the middle of the trace is dropped.
    let mut lines: Vec<(f64, String)> = Vec::with_capacity(events.len());
    for e in &events {
        lines.push((e.start * 1e6, event_json(e)));
    }
    for track in crate::postmortem::counter_tracks(spans) {
        for (ts_ns, value) in track.samples {
            lines.push((ts_ns as f64 * 1e-3, counter_json(track.name, ts_ns, value)));
        }
    }
    lines.sort_by(|a, b| a.0.total_cmp(&b.0));

    writeln!(w, "{{")?;
    writeln!(w, "  \"truncated\": {truncated},")?;
    writeln!(w, "  \"totalTaskEvents\": {total},")?;
    writeln!(w, "  \"traceEvents\": [")?;
    for (i, (_, line)) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        writeln!(w, "    {line}{comma}")?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}

/// Drain all buffered spans ([`polar_obs::take_spans`]) and write them to
/// `path`. Returns the number of spans written. This is the sink end of
/// `POLAR_TRACE=<path>`: call it once the instrumented work is done. For a
/// bound on the event count, take the spans and call
/// [`write_solver_trace_capped`].
pub fn write_trace_file<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<usize> {
    let spans = polar_obs::take_spans();
    let file = std::fs::File::create(path)?;
    write_solver_trace(&spans, std::io::BufWriter::new(file))?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_obs::KernelClass;

    fn span(
        name: &'static str,
        class: Option<KernelClass>,
        seq: u64,
        lane: u32,
        depth: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            class,
            seq,
            lane,
            depth,
            start_ns,
            end_ns,
            flops: 0,
            dims: [0; 3],
            lifecycle: None,
        }
    }

    #[test]
    fn spans_map_to_lane_and_depth() {
        let spans = vec![
            span("qdwh", None, 0, 0, 0, 0, 5_000),
            span("qdwh_iter", None, 1, 0, 1, 100, 4_000),
            span("gemm_leaf", Some(KernelClass::Gemm), 2, 3, 0, 200, 900),
        ];
        let events = spans_to_events(&spans);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, KernelKind::Other);
        assert_eq!(events[1].kind, KernelKind::Iter);
        assert_eq!(events[2].kind, KernelKind::Gemm);
        // lane 3 = pool worker 2; depth becomes the tid row
        assert_eq!(events[2].rank, 3);
        assert_eq!(events[1].slot, 1);
        assert!((events[2].start - 200e-9).abs() < 1e-18);
        assert!((events[2].end - 900e-9).abs() < 1e-18);
    }

    #[test]
    fn task_spans_carry_sched_args() {
        let mut s = span("task_gemm", Some(KernelClass::Gemm), 4, 2, 1, 100, 500);
        s.dims = [987654, 11, 2];
        s.lifecycle =
            Some(polar_obs::TaskLifecycle { dag: 1, task: 0, ready_ns: 60, ready_lane: 1 });
        let events = spans_to_events(&[s.clone()]);
        assert_eq!(
            events[0].args,
            Some(SchedArgs { cp_flops: 987654, ready_depth: 11, step: 2, queue_wait_ns: 40 })
        );
        let mut buf = Vec::new();
        write_solver_trace(&[s], &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("\"cp_flops\": 987654"));
        assert!(out.contains("\"ready_depth\": 11"));
        assert!(out.contains("\"step\": 2"));
        assert!(out.contains("\"queue_wait_ns\": 40"));
        // non-task spans stay arg-free
        let plain = spans_to_events(&[span("gemm_leaf", Some(KernelClass::Gemm), 5, 0, 0, 0, 1)]);
        assert_eq!(plain[0].args, None);
    }

    #[test]
    fn solver_trace_uses_span_names() {
        let spans = vec![
            span("geqrf", Some(KernelClass::Geqrf), 7, 1, 0, 1_000, 2_000),
            span("potrf", Some(KernelClass::Potrf), 8, 2, 0, 1_500, 2_500),
        ];
        let mut buf = Vec::new();
        write_solver_trace(&spans, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"name\": \"geqrf\""));
        assert!(s.contains("\"name\": \"potrf\""));
        assert!(s.contains("\"pid\": 1"));
        assert!(s.contains("\"pid\": 2"));
        assert_eq!(s.matches("\"ph\": \"X\"").count(), 2);
        assert!(s.contains("\"truncated\": false"));
        assert!(s.contains("\"traceEvents\": ["));
    }

    #[test]
    fn trace_events_are_timestamp_sorted_including_counters() {
        // out-of-order input spans, one of them a task span generating
        // counter samples
        let mut task = span("task_gemm", Some(KernelClass::Gemm), 9, 1, 0, 2_000, 3_000);
        task.dims = [1, 4, 0];
        task.lifecycle =
            Some(polar_obs::TaskLifecycle { dag: 1, task: 0, ready_ns: 1_500, ready_lane: 0 });
        let spans = vec![task, span("late_first", None, 10, 0, 0, 5_000, 6_000)];
        let mut buf = Vec::new();
        write_solver_trace(&spans, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        // counter samples present
        assert!(s.contains("worker_occupancy"));
        assert!(s.contains("ready_queue_depth"));
        assert_eq!(s.matches("\"ph\": \"C\"").count(), 3); // occ @2us, occ @3us, depth @2us
                                                           // every ts is >= the previous one
        let mut last = f64::MIN;
        for (i, _) in s.match_indices("\"ts\": ") {
            let v: f64 = s[i + 6..].split(',').next().unwrap().parse().unwrap();
            assert!(v >= last, "ts {v} goes backwards (prev {last})");
            last = v;
        }
    }

    #[test]
    fn truncation_keeps_ends_and_marks_artifact() {
        let spans: Vec<SpanRecord> =
            (0..100u64).map(|i| span("k", None, i, 0, 0, i * 1_000, i * 1_000 + 500)).collect();
        let mut buf = Vec::new();
        write_solver_trace_capped(&spans, &mut buf, 10).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"truncated\": true"));
        assert!(s.contains("\"totalTaskEvents\": 100"));
        assert_eq!(s.matches("\"ph\": \"X\"").count(), 10);
        // first and last events survive, the middle does not
        assert!(s.contains("\"ts\": 0.000"));
        assert!(s.contains("\"ts\": 99.000"));
        assert!(!s.contains("\"ts\": 50.000"));
        // under the cap nothing is dropped
        let mut buf2 = Vec::new();
        write_solver_trace_capped(&spans, &mut buf2, 100).unwrap();
        let s2 = String::from_utf8(buf2).unwrap();
        assert!(s2.contains("\"truncated\": false"));
        assert_eq!(s2.matches("\"ph\": \"X\"").count(), 100);
    }
}
