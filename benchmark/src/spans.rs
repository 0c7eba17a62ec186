//! The benchmark's own spans, recorded in memory around each call into a
//! layer's public function and written out as a Chrome trace when the run
//! ends. A span's name is `<layer>.<call>`; spans of one operation (a
//! solve or a job) share its `op` id and hang off one root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span store. Disabled (the end-to-end runs), every call is a branch and
/// nothing is stored.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Store a finished span; returns its index for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        spans.push(Span { name, parent, op, start_ns, end_ns: end_ns.max(start_ns) });
        Some(spans.len() - 1)
    }

    /// Open a span now; close it with [`Recorder::close`]. Children may
    /// name it as parent while it is open.
    pub fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.now_ns();
            self.spans.lock().expect("span store poisoned by a panicking thread")[i].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn within<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, op);
        let r = f();
        self.close(span);
        r
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned by a panicking thread"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per layer, in ns.
pub fn layer_self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer()).or_insert(0) += own;
    }
    by_layer
}

/// Chrome trace format (`chrome://tracing`, Perfetto): one complete event
/// per span; `tid` is the operation, so one operation reads as one row
/// with its children nested under the root.
pub fn write_chrome_trace<W: Write>(spans: &[Span], mut w: W) -> std::io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}{comma}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            s.op,
        )?;
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, op: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op.job", None, 0, 100),
            span("svc.submit", Some(0), 0, 10),
            span("svc.wait", Some(0), 10, 90),
            span("svc.queue", Some(2), 10, 30),
            span("svc.run", Some(2), 30, 85),
            // overlaps svc.run: the shared [60, 85) must not count twice
            span("batch.qdwh_batched", Some(2), 60, 88),
            // sticks out of its parent: only the part inside counts
            span("check.accuracy", Some(0), 95, 120),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (10 + 80 + 5)); // root: gaps [90,95)
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 80 - (20 + 55 + 3)); // children cover [10,88)
        assert_eq!(own[3], 20);
        assert_eq!(own[6], 25);
        let layers = layer_self_time_ns(&spans);
        assert_eq!(layers["svc"], 10 + 2 + 20 + 55);
        assert_eq!(layers["op"], 5);
        assert_eq!(layers["batch"], 28);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = Recorder::new(false);
        let root = rec.open("op.solve", None, 1);
        assert_eq!(root, None);
        assert_eq!(rec.within("core.qdwh", root, 1, || 7), 7);
        rec.close(root);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn trace_is_well_formed_json() {
        let rec = Recorder::new(true);
        let root = rec.open("op.solve", None, 3);
        rec.within("core.qdwh", root, 3, || ());
        rec.close(root);
        let spans = rec.take();
        assert_eq!(spans[1].parent, Some(0));
        let mut buf = Vec::new();
        write_chrome_trace(&spans, &mut buf).unwrap();
        let v = serde::json::from_str(std::str::from_utf8(&buf).unwrap()).expect("parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("core"));
    }
}
