//! In-memory spans around the public calls a traced run makes.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! stay in memory until the run ends, when [`Tracer::write_jsonl`] writes
//! them out one JSON object per line. A span's *self time* is its duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    /// Extra label, e.g. the served kind of a service query.
    pub kind: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

/// Self time and count of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the new span's id to parent its
    /// children with.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        self.span_labelled(name, parent, request, |id| (f(id), None))
    }

    /// Like [`Tracer::span`], but `f` also returns the span's kind label.
    pub fn span_labelled<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> (T, Option<&'static str>),
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (out, kind) = f(id);
        let end_ns = self.now_ns();
        let span = Span { id, parent, request, name, kind, start_ns, end_ns };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Self time per span name: duration minus the union of the children's
    /// intervals clipped to the span.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &spans {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += duration as f64 * 1e-9;
            e.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let kind = s.kind.map_or("null".to_string(), |k| format!("\"{k}\""));
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"kind\": {kind}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&[(10, 30), (20, 40), (50, 60)], 0, 100), 40);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("parent", None, 0, |p| {
            t.span("child", Some(p), 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        let (parent, child) = (times["parent"], times["child"]);
        assert_eq!((parent.count, child.count), (1, 1));
        assert!(parent.total_s >= child.total_s);
        assert!(parent.self_s < child.self_s);
        assert!((parent.self_s + child.total_s - parent.total_s).abs() < 1e-9);
    }
}
