//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions.
//!
//! A span has a name, a start, an end, an optional parent, and the id of
//! the operation it belongs to. Spans stay in memory until the run ends.
//! A disabled [`Tracer`] records nothing and reads no clock.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique span id (ids start at 1).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name, e.g. `trace.decode`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; it is recorded when [`Span::end`] is called or the
/// value is dropped.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: String,
    start_ns: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a root span of operation `op`.
    pub fn root(&self, name: &str, op: u64) -> Span<'_> {
        self.open(name, op, None)
    }

    fn open(&self, name: &str, op: u64, parent: Option<u64>) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                id: 0,
                parent: None,
                op,
                name: String::new(),
                start_ns: 0,
            };
        }
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a root span.
    pub fn in_root<R>(&self, name: &str, op: u64, f: impl FnOnce(&Span<'_>) -> R) -> R {
        let span = self.root(name, op);
        let r = f(&span);
        span.end();
        r
    }

    /// Every span recorded so far, in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

impl Span<'_> {
    /// Opens a child span of the same operation.
    pub fn child(&self, name: &str) -> Span<'_> {
        self.tracer
            .open(name, self.op, (self.id != 0).then_some(self.id))
    }

    /// Runs `f` inside a child span.
    pub fn in_child<R>(&self, name: &str, f: impl FnOnce(&Span<'_>) -> R) -> R {
        let span = self.child(name);
        let r = f(&span);
        span.end();
        r
    }

    /// Closes the span.
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.id, dur - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_time_by_name(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0.0) += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("op", Json::from(s.op)),
            ("name", Json::from(s.name.as_str())),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 10, 40),
            rec(3, Some(1), "b", 30, 60), // overlaps a by 10
            rec(4, Some(2), "c", 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.in_root("x", 1, |s| s.in_child("y", |_| ()));
        assert!(t.records().is_empty());
    }

    #[test]
    fn spans_of_one_op_share_its_id_and_nest() {
        let t = Tracer::new(true);
        t.in_root("x", 7, |s| s.in_child("y", |_| ()));
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|s| s.op == 7));
        assert_eq!(r[1].parent, Some(r[0].id));
    }
}
