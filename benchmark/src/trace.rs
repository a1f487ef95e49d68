//! In-memory spans for the `--trace 1` run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions — name, start, end, and the span that caused it — keeps
//! them in memory, and writes them out once at exit. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use crate::json::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Static at every call site; owned only for spans read back from a
    /// child process.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `epoch` is the zero of every recorded timestamp; tracers that will be
    /// merged share one.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { epoch, enabled, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Add a finished span (timed elsewhere, on this tracer's clock) as a
    /// child of the innermost open one.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span { name: Cow::Borrowed(name), start_ns, end_ns, parent });
        }
    }

    /// The zero of this tracer's clock.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Take over finished spans recorded elsewhere, hanging their roots under
    /// this tracer's innermost open span. A child process reports its spans
    /// over a pipe, on its own clock: `shift_ns` moves them onto this one.
    pub fn absorb_spans(&mut self, spans: Vec<Span>, shift_ns: u64) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s.start_ns += shift_ns;
            s.end_ns += shift_ns;
            s
        }));
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj(vec![
                    ("id", Value::Num(id as f64)),
                    ("name", Value::str(s.name.as_ref())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("workload", Value::str(workload)),
                ])
            })
            .collect();
        Value::obj(vec![("workload", Value::str(workload)), ("spans", Value::Arr(spans))])
    }
}

/// Spans out of [`Tracer::to_json`]'s shape; `None` if `doc` is not one.
pub fn spans_from_json(doc: &Value) -> Option<Vec<Span>> {
    doc.get("spans")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(Span {
                name: Cow::Owned(s.get("name")?.as_str()?.to_string()),
                start_ns: s.get("start_ns")?.as_f64()? as u64,
                end_ns: s.get("end_ns")?.as_f64()? as u64,
                parent: s.get("parent")?.as_f64().map(|p| p as usize),
            })
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Children may overlap one another (they can come
/// from parallel threads), so coverage is the union of their intervals,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
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
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.as_ref()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: Cow::Borrowed(name), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 20, 8]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"], NameTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(totals["a"].self_ns, 12);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            // Two parallel children overlapping in [130, 150].
            span("x", 110, 150, Some(0)),
            span("x", 130, 170, Some(0)),
            // A child that outlives the parent counts only up to its end.
            span("y", 190, 260, Some(0)),
            // A child nested inside another child's interval adds nothing.
            span("z", 120, 125, Some(0)),
        ];
        // Covered: [110,170] = 60 and [190,200] = 10.
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false, Instant::now());
        let id = off.begin("x");
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now());
        on.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(on.spans()[0].parent, None);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut child = Tracer::new(true, Instant::now());
        child.span("req", |t| t.span("req.wait", |_| ()));
        let child_start = child.spans()[0].start_ns;
        let root = on.begin("phase");
        on.absorb_spans(child.spans().to_vec(), 1_000);
        on.record("timed_elsewhere", 5, 9);
        on.end(root);
        assert_eq!(on.spans()[3].parent, Some(2));
        assert_eq!(on.spans()[4].parent, Some(3));
        assert_eq!(on.spans()[3].start_ns, child_start + 1_000);
        assert_eq!((on.spans()[5].parent, on.spans()[5].duration_ns()), (Some(2), 4));

        let read_back = spans_from_json(&on.to_json("w")).unwrap();
        assert_eq!(read_back, on.spans());
    }
}
