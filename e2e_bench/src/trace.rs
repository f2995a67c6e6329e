//! Benchmark-side spans around calls into the program's layers.
//!
//! A [`Tracer`] records one [`Span`] (name, start, end, parent, request
//! id) per traced call. Spans stay in memory until the run ends; the
//! per-layer metrics are derived from them and they are then written
//! out as JSON lines. With tracing off, [`Tracer::span`] only calls the
//! closure, so the untraced run pays no timing or allocation.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request (operation) id shared by every span of one request.
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Tracers of one run share an epoch so
/// their spans can be merged onto one timeline.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self) -> Self {
        Tracer::new(self.on, self.epoch)
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// Each span's duration minus the durations of its direct children.
/// Children of one span run on its thread one after another, so their
/// intervals do not overlap and the subtraction is the uncovered part.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.ns() as i64;
        }
    }
    out
}

/// Checks that every span lies within its parent's interval and that no
/// self time is negative.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = spans.get(p).ok_or_else(|| format!("span {i} has no parent {p}"))?;
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!("span {i} ({}) escapes its parent {p} ({})", s.name, ps.name));
            }
        }
    }
    match self_times(spans).iter().position(|&t| t < 0) {
        Some(i) => Err(format!("span {i} ({}) has negative self time", spans[i].name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_inside_their_parents_with_nonnegative_self_time() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        for req in 0..3 {
            t.span("request", req, |t| {
                t.span("parse", req, |_| busy(20));
                t.span("execute", req, |t| {
                    t.span("compile", req, |_| busy(30));
                    t.span("simulate", req, |_| busy(40));
                });
                busy(10);
            });
        }
        let mut other = t.sibling();
        std::thread::scope(|s| {
            s.spawn(|| other.span("client", 7, |t| t.span("send", 7, |_| busy(15))));
        });
        t.absorb(other);
        assert_eq!(t.spans().len(), 3 * 5 + 2);
        check_nesting(t.spans()).expect("spans nest");
        let selves = self_times(t.spans());
        for (s, &own) in t.spans().iter().zip(&selves).filter(|(s, _)| s.name == "request") {
            assert!(own < s.ns() as i64, "children are subtracted from self time");
            assert!(own >= 10_000, "the request's own work stays in its self time");
        }
        for s in t.spans().iter().filter(|s| s.name == "send") {
            assert_eq!(t.spans()[s.parent.expect("send has a parent")].name, "client");
        }
    }

    #[test]
    fn a_child_escaping_its_parent_is_reported() {
        let span = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, req: 0 };
        let spans = vec![span("outer", 10, 20, None), span("inner", 15, 25, Some(0))];
        assert!(check_nesting(&spans).is_err());
        let spans = vec![
            span("outer", 10, 20, None),
            span("a", 10, 18, Some(0)),
            span("b", 12, 20, Some(0)),
        ];
        assert!(check_nesting(&spans).unwrap_err().contains("negative self time"));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
