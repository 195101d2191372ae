//! In-memory span recording around the calls into each layer.
//!
//! The benchmark records `{request, span, parent, name, start_ns, end_ns}`
//! from its own side of every layer boundary; spans of one statement share
//! the `request` id and hang off a root span named `stmt`.  They are kept
//! in memory and written as JSON lines when the traced pass ends.

use std::io::Write;
use std::time::Instant;

/// The span id that means "no parent".
pub const NO_PARENT: u32 = 0;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    /// 1-based, unique within the trace.
    pub span: u32,
    pub parent: u32,
    /// `<layer>.<call>` for layer spans, `stmt.<kind>` for roots.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is closed by [`Tracer::end`].  The clock is read
    /// last here and first in `end`, so the bookkeeping falls into the
    /// parent's self time, not into this span.
    pub fn begin(&mut self, request: u64, parent: u32, name: &'static str) -> u32 {
        let span = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            request,
            span,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        let now = self.now_ns();
        let s = self.spans.last_mut().expect("just pushed");
        s.start_ns = now;
        s.end_ns = now;
        span
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, span: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[span as usize - 1];
        s.end_ns = now;
        s.duration_ns()
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(request, parent, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name` in the trees whose root
    /// span is called `root` (`name == root` selects the roots themselves).
    pub fn durations(&self, root: &str, name: &str) -> Vec<u64> {
        // Parents are recorded before their children, so one pass resolves
        // every span's root.
        let mut root_of: Vec<&'static str> = Vec::with_capacity(self.spans.len());
        let mut out = Vec::new();
        for s in &self.spans {
            let r = match s.parent {
                NO_PARENT => s.name,
                parent => root_of[parent as usize - 1],
            };
            root_of.push(r);
            if r == root && s.name == name {
                out.push(s.duration_ns());
            }
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"request\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Returned in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids.iter() {
                let start = (*start).clamp(reach, s.end_ns);
                let end = (*end).clamp(reach, s.end_ns);
                covered += end - start;
                reach = end;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            span,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2: only 30..50 is new coverage.
            span(3, 1, 20, 50),
            span(4, 1, 70, 80),
            // A grandchild is not subtracted from the root.
            span(5, 4, 72, 78),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 4, 6]);
    }

    #[test]
    fn a_child_running_past_its_parent_is_clamped() {
        let spans = vec![span(1, NO_PARENT, 10, 20), span(2, 1, 5, 40)];
        assert_eq!(self_times(&spans), vec![0, 35]);
    }

    #[test]
    fn the_tracer_nests_and_serializes_spans() {
        let mut t = Tracer::with_capacity(4);
        let root = t.begin(9, NO_PARENT, "stmt.lookup");
        let got = t.span(9, root, "query.parse", || 42);
        assert_eq!(got, 42);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations("stmt.lookup", "query.parse").len(), 1);
        assert_eq!(t.durations("stmt.lookup", "stmt.lookup").len(), 1);
        assert!(t.durations("stmt.scan", "query.parse").is_empty());

        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"request\":9,\"span\":1,\"parent\":0,\"name\":\"stmt.lookup\""));
    }
}
