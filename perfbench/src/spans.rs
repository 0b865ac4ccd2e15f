//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! (the program itself is not instrumented), kept in memory while the
//! pass runs, and written out as JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::all`], if any.
    pub parent: Option<usize>,
    /// Which pass (or layer row) the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A stack-structured recorder: [`Spans::open`] pushes, [`Spans::close`]
/// pops, and the parent of each span is whatever was open when it began.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Later spans belong to pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    /// Children never overlap each other: the recorder is single-threaded
    /// and strictly nested.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() - children
    }

    /// Total duration and total self time of every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let mut total = 0;
        let mut own = 0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.duration_ns();
                own += self.self_ns(id);
            }
        }
        (total, own)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut spans = Spans::new(Instant::now());
        let outer = spans.open("outer");
        let a = spans.time("child", |s| {
            s.time("grandchild", |_| std::hint::black_box(1u64 + 1))
        });
        assert_eq!(a, 2);
        spans.close(outer);
        let all = spans.all();
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        let child = all[1].duration_ns();
        assert_eq!(spans.self_ns(0), all[0].duration_ns() - child);
        assert_eq!(spans.to_jsonl().lines().count(), 3);
    }
}
