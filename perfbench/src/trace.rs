//! Spans recorded by the benchmark: kept in memory during the run and
//! written out as one TSV file when it ends.
//!
//! A span has a name, a start, an end, a parent and the id of the request
//! it belongs to. Spans of one request are stored contiguously; `parent`
//! is the position of the parent span within its request (`NO_PARENT` for
//! the root).

use std::io::Write;
use std::path::Path;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub req: u64,
    pub parent: u32,
    pub name: Box<str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    next_req: u64,
}

impl Trace {
    /// Opens a new request and returns its id.
    pub fn begin(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Records a span of request `req` and returns its position within
    /// that request (for use as a child's `parent`).
    pub fn span(&mut self, req: u64, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        let first = self.spans.iter().rposition(|s| s.req != req).map_or(0, |i| i + 1);
        let position = (self.spans.len() - first) as u32;
        self.spans.push(Span {
            req,
            parent,
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        position
    }

    /// A request with a single root span (an in-process layer call).
    pub fn call(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        let req = self.begin();
        self.span(req, NO_PARENT, name, start_ns, end_ns);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.spans.len()];
        let mut first = 0;
        while first < self.spans.len() {
            let req = self.spans[first].req;
            let end = first + self.spans[first..].iter().take_while(|s| s.req == req).count();
            let group = &self.spans[first..end];
            for (i, span) in group.iter().enumerate() {
                let children =
                    group.iter().filter(|c| c.parent == i as u32).map(|c| (c.start_ns, c.end_ns));
                out[first + i] =
                    (span.end_ns - span.start_ns) - covered(span.start_ns, span.end_ns, children);
            }
            first = end;
        }
        out
    }

    /// Writes every span with its self time as TSV.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (span, own) in self.spans.iter().zip(self_ns) {
            let parent = if span.parent == NO_PARENT { -1 } else { span.parent as i64 };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.req, parent, span.name, span.start_ns, span.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
pub fn covered(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.map(|(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| e > s).collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let r = t.begin();
        let root = t.span(r, NO_PARENT, "root", 0, 100);
        let mid = t.span(r, root, "a", 10, 40);
        t.span(r, root, "b", 30, 60);
        t.span(r, mid, "leaf", 12, 20);
        let r2 = t.begin();
        t.span(r2, NO_PARENT, "other", 5, 9);
        assert_eq!(t.self_times(), vec![50, 22, 30, 8, 4]);
    }
}
