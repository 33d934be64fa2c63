//! The runner's own spans, recorded around its calls into each layer.
//!
//! A span holds its name, start, end, parent and request id. Spans stay in
//! memory and are written out when the run ends; a layer's self time is a
//! span's duration minus the time its child spans cover.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans of one run. When off, every call is a branch and no record.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn root() -> SpanId {
        SpanId(None)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in ns summed per span name, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        self_ns_by_name(&self.spans)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Per name: total duration minus the time covered by direct children.
/// Children of one span are taken as disjoint (the runner opens them one
/// after another on one thread).
pub fn self_ns_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name, own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("batch", 0, 100, None),
            span("search", 10, 60, Some(0)),
            span("kernel", 20, 50, Some(1)),
            span("search", 70, 90, Some(0)),
        ];
        let got = self_ns_by_name(&spans);
        assert_eq!(got, vec![("batch", 30), ("search", 40), ("kernel", 30)]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", Tracer::root(), 1);
        t.end(id);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", Tracer::root(), 1);
        t.span("inner", outer, 1, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("in-memory write");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 2);
    }
}
