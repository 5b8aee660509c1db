//! Spans recorded by the benchmark around each call into the program
//! (the program itself is not instrumented): name, start, end and the
//! span that was open when this one began. Kept in memory and written
//! out once, as chrome-trace JSON, when the run ends. With spans off —
//! every run that reports end-to-end numbers — `begin`/`end` do nothing
//! and the clock is never read.

use std::collections::BTreeMap;
use std::time::Instant;

/// `begin`'s answer while spans are off.
const NONE: u32 = u32::MAX;

/// Spans written to the trace file; later ones are counted, aggregated
/// and left out (a `paper_b1` run records hundreds of thousands).
const MAX_WRITTEN: usize = 50_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `NONE` at top level.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans (self time = duration − this).
    pub child_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Copy, Clone, Debug, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(id);
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            child_ns: 0,
        });
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        let (parent, dur) = (span.parent, now - span.start_ns);
        if parent != NONE {
            self.spans[parent as usize].child_ns += dur;
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - s.child_ns.min(dur);
        }
        out
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, its index and parent index in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let written = self.spans.len().min(MAX_WRITTEN);
        let mut s = String::with_capacity(written * 96 + 256);
        s.push_str("{\"displayTimeUnit\": \"ns\", \"spansRecorded\": ");
        s.push_str(&self.spans.len().to_string());
        s.push_str(", \"spansWritten\": ");
        s.push_str(&written.to_string());
        s.push_str(", \"traceEvents\": [\n");
        for (i, sp) in self.spans[..written].iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = if sp.parent == NONE {
                -1
            } else {
                i64::from(sp.parent)
            };
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"self_ns\": {}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                i,
                parent,
                (sp.end_ns - sp.start_ns).saturating_sub(sp.child_ns),
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}
