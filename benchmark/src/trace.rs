//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory and are written as JSONL when the run ends. A
//! span's trace id is the id of the pass (or set-up repetition, or native
//! sample) it belongs to. Counters read at a span's end ride on the span.
//! Recording is off outside the traced run: `begin` then returns `None`
//! and every other call on that `None` does nothing.

use crate::json::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `guest.run`.
    pub name: &'static str,
    /// Pass id shared by every span of one pass.
    pub trace: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start.
    pub start_ns: u64,
    /// End (equal to start until the span is ended).
    pub end_ns: u64,
    /// Counters read at the span's end.
    pub counters: Vec<(&'static str, f64)>,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_trace: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_trace: 0,
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh trace id.
    pub fn next_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when recording is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Attach counters to a span.
    pub fn count(&mut self, id: Option<usize>, counters: &[(&'static str, f64)]) {
        if let Some(i) = id {
            self.spans[i].counters.extend_from_slice(counters);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let counters = s
                .counters
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                .collect();
            let line = Value::Obj(vec![
                ("trace".into(), Value::Num(s.trace as f64)),
                ("id".into(), Value::Num(i as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ("self_ns".into(), Value::Num(own as f64)),
                ("counters".into(), Value::Obj(counters)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            trace: 1,
            parent,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the first child by 10
            span(Some(0), 90, 120), // runs past the parent's end
            span(Some(1), 12, 18),
            span(None, 200, 260),
        ];
        // Children cover [10, 50) and [90, 100): 50 of the parent's 100.
        assert_eq!(self_ns(&spans), vec![50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("pass", 1, None);
        t.count(id, &[("x", 1.0)]);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        t.set_on(true);
        let trace = t.next_trace();
        let pass = t.begin("pass", trace, None);
        let run = t.begin("guest.run", trace, pass);
        t.end(run);
        t.end(pass);
        assert_eq!(t.spans().len(), 2);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].trace), (pass, trace));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
