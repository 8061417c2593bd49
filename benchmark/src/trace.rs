//! In-memory spans recorded by the traced run around each call into a
//! crate, written to `out/trace-<workload>.json` at exit.
//!
//! Everything runs on the one driver thread, so spans nest strictly: the
//! parent of a span is whichever span was open when it started, and a
//! layer's self time is its span minus the spans opened inside it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per span name: how many, their summed duration, and the part of it
/// not covered by child spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next op; spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = self.now();
    }

    /// A leaf span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Books `spent` — time a counting wrapper accumulated over many
    /// small calls inside the currently open span — as one child of it,
    /// so it leaves the parent's self time like any other child.
    pub fn child_total(&mut self, name: &'static str, spent: Duration) {
        let parent = *self.open.last().expect("child_total needs an open span");
        let start = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + spent.as_nanos() as u64,
            parent: Some(parent),
            op: self.op,
        });
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.ns();
            e.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// The share of `root`-span time not covered by any child span: what
    /// the trace cannot attribute to a named layer.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let l = self.layer(root);
        if l.total_ns == 0 {
            0.0
        } else {
            l.self_ns as f64 / l.total_ns as f64
        }
    }

    /// One JSON array of `{name, start_ns, end_ns, parent, op}`; `parent`
    /// is an index into the array or `null`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.next_op();
        let op = t.enter("op");
        t.span("parse", || std::thread::sleep(Duration::from_millis(2)));
        let eval = t.enter("eval");
        std::thread::sleep(Duration::from_millis(2));
        t.child_total("index", Duration::from_millis(1));
        t.exit(eval);
        t.exit(op);
        let layers = t.layers();
        let (op, parse, eval, index) = (
            layers["op"],
            layers["parse"],
            layers["eval"],
            layers["index"],
        );
        assert_eq!(op.count, 1);
        assert_eq!(op.self_ns, op.total_ns - parse.total_ns - eval.total_ns);
        assert_eq!(eval.self_ns, eval.total_ns - index.total_ns);
        assert_eq!(index.total_ns, 1_000_000);
        assert!(t.unattributed_share("op") < 0.5);
        assert_eq!(t.layer("absent"), LayerTime::default());
        assert!(t.spans.iter().all(|s| s.op == 1));
    }
}
