//! Host-clock spans kept in memory: self time, the per-layer table and
//! the Chrome-trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::nearest_rank;

/// One span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span among the spans of the same op.
    pub parent: Option<usize>,
}

/// One span name's aggregate over many ops.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

impl Layer {
    pub fn merge(&mut self, other: &Layer) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durations.extend_from_slice(&other.durations);
    }
}

/// Records the spans of one op at a time. Spans nest by call order; each
/// op's spans fold into per-name [`Layer`]s when the op ends, and the
/// first `keep_ops` ops are kept whole for the Chrome trace.
pub struct Tracer {
    epoch: Instant,
    open: Vec<usize>,
    op_spans: Vec<Span>,
    kept: Vec<(u64, Span)>,
    keep_ops: usize,
    kept_ops: usize,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    pub fn new(keep_ops: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            op_spans: Vec::new(),
            kept: Vec::new(),
            keep_ops,
            kept_ops: 0,
            layers: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.op_spans.len();
        let start = self.now();
        self.op_spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = self.now();
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close innermost first");
        let span = &mut self.op_spans[id];
        span.end = end;
        end - span.start
    }

    /// Ends op `op`: folds its spans into the layer aggregates.
    pub fn end_op(&mut self, op: u64) {
        assert!(self.open.is_empty(), "op {op} ended with open spans");
        for (i, s) in self.op_spans.iter().enumerate() {
            let children = self
                .op_spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            let layer = self.layers.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += s.end - s.start;
            layer.self_ns += self_time((s.start, s.end), children);
            layer.durations.push(s.end - s.start);
        }
        if self.kept_ops < self.keep_ops {
            let base = self.kept.len();
            self.kept.extend(self.op_spans.iter().map(|s| {
                let parent = s.parent.map(|p| p + base);
                (op, Span { parent, ..*s })
            }));
            self.kept_ops += 1;
        }
        self.op_spans.clear();
    }

    /// The layer aggregates since the last call.
    pub fn take_layers(&mut self) -> BTreeMap<&'static str, Layer> {
        std::mem::take(&mut self.layers)
    }

    /// The kept spans as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// document: one complete event per span, microsecond timestamps,
    /// the op index and the parent span's name as args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, (op, s)) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("", |p| self.kept[p].1.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"op\":{op},\"parent\":\"{parent}\"}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// `parent`'s duration minus the part of it that its children cover.
/// Children may nest inside or overlap each other; each instant counts
/// once, and children are clipped to the parent.
pub fn self_time(parent: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    let (ps, pe) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in children {
        let (s, e) = (s.max(ps), e.min(pe));
        if s >= e {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (pe - ps) - covered
}

/// The per-layer table: calls, total and self time, self time as a share
/// of all op time, and per-call p50/p99.
pub fn layer_table(layers: &BTreeMap<&'static str, Layer>, op_ns: u64) -> String {
    let mut out = format!(
        "{:<20} {:>9} {:>11} {:>11} {:>7} {:>10} {:>10}\n",
        "layer", "calls", "total_ms", "self_ms", "share", "p50_us", "p99_us"
    );
    for (name, l) in layers {
        let mut d = l.durations.clone();
        d.sort_unstable();
        let us = |p| nearest_rank(&d, p).unwrap_or(0) as f64 / 1e3;
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>11.3} {:>11.3} {:>6.2}% {:>10.3} {:>10.3}",
            name,
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / op_ns.max(1) as f64,
            us(50),
            us(99),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), vec![]), 40);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // [20,30) nests inside [15,35); [30,45) overlaps [15,35); [60,70)
        // lies outside the parent and [48,55) is clipped to [48,50).
        let children = vec![(30, 45), (20, 30), (15, 35), (60, 70), (48, 55)];
        // Covered: [15,45) = 30 and [48,50) = 2, of a 40 ns parent.
        assert_eq!(self_time((10, 50), children), 8);
        // Children covering the whole parent leave no self time.
        assert_eq!(self_time((10, 50), vec![(0, 30), (25, 60)]), 0);
    }

    #[test]
    fn tracer_folds_nested_spans_into_layers() {
        let mut tr = Tracer::new(1);
        for op in 0..2 {
            let root = tr.begin("root");
            let child = tr.begin("child");
            let leaf = tr.begin("leaf");
            tr.end(leaf);
            tr.end(child);
            tr.end(root);
            tr.end_op(op);
        }
        let layers = tr.take_layers();
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["child", "leaf", "root"]
        );
        for l in layers.values() {
            assert_eq!(l.calls, 2);
            assert!(l.self_ns <= l.total_ns);
        }
        let root = &layers["root"];
        let child = &layers["child"];
        assert_eq!(root.total_ns - root.self_ns, child.total_ns);
        assert_eq!(layers["leaf"].self_ns, layers["leaf"].total_ns);
        // Only the first op is kept for the trace file.
        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"name\":\"leaf\"") && json.contains("\"parent\":\"child\""));
        assert!(tr.take_layers().is_empty());
    }
}
