//! In-memory spans around the driver's calls into the engine's layers.
//!
//! A span is named `layer:operation` after the module it calls into
//! (`executor.engine:process_columnar`, `core.session:drain_results`, …).
//! Spans nest on the driver's single thread, carry the span that caused
//! them, and share a per-handoff batch id and a per-pass id. Nothing is
//! recorded while tracing is off, so untraced runs pay one branch per
//! call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer:operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (`≥ start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Handoff the call belongs to (0 = set-up or end of pass).
    pub batch: u64,
    /// Stream pass the call belongs to.
    pub pass: u32,
}

impl Span {
    /// The layer part of the name (before the first `:`).
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; a no-op when disabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    batch: u64,
    pass: u32,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
            pass: 0,
        }
    }

    /// Switch recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new stream pass; later spans carry its id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
        self.batch = 0;
    }

    /// Start a new handoff; later spans carry its batch id.
    pub fn next_batch(&mut self) {
        self.batch += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses the spans opened before [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            batch: self.batch,
            pass: self.pass,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.batch, s.pass
            )?;
        }
        Ok(())
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval that its child spans cover, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch: 1,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // driver 0..100 ⊃ engine 10..40 ⊃ alloc 20..25, session 50..90
        let spans = vec![
            span("driver:handoff", 0, 100, ROOT),
            span("executor.engine:process", 10, 40, 0),
            span("metrics.alloc:read", 20, 25, 1),
            span("core.session:drain", 50, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["driver"], 100 - 30 - 40);
        assert_eq!(t["executor.engine"], 30 - 5);
        assert_eq!(t["metrics.alloc"], 5);
        assert_eq!(t["core.session"], 40);
        // self times partition the root's wall time
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("driver:handoff", 0, 100, ROOT),
            span("a:x", 10, 50, 0),
            span("a:y", 30, 60, 0),
            // overhangs the parent's end: only 90..100 is covered
            span("b:z", 90, 120, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["driver"], 100 - 50 - 10);
    }

    #[test]
    fn same_layer_spans_sum_across_roots() {
        let spans = vec![
            span("executor.engine:process", 0, 10, ROOT),
            span("executor.engine:finish", 20, 35, ROOT),
        ];
        assert_eq!(self_times(&spans)["executor.engine"], 25);
    }

    #[test]
    fn tracer_nests_and_tags_spans() {
        let mut tr = Tracer::new(true);
        tr.set_pass(3);
        tr.next_batch();
        tr.begin("driver:handoff");
        tr.span("executor.engine:process", || ());
        tr.end();
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[1].parent, 0);
        assert!(s.iter().all(|x| x.batch == 1 && x.pass == 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a:b", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
