//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions.
//!
//! A span has a name (the layer function), an id (the flow, transfer or
//! repetition it belongs to), a parent (the span open when it began) and
//! wall-clock start/end offsets. Calls too frequent to record one by one
//! (`on_segment`, `poll`, wire send/recv) are folded into one aggregate
//! span per (parent, name) that keeps the call count and the summed busy
//! time. A layer's self time is its span's duration minus the busy time of
//! its children. Spans stay in memory and are written out once, when the
//! benchmark ends.
//!
//! A disabled tracer runs the closures untimed, so the untraced run pays
//! one branch per call.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Aggregate spans of the innermost open span, by name.
    aggregates: Vec<(&'static str, usize)>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(idx);
        let saved = std::mem::take(&mut self.aggregates);
        let out = f(self);
        self.aggregates = saved;
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        out
    }

    /// Run `f` as one call folded into the aggregate span `name` under the
    /// innermost open span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur = (end - start).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        let idx = match self.aggregates.iter().find(|(n, _)| *n == name) {
            Some(&(_, idx)) => idx,
            None => {
                let parent = self.open.last().copied();
                let id = parent.map_or(0, |p| self.spans[p].id);
                let idx = self.spans.len();
                self.spans.push(Span {
                    name,
                    id,
                    parent,
                    start_ns: end_ns.saturating_sub(dur),
                    end_ns,
                    calls: 0,
                    busy_ns: 0,
                });
                self.aggregates.push((name, idx));
                idx
            }
        };
        let span = &mut self.spans[idx];
        span.calls += 1;
        span.busy_ns += dur;
        span.end_ns = end_ns;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name` (aggregates give
    /// their summed busy time).
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns as f64 / 1e9)
            .collect()
    }

    /// Summed busy time (s) and call count over every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| {
                (t + s.busy_ns as f64 / 1e9, c + s.calls)
            })
    }

    /// Per span name, in first-seen order: calls, busy time (s) and self
    /// time (s), where self time is busy time minus that of the direct
    /// children.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (s, &child) in self.spans.iter().zip(&child_ns) {
            let busy = s.busy_ns as f64 / 1e9;
            let own = s.busy_ns.saturating_sub(child) as f64 / 1e9;
            match out.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += s.calls;
                    row.2 += busy;
                    row.3 += own;
                }
                None => out.push((s.name, s.calls, busy, own)),
            }
        }
        out
    }

    /// Write every span as one JSON object per line, tagged with `rep`.
    pub fn write_jsonl(&self, out: &mut impl Write, rep: usize) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"rep\": {rep}, \"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_and_aggregates_record_parents() {
        let mut t = Tracer::on();
        t.span("outer", 7, |t| {
            for _ in 0..3 {
                t.call("hot", || std::hint::black_box(1 + 1));
            }
            t.span("inner", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(
            (spans[1].name, spans[1].calls, spans[1].parent),
            ("hot", 3, Some(0))
        );
        assert_eq!(
            (spans[2].name, spans[2].id, spans[2].parent),
            ("inner", 7, Some(0))
        );
        let summary = t.summary();
        assert_eq!(
            summary.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["outer", "hot", "inner"]
        );
        let outer = summary[0];
        assert!(outer.3 <= outer.2, "self time never exceeds busy time");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("outer", 1, |t| t.call("hot", || 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
