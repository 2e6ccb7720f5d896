//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records a name, its start and end on a monotonic clock, and the
//! span that was open when it started. Spans stay in memory while the
//! workload runs and are written out once it has finished, so recording
//! costs two clock reads and a `Vec` push per call. A disabled recorder
//! (the untraced runs) only calls through.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<function>` of the call the span wraps.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: calls, total time, and self time (total minus the
/// time covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that only calls through.
    pub fn off() -> Self {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through
    /// the recorder it is handed become children of this one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Seconds spent in spans named `name` (0 when there are none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_s)
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::on();
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = spans.totals();
        assert_eq!(t["outer"].calls, 1);
        assert!(t["inner"].total_s >= 0.02);
        assert!(t["outer"].self_s < t["inner"].total_s);
        assert!((t["outer"].total_s - t["outer"].self_s - t["inner"].total_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.time("x", |_| 7), 7);
        assert!(spans.totals().is_empty());
    }
}
