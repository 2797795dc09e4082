//! Outside-in span recorder: the benchmark opens a span around each call it
//! makes into a layer's public functions. Spans stay in memory and are
//! written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Stream, session or evaluation the span belongs to.
    id: u64,
}

/// Time and calls attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the part child spans cover), seconds.
    pub self_s: f64,
}

/// In-memory span recorder. A disabled tracer records nothing and never
/// reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(u32);

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.enter(name, id);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Sum of the durations of root spans recorded since span `from`.
    pub fn root_time_s(&self, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Per-name call counts, total and self time over spans `from..`.
    pub fn totals(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT && span.parent as usize >= from {
                child_ns[span.parent as usize - from] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
        }
        totals
    }

    /// Every span as a CSV row: `index,name,start_ns,end_ns,parent,id`
    /// (`parent` is empty for a root span).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("index,name,start_ns,end_ns,parent,id\n");
        for (index, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{index},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

/// The layer a span name belongs to: the part before its first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, largest first.
pub fn layer_self_times(totals: &BTreeMap<&'static str, NameTotals>) -> Vec<(String, f64)> {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in totals {
        *layers.entry(layer_of(name).to_string()).or_default() += t.self_s;
    }
    let mut v: Vec<(String, f64)> = layers.into_iter().collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum_durations() {
        let mut t = Tracer::new();
        let outer = t.enter("outer.run", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("inner.step", 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit(outer);
        let totals = t.totals(0);
        let outer = totals["outer.run"];
        let inner = totals["inner.step"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert!(inner.self_s == inner.total_s);
        assert_eq!(t.root_time_s(0), outer.total_s);
        let layers = layer_self_times(&totals);
        assert_eq!(layers[0].0, "inner");
        assert_eq!(
            t.to_csv().lines().nth(2).unwrap().split(',').nth(4),
            Some("0")
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let open = t.enter("x.y", 0);
        t.exit(open);
        assert_eq!(t.len(), 0);
    }
}
