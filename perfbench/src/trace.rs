//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a job it belongs to, an optional parent and a
//! start/end on the run's monotonic clock. Spans stay in memory while the
//! run measures and are written out as JSON lines when it ends. A span's
//! self time is its duration minus the part of it that its children
//! cover (children of one parent may overlap, as the shards of a cluster
//! run do, so the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`"net.execute"`, …).
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty store whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.at(Instant::now());
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Records a span measured elsewhere (another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in opening order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per span: id, parent, job, name, start, end and
    /// self time (ns).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.job, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }

    /// The self-time table: one line per span name.
    #[must_use]
    pub fn table(&self) -> Vec<String> {
        self.totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "span {name:<24} count {:>7}  total {:>12.1} us  self {:>12.1} us  \
                     self/span {:>10.2} us",
                    t.count,
                    t.total_ns as f64 / 1e3,
                    t.self_ns as f64 / 1e3,
                    t.self_ns as f64 / 1e3 / t.count.max(1) as f64
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::Tracer;
    use std::time::{Duration, Instant};

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", 0, None, at(0), at(10));
        t.record("child", 0, Some(root), at(1), at(4));
        t.record("child", 0, Some(root), at(3), at(6));
        t.record("child", 0, Some(root), at(8), at(12));
        let selfs = t.self_times();
        // Children cover 1..6 and 8..10 inside the root: 7 of its 10 ms.
        assert_eq!(selfs[root], 3_000_000);
        assert_eq!(t.totals()["child"].count, 3);
    }
}
