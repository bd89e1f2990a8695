//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program,
//! never inside the program: the traced run drives the public stage
//! functions itself. Each span carries its name, start, end, the span that
//! caused it, and the screening it belongs to. Spans stay in memory until
//! the run ends, when they are aggregated into a ledger and written out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `quality` or `engine.drain`.
    pub name: &'static str,
    /// Screening (or engine round) the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

/// Nested span recorder: `begin` opens a span under the innermost open
/// one, `end` closes the innermost. A disabled tracer records nothing, so
/// the same traced code can run with spans off as the base of the trace
/// overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
    enabled: bool,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            id: 0,
            enabled: true,
        }
    }

    /// A tracer whose `begin` and `end` do nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
            enabled: false,
        }
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the tracer's origin to `t`.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tags the spans begun from now on with screening `id`.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id: self.id,
            parent: None,
            start,
            end: start,
        });
        let n = self.open.len();
        if n >= 2 {
            let idx = self.open[n - 1];
            self.spans[idx].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = now;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated `id name parent start_ns end_ns`
    /// lines (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            match s.parent {
                Some(p) => writeln!(out, "{}\t{}\t{}\t{}\t{}", s.id, s.name, p, s.start, s.end)?,
                None => writeln!(out, "{}\t{}\t-\t{}\t{}", s.id, s.name, s.start, s.end)?,
            }
        }
        out.flush()
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval its children cover. Children are clipped to the span and
/// overlapping children are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in kids {
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
    end.saturating_sub(start) - covered
}

/// Totals of one span name across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

/// Per-name totals of a span set, keyed by span name.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.self_ns += self_time(s.start, s.end, kids);
        row.total_ns += s.end.saturating_sub(s.start);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30)]), 80);
        // Overlapping children count once: [10, 50) ∪ [60, 70) = 50.
        assert_eq!(self_time(0, 100, &[(60, 70), (10, 30), (20, 50)]), 50);
        // A child poking out of its parent is clipped to it.
        assert_eq!(self_time(0, 100, &[(90, 120)]), 90);
        assert_eq!(self_time(50, 100, &[(0, 40)]), 50);
        // Full cover leaves nothing.
        assert_eq!(self_time(0, 100, &[(0, 60), (60, 100)]), 0);
    }

    #[test]
    fn ledger_nests_spans_under_the_innermost_open_one() {
        let mut t = Tracer::new();
        t.begin("screening");
        t.begin("quality");
        t.end();
        t.begin("resolve");
        t.begin("detect");
        t.end();
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let rows = ledger(spans);
        let total_self: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total_self, rows["screening"].total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin("screening");
        t.begin("quality");
        t.end();
        t.end();
        assert!(t.spans().is_empty());
    }
}
