//! Metric names, units and the result line every run prints.

use crate::json::quote;
use crate::stages::Counts;
use crate::trace::Row;
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("conclusive_rate", "ratio"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quality.us_per_chirp", "us"),
    ("quality.accept_ratio", "ratio"),
    ("quality.share", "ratio"),
    ("preprocess.us_per_chirp", "us"),
    ("preprocess.share", "ratio"),
    ("event.us_per_chirp", "us"),
    ("event.hit_ratio", "ratio"),
    ("event.share", "ratio"),
    ("channel.us_per_ir", "us"),
    ("channel.ir_ratio", "ratio"),
    ("channel.share", "ratio"),
    ("segment.us_per_screening", "us"),
    ("segment.share", "ratio"),
    ("align.us_per_chirp", "us"),
    ("align.share", "ratio"),
    ("absorption.us_per_chirp", "us"),
    ("absorption.spectra_ratio", "ratio"),
    ("absorption.share", "ratio"),
    ("features.us_per_screening", "us"),
    ("features.share", "ratio"),
    ("detect.us_per_screening", "us"),
    ("detect.share", "ratio"),
    ("screening.attempts_per_visit", "count"),
    ("screening.resolve_us", "us"),
    ("screening.inconclusive_ratio.quorum", "ratio"),
    ("screening.inconclusive_ratio.no_echo", "ratio"),
    ("screening.inconclusive_ratio.low_confidence", "ratio"),
    ("wav.us_per_capture", "us"),
    ("wav.share", "ratio"),
    ("streaming.us_per_chunk", "us"),
    ("engine.push_us", "us"),
    ("engine.drain_ms", "ms"),
    ("engine.sessions_per_drain", "count"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.busy_share", "ratio"),
    ("engine.rejected_push_ratio", "ratio"),
    ("engine.peak_in_flight", "count"),
    ("batch.efficiency", "ratio"),
    ("setup.extract_s", "s"),
    ("setup.fit_s", "s"),
    ("host.capacity", "ratio"),
    ("host.nproc", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// Largest share of the traced per-screening time that may lie outside
/// every stage span before the ledger counts as incomplete.
pub const MAX_UNACCOUNTED: f64 = 0.05;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
    /// Output-check failures, described.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output-check failure.
    pub fn mismatch(&mut self, what: String) {
        const KEPT: usize = 20;
        if self.mismatches.len() < KEPT {
            self.mismatches.push(what);
        } else if self.mismatches.len() == KEPT {
            self.mismatches
                .push("further check failures not listed".into());
        }
    }

    /// The result line: every metric of `declared` (absent per-layer ones
    /// read 0), in declaration order. Errors name a missing end-to-end
    /// metric, an undeclared one, a non-finite value, or a run that
    /// attempted nothing.
    pub fn line(
        &self,
        declared: &[(&'static str, &'static str)],
        zero_if_absent: bool,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared for this mode"));
        }
        let mut parts = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if zero_if_absent => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summed self time of a ledger row, µs.
pub fn self_us(rows: &BTreeMap<&'static str, Row>, name: &str) -> f64 {
    rows.get(name).map_or(0.0, |r| r.self_ns as f64 / 1e3)
}

/// Summed duration of a ledger row, µs.
pub fn total_us(rows: &BTreeMap<&'static str, Row>, name: &str) -> f64 {
    rows.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e3)
}

/// Fills the stage metrics from a stage ledger rooted at `root` spans and
/// the stage counters; checks that the stage spans cover the root time up
/// to [`MAX_UNACCOUNTED`].
pub fn stage_metrics(
    result: &mut RunResult,
    rows: &BTreeMap<&'static str, Row>,
    root: &str,
    c: &Counts,
) {
    let us = |n: &str| self_us(rows, n);
    let root_us = total_us(rows, root);
    let f = |x: u64| x as f64;
    result.set("quality.us_per_chirp", ratio(us("quality"), f(c.pushed)));
    result.set("quality.accept_ratio", ratio(f(c.accepted), f(c.pushed)));
    result.set(
        "preprocess.us_per_chirp",
        ratio(us("preprocess"), f(c.accepted)),
    );
    result.set("event.us_per_chirp", ratio(us("event"), f(c.accepted)));
    result.set("event.hit_ratio", ratio(f(c.events), f(c.accepted)));
    result.set("channel.us_per_ir", ratio(us("channel"), f(c.events)));
    result.set("channel.ir_ratio", ratio(f(c.irs), f(c.events)));
    result.set(
        "segment.us_per_screening",
        ratio(us("segment"), f(c.resolved)),
    );
    result.set("align.us_per_chirp", ratio(us("align"), f(c.aligned)));
    result.set(
        "absorption.us_per_chirp",
        ratio(us("absorption"), f(c.aligned)),
    );
    result.set(
        "absorption.spectra_ratio",
        ratio(f(c.spectra), f(c.aligned)),
    );
    result.set(
        "features.us_per_screening",
        ratio(us("features"), f(c.extracted)),
    );
    result.set(
        "detect.us_per_screening",
        ratio(us("detect"), f(c.classified)),
    );
    result.set(
        "screening.resolve_us",
        ratio(total_us(rows, "resolve"), f(c.resolved)),
    );
    result.set(
        "screening.inconclusive_ratio.quorum",
        ratio(f(c.quorum), f(c.screenings)),
    );
    result.set(
        "screening.inconclusive_ratio.no_echo",
        ratio(f(c.no_echo), f(c.screenings)),
    );
    result.set(
        "screening.inconclusive_ratio.low_confidence",
        ratio(f(c.low_confidence), f(c.screenings)),
    );
    let shares: [(&str, &'static str); 10] = [
        ("quality", "quality.share"),
        ("preprocess", "preprocess.share"),
        ("event", "event.share"),
        ("channel", "channel.share"),
        ("segment", "segment.share"),
        ("align", "align.share"),
        ("absorption", "absorption.share"),
        ("features", "features.share"),
        ("detect", "detect.share"),
        ("wav", "wav.share"),
    ];
    for (stage, metric) in shares {
        result.set(metric, ratio(us(stage), root_us));
    }
    check_coverage(result, rows, root);
}

/// Fails the run when more than [`MAX_UNACCOUNTED`] of the `root` spans'
/// time lies outside every child span, and records the remainder.
pub fn check_coverage(result: &mut RunResult, rows: &BTreeMap<&'static str, Row>, root: &str) {
    let unaccounted = ratio(self_us(rows, root), total_us(rows, root));
    let prev = result
        .metrics
        .get("trace.unaccounted_ratio")
        .copied()
        .unwrap_or(0.0);
    result.set("trace.unaccounted_ratio", prev.max(unaccounted));
    if !(unaccounted <= MAX_UNACCOUNTED) {
        result.mismatch(format!(
            "span coverage: {:.1}% of the traced {root} time lies outside every stage span (limit {:.0}%)",
            100.0 * unaccounted,
            100.0 * MAX_UNACCOUNTED
        ));
    }
}

/// The ledger as text: one line per span name with its count, self time,
/// and self time as a share of the `root` spans' total.
pub fn ledger_text(rows: &BTreeMap<&'static str, Row>, root: &str) -> String {
    let root_us = total_us(rows, root);
    let mut order: Vec<(&&str, &Row)> = rows.iter().collect();
    order.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_ns));
    let mut out = format!(
        "ledger under `{root}` ({} spans, {:.1} ms traced):\n  {:<22} {:>9} {:>12} {:>8} {:>11}\n",
        rows.get(root).map_or(0, |r| r.count),
        root_us / 1e3,
        "span",
        "count",
        "self ms",
        "share",
        "self us/op"
    );
    for (name, row) in order {
        let self_us = row.self_ns as f64 / 1e3;
        out.push_str(&format!(
            "  {:<22} {:>9} {:>12.3} {:>7.2}% {:>11.3}\n",
            name,
            row.count,
            self_us / 1e3,
            100.0 * ratio(self_us, root_us),
            ratio(self_us, row.count as f64)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(json: &crate::json::Value, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(crate::json::arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(crate::json::str)
                        .expect("field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = RunResult::default();
        r.set("setup_s", 0.5);
        assert!(r.line(END_TO_END, false).is_err());
        let line = r.line(PER_LAYER, true);
        assert!(line.is_err(), "setup_s is not a per-layer metric");
        let mut r = RunResult::default();
        r.set("host.capacity", 1.25);
        assert!(r.line(PER_LAYER, true).is_err(), "nothing attempted");
        r.attempted = 3;
        let line = r.line(PER_LAYER, true).unwrap();
        let v = crate::json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("host.capacity")
                .and_then(|x| x.get("value"))
                .and_then(crate::json::num),
            Some(1.25)
        );
        assert_eq!(
            m.get("wav.us_per_capture")
                .and_then(|x| x.get("value"))
                .and_then(crate::json::num),
            Some(0.0)
        );
        assert_eq!(v.get("correct"), Some(&crate::json::Value::Bool(true)));
    }
}
