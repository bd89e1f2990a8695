//! Compare mode: two sets of end-to-end runs (parent and change) judged
//! metric by metric and workload by workload.
//!
//! Each set is a directory of saved run outputs (the standard output of
//! `earbench --workload W --seed N --seconds S --trace 0`, one file per
//! run). Runs pair up by workload and seed. For every end-to-end metric of
//! `BENCHMARK.json` the report gives each side's median and quartiles, the
//! share of pairs the change won, and a verdict, with every ratio printed
//! next to its base.

use crate::json::{self, Value};
use crate::stats::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;

/// One saved run: its workload, seed and result line.
#[derive(Debug)]
struct Run {
    workload: String,
    seed: u64,
    result: Value,
}

fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(header) = text.lines().find(|l| l.starts_with("earbench ")) else {
            continue;
        };
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                .map(str::to_string)
        };
        if field("trace").as_deref() != Some("0") {
            continue;
        }
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result =
            json::parse(last).map_err(|e| format!("{}: last line: {e}", path.display()))?;
        let workload = field("workload")
            .ok_or_else(|| format!("{}: header has no workload", path.display()))?;
        let seed = field("seed")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{}: header has no seed", path.display()))?;
        runs.push(Run {
            workload,
            seed,
            result,
        });
    }
    Ok(runs)
}

/// `(name, unit, better, bound)` of every end-to-end metric.
fn end_to_end(benchmark: &Value) -> Result<Vec<(String, String, Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(json::str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            let better = match s("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction {other}")),
            };
            let bound = m
                .get("bound")
                .and_then(json::num)
                .ok_or("end_to_end entry without bound")?;
            Ok((s("name")?, s("unit")?, better, bound))
        })
        .collect()
}

fn metric(run: &Run, name: &str) -> Option<f64> {
    json::num(run.result.get("metrics")?.get(name)?.get("value")?)
}

fn side(label: &str, values: &[f64], unit: &str) -> String {
    let med = stats::median(values);
    match stats::quartiles(values) {
        Some((q1, q3)) => format!(
            "    {label:<7} median {med:.6} {unit}  q1 {q1:.6}  q3 {q3:.6}  spread q3-q1 {:.6} = {:.2}% of its median {med:.6} (n={})",
            q3 - q1,
            100.0 * (q3 - q1) / med.abs(),
            values.len()
        ),
        None => format!("    {label:<7} median {med:.6} {unit} (n={}, too few runs for quartiles)", values.len()),
    }
}

/// Prints the comparison of the runs under `parent` and `change`, judged
/// with the bounds of `benchmark_json`.
pub fn compare(parent: &Path, change: &Path, benchmark_json: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let metrics = end_to_end(&json::parse(&text)?)?;
    let (parent, change) = (read_runs(parent)?, read_runs(change)?);
    let mut by_workload: BTreeMap<&str, Vec<(&Run, &Run)>> = BTreeMap::new();
    for p in &parent {
        if let Some(c) = change
            .iter()
            .find(|c| c.workload == p.workload && c.seed == p.seed)
        {
            by_workload
                .entry(p.workload.as_str())
                .or_default()
                .push((p, c));
        }
    }
    if by_workload.is_empty() {
        return Err("no runs pair up by workload and seed".into());
    }
    for (workload, pairs) in &by_workload {
        let ok = |r: &Run| r.result.get("correct") == Some(&Value::Bool(true));
        let count = |r: &Run, k: &str| r.result.get(k).and_then(json::num).unwrap_or(0.0);
        let (mut pa, mut pf, mut ca, mut cf) = (0.0, 0.0, 0.0, 0.0);
        for (p, c) in pairs {
            (pa, pf, ca, cf) = (
                pa + count(p, "attempted"),
                pf + count(p, "failed"),
                ca + count(c, "attempted"),
                cf + count(c, "failed"),
            );
        }
        let change_ok = pairs.iter().filter(|(_, c)| ok(c)).count();
        // A gain counts only when every change run is correct and the
        // change fails no more operations than the parent.
        let gain_allowed = change_ok == pairs.len() && cf <= pf;
        println!("workload {workload}: {} runs paired by seed", pairs.len());
        println!(
            "  correct runs: parent {} of {}, change {change_ok} of {}; failed operations: parent {pf} of {pa} attempted, change {cf} of {ca} attempted",
            pairs.iter().filter(|(p, _)| ok(p)).count(),
            pairs.len(),
            pairs.len()
        );
        if !gain_allowed {
            println!("  no gain counts: the change has incorrect runs or fails more operations");
        }
        for (name, unit, better, bound) in &metrics {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| Some((metric(p, name)?, metric(c, name)?)))
                .collect();
            if values.is_empty() {
                println!("  {name}: not reported");
                continue;
            }
            let (pv, cv): (Vec<f64>, Vec<f64>) = values.iter().copied().unzip();
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            let won = stats::pairs_won(&values, *better);
            let verdict = stats::verdict(&values, *better, *bound, gain_allowed);
            let direction = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            println!(
                "  {name} ({unit}, {direction} is better, bound {:.1}% of the parent median)",
                100.0 * bound
            );
            println!("{}", side("parent", &pv, unit));
            println!("{}", side("change", &cv, unit));
            println!(
                "    change - parent = {:+.6} {unit} = {:+.2}% of the parent median {pm:.6} {unit}",
                cm - pm,
                100.0 * (cm - pm) / pm.abs()
            );
            println!(
                "    pairs won by the change: {won} of {} = {:.0}% (a gain needs 90%)",
                values.len(),
                100.0 * won as f64 / values.len() as f64
            );
            println!("    verdict: {}", verdict.label());
        }
    }
    Ok(())
}
