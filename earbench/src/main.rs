//! The EarSonar benchmark.
//!
//! ```text
//! earbench --workload <clinic_quiet|home_degraded|engine_streams> --seed N --seconds S --trace <0|1>
//! earbench compare <parent-runs-dir> <change-runs-dir> [BENCHMARK.json]
//! ```
//!
//! A run synthesizes its inputs from the seed, fits the model, measures for
//! the given seconds, checks the program's outputs, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. It exits nonzero
//! when an output check fails. See `README.md` beside this crate.

// Reading the clock is this crate's purpose; the workspace lint that keeps
// wall-clock reads out of the program does not apply to its benchmark.
#![allow(clippy::disallowed_methods)]
// `!(x <= bound)` deliberately treats NaN as out of bounds.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod clinic;
mod common;
mod compare;
mod engine;
mod home;
mod host;
mod inputs;
mod json;
mod report;
mod stages;
mod stats;
mod trace;

use common::Ctx;
use report::{RunResult, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

/// A workload's entry point: fills the run result, or fails the run.
type Workload = fn(&Ctx, &mut RunResult, &mut trace::Tracer) -> Result<(), String>;

/// Workload names and their entry points.
const WORKLOADS: &[(&str, Workload)] = &[
    ("clinic_quiet", clinic::run),
    ("home_degraded", home::run),
    ("engine_streams", engine::run),
];

const USAGE: &str = "usage: earbench --workload <clinic_quiet|home_degraded|engine_streams> --seed N --seconds S --trace <0|1>\n       earbench compare <parent-runs-dir> <change-runs-dir> [BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..) {
            Some([parent, change]) => compare_main(parent, change, "BENCHMARK.json"),
            Some([parent, change, bench]) => compare_main(parent, change, bench),
            _ => usage("compare takes two run directories"),
        };
    }
    let mut opts = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return usage(&format!("unexpected argument {flag}"));
        };
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        opts.insert(key.to_string(), value.clone());
    }
    let parsed = (|| -> Result<(&str, Ctx), String> {
        let get = |k: &str| opts.get(k).ok_or(format!("missing --{k}"));
        let name = get("workload")?;
        let workload = WORKLOADS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("unknown workload {name}"))?
            .0;
        let seed = get("seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?;
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?;
        if !(seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        };
        if let Some(extra) = opts
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown option --{extra}"));
        }
        Ok((
            workload,
            Ctx {
                seed,
                seconds,
                workers: host::nproc(),
                trace,
            },
        ))
    })();
    match parsed {
        Ok((workload, ctx)) => run_main(workload, &ctx),
        Err(e) => usage(&e),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("earbench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn compare_main(parent: &str, change: &str, bench: &str) -> ExitCode {
    match compare::compare(Path::new(parent), Path::new(change), Path::new(bench)) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("earbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main(workload: &str, ctx: &Ctx) -> ExitCode {
    let capacity = host::capacity();
    println!(
        "earbench workload={workload} seed={} seconds={} trace={} nproc={} capacity={capacity:.3}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.workers
    );
    let mut result = RunResult::default();
    let mut tracer = trace::Tracer::new();
    let entry = WORKLOADS.iter().find(|(n, _)| *n == workload).map(|w| w.1);
    if let Err(e) = entry.map_or(Err(format!("unknown workload {workload}")), |run| {
        run(ctx, &mut result, &mut tracer)
    }) {
        eprintln!("earbench {workload}: {e}");
        return ExitCode::FAILURE;
    }
    let line = if ctx.trace {
        result.set("host.capacity", capacity);
        result.set("host.nproc", ctx.workers as f64);
        let dir = Path::new(".earbench");
        let path = dir.join(format!("{workload}.spans.tsv"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| tracer.write_tsv(&path)) {
            eprintln!("earbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        result.line(PER_LAYER, true)
    } else {
        match host::peak_rss_mb() {
            Some(mb) => result.set("peak_rss_mb", mb),
            None => result.mismatch("peak resident memory is unreadable".into()),
        }
        result.line(END_TO_END, false)
    };
    for m in &result.mismatches {
        eprintln!("earbench {workload}: CHECK FAILED: {m}");
    }
    match line {
        Ok(line) => {
            println!("{line}");
            if result.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("earbench {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
