//! `clinic_quiet`: the paper's protocol. Quiet room, seated, 24 chirps per
//! capture from a held-out paper-size cohort. Latency is one
//! `screen_recording_quality` call on one thread (closed loop, one client);
//! throughput is `EarSonar::screen_batch_with_workers` at the reported core
//! count over the same captures.

use crate::common::{self, Ctx, Redrive, Setups};
use crate::host;
use crate::inputs;
use crate::report::{self, RunResult};
use crate::stages::Resolved;
use crate::stats;
use crate::trace::{self, Tracer};
use earsonar::screening::{screen_recording_quality, RetryPolicy};
use earsonar::{EarSonar, EarSonarError, MeeState};
use earsonar_signal::recording::Recording;
use std::time::Instant;

type Verdicts = Vec<Result<MeeState, EarSonarError>>;

/// Runs the workload; `Err` is a program or set-up failure.
///
/// The measured phases alternate pass by pass for the whole run, and the
/// set-ups are spread through them, so every metric samples the same
/// stretch of host time.
pub fn run(ctx: &Ctx, result: &mut RunResult, tracer: &mut Tracer) -> Result<(), String> {
    let train = inputs::training_sessions(ctx.workers);
    let captures = inputs::clinic_captures(ctx.seed, ctx.workers);
    let recs = &captures.recordings;
    host::reset_peak_rss()?;
    let mut setups = Setups::new(&train, &|_| {});
    let system = setups.fit().map_err(|e| e.to_string())?;
    let reference: Verdicts = recs.iter().map(|r| system.screen(r)).collect();
    let start = Instant::now();
    if ctx.trace {
        common::traced_setup(result, &train, &system, &recs[..16.min(recs.len())])
            .map_err(|e| e.to_string())?;
        let policy = RetryPolicy::default();
        let expected: Vec<_> = recs
            .iter()
            .map(|r| screen_recording_quality(&system, r, &policy).map(|o| Resolved::of(&o)))
            .collect();
        // The same stage re-drive with spans on and off, alternating.
        let mut traced = Redrive::new(&system).map_err(|e| e.to_string())?;
        let mut plain = Redrive::new(&system).map_err(|e| e.to_string())?;
        let mut off = Tracer::disabled();
        let mut efficiency = Vec::new();
        while efficiency.len() < 2 || start.elapsed() < ctx.budget(1.0) {
            // Each goes first in every other cycle.
            if efficiency.len() % 2 == 0 {
                traced.pass(result, tracer, recs, &expected);
            }
            plain.pass(result, &mut off, recs, &expected);
            if efficiency.len() % 2 == 1 {
                traced.pass(result, tracer, recs, &expected);
            }
            efficiency.push(batch_efficiency(result, ctx, &system, recs, &reference));
        }
        let (counts, traced_ms) = traced.finish(result, recs);
        let rows = trace::ledger(tracer.spans());
        report::stage_metrics(result, &rows, "screening", &counts);
        println!("{}", report::ledger_text(&rows, "screening"));
        result.set("screening.attempts_per_visit", 1.0);
        result.set(
            "trace.overhead_ratio",
            stats::median(&traced_ms) / stats::median(plain.times()),
        );
        result.set("batch.efficiency", stats::median(&efficiency));
    } else {
        let mut latency = LatencyPasses::default();
        let mut rates = Vec::new();
        while rates.len() < 3
            || latency.times.len() < common::min_latency_samples()
            || start.elapsed() < ctx.budget(1.0)
            || !setups.done()
        {
            latency.pass(result, &system, recs, &reference);
            rates.push(batch_rate(result, ctx, &system, recs, &reference));
            setups
                .keep_pace(start.elapsed(), ctx.budget(1.0))
                .map_err(|e| e.to_string())?;
        }
        setups.report(result);
        common::set_cpu_latency(result, &latency.times, &latency.wall);
        common::set_outcome_rates(result, &latency.first, &captures.truths);
        result.set("throughput_per_s", stats::interquartile_mean(&rates));
    }
    Ok(())
}

/// Closed loop, one client: `screen_recording_quality` per capture.
#[derive(Default)]
struct LatencyPasses {
    /// Per-call process CPU times, ms.
    times: Vec<f64>,
    /// Per-call wall times, ms.
    wall: Vec<f64>,
    /// The first pass's outcomes.
    first: Vec<Result<Resolved, EarSonarError>>,
}

impl LatencyPasses {
    /// One pass over the captures. Every pass must repeat the first, and
    /// conclusive verdicts must equal sequential `EarSonar::screen`.
    fn pass(
        &mut self,
        result: &mut RunResult,
        system: &EarSonar,
        recs: &[Recording],
        reference: &Verdicts,
    ) {
        let policy = RetryPolicy::default();
        let first_pass = self.first.is_empty();
        for (i, rec) in recs.iter().enumerate() {
            let (t, cpu) = (Instant::now(), host::process_cpu_ms());
            let out = screen_recording_quality(system, rec, &policy);
            self.times.push(host::process_cpu_ms() - cpu);
            self.wall.push(t.elapsed().as_secs_f64() * 1e3);
            result.attempted += 1;
            let out = out.map(|o| Resolved::of(&o));
            result.failed += u64::from(out.is_err());
            if first_pass {
                if let Ok(Resolved::Conclusive(state)) = out {
                    if reference[i].as_ref().ok() != Some(&state) {
                        result.mismatch(format!(
                            "capture {i}: quality-gated verdict {state:?}, EarSonar::screen {:?}",
                            reference[i]
                        ));
                    }
                }
                self.first.push(out);
            } else if self.first[i] != out {
                result.mismatch(format!("capture {i}: outcome changed between passes"));
            }
        }
    }
}

/// One batch at the reported core count; returns screenings per second.
/// The batch must equal sequential `EarSonar::screen`.
fn batch_rate(
    result: &mut RunResult,
    ctx: &Ctx,
    system: &EarSonar,
    recs: &[Recording],
    reference: &Verdicts,
) -> f64 {
    let t = Instant::now();
    let batch = system.screen_batch_with_workers(recs, ctx.workers);
    let rate = recs.len() as f64 / t.elapsed().as_secs_f64();
    result.attempted += recs.len() as u64;
    result.failed += batch.iter().filter(|v| v.is_err()).count() as u64;
    check_batch(result, &batch, reference);
    rate
}

fn check_batch(result: &mut RunResult, batch: &Verdicts, reference: &Verdicts) {
    if let Some(i) = (0..reference.len()).find(|&i| batch.get(i) != reference.get(i)) {
        result.mismatch(format!(
            "capture {i}: batch verdict {:?}, sequential {:?}",
            batch.get(i),
            reference[i]
        ));
    }
}

/// One `batch.efficiency` sample: summed single-thread `EarSonar::screen`
/// times over (workers × batch wall time).
fn batch_efficiency(
    result: &mut RunResult,
    ctx: &Ctx,
    system: &EarSonar,
    recs: &[Recording],
    reference: &Verdicts,
) -> f64 {
    let mut single = 0.0;
    for rec in recs {
        let t = Instant::now();
        let _ = std::hint::black_box(system.screen(rec));
        single += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let batch = system.screen_batch_with_workers(recs, ctx.workers);
    let wall = t.elapsed().as_secs_f64();
    check_batch(result, &batch, reference);
    single / (ctx.workers as f64 * wall)
}
