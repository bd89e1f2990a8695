//! `home_degraded`: home visits at 50 dB SPL with head movement. Each visit
//! is two PCM16 WAV captures of the same ear and day; every other visit's
//! first capture carries a fault. Latency is one `screen_with_retry` call
//! over a `WavSignalSource` with the default `RetryPolicy` on one thread
//! (closed loop, one client); throughput is visits per second on that
//! thread.

use crate::common::{self, Ctx, Setups};
use crate::host;
use crate::inputs::{self, Visit};
use crate::report::{self, RunResult};
use crate::stages::{Counts, Resolved, StageRunner};
use crate::stats;
use crate::trace::{self, Tracer};
use earsonar::screening::{screen_with_retry, InconclusiveReason, RetryPolicy};
use earsonar::{EarSonar, EarSonarConfig, EarSonarError, MeeState};
use earsonar_signal::recording::ChirpLayout;
use earsonar_signal::source::QueueSource;
use earsonar_signal::wav::{recording_from_wav, recording_from_wav_buffered, WavSignalSource};
use std::path::PathBuf;
use std::time::Instant;

/// A visit's outcome and the captures it took.
type VisitOutcome = Result<(Resolved, usize), EarSonarError>;

/// Removes the run's WAV directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload; `Err` is a program or set-up failure.
pub fn run(ctx: &Ctx, result: &mut RunResult, tracer: &mut Tracer) -> Result<(), String> {
    let dir = TempDir(PathBuf::from(format!(
        ".earbench/wav-{}",
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let train = inputs::training_sessions(ctx.workers);
    let visits = inputs::home_visits(ctx.seed, ctx.workers, &dir.0)?;
    host::reset_peak_rss()?;
    let mut setups = Setups::new(&train, &|_| {});
    let system = setups.fit().map_err(|e| e.to_string())?;
    let config = EarSonarConfig::default();
    let layout = ChirpLayout {
        sample_rate: config.sample_rate,
        chirp_len: config.chirp_len,
        chirp_hop: config.chirp_hop,
    };
    let reference = reference_outcomes(&system, &visits, &layout)?;
    let truths: Vec<MeeState> = visits.iter().map(|v| v.truth).collect();
    let start = Instant::now();
    if ctx.trace {
        let probe: Vec<_> = visits
            .iter()
            .take(16)
            .map(|v| recording_from_wav(&v.paths[1], &layout))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        common::traced_setup(result, &train, &system, &probe).map_err(|e| e.to_string())?;
        // The same traced visit with spans on and off, alternating.
        let mut traced = TracedPasses::new(&system).map_err(|e| e.to_string())?;
        let mut plain = TracedPasses::new(&system).map_err(|e| e.to_string())?;
        let mut off = Tracer::disabled();
        let mut cycle = 0;
        while traced.times.is_empty() || start.elapsed() < ctx.budget(1.0) {
            // Each goes first in every other cycle.
            if cycle % 2 == 0 {
                traced.pass(result, tracer, &visits, &layout, &reference);
            }
            plain.pass(result, &mut off, &visits, &layout, &reference);
            if cycle % 2 == 1 {
                traced.pass(result, tracer, &visits, &layout, &reference);
            }
            cycle += 1;
        }
        let rows = trace::ledger(tracer.spans());
        report::stage_metrics(result, &rows, "screening", &traced.counts);
        println!("{}", report::ledger_text(&rows, "screening"));
        let wav = rows.get("wav").copied().unwrap_or_default();
        result.set(
            "wav.us_per_capture",
            wav.total_ns as f64 / 1e3 / wav.count.max(1) as f64,
        );
        result.set(
            "screening.attempts_per_visit",
            traced.attempts as f64 / traced.times.len() as f64,
        );
        result.set(
            "trace.overhead_ratio",
            stats::median(&traced.times) / stats::median(&plain.times),
        );
    } else {
        let mut timed = Passes::default();
        while timed.rates.len() < 3
            || timed.times.len() < common::min_latency_samples()
            || start.elapsed() < ctx.budget(1.0)
            || !setups.done()
        {
            timed.pass(result, &system, &visits, &layout, &reference);
            setups
                .keep_pace(start.elapsed(), ctx.budget(1.0))
                .map_err(|e| e.to_string())?;
        }
        setups.report(result);
        common::set_cpu_latency(result, &timed.times, &timed.wall);
        result.set("throughput_per_s", stats::interquartile_mean(&timed.rates));
        let outcomes: Vec<_> = timed.first.into_iter().map(|o| o.map(|(r, _)| r)).collect();
        common::set_outcome_rates(result, &outcomes, &truths);
    }
    Ok(())
}

/// The expected outcome of every visit: `screen_with_retry` over the same
/// captures decoded by the all-f64 reference WAV reader.
fn reference_outcomes(
    system: &EarSonar,
    visits: &[Visit],
    layout: &ChirpLayout,
) -> Result<Vec<VisitOutcome>, String> {
    let policy = RetryPolicy::default();
    visits
        .iter()
        .map(|v| {
            let recs = v
                .paths
                .iter()
                .map(|p| recording_from_wav(p, layout))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let mut source = QueueSource::new(recs);
            Ok(screen_with_retry(system, &mut source, &policy)
                .map(|o| (Resolved::of(&o), attempts_of(&o))))
        })
        .collect()
}

fn attempts_of(o: &earsonar::ScreeningOutcome) -> usize {
    match o {
        earsonar::ScreeningOutcome::Conclusive(r) => r.attempts,
        earsonar::ScreeningOutcome::Inconclusive(r) => r.attempts,
    }
}

/// Closed loop, one client: `screen_with_retry` per visit.
#[derive(Default)]
struct Passes {
    /// Per-visit process CPU times, ms.
    times: Vec<f64>,
    /// Per-visit wall times, ms.
    wall: Vec<f64>,
    /// Visits per second of each pass.
    rates: Vec<f64>,
    /// The first pass's outcomes.
    first: Vec<VisitOutcome>,
}

impl Passes {
    /// One pass over the visits, each checked against the reference decode.
    fn pass(
        &mut self,
        result: &mut RunResult,
        system: &EarSonar,
        visits: &[Visit],
        layout: &ChirpLayout,
        reference: &[VisitOutcome],
    ) {
        let policy = RetryPolicy::default();
        let t_pass = Instant::now();
        for (i, v) in visits.iter().enumerate() {
            let mut source = WavSignalSource::new(*layout, v.paths.to_vec());
            let (t, cpu) = (Instant::now(), host::process_cpu_ms());
            let out = screen_with_retry(system, &mut source, &policy);
            self.times.push(host::process_cpu_ms() - cpu);
            self.wall.push(t.elapsed().as_secs_f64() * 1e3);
            let out = out.map(|o| (Resolved::of(&o), attempts_of(&o)));
            result.attempted += 1;
            result.failed += u64::from(out.is_err());
            if out != reference[i] {
                result.mismatch(format!(
                    "visit {i}: WAV-source outcome {out:?}, reference decode {:?}",
                    reference[i]
                ));
            }
            if self.first.len() < visits.len() {
                self.first.push(out);
            }
        }
        self.rates
            .push(visits.len() as f64 / t_pass.elapsed().as_secs_f64());
    }
}

/// The traced visit: `screen_with_retry`'s capture loop driven from
/// outside, with a `wav` span per decode and the stage spans per capture.
/// Like a fresh `WavSignalSource`, each visit starts with empty decode
/// buffers.
fn traced_visit(
    tracer: &mut Tracer,
    stages: &StageRunner,
    counts: &mut Counts,
    visit: &Visit,
    layout: &ChirpLayout,
) -> Result<(Resolved, usize), EarSonarError> {
    let policy = RetryPolicy::default();
    let (mut bytes, mut pcm) = (Vec::new(), Vec::new());
    let (max_attempts, quorum) = (
        policy.max_attempts.max(1),
        policy.min_accepted_chirps.max(1),
    );
    let (mut best_usable, mut saw_no_echo, mut saw_low_confidence) = (0usize, false, false);
    let mut attempts = 0;
    while attempts < max_attempts {
        attempts += 1;
        let Some(path) = visit.paths.get(attempts - 1) else {
            return Ok((
                Resolved::Inconclusive(InconclusiveReason::SourceExhausted),
                attempts,
            ));
        };
        tracer.begin("wav");
        let decoded = recording_from_wav_buffered(path, layout, &mut bytes, &mut pcm);
        tracer.end();
        let Ok(rec) = decoded else { continue };
        match stages.screen(tracer, &rec.samples, counts)?.0 {
            Resolved::Conclusive(state) => return Ok((Resolved::Conclusive(state), attempts)),
            Resolved::Inconclusive(InconclusiveReason::QuorumNotMet { best_usable: u, .. }) => {
                best_usable = best_usable.max(u)
            }
            Resolved::Inconclusive(InconclusiveReason::NoUsableEcho) => saw_no_echo = true,
            Resolved::Inconclusive(InconclusiveReason::LowConfidence) => {
                saw_low_confidence = true;
                best_usable = best_usable.max(quorum);
            }
            Resolved::Inconclusive(InconclusiveReason::SourceExhausted) => {}
        }
    }
    let reason = if best_usable == 0 && saw_no_echo {
        InconclusiveReason::NoUsableEcho
    } else if saw_low_confidence && best_usable >= quorum {
        InconclusiveReason::LowConfidence
    } else {
        InconclusiveReason::QuorumNotMet {
            needed: quorum,
            best_usable,
        }
    };
    Ok((Resolved::Inconclusive(reason), attempts))
}

/// Passes of [`traced_visit`], one `screening` root span per visit (none
/// with a disabled tracer).
struct TracedPasses<'a> {
    stages: StageRunner<'a>,
    counts: Counts,
    /// Per-visit wall times, ms.
    times: Vec<f64>,
    /// Captures screened over all traced visits.
    attempts: usize,
    passes: u64,
}

impl<'a> TracedPasses<'a> {
    fn new(system: &'a EarSonar) -> Result<Self, EarSonarError> {
        Ok(TracedPasses {
            stages: StageRunner::new(system, RetryPolicy::default())?,
            counts: Counts::default(),
            times: Vec::new(),
            attempts: 0,
            passes: 0,
        })
    }

    /// One pass; the first is checked against the program.
    fn pass(
        &mut self,
        result: &mut RunResult,
        tracer: &mut Tracer,
        visits: &[Visit],
        layout: &ChirpLayout,
        reference: &[VisitOutcome],
    ) {
        for (i, v) in visits.iter().enumerate() {
            tracer.set_id(self.passes * visits.len() as u64 + i as u64);
            let t = Instant::now();
            tracer.begin("screening");
            let out = traced_visit(tracer, &self.stages, &mut self.counts, v, layout);
            tracer.end();
            self.times.push(t.elapsed().as_secs_f64() * 1e3);
            result.attempted += 1;
            result.failed += u64::from(out.is_err());
            self.attempts += out.as_ref().map_or(0, |o| o.1);
            if self.passes == 0 && out != reference[i] {
                result.mismatch(format!(
                    "visit {i}: traced stages resolve to {out:?}, the program to {:?}",
                    reference[i]
                ));
            }
        }
        self.passes += 1;
    }
}
