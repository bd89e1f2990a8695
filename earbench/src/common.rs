//! Pieces every workload shares: the run context, model set-up, latency
//! summaries, and the traced stage re-drive over a set of captures.

use crate::host;
use crate::report::RunResult;
use crate::stages::{Counts, Resolved, StageRunner};
use crate::stats;
use crate::trace::Tracer;
use earsonar::backend;
use earsonar::pipeline::{EarSonar, FrontEnd};
use earsonar::screening::RetryPolicy;
use earsonar::{EarSonarConfig, EarSonarError, MeeState};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;
use std::time::{Duration, Instant};

/// Set-ups a run times; `setup_s` is their interquartile mean.
pub const SETUP_REPS: usize = 7;

/// Set-ups the traced run re-drives; `setup.extract_s` and `setup.fit_s`
/// are their medians.
pub const TRACED_SETUP_REPS: usize = 3;

/// Latency samples a run holds at least, so that ten lie beyond p99.
pub fn min_latency_samples() -> usize {
    stats::min_samples_for(99.0)
}

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Workers for the parallel paths: the reported core count.
    pub workers: usize,
    /// Traced run (per-layer metrics) rather than end-to-end.
    pub trace: bool,
}

impl Ctx {
    /// `share` of the measured seconds.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Timed set-ups (`EarSonar::fit`, plus `extra` on each fitted system).
/// The first comes before the measured phases; [`Setups::keep_pace`]
/// spreads the rest evenly through them, so `setup_s` samples the same
/// stretch of host time as the run's other metrics.
pub struct Setups<'a> {
    train: &'a [Session],
    extra: &'a dyn Fn(&EarSonar),
    /// Wall time of each set-up, s.
    times: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Set-ups over `train`, none taken yet.
    pub fn new(train: &'a [Session], extra: &'a dyn Fn(&EarSonar)) -> Self {
        Setups {
            train,
            extra,
            times: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// One timed set-up; returns the fitted system.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn fit(&mut self) -> Result<EarSonar, EarSonarError> {
        let t = Instant::now();
        let system = EarSonar::fit(self.train, &EarSonarConfig::default())?;
        (self.extra)(&system);
        self.times.push(t.elapsed().as_secs_f64());
        Ok(system)
    }

    /// Takes one more set-up when fewer have been taken than are due
    /// `elapsed` into a run of `budget`: the last [`SETUP_REPS`] − 1 fall
    /// at the midpoints of equal slices of the run.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn keep_pace(&mut self, elapsed: Duration, budget: Duration) -> Result<(), EarSonarError> {
        let share = elapsed.as_secs_f64() / budget.as_secs_f64().max(f64::MIN_POSITIVE);
        let due = 1 + ((SETUP_REPS - 1) as f64 * share + 0.5) as usize;
        if self.times.len() < due.min(SETUP_REPS) {
            // The first set-up's memory counts. A repeat's transient peak,
            // and how much of it the allocator keeps resident, depend on
            // where earlier passes left its free lists: timing, not the
            // program.
            std::hint::black_box(host::outside_peak(|| self.fit())?);
        }
        Ok(())
    }

    /// Whether all [`SETUP_REPS`] set-ups are taken.
    pub fn done(&self) -> bool {
        self.times.len() >= SETUP_REPS
    }

    /// Records `setup_s`: the interquartile mean of the set-up times.
    pub fn report(&self, result: &mut RunResult) {
        if self.times.is_empty() {
            result.mismatch("no set-up was timed".into());
        } else {
            result.set("setup_s", stats::interquartile_mean(&self.times));
        }
    }
}

/// The traced set-up: the two halves of `EarSonar::fit` driven from
/// outside — the reference front end over the training set, then the
/// reference backend's fit — [`TRACED_SETUP_REPS`] times. Records the
/// median of each as `setup.extract_s` / `setup.fit_s` and checks that the
/// re-driven system gives `system`'s verdicts on `probe` recordings.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn traced_setup(
    result: &mut RunResult,
    train: &[Session],
    system: &EarSonar,
    probe: &[Recording],
) -> Result<(), EarSonarError> {
    let config = EarSonarConfig::default();
    let spec = backend::reference();
    let (mut extract, mut fit) = (Vec::new(), Vec::new());
    for rep in 0..TRACED_SETUP_REPS {
        let t = Instant::now();
        let front_end = FrontEnd::for_backend(&config, spec)?;
        let mut features = Vec::with_capacity(train.len());
        let mut labels = Vec::with_capacity(train.len());
        for s in train {
            if let Ok(p) = front_end.process(&s.recording) {
                features.push(p.features);
                labels.push(s.ground_truth);
            }
        }
        let t_fit = Instant::now();
        let classifier = (spec.fit)(&features, &labels, &config)?;
        let t_end = Instant::now();
        extract.push((t_fit - t).as_secs_f64());
        fit.push((t_end - t_fit).as_secs_f64());
        if rep == 0 {
            let redriven = EarSonar::from_backend_parts(front_end, classifier);
            for (i, rec) in probe.iter().enumerate() {
                if redriven.screen(rec) != system.screen(rec) {
                    result.mismatch(format!(
                        "traced set-up: capture {i} verdict differs from EarSonar::fit's"
                    ));
                }
            }
        }
    }
    result.set("setup.extract_s", stats::median(&extract));
    result.set("setup.fit_s", stats::median(&fit));
    Ok(())
}

/// Records `latency_p50_ms` / `latency_p99_ms` from per-operation wall
/// times in milliseconds, in measurement order. The samples are cut into
/// consecutive windows of [`min_latency_samples`] (so ten lie beyond each
/// window's p99); each percentile is the interquartile mean over the
/// windows of the window's nearest-rank percentile, so a host stall that
/// hits a minority of windows does not move the run's figure.
pub fn set_latency(result: &mut RunResult, ms: &[f64]) {
    let windows: Vec<Vec<f64>> = ms
        .chunks_exact(min_latency_samples())
        .map(stats::sorted)
        .collect();
    if windows.is_empty() {
        result.mismatch(format!(
            "only {} latency samples; p99 needs {}",
            ms.len(),
            min_latency_samples()
        ));
        return;
    }
    let over = |p: f64| {
        stats::interquartile_mean(
            &windows
                .iter()
                .map(|w| stats::percentile(w, p))
                .collect::<Vec<_>>(),
        )
    };
    result.set("latency_p50_ms", over(50.0));
    result.set("latency_p99_ms", over(99.0));
}

/// Largest ratio of the wall-clock p50 to the CPU-time p50 of the same
/// single-thread calls before a run fails: above it, the calls wait (on
/// locks, I/O, sleeps) for a share of their time that CPU-time latency
/// leaves out. Over 60 earlier runs on the shared host it read 0.97–1.04.
pub const MAX_WALL_OVER_CPU: f64 = 1.5;

/// Records `latency_p50_ms` / `latency_p99_ms` of single-thread calls from
/// their process CPU times (as [`set_latency`]), prints the wall-clock
/// percentiles of the same calls for context, and fails the run when the
/// wall-clock p50 exceeds [`MAX_WALL_OVER_CPU`] times the CPU-time p50.
pub fn set_cpu_latency(result: &mut RunResult, cpu_ms: &[f64], wall_ms: &[f64]) {
    set_latency(result, cpu_ms);
    let (cpu, wall) = (stats::sorted(cpu_ms), stats::sorted(wall_ms));
    if cpu.is_empty() || wall.is_empty() {
        return;
    }
    let (cpu_p50, wall_p50) = (
        stats::percentile(&cpu, 50.0),
        stats::percentile(&wall, 50.0),
    );
    println!(
        "wall-clock latency of the same calls: p50 {wall_p50:.4} ms, p99 {:.4} ms; CPU-time p50 {cpu_p50:.4} ms; wall/CPU p50 {:.3} (limit {MAX_WALL_OVER_CPU})",
        stats::percentile(&wall, 99.0),
        wall_p50 / cpu_p50
    );
    if !(wall_p50 <= MAX_WALL_OVER_CPU * cpu_p50) {
        result.mismatch(format!(
            "wall-clock p50 {wall_p50:.4} ms exceeds {MAX_WALL_OVER_CPU} x the CPU-time p50 {cpu_p50:.4} ms: the calls wait for time the latency leaves out"
        ));
    }
}

/// Records `conclusive_rate` and `accuracy` from one outcome per input.
pub fn set_outcome_rates(
    result: &mut RunResult,
    outcomes: &[Result<Resolved, EarSonarError>],
    truths: &[MeeState],
) {
    let mut conclusive = 0usize;
    let mut correct = 0usize;
    for (o, truth) in outcomes.iter().zip(truths) {
        if let Ok(Resolved::Conclusive(state)) = o {
            conclusive += 1;
            correct += usize::from(state == truth);
        }
    }
    result.set(
        "conclusive_rate",
        conclusive as f64 / outcomes.len().max(1) as f64,
    );
    result.set(
        "accuracy",
        if conclusive == 0 {
            0.0
        } else {
            correct as f64 / conclusive as f64
        },
    );
    // A fitted model must beat the four-class chance level by a wide margin.
    if conclusive == 0 || correct * 2 < conclusive {
        result.mismatch(format!(
            "accuracy {correct}/{conclusive} is no better than a broken classifier"
        ));
    }
}

/// The traced stage re-drive over a fixed capture set, one pass at a
/// time, so a run can interleave traced and untraced passes.
pub struct Redrive<'a> {
    system: &'a EarSonar,
    stages: StageRunner<'a>,
    /// First-pass features per capture, for the bit-identity check.
    features: Vec<Option<Vec<f64>>>,
    passes: u64,
    /// Stage counters over every pass.
    counts: Counts,
    /// Per-screening wall times, ms.
    times: Vec<f64>,
}

impl<'a> Redrive<'a> {
    /// A re-drive of `system` under the default retry policy.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(system: &'a EarSonar) -> Result<Self, EarSonarError> {
        Ok(Redrive {
            system,
            stages: StageRunner::new(system, RetryPolicy::default())?,
            features: Vec::new(),
            passes: 0,
            counts: Counts::default(),
            times: Vec::new(),
        })
    }

    /// One pass over `recordings`, one `screening` root span per capture
    /// (none with a disabled tracer). The first pass is checked against
    /// `expected` (the program's outcomes) and its features kept for
    /// [`Redrive::finish`].
    pub fn pass(
        &mut self,
        result: &mut RunResult,
        tracer: &mut Tracer,
        recordings: &[Recording],
        expected: &[Result<Resolved, EarSonarError>],
    ) {
        for (i, rec) in recordings.iter().enumerate() {
            tracer.set_id(self.passes * recordings.len() as u64 + i as u64);
            let t = Instant::now();
            tracer.begin("screening");
            let out = self.stages.screen(tracer, &rec.samples, &mut self.counts);
            tracer.end();
            self.times.push(t.elapsed().as_secs_f64() * 1e3);
            result.attempted += 1;
            result.failed += u64::from(out.is_err());
            let (resolved, features) = match out {
                Ok((r, f)) => (Ok(r), f),
                Err(e) => (Err(e), None),
            };
            if self.passes == 0 {
                if resolved != expected[i] {
                    result.mismatch(format!(
                        "capture {i}: traced stages resolve to {resolved:?}, the program to {:?}",
                        expected[i]
                    ));
                }
                self.features.push(features);
            }
        }
        self.passes += 1;
    }

    /// Per-screening wall times so far, ms.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Checks the first pass's features against `FrontEnd::process_with`,
    /// bit for bit, and returns the stage counters and the per-screening
    /// wall times.
    pub fn finish(self, result: &mut RunResult, recordings: &[Recording]) -> (Counts, Vec<f64>) {
        let front_end = self.system.front_end();
        let mut scratch = DspScratch::new();
        if self.features.iter().all(Option::is_none) {
            result.mismatch("traced stages extracted no features to compare".into());
        }
        for (i, (rec, traced)) in recordings.iter().zip(&self.features).enumerate() {
            let Some(traced) = traced else { continue };
            match front_end.process_with(&mut scratch, rec) {
                Ok(p) if bit_equal(&p.features, traced) => {}
                Ok(_) => result.mismatch(format!(
                    "capture {i}: traced features differ from FrontEnd::process_with"
                )),
                Err(e) => result.mismatch(format!(
                    "capture {i}: traced stages extracted features, process_with failed: {e}"
                )),
            }
        }
        (self.counts, self.times)
    }
}

/// Equal bit for bit (NaNs included).
fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
