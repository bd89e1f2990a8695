//! The traced stage sequence: one screening driven stage by stage through
//! the program's public functions, with a span around every call.
//!
//! This is the same computation `screen_recording_quality` runs (quality
//! gate → filtfilt → event detection → Wiener IR per chirp window; quorum;
//! IR averaging and parity segmentation; alignment; per-chirp spectra;
//! feature extraction; confidence floor; classification), so its features
//! must equal `FrontEnd::process_with` bit for bit and its outcomes must
//! equal the program's. The workloads check both.

use crate::trace::Tracer;
use earsonar::absorption::{average_spectra, echo_ir_spectrum};
use earsonar::channel::{average_irs, pipeline_estimator, ChannelEstimator};
use earsonar::diagnostics::Diagnostics;
use earsonar::event::detect_events_with_floor;
use earsonar::pipeline::{EarSonar, ProcessedRecording};
use earsonar::preprocess::Preprocessor;
use earsonar::quality::{measure_window, NoiseFloor, SessionQuality};
use earsonar::screening::{InconclusiveReason, RetryPolicy, ScreeningOutcome};
use earsonar::segment::segment_with_anchor;
use earsonar::{EarSonarError, MeeState};
use earsonar_acoustics::propagation::delay_fractional_allpass_with;
use earsonar_dsp::hilbert::{envelope_with, refine_peak};
use earsonar_dsp::plan::DspScratch;

/// A screening outcome reduced to what must agree between the program and
/// the traced re-drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resolved {
    /// A verdict.
    Conclusive(MeeState),
    /// A typed refusal.
    Inconclusive(InconclusiveReason),
}

impl Resolved {
    /// The reduced form of a program outcome.
    pub fn of(outcome: &ScreeningOutcome) -> Resolved {
        match outcome {
            ScreeningOutcome::Conclusive(r) => Resolved::Conclusive(r.state),
            ScreeningOutcome::Inconclusive(r) => Resolved::Inconclusive(r.reason),
        }
    }
}

/// Work counts at the stage boundaries, summed over a traced run. Ratios
/// are formed from these where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Screenings driven through the stages (one per capture).
    pub screenings: u64,
    /// Chirp windows pushed into the quality gate.
    pub pushed: u64,
    /// Windows the gate accepted.
    pub accepted: u64,
    /// Windows that held an acoustic event.
    pub events: u64,
    /// Impulse responses estimated.
    pub irs: u64,
    /// Screenings that reached the resolve stages (quorum met).
    pub resolved: u64,
    /// Impulse responses aligned.
    pub aligned: u64,
    /// Per-chirp echo spectra computed.
    pub spectra: u64,
    /// Feature vectors extracted.
    pub extracted: u64,
    /// Verdicts classified.
    pub classified: u64,
    /// Inconclusive: quorum not met.
    pub quorum: u64,
    /// Inconclusive: no usable echo.
    pub no_echo: u64,
    /// Inconclusive: confidence below the floor.
    pub low_confidence: u64,
}

/// Per-capture running state, the counterpart of the front end's chirp
/// accumulator.
#[derive(Default)]
struct Acc {
    irs: Vec<Vec<f64>>,
    power_sum: f64,
    power_len: usize,
    prev_tail: Vec<f64>,
    diagnostics: Diagnostics,
    quality_sum: f64,
    noise_floor: NoiseFloor,
    prev_window: Vec<f64>,
    contextual: Vec<f64>,
    filt_ext: Vec<f64>,
    filtered: Vec<f64>,
}

impl Acc {
    fn session_quality(&self) -> SessionQuality {
        let pushed = self.diagnostics.chirps_pushed;
        SessionQuality {
            chirps_pushed: pushed,
            chirps_accepted: pushed.saturating_sub(self.diagnostics.quality_rejections.total()),
            mean_quality: if pushed == 0 {
                1.0
            } else {
                self.quality_sum / pushed as f64
            },
            rejections: self.diagnostics.quality_rejections,
        }
    }
}

/// Drives screenings of one fitted system stage by stage.
pub struct StageRunner<'a> {
    system: &'a EarSonar,
    preprocessor: Preprocessor,
    estimator: ChannelEstimator,
    policy: RetryPolicy,
}

impl<'a> StageRunner<'a> {
    /// Builds the stage objects the system's front end holds, from the
    /// same configuration and the same preprocessed template.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(system: &'a EarSonar, policy: RetryPolicy) -> Result<Self, EarSonarError> {
        let fe = system.front_end();
        Ok(StageRunner {
            system,
            preprocessor: Preprocessor::new(fe.config())?,
            estimator: pipeline_estimator(fe.template(), fe.config())?,
            policy,
        })
    }

    /// One screening of `samples` (a whole capture), traced. Returns the
    /// outcome and, when the quorum was met and extraction succeeded, the
    /// feature vector. Like `screen_recording_quality`, each screening
    /// starts from a fresh `DspScratch`, so FFT planning lands in the
    /// stages that pay for it.
    ///
    /// # Errors
    ///
    /// The program errors `screen_recording_quality` would return.
    pub fn screen(
        &self,
        t: &mut Tracer,
        samples: &[f64],
        counts: &mut Counts,
    ) -> Result<(Resolved, Option<Vec<f64>>), EarSonarError> {
        let scratch = &mut DspScratch::new();
        counts.screenings += 1;
        let hop = self.system.front_end().config().chirp_hop.max(1);
        let full = samples.len() / hop * hop;
        let mut acc = Acc::default();
        for window in samples[..full].chunks_exact(hop) {
            self.push_window(t, scratch, &mut acc, window, counts);
        }
        let quorum = self.policy.min_accepted_chirps.max(1);
        let usable = acc.irs.len();
        if usable < quorum {
            counts.quorum += 1;
            let reason = InconclusiveReason::QuorumNotMet {
                needed: quorum,
                best_usable: usable,
            };
            return Ok((Resolved::Inconclusive(reason), None));
        }
        if full < samples.len() {
            self.push_window(t, scratch, &mut acc, &samples[full..], counts);
        }
        counts.resolved += 1;
        t.begin("resolve");
        let out = self.resolve(t, scratch, acc, counts);
        t.end();
        out
    }

    fn resolve(
        &self,
        t: &mut Tracer,
        scratch: &mut DspScratch,
        acc: Acc,
        counts: &mut Counts,
    ) -> Result<(Resolved, Option<Vec<f64>>), EarSonarError> {
        let processed = match self.finalize(t, scratch, acc, counts) {
            Ok(p) => p,
            Err(EarSonarError::NoEchoDetected) => {
                counts.no_echo += 1;
                return Ok((
                    Resolved::Inconclusive(InconclusiveReason::NoUsableEcho),
                    None,
                ));
            }
            Err(e) => return Err(e),
        };
        if processed.quality.confidence() < self.policy.min_confidence {
            counts.low_confidence += 1;
            let features = Some(processed.features);
            return Ok((
                Resolved::Inconclusive(InconclusiveReason::LowConfidence),
                features,
            ));
        }
        counts.classified += 1;
        t.begin("detect");
        let state = self.system.classify(&processed);
        t.end();
        Ok((Resolved::Conclusive(state?), Some(processed.features)))
    }

    /// Quality gate → filtfilt → event detection → Wiener IR on one window.
    fn push_window(
        &self,
        t: &mut Tracer,
        scratch: &mut DspScratch,
        acc: &mut Acc,
        window: &[f64],
        counts: &mut Counts,
    ) {
        let config = self.system.front_end().config();
        counts.pushed += 1;
        acc.diagnostics.chirps_pushed += 1;
        let gate = &config.quality;
        if gate.enabled {
            t.begin("quality");
            let measured = measure_window(
                window,
                &acc.prev_window,
                &mut acc.noise_floor,
                config.chirp_len + config.ir_taps,
            );
            acc.quality_sum += measured.score(gate);
            acc.prev_window.clear();
            acc.prev_window.extend_from_slice(window);
            let rejected = measured.gate(gate);
            t.end();
            if let Some(cause) = rejected {
                acc.diagnostics.quality_rejections.record(cause);
                acc.prev_tail.clear();
                return;
            }
        } else {
            acc.quality_sum += 1.0;
        }
        counts.accepted += 1;

        t.begin("preprocess");
        let ctx = acc.prev_tail.len();
        acc.contextual.clear();
        acc.contextual.extend_from_slice(&acc.prev_tail);
        acc.contextual.extend_from_slice(window);
        let keep = window.len().min(self.preprocessor.context_len());
        acc.prev_tail.clear();
        acc.prev_tail
            .extend_from_slice(&window[window.len() - keep..]);
        let filtered_ok = self
            .preprocessor
            .run_with(&acc.contextual, &mut acc.filt_ext, &mut acc.filtered)
            .is_ok();
        t.end();
        if !filtered_ok {
            acc.diagnostics.filter_failures += 1;
            return;
        }
        let filtered = &acc.filtered[ctx..];

        t.begin("event");
        acc.power_sum += earsonar_dsp::simd::sum_sq(filtered);
        acc.power_len += filtered.len();
        let floor = if acc.power_len == 0 {
            0.0
        } else {
            acc.power_sum / acc.power_len as f64
        };
        let has_event = detect_events_with_floor(filtered, floor, config)
            .map(|events| !events.is_empty())
            .unwrap_or(false);
        t.end();
        if !has_event {
            return;
        }
        counts.events += 1;
        acc.diagnostics.events_detected += 1;

        t.begin("channel");
        let mut ir = Vec::with_capacity(self.estimator.n_taps());
        let estimated = self
            .estimator
            .estimate_with(scratch, filtered, &mut ir)
            .is_ok();
        t.end();
        if estimated {
            counts.irs += 1;
            acc.diagnostics.irs_estimated += 1;
            acc.irs.push(ir);
        }
    }

    /// IR averaging + segmentation, alignment, per-chirp spectra, features.
    fn finalize(
        &self,
        t: &mut Tracer,
        scratch: &mut DspScratch,
        mut acc: Acc,
        counts: &mut Counts,
    ) -> Result<ProcessedRecording, EarSonarError> {
        let fe = self.system.front_end();
        let config = fe.config();
        let quality = acc.session_quality();
        if acc.irs.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        t.begin("segment");
        let segmented = average_irs(&acc.irs)
            .and_then(|avg| segment_with_anchor(&avg, 1, config).map(|echo| (avg, echo)));
        t.end();
        let (avg_ir, mut echo) = segmented?;

        t.begin("align");
        let mut env = scratch.take_real();
        envelope_with(scratch, &avg_ir, &mut env);
        let refined = refine_peak(&env, echo.center, 3).unwrap_or(echo.center as f64);
        scratch.put_real(env);
        t.end();
        let target = refined.ceil() + 1.0;
        let shift = target - refined;
        let aligned_len = avg_ir.len() + 3;
        let aligned_center = target as usize;
        echo.center = aligned_center;

        let mut spectra = Vec::new();
        let mut echoes = Vec::new();
        let mut ir_aligned = scratch.take_real();
        for ir in &acc.irs {
            t.begin("align");
            let delayed =
                delay_fractional_allpass_with(ir, shift, aligned_len, scratch, &mut ir_aligned);
            t.end();
            delayed?;
            counts.aligned += 1;
            t.begin("absorption");
            let spectrum = echo_ir_spectrum(&ir_aligned, aligned_center, 1.0, config);
            t.end();
            if let Ok(s) = spectrum {
                spectra.push(s);
                echoes.push(echo.clone());
            }
        }
        scratch.put_real(ir_aligned);
        if spectra.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        counts.spectra += spectra.len() as u64;
        acc.diagnostics.spectra_computed = spectra.len();
        t.begin("absorption");
        let averaged = average_spectra(&spectra);
        t.end();
        let averaged = averaged?;

        t.begin("features");
        let features = fe
            .extractor()
            .extract_with(scratch, &spectra, &averaged, &echoes);
        t.end();
        let features = features?;
        counts.extracted += 1;
        Ok(ProcessedRecording {
            features,
            spectrum: averaged,
            chirps_used: spectra.len(),
            echoes,
            diagnostics: acc.diagnostics,
            quality,
        })
    }
}
