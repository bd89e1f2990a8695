//! Seeded inputs. The simulator stands in for the earphone: everything the
//! program under test receives is synthesized here from the run's seed,
//! before any timing starts. The same seed gives the same inputs.

use earsonar::MeeState;
use earsonar_dsp::wav::{write_wav, WavAudio, WavFormat};
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::faults::Fault;
use earsonar_sim::motion::Motion;
use earsonar_sim::session::SessionConfig;
use std::path::{Path, PathBuf};

/// Patients in the training cohort behind the fitted model (paper size).
pub const TRAIN_PATIENTS: usize = 112;
/// Seed of the training cohort. It is fixed: every run screens with a
/// model fitted on the same data, the way a trained model ships to
/// devices, so the workload seed varies only what is screened. Models
/// fitted on different small cohorts differ enough to swing accuracy on
/// noisy home captures by ±10% between seeds.
pub const TRAIN_SEED: u64 = 0;
/// Patients in the held-out clinic cohort (the paper's cohort size).
pub const CLINIC_PATIENTS: usize = 112;
/// Patients followed at home.
pub const HOME_PATIENTS: usize = 112;
/// Visits recorded per patient per effusion state (paper: morning and
/// evening).
pub const VISITS_PER_STATE: usize = 2;
/// Severity of every injected fault.
pub const FAULT_SEVERITY: f64 = 0.5;
/// One engine capture in this many carries a fault.
pub const ENGINE_FAULT_EVERY: usize = 8;

/// A derived seed for stream `stream` of run seed `seed` (splitmix64), so
/// the training, clinic, home and fault draws never share a seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sessions(
    patients: usize,
    cohort_seed: u64,
    visit_seed: u64,
    config: SessionConfig,
    workers: usize,
) -> Vec<Session> {
    let cohort = Cohort::generate_parallel(patients, cohort_seed, workers);
    let spec = DatasetSpec {
        sessions_per_state: VISITS_PER_STATE,
        config,
        seed: visit_seed,
    };
    Dataset::build_parallel(&cohort, &spec, workers).sessions
}

/// Labelled training sessions: quiet room, seated (the paper's collection
/// protocol), from a cohort of its own.
pub fn training_sessions(workers: usize) -> Vec<Session> {
    sessions(
        TRAIN_PATIENTS,
        mix(TRAIN_SEED, 1),
        mix(TRAIN_SEED, 2),
        SessionConfig::default(),
        workers,
    )
}

/// Captures with the ground truth the simulator recorded each under.
#[derive(Debug, Clone)]
pub struct Captures {
    /// The samples the program receives, one recording per capture.
    pub recordings: Vec<Recording>,
    /// The "pneumatic otoscope" label of each capture.
    pub truths: Vec<MeeState>,
}

/// The clinic captures: a held-out paper-size cohort in a 30 dB SPL quiet
/// room, seated, 24 chirps per capture.
pub fn clinic_captures(seed: u64, workers: usize) -> Captures {
    let (recordings, truths) = sessions(
        CLINIC_PATIENTS,
        mix(seed, 3),
        mix(seed, 4),
        SessionConfig::default(),
        workers,
    )
    .into_iter()
    .map(|s| (s.recording, s.ground_truth))
    .unzip();
    Captures { recordings, truths }
}

/// The fault applied to the `k`-th faulted capture: the seven kinds of
/// the standard suite in rotation.
pub fn rotating_fault(k: usize) -> Fault {
    let suite = Fault::standard_suite(FAULT_SEVERITY);
    suite[k % suite.len()]
}

/// The clinic captures with one in [`ENGINE_FAULT_EVERY`] faulted, so some
/// engine sessions resolve inconclusive.
pub fn engine_captures(seed: u64, workers: usize) -> Captures {
    let mut captures = clinic_captures(seed, workers);
    let faulted = captures
        .recordings
        .iter_mut()
        .skip(ENGINE_FAULT_EVERY - 1)
        .step_by(ENGINE_FAULT_EVERY);
    for (k, rec) in faulted.enumerate() {
        rotating_fault(k).apply(rec, mix(seed, 1000 + k as u64));
    }
    captures
}

/// One home visit: two captures of the same ear on the same day, the
/// first possibly faulted, both written to PCM16 WAV files.
#[derive(Debug, Clone)]
pub struct Visit {
    /// The WAV files, in capture order.
    pub paths: [PathBuf; 2],
    /// Ground truth of the day.
    pub truth: MeeState,
}

/// Home visits at 50 dB SPL with head movement. Every odd visit's first
/// capture carries one fault, kinds in rotation. The captures are written
/// as PCM16 WAV files under `dir`; like an earphone's converter, PCM16
/// saturates the rare motion transient that exceeds full scale.
///
/// # Errors
///
/// Fails when a file cannot be written.
pub fn home_visits(seed: u64, workers: usize, dir: &Path) -> Result<Vec<Visit>, String> {
    let config = SessionConfig {
        noise_db_spl: 50.0,
        motion: Motion::HeadMove,
        ..SessionConfig::default()
    };
    let first = sessions(
        HOME_PATIENTS,
        mix(seed, 5),
        mix(seed, 6),
        config.clone(),
        workers,
    );
    // Same cohort, same days, another visit seed: the re-measurement.
    let second = sessions(HOME_PATIENTS, mix(seed, 5), mix(seed, 7), config, workers);
    let mut visits = Vec::with_capacity(first.len());
    for (i, (a, b)) in first.into_iter().zip(second).enumerate() {
        if (a.patient_id, a.day, a.ground_truth) != (b.patient_id, b.day, b.ground_truth) {
            return Err(format!(
                "visit {i}: re-measurement is not of the same ear and day"
            ));
        }
        let mut recs = [a.recording, b.recording];
        if i % 2 == 1 {
            rotating_fault(i / 2).apply(&mut recs[0], mix(seed, 2000 + i as u64));
        }
        let paths = [
            dir.join(format!("visit{i}-a.wav")),
            dir.join(format!("visit{i}-b.wav")),
        ];
        for (r, p) in recs.into_iter().zip(&paths) {
            let audio = WavAudio {
                samples: r.samples,
                sample_rate: r.sample_rate as u32,
            };
            write_wav(p, &audio, WavFormat::Pcm16).map_err(|e| format!("{}: {e}", p.display()))?;
        }
        visits.push(Visit {
            paths,
            truth: a.ground_truth,
        });
    }
    Ok(visits)
}
