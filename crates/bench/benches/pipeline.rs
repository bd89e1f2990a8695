//! End-to-end pipeline benchmarks: recording synthesis, front-end feature
//! extraction, detector training, and prediction — the costs a deployment
//! would budget for.
//!
//! Runs on the dependency-free [`earsonar_bench::timing`] harness
//! (`cargo bench -p earsonar-bench --bench pipeline`; pass `--smoke` for a
//! fast CI run).

use earsonar::detect::EarSonarDetector;
use earsonar::eval::ExtractedDataset;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_bench::standard_dataset;
use earsonar_bench::timing::Bencher;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::recorder::{synthesize_recording, RecorderConfig};
use earsonar_sim::rng::SimRng;
use earsonar_sim::session::SessionConfig;
use earsonar_sim::{MeeAcoustics, MeeState};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let b = Bencher::from_args(&args);

    let cohort = Cohort::generate(1, 7);
    let patient = &cohort.patients()[0];
    let cfg_rec = RecorderConfig::default();
    b.report("synthesize_recording_24_chirps", || {
        let mut rng = SimRng::seed_from_u64(3);
        let resp = MeeState::Mucoid.sample_response(18_000.0, &mut rng);
        synthesize_recording(&patient.ear, &resp, &cfg_rec, &mut rng)
    });

    let cfg = EarSonarConfig::default();
    let dataset = standard_dataset(8, SessionConfig::default());
    let ex = ExtractedDataset::extract(&dataset.sessions, &cfg).expect("extract");
    b.report("detector_fit_64_sessions", || {
        EarSonarDetector::fit(&ex.features, &ex.labels, &cfg).unwrap()
    });

    let dataset = standard_dataset(6, SessionConfig::default());
    let system = EarSonar::fit(&dataset.sessions, &cfg).expect("fit");
    let recording = dataset.sessions[0].recording.clone();
    b.report("screen_one_recording", || system.screen(&recording).unwrap());
}
