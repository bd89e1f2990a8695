//! Benchmark version of paper Table II: per-stage latency of the EarSonar
//! pipeline (band-pass filter, feature extraction, inference).
//!
//! Runs on the dependency-free [`earsonar_bench::timing`] harness
//! (`cargo bench -p earsonar-bench --bench table2_latency`; pass `--smoke`
//! for a fast CI run).

use earsonar::preprocess::Preprocessor;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_bench::standard_dataset;
use earsonar_bench::timing::Bencher;
use earsonar_sim::session::SessionConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let b = Bencher::from_args(&args);

    let cfg = EarSonarConfig::default();
    let dataset = standard_dataset(6, SessionConfig::default());
    let system = EarSonar::fit(&dataset.sessions, &cfg).expect("fit");
    let recording = dataset.sessions[0].recording.clone();
    let pre = Preprocessor::new(&cfg).expect("preprocessor");
    let features = system
        .front_end()
        .process(&recording)
        .expect("process")
        .features;

    b.report("bandpass_filter", || pre.run(&recording.samples).unwrap());
    b.report("feature_extract_full_front_end", || {
        system.front_end().process(&recording).unwrap()
    });
    b.report("inference", || {
        system.classifier().predict(&features).unwrap()
    });
    b.report("end_to_end_screen", || system.screen(&recording).unwrap());
}
