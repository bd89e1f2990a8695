//! Recording-synthesis throughput: the spectral-domain hot path against
//! the time-domain reference, plus scratch-reuse and parallel dataset
//! builds.
//!
//! Run with `cargo bench -p earsonar-bench --bench sim_throughput`; pass
//! `--smoke` for a fast pass.

use earsonar_bench::timing::Bencher;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::ear::EarCanal;
use earsonar_sim::recorder::{
    synthesize_recording, synthesize_recording_time_domain, synthesize_recording_with,
    RecorderConfig,
};
use earsonar_sim::rng::SimRng;
use earsonar_sim::scratch::SimScratch;
use earsonar_sim::{MeeAcoustics, MeeState};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let b = Bencher::from_args(&args);

    let mut ear_rng = SimRng::seed_from_u64(7);
    let ear = EarCanal::sample_child(&mut ear_rng);
    let mut resp_rng = SimRng::seed_from_u64(8);
    let resp = MeeState::Mucoid.sample_response(18_000.0, &mut resp_rng);
    let cfg = RecorderConfig::default();

    println!("== synthesize_recording (default 24-chirp config) ==");
    let time_domain = b.report("synthesize/time_domain_ref", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_time_domain(&ear, &resp, &cfg, &mut rng).samples[0]
    });
    let one_shot = b.report("synthesize/spectral_cold", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording(&ear, &resp, &cfg, &mut rng).samples[0]
    });
    let mut scratch = SimScratch::new();
    let warm = b.report("synthesize/spectral_warm", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_with(&ear, &resp, &cfg, &mut rng, &mut scratch).samples[0]
    });
    println!(
        "speedup: cold {:.2}x, warm {:.2}x ({:.0} -> {:.0} recordings/sec)",
        time_domain.ns_per_iter / one_shot.ns_per_iter,
        time_domain.ns_per_iter / warm.ns_per_iter,
        1e9 / time_domain.ns_per_iter,
        1e9 / warm.ns_per_iter,
    );

    println!("\n== dataset build (6 patients) ==");
    let cohort = Cohort::generate(6, 3);
    let spec = DatasetSpec::default();
    let seq = b.report("dataset/sequential", || {
        Dataset::build(&cohort, &spec).len()
    });
    for workers in [2usize, 4] {
        let par = b.report(&format!("dataset/parallel_x{workers}"), || {
            Dataset::build_parallel(&cohort, &spec, workers).len()
        });
        println!(
            "  {workers} workers: {:.2}x vs sequential",
            seq.ns_per_iter / par.ns_per_iter
        );
    }
}
