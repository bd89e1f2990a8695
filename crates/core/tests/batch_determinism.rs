//! Batch processing must be bit-identical to sequential processing.
//!
//! The scoped-thread batch front end shares every kernel with the
//! sequential path (both run through the scratch-based `_with` versions),
//! so equality here is structural, not approximate: features, spectra,
//! and verdicts must match to the last bit at any worker count.

use earsonar::pipeline::FrontEnd;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::recorder::Recording;

fn recordings(n_patients: usize) -> Vec<Recording> {
    let cohort = Cohort::generate(n_patients, 7);
    let data = Dataset::build(&cohort, &DatasetSpec::default());
    data.sessions.into_iter().map(|s| s.recording).collect()
}

#[test]
fn process_batch_is_bit_identical_to_sequential() {
    let recs = recordings(2);
    assert!(recs.len() >= 4, "need a few recordings to batch");
    let front_end = FrontEnd::new(&EarSonarConfig::default()).unwrap();
    let sequential: Vec<_> = recs.iter().map(|r| front_end.process(r)).collect();

    for workers in [0usize, 1, 2, 4, recs.len() + 5] {
        let batched = front_end.process_batch_with_workers(&recs, workers);
        assert_eq!(batched.len(), sequential.len());
        for (i, (s, b)) in sequential.iter().zip(&batched).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => {
                    // Feature vectors compared bit-for-bit via their raw
                    // representation — no tolerance.
                    let sf: Vec<u64> = s.features.iter().map(|v| v.to_bits()).collect();
                    let bf: Vec<u64> = b.features.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sf, bf, "recording {i}, workers {workers}");
                    assert_eq!(
                        s.chirps_used, b.chirps_used,
                        "recording {i}, workers {workers}"
                    );
                    assert_eq!(
                        s.spectrum.profile, b.spectrum.profile,
                        "recording {i}, workers {workers}"
                    );
                }
                (Err(_), Err(_)) => {}
                _ => panic!("outcome mismatch at recording {i}, workers {workers}"),
            }
        }
    }
}

#[test]
fn default_process_batch_matches_sequential() {
    let recs = recordings(2);
    let front_end = FrontEnd::new(&EarSonarConfig::default()).unwrap();
    let sequential: Vec<_> = recs.iter().map(|r| front_end.process(r)).collect();
    let batched = front_end.process_batch(&recs);
    for (s, b) in sequential.iter().zip(&batched) {
        match (s, b) {
            (Ok(s), Ok(b)) => assert_eq!(s.features, b.features),
            (Err(_), Err(_)) => {}
            _ => panic!("outcome mismatch"),
        }
    }
}

#[test]
fn screen_batch_matches_sequential_screening() {
    let cohort = Cohort::generate(4, 7);
    let data = Dataset::build(&cohort, &DatasetSpec::default());
    let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).unwrap();
    let recs: Vec<Recording> = data
        .sessions
        .iter()
        .take(6)
        .map(|s| s.recording.clone())
        .collect();

    let sequential: Vec<_> = recs.iter().map(|r| system.screen(r)).collect();
    for workers in [1usize, 3] {
        let batched = system.screen_batch_with_workers(&recs, workers);
        for (i, (s, b)) in sequential.iter().zip(&batched).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => assert_eq!(s, b, "recording {i}, workers {workers}"),
                (Err(_), Err(_)) => {}
                _ => panic!("outcome mismatch at recording {i}, workers {workers}"),
            }
        }
    }
}
