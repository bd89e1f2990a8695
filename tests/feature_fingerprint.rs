//! Feature fingerprint: one u64 that pins every bit of every feature the
//! reference front end extracts from a fixed cohort.
//!
//! The performance work on the front end (shared FFT plans, memoized delay
//! ramps, precomputed window taps) promises *bit-identical* features. This
//! test holds it to that: it folds the `to_bits` of every feature of every
//! session into an FNV-1a hash and compares it with a constant. A change
//! that alters feature bits on purpose updates the constant and says so in
//! CHANGES.md; any other change must leave it alone.

use earsonar::pipeline::FrontEnd;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::session::SessionConfig;
use earsonar_suite::config;

/// FNV-1a over the features of `Dataset::build(&Cohort::generate(4, 13))`.
const FINGERPRINT: u64 = 0x9419_dcd9_6c1e_c497;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[test]
fn reference_features_match_the_pinned_fingerprint() {
    let data = Dataset::build(
        &Cohort::generate(4, 13),
        &DatasetSpec {
            sessions_per_state: 2,
            config: SessionConfig::default(),
            seed: 13,
        },
    );
    let fe = FrontEnd::new(&config()).expect("front end");
    let mut hash = FNV_OFFSET;
    let mut processed = 0usize;
    for s in &data.sessions {
        match fe.process(&s.recording) {
            Ok(p) => {
                processed += 1;
                hash = fold(hash, p.features.len() as u64);
                for v in &p.features {
                    hash = fold(hash, v.to_bits());
                }
            }
            // A session without a usable echo still moves the hash, so a
            // change that turns an error into features (or back) shows.
            Err(_) => hash = fold(hash, u64::MAX),
        }
    }
    assert!(processed > 0, "no session produced features");
    assert_eq!(
        hash, FINGERPRINT,
        "feature bits changed: {hash:#018x} ({processed} of {} sessions)",
        data.sessions.len()
    );
}
