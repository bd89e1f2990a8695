//! Scalar ≡ vectorized: every four-lane kernel introduced by the SIMD
//! pass is pinned against its scalar reference here.
//!
//! Two contracts (documented in `earsonar_dsp::simd`):
//!
//! * **Bit-identical** — elementwise ops (window multiply, in-place IIR,
//!   filtfilt buffers), `max`-reductions, and comparison counts perform
//!   the same floating-point operations in the same per-element order, so
//!   `assert_eq!` holds exactly.
//! * **Ulp-equal** — reassociated reductions (sums, dots, moments) fold
//!   four partial accumulators; the difference from the strict-order
//!   scalar reduction is bounded by `1e-12 × Σ|terms|`.
//!
//! The sweeps hit every remainder class (`len % 4` ∈ {0,1,2,3}), odd
//! one-off lengths, subnormal inputs, and DetRng-randomized signals that
//! are finite by construction.

use earsonar::quality::{measure_window, measure_window_scalar, NoiseFloor};
use earsonar::EarSonarConfig;
use earsonar_dsp::correlation::{pearson, pearson_scalar};
use earsonar_dsp::filter::{butter_bandpass, filtfilt, filtfilt_with};
use earsonar_dsp::mel::MelFilterBank;
use earsonar_dsp::mfcc::{MfccConfig, MfccExtractor};
use earsonar_dsp::plan::DspScratch;
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::simd;
use earsonar_dsp::window::{apply_precomputed, Window};

/// Every remainder-tail class plus odd one-off and kernel-typical sizes.
const LENGTHS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 63, 64, 65, 239, 240, 241, 1021];

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// The documented reassociation bound: `1e-12 × Σ|terms|` (plus an
/// absolute floor for all-tiny inputs).
fn close(vectorized: f64, scalar: f64, term_scale: f64) -> bool {
    (vectorized - scalar).abs() <= 1e-12 * term_scale + 1e-300
}

#[test]
fn reductions_track_scalar_over_all_remainder_classes() {
    for &n in LENGTHS {
        let a = noise(n, 1_000 + n as u64);
        let b = noise(n, 2_000 + n as u64);
        let scale_a: f64 = a.iter().map(|v| v.abs()).sum();
        let scale_ab: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(close(simd::sum(&a), simd::sum_scalar(&a), scale_a), "sum n={n}");
        assert!(
            close(simd::sum_sq(&a), simd::sum_sq_scalar(&a), scale_a),
            "sum_sq n={n}"
        );
        assert!(
            close(simd::dot(&a, &b), simd::dot_scalar(&a, &b), scale_ab),
            "dot n={n}"
        );
        let mean = simd::sum_scalar(&a) / n as f64;
        assert!(
            close(
                simd::centered_sum_sq(&a, mean),
                simd::centered_sum_sq_scalar(&a, mean),
                scale_a + n as f64 * mean.abs()
            ),
            "centered_sum_sq n={n}"
        );
        let mb = simd::sum_scalar(&b) / n as f64;
        let (cv, va, vb) = simd::centered_moments(&a, mean, &b, mb);
        let (cs, vas, vbs) = simd::centered_moments_scalar(&a, mean, &b, mb);
        let mscale = 4.0 * n as f64; // |da|,|db| <= 2 on unit noise
        assert!(close(cv, cs, mscale), "cov n={n}");
        assert!(close(va, vas, mscale), "var_a n={n}");
        assert!(close(vb, vbs, mscale), "var_b n={n}");
    }
}

#[test]
fn exact_kernels_are_bit_identical() {
    for &n in LENGTHS {
        let a = noise(n, 3_000 + n as u64);
        let taps = noise(n, 4_000 + n as u64);
        // Elementwise multiply.
        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::mul_in_place(&mut fast, &taps);
        simd::mul_in_place_scalar(&mut slow, &taps);
        assert_eq!(fast, slow, "mul_in_place n={n}");
        // Max-reduction and comparison count.
        let mean = simd::sum_scalar(&a) / n as f64;
        assert_eq!(
            simd::centered_peak(&a, mean),
            simd::centered_peak_scalar(&a, mean),
            "centered_peak n={n}"
        );
        for t in [0.0, 0.3, 0.985] {
            assert_eq!(
                simd::centered_count_ge(&a, mean, t),
                simd::centered_count_ge_scalar(&a, mean, t),
                "centered_count_ge n={n} t={t}"
            );
        }
    }
}

#[test]
fn window_precomputed_multiply_is_bit_identical() {
    let mut taps = Vec::new();
    for win in [Window::Hann, Window::Hamming, Window::Blackman, Window::Rectangular] {
        for &n in LENGTHS {
            let x = noise(n, 5_000 + n as u64);
            let mut expect = x.clone();
            win.apply_in_place(&mut expect);
            win.coefficients_into(n, &mut taps);
            let mut got = x;
            apply_precomputed(&taps, &mut got);
            assert_eq!(got, expect, "{win:?} n={n}");
        }
    }
}

#[test]
fn filtfilt_with_is_bit_identical_across_lengths() {
    let filter = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
    let (mut ext, mut out) = (Vec::new(), Vec::new());
    for &n in LENGTHS {
        for pad in [0usize, 3, 72] {
            let x = noise(n, 6_000 + n as u64);
            let reference = filtfilt(&filter, &x, pad).unwrap();
            filtfilt_with(&filter, &x, pad, &mut ext, &mut out).unwrap();
            assert_eq!(out, reference, "n={n} pad={pad}");
        }
    }
}

#[test]
fn pearson_tracks_scalar_reference() {
    for &n in LENGTHS {
        let a = noise(n, 7_000 + n as u64);
        let b = noise(n, 8_000 + n as u64);
        let fast = pearson(&a, &b).unwrap();
        let slow = pearson_scalar(&a, &b).unwrap();
        // Correlations are normalized; a loose absolute bound suffices
        // (the underlying reductions are each within the 1e-12 contract).
        assert!((fast - slow).abs() < 1e-9, "pearson n={n}: {fast} vs {slow}");
    }
}

#[test]
fn mel_projection_tracks_scalar_reference() {
    for n_fft in [512usize, 1024] {
        let bank = MelFilterBank::new(26, n_fft, 48_000.0, 16_000.0, 20_000.0).unwrap();
        let ps: Vec<f64> = noise(n_fft / 2 + 1, 9_000 + n_fft as u64)
            .iter()
            .map(|v| v * v) // power spectra are non-negative
            .collect();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        bank.apply_into(&ps, &mut fast).unwrap();
        bank.apply_into_scalar(&ps, &mut slow).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                close(*f, *s, s.abs().max(1.0)),
                "n_fft={n_fft} filter {i}: {f} vs {s}"
            );
        }
    }
}

#[test]
fn mfcc_extraction_tracks_scalar_reference() {
    let ex = MfccExtractor::new(MfccConfig::earsonar_default()).unwrap();
    let mut scratch = DspScratch::new();
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    // Full frame (precomputed window taps + dense mel + basis DCT) and
    // short zero-padded frames (per-sample window fallback).
    for n in [512usize, 511, 300, 17] {
        let x = noise(n, 10_000 + n as u64);
        ex.extract_into(&mut scratch, &x, &mut fast).unwrap();
        ex.extract_into_scalar(&mut scratch, &x, &mut slow).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!((f - s).abs() < 1e-9, "n={n} coeff {k}: {f} vs {s}");
        }
    }
}

#[test]
fn mfcc_section_taps_are_bit_identical_to_per_sample_window() {
    // The front end precomputes window taps for its echo-section length
    // (`echo_ir_pre + echo_ir_tail`); frames of that length must give the
    // bits of the per-sample `apply_in_place` path, and every other length
    // must be untouched by the extra taps.
    let other = EarSonarConfig {
        echo_ir_pre: 3,
        echo_ir_tail: 40,
        mfcc: MfccConfig {
            window: Window::Blackman,
            ..EarSonarConfig::default().mfcc
        },
        ..EarSonarConfig::default()
    };
    let mut scratch = DspScratch::new();
    let (mut with_taps, mut without) = (Vec::new(), Vec::new());
    for cfg in [EarSonarConfig::default(), other] {
        let section = cfg.echo_ir_pre + cfg.echo_ir_tail;
        let plain = MfccExtractor::new(cfg.mfcc.clone()).unwrap();
        let tapped = MfccExtractor::new(cfg.mfcc.clone())
            .unwrap()
            .with_frame_taps(section);
        for n in [1usize, 2, 60, 61, 62, 255, section] {
            let x = noise(n, 20_000 + n as u64);
            tapped.extract_into(&mut scratch, &x, &mut with_taps).unwrap();
            plain.extract_into(&mut scratch, &x, &mut without).unwrap();
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&with_taps), bits(&without), "section {section}, n={n}");
        }
    }
}

#[test]
fn quality_scan_tracks_scalar_reference() {
    let mut prev: Vec<f64> = Vec::new();
    let mut floor_fast = NoiseFloor::default();
    let mut floor_slow = NoiseFloor::default();
    for (i, &n) in LENGTHS.iter().enumerate() {
        let mut w = noise(n, 11_000 + n as u64);
        if n > 40 {
            // A flat run and rail samples exercise the exact scans.
            for v in w.iter_mut().skip(20).take(12) {
                *v = 0.25;
            }
            w[3] = 1.5;
        }
        let active = (n / 2).max(1);
        let fast = measure_window(&w, &prev, &mut floor_fast, active);
        let slow = measure_window_scalar(&w, &prev, &mut floor_slow, active);
        assert_eq!(fast.dropout_fraction, slow.dropout_fraction, "dropout n={n}");
        assert_eq!(fast.clip_fraction, slow.clip_fraction, "clip n={n}");
        assert!((fast.snr_db - slow.snr_db).abs() < 1e-9, "snr n={n}");
        assert!(
            (fast.correlation - slow.correlation).abs() < 1e-9,
            "corr n={n}"
        );
        assert!(
            (fast.dc_fraction - slow.dc_fraction).abs() < 1e-12,
            "dc n={n}"
        );
        // Alternate the correlation reference so both m == n and m < n
        // paths run.
        if i % 2 == 0 {
            prev.clear();
            prev.extend_from_slice(&w);
        }
    }
}

#[test]
fn denormal_and_extreme_inputs_stay_finite_and_close() {
    let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
    for &n in &[5usize, 64, 241] {
        let mut x = vec![tiny; n];
        if n > 2 {
            x[1] = -tiny;
            x[n / 2] = tiny * 3.0;
        }
        assert!(simd::sum(&x).is_finite());
        assert_eq!(simd::sum(&x), simd::sum_scalar(&x), "subnormal sum n={n}");
        assert!(simd::sum_sq(&x) >= 0.0);
        assert_eq!(
            simd::centered_peak(&x, 0.0),
            simd::centered_peak_scalar(&x, 0.0)
        );
        // Large magnitudes near the overflow edge must not be reordered
        // into a spurious infinity by the four-lane fold.
        let big: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1e300 } else { -1e300 })
            .collect();
        assert!(simd::sum(&big).is_finite());
        assert!(close(
            simd::sum(&big),
            simd::sum_scalar(&big),
            n as f64 * 1e300
        ));
    }
}
