//! Planner correctness: planned transforms must agree with the one-shot
//! free functions bit-for-bit in semantics (round trips, Parseval,
//! Hermitian symmetry) across every size the pipeline uses, and the
//! process-wide plan table must hand every caller the same plan.

use earsonar_dsp::fft::{fft, fft_in_place, fft_real, fft_real_padded, ifft, ifft_in_place};
use earsonar_dsp::plan::{shared_plan, shared_real_plan, DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::DspError;
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::Complex64;

const SIZES: [usize; 8] = [1, 2, 4, 8, 64, 512, 2048, 4096];

fn random_real(rng: &mut DetRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn random_complex(rng: &mut DetRng, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect()
}

#[test]
fn planned_forward_matches_free_fft() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(s as u64);
        let x = random_complex(&mut rng, n);
        let reference = fft(&x);
        let plan = FftPlan::new(n).unwrap();
        let mut buf = x.clone();
        plan.forward(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn planned_round_trip_recovers_signal() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(100 + s as u64);
        let x = random_complex(&mut rng, n);
        let plan = FftPlan::new(n).unwrap();
        let mut buf = x.clone();
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_matches_free_fft_real() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(200 + s as u64);
        let x = random_real(&mut rng, n);
        let reference = fft_real(&x);
        let plan = RealFftPlan::new(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        assert_eq!(spec.len(), reference.len(), "n = {n}");
        for (a, b) in spec.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_round_trip_recovers_signal() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(300 + s as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::new(n).unwrap();
        let (mut work, mut spec, mut back) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        plan.inverse_into(&spec, &mut work, &mut back).unwrap();
        assert_eq!(back.len(), n);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_inverse_matches_free_ifft() {
    // Inverse of a Hermitian spectrum must agree with the generic complex
    // inverse's real part.
    for &n in &[8usize, 256, 1024] {
        let mut rng = DetRng::seed_from_u64(n as u64);
        let x = random_real(&mut rng, n);
        let spec = fft_real(&x);
        let reference: Vec<f64> = ifft(&spec).into_iter().map(|z| z.re).collect();
        let plan = RealFftPlan::new(n).unwrap();
        let (mut work, mut back) = (Vec::new(), Vec::new());
        plan.inverse_into(&spec, &mut work, &mut back).unwrap();
        for (a, b) in back.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_zero_pads_short_input() {
    let plan = RealFftPlan::new(16).unwrap();
    let (mut work, mut spec) = (Vec::new(), Vec::new());
    plan.forward_into(&[1.0, 2.0, 3.0], &mut work, &mut spec).unwrap();
    let mut padded = vec![0.0; 16];
    padded[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
    let reference = fft_real(&padded);
    for (a, b) in spec.iter().zip(&reference) {
        assert!((*a - *b).norm() < 1e-12);
    }
}

#[test]
fn planned_transform_preserves_parseval_energy() {
    for &n in &[128usize, 2048] {
        let mut rng = DetRng::seed_from_u64(400 + n as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::new(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 =
            spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0),
            "n = {n}: {time_energy} vs {freq_energy}"
        );
    }
}

#[test]
fn real_plan_spectrum_is_hermitian() {
    for &n in &[64usize, 4096] {
        let mut rng = DetRng::seed_from_u64(500 + n as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::new(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        assert!(spec[0].im.abs() < 1e-12, "DC bin must be real");
        assert!(spec[n / 2].im.abs() < 1e-12, "Nyquist bin must be real");
        for k in 1..n / 2 {
            let d = (spec[k] - spec[n - k].conj()).norm();
            assert!(d < 1e-12 * n as f64, "n = {n}, bin {k}");
        }
    }
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_plans() {
    // The batch pipeline relies on this: a warm scratch must produce the
    // same bits as a cold one.
    let mut warm = DspScratch::new();
    let mut rng = DetRng::seed_from_u64(600);
    for round in 0..3 {
        for &n in &[256usize, 1024] {
            let x = random_real(&mut rng, n);
            let plan = warm.real_plan(n).unwrap();
            let mut work = warm.take_complex();
            let mut spec = warm.take_complex();
            plan.forward_into(&x, &mut work, &mut spec).unwrap();

            let cold_plan = RealFftPlan::new(n).unwrap();
            let (mut cw, mut cs) = (Vec::new(), Vec::new());
            cold_plan.forward_into(&x, &mut cw, &mut cs).unwrap();
            assert_eq!(spec, cs, "round {round}, n = {n}");

            warm.put_complex(spec);
            warm.put_complex(work);
        }
    }
}

/// Compile-time check: a scratch can move to a worker thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DspScratch>();
};

#[test]
fn scratches_and_threads_share_one_plan_per_size() {
    let a = DspScratch::new();
    let b = DspScratch::new();
    for n in [1usize, 2, 64, 256, 1024] {
        assert!(std::ptr::eq(a.plan(n).unwrap(), b.plan(n).unwrap()), "n = {n}");
        assert!(std::ptr::eq(a.real_plan(n).unwrap(), b.real_plan(n).unwrap()), "n = {n}");
        assert!(std::ptr::eq(a.plan(n).unwrap(), shared_plan(n).unwrap()), "n = {n}");
    }
    // Two threads racing for a size neither has requested before still
    // end up with the one table entry.
    let n = 1 << 13;
    let (p1, p2, r1, r2) = std::thread::scope(|s| {
        let t1 = s.spawn(|| {
            let scratch = DspScratch::new();
            (scratch.plan(n).unwrap(), scratch.real_plan(n).unwrap())
        });
        let t2 = s.spawn(|| (shared_plan(n).unwrap(), shared_real_plan(n).unwrap()));
        let (p1, r1) = t1.join().unwrap();
        let (p2, r2) = t2.join().unwrap();
        (p1, p2, r1, r2)
    });
    assert!(std::ptr::eq(p1, p2));
    assert!(std::ptr::eq(r1, r2));
    assert_eq!(p1.size(), n);
    assert_eq!(r1.size(), n);
}

#[test]
fn one_shot_transforms_are_bit_identical_to_private_plans() {
    let mut n = 1usize;
    while n <= 1024 {
        let mut rng = DetRng::seed_from_u64(700 + n as u64);
        let x = random_complex(&mut rng, n);
        let plan = FftPlan::new(n).unwrap();
        let mut expect = x.clone();
        plan.forward(&mut expect).unwrap();
        assert_eq!(fft(&x), expect, "fft n = {n}");
        let mut buf = x.clone();
        fft_in_place(&mut buf).unwrap();
        assert_eq!(buf, expect, "fft_in_place n = {n}");
        let mut back = expect.clone();
        plan.inverse(&mut back).unwrap();
        ifft_in_place(&mut expect).unwrap();
        assert_eq!(expect, back, "ifft_in_place n = {n}");

        // `fft_real_padded` truncates or zero-pads to `n` points.
        let real = random_real(&mut rng, n + 3);
        for len in [n / 2, n, n + 3] {
            let mut promoted = vec![Complex64::ZERO; n];
            for (dst, &src) in promoted.iter_mut().zip(&real[..len]) {
                *dst = Complex64::from_real(src);
            }
            plan.forward(&mut promoted).unwrap();
            assert_eq!(fft_real_padded(&real[..len], n), promoted, "n = {n}, len {len}");
        }
        n *= 2;
    }
}

#[test]
fn plan_table_rejects_bad_sizes_with_typed_errors() {
    let scratch = DspScratch::new();
    for n in [0usize, 3, 12, 1000] {
        let expect_empty = n == 0;
        for r in [shared_plan(n).map(drop), scratch.plan(n).map(drop)] {
            match r {
                Err(DspError::EmptyInput) => assert!(expect_empty, "n = {n}"),
                Err(DspError::InvalidLength { actual, .. }) => assert_eq!(actual, n),
                other => panic!("n = {n}: {other:?}"),
            }
        }
        assert!(shared_real_plan(n).is_err() && scratch.real_plan(n).is_err(), "n = {n}");
    }
    // Past the table (2^31 points) the lookup refuses instead of planning.
    for n in [1usize << 32, 1 << 40, 1 << (usize::BITS - 1)] {
        assert!(
            matches!(shared_plan(n), Err(DspError::InvalidLength { actual, .. }) if actual == n),
            "n = {n}"
        );
        assert!(matches!(
            shared_real_plan(n),
            Err(DspError::InvalidLength { .. })
        ));
    }
    assert!(matches!(fft_in_place(&mut []), Err(DspError::EmptyInput)));
    assert!(matches!(
        ifft_in_place(&mut [Complex64::ZERO; 6]),
        Err(DspError::InvalidLength { actual: 6, .. })
    ));
}
