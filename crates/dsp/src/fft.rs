//! Fast Fourier transform.
//!
//! An iterative, in-place radix-2 Cooley–Tukey FFT with convenience wrappers
//! for real-valued signals and arbitrary-length inputs (via zero-padding).
//! EarSonar uses the FFT for echo power spectra (paper §IV-C-1), MFCC
//! extraction, and fast auto-convolution in the segmentation stage.

use crate::complex::Complex64;
use crate::error::DspError;
use crate::plan::shared_plan;
#[cfg(test)]
use std::f64::consts::PI;

/// Returns the smallest power of two that is `>= n` (and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(earsonar_dsp::fft::next_pow2(1000), 1024);
/// assert_eq!(earsonar_dsp::fft::next_pow2(1024), 1024);
/// assert_eq!(earsonar_dsp::fft::next_pow2(0), 1);
/// ```
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        usize::pow(2, usize::BITS - (n - 1).leading_zeros())
    }
}

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// One-shot transform through the process-wide plan table
/// ([`crate::plan::shared_plan`]): the first call of a size builds its
/// plan, every later call of that size — from any thread — reuses it.
// lint: hot-path
fn fft_in_place_dir(data: &mut [Complex64], inverse: bool) -> Result<(), DspError> {
    shared_plan(data.len())?.execute_in_place(data, inverse)
}

/// [`fft_in_place_dir`] on a buffer the caller padded to a power of two.
fn fft_padded_in_place(buf: &mut [Complex64], inverse: bool) {
    // lint: allow(panic) callers pad to a power of two, and a buffer past the plan table (2^31 points, 32 GiB) could not have been allocated
    fft_in_place_dir(buf, inverse).expect("power-of-two FFT length within the plan table");
}

/// Computes the in-place forward FFT of a power-of-two-length buffer.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if the length is not a power of two
/// (or exceeds 2^31), and [`DspError::EmptyInput`] on an empty buffer.
// lint: hot-path
pub fn fft_in_place(data: &mut [Complex64]) -> Result<(), DspError> {
    fft_in_place_dir(data, false)
}

/// Computes the in-place inverse FFT of a power-of-two-length buffer.
///
/// The result is normalized by `1/N`, so `ifft(fft(x)) == x`.
///
/// # Errors
///
/// Same conditions as [`fft_in_place`].
// lint: hot-path
pub fn ifft_in_place(data: &mut [Complex64]) -> Result<(), DspError> {
    fft_in_place_dir(data, true)
}

/// Computes the FFT of a complex signal, zero-padding to the next power of
/// two if necessary.
///
/// The returned buffer has power-of-two length `>= input.len()`.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let n = next_pow2(input.len().max(1));
    let mut buf = vec![Complex64::ZERO; n];
    buf[..input.len()].copy_from_slice(input);
    fft_padded_in_place(&mut buf, false);
    buf
}

/// Computes the inverse FFT of a complex spectrum, zero-padding to the next
/// power of two if necessary.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let n = next_pow2(input.len().max(1));
    let mut buf = vec![Complex64::ZERO; n];
    buf[..input.len()].copy_from_slice(input);
    fft_padded_in_place(&mut buf, true);
    buf
}

/// Computes the FFT of a real signal, zero-padding to the next power of two.
///
/// # Example
///
/// ```
/// use earsonar_dsp::fft::fft_real;
/// // The DC bin of a constant signal carries the sum of the samples.
/// let spec = fft_real(&[1.0; 8]);
/// assert!((spec[0].re - 8.0).abs() < 1e-12);
/// assert!(spec[1].norm() < 1e-12);
/// ```
pub fn fft_real(input: &[f64]) -> Vec<Complex64> {
    let n = next_pow2(input.len().max(1));
    let mut buf = vec![Complex64::ZERO; n];
    for (dst, &src) in buf.iter_mut().zip(input.iter()) {
        *dst = Complex64::from_real(src);
    }
    fft_padded_in_place(&mut buf, false);
    buf
}

/// Computes the FFT of a real signal zero-padded (or truncated) to `n_fft`
/// points. `n_fft` is rounded up to the next power of two.
pub fn fft_real_padded(input: &[f64], n_fft: usize) -> Vec<Complex64> {
    let n = next_pow2(n_fft.max(1));
    let m = input.len().min(n);
    let mut buf = vec![Complex64::ZERO; n];
    for (dst, &src) in buf.iter_mut().zip(input[..m].iter()) {
        *dst = Complex64::from_real(src);
    }
    fft_padded_in_place(&mut buf, false);
    buf
}

/// Recovers a real signal from its spectrum (the imaginary residue of the
/// inverse transform is discarded).
pub fn ifft_real(input: &[Complex64]) -> Vec<f64> {
    ifft(input).into_iter().map(|z| z.re).collect()
}

/// Returns the frequency in hertz of FFT bin `k` for an `n`-point transform
/// at sample rate `fs` (bins above Nyquist map to negative frequencies).
///
/// # Example
///
/// ```
/// use earsonar_dsp::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 1024, 48_000.0), 0.0);
/// assert_eq!(bin_frequency(512, 1024, 48_000.0), -24_000.0);
/// ```
pub fn bin_frequency(k: usize, n: usize, fs: f64) -> f64 {
    let k = k % n;
    if k <= n / 2 && !(k == n / 2 && n.is_multiple_of(2)) {
        k as f64 * fs / n as f64
    } else {
        (k as f64 - n as f64) * fs / n as f64
    }
}

/// Returns the FFT bin index closest to frequency `f_hz` for an `n`-point
/// transform at sample rate `fs`.
///
/// # Panics
///
/// Panics in debug builds if `fs <= 0`.
pub fn frequency_bin(f_hz: f64, n: usize, fs: f64) -> usize {
    debug_assert!(fs > 0.0);
    let k = (f_hz / fs * n as f64).round() as isize;
    k.rem_euclid(n as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    #[test]
    fn next_pow2_edge_cases() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex64::ZERO; 3];
        assert!(matches!(
            fft_in_place(&mut buf),
            Err(DspError::InvalidLength { .. })
        ));
        let mut empty: Vec<Complex64> = vec![];
        assert!(matches!(fft_in_place(&mut empty), Err(DspError::EmptyInput)));
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for z in &x {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // textbook DFT definition
    fn fft_matches_naive_dft() {
        let n = 32;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let fast = fft(&x);
        for k in 0..n {
            let mut acc = Complex64::ZERO;
            for (i, &xi) in x.iter().enumerate() {
                acc += xi * Complex64::cis(-2.0 * PI * (k * i) as f64 / n as f64);
            }
            assert!((fast[k] - acc).norm() < 1e-9, "bin {k} mismatch");
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn sine_lands_in_expected_bin() {
        let fs = 48_000.0;
        let n = 2048;
        let f = 18_000.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect();
        let spec = fft_real(&x);
        let k = frequency_bin(f, n, fs);
        let mag_k = spec[k].norm();
        // Energy concentrated at bin k: magnitude ~ n/2 for unit sine.
        assert!(mag_k > 0.9 * n as f64 / 2.0, "mag {mag_k}");
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<f64> = (0..128).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let n = x.len();
        let spec = fft_real(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert_close(time_energy, freq_energy, 1e-8);
    }

    #[test]
    fn hermitian_symmetry_for_real_input() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).cos()).collect();
        let spec = fft_real(&x);
        let n = spec.len();
        for k in 1..n / 2 {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).norm() < 1e-10);
        }
    }

    #[test]
    fn bin_frequency_maps_both_halves() {
        assert_close(bin_frequency(1, 1024, 48_000.0), 46.875, 1e-9);
        assert_close(bin_frequency(1023, 1024, 48_000.0), -46.875, 1e-9);
    }

    #[test]
    fn frequency_bin_round_trips() {
        let n = 4096;
        let fs = 48_000.0;
        for f in [0.0, 1000.0, 16_000.0, 18_000.0, 20_000.0] {
            let k = frequency_bin(f, n, fs);
            assert!((bin_frequency(k, n, fs) - f).abs() <= fs / n as f64 / 2.0 + 1e-9);
        }
    }

    #[test]
    fn padded_fft_truncates_and_pads() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let spec = fft_real_padded(&x, 4);
        assert_eq!(spec.len(), 4);
        assert_close(spec[0].re, 10.0, 1e-12); // 1+2+3+4
        let spec2 = fft_real_padded(&x, 8);
        assert_eq!(spec2.len(), 8);
        assert_close(spec2[0].re, 15.0, 1e-12);
    }

    #[test]
    fn linearity_of_fft() {
        let a: Vec<Complex64> = (0..32).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(0.0, (i as f64).sin()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..32 {
            assert!((fsum[k] - (fa[k] + fb[k])).norm() < 1e-9);
        }
    }
}
