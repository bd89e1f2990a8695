//! Micro-benchmarks of the DSP substrate kernels the pipeline leans on:
//! FFT, Butterworth filtering, Wiener channel estimation, MFCC, and the
//! parity-decomposition auto-convolution.
//!
//! Runs on the dependency-free [`earsonar_bench::timing`] harness
//! (`cargo bench -p earsonar-bench --bench dsp_kernels`; pass `--smoke`
//! for a fast CI run).

use earsonar::channel::ChannelEstimator;
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_bench::timing::Bencher;
use earsonar_dsp::convolution::autoconvolve;
use earsonar_dsp::fft::fft_real;
use earsonar_dsp::filter::{butter_bandpass, filtfilt};
use earsonar_dsp::mfcc::{MfccConfig, MfccExtractor};
use earsonar_dsp::psd::periodogram;
use earsonar_dsp::window::Window;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / 48_000.0).sin())
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let b = Bencher::from_args(&args);

    for n in [256usize, 1024, 4096] {
        let x = signal(n);
        b.report(&format!("fft_real/{n}"), || fft_real(&x));
    }

    let f = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
    let x = signal(5_760); // one default recording
    b.report("filtfilt_recording", || filtfilt(&f, &x, 72).unwrap());

    let template = FmcwChirp::earsonar().samples();
    let est = ChannelEstimator::new(&template, 240, 96, 1e-3).unwrap();
    let window = signal(240);
    b.report("channel_ir_estimate", || est.estimate(&window).unwrap());

    let ex = MfccExtractor::new(MfccConfig::earsonar_default()).unwrap();
    let x = signal(256);
    b.report("mfcc_extract_frame", || ex.extract(&x).unwrap());

    let x = signal(96);
    b.report("autoconvolve_ir", || autoconvolve(&x));

    let x = signal(4096);
    b.report("periodogram_4096", || {
        periodogram(&x, 48_000.0, Window::Hann).unwrap()
    });
}
