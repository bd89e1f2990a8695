//! Exit codes of the screening commands: a file that cannot be read as a
//! WAV gets no verdict, so the run exits 2 ("measure again") on every
//! screening path, never 0 ("all conclusive").

use earsonar::model_io::save_model;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_dsp::wav::{write_wav, WavAudio, WavFormat};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory for one test, unique to this test process, holding
/// a fitted model `m.model` and a file `broken.wav` that is not a WAV.
/// Returns the directory and the dataset the model was fitted on.
fn scratch_dir(test: &str) -> (PathBuf, Dataset) {
    let dir = std::env::temp_dir().join(format!(
        "earsonar-exit-codes-{test}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let data = Dataset::build(&Cohort::generate(4, 21), &DatasetSpec::default());
    let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
    save_model(dir.join("m.model"), &system).expect("save model");
    std::fs::write(dir.join("broken.wav"), b"this is not a RIFF file").expect("write");
    (dir, data)
}

fn earsonar(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_earsonar"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run earsonar")
}

#[test]
fn a_file_that_is_not_a_wav_exits_2_on_every_screening_path() {
    let (dir, _) = scratch_dir("one");
    let screen = earsonar(&["screen", "--model", "m.model", "broken.wav"], &dir);
    let sequential = earsonar(&["screen-wav", "--model", "m.model", "broken.wav"], &dir);
    let concurrent = earsonar(
        &["screen-wav", "--model", "m.model", "--workers", "2", "broken.wav"],
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);

    for (name, out) in [
        ("screen", &screen),
        ("screen-wav", &sequential),
        ("screen-wav --workers 2", &concurrent),
    ] {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{name}: {stdout}");
        assert!(stdout.contains("broken.wav\terror: "), "{name}: {stdout}");
    }
    assert_eq!(sequential.stdout, concurrent.stdout);
}

#[test]
fn a_mixed_queue_prints_in_file_order_with_and_without_workers() {
    let (dir, data) = scratch_dir("mixed");
    let rec = &data.sessions[0].recording;
    let audio = WavAudio {
        samples: rec.samples.clone(),
        sample_rate: rec.sample_rate as u32,
    };
    write_wav(dir.join("good.wav"), &audio, WavFormat::Float32).expect("write good.wav");

    // The broken file follows a readable one: its error line must come
    // second on both paths, not first on the concurrent one.
    let files = ["good.wav", "broken.wav"];
    let run = |extra: &[&str]| {
        let mut args = vec!["screen-wav", "--model", "m.model"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&files);
        earsonar(&args, &dir)
    };
    let sequential = run(&[]);
    let concurrent = run(&["--workers", "2"]);
    let _ = std::fs::remove_dir_all(&dir);

    let stdout = String::from_utf8_lossy(&sequential.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].starts_with("good.wav\t"), "{stdout}");
    assert!(lines[1].starts_with("broken.wav\terror: "), "{stdout}");
    assert_eq!(sequential.status.code(), Some(2), "{stdout}");
    assert_eq!(concurrent.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&concurrent.stdout),
        stdout,
        "concurrent output must match the sequential path"
    );
}
