//! Scoped-thread batch processing.
//!
//! Screening studies process hundreds of recordings with the same fitted
//! front end; the recordings are independent, so the work parallelizes
//! trivially. [`FrontEnd::process_batch`] fans a slice of recordings out
//! through [`earsonar_dsp::par::map_indexed`] with **one warm
//! [`DspScratch`] per worker**, so each thread reuses its buffers across
//! every recording it claims (FFT plans are shared by all threads).
//!
//! Output order always matches input order, and because the planned
//! kernels are deterministic the results are **bit-identical** to calling
//! [`FrontEnd::process`] sequentially, at any thread count (verified by
//! the `batch_determinism` integration tests).

use crate::error::EarSonarError;
use earsonar_signal::effusion::MeeState;
use crate::pipeline::{EarSonar, FrontEnd, ProcessedRecording};
use earsonar_dsp::par::{default_workers, map_indexed};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;

impl FrontEnd {
    /// Processes a batch of recordings in parallel, one result per
    /// recording in input order.
    ///
    /// Runs on up to [`default_workers`] scoped threads; each keeps a warm
    /// [`DspScratch`] across the recordings it claims. Per-recording
    /// failures (for example [`EarSonarError::NoEchoDetected`]) land in
    /// the corresponding output slot instead of aborting the batch.
    pub fn process_batch(
        &self,
        recordings: &[Recording],
    ) -> Vec<Result<ProcessedRecording, EarSonarError>> {
        self.process_batch_with_workers(recordings, default_workers(recordings.len()))
    }

    /// [`FrontEnd::process_batch`] with an explicit worker count (`1`
    /// means fully sequential). Results are bit-identical at any count.
    pub fn process_batch_with_workers(
        &self,
        recordings: &[Recording],
        workers: usize,
    ) -> Vec<Result<ProcessedRecording, EarSonarError>> {
        map_indexed(recordings.len(), workers, DspScratch::new, |scratch, i| {
            self.process_with(scratch, &recordings[i])
        })
    }
}

impl EarSonar {
    /// Screens a batch of recordings in parallel, one verdict per
    /// recording in input order. The front end fans out across scoped
    /// workers; the (cheap) detector prediction runs in the same pass.
    pub fn screen_batch(
        &self,
        recordings: &[Recording],
    ) -> Vec<Result<MeeState, EarSonarError>> {
        self.screen_batch_with_workers(recordings, default_workers(recordings.len()))
    }

    /// [`EarSonar::screen_batch`] with an explicit worker count.
    pub fn screen_batch_with_workers(
        &self,
        recordings: &[Recording],
        workers: usize,
    ) -> Vec<Result<MeeState, EarSonarError>> {
        map_indexed(recordings.len(), workers, DspScratch::new, |scratch, i| {
            let processed = self.front_end().process_with(scratch, &recordings[i])?;
            self.classifier().predict(&processed.features)
        })
    }
}
