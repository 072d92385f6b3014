//! Planned feature-extraction pipelines.
//!
//! An STFT plan (FFT twiddles, bit-reversal table, window coefficients) and
//! a mel filterbank are pure functions of their parameters, yet several call
//! sites used to rebuild them per clip — and the 32-band/1024-point "MFCC
//! configuration" was hand-rolled in five places. [`MelPipeline`] plans both
//! once and is reused across clips (`&self` methods only), so the per-clip
//! cost is just the transform itself.

use crate::image::Image;
use crate::mel::{MelFilterbank, MelSpectrogram};
use crate::mfcc::Mfcc;
use crate::stft::{SpectrogramParams, Stft};
use crate::window::WindowKind;
use pb_telemetry::Telemetry;
use rayon::prelude::*;

/// A planned clip→features pipeline: one STFT plan plus one mel filterbank,
/// built once and reused for every clip.
#[derive(Clone, Debug)]
pub struct MelPipeline {
    stft: Stft,
    bank: MelFilterbank,
    telemetry: Telemetry,
}

impl MelPipeline {
    /// Plans a pipeline: STFT with `params`, full-band filterbank with
    /// `n_mels` bands at `sample_rate`.
    pub fn new(params: SpectrogramParams, n_mels: usize, sample_rate: f64) -> Self {
        let bank = MelFilterbank::new(n_mels, params.n_fft, sample_rate, 0.0, sample_rate / 2.0);
        MelPipeline { stft: Stft::new(params), bank, telemetry: Telemetry::disabled() }
    }

    /// Assembles a pipeline from existing parts (FFT sizes must agree).
    pub fn from_parts(stft: Stft, bank: MelFilterbank) -> Self {
        assert_eq!(stft.params().n_fft, bank.n_fft(), "STFT and filterbank must agree on n_fft");
        MelPipeline { stft, bank, telemetry: Telemetry::disabled() }
    }

    /// Times every stage into `telemetry`: per-clip wall-time histograms
    /// `dsp.mel`, `dsp.mfcc` and `dsp.image` (nested — an `image` call
    /// also records its inner `mel`). Outputs are unchanged.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The paper's configuration: n_fft 2048, hop 512, Hann window,
    /// 128 mel bands at 22 050 Hz.
    pub fn paper_default() -> Self {
        MelPipeline::new(SpectrogramParams::default(), crate::N_MELS, crate::SAMPLE_RATE_HZ)
    }

    /// The compact MFCC configuration used by the SVM path and tests:
    /// n_fft 1024, hop 512, Hann window, 32 mel bands at 22 050 Hz.
    pub fn compact() -> Self {
        MelPipeline::new(
            SpectrogramParams { n_fft: 1024, hop: 512, window: WindowKind::Hann },
            32,
            crate::SAMPLE_RATE_HZ,
        )
    }

    /// The planned STFT.
    pub fn stft(&self) -> &Stft {
        &self.stft
    }

    /// The planned filterbank.
    pub fn bank(&self) -> &MelFilterbank {
        &self.bank
    }

    /// Log-mel spectrogram of `signal`.
    pub fn mel(&self, signal: &[f64]) -> MelSpectrogram {
        let _span = self.telemetry.span("dsp.mel");
        MelSpectrogram::compute(signal, &self.stft, &self.bank)
    }

    /// MFCCs of `signal` (`n_coeffs` per frame).
    pub fn mfcc(&self, signal: &[f64], n_coeffs: usize) -> Mfcc {
        let _span = self.telemetry.span("dsp.mfcc");
        Mfcc::from_mel(&self.mel(signal), n_coeffs)
    }

    /// Normalized `side × side` spectrogram image of `signal` — the CNN
    /// input of the Figure 5 sweep.
    pub fn image(&self, signal: &[f64], side: usize) -> Image {
        let _span = self.telemetry.span("dsp.image");
        Image::from_mel(&self.mel(signal)).resize_bilinear(side, side).normalize()
    }

    /// Batch variant of [`MelPipeline::image`]: one normalized `side × side`
    /// spectrogram image per clip, sharing this pipeline's plans across the
    /// whole batch. The clips fan out over the rayon pool and come back in
    /// input order; each image is computed exactly as by
    /// [`MelPipeline::image`], so the batch is bitwise equal to the
    /// per-clip loop at any thread count. Records one `dsp.image` span per
    /// clip plus a `dsp.batch.size` gauge, so batched callers show up in
    /// telemetry with the same per-clip histograms as the loop they
    /// replace.
    pub fn images<S: AsRef<[f64]> + Sync>(&self, clips: &[S], side: usize) -> Vec<Image> {
        self.telemetry.set_gauge("dsp.batch.size", clips.len() as f64);
        clips.par_iter().map(|c| self.image(c.as_ref(), side)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_free_function() {
        let clip: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
        let via_pipeline = MelPipeline::paper_default().mel(&clip);
        let via_free = MelSpectrogram::paper_default(&clip);
        assert_eq!(via_pipeline, via_free);
    }

    #[test]
    fn compact_configuration_shape() {
        let p = MelPipeline::compact();
        assert_eq!(p.stft().params().n_fft, 1024);
        assert_eq!(p.stft().params().hop, 512);
        assert_eq!(p.bank().n_mels(), 32);
        let clip: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.02).sin()).collect();
        let mel = p.mel(&clip);
        assert_eq!(mel.n_mels(), 32);
        assert_eq!(mel.n_frames(), p.stft().params().frames_for(clip.len()));
        let mfcc = p.mfcc(&clip, 13);
        assert_eq!(mfcc.n_coeffs(), 13);
        assert_eq!(mfcc.n_frames(), mel.n_frames());
    }

    #[test]
    fn image_has_requested_side() {
        let clip: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.05).sin()).collect();
        let img = MelPipeline::compact().image(&clip, 24);
        assert_eq!((img.width(), img.height()), (24, 24));
    }

    #[test]
    fn telemetry_times_each_stage_without_changing_outputs() {
        let clip: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
        let tel = Telemetry::metrics_only();
        let plain = MelPipeline::compact();
        let traced = MelPipeline::compact().with_telemetry(tel.clone());
        assert_eq!(plain.mel(&clip), traced.mel(&clip));
        assert_eq!(plain.mfcc(&clip, 13), traced.mfcc(&clip, 13));
        assert_eq!(plain.image(&clip, 16), traced.image(&clip, 16));
        let snap = tel.snapshot();
        // mel is called directly once, plus once inside mfcc and image.
        assert_eq!(snap.histogram("dsp.mel").unwrap().count, 3);
        assert_eq!(snap.histogram("dsp.mfcc").unwrap().count, 1);
        assert_eq!(snap.histogram("dsp.image").unwrap().count, 1);
        // Outer stages cover their inner mel.
        let mel = snap.histogram("dsp.mel").unwrap();
        let mfcc = snap.histogram("dsp.mfcc").unwrap();
        assert!(mfcc.max >= mel.min);
    }

    #[test]
    fn batched_images_match_the_per_clip_loop() {
        let clips: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..4096).map(|i| (i as f64 * 0.01 * (k + 1) as f64).sin()).collect())
            .collect();
        let tel = Telemetry::metrics_only();
        let p = MelPipeline::compact().with_telemetry(tel.clone());
        let looped: Vec<Image> = clips.iter().map(|c| p.image(c, 16)).collect();
        // The batch fans over the pool; it must equal the loop bit for bit
        // on one worker, two, and the whole pool.
        let n = rayon::pool::current_num_threads();
        for cap in [1, 2, n] {
            let batched = rayon::pool::with_thread_cap(cap, || p.images(&clips, 16));
            assert_eq!(batched.len(), clips.len());
            for (img, want) in batched.iter().zip(&looped) {
                let bits = |i: &Image| i.pixels().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(img), bits(want), "thread cap {cap}");
            }
        }
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("dsp.batch.size"), Some(5.0));
        // 5 from the loop + 5 from each of the three batches.
        assert_eq!(snap.histogram("dsp.image").unwrap().count, 20);
    }

    #[test]
    #[should_panic(expected = "agree on n_fft")]
    fn mismatched_parts_panic() {
        let stft = Stft::new(SpectrogramParams { n_fft: 512, hop: 256, window: WindowKind::Hann });
        let bank = MelFilterbank::new(8, 1024, 22_050.0, 0.0, 11_025.0);
        let _ = MelPipeline::from_parts(stft, bank);
    }
}
