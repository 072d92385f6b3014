#![warn(missing_docs)]

//! DSP substrate for the precision-beekeeping reproduction.
//!
//! The paper's queen-detection service classifies **mel-scaled spectrograms
//! of 10-second hive audio sampled at 22 050 Hz** (FFT window 2048, hop 512,
//! 128 mel bands). Since the original 1647 labelled recordings are not
//! public, this crate provides both the feature pipeline and a synthetic
//! bee-audio corpus that is separable in the same feature space:
//!
//! * [`complex`] — minimal complex arithmetic,
//! * [`fft`] — iterative radix-2 FFT / inverse FFT,
//! * [`window`] — Hann / Hamming / rectangular analysis windows,
//! * [`stft`] — short-time Fourier transform and power spectrograms,
//! * [`mel`] — mel filterbank and log-mel features with the paper's exact
//!   parameters,
//! * [`image`] — spectrogram-to-image conversion and bilinear resizing (the
//!   paper sweeps CNN input sizes in Figure 5),
//! * [`audio`] — the synthetic queenright/queenless audio generator,
//! * [`corpus`] — labelled dataset generation (parallelized with rayon).

pub mod audio;
pub mod complex;
pub mod corpus;
pub mod fft;
pub mod goertzel;
pub mod image;
pub mod mel;
pub mod mfcc;
pub mod pipeline;
pub mod stft;
pub mod wav;
pub mod window;

pub use audio::{BeeAudioSynth, ColonyState};
pub use complex::Complex;
pub use corpus::{Corpus, CorpusConfig, LabeledClip};
pub use goertzel::{band_power, goertzel_power};
pub use image::Image;
pub use mel::{MelFilterbank, MelSpectrogram};
pub use mfcc::Mfcc;
pub use pipeline::MelPipeline;
pub use stft::{SpectrogramParams, Stft};
pub use wav::WavFile;
pub use window::WindowKind;

/// Sample rate used throughout the paper's audio pipeline.
pub const SAMPLE_RATE_HZ: f64 = 22_050.0;
/// FFT window length used by the paper.
pub const N_FFT: usize = 2048;
/// Hop length (samples between adjacent STFT columns) used by the paper.
pub const HOP_LENGTH: usize = 512;
/// Number of mel bands used by the paper.
pub const N_MELS: usize = 128;
