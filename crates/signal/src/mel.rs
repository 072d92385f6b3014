//! Mel filterbank and log-mel spectrogram features.
//!
//! The paper's features are "mel-scaled spectrogram features computed from
//! 10-second audio recordings of bees sampled at 22 050 hertz", with
//! n_fft = 2048, hop = 512 and 128 mel bands. This module implements the
//! HTK mel scale and triangular filterbank, applied to the power
//! spectrograms from [`crate::stft`].
//!
//! Each triangular filter is stored **sparsely** — `(first_bin, weights)`
//! over its nonzero support only. A dense 128 × 1025 weight matrix is ~92%
//! zeros at the paper's parameters; touching only the support cuts the
//! mul-adds per frame by ~8×. [`MelFilterbank::dense_weights`] materializes
//! the dense rows for parity testing.

use crate::stft::{SpectrogramParams, Stft};

/// Converts frequency in hertz to mels (HTK formula).
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels to frequency in hertz (HTK formula).
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// One triangular filter, stored over its nonzero FFT-bin support.
#[derive(Clone, Debug)]
struct SparseFilter {
    /// First FFT bin with nonzero weight.
    first: usize,
    /// Weights for bins `first..first + weights.len()`.
    weights: Vec<f64>,
}

/// A bank of triangular mel filters over FFT bins, stored sparsely.
#[derive(Clone, Debug)]
pub struct MelFilterbank {
    filters: Vec<SparseFilter>,
    n_fft: usize,
}

impl MelFilterbank {
    /// Builds a filterbank of `n_mels` bands for spectra of `n_fft/2 + 1`
    /// bins at `sample_rate`, spanning `f_min..f_max` Hz.
    pub fn new(n_mels: usize, n_fft: usize, sample_rate: f64, f_min: f64, f_max: f64) -> Self {
        assert!(n_mels > 0, "need at least one mel band");
        assert!(f_min >= 0.0 && f_max > f_min, "need 0 <= f_min < f_max");
        assert!(f_max <= sample_rate / 2.0 + 1e-9, "f_max must not exceed Nyquist");
        let n_bins = n_fft / 2 + 1;

        // n_mels + 2 equally spaced points on the mel axis.
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        let mel_points: Vec<f64> = (0..n_mels + 2)
            .map(|i| mel_lo + (mel_hi - mel_lo) * i as f64 / (n_mels + 1) as f64)
            .collect();
        let hz_points: Vec<f64> = mel_points.iter().map(|&m| mel_to_hz(m)).collect();

        let bin_hz = sample_rate / n_fft as f64;
        let filters = (0..n_mels)
            .map(|m| {
                let (lo, mid, hi) = (hz_points[m], hz_points[m + 1], hz_points[m + 2]);
                // Nonzero support: bins strictly inside (lo, hi).
                let first = (lo / bin_hz).floor().max(0.0) as usize + 1;
                let first = first.min(n_bins);
                let mut weights = Vec::new();
                for k in first..n_bins {
                    let f = k as f64 * bin_hz;
                    if f >= hi {
                        break;
                    }
                    let w = if f <= mid { (f - lo) / (mid - lo) } else { (hi - f) / (hi - mid) };
                    weights.push(w);
                }
                SparseFilter { first, weights }
            })
            .collect();
        MelFilterbank { filters, n_fft }
    }

    /// The paper's filterbank: 128 mels, n_fft 2048, 22 050 Hz, full band.
    pub fn paper_default() -> Self {
        MelFilterbank::new(
            crate::N_MELS,
            crate::N_FFT,
            crate::SAMPLE_RATE_HZ,
            0.0,
            crate::SAMPLE_RATE_HZ / 2.0,
        )
    }

    /// Number of mel bands.
    pub fn n_mels(&self) -> usize {
        self.filters.len()
    }

    /// FFT size the bank was built for.
    pub fn n_fft(&self) -> usize {
        self.n_fft
    }

    /// Total number of stored (nonzero) weights across all bands.
    pub fn nnz(&self) -> usize {
        self.filters.iter().map(|f| f.weights.len()).sum()
    }

    /// Materializes the dense `n_mels × (n_fft/2 + 1)` weight matrix — the
    /// representation the sparse layout replaced; used by parity tests.
    pub fn dense_weights(&self) -> Vec<Vec<f64>> {
        let n_bins = self.n_fft / 2 + 1;
        self.filters
            .iter()
            .map(|filt| {
                let mut row = vec![0.0; n_bins];
                row[filt.first..filt.first + filt.weights.len()].copy_from_slice(&filt.weights);
                row
            })
            .collect()
    }

    /// Applies the bank to one power-spectrum frame.
    pub fn apply(&self, power_frame: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.filters.len()];
        self.apply_into(power_frame, &mut out);
        out
    }

    /// Allocation-free [`MelFilterbank::apply`]: writes one value per mel
    /// band into `out`, touching only each filter's nonzero support.
    pub fn apply_into(&self, power_frame: &[f64], out: &mut [f64]) {
        assert_eq!(
            power_frame.len(),
            self.n_fft / 2 + 1,
            "frame length must match filterbank bins"
        );
        assert_eq!(out.len(), self.filters.len(), "output length must match mel band count");
        for (o, filt) in out.iter_mut().zip(&self.filters) {
            let support = &power_frame[filt.first..filt.first + filt.weights.len()];
            *o = filt.weights.iter().zip(support).map(|(w, p)| w * p).sum();
        }
    }
}

/// A log-mel spectrogram in decibels relative to the clip maximum (librosa
/// `power_to_db` convention with `ref=max`), stored as one flat row-major
/// buffer: `data[frame * n_mels + band]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MelSpectrogram {
    data: Vec<f64>,
    n_frames: usize,
    n_mels: usize,
}

impl MelSpectrogram {
    /// Dynamic range floor applied after referencing to the maximum.
    pub const TOP_DB: f64 = 80.0;

    /// Power floor of both the cells and the reference before the dB
    /// ratio (librosa's `amin`).
    pub const AMIN: f64 = 1e-30;

    /// Computes the log-mel spectrogram of `signal` with the paper's
    /// parameters.
    pub fn paper_default(signal: &[f64]) -> Self {
        Self::compute(
            signal,
            &Stft::new(SpectrogramParams::default()),
            &MelFilterbank::paper_default(),
        )
    }

    /// Computes a log-mel spectrogram with explicit STFT and filterbank.
    ///
    /// Each frame's power row goes straight into its mel bands
    /// ([`Stft::for_each_power_frame`]); the full power spectrogram is
    /// never built.
    pub fn compute(signal: &[f64], stft: &Stft, bank: &MelFilterbank) -> Self {
        let n_frames = stft.params().frames_for(signal.len());
        let n_mels = bank.n_mels();
        let mut data = vec![0.0; n_frames * n_mels];
        let mut rows = data.chunks_exact_mut(n_mels);
        stft.for_each_power_frame(signal, |power| {
            bank.apply_into(power, rows.next().expect("one mel row per frame"));
        });

        // power → dB referenced to the clip maximum, floored at −TOP_DB.
        // Both sides of the ratio are floored at AMIN (librosa's `amin`),
        // so a silent or sub-AMIN clip reads 0 dB rather than dividing by
        // a denormal reference.
        let max = data.iter().fold(Self::AMIN, |a, &b| a.max(b));
        for p in &mut data {
            let db = 10.0 * (p.max(Self::AMIN) / max).log10();
            *p = db.max(-Self::TOP_DB);
        }
        MelSpectrogram { data, n_frames, n_mels }
    }

    /// Builds from one `Vec` per frame (all frames must agree in length).
    pub fn from_frames(frames: Vec<Vec<f64>>) -> Self {
        let n_frames = frames.len();
        let n_mels = frames.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_frames * n_mels);
        for f in &frames {
            assert_eq!(f.len(), n_mels, "all frames must have the same band count");
            data.extend_from_slice(f);
        }
        MelSpectrogram { data, n_frames, n_mels }
    }

    /// Number of time frames.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Number of mel bands (zero when empty).
    pub fn n_mels(&self) -> usize {
        self.n_mels
    }

    /// The flat row-major dB buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// One frame as a band slice.
    pub fn frame(&self, i: usize) -> &[f64] {
        assert!(i < self.n_frames, "frame {i} out of bounds ({} frames)", self.n_frames);
        &self.data[i * self.n_mels..(i + 1) * self.n_mels]
    }

    /// Iterator over frames (each an `n_mels`-long slice).
    pub fn frames(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.n_mels.max(1))
    }

    /// Flattens to a single feature vector (frame-major), as fed to the SVM.
    pub fn to_feature_vector(&self) -> Vec<f64> {
        self.data.clone()
    }

    /// Per-band mean over time — a compact summary feature used by tests
    /// and the corpus separability checks.
    pub fn band_means(&self) -> Vec<f64> {
        if self.n_frames == 0 {
            return Vec::new();
        }
        let mut acc = vec![0.0; self.n_mels];
        for f in self.frames() {
            for (a, v) in acc.iter_mut().zip(f) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= self.n_frames as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowKind;

    #[test]
    fn mel_scale_round_trip() {
        for hz in [0.0, 100.0, 440.0, 1000.0, 8000.0, 11_025.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn mel_scale_reference_point() {
        // 1000 Hz ≈ 1000 mel by construction of the HTK formula.
        assert!((hz_to_mel(1000.0) - 999.985).abs() < 0.01);
    }

    #[test]
    fn mel_scale_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..200 {
            let m = hz_to_mel(i as f64 * 50.0);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn filterbank_shape() {
        let bank = MelFilterbank::paper_default();
        assert_eq!(bank.n_mels(), 128);
        assert_eq!(bank.n_fft(), 2048);
        // The sparse layout stores only the triangular supports — a small
        // fraction of the dense 128 × 1025 matrix.
        assert!(bank.nnz() * 4 < 128 * 1025, "nnz {} is not sparse", bank.nnz());
    }

    #[test]
    fn filters_are_nonnegative_and_bounded() {
        let bank = MelFilterbank::new(32, 512, 22_050.0, 0.0, 11_025.0);
        for band in &bank.dense_weights() {
            for &w in band {
                assert!((0.0..=1.0).contains(&w));
            }
        }
    }

    #[test]
    fn every_filter_has_support() {
        let bank = MelFilterbank::new(32, 1024, 22_050.0, 0.0, 11_025.0);
        for (m, filt) in bank.filters.iter().enumerate() {
            assert!(filt.weights.iter().any(|&w| w > 0.0), "band {m} is empty");
        }
    }

    #[test]
    fn sparse_apply_matches_dense_matrix() {
        // Parity: the sparse application must agree with an explicit dense
        // matrix-vector product on a random frame, for several geometries.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for (n_mels, n_fft, f_min, f_max) in [
            (128usize, 2048usize, 0.0, 11_025.0),
            (32, 1024, 0.0, 11_025.0),
            (64, 512, 300.0, 8_000.0),
            (8, 256, 0.0, 4_000.0),
        ] {
            let bank = MelFilterbank::new(n_mels, n_fft, 22_050.0, f_min, f_max);
            let dense = bank.dense_weights();
            let frame: Vec<f64> = (0..n_fft / 2 + 1).map(|_| rng.gen_range(0.0..10.0)).collect();
            let sparse_out = bank.apply(&frame);
            for (m, row) in dense.iter().enumerate() {
                let dense_val: f64 = row.iter().zip(&frame).map(|(w, p)| w * p).sum();
                assert!(
                    (dense_val - sparse_out[m]).abs() <= 1e-9 * (1.0 + dense_val.abs()),
                    "band {m}: dense {dense_val} vs sparse {}",
                    sparse_out[m]
                );
            }
        }
    }

    #[test]
    fn tone_energy_lands_in_matching_band() {
        let sr = 22_050.0;
        let n_fft = 2048;
        let bank = MelFilterbank::new(64, n_fft, sr, 0.0, sr / 2.0);
        // Put all power in the bin nearest 500 Hz.
        let mut frame = vec![0.0; n_fft / 2 + 1];
        let bin = (500.0 / sr * n_fft as f64).round() as usize;
        frame[bin] = 1.0;
        let mel = bank.apply(&frame);
        let peak_band =
            mel.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        // The band whose centre is nearest 500 Hz must win.
        let centre = |m: usize| {
            let lo = hz_to_mel(0.0);
            let hi = hz_to_mel(sr / 2.0);
            mel_to_hz(lo + (hi - lo) * (m + 1) as f64 / 65.0)
        };
        let dist = (centre(peak_band) - 500.0).abs();
        assert!(dist < 120.0, "peak band centre {} Hz", centre(peak_band));
    }

    #[test]
    fn apply_rejects_wrong_length() {
        let bank = MelFilterbank::new(8, 256, 22_050.0, 0.0, 11_025.0);
        let result = std::panic::catch_unwind(|| bank.apply(&[0.0; 10]));
        assert!(result.is_err());
    }

    #[test]
    fn log_mel_of_tone_has_expected_shape() {
        let sr = 22_050.0;
        let signal: Vec<f64> =
            (0..8192).map(|i| (2.0 * std::f64::consts::PI * 300.0 * i as f64 / sr).sin()).collect();
        let stft = Stft::new(SpectrogramParams { n_fft: 1024, hop: 512, window: WindowKind::Hann });
        let bank = MelFilterbank::new(64, 1024, sr, 0.0, sr / 2.0);
        let mel = MelSpectrogram::compute(&signal, &stft, &bank);
        assert_eq!(mel.n_mels(), 64);
        assert!(mel.n_frames() > 10);
        // dB values referenced to max: all ≤ 0, floored at −80.
        for f in mel.frames() {
            for &v in f {
                assert!((-MelSpectrogram::TOP_DB - 1e-9..=1e-9).contains(&v));
            }
        }
        // The 300 Hz band must be the loudest on average.
        let means = mel.band_means();
        let peak = means.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(peak < 16, "300 Hz should fall in a low mel band, got {peak}");
    }

    #[test]
    fn silent_and_sub_floor_clips_read_zero_db() {
        // A silent clip has no power anywhere; a ±1e-20 hiss has power
        // ~1e-40, below AMIN. Both floor every cell and the reference at
        // AMIN, so every cell is exactly 0 dB rather than a huge positive
        // value from a denormal reference.
        let pipeline = crate::pipeline::MelPipeline::compact();
        let silence = vec![0.0; 8192];
        let hiss: Vec<f64> = (0..8192).map(|i| if i % 2 == 0 { 1e-20 } else { -1e-20 }).collect();
        for clip in [&silence, &hiss] {
            let mel = pipeline.mel(clip);
            assert!(mel.n_frames() > 0);
            assert!(mel.data().iter().all(|&v| v == 0.0), "{:?}", &mel.data()[..4]);
        }
    }

    #[test]
    fn seeded_clips_peak_at_zero_db_and_floor_at_top_db() {
        use crate::audio::{BeeAudioSynth, ColonyState};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let synth = BeeAudioSynth::default();
        for (seed, state) in [(1, ColonyState::Queenright), (2, ColonyState::Queenless)] {
            let clip = synth.generate(state, 1.0, &mut StdRng::seed_from_u64(seed));
            let mel = MelSpectrogram::paper_default(&clip);
            let max = mel.data().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = mel.data().iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(max, 0.0);
            assert!(min >= -MelSpectrogram::TOP_DB, "min {min}");
        }
    }

    #[test]
    fn feature_vector_flattens_frame_major() {
        let mel = MelSpectrogram::from_frames(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mel.to_feature_vector(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mel.band_means(), vec![2.0, 3.0]);
        assert_eq!(mel.frame(0), &[1.0, 2.0]);
        assert_eq!(mel.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn band_means_of_empty() {
        let mel = MelSpectrogram::from_frames(vec![]);
        assert!(mel.band_means().is_empty());
        assert_eq!(mel.n_mels(), 0);
        assert_eq!(mel.frames().count(), 0);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn f_max_beyond_nyquist_panics() {
        let _ = MelFilterbank::new(8, 256, 22_050.0, 0.0, 20_000.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]

            /// Sparse application agrees with the dense matrix-vector
            /// product for arbitrary frames and filterbank geometries.
            #[test]
            fn sparse_apply_matches_dense(
                n_mels in 1usize..48,
                n_fft_bits in 7u32..11, // n_fft 128..1024
                frame in proptest::collection::vec(0.0f64..10.0, 513),
                f_lo in 0.0f64..500.0,
            ) {
                let n_fft = 1usize << n_fft_bits;
                let bank = MelFilterbank::new(n_mels, n_fft, 22_050.0, f_lo, 11_025.0);
                let frame = &frame[..n_fft / 2 + 1];
                let sparse = bank.apply(frame);
                for (m, row) in bank.dense_weights().iter().enumerate() {
                    let dense: f64 = row.iter().zip(frame).map(|(w, p)| w * p).sum();
                    prop_assert!(
                        (dense - sparse[m]).abs() <= 1e-9 * (1.0 + dense.abs()),
                        "band {}: dense {} vs sparse {}", m, dense, sparse[m]
                    );
                }
            }
        }
    }
}
