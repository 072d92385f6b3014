//! Streaming STFT for constant-memory edge processing.
//!
//! A 10-second clip at 22 050 Hz is 1.7 MB of f64 — fine on a laptop,
//! noticeable on a 512 MB Pi Zero that also buffers images. The streaming
//! transform accepts audio in arbitrary chunks and emits frames as soon as
//! they are complete, holding only `n_fft` samples of state. Its output is
//! bit-identical to the batch [`crate::stft::Stft`].

use crate::stft::{FrameScratch, SpectrogramParams, Stft};

/// An incremental STFT that processes audio chunk by chunk.
#[derive(Clone, Debug)]
pub struct StreamingStft {
    /// The batch transform's plan and window, applied one frame at a time.
    stft: Stft,
    /// Ring of the last `n_fft` samples awaiting frame completion.
    buffer: Vec<f64>,
    /// Samples currently in the buffer.
    filled: usize,
    /// Reusable frame buffers (no per-frame allocation).
    scratch: FrameScratch,
}

impl StreamingStft {
    /// Creates a streaming transform with the given parameters.
    pub fn new(params: SpectrogramParams) -> Self {
        assert!(params.hop > 0 && params.hop <= params.n_fft, "hop must be in 1..=n_fft");
        StreamingStft {
            stft: Stft::new(params),
            buffer: vec![0.0; params.n_fft],
            filled: 0,
            scratch: FrameScratch::new(params.n_fft),
        }
    }

    /// Number of frames that would be emitted for a signal of `len`
    /// samples (matches the batch transform).
    pub fn frames_for(&self, len: usize) -> usize {
        self.stft.params().frames_for(len)
    }

    /// Feeds a chunk; returns the power frames completed by it.
    pub fn feed(&mut self, chunk: &[f64]) -> Vec<Vec<f64>> {
        let SpectrogramParams { n_fft, hop, .. } = *self.stft.params();
        let mut frames = Vec::new();
        for &sample in chunk {
            if self.filled < n_fft {
                self.buffer[self.filled] = sample;
                self.filled += 1;
            } else {
                // Slide by one: drop the oldest sample. Amortized O(1)
                // via rotation only at hop boundaries would complicate the
                // invariant; the simple shift keeps the window exact and
                // is dominated by the FFT cost at hop ≥ n_fft/4.
                self.buffer.copy_within(1.., 0);
                self.buffer[n_fft - 1] = sample;
                self.filled += 1;
            }
            // A frame completes when (filled − n_fft) is a non-negative
            // multiple of hop.
            if self.filled >= n_fft && (self.filled - n_fft).is_multiple_of(hop) {
                frames.push(self.emit());
            }
        }
        frames
    }

    fn emit(&mut self) -> Vec<f64> {
        self.stft.frame_power(&self.buffer, &mut self.scratch).to_vec()
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> usize {
        self.filled
    }

    /// Resets the transform to its initial state.
    pub fn reset(&mut self) {
        self.buffer.fill(0.0);
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stft::Stft;
    use crate::window::WindowKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> SpectrogramParams {
        SpectrogramParams { n_fft: 256, hop: 128, window: WindowKind::Hann }
    }

    fn random_signal(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matches_batch_transform_exactly() {
        let signal = random_signal(2000, 1);
        let batch = Stft::new(params()).power_spectrogram(&signal);
        let mut stream = StreamingStft::new(params());
        let mut frames = Vec::new();
        // Feed in awkward chunk sizes.
        for chunk in signal.chunks(77) {
            frames.extend(stream.feed(chunk));
        }
        assert_eq!(frames.len(), batch.n_frames());
        for (a, b) in frames.iter().zip(batch.frames()) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn chunk_size_is_irrelevant() {
        let signal = random_signal(1500, 2);
        let collect = |chunk_size: usize| {
            let mut s = StreamingStft::new(params());
            let mut out = Vec::new();
            for c in signal.chunks(chunk_size) {
                out.extend(s.feed(c));
            }
            out
        };
        let a = collect(1);
        let b = collect(512);
        let c = collect(1500);
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x, y);
            assert_eq!(y, z);
        }
    }

    #[test]
    fn frame_count_matches_formula() {
        let mut s = StreamingStft::new(params());
        let signal = random_signal(1000, 3);
        let frames = s.feed(&signal);
        assert_eq!(frames.len(), s.frames_for(1000));
        assert_eq!(s.samples_consumed(), 1000);
    }

    #[test]
    fn short_input_emits_nothing() {
        let mut s = StreamingStft::new(params());
        assert!(s.feed(&random_signal(255, 4)).is_empty());
        // One more sample completes the first frame.
        assert_eq!(s.feed(&[0.5]).len(), 1);
    }

    #[test]
    fn reset_restarts_cleanly() {
        let mut s = StreamingStft::new(params());
        let signal = random_signal(600, 5);
        let first = s.feed(&signal);
        s.reset();
        let second = s.feed(&signal);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "hop must be")]
    fn oversized_hop_panics() {
        let _ = StreamingStft::new(SpectrogramParams {
            n_fft: 256,
            hop: 512,
            window: WindowKind::Hann,
        });
    }
}
