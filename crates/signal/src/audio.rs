//! Synthetic bee-audio generator.
//!
//! The paper trains on 1647 private recordings labelled with queen
//! presence. This module substitutes a parametric synthesizer grounded in
//! the bioacoustics the queen-detection literature reports: a queenright
//! colony hums as a harmonic stack around a low fundamental with occasional
//! queen "piping" tones, while a queenless colony "roars" — its fundamental
//! drifts upward, harmonics flatten and broadband noise rises. The classes
//! therefore differ in *fine spectral structure*, which is exactly what the
//! Figure 5 resolution sweep needs: coarse CNN inputs blur the structure
//! and lose accuracy, high-resolution inputs keep it.
//!
//! Synthesis is the first stage of the daemon's `features` op and, on a
//! 0.25 s clip, nearly all of its time: about six libm sines per sample.
//! [`BeeAudioSynth::generate`] therefore splits the work by what carries
//! state. The drifting fundamental and the sines depend on the sample
//! alone and run in lanes on the pool; only the phase accumulation and
//! the noise draws are a serial recurrence, and the pipe cycle uses an
//! exact `mul_add` reduction instead of a libm `fmod` per sample.
//!
//! **Bit-identity contract.** Every sample goes through the same IEEE
//! operations, on the same operands and in the same order, as the single
//! serial loop it replaced, and the caller's RNG ends in the same state,
//! at any thread count. That loop is kept under `#[cfg(test)]` as
//! `audio::oracle`, the reference of a `to_bits` proptest;
//! `tests/dsp_bit_identity.rs` pins digests of the seeded clips.

use crate::SAMPLE_RATE_HZ;
use rand::Rng;
use std::f64::consts::TAU;

/// Ground-truth colony condition of a clip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColonyState {
    /// Queen present (the positive class).
    Queenright,
    /// Queen absent.
    Queenless,
}

impl ColonyState {
    /// Class index used by the ML layer (queenright = 1).
    pub fn label(self) -> usize {
        match self {
            ColonyState::Queenright => 1,
            ColonyState::Queenless => 0,
        }
    }

    /// Inverse of [`ColonyState::label`].
    pub fn from_label(label: usize) -> Self {
        if label == 1 {
            ColonyState::Queenright
        } else {
            ColonyState::Queenless
        }
    }
}

/// Parametric synthesizer for hive audio.
#[derive(Clone, Debug)]
pub struct BeeAudioSynth {
    /// Output sample rate in hertz.
    pub sample_rate: f64,
    /// Mean colony fundamental for a queenright hive (Hz).
    pub queenright_f0: f64,
    /// Mean colony fundamental for a queenless hive (Hz).
    pub queenless_f0: f64,
    /// Per-clip fundamental jitter (uniform ±, Hz).
    pub f0_jitter: f64,
    /// Broadband noise amplitude for a queenright hive.
    pub queenright_noise: f64,
    /// Broadband noise amplitude for a queenless hive.
    pub queenless_noise: f64,
    /// Number of harmonics in the hum stack.
    pub harmonics: usize,
}

impl Default for BeeAudioSynth {
    /// Equal noise floors for both classes: the separating cues are the
    /// *fine* spectral ones (fundamental position, harmonic decay profile,
    /// the queen-piping band), so classification accuracy degrades when
    /// the spectrogram image is downsampled — the Figure 5 effect.
    fn default() -> Self {
        BeeAudioSynth {
            sample_rate: SAMPLE_RATE_HZ,
            queenright_f0: 230.0,
            queenless_f0: 280.0,
            f0_jitter: 20.0,
            queenright_noise: 0.10,
            queenless_noise: 0.10,
            harmonics: 5,
        }
    }
}

/// Samples per block. Scratch is one fundamental per sample of a block,
/// so it stays at `BLOCK` values whatever the clip length.
const BLOCK: usize = 8192;
/// Fewest samples a lane is worth: a hand-off to the pool costs about
/// as much as the sines of a few hundred samples.
const MIN_LANE: usize = 512;
/// Most lanes per block.
const MAX_LANES: usize = 8;
/// Length of one queen-piping burst (seconds).
const PIPE_LEN: f64 = 0.35;

/// The per-clip parameters of one synthesis, drawn once: everything but
/// the per-sample noise.
struct Voice {
    amps: Vec<f64>,
    dt: f64,
    f0: f64,
    noise_amp: f64,
    drift_rate: f64,
    drift_depth: f64,
    drift_phase: f64,
    piping: bool,
    pipe_period: f64,
    /// Pipe phase advance per piping sample.
    pipe_step: f64,
}

impl Voice {
    /// Instantaneous fundamental of each sample of `block`, which starts
    /// at sample `start`. Depends on the sample's time only.
    fn inst_f0_into(&self, start: usize, block: &mut [f64]) {
        for (j, f) in block.iter_mut().enumerate() {
            let t = (start + j) as f64 * self.dt;
            *f = self.f0 + self.drift_depth * (TAU * self.drift_rate * t + self.drift_phase).sin();
        }
    }

    /// Advances `carry` (the harmonic phases, then the pipe phase) over
    /// sample `i` with fundamental `inst_f0`; returns the sample's time
    /// within the pipe cycle (`∞` for a colony that does not pipe).
    #[inline(always)]
    fn step(&self, carry: &mut [f64], i: usize, inst_f0: f64) -> f64 {
        let (phase, pipe_phase) = carry.split_at_mut(self.amps.len());
        for (h, ph) in phase.iter_mut().enumerate() {
            *ph += TAU * inst_f0 * (h + 1) as f64 * self.dt;
        }
        if !self.piping {
            return f64::INFINITY;
        }
        let cycle_t = rem_exact(i as f64 * self.dt, self.pipe_period);
        if cycle_t < PIPE_LEN {
            pipe_phase[0] += self.pipe_step;
        }
        cycle_t
    }

    /// The serial recurrence over one block starting at sample `start`:
    /// advances `carry` to the block's end, draws each sample's noise
    /// term into `out`, and returns `carry` as it stood at the start of
    /// each `lane`-sample lane, one after the other.
    fn advance<R: Rng + ?Sized>(
        &self,
        carry: &mut [f64],
        start: usize,
        inst_f0: &[f64],
        lane: usize,
        out: &mut [f64],
        rng: &mut R,
    ) -> Vec<f64> {
        let mut starts = Vec::with_capacity(MAX_LANES * carry.len());
        let mut i = start;
        for (f_lane, o_lane) in inst_f0.chunks(lane).zip(out.chunks_mut(lane)) {
            starts.extend_from_slice(carry);
            for (&f, o) in f_lane.iter().zip(o_lane) {
                self.step(carry, i, f);
                *o = self.noise_amp * (rng.gen::<f64>() * 2.0 - 1.0);
                i += 1;
            }
        }
        starts
    }

    /// The per-sample pass over one lane starting at sample `start`:
    /// replays the recurrence from the lane's recorded `carry`, then sums
    /// each sample's harmonic, noise (already in `out`) and pipe terms
    /// in the order the single loop added them.
    fn mix(&self, mut carry: Vec<f64>, start: usize, inst_f0: &[f64], out: &mut [f64]) {
        let h_n = self.amps.len();
        for (j, (&f, o)) in inst_f0.iter().zip(out).enumerate() {
            let cycle_t = self.step(&mut carry, start + j, f);
            let mut sample = 0.0;
            for (ph, amp) in carry[..h_n].iter().zip(&self.amps) {
                sample += amp * ph.sin();
            }
            sample += *o;
            if cycle_t < PIPE_LEN {
                let env = (std::f64::consts::PI * cycle_t / PIPE_LEN).sin();
                sample += 0.4 * env * carry[h_n].sin();
            }
            *o = sample * 0.25;
        }
    }
}

/// `t % p` for finite `t ≥ 0` and `p > 0`, without a libm `fmod` call.
///
/// `fmod` is exact: its result `t − k·p`, `k = ⌊t/p⌋`, is representable.
/// A fused multiply-add computes `t − q·p` with one rounding, so it
/// returns that value exactly once `q = k`. The quotient `⌊t/p⌋` of the
/// rounded division is off by at most one, which shows as a result
/// outside `[0, p)` and is fixed by one step of `q`. That bound needs
/// `t / p < 2^52`; a clip would have to last 200 million years to reach
/// it.
fn rem_exact(t: f64, p: f64) -> f64 {
    let q = (t / p).floor();
    let r = (-q).mul_add(p, t);
    if r < 0.0 {
        (-(q - 1.0)).mul_add(p, t)
    } else if r >= p {
        (-(q + 1.0)).mul_add(p, t)
    } else {
        r
    }
}

/// Lane length for a block of `len` samples: a function of the length
/// only, never of the thread count.
fn lane_len(len: usize) -> usize {
    len.div_ceil((len / MIN_LANE).clamp(1, MAX_LANES))
}

/// Runs `f(lane index, lane)` over `data` cut into lanes of `lane`
/// samples, fanned over the pool (inline when called from a pool
/// worker).
fn for_lanes(data: &mut [f64], lane: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    let f = &f;
    rayon::scope(|s| {
        for (l, chunk) in data.chunks_mut(lane).enumerate() {
            s.spawn(move |_| f(l, chunk));
        }
    });
}

impl BeeAudioSynth {
    /// Synthesizes `duration_s` seconds of hive audio for a colony in
    /// `state`, using `rng` for all stochastic components.
    ///
    /// Each block of 8 192 samples runs three passes. The lanes of
    /// the block compute the drifting fundamental; the caller runs the
    /// serial recurrence (harmonic and pipe phases, and the noise draws
    /// on `rng`), noting its state at each lane start; the lanes then
    /// replay the recurrence from there and add up the sines. Lanes are
    /// fixed by the clip length and fanned over the pool. Every sample
    /// gets the same IEEE operations, in the same order, as the single
    /// loop kept as `audio::oracle` in the tests, and `rng` ends in the
    /// same state.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        state: ColonyState,
        duration_s: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(duration_s > 0.0, "duration must be positive");
        let n = (duration_s * self.sample_rate).round() as usize;
        let (f0_mean, noise_amp) = match state {
            ColonyState::Queenright => (self.queenright_f0, self.queenright_noise),
            ColonyState::Queenless => (self.queenless_f0, self.queenless_noise),
        };
        let f0 = f0_mean + rng.gen_range(-self.f0_jitter..=self.f0_jitter);

        // Harmonic amplitude profile: queenright hums have a dominant
        // fundamental with steeply decaying harmonics; queenless roars
        // spread energy flatter across the stack.
        let decay: f64 = match state {
            ColonyState::Queenright => 0.45,
            ColonyState::Queenless => 0.8,
        };
        // Normalize the stack to unit power so total hum loudness carries
        // no class information — only the *profile* across harmonics does.
        let amps: Vec<f64> = {
            let raw: Vec<f64> = (0..self.harmonics).map(|h| decay.powi(h as i32)).collect();
            let norm = raw.iter().map(|a| a * a).sum::<f64>().sqrt();
            raw.into_iter().map(|a| a / norm).collect()
        };

        let dt = 1.0 / self.sample_rate;
        // Slow random frequency drift (colony activity level changes).
        let drift_rate = rng.gen_range(0.05..0.2); // Hz of LFO
        let drift_depth = rng.gen_range(1.0..4.0); // Hz of deviation
        let drift_phase = rng.gen_range(0.0..TAU);
        // Queen piping: short 400 Hz tone bursts, queenright only.
        let pipe_freq = rng.gen_range(380.0..420.0);
        let pipe_period = rng.gen_range(1.5..3.0); // seconds between pipes
        let voice = Voice {
            amps,
            dt,
            f0,
            noise_amp,
            drift_rate,
            drift_depth,
            drift_phase,
            piping: matches!(state, ColonyState::Queenright),
            pipe_period,
            pipe_step: TAU * pipe_freq * dt,
        };

        let width = self.harmonics + 1;
        let mut carry = vec![0.0f64; width];
        let mut inst_f0 = vec![0.0f64; n.min(BLOCK)];
        let mut out = vec![0.0f64; n];
        for (b, block) in out.chunks_mut(BLOCK).enumerate() {
            let (start, lane) = (b * BLOCK, lane_len(block.len()));
            let inst_f0 = &mut inst_f0[..block.len()];
            for_lanes(inst_f0, lane, |l, f| voice.inst_f0_into(start + l * lane, f));
            let starts = voice.advance(&mut carry, start, inst_f0, lane, block, rng);
            let inst_f0 = &*inst_f0;
            for_lanes(block, lane, |l, o| {
                let carry = starts[l * width..(l + 1) * width].to_vec();
                voice.mix(carry, start + l * lane, &inst_f0[l * lane..l * lane + o.len()], o)
            });
        }
        out
    }

    /// Synthesizes the paper's standard clip: 10 seconds at 22 050 Hz.
    pub fn generate_standard<R: Rng + ?Sized>(&self, state: ColonyState, rng: &mut R) -> Vec<f64> {
        self.generate(state, 10.0, rng)
    }
}

/// The single serial loop `generate` replaced, kept verbatim as the
/// bitwise oracle: per sample, the drift sine, the phase updates and
/// harmonic sines, one noise draw and a libm `fmod` for the pipe cycle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{BeeAudioSynth, ColonyState};
    use rand::Rng;
    use std::f64::consts::TAU;

    pub(crate) fn generate<R: Rng + ?Sized>(
        synth: &BeeAudioSynth,
        state: ColonyState,
        duration_s: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(duration_s > 0.0, "duration must be positive");
        let n = (duration_s * synth.sample_rate).round() as usize;
        let (f0_mean, noise_amp) = match state {
            ColonyState::Queenright => (synth.queenright_f0, synth.queenright_noise),
            ColonyState::Queenless => (synth.queenless_f0, synth.queenless_noise),
        };
        let f0 = f0_mean + rng.gen_range(-synth.f0_jitter..=synth.f0_jitter);

        // Harmonic amplitude profile: queenright hums have a dominant
        // fundamental with steeply decaying harmonics; queenless roars
        // spread energy flatter across the stack.
        let decay: f64 = match state {
            ColonyState::Queenright => 0.45,
            ColonyState::Queenless => 0.8,
        };
        // Normalize the stack to unit power so total hum loudness carries
        // no class information — only the *profile* across harmonics does.
        let amps: Vec<f64> = {
            let raw: Vec<f64> = (0..synth.harmonics).map(|h| decay.powi(h as i32)).collect();
            let norm = raw.iter().map(|a| a * a).sum::<f64>().sqrt();
            raw.into_iter().map(|a| a / norm).collect()
        };

        // Slow random frequency drift (colony activity level changes).
        let drift_rate = rng.gen_range(0.05..0.2); // Hz of LFO
        let drift_depth = rng.gen_range(1.0..4.0); // Hz of deviation
        let drift_phase = rng.gen_range(0.0..TAU);

        // Queen piping: short 400 Hz tone bursts, queenright only.
        let piping = matches!(state, ColonyState::Queenright);
        let pipe_freq = rng.gen_range(380.0..420.0);
        let pipe_period = rng.gen_range(1.5..3.0); // seconds between pipes
        let pipe_len = 0.35; // seconds

        let mut phase = vec![0.0f64; synth.harmonics];
        let dt = 1.0 / synth.sample_rate;
        let mut out = Vec::with_capacity(n);
        let mut pipe_phase = 0.0f64;
        for i in 0..n {
            let t = i as f64 * dt;
            let inst_f0 = f0 + drift_depth * (TAU * drift_rate * t + drift_phase).sin();
            let mut sample = 0.0;
            for (h, (ph, amp)) in phase.iter_mut().zip(&amps).enumerate() {
                *ph += TAU * inst_f0 * (h + 1) as f64 * dt;
                sample += amp * ph.sin();
            }
            // Broadband colony noise.
            sample += noise_amp * (rng.gen::<f64>() * 2.0 - 1.0);
            // Piping bursts.
            if piping {
                let cycle_t = t % pipe_period;
                if cycle_t < pipe_len {
                    pipe_phase += TAU * pipe_freq * dt;
                    let env = (std::f64::consts::PI * cycle_t / pipe_len).sin();
                    sample += 0.4 * env * pipe_phase.sin();
                }
            }
            out.push(sample * 0.25);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mel::{MelFilterbank, MelSpectrogram};
    use crate::stft::{SpectrogramParams, Stft};
    use crate::window::WindowKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn label_round_trip() {
        assert_eq!(ColonyState::Queenright.label(), 1);
        assert_eq!(ColonyState::Queenless.label(), 0);
        assert_eq!(ColonyState::from_label(1), ColonyState::Queenright);
        assert_eq!(ColonyState::from_label(0), ColonyState::Queenless);
    }

    #[test]
    fn clip_length_matches_duration() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(1);
        let clip = synth.generate(ColonyState::Queenright, 0.5, &mut rng);
        assert_eq!(clip.len(), (0.5 * SAMPLE_RATE_HZ) as usize);
    }

    #[test]
    fn samples_are_bounded() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(2);
        for state in [ColonyState::Queenright, ColonyState::Queenless] {
            let clip = synth.generate(state, 1.0, &mut rng);
            assert!(clip.iter().all(|s| s.abs() < 2.0));
            // Non-silent.
            let rms = (clip.iter().map(|s| s * s).sum::<f64>() / clip.len() as f64).sqrt();
            assert!(rms > 0.05, "rms {rms}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = BeeAudioSynth::default();
        let a = synth.generate(ColonyState::Queenless, 0.2, &mut StdRng::seed_from_u64(7));
        let b = synth.generate(ColonyState::Queenless, 0.2, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn spectral_peak_near_fundamental() {
        let synth = BeeAudioSynth { f0_jitter: 0.0, ..BeeAudioSynth::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let clip = synth.generate(ColonyState::Queenright, 1.0, &mut rng);
        let stft =
            Stft::new(SpectrogramParams { n_fft: 4096, hop: 2048, window: WindowKind::Hann });
        let spec = stft.power_spectrogram(&clip);
        // Average over frames, find the peak bin.
        let bins = spec.n_bins();
        let mut avg = vec![0.0; bins];
        for f in spec.frames() {
            for (a, &p) in avg.iter_mut().zip(f) {
                *a += p;
            }
        }
        let peak = avg.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_hz = peak as f64 * SAMPLE_RATE_HZ / 4096.0;
        assert!((peak_hz - 230.0).abs() < 20.0, "peak at {peak_hz} Hz");
    }

    #[test]
    fn classes_separate_in_mel_space() {
        // Mean mel profiles of the two classes must differ substantially —
        // the property the whole ML evaluation rests on.
        let synth = BeeAudioSynth::default();
        let stft =
            Stft::new(SpectrogramParams { n_fft: 2048, hop: 1024, window: WindowKind::Hann });
        let bank = MelFilterbank::new(64, 2048, SAMPLE_RATE_HZ, 0.0, SAMPLE_RATE_HZ / 2.0);
        let profile = |state, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let clip = synth.generate(state, 1.0, &mut rng);
            MelSpectrogram::compute(&clip, &stft, &bank).band_means()
        };
        let mut dist_within = 0.0;
        let mut dist_between = 0.0;
        let n = 4;
        for s in 0..n {
            let qr_a = profile(ColonyState::Queenright, s);
            let qr_b = profile(ColonyState::Queenright, s + 100);
            let ql = profile(ColonyState::Queenless, s + 200);
            let d = |a: &[f64], b: &[f64]| -> f64 {
                a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
            };
            dist_within += d(&qr_a, &qr_b);
            dist_between += d(&qr_a, &ql);
        }
        assert!(
            dist_between > 1.5 * dist_within,
            "between-class {dist_between:.2} vs within-class {dist_within:.2}"
        );
    }

    #[test]
    fn exact_remainder_matches_fmod() {
        let bits = |x: f64| x.to_bits();
        for p in [1.5, 1.5 + f64::EPSILON, 2.0, 2.123_456_789, 3.0 - 1e-12, 0.1, 7.0 / 3.0] {
            let mut ts = vec![0.0, f64::MIN_POSITIVE, 1e-300, p, 1e9, 1e14];
            for k in [1.0, 2.0, 3.0, 7.0, 1e3, 123_456.0, 1e9, 2f64.powi(40), 2f64.powi(51) - 1.0] {
                // Exact multiples of the period, one ulp either side, and
                // the rounded product when it is not exact.
                let m = k * p;
                ts.extend([m, m.next_down(), m.next_up()]);
            }
            for i in 0..20_000u32 {
                ts.push(i as f64 / 22_050.0);
            }
            for t in ts {
                assert_eq!(bits(rem_exact(t, p)), bits(t % p), "{t:e} % {p}");
            }
        }
    }

    #[test]
    fn lanes_depend_on_the_block_length_only() {
        assert_eq!(lane_len(1), 1);
        assert_eq!(lane_len(MIN_LANE * 2 - 1), MIN_LANE * 2 - 1);
        assert_eq!(lane_len(MIN_LANE * 2), MIN_LANE);
        assert_eq!(lane_len(BLOCK), BLOCK / MAX_LANES);
        for len in 1..=BLOCK {
            let lane = lane_len(len);
            assert!(len.div_ceil(lane) <= MAX_LANES, "{len}");
            assert!(lane >= MIN_LANE.min(len), "{len}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        /// Clip lengths (samples) at and around every lane and block
        /// boundary, up to a 10 s clip at 22 050 Hz.
        const LENGTHS: [usize; 19] = [
            1,
            2,
            MIN_LANE - 1,
            MIN_LANE,
            MIN_LANE + 1,
            2 * MIN_LANE - 1,
            2 * MIN_LANE,
            2 * MIN_LANE + 1,
            MAX_LANES * MIN_LANE - 1,
            MAX_LANES * MIN_LANE,
            MAX_LANES * MIN_LANE + 1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK - 1,
            2 * BLOCK,
            2 * BLOCK + 1,
            5_513,
            220_500,
        ];

        /// A boundary length, or any length up to three blocks.
        fn length() -> impl Strategy<Value = usize> {
            (0..LENGTHS.len() + 4, 1..=3 * BLOCK)
                .prop_map(|(k, any)| LENGTHS.get(k).copied().unwrap_or(any))
        }

        /// The default synthesizer, or one with other harmonics, no
        /// jitter, another sample rate or other noise floors.
        fn synth() -> impl Strategy<Value = BeeAudioSynth> {
            (0u8..4, 1usize..=9, proptest::bool::ANY, 0u8..4, 0.0f64..0.5).prop_map(
                |(kind, harmonics, no_jitter, rate, noise)| {
                    let base = BeeAudioSynth::default();
                    if kind == 0 {
                        return base;
                    }
                    BeeAudioSynth {
                        sample_rate: [8_000.0, 16_000.0, SAMPLE_RATE_HZ, 44_100.0][rate as usize],
                        harmonics,
                        f0_jitter: if no_jitter { 0.0 } else { base.f0_jitter },
                        queenright_noise: noise,
                        ..base
                    }
                },
            )
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(40))]

            /// Every sample is bit-identical to the retained single loop,
            /// and the caller's RNG ends in the same state, at thread caps
            /// 1, 2 and the whole pool.
            #[test]
            fn generate_is_bit_identical_to_the_oracle(
                synth in synth(),
                queenright in proptest::bool::ANY,
                n in length(),
                seed in 0u64..1 << 40,
            ) {
                let state = if queenright { ColonyState::Queenright } else { ColonyState::Queenless };
                let duration_s = n as f64 / synth.sample_rate;
                let mut rng = StdRng::seed_from_u64(seed);
                let want = oracle::generate(&synth, state, duration_s, &mut rng);
                let want_next = rng.next_u64();
                prop_assert_eq!(want.len(), n);
                for cap in [1, 2, rayon::pool::current_num_threads()] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let got = rayon::pool::with_thread_cap(cap, || {
                        synth.generate(state, duration_s, &mut rng)
                    });
                    prop_assert_eq!(got.len(), n);
                    let first_diff = got.iter().zip(&want).position(|(g, w)| g.to_bits() != w.to_bits());
                    prop_assert!(first_diff.is_none(), "{state:?} n={n} cap={cap}: sample {first_diff:?} differs");
                    prop_assert_eq!(rng.next_u64(), want_next, "RNG state after {state:?} n={n} cap={cap}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(1);
        synth.generate(ColonyState::Queenright, 0.0, &mut rng);
    }
}
