//! Bitwise pins on the DSP front end.
//!
//! The FFT kernel and the STFT → mel loop are free to change layout,
//! loop order and vector width, but never the IEEE operations each output
//! sees. These digests pin that contract end to end: FNV-1a over the
//! `to_bits` of every power-spectrogram cell, every log-mel cell and every
//! pixel of the 100 px CNN input, for three seeded 10 s clips, plus the
//! compact (n_fft 1024, 32 bands) pipeline on one clip. A tolerance check
//! would let a reassociated sum through; these do not.
//!
//! The clips themselves are pinned too: `BeeAudioSynth::generate` splits
//! its loop into a serial recurrence and a per-sample pass fanned over
//! the pool, and must still give every sample the same IEEE operations
//! as the single serial loop it replaced, and leave the caller's RNG in
//! the same state, at any thread cap.

use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use precision_beekeeping::signal::mel::MelSpectrogram;
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::signal::stft::{SpectrogramParams, Stft};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::pool::with_thread_cap;
use std::sync::Once;

/// Gives this test binary a real multi-lane pool even on a single-core
/// host: pin `RAYON_NUM_THREADS=4` (unless the caller chose a value)
/// before the pool's first lazy initialization.
fn init_pool() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

fn clip(state: ColonyState, seed: u64) -> Vec<f64> {
    BeeAudioSynth::default().generate(state, 10.0, &mut StdRng::seed_from_u64(seed))
}

/// (state, seed, power digest, log-mel digest, 100 px image digest).
const PINS: [(ColonyState, u64, u64, u64, u64); 3] = [
    (
        ColonyState::Queenright,
        1,
        0x9f07_43b2_f64b_f9d0,
        0xf0a1_af08_075a_8efd,
        0x8840_63a2_1625_4b52,
    ),
    (
        ColonyState::Queenless,
        2,
        0x7b39_cfac_0c1a_e8c1,
        0xe9ca_6452_25ea_0381,
        0x92e1_0a2e_e439_b58c,
    ),
    (
        ColonyState::Queenright,
        0xBEE,
        0xb188_5814_9fe2_0383,
        0x388c_ca69_74ff_00f4,
        0x5b5e_af51_31c3_7a0f,
    ),
];

#[test]
fn paper_pipeline_is_bit_identical_on_seeded_clips() {
    let stft = Stft::new(SpectrogramParams::default());
    let pipeline = MelPipeline::paper_default();
    for (state, seed, power_pin, mel_pin, image_pin) in PINS {
        let x = clip(state, seed);
        let power = stft.power_spectrogram(&x);
        assert_eq!((power.n_frames(), power.n_bins()), (427, 1025));
        let mel = MelSpectrogram::paper_default(&x);
        assert_eq!(mel, pipeline.mel(&x));
        let got = (
            fnv1a(power.data().iter().copied()),
            fnv1a(mel.data().iter().copied()),
            fnv1a(pipeline.image(&x, 100).pixels().iter().copied()),
        );
        assert_eq!(got, (power_pin, mel_pin, image_pin), "{state:?} seed {seed}: {got:#x?}");
    }
}

#[test]
fn compact_pipeline_is_bit_identical_on_a_seeded_clip() {
    let x = clip(ColonyState::Queenless, 7);
    let p = MelPipeline::compact();
    let got = (
        fnv1a(p.stft().power_spectrogram(&x).data().iter().copied()),
        fnv1a(p.mel(&x).data().iter().copied()),
        fnv1a(p.mfcc(&x, 13).coeff_means()),
        fnv1a(p.image(&x, 24).pixels().iter().copied()),
    );
    assert_eq!(
        got,
        (
            0x2ed9_a5f7_6be8_af59,
            0xfc55_dc17_88f4_57f8,
            0x2067_81a4_aeb6_188c,
            0xc587_fb84_b789_1fa8
        ),
        "{got:#x?}"
    );
}

/// FNV-1a of the raw samples of each `PINS` clip, in `PINS` order, and
/// the caller's next `next_u64()` after the call.
const SAMPLE_PINS: [(u64, u64); 3] = [
    (0x0f02_24ca_a2f0_cf38, 0xf8be_f319_448a_a3ab),
    (0xe520_c330_0ed7_363f, 0x93e4_629f_182d_7486),
    (0x62ce_47e1_6156_2055, 0x065f_5b98_df68_983c),
];

/// (state, sample digest) of the 0.25 s clip a default `features`
/// request synthesizes (seed 1), and the RNG's next draw after it.
const FEATURE_CLIP_PINS: [(ColonyState, u64); 2] = [
    (ColonyState::Queenright, 0xa4a4_1e54_5b8e_8f4d),
    (ColonyState::Queenless, 0x20b2_b63e_4a93_3cda),
];
const FEATURE_CLIP_NEXT_DRAW: u64 = 0x460e_a550_15fc_7a4d;

/// The clip, its sample digest and the caller's next draw after it.
fn synthesized(state: ColonyState, duration_s: f64, seed: u64) -> (usize, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = BeeAudioSynth::default().generate(state, duration_s, &mut rng);
    (x.len(), fnv1a(x.iter().copied()), rng.next_u64())
}

#[test]
fn synthesized_clips_are_bit_identical_at_any_thread_cap() {
    init_pool();
    for cap in [1, 2, rayon::pool::current_num_threads()] {
        with_thread_cap(cap, || {
            for ((state, seed, ..), (digest, next)) in PINS.into_iter().zip(SAMPLE_PINS) {
                let got = synthesized(state, 10.0, seed);
                assert_eq!(
                    got,
                    (220_500, digest, next),
                    "{state:?} seed {seed} cap {cap}: {got:#x?}"
                );
            }
            for (state, digest) in FEATURE_CLIP_PINS {
                let got = synthesized(state, 0.25, 1);
                assert_eq!(
                    got,
                    (5_513, digest, FEATURE_CLIP_NEXT_DRAW),
                    "{state:?} 0.25 s cap {cap}: {got:#x?}"
                );
            }
        });
    }
}
