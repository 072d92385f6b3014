//! Int8 engine accuracy pin: on the synthetic queen-detection corpus the
//! quantized network must track the f32 oracle within one accuracy point,
//! and the batched path must agree with the single-clip path exactly.
//!
//! CI runs this in release alongside the dsp bench smoke — the pin is on
//! the same engine the `cnn_forward_100px_int8` perf row measures.

use precision_beekeeping::beehive::service::{PipelineConfig, QueenDetectionPipeline};
use precision_beekeeping::ml::{FeatureMap, QuantScratch, QuantizedResNetLite};

fn argmax(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[test]
fn int8_accuracy_tracks_f32_within_one_point() {
    let pipeline = QueenDetectionPipeline::new(PipelineConfig::small(48, 1.0, 7));
    let (cnn, train_acc) = pipeline.train_cnn(32);
    assert!(train_acc >= 0.85, "f32 training failed to converge: {train_acc}");

    let data = pipeline.image_dataset(32);
    let inputs: Vec<FeatureMap> = data.iter().map(|(x, _)| x.clone()).collect();
    let labels: Vec<usize> = data.iter().map(|&(_, y)| y).collect();

    // One-shot calibration over the corpus the model serves.
    let quantized = QuantizedResNetLite::quantize(&cnn, &inputs);
    let mut scratch = QuantScratch::default();
    let batch_logits = quantized.forward_batch(&inputs, &mut scratch);

    let n = labels.len() as f64;
    let acc_f32 =
        inputs.iter().zip(&labels).filter(|(x, &y)| cnn.predict(x) == y).count() as f64 / n;
    let acc_int8 =
        batch_logits.iter().zip(&labels).filter(|(logits, &y)| argmax(logits) == y).count() as f64
            / n;

    // The acceptance pin: quantization costs at most one accuracy point.
    assert!(
        (acc_f32 - acc_int8).abs() <= 0.01 + 1e-12,
        "accuracy drifted: f32 {acc_f32} vs int8 {acc_int8}"
    );

    // The batched fan-out and the single-clip path are the same engine.
    for (x, logits) in inputs.iter().zip(&batch_logits) {
        assert_eq!(&quantized.forward(x, &mut scratch), logits);
    }
}

/// FNV-1a over the bit patterns of every logit, in order.
fn logits_digest<'a>(logits: impl IntoIterator<Item = &'a Vec<f64>>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in logits.into_iter().flatten() {
        digest = (digest ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

/// Seeded 10 s clips → paper-default mel images at 100 px.
fn seeded_images(seed: u64, n: usize) -> Vec<FeatureMap> {
    use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
    use precision_beekeeping::signal::pipeline::MelPipeline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let synth = BeeAudioSynth::default();
    let pipeline = MelPipeline::paper_default();
    (0..n as u64)
        .map(|i| {
            let state = if i % 2 == 0 { ColonyState::Queenright } else { ColonyState::Queenless };
            let clip = synth.generate(state, 10.0, &mut StdRng::seed_from_u64(seed + i));
            let img = pipeline.image(&clip, 100);
            FeatureMap::from_image(img.width(), img.height(), img.pixels())
        })
        .collect()
}

/// FNV-1a digest of the nine pinned clips' logits.
const PINNED_LOGITS_DIGEST: u64 = 0x8c29_ef0e_0c76_5652;

/// The int8 engine's logits are pinned bit for bit: integer sums do not
/// depend on the order the kernel takes them in, so any kernel or layout
/// change must reproduce these digests exactly.
#[test]
fn int8_logits_are_pinned_on_seeded_clips() {
    use precision_beekeeping::ml::{ResNetConfig, ResNetLite};

    let net = ResNetLite::new(ResNetConfig::default());
    let quantized = QuantizedResNetLite::quantize(&net, &seeded_images(0xCA11B, 3));
    let clips = seeded_images(0x9_1AB5, 9);
    let mut scratch = QuantScratch::default();
    let single: Vec<Vec<f64>> = clips.iter().map(|x| quantized.forward(x, &mut scratch)).collect();
    let batch = quantized.forward_batch(&clips, &mut scratch);
    assert_eq!(logits_digest(&single), PINNED_LOGITS_DIGEST, "forward logits digest");
    assert_eq!(logits_digest(&batch), PINNED_LOGITS_DIGEST, "forward_batch logits digest");
}
