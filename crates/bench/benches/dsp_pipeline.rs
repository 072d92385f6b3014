//! The clip→prediction hot path: feature extraction plus CNN inference on
//! the paper-default 10 s / 22 050 Hz clip.
//!
//! Besides the criterion group (which the CI smoke run exercises), the
//! binary times the same stages itself and writes `BENCH_dsp.json` at the
//! repository root — a machine-readable perf baseline for future PRs.
//! "Cold" includes planning (FFT twiddles, window, filterbank); "warm"
//! reuses the plans, which is the steady per-cycle cost the energy model
//! prices. Rows are in milliseconds except `fft_2048_real`, one
//! 2048-sample real transform in microseconds (the STFT runs 427 of them
//! per clip). The `synth_clip_*` rows time clip synthesis, the first
//! stage of the daemon's `features` op (cold is the first call, which
//! may start the pool). The file records the host it was taken on.

use criterion::{black_box, Criterion};
use pb_ml::nn::resnet::{ResNetConfig, ResNetLite};
use pb_ml::quant::{QuantScratch, QuantizedResNetLite};
use pb_ml::tensor::FeatureMap;
use pb_signal::audio::{BeeAudioSynth, ColonyState};
use pb_signal::fft::Fft;
use pb_signal::pipeline::MelPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// CNN input side used by the end-to-end path (the paper's Figure 5 anchor
/// resolution, whose 100×100 inference is pinned to 94.8 J).
const CNN_SIDE: usize = 100;

fn paper_clip() -> Vec<f64> {
    let synth = BeeAudioSynth::default();
    synth.generate(ColonyState::Queenright, 10.0, &mut StdRng::seed_from_u64(2))
}

/// Eight paper-length clips with alternating colony state — the pending
/// backlog a batched inference pass drains in one call.
fn batch_clips() -> Vec<Vec<f64>> {
    let synth = BeeAudioSynth::default();
    let mut rng = StdRng::seed_from_u64(7);
    (0..8)
        .map(|i| {
            let state = if i % 2 == 0 { ColonyState::Queenright } else { ColonyState::Queenless };
            synth.generate(state, 10.0, &mut rng)
        })
        .collect()
}

fn to_feature_map(img: &pb_signal::image::Image) -> FeatureMap {
    FeatureMap::from_image(img.width(), img.height(), img.pixels())
}

/// Times `f` `reps` times; returns the minimum in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        min = min.min(t.elapsed().as_secs_f64() * 1e3);
    }
    min
}

struct Row {
    name: &'static str,
    /// Key suffix of the two figures: `ms`, or `us` for the FFT row.
    unit: &'static str,
    cold: f64,
    warm: f64,
}

impl Row {
    fn ms(name: &'static str, cold_ms: f64, warm_ms: f64) -> Self {
        Row { name, unit: "ms", cold: cold_ms, warm: warm_ms }
    }
}

/// One 2048-sample real transform in microseconds: cold plans and
/// transforms once, warm is the fastest mean over batches of reused-plan
/// transforms.
fn fft_row(clip: &[f64]) -> Row {
    let frame = &clip[..pb_signal::N_FFT];
    let bins = pb_signal::N_FFT / 2 + 1;
    let (mut re, mut im) = (vec![0.0; bins], vec![0.0; bins]);
    let cold = time_ms(1, || {
        Fft::new(pb_signal::N_FFT).forward_real_split(frame, &mut re, &mut im);
        re[1]
    });
    let plan = Fft::new(pb_signal::N_FFT);
    let batch = 400;
    let warm = time_ms(12, || {
        for _ in 0..batch {
            plan.forward_real_split(black_box(frame), &mut re, &mut im);
        }
        re[1]
    });
    Row { name: "fft_2048_real", unit: "us", cold: cold * 1e3, warm: warm * 1e3 / batch as f64 }
}

/// Synthesis of one `seconds`-long clip (alternating colony state),
/// warm over `reps` calls.
fn synth_row(name: &'static str, seconds: f64, reps: usize) -> Row {
    let synth = BeeAudioSynth::default();
    let mut rng = StdRng::seed_from_u64(11);
    let mut calls = 0;
    let mut once = || {
        calls += 1;
        synth.generate(ColonyState::from_label(calls % 2), seconds, &mut rng).len()
    };
    let cold = time_ms(1, &mut once);
    Row::ms(name, cold, time_ms(reps, once))
}

fn measure_rows() -> Vec<Row> {
    let synth_10s = synth_row("synth_clip_10s", 10.0, 12);
    let synth_0_25s = synth_row("synth_clip_0_25s", 0.25, 400);
    let clip = paper_clip();
    let pipeline = MelPipeline::paper_default();
    let net = ResNetLite::new(ResNetConfig::default());
    let cnn_input = to_feature_map(&pipeline.image(&clip, CNN_SIDE));
    let reps = 12;

    // Cold: plan + transform from scratch (one measurement each).
    let clip_to_mel_cold = time_ms(1, || MelPipeline::paper_default().mel(&clip).n_frames());
    let clip_to_mfcc_cold = time_ms(1, || MelPipeline::paper_default().mfcc(&clip, 13).n_frames());
    let end_to_end_cold = time_ms(1, || {
        let p = MelPipeline::paper_default();
        let input = to_feature_map(&p.image(&clip, CNN_SIDE));
        net.forward(&input)[0]
    });

    // Warm: plans reused; min over reps is the steady-state figure.
    let clip_to_mel = time_ms(reps, || pipeline.mel(&clip).n_frames());
    let clip_to_mfcc = time_ms(reps, || pipeline.mfcc(&clip, 13).n_frames());
    let cnn = time_ms(reps, || net.forward(&cnn_input)[0]);
    // The retained direct-loop oracle versus the GEMM path, for the conv
    // speedup ratio on an interior-layer-shaped workload.
    let conv_layer = {
        use pb_ml::nn::conv::Conv2d;
        let mut rng = StdRng::seed_from_u64(5);
        Conv2d::new(8, 8, 3, 1, 1, &mut rng)
    };
    let conv_input = FeatureMap::from_vec(8, 50, 50, vec![0.1; 8 * 50 * 50]);
    let conv_direct = time_ms(4, || conv_layer.forward_direct(&conv_input).data()[0]);
    let conv_gemm = time_ms(4, || conv_layer.forward(&conv_input).data()[0]);
    let end_to_end = time_ms(reps, || {
        let input = to_feature_map(&pipeline.image(&clip, CNN_SIDE));
        net.forward(&input)[0]
    });

    // Int8 engine: cold includes the one-shot calibration + weight
    // quantization; warm is the steady forward with a reused scratch.
    let qnet = QuantizedResNetLite::quantize(&net, std::slice::from_ref(&cnn_input));
    let mut scratch = QuantScratch::default();
    let cnn_int8_cold = time_ms(1, || {
        let q = QuantizedResNetLite::quantize(&net, std::slice::from_ref(&cnn_input));
        let mut s = QuantScratch::default();
        q.forward(&cnn_input, &mut s)[0]
    });
    let cnn_int8 = time_ms(reps, || qnet.forward(&cnn_input, &mut scratch)[0]);

    // Batched end-to-end: eight pending clips through the shared pipeline
    // and one `forward_batch` call on the quantized network.
    let clips8 = batch_clips();
    let batch8_cold = time_ms(1, || {
        let p = MelPipeline::paper_default();
        let inputs: Vec<FeatureMap> =
            p.images(&clips8, CNN_SIDE).iter().map(to_feature_map).collect();
        let q = QuantizedResNetLite::quantize(&net, &inputs);
        let mut s = QuantScratch::default();
        q.forward_batch(&inputs, &mut s)[0][0]
    });
    let batch8 = time_ms(reps, || {
        let inputs: Vec<FeatureMap> =
            pipeline.images(&clips8, CNN_SIDE).iter().map(to_feature_map).collect();
        qnet.forward_batch(&inputs, &mut scratch)[0][0]
    });

    vec![
        synth_10s,
        synth_0_25s,
        fft_row(&clip),
        Row::ms("clip_to_mel", clip_to_mel_cold, clip_to_mel),
        Row::ms("clip_to_mfcc13", clip_to_mfcc_cold, clip_to_mfcc),
        Row::ms("cnn_forward_100px", cnn, cnn),
        Row::ms("cnn_forward_100px_int8", cnn_int8_cold, cnn_int8),
        Row::ms("conv3x3_8c_50px_direct", conv_direct, conv_direct),
        Row::ms("conv3x3_8c_50px_gemm", conv_gemm, conv_gemm),
        Row::ms("end_to_end_clip_to_prediction", end_to_end_cold, end_to_end),
        Row::ms("end_to_end_batch8", batch8_cold, batch8),
    ]
}

fn write_json(rows: &[Row]) {
    let mut out = String::from("{\n  \"bench\": \"dsp_pipeline\",\n");
    out.push_str("  \"clip_seconds\": 10.0,\n  \"sample_rate_hz\": 22050,\n");
    out.push_str(&format!("  \"host\": {},\n", pb_bench::host_json()));
    out.push_str("  \"cnn_input_side\": 100,\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cold_{u}\": {:.3}, \"warm_{u}\": {:.3}}}{}\n",
            r.name,
            r.cold,
            r.warm,
            if i + 1 == rows.len() { "" } else { "," },
            u = r.unit,
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dsp.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn criterion_groups() {
    let mut c = Criterion::from_args();
    let clip = paper_clip();
    let pipeline = MelPipeline::paper_default();
    let net = ResNetLite::new(ResNetConfig::default());
    let cnn_input = to_feature_map(&pipeline.image(&clip, CNN_SIDE));

    let mut group = c.benchmark_group("dsp_pipeline");
    let plan = Fft::new(pb_signal::N_FFT);
    let (mut re, mut im) = (vec![0.0; plan.len() / 2 + 1], vec![0.0; plan.len() / 2 + 1]);
    group.bench_function("fft_2048_real", |b| {
        b.iter(|| plan.forward_real_split(black_box(&clip[..plan.len()]), &mut re, &mut im))
    });
    group.bench_function("clip_to_mel", |b| b.iter(|| black_box(pipeline.mel(&clip).n_frames())));
    group.bench_function("clip_to_mfcc13", |b| {
        b.iter(|| black_box(pipeline.mfcc(&clip, 13).n_frames()))
    });
    group.bench_function("cnn_forward_100px", |b| b.iter(|| black_box(net.forward(&cnn_input)[0])));
    let qnet = QuantizedResNetLite::quantize(&net, std::slice::from_ref(&cnn_input));
    let mut scratch = QuantScratch::default();
    group.bench_function("cnn_forward_100px_int8", |b| {
        b.iter(|| black_box(qnet.forward(&cnn_input, &mut scratch)[0]))
    });
    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let input = to_feature_map(&pipeline.image(&clip, CNN_SIDE));
            black_box(net.forward(&input)[0])
        })
    });
    group.finish();
    c.final_summary();
}

fn main() {
    criterion_groups();
    write_json(&measure_rows());
}
