//! Integration tests for the features built beyond the paper: the
//! timeline validator, the frequency tuner, heterogeneous fleets, MFCC
//! and mel features for the SVM, and WAV export.

use precision_beekeeping::beehive::hive::SmartBeehive;
use precision_beekeeping::beehive::tuner::{FrequencyTuner, ServiceRequirement};
use precision_beekeeping::ml::dataset::Dataset;
use precision_beekeeping::ml::metrics::accuracy;
use precision_beekeeping::ml::svm::{RbfSvm, SvmConfig};
use precision_beekeeping::orchestra::fleet::{simulate_fleet, FleetGroup};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::orchestra::timeline::validate_cycle;
use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use precision_beekeeping::signal::corpus::{Corpus, CorpusConfig};
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::signal::wav::WavFile;
use precision_beekeeping::units::{Joules, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The closed-form cycle accounting and the event-level timelines agree
/// under every loss/policy combination used by any figure.
#[test]
fn timeline_validates_every_figure_configuration() {
    let client = presets::edge_cloud_client();
    for (cap, loss, policy) in [
        (10usize, LossModel::NONE, FillPolicy::PackSlots), // Fig 6/7a
        (35, LossModel::NONE, FillPolicy::PackSlots),      // Fig 7b
        (10, LossModel::saturation_only(), FillPolicy::PackSlots), // Fig 8a
        (10, LossModel::transfer_only(), FillPolicy::PackSlots), // Fig 8b
        (35, LossModel::fig9(), FillPolicy::BalanceSlots), // Fig 9
    ] {
        let server = presets::cloud_server(ServiceKind::Cnn, cap);
        for n in [1usize, 100, 630, 1700] {
            let gap = validate_cycle(n, &client, &server, &loss, policy);
            assert!(gap < Joules(1e-6), "cap {cap}, n {n}: gap {gap}");
        }
    }
}

/// The tuner's sustainability matches what the deployment simulator
/// observes: a hive the tuner approves completes every routine.
#[test]
fn tuner_agrees_with_deployment() {
    use precision_beekeeping::beehive::deployment::{simulate, DeploymentConfig};
    let hive = SmartBeehive::deployed("x", Seconds::from_minutes(5.0));
    let tuner = FrequencyTuner::default();
    let assessment = tuner.assess(&hive, Seconds::from_minutes(5.0));
    assert_eq!(assessment.verdict, precision_beekeeping::beehive::tuner::Verdict::Sustainable);
    let (_, summary) = simulate(
        &hive,
        &DeploymentConfig { duration: Seconds::from_days(3.0), ..DeploymentConfig::default() },
    );
    assert_eq!(summary.routines_missed, 0);
    // And the tuner can serve queen detection on this budget.
    assert!(tuner.recommend(&hive, ServiceRequirement::queen_detection()).is_some());
}

/// A heterogeneous fleet where slower groups amortize server pressure.
#[test]
fn fleet_mixed_cadence_energy_ordering() {
    let server = presets::cloud_server(ServiceKind::Cnn, 10);
    let fast_only = [FleetGroup {
        name: "fast".into(),
        client: presets::edge_cloud_client(),
        count: 180,
        phase: 0,
    }];
    let mixed = [
        FleetGroup {
            name: "fast".into(),
            client: presets::edge_cloud_client(),
            count: 90,
            phase: 0,
        },
        FleetGroup {
            name: "slow".into(),
            client: presets::edge_cloud_client_with_period(Seconds(600.0)),
            count: 90,
            phase: 1,
        },
    ];
    let rf = simulate_fleet(&fast_only, &server, &LossModel::NONE, FillPolicy::PackSlots);
    let rm = simulate_fleet(&mixed, &server, &LossModel::NONE, FillPolicy::PackSlots);
    assert_eq!(rf.servers_provisioned, 1);
    assert_eq!(rm.servers_provisioned, 1);
    // The mixed fleet wakes half its hives half as often: cheaper per hive.
    assert!(rm.total_per_hive_per_cycle < rf.total_per_hive_per_cycle);
}

/// Held-out accuracy of an RBF-SVM trained on a seeded 75/25 split.
fn held_out_accuracy(data: &Dataset, config: SvmConfig, seed: u64) -> f64 {
    let split = data.split(0.25, seed);
    let model = RbfSvm::train(&split.train, config);
    accuracy(&model.predict_all(&split.test), split.test.labels())
}

/// MFCC features separate the classes on a held-out split.
#[test]
fn mfcc_svm_cross_validation() {
    let corpus = Corpus::generate(&CorpusConfig::small(40, 1.0, 21));
    let pipeline = MelPipeline::compact();
    let mut data = Dataset::new();
    for clip in corpus.clips() {
        data.push(pipeline.mfcc(&clip.samples, 13).coeff_means(), clip.state.label());
    }
    let acc = held_out_accuracy(&data, SvmConfig { gamma: 0.05, ..SvmConfig::default() }, 3);
    assert!(acc >= 0.85, "MFCC held-out accuracy {acc}");
}

/// The paper's SVM setting (C = 20, γ = 1e-5) classifies mel-band
/// features: on dB-scale features it is competitive.
#[test]
fn grid_search_on_mel_features() {
    let corpus = Corpus::generate(&CorpusConfig::small(32, 1.0, 31));
    let pipeline = MelPipeline::compact();
    let mut data = Dataset::new();
    for clip in corpus.clips() {
        data.push(pipeline.mel(&clip.samples).band_means(), clip.state.label());
    }
    let acc =
        held_out_accuracy(&data, SvmConfig { c: 20.0, gamma: 1e-5, ..SvmConfig::default() }, 7);
    assert!(acc >= 0.9, "mel held-out accuracy {acc}");
}

/// Regression pin for the paper-default feature path: the log-mel output of
/// a fixed seed clip is frozen to the values produced when the hot path
/// (real-input FFT, flat spectrogram, sparse filterbank) landed. Any future
/// kernel change that shifts these numbers by more than 1e-9 dB is a
/// numerical regression, not an optimization.
#[test]
fn paper_default_mel_is_pinned_on_seed_clip() {
    use precision_beekeeping::signal::mel::MelSpectrogram;
    let synth = BeeAudioSynth::default();
    let clip = synth.generate(ColonyState::Queenright, 1.0, &mut StdRng::seed_from_u64(0xBEE));
    let mel = MelSpectrogram::paper_default(&clip);
    assert_eq!((mel.n_frames(), mel.n_mels()), (40, 128));

    let close = |got: f64, want: f64| {
        assert!((got - want).abs() < 1e-9, "pinned value drifted: got {got}, want {want}");
    };
    let close_sum = |got: f64, want: f64| {
        assert!((got - want).abs() < 1e-6, "pinned aggregate drifted: got {got}, want {want}");
    };
    close_sum(mel.data().iter().sum::<f64>(), -196_641.306_753_194);
    close_sum(mel.data().iter().cloned().fold(f64::INFINITY, f64::min), -61.633_332_677);
    assert_eq!(mel.data().iter().cloned().fold(f64::NEG_INFINITY, f64::max), 0.0);
    close(mel.frame(0)[0], -51.627_479_327_461);
    close(mel.frame(0)[64], -40.591_274_598_948);
    close(mel.frame(17)[31], -12.465_165_499_525);
    close(mel.frame(20)[5], -47.909_509_427_536);
    close(mel.frame(39)[127], -34.562_847_186_780);
    let means = mel.band_means();
    close(means[0], -49.184_891_588_245);
    close(means[64], -41.598_071_263_402);
}

/// Synthetic clips survive a WAV export/import round trip and still
/// classify correctly.
#[test]
fn wav_round_trip_preserves_classification_features() {
    let synth = BeeAudioSynth::default();
    let mut rng = StdRng::seed_from_u64(77);
    let clip = synth.generate(ColonyState::Queenright, 1.0, &mut rng);
    let wav = WavFile::mono(22_050, clip.clone());
    let restored = WavFile::from_bytes(&wav.to_bytes()).unwrap().samples;

    let pipeline = MelPipeline::compact();
    let a = pipeline.mel(&clip).band_means();
    let b = pipeline.mel(&restored).band_means();
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 0.5, "mel features drifted: {x} vs {y}");
    }
}
