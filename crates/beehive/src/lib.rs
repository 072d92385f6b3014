#![warn(missing_docs)]

//! Application layer: smart beehives, apiaries and queen-detection
//! services.
//!
//! This crate ties the substrates together into the system the paper
//! deploys:
//!
//! * [`service`] — the end-to-end queen-detection pipeline: synthetic hive
//!   audio → log-mel spectrogram → (SVM features | CNN image) → prediction,
//!   with energy accounting on the edge and cloud compute models. The
//!   resolution sweep behind Figure 5 lives here.
//! * [`climate`] — in-hive temperature/humidity and ambient weather models
//!   (the context curves of Figure 2).
//! * [`hive`] — a [`hive::SmartBeehive`]: device profiles + power system +
//!   wake scheduler + sensor suite, steppable over days.
//! * [`deployment`] — the week-long deployment simulation reproducing
//!   Figure 2's activity/brown-out dynamics.
//! * [`apiary`] — populations of hives and the scenario recommender (the
//!   paper's future-work item: "build connected beehives' intelligence to
//!   … choose between a set of scenarios").

pub mod adaptive;
pub mod alert;
pub mod apiary;
pub mod baseline;
pub mod cascade;
pub mod climate;
pub mod deployment;
pub mod hive;
pub mod region;
pub mod service;
pub mod tuner;

pub use adaptive::{run_adaptive, AdaptivePolicy, AdaptiveRunSummary, Decision};
pub use alert::AlertPolicy;
pub use apiary::{Apiary, ScenarioRecommendation};
pub use baseline::PipingDetector;
pub use cascade::CascadePlacement;
pub use climate::{AmbientWeather, HiveClimate};
pub use deployment::{DeploymentConfig, DeploymentRecord, DeploymentSummary};
pub use hive::SmartBeehive;
pub use region::{loss_statistics, CorrelatedLoss, LossStats, RegionalWeather};
pub use service::{PipelineConfig, QueenDetectionPipeline, ResolutionPoint};
pub use tuner::{FrequencyTuner, PeriodAssessment, ServiceRequirement, Verdict};
