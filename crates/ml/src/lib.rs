#![warn(missing_docs)]

//! From-scratch ML substrate for the precision-beekeeping reproduction.
//!
//! The paper's queen-detection service compares a **classical ML** model
//! (RBF-kernel SVM, C = 20, γ = 10⁻⁵) against a **deep** model (ResNet18 on
//! spectrogram images). This crate implements both families without
//! external ML dependencies:
//!
//! * [`tensor`] — dense feature maps and the small linear algebra the
//!   networks need,
//! * [`dataset`] — labelled datasets, seeded splits, standardization,
//! * [`metrics`] — accuracy, confusion matrices, precision/recall,
//! * [`svm`] — binary RBF-SVM trained with SMO,
//! * [`nn`] — convolutional layers with full backpropagation and a
//!   residual CNN ("ResNet-lite": the same block structure as ResNet18
//!   with depth/width scaled to the synthetic task).

pub mod dataset;
pub mod init;
pub mod metrics;
pub mod nn;
pub mod quant;
pub mod svm;
pub mod tensor;

pub use dataset::{Dataset, Split};
pub use metrics::{accuracy, confusion_matrix, ConfusionMatrix};
pub use nn::resnet::{ResNetConfig, ResNetLite};
pub use nn::train::{TrainConfig, TrainReport};
pub use quant::{
    quantize_resnet, quantize_tensor, ModelQuantReport, QuantParams, QuantScratch, QuantizedConv2d,
    QuantizedDense, QuantizedResNetLite,
};
pub use svm::{RbfSvm, SvmConfig};
pub use tensor::FeatureMap;
