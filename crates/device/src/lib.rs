#![warn(missing_docs)]

//! Hardware models calibrated to the paper's measurements.
//!
//! The deployed system pairs an always-on Raspberry Pi Zero WH (energy
//! logger + wake-up source) with a duty-cycled Raspberry Pi 3b+ (sensor
//! node) and, in the edge+cloud scenario, an i7-8700K/RTX2070 server. Every
//! per-task duration and power in this crate comes straight from Tables I
//! and II and Section IV of the paper; see `constants` for the full list.
//!
//! * [`constants`] — every calibrated number with its provenance,
//! * [`profile`] — edge-device and cloud-server power profiles,
//! * [`compute`] — MAC-count → (duration, energy) execution models,
//! * [`routine`] — the data-collection routine builder and the wake-up
//!   frequency analysis behind Figure 3,
//! * [`wake`] — the GPIO wake-up scheduler of the Pi Zero.

pub mod catalog;
pub mod compute;
pub mod constants;
pub mod profile;
pub mod routine;
pub mod wake;

pub use catalog::{rank_hardware, HardwareOption};
pub use compute::{ComputeModel, Execution};
pub use pb_energy::gaussian;
pub use profile::{CloudServerProfile, EdgeDeviceProfile};
pub use routine::{CyclePlan, RoutineBuilder, Task};
pub use wake::WakeScheduler;
