#![warn(missing_docs)]

//! Edge/cloud service-orchestration simulator — the paper's contribution.
//!
//! Section VI of the paper introduces a client/server energy-simulation
//! model with three components:
//!
//! * a **client** (one smart beehive): sleep power, a series of active
//!   actions with durations and powers, and a wake-up period;
//! * a **server** (one cloud machine): idle power, per-slot receive and
//!   process costs, and a maximum number of clients allowed in parallel per
//!   *time slot* — synchronized windows in which a group of clients
//!   transmits simultaneously;
//! * an **allocator** that assigns clients to servers and slots (the paper
//!   implements one fill-first policy; this crate adds a balanced policy as
//!   an ablation).
//!
//! On top of the model sit the **scenarios** (edge vs. edge+cloud), the
//! three **loss models** of Section VI-C, and the parameter **sweeps** that
//! regenerate Figures 6–9. The [`engine`] layer unifies the three cycle
//! backends (closed form, event timeline, discrete-event) behind one
//! [`CycleEngine`] trait with shared seed derivation and allocation
//! memoization.
//!
//! # Example
//!
//! ```
//! use pb_orchestra::prelude::*;
//!
//! // The paper's setting: CNN service, 5-minute cycles, 10 clients/slot.
//! let spec = ScenarioSpec::paper(ServiceKind::Cnn, 10, LossModel::NONE);
//! let report = Backend::ClosedForm.evaluate(&spec, 200, &SimContext::new(1));
//! assert_eq!(report.n_servers, 2); // 200 clients need two 180-client servers
//! assert!((report.edge_energy_per_client.value() - 322.0).abs() < 1.0);
//! ```

pub mod allocator;
pub mod client;
pub mod columns;
pub mod des;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod loss;
pub mod montecarlo;
pub mod planner;
pub mod plot;
pub mod report;
pub mod scenario;
pub mod sensitivity;
pub mod server;
pub mod simulation;
pub mod sweep;
pub mod timeline;

pub use allocator::{Allocation, FillPolicy, ServerAllocation};
pub use client::{Action, ClientModel};
pub use columns::{ClassView, FleetColumns};
pub use des::{
    simulate_async_cycle, simulate_async_cycle_memoized, simulate_async_cycle_with,
    AsyncCycleReport, DesFaults, DesRun, DesRunReport, DesTrace, ShapeMemo,
};
pub use engine::{AllocationCache, Backend, CycleDraw, CycleEngine, ScenarioSpec, SimContext};
pub use faults::{Brownout, ClientClass, FaultPlan, FaultStats, OutageWindow, RetryPolicy};
pub use fleet::{simulate_fleet, simulate_fleet_with, FleetGroup, FleetReport};
pub use loss::{ClientLoss, LossModel, PenaltyMode, SaturationPenalty, TransferPenalty};
pub use montecarlo::{
    replicate_point, replicate_point_with, replicate_range, replicate_range_with, CiPoint,
};
pub use planner::{plan_slot_capacity, CapacityPlan, CapacityPoint};
pub use plot::AsciiChart;
pub use scenario::{presets, Scenario};
pub use sensitivity::{sensitivity_sweep, Parameter, ScenarioParameters, SensitivityRow};
pub use server::ServerModel;
pub use simulation::CycleReport;
pub use sweep::{
    validate_client_count, ComparisonPoint, CrossoverReport, SweepConfig, MAX_SWEEP_CLIENTS,
};

// Re-exported so downstream callers name one crate for scenario math.
pub use pb_device::routine::ServiceKind;

// Re-exported so consumers of the engine layer get the matching
// observability types without naming a second crate.
pub use pb_telemetry as telemetry;
pub use pb_telemetry::{Telemetry, TelemetrySnapshot};

/// Convenience prelude for examples and benches.
pub mod prelude {
    pub use crate::allocator::FillPolicy;
    pub use crate::client::{Action, ClientModel};
    pub use crate::engine::{AllocationCache, Backend, CycleEngine, ScenarioSpec, SimContext};
    pub use crate::faults::{FaultPlan, FaultStats, OutageWindow, RetryPolicy};
    pub use crate::loss::LossModel;
    pub use crate::scenario::{presets, Scenario};
    pub use crate::server::ServerModel;
    pub use crate::simulation::CycleReport;
    pub use crate::sweep::SweepConfig;
    pub use crate::ServiceKind;
    pub use pb_telemetry::{Telemetry, TelemetrySnapshot};

    /// A deterministic RNG for examples and tests.
    pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
