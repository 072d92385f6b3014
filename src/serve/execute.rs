//! The one executor both front ends run: `pb sweep` and `pb recommend`
//! read their request from argv, the daemon from a frame, and both hand
//! it to an [`Executor`], which makes the engine call and returns the
//! typed result. `pb` prints that result as text; the daemon renders it
//! with the `*_body` functions of [`super::protocol`].

use std::sync::Arc;

use super::protocol::{
    self, FeaturesRequest, MonteCarloRequest, PlanRequest, RecommendRequest, Request, SweepRequest,
};
use crate::beehive::apiary::{Apiary, ScenarioRecommendation};
use crate::orchestra::engine::{AllocationCache, SimContext};
use crate::orchestra::loss::LossModel;
use crate::orchestra::montecarlo::{replicate_point_with, CiPoint};
use crate::orchestra::planner::{plan_slot_capacity_with, CapacityPlan};
use crate::orchestra::prelude::seeded_rng;
use crate::orchestra::presets;
use crate::orchestra::sweep::{ComparisonPoint, SweepConfig};
use crate::orchestra::{FillPolicy, ServiceKind};
use crate::signal::audio::BeeAudioSynth;
use crate::signal::pipeline::MelPipeline;
use crate::telemetry::Telemetry;

/// The engine state requests run against: one allocation cache, one
/// planned mel pipeline and one telemetry registry. Every evaluation
/// builds its context from the request's own seed, and the cache is a
/// transparent memo, so a result is a pure function of the request,
/// whichever front end asked and whatever ran before it.
pub struct Executor {
    cache: Arc<AllocationCache>,
    mel: MelPipeline,
    telemetry: Telemetry,
}

fn sweep_config(service: ServiceKind, cap: usize, losses: bool, seed: u64) -> SweepConfig {
    SweepConfig {
        edge_client: presets::edge_client(service),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(service, cap),
        loss: if losses { LossModel::all() } else { LossModel::NONE },
        policy: FillPolicy::PackSlots,
        seed,
    }
}

impl Executor {
    /// An executor with a fresh cache, reporting into `telemetry`.
    pub fn new(telemetry: Telemetry) -> Executor {
        Executor {
            cache: Arc::new(AllocationCache::with_telemetry(&telemetry)),
            mel: MelPipeline::paper_default().with_telemetry(telemetry.clone()),
            telemetry,
        }
    }

    /// An engine context for one request: its own seed, the shared cache
    /// and telemetry.
    fn context(&self, seed: u64) -> SimContext {
        SimContext::with_cache_and_telemetry(seed, Arc::clone(&self.cache), self.telemetry.clone())
    }

    /// The population sweep's points, in population order.
    pub fn sweep(&self, r: &SweepRequest) -> Vec<ComparisonPoint> {
        let ns: Vec<usize> = (r.from..=r.to).step_by(r.step).collect();
        let ctx = self.context(r.seed).with_fault_plan(r.faults);
        sweep_config(r.service, r.cap, r.losses, r.seed).run_with_context(&r.backend, &ns, &ctx)
    }

    /// The slot-capacity plan.
    fn plan(&self, r: &PlanRequest) -> CapacityPlan {
        plan_slot_capacity_with(
            &self.context(r.seed),
            r.clients,
            r.cap_from..=r.cap_to,
            |cap| presets::cloud_server(r.service, cap),
            &presets::edge_cloud_client(),
            &if r.losses { LossModel::all() } else { LossModel::NONE },
            FillPolicy::PackSlots,
        )
    }

    /// The apiary placement recommendation.
    pub fn recommend(&self, r: &RecommendRequest) -> ScenarioRecommendation {
        Apiary::new("apiary", r.hives).recommend_in(
            r.backend,
            r.service,
            r.cap,
            if r.losses { LossModel::all() } else { LossModel::NONE },
            &self.context(Apiary::SEED),
        )
    }

    /// The Monte-Carlo confidence interval.
    fn montecarlo(&self, r: &MonteCarloRequest) -> CiPoint {
        let config = sweep_config(r.service, r.cap, r.losses, r.seed);
        replicate_point_with(&config, r.clients, r.replications, &self.context(r.seed))
    }

    /// The mel band means of the synthesized clip.
    fn features(&self, r: &FeaturesRequest) -> Vec<f64> {
        let clip = {
            let _span = self.telemetry.span("serve.request.features.synth");
            BeeAudioSynth::default().generate(r.colony, r.duration_s, &mut seeded_rng(r.seed))
        };
        let _span = self.telemetry.span("serve.request.features.mel");
        self.mel.mel(&clip).band_means()
    }

    /// The `ok` reply to a compute request; `None` for the control ops
    /// (`status`, `shutdown`), which the daemon answers itself.
    pub fn respond(&self, request: &Request) -> Option<String> {
        let body = match request {
            Request::Sweep(r) => protocol::sweep_body(r, &self.sweep(r)),
            Request::Plan(r) => protocol::plan_body(r, &self.plan(r)),
            Request::Recommend(r) => protocol::recommend_body(r, &self.recommend(r)),
            Request::MonteCarlo(r) => protocol::montecarlo_body(r, &self.montecarlo(r)),
            Request::Features(r) => protocol::features_body(r, &self.features(r)),
            Request::Status | Request::Shutdown => return None,
        };
        Some(protocol::ok_response(request.op(), &body))
    }
}
