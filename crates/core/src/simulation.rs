//! One-cycle energy simulation of the two scenarios.
//!
//! Given a client model, a server model, a loss model and a fill policy,
//! computes the energy of one wake-up cycle for a population of clients —
//! the quantity plotted in Figures 6–9.

use crate::allocator::Allocation;
use crate::client::ClientModel;
use crate::faults::FaultStats;
use crate::loss::LossModel;
use crate::server::ServerModel;
use pb_energy::EnergyLedger;
use pb_units::Joules;

/// Energy accounting of one simulated cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleReport {
    /// Clients requested (before random loss).
    pub n_requested: usize,
    /// Clients that actually participated (after Loss C).
    pub n_active: usize,
    /// Servers provisioned (zero in the edge scenario).
    pub n_servers: usize,
    /// Mean edge energy per active client.
    pub edge_energy_per_client: Joules,
    /// Total edge energy across active clients.
    pub edge_energy_total: Joules,
    /// Total server energy across all provisioned servers.
    pub server_energy_total: Joules,
    /// Server energy divided by active clients (zero when no clients).
    pub server_energy_per_client: Joules,
    /// Grand total (edge + servers).
    pub total_energy: Joules,
    /// Grand total per active client (zero when no clients).
    pub total_per_client: Joules,
    /// Fault/retry/fallback accounting (all zero without a fault plan).
    pub faults: FaultStats,
}

impl CycleReport {
    pub(crate) fn new(
        n_requested: usize,
        n_active: usize,
        n_servers: usize,
        edge_total: Joules,
        server_total: Joules,
        faults: FaultStats,
    ) -> Self {
        let per = |e: Joules| if n_active > 0 { e / n_active as f64 } else { Joules::ZERO };
        CycleReport {
            n_requested,
            n_active,
            n_servers,
            edge_energy_per_client: per(edge_total),
            edge_energy_total: edge_total,
            server_energy_total: server_total,
            server_energy_per_client: per(server_total),
            total_energy: edge_total + server_total,
            total_per_client: per(edge_total + server_total),
            faults,
        }
    }

    /// Renders the report as a two-row system [`EnergyLedger`] — the edge
    /// fleet and the server fleet — in the layout of the paper's scenario
    /// tables. The row energies are the report's totals carried over
    /// verbatim (not re-folded from per-instance values), so the ledger's
    /// total is bitwise equal to [`total_energy`](Self::total_energy):
    /// both are the single addition `edge + server`.
    pub fn to_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.record(
            format!("Edge clients ({} active)", self.n_active),
            self.edge_energy_total,
            pb_units::Seconds::ZERO,
        );
        ledger.record(
            format!("Cloud servers ({})", self.n_servers),
            self.server_energy_total,
            pb_units::Seconds::ZERO,
        );
        ledger
    }
}

/// Total server-side energy of one cycle for a given allocation.
pub fn servers_cycle_energy(
    server: &ServerModel,
    allocation: &Allocation,
    loss: &LossModel,
) -> Joules {
    let penalty = loss.transfer.as_ref();
    let mut total = Joules::ZERO;
    for (count, sa) in allocation.groups() {
        // Price the shape once; every server in the group is identical, so
        // repeated addition reproduces the historical per-server sum bit
        // for bit (a single multiply would round differently).
        let mut busy = pb_units::Seconds::ZERO;
        let mut slot_energy = Joules::ZERO;
        for &k in &sa.slots {
            if k == 0 {
                continue;
            }
            busy += server.slot_duration(k, penalty);
            let mut e = server.slot_energy(k, penalty);
            if let Some(sat) = &loss.saturation {
                e *= sat.multiplier(k, server.max_parallel);
            }
            slot_energy += e;
        }
        assert!(
            busy.value() <= server.cycle.value() + 1e-9,
            "server busy time {busy} exceeds the cycle"
        );
        let per_server = server.idle_power * (server.cycle - busy) + slot_energy;
        for _ in 0..*count {
            total += per_server;
        }
    }
    total
}

/// Total edge-side energy of one cycle for a given allocation. Under Loss B
/// each client's transfer stretches with its slot's occupancy.
pub fn edge_cycle_energy(
    client: &ClientModel,
    allocation: &Allocation,
    loss: &LossModel,
) -> Joules {
    match loss.transfer.as_ref() {
        None => client.cycle_energy() * allocation.n_clients() as f64,
        Some(p) => {
            let mut total = Joules::ZERO;
            for (count, sa) in allocation.groups() {
                // Per-slot contributions priced once per distinct shape,
                // then replayed per server to keep the addition order —
                // and hence the rounding — identical to a dense loop.
                let per_slot: Vec<Joules> = sa
                    .slots
                    .iter()
                    .filter(|&&k| k > 0)
                    .map(|&k| client.cycle_energy_with_transfer_penalty(p.extra_for(k)) * k as f64)
                    .collect();
                for _ in 0..*count {
                    for &e in &per_slot {
                        total += e;
                    }
                }
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::FillPolicy;
    use crate::client::Action;
    use crate::engine::{ClosedForm, CycleEngine, ScenarioSpec, SimContext};
    use crate::loss::{ClientLoss, PenaltyMode, SaturationPenalty, TransferPenalty};
    use pb_units::{Seconds, Watts};

    fn paper_client() -> ClientModel {
        ClientModel::new(
            Watts(0.625),
            vec![
                Action::new("collect", Watts(131.8 / 64.0), Seconds(64.0)),
                Action::new("send audio", Watts(37.3 / 15.0), Seconds(15.0)),
                Action::new("shutdown", Watts(21.0 / 9.9), Seconds(9.9)),
            ],
            Seconds(300.0),
            Some(1),
        )
    }

    fn edge_client_cnn() -> ClientModel {
        ClientModel::new(
            Watts(0.625),
            vec![
                Action::new("collect", Watts(131.8 / 64.0), Seconds(64.0)),
                Action::new("cnn", Watts(94.8 / 37.6), Seconds(37.6)),
                Action::new("send results", Watts(2.0), Seconds(1.5)),
                Action::new("shutdown", Watts(21.0 / 9.9), Seconds(9.9)),
            ],
            Seconds(300.0),
            None,
        )
    }

    fn paper_server(max_parallel: usize) -> ServerModel {
        ServerModel::new(
            Watts(44.6),
            Watts(68.8),
            Seconds(15.0),
            Watts(108.0),
            Seconds(1.0),
            max_parallel,
            Seconds(300.0),
        )
    }

    /// Prices one edge+cloud cycle of `client` on `server` through the
    /// closed-form engine, Loss C drawn from `seed`'s point stream.
    fn edge_cloud(
        n: usize,
        client: &ClientModel,
        server: &ServerModel,
        loss: &LossModel,
        policy: FillPolicy,
        seed: u64,
    ) -> CycleReport {
        let spec = ScenarioSpec {
            edge_client: client.clone(),
            cloud_client: client.clone(),
            server: server.clone(),
            loss: *loss,
            policy,
        };
        ClosedForm.evaluate(&spec, n, &SimContext::new(seed))
    }

    #[test]
    fn edge_scenario_scales_linearly() {
        let spec = ScenarioSpec {
            edge_client: edge_client_cnn(),
            cloud_client: paper_client(),
            server: paper_server(10),
            loss: LossModel::NONE,
            policy: FillPolicy::PackSlots,
        };
        let ctx = SimContext::new(1);
        let r = ClosedForm.evaluate_edge(&spec, 100, &ctx);
        assert_eq!(r.n_servers, 0);
        assert_eq!(r.n_active, 100);
        assert!((r.edge_energy_per_client - Joules(367.5)).abs() < Joules(0.5));
        assert!((r.total_energy - r.edge_energy_total).abs() < Joules(1e-9));
        // Per-client cost is population-independent (the Figure 6 red line).
        let r2 = ClosedForm.evaluate_edge(&spec, 400, &ctx);
        assert!((r2.total_per_client - r.total_per_client).abs() < Joules(1e-9));
    }

    #[test]
    fn full_server_converges_to_paper_asymptote() {
        // Figure 6: "The server's overall energy consumption per client
        // converges towards 116 joules" at capacity (we compute 117.0).
        let client = paper_client();
        let server = paper_server(10);
        let r = edge_cloud(180, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 2);
        assert_eq!(r.n_servers, 1);
        assert!(
            (r.server_energy_per_client - Joules(117.0)).abs() < Joules(0.5),
            "per-client {}",
            r.server_energy_per_client
        );
        // Edge side stays at 322 J (Figure 6's flat red line).
        assert!((r.edge_energy_per_client - Joules(322.0)).abs() < Joules(0.5));
        // Best total ≈ 438–439 J (the paper's blue asymptote).
        assert!(
            (r.total_per_client - Joules(439.0)).abs() < Joules(1.5),
            "total {}",
            r.total_per_client
        );
    }

    #[test]
    fn ledger_view_carries_totals_verbatim() {
        let client = paper_client();
        let server = paper_server(10);
        let r = edge_cloud(180, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 7);
        let ledger = r.to_ledger();
        assert_eq!(ledger.len(), 2);
        // Totals carry over bitwise — both sides are the same single
        // `edge + server` addition, nothing is re-folded.
        assert_eq!(ledger.total_energy(), r.total_energy);
        assert_eq!(ledger.energy_of("Edge clients (180 active)"), r.edge_energy_total);
        assert_eq!(ledger.energy_of("Cloud servers (1)"), r.server_energy_total);
        assert_eq!(ledger.total_time(), Seconds::ZERO);
        // The rendered table keeps the paper's layout.
        let text = format!("{ledger}");
        assert!(text.contains("Edge clients"));
        assert!(text.contains("Total"));
    }

    #[test]
    fn single_client_pays_the_whole_server() {
        let client = paper_client();
        let server = paper_server(10);
        let r = edge_cloud(1, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 3);
        // One slot of one client: idle 300−16 s, receive 15 s, process 1 s.
        let expected = Watts(44.6) * Seconds(284.0) + Watts(68.8) * Seconds(15.0) + Joules(108.0);
        assert!((r.server_energy_total - expected).abs() < Joules(0.5));
        assert!(r.total_per_client > Joules(13_000.0));
    }

    #[test]
    fn packing_uses_fewer_slots_and_less_energy_without_losses() {
        // Every used slot costs one receive window + one execution, so the
        // paper's pack-first policy dominates balancing in the loss-free
        // model; the two agree exactly when every slot is full.
        let client = paper_client();
        let server = paper_server(10);
        for n in [7usize, 95, 250] {
            let a = edge_cloud(n, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 4);
            let b = edge_cloud(n, &client, &server, &LossModel::NONE, FillPolicy::BalanceSlots, 4);
            assert!(a.total_energy <= b.total_energy + Joules(1e-6), "n = {n}");
        }
        // At exact capacity both policies produce 18 full slots.
        let a = edge_cloud(180, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 4);
        let b = edge_cloud(180, &client, &server, &LossModel::NONE, FillPolicy::BalanceSlots, 4);
        assert!((a.total_energy - b.total_energy).abs() < Joules(1e-6));
    }

    #[test]
    fn balancing_beats_packing_under_heavy_saturation() {
        // Ablation: at cap 35 with near-full servers, packing pays the
        // ×1.5 saturation multiplier on every full slot, while balancing
        // spreads occupancy to ~31 (multiplier ×1.1) at the price of two
        // extra used slots — and wins.
        let client = paper_client();
        let server = paper_server(35);
        let loss = LossModel { saturation: Some(SaturationPenalty::default()), ..LossModel::NONE };
        let n = 558; // 18 slots × 31 balanced; 15 full + one 33-slot packed
        let packed = edge_cloud(n, &client, &server, &loss, FillPolicy::PackSlots, 5);
        let balanced = edge_cloud(n, &client, &server, &loss, FillPolicy::BalanceSlots, 5);
        assert!(
            balanced.server_energy_total + Joules(1000.0) < packed.server_energy_total,
            "balanced {} vs packed {}",
            balanced.server_energy_total,
            packed.server_energy_total
        );
    }

    #[test]
    fn saturated_full_server_converges_to_fig8a_level() {
        // Figure 8a: "the cost of the server converges towards 186 joules"
        // per client under the saturation penalty.
        let client = paper_client();
        let server = paper_server(10);
        let loss = LossModel::saturation_only();
        let r = edge_cloud(180, &client, &server, &loss, FillPolicy::PackSlots, 6);
        // Full slots pay ×1.5: slot energy 1140 → 1710; per client:
        // (44.6·12 + 18·1710)/180 = 174 J. The paper reports 186 J — same
        // regime, within the tolerance we accept for a reconstruction.
        assert!(
            (r.server_energy_per_client - Joules(174.0)).abs() < Joules(1.0),
            "per-client {}",
            r.server_energy_per_client
        );
    }

    #[test]
    fn transfer_penalty_needs_more_servers_and_energy() {
        // Figure 8b: minimum server cost per client rises to ≈212 J.
        let client = paper_client();
        let server = paper_server(10);
        let loss = LossModel::transfer_only();
        let r = edge_cloud(100, &client, &server, &loss, FillPolicy::PackSlots, 7);
        assert_eq!(r.n_servers, 1); // capacity shrank to exactly 100
        let per = r.server_energy_per_client;
        assert!((per - Joules(209.0)).abs() < Joules(5.0), "per-client {per}");
        // The client side also pays for the longer transfer.
        assert!(r.edge_energy_per_client > Joules(322.0));
    }

    #[test]
    fn client_loss_reduces_active_population() {
        let client = paper_client();
        let server = paper_server(10);
        let loss = LossModel { client_loss: Some(ClientLoss::default()), ..LossModel::NONE };
        let r = edge_cloud(200, &client, &server, &loss, FillPolicy::PackSlots, 8);
        assert!(r.n_active < 200 && r.n_active > 160, "active {}", r.n_active);
        assert_eq!(r.n_requested, 200);
        // Energy billed for active clients only: per-client cost stays at
        // the Table II 322 J regardless of how many clients were lost.
        assert!((r.edge_energy_per_client - Joules(322.0)).abs() < Joules(0.5));
    }

    #[test]
    fn zero_clients_zero_energy() {
        let client = paper_client();
        let server = paper_server(10);
        let r = edge_cloud(0, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, 9);
        assert_eq!(r.n_servers, 0);
        assert_eq!(r.total_energy, Joules::ZERO);
        assert_eq!(r.total_per_client, Joules::ZERO);
    }

    #[test]
    fn per_extra_vs_per_client_penalty_modes_differ() {
        let client = paper_client();
        let server = paper_server(10);
        let per_extra = LossModel {
            transfer: Some(TransferPenalty {
                extra_per_client: Seconds(1.5),
                mode: PenaltyMode::PerExtraClient,
            }),
            ..LossModel::NONE
        };
        let per_client = LossModel {
            transfer: Some(TransferPenalty {
                extra_per_client: Seconds(1.5),
                mode: PenaltyMode::PerClient,
            }),
            ..LossModel::NONE
        };
        let a = edge_cloud(90, &client, &server, &per_extra, FillPolicy::PackSlots, 10);
        let b = edge_cloud(90, &client, &server, &per_client, FillPolicy::PackSlots, 10);
        assert!(b.total_energy > a.total_energy);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(48))]
            #[test]
            fn totals_are_consistent(n in 0usize..800, cap in 1usize..40, seed in 0u64..100) {
                let client = paper_client();
                let server = paper_server(cap);
                let r = edge_cloud(n, &client, &server, &LossModel::all(), FillPolicy::PackSlots, seed);
                prop_assert!(r.n_active <= r.n_requested);
                prop_assert!((r.total_energy - (r.edge_energy_total + r.server_energy_total)).abs() < Joules(1e-6));
                if r.n_active > 0 {
                    let recomputed = r.total_energy / r.n_active as f64;
                    prop_assert!((recomputed - r.total_per_client).abs() < Joules(1e-6));
                }
                // More clients on one server never cheapens the server total.
                prop_assert!(r.server_energy_total.value() >= 0.0);
            }

            #[test]
            fn server_energy_monotone_in_clients(cap in 5usize..20, seed in 0u64..20) {
                let client = paper_client();
                let server = paper_server(cap);
                let mut prev = Joules::ZERO;
                for n in (0..400).step_by(37) {
                    let r = edge_cloud(n, &client, &server, &LossModel::NONE, FillPolicy::PackSlots, seed);
                    prop_assert!(r.server_energy_total >= prev - Joules(1e-9));
                    prev = r.server_energy_total;
                }
            }
        }
    }
}
