//! Mechanical stabilization certificates: Corollary 7 / Theorem 10 as a
//! machine-checkable regression gate.
//!
//! The paper proves that the protocol *self*-stabilizes — from an arbitrary
//! transient corruption of protocol state, routing re-converges within
//! `O(N²)` rounds (Corollary 7) and entity progress resumes (Theorem 10),
//! with safety (Theorem 5) holding throughout. [`certify`] turns that claim
//! into an executable experiment: drive the reference system through a
//! scripted corruption campaign, watch it with the standard monitors, and
//! emit a [`Certificate`] recording the re-stabilization time against the
//! [`stabilization_bound`] and the exact violation counts. A certificate
//! [`holds`] only if stabilization beat the bound *and* no monitor fired.
//!
//! When a campaign fails its certificate, [`shrink`] greedily reduces it to
//! a minimal corrupting counterexample (every remaining event is necessary
//! for the failure) — the debugging artifact a falsified theorem deserves.
//! The vendored `proptest` stand-in has no shrinking of its own, so the
//! reduction is a hand-rolled delta-debugging loop over certificate runs.
//!
//! [`holds`]: Certificate::holds

use core::fmt::Write as _;

use cellflow_grid::CellId;

use crate::fault::{Corruption, FaultKind, FaultPlan, FlakySpec, LinkFault, PartitionPlan};
use crate::monitor::{
    stabilization_bound, ConservationMonitor, Monitor, MonitorCtx, ReachabilityMonitor,
    RoutingMonitor, SafetyMonitor, StabilizationMonitor,
};
use crate::{System, SystemConfig};

/// One scripted corruption: `corruption` hits `cell` at the start of
/// (1-based) round `round`, before that round's `update` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// The 1-based round at whose start the corruption is applied.
    pub round: u64,
    /// The victim cell.
    pub cell: CellId,
    /// The state perturbation.
    pub corruption: Corruption,
}

/// Knobs for [`certify`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifyOptions {
    /// Rounds to keep driving after the last scheduled corruption; `None`
    /// means the stabilization bound plus two, so an in-bound recovery has
    /// room to show itself and an out-of-bound one is caught.
    pub settle: Option<u64>,
    /// Overrides the [`stabilization_bound`] — a testing aid for forcing
    /// certificate failures without a genuinely broken protocol.
    pub bound_override: Option<u64>,
}

/// The outcome of one certification run: the campaign, the bound it was
/// judged against, and everything the monitors saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The corruption campaign that was driven.
    pub ops: Vec<CorruptionEvent>,
    /// The round budget stabilization was judged against.
    pub bound: u64,
    /// Total rounds driven.
    pub rounds: u64,
    /// Rounds from the last disturbance to re-stabilization; `None` if the
    /// run ended unstabilized.
    pub rounds_to_stabilize: Option<u64>,
    /// Theorem 5 / Invariant violations observed.
    pub safety_violations: u64,
    /// Structural routing violations observed.
    pub routing_violations: u64,
    /// Entity-conservation violations observed.
    pub conservation_violations: u64,
    /// Stabilization-bound violations observed.
    pub stabilization_violations: u64,
}

impl Certificate {
    /// `true` iff the run re-stabilized within the bound and no monitor of
    /// any kind fired — the machine-checkable form of "Corollary 7 and
    /// Theorem 5 both held under this adversary".
    pub fn holds(&self) -> bool {
        self.rounds_to_stabilize.is_some_and(|r| r <= self.bound)
            && self.safety_violations == 0
            && self.routing_violations == 0
            && self.conservation_violations == 0
            && self.stabilization_violations == 0
    }

    /// A deterministic plain-text report: byte-identical for equal
    /// certificates, closed by an FNV-1a checksum over the preceding lines
    /// so external tooling can verify the report wasn't hand-edited.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "stabilization certificate");
        let _ = writeln!(s, "bound: {} rounds", self.bound);
        let _ = writeln!(s, "rounds driven: {}", self.rounds);
        let _ = writeln!(s, "corruptions: {}", self.ops.len());
        for op in &self.ops {
            let _ = writeln!(
                s,
                "  round {:>4}  cell ({},{})  {:?}",
                op.round,
                op.cell.i(),
                op.cell.j(),
                op.corruption
            );
        }
        let restab = match self.rounds_to_stabilize {
            Some(r) => format!("{r} rounds after last disturbance"),
            None => "NO".to_string(),
        };
        let _ = writeln!(s, "re-stabilized: {restab}");
        let _ = writeln!(
            s,
            "violations: safety={} routing={} conservation={} stabilization={}",
            self.safety_violations,
            self.routing_violations,
            self.conservation_violations,
            self.stabilization_violations
        );
        let _ = writeln!(
            s,
            "verdict: {}",
            if self.holds() { "CERTIFIED" } else { "FAILED" }
        );
        let checksum = fnv1a(s.as_bytes());
        let _ = writeln!(s, "checksum: {checksum:016x}");
        s
    }
}

/// FNV-1a over `bytes` — the checksum sealing a rendered certificate
/// (re-exported from the shared [`crate::hash`] module).
pub use crate::hash::fnv1a;

/// Drives the reference system through `ops` under the standard monitors
/// and reports what happened as a [`Certificate`].
///
/// Each round, the corruptions scheduled for it are applied in order before
/// `update` runs, and the monitors observe the end-of-round state with the
/// victims listed in [`MonitorCtx::corrupted`] (restarting the stabilization
/// stopwatch and re-baselining conservation). The run lasts until
/// [`CertifyOptions::settle`] rounds past the last corruption.
pub fn certify(
    config: &SystemConfig,
    ops: &[CorruptionEvent],
    opts: &CertifyOptions,
) -> Certificate {
    let bound = opts
        .bound_override
        .unwrap_or_else(|| stabilization_bound(config));
    let last_op = ops.iter().map(|o| o.round).max().unwrap_or(0);
    let total = last_op + opts.settle.unwrap_or(bound + 2);
    let mut sys = System::new(config.clone());
    let mut safety = SafetyMonitor::new();
    let mut routing = RoutingMonitor::new();
    let mut conservation = ConservationMonitor::new();
    let mut stabilization = StabilizationMonitor::with_bound(bound);
    let mut counts = [0u64; 4];
    for round in 1..=total {
        let corrupted: Vec<CellId> = ops
            .iter()
            .filter(|o| o.round == round)
            .map(|o| {
                sys.corrupt(o.cell, o.corruption);
                o.cell
            })
            .collect();
        sys.step();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: sys.round(),
            failed: &[],
            recovered: &[],
            corrupted: &corrupted,
            ambient_chaos: false,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: sys.changed_cells(),
        };
        counts[0] += safety.observe(&ctx).len() as u64;
        counts[1] += routing.observe(&ctx).len() as u64;
        counts[2] += conservation.observe(&ctx).len() as u64;
        counts[3] += stabilization.observe(&ctx).len() as u64;
    }
    Certificate {
        ops: ops.to_vec(),
        bound,
        rounds: total,
        rounds_to_stabilize: stabilization.rounds_to_stabilize(),
        safety_violations: counts[0],
        routing_violations: counts[1],
        conservation_violations: counts[2],
        stabilization_violations: counts[3],
    }
}

/// Certifies many independent corruption campaigns on `threads` scoped
/// workers, each owning a disjoint chunk of the campaign list. Every
/// campaign drives its own fresh [`System`] and [`certify`] is deterministic,
/// so the result — certificate structs *and* their rendered reports — is
/// byte-identical to mapping [`certify`] sequentially, in input order.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn certify_batch(
    config: &SystemConfig,
    campaigns: &[Vec<CorruptionEvent>],
    opts: &CertifyOptions,
    threads: usize,
) -> Vec<Certificate> {
    if threads <= 1 || campaigns.len() <= 1 {
        return campaigns
            .iter()
            .map(|ops| certify(config, ops, opts))
            .collect();
    }
    let workers = threads.min(campaigns.len());
    let chunk = campaigns.len().div_ceil(workers);
    let mut results: Vec<Option<Certificate>> = Vec::new();
    results.resize_with(campaigns.len(), || None);
    std::thread::scope(|scope| {
        for (input, output) in campaigns.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (ops, slot) in input.iter().zip(output.iter_mut()) {
                    *slot = Some(certify(config, ops, opts));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|c| c.expect("every campaign was certified"))
        .collect()
}

/// Converts the [`FaultKind::Corrupt`] events of `plan` into the
/// certifier's event list (other fault kinds are ignored — the certifier
/// models the pure corruption adversary; crash/recover adversaries are the
/// chaos layer's).
pub fn corruption_events(plan: &FaultPlan) -> Vec<CorruptionEvent> {
    plan.events()
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::Corrupt(c) => Some(CorruptionEvent {
                round: e.round.max(1),
                cell: e.cell,
                corruption: c,
            }),
            _ => None,
        })
        .collect()
}

/// Reduces a failing campaign to a minimal corrupting counterexample by
/// greedy delta debugging: repeatedly drop any event whose removal keeps
/// the certificate failing, until every remaining event is necessary.
/// Returns `ops` unchanged if its certificate already holds.
pub fn shrink(
    config: &SystemConfig,
    ops: &[CorruptionEvent],
    opts: &CertifyOptions,
) -> Vec<CorruptionEvent> {
    let mut current = ops.to_vec();
    if certify(config, &current, opts).holds() {
        return current;
    }
    loop {
        let mut removed_any = false;
        let mut k = 0;
        while k < current.len() && current.len() > 1 {
            let mut candidate = current.clone();
            candidate.remove(k);
            if !certify(config, &candidate, opts).holds() {
                current = candidate;
                removed_any = true;
            } else {
                k += 1;
            }
        }
        if !removed_any {
            return current;
        }
    }
}

/// The outcome of one link-fault certification run: the partition campaign,
/// the bound its *post-heal* recovery was judged against, and everything the
/// monitors (including the split-brain [`ReachabilityMonitor`]) saw.
///
/// This is the partition-tolerance twin of [`Certificate`]: where `certify`
/// drives the state-corruption adversary of Corollary 7, [`certify_links`]
/// drives the *communication* adversary — scripted directed link cuts and
/// flaky links — and certifies that safety held throughout the episode and
/// routing re-stabilized within the bound once the links healed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkCertificate {
    /// The scripted directed cuts that were driven.
    pub faults: Vec<LinkFault>,
    /// The seeded flaky-link specs that were driven.
    pub flaky: Vec<FlakySpec>,
    /// The round at which the last cut healed; `None` if some cut never
    /// heals (such a campaign can never certify post-heal stabilization).
    pub heal_round: Option<u64>,
    /// The round budget post-heal stabilization was judged against.
    pub bound: u64,
    /// Total rounds driven.
    pub rounds: u64,
    /// Rounds from the last partitioned round to re-stabilization; `None`
    /// if the run ended unstabilized.
    pub rounds_to_stabilize: Option<u64>,
    /// The largest number of simultaneous connected components observed.
    pub max_components: u32,
    /// Theorem 5 / Invariant violations observed.
    pub safety_violations: u64,
    /// Structural routing violations observed.
    pub routing_violations: u64,
    /// Entity-conservation violations observed.
    pub conservation_violations: u64,
    /// Stabilization-bound violations observed.
    pub stabilization_violations: u64,
    /// Split-brain violations (unsafe while partitioned, or an entity
    /// crossing a cut edge) observed.
    pub reachability_violations: u64,
}

impl LinkCertificate {
    /// `true` iff every cut healed, routing re-stabilized within the bound
    /// of the heal, and no monitor of any kind fired — "Theorem 5 held
    /// through the split and Corollary 7 held after the heal".
    pub fn holds(&self) -> bool {
        self.heal_round.is_some()
            && self.rounds_to_stabilize.is_some_and(|r| r <= self.bound)
            && self.safety_violations == 0
            && self.routing_violations == 0
            && self.conservation_violations == 0
            && self.stabilization_violations == 0
            && self.reachability_violations == 0
    }

    /// A deterministic plain-text report, byte-identical for equal
    /// certificates and sealed by an FNV-1a checksum like
    /// [`Certificate::render`].
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "link-fault certificate");
        let _ = writeln!(s, "bound: {} rounds", self.bound);
        let _ = writeln!(s, "rounds driven: {}", self.rounds);
        let _ = writeln!(s, "scripted cuts: {}", self.faults.len());
        for f in &self.faults {
            let heal = match f.heal {
                Some(h) => format!("{h}"),
                None => "never".to_string(),
            };
            let _ = writeln!(
                s,
                "  ({},{}) → ({},{})  rounds {}..{heal}",
                f.from.i(),
                f.from.j(),
                f.to.i(),
                f.to.j(),
                f.start
            );
        }
        let _ = writeln!(s, "flaky specs: {}", self.flaky.len());
        for f in &self.flaky {
            let heal = match f.heal {
                Some(h) => format!("{h}"),
                None => "never".to_string(),
            };
            let _ = writeln!(
                s,
                "  seed {}  rate {}/1000  rounds {}..{heal}",
                f.seed, f.rate_milli, f.start
            );
        }
        let heal = match self.heal_round {
            Some(h) => format!("{h}"),
            None => "never".to_string(),
        };
        let _ = writeln!(s, "heal round: {heal}");
        let _ = writeln!(s, "max components: {}", self.max_components);
        let restab = match self.rounds_to_stabilize {
            Some(r) => format!("{r} rounds after the heal"),
            None => "NO".to_string(),
        };
        let _ = writeln!(s, "re-stabilized: {restab}");
        let _ = writeln!(
            s,
            "violations: safety={} routing={} conservation={} stabilization={} reachability={}",
            self.safety_violations,
            self.routing_violations,
            self.conservation_violations,
            self.stabilization_violations,
            self.reachability_violations
        );
        let _ = writeln!(
            s,
            "verdict: {}",
            if self.holds() { "CERTIFIED" } else { "FAILED" }
        );
        let checksum = fnv1a(s.as_bytes());
        let _ = writeln!(s, "checksum: {checksum:016x}");
        s
    }
}

/// Drives the reference system through the partition campaign of `plan`
/// under the standard monitors plus a [`ReachabilityMonitor`], and reports
/// what happened as a [`LinkCertificate`].
///
/// Each round's link-cut mask is applied before the round runs (a cut slot
/// reads as a silent neighbor: `dist = ∞`, no request, no grant — the paper's
/// footnote-1 convention). Rounds with any active cut count as ambient
/// disturbance for the stabilization stopwatch, so `rounds_to_stabilize`
/// measures recovery *from the heal*, exactly Corollary 7's promise once
/// communication is reliable again. The run lasts until
/// [`CertifyOptions::settle`] rounds past the heal (or past the last onset,
/// for campaigns that never heal).
pub fn certify_links(
    config: &SystemConfig,
    plan: &PartitionPlan,
    opts: &CertifyOptions,
) -> LinkCertificate {
    let bound = opts
        .bound_override
        .unwrap_or_else(|| stabilization_bound(config));
    let heal = plan.heal_round();
    let onset = plan
        .faults()
        .iter()
        .map(|f| f.start)
        .chain(plan.flaky().iter().map(|f| f.start))
        .max()
        .unwrap_or(0);
    let total = heal.unwrap_or(onset) + opts.settle.unwrap_or(bound + 2);
    let schedule = plan.expand(total);
    let mut sys = System::new(config.clone());
    let mut safety = SafetyMonitor::new();
    let mut routing = RoutingMonitor::new();
    let mut conservation = ConservationMonitor::new();
    let mut stabilization = StabilizationMonitor::with_bound(bound);
    let mut reachability = ReachabilityMonitor::new(config, schedule.clone());
    let mut counts = [0u64; 5];
    for round in 1..=total {
        let mask_round = round - 1;
        sys.set_link_cuts(schedule.mask_row(mask_round));
        sys.step();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.view(),
            round: sys.round(),
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: schedule.active(mask_round),
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: sys.changed_cells(),
        };
        counts[0] += safety.observe(&ctx).len() as u64;
        counts[1] += routing.observe(&ctx).len() as u64;
        counts[2] += conservation.observe(&ctx).len() as u64;
        counts[3] += stabilization.observe(&ctx).len() as u64;
        counts[4] += reachability.observe(&ctx).len() as u64;
    }
    LinkCertificate {
        faults: plan.faults().to_vec(),
        flaky: plan.flaky().to_vec(),
        heal_round: heal,
        bound,
        rounds: total,
        rounds_to_stabilize: stabilization.rounds_to_stabilize(),
        max_components: reachability.max_components(),
        safety_violations: counts[0],
        routing_violations: counts[1],
        conservation_violations: counts[2],
        stabilization_violations: counts[3],
        reachability_violations: counts[4],
    }
}

/// Reduces a failing partition campaign to a minimal breaking set of
/// scripted cuts by the same greedy delta debugging as [`shrink`]: drop any
/// [`LinkFault`] whose removal keeps the certificate failing, until every
/// remaining cut is necessary. Flaky specs are kept as fixed context.
/// Returns the plan's cuts unchanged if its certificate already holds.
pub fn shrink_links(
    config: &SystemConfig,
    plan: &PartitionPlan,
    opts: &CertifyOptions,
) -> Vec<LinkFault> {
    let rebuild = |faults: &[LinkFault]| {
        let mut p = PartitionPlan::for_grid(plan.dims());
        for f in faults {
            p = p.cut(f.from, f.to, f.start, f.heal);
        }
        for fl in plan.flaky() {
            p = p.flaky_links(fl.seed, fl.rate_milli, fl.start, fl.heal);
        }
        p
    };
    let mut current = plan.faults().to_vec();
    if certify_links(config, plan, opts).holds() {
        return current;
    }
    loop {
        let mut removed_any = false;
        let mut k = 0;
        while k < current.len() && current.len() > 1 {
            let mut candidate = current.clone();
            candidate.remove(k);
            if !certify_links(config, &rebuild(&candidate), opts).holds() {
                current = candidate;
                removed_any = true;
            } else {
                k += 1;
            }
        }
        if !removed_any {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;
    use cellflow_grid::GridDims;
    use cellflow_routing::Dist;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
    }

    #[test]
    fn clean_execution_certifies() {
        let cert = certify(&config(), &[], &CertifyOptions::default());
        assert!(cert.holds(), "clean run must certify: {}", cert.render());
        assert_eq!(cert.ops.len(), 0);
    }

    #[test]
    fn scramble_campaigns_certify_within_bound() {
        // Seeded campaign loop (the vendored proptest has no shrinking, so
        // this is the property-test layer; `shrink` covers reduction).
        let cfg = config();
        for seed in 0..8u64 {
            let plan = FaultPlan::new().scramble_sweep(
                12,
                cfg.dims().iter().filter(|&c| c != cfg.target()),
                seed,
            );
            let ops = corruption_events(&plan);
            assert_eq!(ops.len(), 15);
            let cert = certify(&cfg, &ops, &CertifyOptions::default());
            assert!(cert.holds(), "seed {seed}:\n{}", cert.render());
            assert!(cert.rounds_to_stabilize.unwrap() <= cert.bound);
        }
    }

    #[test]
    fn fake_zero_dist_washes_within_bound() {
        let ops = [CorruptionEvent {
            round: 10,
            cell: CellId::new(0, 1),
            corruption: Corruption::Dist(Dist::Finite(0)),
        }];
        let cert = certify(&config(), &ops, &CertifyOptions::default());
        assert!(cert.holds(), "{}", cert.render());
        // The fake anchor misleads neighbors for at least one round.
        assert!(cert.rounds_to_stabilize.unwrap() >= 1);
    }

    #[test]
    fn render_is_deterministic_and_sealed() {
        let ops = [CorruptionEvent {
            round: 5,
            cell: CellId::new(1, 2),
            corruption: Corruption::Scramble { salt: 99 },
        }];
        let a = certify(&config(), &ops, &CertifyOptions::default());
        let b = certify(&config(), &ops, &CertifyOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("checksum: "));
        assert!(a.render().contains("verdict: CERTIFIED"));
    }

    #[test]
    fn batch_certification_is_byte_identical_to_sequential() {
        let cfg = config();
        let opts = CertifyOptions::default();
        let campaigns: Vec<Vec<CorruptionEvent>> = (0..7u64)
            .map(|seed| {
                let plan = FaultPlan::new().scramble_sweep(
                    10,
                    cfg.dims().iter().filter(|&c| c != cfg.target()),
                    seed,
                );
                corruption_events(&plan)
            })
            .collect();
        let seq: Vec<Certificate> = campaigns
            .iter()
            .map(|ops| certify(&cfg, ops, &opts))
            .collect();
        for threads in [2, 4] {
            let par = certify_batch(&cfg, &campaigns, &opts, threads);
            assert_eq!(par, seq, "threads = {threads}");
            for (p, s) in par.iter().zip(seq.iter()) {
                assert_eq!(p.render(), s.render());
            }
        }
    }

    #[test]
    fn shrink_reduces_to_a_minimal_counterexample() {
        // Under an absurd bound of 0 every neighbor-misleading corruption
        // fails its certificate; a three-event campaign must shrink to one.
        let cfg = config();
        let opts = CertifyOptions {
            bound_override: Some(0),
            ..CertifyOptions::default()
        };
        let mk = |round, cell| CorruptionEvent {
            round,
            cell,
            corruption: Corruption::Dist(Dist::Finite(0)),
        };
        let ops = vec![
            mk(8, CellId::new(0, 1)),
            mk(12, CellId::new(1, 0)),
            mk(16, CellId::new(2, 1)),
        ];
        assert!(!certify(&cfg, &ops, &opts).holds());
        let minimal = shrink(&cfg, &ops, &opts);
        assert_eq!(minimal.len(), 1, "minimal counterexample: {minimal:?}");
        assert!(!certify(&cfg, &minimal, &opts).holds());
        // A holding campaign is returned untouched.
        let fine = vec![mk(8, CellId::new(0, 1))];
        let default_opts = CertifyOptions::default();
        assert!(certify(&cfg, &fine, &default_opts).holds());
        assert_eq!(shrink(&cfg, &fine, &default_opts), fine);
    }

    #[test]
    fn split_and_heal_certifies_within_bound() {
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(2, 5, Some(40));
        let cert = certify_links(&cfg, &plan, &CertifyOptions::default());
        assert!(cert.holds(), "{}", cert.render());
        assert_eq!(cert.heal_round, Some(40));
        assert_eq!(cert.max_components, 2);
        assert!(cert.rounds_to_stabilize.unwrap() <= cert.bound);
        assert!(cert.render().contains("verdict: CERTIFIED"));
    }

    #[test]
    fn island_and_flaky_campaigns_certify() {
        let cfg = config();
        // Island the source corner for 30 rounds.
        let island = PartitionPlan::for_grid(cfg.dims()).island(
            CellId::new(0, 0),
            CellId::new(1, 1),
            3,
            Some(33),
        );
        let cert = certify_links(&cfg, &island, &CertifyOptions::default());
        assert!(cert.holds(), "island:\n{}", cert.render());
        assert_eq!(cert.max_components, 2);
        // Seeded flaky links at 20% for 25 rounds.
        let flaky = PartitionPlan::for_grid(cfg.dims()).flaky_links(42, 200, 0, Some(25));
        let cert = certify_links(&cfg, &flaky, &CertifyOptions::default());
        assert!(cert.holds(), "flaky:\n{}", cert.render());
    }

    #[test]
    fn never_healing_campaign_cannot_certify() {
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_row(2, 5, None);
        let cert = certify_links(&cfg, &plan, &CertifyOptions::default());
        assert!(!cert.holds());
        assert_eq!(cert.heal_round, None);
        assert!(cert.render().contains("verdict: FAILED"));
        assert!(cert.render().contains("heal round: never"));
    }

    #[test]
    fn link_certificates_are_deterministic_and_sealed() {
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims())
            .split_col(2, 5, Some(30))
            .flaky_links(7, 150, 0, Some(20));
        let a = certify_links(&cfg, &plan, &CertifyOptions::default());
        let b = certify_links(&cfg, &plan, &CertifyOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("checksum: "));
    }

    #[test]
    fn shrink_links_reduces_to_a_minimal_breaking_set() {
        // Under an absurd bound of 0 every campaign fails its certificate
        // (stabilization always takes at least one round), so the greedy
        // reduction must bottom out at a single necessary cut.
        let cfg = config();
        let opts = CertifyOptions {
            bound_override: Some(0),
            ..CertifyOptions::default()
        };
        let plan = PartitionPlan::for_grid(cfg.dims()).island(
            CellId::new(2, 2),
            CellId::new(3, 3),
            5,
            Some(25),
        );
        assert!(plan.faults().len() > 2);
        assert!(!certify_links(&cfg, &plan, &opts).holds());
        let minimal = shrink_links(&cfg, &plan, &opts);
        assert_eq!(minimal.len(), 1, "minimal breaking set: {minimal:?}");
        // A holding campaign is returned untouched.
        let fine = PartitionPlan::for_grid(cfg.dims()).split_col(2, 5, Some(30));
        let default_opts = CertifyOptions::default();
        assert!(certify_links(&cfg, &fine, &default_opts).holds());
        assert_eq!(shrink_links(&cfg, &fine, &default_opts), fine.faults());
    }

    #[test]
    fn shrink_is_deterministic_on_cascade_counterexamples() {
        // Same seed → same minimal schedule: shrinking a seeded corruption
        // campaign on the finite-capacity cascade grid is a pure function
        // of its inputs — greedy delta debugging scans in a fixed order
        // and certify is deterministic, so no run-to-run drift.
        let cfg = config().with_capacity(2);
        let opts = CertifyOptions {
            bound_override: Some(0),
            ..CertifyOptions::default()
        };
        for seed in 0..4u64 {
            let campaign = || {
                let plan = FaultPlan::new().scramble_sweep(
                    12,
                    cfg.dims().iter().filter(|&c| c != cfg.target()),
                    seed,
                );
                corruption_events(&plan)
            };
            let ops = campaign();
            assert!(!certify(&cfg, &ops, &opts).holds(), "seed {seed}");
            let a = shrink(&cfg, &ops, &opts);
            let b = shrink(&cfg, &ops, &opts);
            assert_eq!(a, b, "seed {seed}: shrink drifted between runs");
            assert!(!certify(&cfg, &a, &opts).holds(), "seed {seed}");
            assert!(a.len() < ops.len(), "seed {seed}: no reduction");
            // Regenerating the campaign from the same seed reproduces the
            // same minimal schedule end to end.
            assert_eq!(shrink(&cfg, &campaign(), &opts), a, "seed {seed}");
        }
    }
}
