//! The monitor collector's changed set is exact.
//!
//! The collector hands the monitors `MonitorCtx::changed`: the cells whose
//! assembled state differs from the previous round's, hard-dead overrides
//! included. Each campaign below runs twice over multi-cell shards — once
//! with the standard monitors fed that set, once with the same monitors
//! forced to full scans (`changed: None`) — and the two runs must report
//! the same violations and summaries and record the same bytes. A checking
//! monitor rides along in both and flags any round whose set misses a cell
//! that changed.

use cellflow_core::monitor::{MonitorCtx, MonitorViolation};
use cellflow_core::snapshot::Recorder;
use cellflow_core::{
    standard_monitors, CampaignSpec, FaultPlan, Monitor, Params, PartitionPlan, SystemConfig,
    SystemState,
};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::{ChaosConfig, NetReport, NetSystem, TearSpec};

const N: u16 = 6;
const ROUNDS: u64 = 160;
/// 36 cells over 4 workers: shards of 9 cells, so mailboxes on a shard
/// boundary are written from two workers.
const WORKERS: usize = 4;

fn config() -> SystemConfig {
    SystemConfig::new(
        GridDims::square(N),
        CellId::new(1, N - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
}

/// Forwards to the wrapped monitor with `changed: None`: a full scan.
struct FullScan(Box<dyn Monitor>);

impl Monitor for FullScan {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.0.observe(&MonitorCtx {
            changed: None,
            ..*ctx
        })
    }

    fn summary(&self) -> String {
        self.0.summary()
    }
}

/// Flags a round whose changed set is not strictly ascending or misses a
/// cell whose state differs from the previous round's. Under
/// `changed: None` there is nothing to check.
#[derive(Default)]
struct CoversDiff {
    prev: Option<SystemState>,
    rounds: u64,
}

impl Monitor for CoversDiff {
    fn name(&self) -> &'static str {
        "changed-set"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        let state = ctx.state.to_state();
        let mut found = Vec::new();
        let mut flag = |detail: String| {
            found.push(MonitorViolation {
                monitor: "changed-set",
                round: ctx.round,
                detail,
            })
        };
        if let (Some(changed), Some(prev)) = (ctx.changed, &self.prev) {
            if !changed.windows(2).all(|w| w[0] < w[1]) {
                flag(format!("not strictly ascending: {changed:?}"));
            }
            for (k, (was, now)) in prev.cells.iter().zip(&state.cells).enumerate() {
                if was != now && changed.binary_search(&(k as u32)).is_err() {
                    flag(format!("cell #{k} changed but is missing from {changed:?}"));
                }
            }
        }
        self.rounds += 1;
        self.prev = Some(state);
        found
    }

    fn summary(&self) -> String {
        format!("changed-set: {} rounds observed", self.rounds)
    }
}

/// Runs `campaign` on a fresh deployment with the standard monitors plus
/// [`CoversDiff`], all forced to full scans when `full_scan` is set.
fn run(campaign: fn(NetSystem) -> NetSystem, full_scan: bool) -> (NetReport, Vec<u8>) {
    let cfg = config();
    let mut monitors = standard_monitors(&cfg);
    monitors.push(Box::new(CoversDiff::default()));
    if full_scan {
        monitors = monitors
            .into_iter()
            .map(|m| Box::new(FullScan(m)) as Box<dyn Monitor>)
            .collect();
    }
    let recorder = Box::new(Recorder::for_config(&cfg, 0, 16, "net"));
    let net = campaign(NetSystem::new(cfg).unwrap().with_worker_cap(WORKERS));
    let (report, recording) = net
        .run_monitored_recorded(ROUNDS, monitors, Some(recorder))
        .unwrap();
    (report, recording.expect("a recorder was attached"))
}

fn assert_exact(campaign: fn(NetSystem) -> NetSystem) {
    let (fed, fed_rec) = run(campaign, false);
    let (full, full_rec) = run(campaign, true);
    let misses: Vec<String> = fed
        .violations
        .iter()
        .filter(|v| v.monitor == "changed-set")
        .map(|v| v.to_string())
        .collect();
    assert!(
        misses.is_empty(),
        "the changed set missed cells: {misses:#?}"
    );
    assert_eq!(fed.violations, full.violations);
    assert_eq!(fed.monitor_summaries, full.monitor_summaries);
    assert!(fed_rec == full_rec, "recordings differ");
    assert_eq!(fed, full);
}

fn campaign_plan(seed: u64) -> FaultPlan {
    let spec = CampaignSpec {
        active_rounds: 80,
        ..CampaignSpec::default()
    };
    FaultPlan::random_campaign(&config(), &spec, seed)
}

#[test]
fn lossless_chaos() {
    assert_exact(|net| {
        net.with_plan(campaign_plan(11)).with_chaos(ChaosConfig {
            dup_rate: 0.1,
            reorder_rate: 0.1,
            until_round: Some(80),
            ..ChaosConfig::quiet(11)
        })
    });
}

#[test]
fn lossy_chaos() {
    assert_exact(|net| {
        net.with_plan(campaign_plan(12)).with_chaos(ChaosConfig {
            drop_rate: 0.05,
            delay_rate: 0.05,
            dup_rate: 0.1,
            reorder_rate: 0.1,
            until_round: Some(80),
            ..ChaosConfig::quiet(12)
        })
    });
}

#[test]
fn split_and_heal_partition() {
    assert_exact(|net| {
        net.with_partition(PartitionPlan::for_grid(GridDims::square(N)).split_col(3, 20, Some(70)))
    });
}

#[test]
fn tear() {
    assert_exact(|net| {
        net.with_tear(TearSpec {
            cell: CellId::new(1, 3),
            round: 40,
            respawn: 55,
        })
    });
}

#[test]
fn hard_crash_with_respawn() {
    assert_exact(|net| {
        net.with_plan(
            FaultPlan::new()
                .hard_crash_at(30, CellId::new(1, 2))
                .recover_at(50, CellId::new(1, 2))
                .hard_crash_at(90, CellId::new(4, 4))
                .recover_at(100, CellId::new(4, 4)),
        )
    });
}

#[test]
fn corruption_campaign() {
    assert_exact(|net| {
        let spec = CampaignSpec {
            active_rounds: 80,
            bursts: 0,
            blackouts: 0,
            flappers: 0,
            hard_crashes: 0,
            corruptions: 8,
            ..CampaignSpec::default()
        };
        net.with_plan(FaultPlan::random_campaign(&config(), &spec, 13))
    });
}
