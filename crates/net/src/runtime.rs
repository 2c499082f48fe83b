//! The concurrent runtime: pooled workers driving contiguous shards of
//! cells, transport links along grid edges, timeout-guarded
//! barrier-synchronized rounds, scripted faults, and an optional monitor
//! collector.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cellflow_core::fault::{FaultKind, FaultPlan, PartitionPlan, PartitionSchedule};
use cellflow_core::monitor::{Monitor, MonitorCtx, MonitorViolation};
use cellflow_core::{CellState, Dist, EntityId, SystemConfig, SystemState};
use cellflow_geom::Point;
use cellflow_grid::CellId;
use cellflow_telemetry::{cell_ordinal, Counter, Event, SpanBuilder, SpanKind, Tracer};

use crate::message::{Envelope, Message};
use crate::node::{CellNode, MAX_DEGREE};
use crate::store::{MemoryStore, PersistedRecord, RecordPoint, SnapshotStore, TearSpec};
use crate::supervisor::{RestartPolicy, SupervisorDecision};
use crate::sync::{PoisonInfo, RoundBarrier, WAITS_PER_ROUND};
use crate::telemetry::NetTelemetry;
use crate::transport::{
    ChaosConfig, ChaosStats, ChaosTransport, EdgeLink, LinkFaultTransport, LinkStats, Mailbox,
    PerfectTransport, Transport,
};

/// The result of a message-passing run.
#[derive(Clone, Debug, PartialEq)]
pub struct NetReport {
    /// The assembled final system state (every node's local state).
    pub state: SystemState,
    /// Entities consumed by the target.
    pub consumed: u64,
    /// Entities inserted by sources.
    pub inserted: u64,
    /// Faults the chaos transport injected (all zero on a perfect fabric).
    pub chaos: ChaosStats,
    /// Announcements the link-fault fabric suppressed on cut edges (zero
    /// when no partition was scripted).
    pub links: LinkStats,
    /// Violations flagged by the monitors (empty when none were installed).
    pub violations: Vec<MonitorViolation>,
    /// One summary line per installed monitor.
    pub monitor_summaries: Vec<String>,
    /// Interventions the restart supervisor applied to the fault plan
    /// (backed-off or quarantined re-spawns); empty under the default
    /// identity policy.
    pub supervisor: Vec<SupervisorDecision>,
}

/// Error from a message-passing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A worker or the monitor collector panicked (carries the panic
    /// message when printable).
    NodePanicked(String),
    /// A round failed to complete within the round timeout: some cell
    /// stopped responding without a scripted hand-over (e.g. a
    /// [`FaultKind::Kill`]), and the survivors degraded instead of
    /// deadlocking.
    Timeout {
        /// The round that never completed.
        round: u64,
        /// The cell whose wait detected the stall (the detector — the
        /// culprits are in `silent`).
        cell: CellId,
        /// The cells that had not checked into the stalled round and had no
        /// scripted excuse (hard-crash or tear window) for their silence —
        /// the attributed culprits. Empty if attribution found nobody
        /// (e.g. the stall cleared between detection and attribution).
        silent: Vec<CellId>,
    },
    /// The run's plumbing disconnected unexpectedly (a node exited without
    /// reporting and without poisoning the barrier).
    Disconnected {
        /// Results received before the disconnect.
        reported: u64,
        /// Results expected.
        expected: u64,
    },
    /// The configuration cannot be deployed distributedly.
    UnsupportedConfig(String),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::NodePanicked(msg) => write!(f, "a deployment thread panicked: {msg}"),
            NetError::Timeout {
                round,
                cell,
                silent,
            } => {
                write!(f, "round {round} timed out (detected by cell {cell})")?;
                if silent.is_empty() {
                    write!(f, ": a neighbor went silent")
                } else {
                    let names: Vec<String> = silent.iter().map(|c| c.to_string()).collect();
                    write!(f, ": silent cells {}", names.join(", "))
                }
            }
            NetError::Disconnected { reported, expected } => write!(
                f,
                "deployment disconnected: {reported} of {expected} cells reported"
            ),
            NetError::UnsupportedConfig(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Default per-wait round timeout: far above any healthy round (microseconds
/// of compute), low enough that a wedged deployment dies promptly.
const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(5);

/// Default worker-pool cap. Grids up to this many cells get a worker per
/// cell (maximal concurrency); larger grids multiplex contiguous shards of
/// cells onto this many workers instead of spawning thousands of OS threads
/// — a 64×64 grid would otherwise need 4096 of them.
const DEFAULT_WORKER_CAP: usize = 64;

/// A message-passing deployment of the protocol: `N²` independent cells
/// that share **nothing** and communicate only over per-edge transport
/// links, synchronized into rounds by a timeout-guarded barrier. Workers
/// drive contiguous shards of cells — one cell each while the grid fits
/// the worker cap ([`NetSystem::with_worker_cap`]).
///
/// See the crate docs for the round structure and the equivalence guarantee
/// against the shared-variable reference; see [`FaultPlan`] for scripting
/// crashes, hard crashes (the cell withdraws its barrier seat) with
/// re-spawn from the snapshot store, and unrecoverable kills, and
/// [`ChaosConfig`] for message-level fault injection.
pub struct NetSystem {
    config: SystemConfig,
    plan: FaultPlan,
    chaos: Option<ChaosConfig>,
    partition: Option<PartitionPlan>,
    round_timeout: Duration,
    store: Option<Arc<dyn SnapshotStore>>,
    policy: RestartPolicy,
    tears: Vec<TearSpec>,
    telemetry: Option<Arc<NetTelemetry>>,
    tracer: Option<Tracer>,
    worker_cap: usize,
}

impl core::fmt::Debug for NetSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetSystem")
            .field("config", &self.config)
            .field("plan", &self.plan)
            .field("chaos", &self.chaos)
            .field("partition", &self.partition)
            .field("round_timeout", &self.round_timeout)
            .field("store", &self.store.as_ref().map(|_| "SnapshotStore"))
            .field("policy", &self.policy)
            .field("tears", &self.tears)
            .field("telemetry", &self.telemetry)
            .field("tracer", &self.tracer)
            .field("worker_cap", &self.worker_cap)
            .finish()
    }
}

impl NetSystem {
    /// Creates a deployment of `config`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnsupportedConfig`] if the config carries an entity
    /// budget — budgets are a global counter, which a shared-nothing
    /// deployment cannot implement (they exist for the model checker).
    pub fn new(config: SystemConfig) -> Result<NetSystem, NetError> {
        if config.entity_budget().is_some() {
            return Err(NetError::UnsupportedConfig(
                "entity budgets are global state; not supported by the distributed runtime"
                    .to_string(),
            ));
        }
        Ok(NetSystem {
            config,
            plan: FaultPlan::new(),
            chaos: None,
            partition: None,
            round_timeout: DEFAULT_ROUND_TIMEOUT,
            store: None,
            policy: RestartPolicy::default(),
            tears: Vec::new(),
            telemetry: None,
            tracer: None,
            worker_cap: DEFAULT_WORKER_CAP,
        })
    }

    /// Caps the deployment's worker-thread count. The cells split into at
    /// most `cap` contiguous cell-id-ordered shards — shards of one cell
    /// when the grid has at most `cap` cells — and each shard's worker
    /// arrives at the round barrier once per wait for all its live cells
    /// ([`RoundBarrier::arrive_many`](crate::sync::RoundBarrier::arrive_many)).
    /// Every shard shape exchanges the same messages over the same
    /// transports in the same rounds, so reports do not depend on the cap —
    /// including timeout attribution: a killed cell's seat stops arriving
    /// and the stall still names it. Default: 64.
    pub fn with_worker_cap(mut self, cap: usize) -> NetSystem {
        self.worker_cap = cap.max(1);
        self
    }

    /// Adds a crash/recovery schedule: `(round, cell, recover?)` transitions,
    /// applied by each affected cell locally at the start of that round.
    /// Convenience wrapper over [`NetSystem::with_plan`].
    pub fn with_schedule<I: IntoIterator<Item = (u64, CellId, bool)>>(
        mut self,
        schedule: I,
    ) -> NetSystem {
        let mut plan = FaultPlan::new();
        for (round, cell, recover) in schedule {
            plan = if recover {
                plan.recover_at(round, cell)
            } else {
                plan.crash_at(round, cell)
            };
        }
        self.plan = plan;
        self
    }

    /// Scripts the run's fault plan (crashes, hard crashes with re-spawn,
    /// kills). Replaces any earlier plan or schedule.
    pub fn with_plan(mut self, plan: FaultPlan) -> NetSystem {
        self.plan = plan;
        self
    }

    /// Injects message-level chaos through a [`ChaosTransport`].
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> NetSystem {
        self.chaos = Some(chaos);
        self
    }

    /// Scripts link faults: the plan expands to a per-round cut schedule
    /// and a [`LinkFaultTransport`] suppresses announcements on cut
    /// directed edges (composing over chaos when both are configured).
    /// Partitioned cells read footnote-1 silence and keep running; rounds
    /// with an active cut count as ambient disturbance for the
    /// stabilization monitor, so re-stabilization is measured from the
    /// heal.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different grid than the config.
    pub fn with_partition(mut self, plan: PartitionPlan) -> NetSystem {
        assert_eq!(
            plan.dims(),
            self.config.dims(),
            "partition plan and deployment must share a grid"
        );
        self.partition = Some(plan);
        self
    }

    /// Overrides the per-wait round timeout (default 5 s).
    pub fn with_round_timeout(mut self, timeout: Duration) -> NetSystem {
        self.round_timeout = timeout;
        self
    }

    /// Installs a snapshot store. Every cell appends a write-ahead
    /// [`RecordPoint::Intent`] record before sending entity transfers and a
    /// [`RecordPoint::Sealed`] record after finishing each round; hard-crash
    /// re-spawns restore from the latest persisted record. Without a store,
    /// each run uses a private in-memory store — same code path, no
    /// durability across runs.
    pub fn with_store(mut self, store: Arc<dyn SnapshotStore>) -> NetSystem {
        self.store = Some(store);
        self
    }

    /// Installs a restart supervision policy (exponential backoff + jitter,
    /// restart budgets, quarantine). The policy rewrites the scripted plan
    /// into the effective plan before the run starts; interventions are
    /// reported in [`NetReport::supervisor`].
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> NetSystem {
        self.policy = policy;
        self
    }

    /// Scripts a *dirty* crash: at `tear.round` the cell dies mid-round —
    /// its write-ahead record tears halfway through the write, no
    /// transfers are sent, and the round is never sealed. The re-spawn at
    /// `tear.respawn` therefore restores the last durable *sealed* snapshot,
    /// which is stale by construction; the monitors treat the re-join as a
    /// state corruption (conservation rebaseline + stabilization epoch
    /// restart) and the certifier proves the protocol absorbs it.
    pub fn with_tear(mut self, tear: TearSpec) -> NetSystem {
        self.tears.push(tear);
        self
    }

    /// Attaches a telemetry bundle: barrier-wait and per-cell round latency
    /// histograms, message/WAL/supervisor/timeout counters, and the
    /// structured event log the monitor collector streams round events
    /// into. A round timeout additionally emits an [`Event::Timeout`] line,
    /// which dumps the flight recorder when the log carries one.
    pub fn with_telemetry(mut self, telemetry: Arc<NetTelemetry>) -> NetSystem {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a causal tracer. Every envelope a cell sends carries the
    /// sender's deterministic cell-round span id ([`Tracer::cell_round_id`])
    /// as its [`Envelope::cause`], the barrier records which cell's arrival
    /// closed each generation (the critical path), and the collector emits a
    /// span tree per round into the telemetry event log — including, on a
    /// round timeout, a `timeout` span whose `silent` children name the
    /// cells whose cell-round never happened. No-op without
    /// [`NetSystem::with_telemetry`].
    pub fn with_tracer(mut self, tracer: Tracer) -> NetSystem {
        self.tracer = Some(tracer);
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The scripted fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Runs `rounds` rounds and returns the assembled outcome.
    ///
    /// # Errors
    ///
    /// [`NetError::NodePanicked`] if a worker thread or a monitor panicked;
    /// [`NetError::Timeout`] if a cell went silent without a scripted
    /// hand-over (e.g. [`FaultKind::Kill`]) and the survivors timed out.
    pub fn run(&self, rounds: u64) -> Result<NetReport, NetError> {
        self.run_monitored(rounds, Vec::new())
    }

    /// Runs `rounds` rounds with online monitors: a collector thread
    /// assembles every round's global state from per-node snapshots and
    /// evaluates each monitor against it. Violations and per-monitor
    /// summaries land in the report.
    ///
    /// # Errors
    ///
    /// As [`NetSystem::run`].
    pub fn run_monitored(
        &self,
        rounds: u64,
        monitors: Vec<Box<dyn Monitor>>,
    ) -> Result<NetReport, NetError> {
        self.run_monitored_recorded(rounds, monitors, None)
            .map(|(report, _)| report)
    }

    /// [`NetSystem::run_monitored`] with an optional flight recorder: the
    /// monitor collector — which already reassembles every round's global
    /// state from the cells' sealed snapshots — additionally feeds each
    /// assembled state to the recorder (an opening keyframe for the initial
    /// state at round 0, then one frame per completed round). Returns the
    /// finished recording bytes alongside the report; `None` when no
    /// recorder was attached. Attaching a recorder forces the collector on
    /// even with no monitors installed.
    ///
    /// # Errors
    ///
    /// As [`NetSystem::run`]. On error the recording is discarded — a run
    /// that died mid-round has no complete frame sequence to certify.
    pub fn run_monitored_recorded(
        &self,
        rounds: u64,
        monitors: Vec<Box<dyn Monitor>>,
        recorder: Option<Box<cellflow_core::snapshot::Recorder>>,
    ) -> Result<(NetReport, Option<Vec<u8>>), NetError> {
        let dims = self.config.dims();
        let cells: Vec<CellId> = dims.iter().collect();
        let n = cells.len();
        let collect = !monitors.is_empty() || recorder.is_some();

        // Supervision is a deterministic plan rewrite, applied up front:
        // workers and the collector both consume the effective plan.
        let (effective, decisions) = self.policy.rewrite(&self.plan);
        let telemetry = self.telemetry.as_deref();
        if let Some(tel) = telemetry {
            tel.supervisor_interventions.add(decisions.len() as u64);
            // The rewrite happens before round 0, so its events carry
            // round 0 and never disturb the stream's round order.
            for d in &decisions {
                let action = match d {
                    SupervisorDecision::Backoff { .. } => "backoff",
                    SupervisorDecision::Quarantine { .. } => "quarantine",
                };
                tel.emit(
                    0,
                    Event::Supervisor {
                        action: action.to_string(),
                        detail: format!("{d:?}"),
                    },
                );
            }
        }

        // Uniform recovery path: hard-crash re-spawns always go through the
        // snapshot store. A run without a configured store gets a private
        // in-memory one.
        let store: Arc<dyn SnapshotStore> = self
            .store
            .clone()
            .unwrap_or_else(|| Arc::new(MemoryStore::new()));

        // The fabric: perfect unless chaos is configured, with scripted
        // link faults layered on top when a partition is scripted.
        let chaos_transport = self.chaos.map(ChaosTransport::new);
        let base: &dyn Transport = match &chaos_transport {
            Some(t) => t,
            None => &PerfectTransport,
        };
        let schedule = self.partition.as_ref().map(|p| p.expand(rounds));
        let link_transport = schedule
            .as_ref()
            .map(|s| LinkFaultTransport::new(base, s.clone()));
        let transport: &dyn Transport = match &link_transport {
            Some(t) => t,
            None => base,
        };

        // One mailbox per cell, in `cells` (arena index) order; every
        // neighbor will hold a link to it.
        let mailboxes: Vec<Arc<Mailbox>> = cells.iter().map(|_| Arc::default()).collect();

        let mut barrier = RoundBarrier::new(n, self.round_timeout);
        if self.tracer.is_some() && telemetry.is_some() {
            // Barrier-wait critical path: record which cell closed each
            // generation so the round span can name its last completer.
            barrier = barrier.with_completion_log();
        }
        let barrier = barrier;
        let (result_tx, result_rx) = channel::<(CellId, CellState, u64, u64)>();
        let (snap_tx, snap_rx) = channel::<Snapshot>();
        // The first worker panic's message. A worker catches its own panic,
        // since `std::thread::scope` would replace the message with its
        // own, and aborts the barrier so nobody waits out the timeout.
        let worker_panic: Mutex<Option<String>> = Mutex::new(None);

        let outcome = scope_catching(|scope| {
            let ctx = RunCtx {
                config: &self.config,
                plan: &effective,
                barrier: &barrier,
                rounds,
                collect,
                store: &*store,
                tears: &self.tears,
                telemetry,
                tracer: self.tracer,
            };
            // One worker per contiguous cell-id-ordered shard, with batched
            // barrier arrivals. A grid within the cap gets shards of one
            // cell: a worker per cell.
            for shard in cells.chunks(n.div_ceil(self.worker_cap)) {
                let slots: Vec<ShardSlot> = shard
                    .iter()
                    .map(|&id| {
                        let node = CellNode::new(id, &self.config);
                        let seat = Seat {
                            mailbox: Arc::clone(&mailboxes[dims.index(id)]),
                            spare: Vec::new(),
                            links: node
                                .neighbors()
                                .iter()
                                .map(|&nb| {
                                    let inbox = Arc::clone(&mailboxes[dims.index(nb)]);
                                    (nb, transport.link(id, nb, inbox))
                                })
                                .collect(),
                            result_tx: result_tx.clone(),
                            snap_tx: snap_tx.clone(),
                            messages: telemetry
                                .map(|t| t.messages_sent.clone())
                                .unwrap_or_else(Counter::noop),
                        };
                        ShardSlot {
                            id,
                            node,
                            seat,
                            heard: Heard::default(),
                            state: SlotState::Active,
                        }
                    })
                    .collect();
                let worker_panic = &worker_panic;
                scope.spawn(move || {
                    let first = slots[0].id;
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drive_shard(ctx, slots)))
                    {
                        lock_slot(worker_panic).get_or_insert_with(|| panic_message(&*payload));
                        ctx.barrier.abort(first);
                    }
                });
            }
            drop(result_tx);
            drop(snap_tx);

            // Ambient message chaos, per round, for the stabilization clock:
            // only drops/delays count (dup/reorder are absorbed by drains).
            let noisy_until = match &self.chaos {
                Some(c) if !c.is_lossless() => Some(c.until_round.unwrap_or(u64::MAX)),
                _ => None,
            };
            let collector = collect.then(|| {
                let patience = self.round_timeout.saturating_mul(16);
                let config = &self.config;
                let plan = &effective;
                let tears = &self.tears;
                let cells = &cells;
                let partition = schedule.as_ref();
                let tracer = self.tracer;
                let barrier = &barrier;
                scope.spawn(move || {
                    collect_rounds(
                        config,
                        plan,
                        tears,
                        rounds,
                        cells,
                        snap_rx,
                        monitors,
                        noisy_until,
                        partition,
                        patience,
                        telemetry,
                        tracer,
                        barrier,
                        recorder,
                    )
                })
            });

            // Assemble the final snapshot; every cell (or its last
            // incarnation) reports exactly once on the success path.
            let mut states: Vec<Option<CellState>> = vec![None; n];
            let mut consumed = 0u64;
            let mut inserted = 0u64;
            let mut reported = 0u64;
            let run_result = loop {
                if reported == n as u64 {
                    break Ok(());
                }
                match result_rx.recv() {
                    Ok((id, state, c, i)) => {
                        reported += 1;
                        consumed += c;
                        inserted += i;
                        states[dims.index(id)] = Some(state);
                    }
                    // All workers exited without all cells reporting: a
                    // worker panic or the barrier poison tells us why.
                    Err(_) => match (lock_slot(&worker_panic).take(), barrier.poison()) {
                        (Some(msg), _) => break Err(NetError::NodePanicked(msg)),
                        (None, Some(p)) => {
                            let round = p.round();
                            // A cell that cleanly withdrew its barrier seat
                            // (hard-crash awaiting re-spawn, tear window) is
                            // excused; a killed cell vanished without
                            // leaving and is exactly who the stall blames.
                            let mut excused = effective.hard_dead_at(round);
                            for c in effective.killed_at(round) {
                                excused.remove(&c);
                            }
                            for t in &self.tears {
                                if round >= t.round && (round < t.respawn || t.respawn >= rounds) {
                                    excused.insert(t.cell);
                                }
                            }
                            let silent: Vec<CellId> = cells
                                .iter()
                                .copied()
                                .filter(|c| !p.arrived.contains(c) && !excused.contains(c))
                                .collect();
                            break Err(NetError::Timeout {
                                round,
                                cell: p.cell,
                                silent,
                            });
                        }
                        (None, None) => {
                            break Err(NetError::Disconnected {
                                reported,
                                expected: n as u64,
                            })
                        }
                    },
                }
            };

            let (violations, monitor_summaries, recorder_back) = match collector {
                Some(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
                None => (Vec::new(), Vec::new(), None),
            };

            // The collector has stopped emitting, so a timeout line lands
            // after every round event — and dumps the flight recorder.
            if let Some(tel) = telemetry {
                if let Err(NetError::Timeout {
                    round,
                    cell,
                    silent,
                }) = &run_result
                {
                    tel.timeouts.inc();
                    let culprits = if silent.is_empty() {
                        "unattributed".to_string()
                    } else {
                        let names: Vec<String> = silent.iter().map(|c| c.to_string()).collect();
                        names.join(", ")
                    };
                    tel.emit(
                        *round,
                        Event::Timeout {
                            detail: format!(
                                "round {round} never completed; stall detected by cell \
                                 ({}, {}); silent: {culprits}",
                                cell.i(),
                                cell.j()
                            ),
                        },
                    );
                    // The stalled round never produced its span tree, so
                    // emit a `timeout` root (cell = the detector) whose
                    // `silent` children carry the exact cell-round id the
                    // culprits' envelopes would have borne as `cause` —
                    // the trace analyzer links the missing cell-rounds
                    // without any runtime state surviving the stall.
                    if let Some(tr) = self.tracer {
                        let r = *round + 1;
                        let mut b = SpanBuilder::new(r);
                        b.open(tr.span_id(r, SpanKind::Timeout, 0), SpanKind::Timeout);
                        b.set_cell(*cell);
                        for &culprit in silent {
                            b.leaf(
                                tr.cell_round_id(r, culprit),
                                SpanKind::Silent,
                                Some(culprit),
                                1,
                                0,
                            );
                        }
                        for event in b.finish() {
                            tel.emit(r, event);
                        }
                    }
                }
                tel.flush();
            }

            run_result.map(|()| {
                (
                    NetReport {
                        state: SystemState {
                            cells: states
                                .into_iter()
                                .map(|s| s.expect("every cell reported"))
                                .collect(),
                            // The distributed runtime has no global counter;
                            // expose the number of insertions instead
                            // (identifiers come from per-source pools).
                            next_entity_id: inserted,
                        },
                        consumed,
                        inserted,
                        chaos: ChaosStats::default(),
                        links: LinkStats::default(),
                        violations,
                        monitor_summaries,
                        supervisor: decisions.clone(),
                    },
                    recorder_back.map(|r| r.finish()),
                )
            })
        });

        if let Some(msg) = lock_slot(&worker_panic).take() {
            return Err(NetError::NodePanicked(msg));
        }
        let (mut report, recording) = match outcome {
            Ok(inner) => inner?,
            Err(panic) => return Err(NetError::NodePanicked(panic_message(&*panic))),
        };
        if let Some(t) = &chaos_transport {
            report.chaos = t.stats();
        }
        if let Some(t) = &link_transport {
            report.links = t.stats();
            if let Some(tel) = &self.telemetry {
                tel.links_suppressed.add(report.links.suppressed);
            }
        }
        Ok((report, recording))
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Locks the worker-panic slot; a panic while it is held cannot happen,
/// so a poisoned lock is taken as it is.
fn lock_slot(slot: &Mutex<Option<String>>) -> std::sync::MutexGuard<'_, Option<String>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`std::thread::scope`], with a panic in any scoped thread (or in `f`)
/// caught once every thread is joined and returned as `Err(payload)`: the
/// run turns it into [`NetError::NodePanicked`]. Workers catch their own
/// panics, so this catches the collector's and the coordinator's.
fn scope_catching<'env, F, T>(f: F) -> std::thread::Result<T>
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
{
    catch_unwind(AssertUnwindSafe(|| std::thread::scope(f)))
}

/// Run-wide immutable context shared by every worker.
#[derive(Clone, Copy)]
struct RunCtx<'a> {
    config: &'a SystemConfig,
    plan: &'a FaultPlan,
    barrier: &'a RoundBarrier,
    rounds: u64,
    collect: bool,
    store: &'a dyn SnapshotStore,
    tears: &'a [TearSpec],
    telemetry: Option<&'a NetTelemetry>,
    tracer: Option<Tracer>,
}

impl RunCtx<'_> {
    /// A batched barrier arrival for a shard — one check-in for every live
    /// seat the worker drives — timed into the telemetry histogram when
    /// attached.
    fn wait_many(&self, cells: &[CellId]) -> Result<(), PoisonInfo> {
        match self.telemetry {
            None => self.barrier.arrive_many(cells),
            Some(t) => {
                let span = t.barrier_wait_ns.start();
                let result = self.barrier.arrive_many(cells);
                drop(span);
                result
            }
        }
    }

    /// A counted store append (the write-ahead/seal discipline).
    fn persist(&self, cell: CellId, record: &PersistedRecord) {
        self.store
            .append(cell, record)
            .expect("snapshot store append");
        if let Some(t) = self.telemetry {
            t.wal_appends.inc();
        }
    }

    /// The causal id `cell`'s envelopes carry in (0-based) `round`: its
    /// cell-round span id under the collector's 1-based round numbering, or
    /// 0 when tracing is off.
    fn cause(&self, round: u64, cell: CellId) -> u64 {
        self.tracer.map_or(0, |t| t.cell_round_id(round + 1, cell))
    }

    /// Records how many envelopes one inbox drain pulled.
    fn observe_drain(&self, drained: u64) {
        if let Some(t) = self.telemetry {
            t.inbox_batch.observe(drained);
        }
    }
}

/// One cell's connections (everything but the node itself, which a
/// hard-crash re-spawn replaces from a checkpoint).
struct Seat {
    mailbox: Arc<Mailbox>,
    /// The empty buffer the next drain swaps into `mailbox`.
    spare: Vec<Envelope>,
    /// One outgoing link per neighbor, in [`CellNode::neighbors`] order.
    links: Vec<(CellId, Box<dyn EdgeLink>)>,
    result_tx: Sender<(CellId, CellState, u64, u64)>,
    snap_tx: Sender<Snapshot>,
    /// Handle into `cellflow_net_messages_sent_total` (a no-op counter when
    /// telemetry is detached).
    messages: Counter,
}

impl Seat {
    fn broadcast(&mut self, round: u64, cause: u64, make: impl Fn() -> Message) {
        for (_, link) in self.links.iter_mut() {
            link.send(Envelope {
                round,
                cause,
                msg: make(),
            });
            self.messages.inc();
        }
    }

    fn flush(&mut self) {
        for (_, link) in self.links.iter_mut() {
            link.flush();
        }
    }

    /// Drains the mailbox for one exchange, handing each envelope of
    /// `round` to `keep`; a straggler from an earlier round is footnote-1
    /// silence. Returns how many envelopes the drain pulled.
    fn drain(&mut self, round: u64, mut keep: impl FnMut(Message)) -> u64 {
        self.mailbox.swap(&mut self.spare);
        let drained = self.spare.len() as u64;
        for env in self.spare.drain(..) {
            if env.round == round {
                keep(env.msg);
            }
        }
        drained
    }

    /// Drains one announcement exchange into `slots`, one per neighbor in
    /// `neighbors` order: each payload `pick` accepts lands in its sender's
    /// slot, and a neighbor that sent none stays `None`. Duplicates carry
    /// the same payload, so the last one wins harmlessly.
    fn hear<T: Copy>(
        &mut self,
        round: u64,
        neighbors: &[CellId],
        slots: &mut [Option<T>; MAX_DEGREE],
        pick: impl Fn(Message) -> Option<(CellId, T)>,
    ) -> u64 {
        *slots = [None; MAX_DEGREE];
        self.drain(round, |msg| {
            if let Some((from, payload)) = pick(msg) {
                if let Some(at) = neighbors.iter().position(|&n| n == from) {
                    slots[at] = Some(payload);
                }
            }
        })
    }
}

/// What one slot heard this round: each announcement exchange as one slot
/// per neighbor in [`CellNode::neighbors`] order (`None` is silence), and
/// the entities that crossed in. Reused from round to round.
#[derive(Default)]
struct Heard {
    dists: [Option<Dist>; MAX_DEGREE],
    routes: [Option<(Option<CellId>, bool)>; MAX_DEGREE],
    signals: [Option<Option<CellId>>; MAX_DEGREE],
    transfers: Vec<(EntityId, Point)>,
}

/// Where one slot is in its lifecycle.
enum SlotState {
    /// Participating in rounds: a live barrier seat, messages flowing.
    Active,
    /// Hard-crashed or torn with a scripted re-spawn: the barrier seat is
    /// reserved at `respawn * WAITS_PER_ROUND` and the slot restores from
    /// the snapshot store when the worker's loop reaches that round.
    Dormant { respawn: u64 },
    /// Out of the run for good: killed (seat never withdrawn, so the stall
    /// attributes to it) or finished (seat left, final state reported).
    Gone,
}

/// One cell driven by a worker: its node, its seat, what it heard this
/// round, and where it is in its lifecycle.
struct ShardSlot {
    id: CellId,
    node: CellNode,
    seat: Seat,
    heard: Heard,
    state: SlotState,
}

impl ShardSlot {
    /// Reports this slot's final state on the result channel: once per
    /// cell, when it finishes the run or leaves it for good.
    fn report(&mut self) {
        let state = self.node.state().clone();
        let (c, i) = (self.node.consumed, self.node.inserted);
        self.seat.result_tx.send((self.id, state, c, i)).ok();
    }
}

/// One node's end-of-round report to the monitor collector.
struct Snapshot {
    round: u64,
    id: CellId,
    state: CellState,
    consumed: u64,
    inserted: u64,
}

/// The worker body: drives a contiguous shard of cells through the
/// protocol round, checking every live seat into the barrier with one
/// batched arrival per wait point. Exits silently when the barrier poisons
/// (the coordinator reads the poison).
///
/// Reports do not depend on the shard shape because the barrier fences
/// every send from every drain: all of a worker's slots broadcast and flush
/// *before* the batched arrival, and no slot drains until the generation
/// advances — which requires every other worker's sends to have flushed
/// too. Within a worker, slots are processed in cell-id order at each step,
/// but no step reads another slot's same-step output, so the order is
/// unobservable.
///
/// Lifecycle: a hard crash seals the frozen-failed snapshot and either
/// withdraws the cell's barrier seat, reserving it again at the scripted
/// re-spawn round (slot goes [`SlotState::Dormant`]), or leaves and
/// reports; a tear appends a torn intent record and does the same; a kill
/// flips the slot to [`SlotState::Gone`] *without* withdrawing its seat, so
/// the next barrier wait times out and the stall attributes to the killed
/// cell. Because the worker advances in lockstep with the barrier, its loop
/// reaches round `respawn` exactly when the reserved seat activates, and
/// the slot restores from the snapshot store there. That needs no
/// rendezvous unless the whole shard is dormant (always so for a shard of
/// one), in which case the worker parks on
/// [`RoundBarrier::wait_for_generation`].
fn drive_shard(ctx: RunCtx<'_>, mut slots: Vec<ShardSlot>) {
    // Per-round buffers, reused so a steady round allocates nothing: the
    // live slots' positions, their barrier seats, and one slot's outgoing
    // transfers.
    let mut live: Vec<usize> = Vec::with_capacity(slots.len());
    let mut seats: Vec<CellId> = Vec::with_capacity(slots.len());
    let mut outgoing: Vec<(CellId, EntityId, Point)> = Vec::new();
    let mut round = 0;
    while round < ctx.rounds {
        // Wall-clock of one full worker round (all slots), waits included.
        let round_span = ctx.telemetry.map(|t| t.cell_round_ns.start());

        // Re-spawns due this round restore from the latest persisted
        // snapshot — the uniform recovery path. After a hard crash that is
        // the sealed frozen-failed state, which the scripted Recover at
        // `respawn` un-fails; after a tear it is the previous round's seal,
        // a *stale live* state the protocol must re-stabilize from; with no
        // record at all (a tear in round 0) the cell starts fresh.
        for slot in slots.iter_mut() {
            if let SlotState::Dormant { respawn } = slot.state {
                if respawn == round {
                    slot.node = match ctx.store.latest(slot.id).expect("snapshot store read") {
                        Some(r) => CellNode::restore(slot.id, ctx.config, r.checkpoint, round),
                        None => CellNode::new(slot.id, ctx.config),
                    };
                    slot.state = SlotState::Active;
                }
            }
        }

        // Scripted fault transitions, then the scripted dirty crash.
        for slot in slots.iter_mut() {
            if !matches!(slot.state, SlotState::Active) {
                continue;
            }
            for event in ctx.plan.events_at_for(round, slot.id) {
                match event.kind {
                    FaultKind::Crash | FaultKind::OverloadCrash => slot.node.fail(),
                    FaultKind::Recover => slot.node.recover(),
                    FaultKind::Corrupt(c) => slot.node.corrupt(c),
                    FaultKind::HardCrash => {
                        // The deployment-level crash: apply the protocol
                        // `fail` (so the persisted snapshot is the paper's
                        // frozen failed state), seal it into the store, and
                        // withdraw the barrier seat — reserved again at the
                        // scripted re-spawn, if any falls inside the run.
                        slot.node.fail();
                        let record = PersistedRecord {
                            round,
                            point: RecordPoint::Sealed,
                            checkpoint: slot.node.checkpoint(),
                        };
                        ctx.persist(slot.id, &record);
                        match ctx.plan.respawn_round_after(slot.id, round) {
                            Some(respawn) if respawn < ctx.rounds => {
                                ctx.barrier.leave_and_rejoin_at(respawn * WAITS_PER_ROUND);
                                slot.state = SlotState::Dormant { respawn };
                            }
                            _ => {
                                ctx.barrier.leave();
                                slot.report();
                                slot.state = SlotState::Gone;
                            }
                        }
                        break;
                    }
                    FaultKind::Kill => {
                        // Vanish without ceremony: no leave, no report. The
                        // next barrier wait times out and the run degrades
                        // to a typed error instead of deadlocking.
                        slot.state = SlotState::Gone;
                        break;
                    }
                }
            }
            if !matches!(slot.state, SlotState::Active) {
                continue;
            }
            // Scripted dirty crash: the cell dies mid-round — the
            // write-ahead record tears halfway through its write, nothing
            // is sent, and the round is never sealed.
            if let Some(&tear) = ctx
                .tears
                .iter()
                .find(|t| t.cell == slot.id && t.round == round)
            {
                let record = PersistedRecord {
                    round,
                    point: RecordPoint::Intent,
                    checkpoint: slot.node.checkpoint(),
                };
                ctx.store
                    .append_torn(slot.id, &record)
                    .expect("snapshot store append");
                if let Some(t) = ctx.telemetry {
                    t.wal_appends.inc();
                }
                if tear.respawn < ctx.rounds {
                    ctx.barrier
                        .leave_and_rejoin_at(tear.respawn * WAITS_PER_ROUND);
                    slot.state = SlotState::Dormant {
                        respawn: tear.respawn,
                    };
                } else {
                    ctx.barrier.leave();
                    slot.report();
                    slot.state = SlotState::Gone;
                }
            }
        }

        live.clear();
        live.extend((0..slots.len()).filter(|&k| matches!(slots[k].state, SlotState::Active)));
        seats.clear();
        seats.extend(live.iter().map(|&k| slots[k].id));
        if seats.is_empty() {
            // Nothing live in this shard. If anything is dormant, park until
            // the earliest reserved seat's generation (the other workers
            // drive the barrier there); otherwise the worker is done. The
            // round sample closes first: the dormant rounds are no round's
            // work.
            drop(round_span);
            let next = slots
                .iter()
                .filter_map(|s| match s.state {
                    SlotState::Dormant { respawn } => Some((respawn, s.id)),
                    _ => None,
                })
                .min();
            match next {
                Some((respawn, id)) => {
                    if ctx
                        .barrier
                        .wait_for_generation(id, respawn * WAITS_PER_ROUND)
                        .is_err()
                    {
                        return;
                    }
                    round = respawn;
                    continue;
                }
                None => return,
            }
        }

        // Exchange 1: dist → Route.
        for &k in &live {
            let slot = &mut slots[k];
            if let Some(dist) = slot.node.announce_dist() {
                let id = slot.id;
                let cause = ctx.cause(round, id);
                slot.seat
                    .broadcast(round, cause, || Message::DistAnnounce { from: id, dist });
            }
            slot.seat.flush();
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot {
                node, seat, heard, ..
            } = &mut slots[k];
            let drained = seat.hear(round, node.neighbors(), &mut heard.dists, |msg| match msg {
                Message::DistAnnounce { from, dist } => Some((from, dist)),
                _ => None,
            });
            ctx.observe_drain(drained);
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot { node, heard, .. } = &mut slots[k];
            node.route_step(&heard.dists[..node.neighbors().len()]);
        }

        // Exchange 2: (next, nonempty) → Signal.
        for &k in &live {
            let slot = &mut slots[k];
            if let Some((next, nonempty)) = slot.node.announce_route() {
                let id = slot.id;
                let cause = ctx.cause(round, id);
                slot.seat
                    .broadcast(round, cause, || Message::RouteAnnounce {
                        from: id,
                        next,
                        nonempty,
                    });
            }
            slot.seat.flush();
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot {
                node, seat, heard, ..
            } = &mut slots[k];
            let drained = seat.hear(
                round,
                node.neighbors(),
                &mut heard.routes,
                |msg| match msg {
                    Message::RouteAnnounce {
                        from,
                        next,
                        nonempty,
                    } => Some((from, (next, nonempty))),
                    _ => None,
                },
            );
            ctx.observe_drain(drained);
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot { node, heard, .. } = &mut slots[k];
            node.signal_step(&heard.routes[..node.neighbors().len()]);
        }

        // Exchange 3: signal → Move.
        for &k in &live {
            let slot = &mut slots[k];
            if let Some(signal) = slot.node.announce_signal() {
                let id = slot.id;
                let cause = ctx.cause(round, id);
                slot.seat
                    .broadcast(round, cause, || Message::SignalAnnounce {
                        from: id,
                        signal,
                    });
            }
            slot.seat.flush();
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot {
                node, seat, heard, ..
            } = &mut slots[k];
            let drained = seat.hear(
                round,
                node.neighbors(),
                &mut heard.signals,
                |msg| match msg {
                    Message::SignalAnnounce { from, signal } => Some((from, signal)),
                    _ => None,
                },
            );
            ctx.observe_drain(drained);
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }

        // Exchange 4: Move — transfers travel as (chaos-exempt) messages.
        // The write-ahead discipline: persist an intent record *before* any
        // transfer leaves, so a crash between send and seal is visible in
        // the store instead of silently losing the round.
        for &k in &live {
            let ShardSlot {
                id,
                node,
                seat,
                heard,
                ..
            } = &mut slots[k];
            node.move_step(&heard.signals[..node.neighbors().len()], &mut outgoing);
            if !outgoing.is_empty() {
                let record = PersistedRecord {
                    round,
                    point: RecordPoint::Intent,
                    checkpoint: node.checkpoint(),
                };
                ctx.persist(*id, &record);
            }
            let cause = ctx.cause(round, *id);
            for (to, entity, pos) in outgoing.drain(..) {
                let link = seat
                    .links
                    .iter_mut()
                    .find(|(nb, _)| *nb == to)
                    .map(|(_, l)| l)
                    .expect("transfers go to neighbors");
                link.send(Envelope {
                    round,
                    cause,
                    msg: Message::Transfer {
                        from: *id,
                        entity,
                        pos,
                    },
                });
                seat.messages.inc();
            }
            seat.flush();
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let ShardSlot { seat, heard, .. } = &mut slots[k];
            let drained = seat.drain(round, |msg| {
                if let Message::Transfer { entity, pos, .. } = msg {
                    heard.transfers.push((entity, pos));
                }
            });
            ctx.observe_drain(drained);
        }
        if ctx.wait_many(&seats).is_err() {
            return;
        }
        for &k in &live {
            let slot = &mut slots[k];
            slot.node.receive_transfers(slot.heard.transfers.drain(..));
            slot.node.source_step();
            slot.node.finish_round();
            // Seal the round: the durable snapshot a re-spawn restores from.
            let record = PersistedRecord {
                round,
                point: RecordPoint::Sealed,
                checkpoint: slot.node.checkpoint(),
            };
            ctx.persist(slot.id, &record);
            if ctx.collect {
                slot.seat
                    .snap_tx
                    .send(Snapshot {
                        round,
                        id: slot.id,
                        state: slot.node.state().clone(),
                        consumed: slot.node.consumed,
                        inserted: slot.node.inserted,
                    })
                    .ok();
            }
        }
        round += 1;
    }
    for slot in slots.iter_mut() {
        if matches!(slot.state, SlotState::Active) {
            slot.report();
        }
    }
}

/// The monitor collector: reassembles each round's global state from node
/// snapshots and feeds it to the monitors. It keeps one [`SystemState`] and
/// moves each snapshot into its cell, so a round costs one comparison per
/// snapshot plus the monitors' work over the cells that changed. Hard-dead
/// cells (between a hard crash and its re-spawn) send nothing; the
/// collector carries their last reported state forward with the `fail`
/// transition applied, which is exactly the shared-variable reference's
/// reading of those rounds.
#[allow(clippy::too_many_arguments)]
fn collect_rounds(
    config: &SystemConfig,
    plan: &FaultPlan,
    tears: &[TearSpec],
    rounds: u64,
    cells: &[CellId],
    snap_rx: Receiver<Snapshot>,
    mut monitors: Vec<Box<dyn Monitor>>,
    noisy_until: Option<u64>,
    partition: Option<&PartitionSchedule>,
    patience: Duration,
    telemetry: Option<&NetTelemetry>,
    tracer: Option<Tracer>,
    barrier: &RoundBarrier,
    mut recorder: Option<Box<cellflow_core::snapshot::Recorder>>,
) -> (
    Vec<MonitorViolation>,
    Vec<String>,
    Option<Box<cellflow_core::snapshot::Recorder>>,
) {
    let dims = config.dims();
    let n = cells.len();
    let (mut prev_consumed, mut prev_inserted) = (0u64, 0u64);
    let (mut consumed_total, mut inserted_total) = (0u64, 0u64);
    // Each cell's latest (consumed, inserted) tallies, by arena index, and
    // the previous round's, so the tracer can attribute each round's
    // deliveries/insertions to the cell-round spans that produced them.
    let mut tallies = vec![(0u64, 0u64); n];
    let mut prev_tallies = tallies.clone();
    let mut state = SystemState {
        cells: cells
            .iter()
            .map(|&c| {
                if c == config.target() {
                    CellState::initial_target()
                } else {
                    CellState::initial()
                }
            })
            .collect(),
        next_entity_id: 0,
    };
    // The arena indices of the cells that differ from the previous round's
    // state: the monitors' `MonitorCtx::changed`.
    let mut changed: Vec<u32> = Vec::new();
    let mut violations = Vec::new();
    // The recording opens on the deployment's initial state — the keyframe
    // every replay re-derives the run from.
    if let Some(rec) = recorder.as_deref_mut() {
        rec.record(0, &state);
    }
    'rounds: for round in 0..rounds {
        let mut dead = plan.hard_dead_at(round);
        // Torn cells are silent between the tear and the re-spawn, exactly
        // like hard-dead cells.
        for t in tears {
            if (t.round..t.respawn.min(rounds)).contains(&round) {
                dead.insert(t.cell);
            }
        }
        let expect = n - dead.len();
        changed.clear();
        for _ in 0..expect {
            match snap_rx.recv_timeout(patience) {
                Ok(snap) => {
                    debug_assert_eq!(snap.round, round, "snapshots arrive in round order");
                    let k = dims.index(snap.id);
                    let (consumed, inserted) =
                        std::mem::replace(&mut tallies[k], (snap.consumed, snap.inserted));
                    consumed_total = consumed_total - consumed + snap.consumed;
                    inserted_total = inserted_total - inserted + snap.inserted;
                    if state.cells[k] != snap.state {
                        state.cells[k] = snap.state;
                        changed.push(k as u32);
                    }
                }
                // The run aborted (timeout/kill/panic): report what the
                // completed rounds established.
                Err(_) => break 'rounds,
            }
        }
        for &c in &dead {
            let k = dims.index(c);
            let cell = &mut state.cells[k];
            let live = !cell.failed
                || cell.dist != Dist::Infinity
                || cell.next.is_some()
                || cell.signal.is_some();
            if live {
                cell.failed = true;
                cell.dist = Dist::Infinity;
                cell.next = None;
                cell.signal = None;
                changed.push(k as u32);
            }
        }
        changed.sort_unstable();
        state.next_entity_id = inserted_total;
        // One frame per completed round, off the same sealed snapshots the
        // monitors read — the WAL seal is the recording's consistency point.
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(round + 1, &state);
        }
        let mut failed: Vec<CellId> = plan
            .events_at(round)
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Crash
                        | FaultKind::HardCrash
                        | FaultKind::Kill
                        | FaultKind::OverloadCrash
                )
            })
            .map(|e| e.cell)
            .collect();
        let mut recovered: Vec<CellId> = plan
            .events_at(round)
            .filter(|e| e.kind == FaultKind::Recover)
            .map(|e| e.cell)
            .collect();
        // Scripted corruptions disturb the state this round; a torn cell's
        // re-join does too, because it restores a stale sealed snapshot.
        let mut corrupted: Vec<CellId> = plan
            .events_at(round)
            .filter(|e| matches!(e.kind, FaultKind::Corrupt(_)))
            .map(|e| e.cell)
            .collect();
        for t in tears {
            if t.round == round {
                failed.push(t.cell);
            }
            if t.respawn == round {
                recovered.push(t.cell);
                corrupted.push(t.cell);
            }
        }
        let ctx = MonitorCtx {
            config,
            state: (&state).into(),
            round: round + 1,
            failed: &failed,
            recovered: &recovered,
            corrupted: &corrupted,
            // Rounds with lossy chaos or an active link cut disturb the
            // stabilization clock; it restarts when both cease.
            ambient_chaos: noisy_until.is_some_and(|limit| round < limit)
                || partition.is_some_and(|s| s.active(round)),
            consumed_total,
            inserted_total,
            changed: Some(&changed),
        };
        let fresh_violations = violations.len();
        for monitor in monitors.iter_mut() {
            violations.extend(monitor.observe(&ctx));
        }

        // Stream this round's events: fault transitions, fresh monitor
        // verdicts (which dump the flight recorder), and the rollup. Rounds
        // are tagged 1-based, matching the monitors' numbering.
        if let Some(tel) = telemetry {
            tel.rounds_collected.inc();
            tel.overload_crashes.add(
                plan.events_at(round)
                    .filter(|e| e.kind == FaultKind::OverloadCrash)
                    .count() as u64,
            );
            let r = round + 1;
            for &cell in &failed {
                tel.emit(r, Event::Fail { cell });
            }
            for &cell in &recovered {
                tel.emit(r, Event::Recover { cell });
            }
            for &cell in &corrupted {
                tel.emit(r, Event::Corrupt { cell });
            }
            for v in &violations[fresh_violations..] {
                tel.emit(
                    r,
                    Event::Violation {
                        monitor: v.monitor.to_string(),
                        detail: v.detail.clone(),
                    },
                );
            }
            tel.emit(
                r,
                Event::RoundSummary {
                    consumed: consumed_total.saturating_sub(prev_consumed),
                    inserted: inserted_total.saturating_sub(prev_inserted),
                    // Not observable from per-cell snapshots; the sim
                    // runner's stream carries real values for these.
                    blocked: 0,
                    moved: 0,
                },
            );

            // The round's causal span tree: a `round` root over fault
            // transitions, the barrier leaf (whose `cell` is the measured
            // last completer — the critical-path culprit everyone else
            // waited on), and one `cell` leaf per cell whose counters
            // moved, under the same id its envelopes carried as `cause`.
            if let Some(tr) = tracer {
                let mut b = SpanBuilder::new(r);
                b.open(tr.span_id(r, SpanKind::Round, 0), SpanKind::Round);
                b.add_work(expect as u64);
                let mut lanes = [
                    (SpanKind::Fault, &failed, 2u64),
                    (SpanKind::Recover, &recovered, 1),
                    (SpanKind::Corrupt, &corrupted, 1),
                ]
                .map(|(kind, cells, work)| {
                    let mut cells = cells.clone();
                    cells.sort_by_key(|c| (c.i(), c.j()));
                    cells.dedup();
                    (kind, cells, work)
                });
                for (kind, cells, work) in &mut lanes {
                    for &cell in cells.iter() {
                        b.leaf(
                            tr.span_id(r, *kind, cell_ordinal(cell)),
                            *kind,
                            Some(cell),
                            *work,
                            0,
                        );
                    }
                }
                b.leaf(
                    tr.span_id(r, SpanKind::Barrier, 0),
                    SpanKind::Barrier,
                    barrier.last_completer(round),
                    WAITS_PER_ROUND,
                    0,
                );
                for ((&cell, &(consumed, inserted)), prev) in
                    cells.iter().zip(&tallies).zip(&mut prev_tallies)
                {
                    let (pc, pi) = std::mem::replace(prev, (consumed, inserted));
                    let work = consumed.saturating_sub(pc) + inserted.saturating_sub(pi);
                    if work > 0 {
                        b.leaf(
                            tr.cell_round_id(r, cell),
                            SpanKind::Cell,
                            Some(cell),
                            work,
                            0,
                        );
                    }
                }
                for event in b.finish() {
                    tel.emit(r, event);
                }
            }
        }
        prev_consumed = consumed_total;
        prev_inserted = inserted_total;
    }
    let summaries = monitors.iter().map(|m| m.summary()).collect();
    (violations, summaries, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::Params;
    use cellflow_grid::GridDims;

    fn config(n: u16) -> SystemConfig {
        SystemConfig::new(
            GridDims::square(n),
            CellId::new(1, n - 1),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
    }

    #[test]
    fn traffic_flows_through_the_deployment() {
        let report = NetSystem::new(config(4)).unwrap().run(150).unwrap();
        assert!(report.consumed > 0, "nothing was delivered");
        assert_eq!(
            report.inserted,
            report.consumed + report.state.entity_count() as u64
        );
        assert_eq!(report.chaos, ChaosStats::default());
        assert!(report.violations.is_empty());
    }

    #[test]
    fn recorded_deployment_round_trips_through_the_recording() {
        use cellflow_core::snapshot::{self, Recorder};
        use cellflow_telemetry::{FrameKind, Recording};

        let cfg = config(4);
        let recorder = Box::new(Recorder::for_config(&cfg, 0, 8, "net"));
        let (report, recording) = NetSystem::new(cfg)
            .unwrap()
            .run_monitored_recorded(40, Vec::new(), Some(recorder))
            .unwrap();
        let bytes = recording.expect("a recorder was attached");
        let rec = Recording::parse(&bytes).unwrap();
        // One opening keyframe plus one frame per completed round.
        assert_eq!(rec.frames.len(), 41);
        assert_eq!(rec.frames[0].kind, FrameKind::Keyframe);
        assert_eq!(rec.round_span(), Some((0, 40)));
        // The final frame decodes back to exactly the reported state.
        let last = snapshot::state_at(&rec, 40).unwrap();
        assert_eq!(last.cells, report.state.cells);
        assert_eq!(last.next_entity_id, report.inserted);
    }

    #[test]
    fn runs_are_deterministic_despite_threading() {
        let a = NetSystem::new(config(4)).unwrap().run(100).unwrap();
        let b = NetSystem::new(config(4)).unwrap().run(100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_applies_failures_locally() {
        let schedule = [
            (10u64, CellId::new(1, 2), false),
            (60, CellId::new(1, 2), true),
        ];
        let report = NetSystem::new(config(4))
            .unwrap()
            .with_schedule(schedule)
            .run(200)
            .unwrap();
        // The cell recovered and traffic resumed.
        let dims = GridDims::square(4);
        assert!(!report.state.cell(dims, CellId::new(1, 2)).failed);
        assert!(report.consumed > 0);
    }

    #[test]
    fn partitioned_deployment_degrades_safely_and_matches_the_reference() {
        use cellflow_core::{PartitionPlan, System};

        let cfg = config(4);
        let plan = PartitionPlan::for_grid(GridDims::square(4)).split_col(2, 20, Some(80));
        let monitors = cellflow_core::standard_monitors(&cfg);
        let report = NetSystem::new(cfg.clone())
            .unwrap()
            .with_partition(plan.clone())
            .run_monitored(160, monitors)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.links.suppressed > 0, "the split suppressed traffic");
        assert!(report.consumed > 0, "the target-side island kept flowing");
        assert!(report
            .monitor_summaries
            .iter()
            .any(|s| s.contains("stabilized")));

        // The lockstep reference under the same per-round masks agrees
        // cell for cell: both executions read cut edges as silence.
        let schedule = plan.expand(160);
        let mut sys = System::new(cfg);
        for round in 0..160 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
        }
        assert_eq!(report.state.cells, sys.state().cells);
        assert_eq!(report.consumed, sys.consumed_total());
    }

    #[test]
    fn partitioned_runs_are_deterministic() {
        use cellflow_core::PartitionPlan;

        let run = || {
            let plan =
                PartitionPlan::for_grid(GridDims::square(4)).flaky_links(11, 300, 5, Some(60));
            NetSystem::new(config(4))
                .unwrap()
                .with_partition(plan)
                .run(120)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.links.suppressed > 0);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_partition_grid_is_rejected() {
        use cellflow_core::PartitionPlan;

        let plan = PartitionPlan::for_grid(GridDims::square(5)).split_col(2, 0, Some(10));
        let _ = NetSystem::new(config(4)).unwrap().with_partition(plan);
    }

    #[test]
    fn entity_budgets_are_rejected() {
        let err = NetSystem::new(config(4).with_entity_budget(3)).unwrap_err();
        assert!(matches!(err, NetError::UnsupportedConfig(_)));
        assert!(err.to_string().contains("global state"));
    }

    #[test]
    fn hard_crash_recovery_goes_through_the_store_uniformly() {
        // Same plan, explicit durable store vs. the default in-memory one:
        // recovery is the same code path, so the outcomes are identical.
        let plan = FaultPlan::new()
            .hard_crash_at(30, CellId::new(1, 2))
            .recover_at(60, CellId::new(1, 2));
        let dir =
            std::env::temp_dir().join(format!("cellflow-runtime-uniform-{}", std::process::id()));
        let store = crate::store::DurableStore::create(&dir).unwrap();
        let a = NetSystem::new(config(4))
            .unwrap()
            .with_plan(plan.clone())
            .with_store(Arc::new(store))
            .run(150)
            .unwrap();
        let b = NetSystem::new(config(4))
            .unwrap()
            .with_plan(plan)
            .run(150)
            .unwrap();
        assert_eq!(a, b, "store choice must not change observable behavior");
        assert!(!a.state.cell(GridDims::square(4), CellId::new(1, 2)).failed);
        assert!(a.consumed > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tear_respawn_is_absorbed_without_violations() {
        // A dirty crash tears the round-40 write-ahead record; the cell
        // re-joins at 50 from the round-39 seal — a stale live state. The
        // monitors must flag nothing: conservation rebaselines on the
        // corrupted round and the stabilization stopwatch restarts.
        let dir =
            std::env::temp_dir().join(format!("cellflow-runtime-tear-{}", std::process::id()));
        let store = crate::store::DurableStore::create(&dir).unwrap();
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let report = NetSystem::new(cfg)
            .unwrap()
            .with_store(Arc::new(store))
            .with_tear(TearSpec {
                cell: CellId::new(1, 2),
                round: 40,
                respawn: 50,
            })
            .run_monitored(160, monitors)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            !report
                .state
                .cell(GridDims::square(4), CellId::new(1, 2))
                .failed
        );
        assert!(report.consumed > 0);
        assert!(report
            .monitor_summaries
            .iter()
            .any(|s| s.contains("stabilized")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_events_apply_in_the_deployment() {
        let plan = FaultPlan::new().corrupt_at(
            20,
            CellId::new(2, 2),
            cellflow_core::Corruption::Scramble { salt: 9 },
        );
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let report = NetSystem::new(cfg)
            .unwrap()
            .with_plan(plan)
            .run_monitored(160, monitors)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report
            .monitor_summaries
            .iter()
            .any(|s| s.contains("stabilized")));
    }

    #[test]
    fn supervisor_decisions_surface_in_the_report() {
        let cell = CellId::new(1, 2);
        let plan = FaultPlan::new()
            .hard_crash_at(20, cell)
            .recover_at(30, cell)
            .hard_crash_at(60, cell)
            .recover_at(70, cell)
            .hard_crash_at(100, cell)
            .recover_at(110, cell);
        let policy = crate::RestartPolicy {
            backoff_base: 2,
            backoff_max: 8,
            restart_budget: 2,
            jitter_seed: 3,
        };
        let report = NetSystem::new(config(4))
            .unwrap()
            .with_plan(plan)
            .with_restart_policy(policy)
            .run(150)
            .unwrap();
        assert_eq!(report.supervisor.len(), 2, "{:?}", report.supervisor);
        assert!(matches!(
            report.supervisor[0],
            SupervisorDecision::Backoff {
                attempt: 2,
                scheduled: 70,
                ..
            }
        ));
        assert!(matches!(
            report.supervisor[1],
            SupervisorDecision::Quarantine {
                attempt: 3,
                dropped_respawn: 110,
                ..
            }
        ));
        // The quarantined cell stays down.
        assert!(report.state.cell(GridDims::square(4), cell).failed);
    }

    #[test]
    fn telemetry_captures_metrics_and_a_valid_event_stream() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer};

        let registry = Registry::new();
        let buffer = SharedBuffer::new();
        let tel = Arc::new(
            NetTelemetry::new(&registry)
                .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone()))),
        );
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let plan = FaultPlan::new()
            .crash_at(10, CellId::new(1, 2))
            .recover_at(30, CellId::new(1, 2));
        let report = NetSystem::new(cfg)
            .unwrap()
            .with_plan(plan)
            .with_telemetry(Arc::clone(&tel))
            .run_monitored(80, monitors)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        // Metrics: 16 cells × 80 rounds × 8 waits, minus early leavers — at
        // least the crashed cell's silent rounds. Just sanity-check shape.
        let by_name: std::collections::HashMap<String, cellflow_telemetry::MetricSnapshot> =
            registry
                .snapshot()
                .into_iter()
                .map(|m| (m.name().to_string(), m))
                .collect();
        let waits = &by_name["cellflow_net_barrier_wait_ns"];
        if let cellflow_telemetry::MetricSnapshot::Histogram { count, .. } = waits {
            assert_eq!(*count, 16 * 80 * WAITS_PER_ROUND);
        } else {
            panic!("barrier waits must be a histogram");
        }
        if let cellflow_telemetry::MetricSnapshot::Counter { value, .. } =
            &by_name["cellflow_net_rounds_total"]
        {
            assert_eq!(*value, 80);
        } else {
            panic!("rounds must be a counter");
        }
        if let cellflow_telemetry::MetricSnapshot::Counter { value, .. } =
            &by_name["cellflow_net_wal_appends_total"]
        {
            assert!(*value >= 16 * 80, "every round seals: {value}");
        } else {
            panic!("wal appends must be a counter");
        }

        // Event stream: schema-valid, one fail + one recover, 80 rollups.
        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        let kind = |k: &str| stats.by_kind.iter().find(|(n, _)| n == k).map(|(_, c)| *c);
        assert_eq!(kind("fail"), Some(1));
        assert_eq!(kind("recover"), Some(1));
        assert_eq!(kind("round_summary"), Some(80));
        assert_eq!(stats.violations, 0);
        assert_eq!(stats.last_round, 80);
    }

    #[test]
    fn timeout_attributes_the_silent_cell() {
        let victim = CellId::new(2, 2);
        let err = NetSystem::new(config(4))
            .unwrap()
            .with_plan(FaultPlan::new().kill_at(20, victim))
            .with_round_timeout(Duration::from_millis(200))
            .run(60)
            .unwrap_err();
        match &err {
            NetError::Timeout { round, silent, .. } => {
                assert_eq!(*round, 20);
                assert_eq!(silent, &[victim], "the kill victim is the culprit");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("silent cells ⟨2, 2⟩"), "{err}");
    }

    #[test]
    fn hard_crashed_cells_are_excused_from_timeout_blame() {
        // One cell hard-crashes (cleanly leaving its seat) while another is
        // killed: only the kill victim is silent without excuse.
        let excused = CellId::new(0, 1);
        let victim = CellId::new(2, 2);
        let plan = FaultPlan::new()
            .hard_crash_at(10, excused)
            .kill_at(20, victim);
        let err = NetSystem::new(config(4))
            .unwrap()
            .with_plan(plan)
            .with_round_timeout(Duration::from_millis(200))
            .run(60)
            .unwrap_err();
        match err {
            NetError::Timeout { silent, .. } => assert_eq!(silent, vec![victim]),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn timeout_emits_an_event_and_dumps_the_flight_recorder() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer};

        let dir =
            std::env::temp_dir().join(format!("cellflow-runtime-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("flight.jsonl");
        let buffer = SharedBuffer::new();
        let tel = Arc::new(
            NetTelemetry::new(&Registry::new()).with_event_log(
                EventLog::new()
                    .with_stream(Box::new(buffer.clone()))
                    .with_flight_path(dump.clone()),
            ),
        );
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let err = NetSystem::new(cfg)
            .unwrap()
            .with_plan(FaultPlan::new().kill_at(20, CellId::new(2, 2)))
            .with_round_timeout(Duration::from_millis(200))
            .with_telemetry(Arc::clone(&tel))
            .run_monitored(60, monitors)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");

        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        assert_eq!(stats.timeouts, 1, "the timeout reaches the stream");
        assert_eq!(tel.log_stats().1, 1, "one flight dump written");
        let dumped = std::fs::read_to_string(&dump).unwrap();
        let dump_stats = cellflow_telemetry::validate_stream(&dumped).unwrap();
        assert!(
            dump_stats.by_kind.iter().any(|(k, _)| k == "flight_header"),
            "dump starts with its header: {dumped}"
        );
        assert_eq!(dump_stats.timeouts, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broadcast_stamps_the_causal_id_on_every_envelope() {
        let from = CellId::new(1, 1);
        let to = CellId::new(1, 2);
        let inbox = Arc::new(Mailbox::new());
        let mut seat = Seat {
            mailbox: Arc::new(Mailbox::new()),
            spare: Vec::new(),
            links: vec![(to, PerfectTransport.link(from, to, Arc::clone(&inbox)))],
            result_tx: channel().0,
            snap_tx: channel().0,
            messages: Counter::noop(),
        };
        let tracer = Tracer::new(7);
        let cause = tracer.cell_round_id(4, from);
        seat.broadcast(3, cause, || Message::MoveDone { from });
        let mut delivered = Vec::new();
        inbox.swap(&mut delivered);
        let env = &delivered[0];
        assert_eq!(env.round, 3);
        assert_eq!(env.cause, cause, "the envelope carries the sender's id");
    }

    #[test]
    fn tracer_emits_causal_spans_and_names_timeout_culprits() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer, Trace};

        let victim = CellId::new(2, 2);
        let flapper = CellId::new(1, 2);
        let buffer = SharedBuffer::new();
        let tel = Arc::new(
            NetTelemetry::new(&Registry::new())
                .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone()))),
        );
        let tracer = Tracer::new(42);
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let plan = FaultPlan::new()
            .crash_at(5, flapper)
            .recover_at(8, flapper)
            .kill_at(20, victim);
        let err = NetSystem::new(cfg)
            .unwrap()
            .with_plan(plan)
            .with_round_timeout(Duration::from_millis(200))
            .with_telemetry(Arc::clone(&tel))
            .with_tracer(tracer)
            .run_monitored(60, monitors)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");

        let contents = buffer.contents();
        cellflow_telemetry::validate_stream(&contents).unwrap();
        let trace = Trace::parse(&contents).unwrap();
        trace.check_causality().unwrap();

        // Every cell/silent leaf uses the exact id the cell's envelopes
        // carry as `cause` for that round — the whole point of the scheme.
        let mut cell_leaves = 0;
        for span in &trace.spans {
            if let (true, Some(cell)) = (span.label == "cell" || span.label == "silent", span.cell)
            {
                cell_leaves += 1;
                assert_eq!(
                    span.id,
                    tracer.cell_round_id(span.round, cell),
                    "round {} leaf for ({}, {})",
                    span.round,
                    cell.i(),
                    cell.j()
                );
            }
        }
        assert!(cell_leaves > 0, "traced rounds attribute work to cells");
        for label in ["round", "barrier", "fault", "recover", "timeout"] {
            assert!(
                trace.spans.iter().any(|s| s.label == label),
                "missing {label} spans:\n{contents}"
            );
        }

        // The stalled round (0-based 20 → stream tag 21) names the killed
        // cell as the last-arriving culprit.
        let timed_out = trace.timed_out();
        assert_eq!(timed_out, vec![(21, vec![victim])]);
    }

    #[test]
    fn tracer_leaves_the_stream_byte_identical_when_absent() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer};

        let run = |traced: bool| {
            let buffer = SharedBuffer::new();
            let tel = Arc::new(
                NetTelemetry::new(&Registry::new())
                    .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone()))),
            );
            let cfg = config(4);
            let monitors = cellflow_core::standard_monitors(&cfg);
            let mut sys = NetSystem::new(cfg)
                .unwrap()
                .with_telemetry(Arc::clone(&tel));
            if traced {
                sys = sys.with_tracer(Tracer::new(42));
            }
            sys.run_monitored(40, monitors).unwrap();
            buffer.contents()
        };
        let plain = run(false);
        let traced = run(true);
        let traced_without_spans: String = traced
            .lines()
            .filter(|l| !l.contains("\"kind\":\"span\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            plain, traced_without_spans,
            "tracing only ever adds span lines"
        );
    }

    #[test]
    fn telemetry_does_not_change_observable_behavior() {
        use cellflow_telemetry::Registry;

        let tel = Arc::new(NetTelemetry::new(&Registry::new()));
        let plain = NetSystem::new(config(4)).unwrap().run(100).unwrap();
        let instrumented = NetSystem::new(config(4))
            .unwrap()
            .with_telemetry(tel)
            .run(100)
            .unwrap();
        assert_eq!(plain, instrumented);
    }

    #[test]
    fn reports_do_not_depend_on_shard_shape() {
        // The same faulty campaign — crash/recover, hard crash with
        // re-spawn, corruption, and a dirty tear — through three shard
        // shapes: 16 workers with one cell each (the hard-crashed and torn
        // cells' workers park while dormant), 3 workers driving 6/6/4
        // cells, and a single worker driving all 16. Reports must be
        // identical, monitors included.
        let run = |cap: usize| {
            let cfg = config(4);
            let monitors = cellflow_core::standard_monitors(&cfg);
            let plan = FaultPlan::new()
                .crash_at(10, CellId::new(0, 1))
                .recover_at(40, CellId::new(0, 1))
                .hard_crash_at(30, CellId::new(1, 2))
                .recover_at(60, CellId::new(1, 2))
                .corrupt_at(
                    70,
                    CellId::new(2, 2),
                    cellflow_core::Corruption::Scramble { salt: 5 },
                );
            NetSystem::new(cfg)
                .unwrap()
                .with_plan(plan)
                .with_tear(TearSpec {
                    cell: CellId::new(3, 3),
                    round: 50,
                    respawn: 80,
                })
                .with_worker_cap(cap)
                .run_monitored(150, monitors)
                .unwrap()
        };
        let singles = run(16);
        assert_eq!(run(3), singles);
        assert_eq!(run(1), singles);
        assert!(singles.consumed > 0, "the campaign kept flowing");
        assert!(singles.violations.is_empty(), "{:?}", singles.violations);
    }

    #[test]
    fn pooled_kill_still_attributes_the_silent_cell() {
        // A killed cell's slot stops arriving but its barrier seat is never
        // withdrawn, so even inside a shard of four live cells the stall
        // still names the victim.
        let victim = CellId::new(2, 2);
        let err = NetSystem::new(config(4))
            .unwrap()
            .with_plan(FaultPlan::new().kill_at(20, victim))
            .with_worker_cap(4)
            .with_round_timeout(Duration::from_millis(200))
            .run(60)
            .unwrap_err();
        match err {
            NetError::Timeout { round, silent, .. } => {
                assert_eq!(round, 20);
                assert_eq!(silent, vec![victim], "the kill victim is the culprit");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn pooled_large_grid_matches_the_shared_variable_reference() {
        use cellflow_core::System;

        // 32×32 = 1024 cells: far past the default cap of 64, so the run
        // multiplexes 16-cell shards onto pooled workers instead of
        // spawning a thousand OS threads — the cliff the cap removes.
        let cfg = config(32);
        let report = NetSystem::new(cfg.clone()).unwrap().run(48).unwrap();
        let mut sys = System::new(cfg);
        for _ in 0..48 {
            sys.step();
        }
        assert_eq!(report.state.cells, sys.state().cells);
        assert_eq!(report.consumed, sys.consumed_total());
        assert!(report.state.entity_count() > 0, "traffic is in flight");
    }

    #[test]
    fn monitored_clean_run_reports_summaries() {
        let cfg = config(4);
        let monitors = cellflow_core::standard_monitors(&cfg);
        let report = NetSystem::new(cfg)
            .unwrap()
            .run_monitored(80, monitors)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.monitor_summaries.len(), 4);
        assert!(report.monitor_summaries[0].contains("80 rounds"));
        assert!(report
            .monitor_summaries
            .iter()
            .any(|s| s.contains("stabilized")));
    }

    /// A monitor panics on the collector thread at round 5.
    struct PanickingMonitor;

    impl Monitor for PanickingMonitor {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
            assert!(ctx.round < 5, "monitor gave up at round {}", ctx.round);
            Vec::new()
        }

        fn summary(&self) -> String {
            String::new()
        }
    }

    /// A store whose appends for one cell panic.
    struct RefusingStore(MemoryStore);

    impl SnapshotStore for RefusingStore {
        fn append(
            &self,
            cell: CellId,
            record: &PersistedRecord,
        ) -> Result<(), crate::store::StoreError> {
            assert!(cell != CellId::new(1, 1), "store refused cell (1,1)");
            self.0.append(cell, record)
        }

        fn latest(
            &self,
            cell: CellId,
        ) -> Result<Option<PersistedRecord>, crate::store::StoreError> {
            self.0.latest(cell)
        }
    }

    /// A worker that panics stops the run at once with its own message:
    /// its peers and the collector do not wait out the round timeout.
    #[test]
    fn a_panicking_worker_fails_the_run_at_once_with_its_message() {
        let started = std::time::Instant::now();
        let err = NetSystem::new(config(3))
            .unwrap()
            .with_round_timeout(Duration::from_secs(30))
            .with_store(Arc::new(RefusingStore(MemoryStore::new())))
            .run_monitored(20, cellflow_core::standard_monitors(&config(3)))
            .unwrap_err();
        let elapsed = started.elapsed();
        match err {
            NetError::NodePanicked(msg) => {
                assert!(msg.contains("store refused cell (1,1)"), "{msg}")
            }
            other => panic!("expected NodePanicked, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "the run took {elapsed:?} to report the panic"
        );
    }

    #[test]
    fn a_panicking_monitor_fails_the_run_as_node_panicked() {
        let err = NetSystem::new(config(3))
            .unwrap()
            .run_monitored(20, vec![Box::new(PanickingMonitor)])
            .unwrap_err();
        match err {
            NetError::NodePanicked(msg) => {
                assert!(msg.contains("monitor gave up at round 5"), "{msg}")
            }
            other => panic!("expected NodePanicked, got {other:?}"),
        }
    }
}
