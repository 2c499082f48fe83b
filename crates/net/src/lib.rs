//! Message-passing realization of the distributed cellular flows protocol.
//!
//! The paper specifies its protocol over *shared variables* (Figure 2) and
//! sketches the translation: *"At the beginning of each round,
//! `Cell_{i,j}` broadcasts messages containing the values of these variables
//! and receives similar values from its neighbors"* (§II-B). This crate is
//! that translation made concrete: a unidirectional link along every grid
//! edge into the receiving cell's [`Mailbox`], and no other shared state —
//! each cell owns its [`CellState`](cellflow_core::CellState) and learns
//! about its neighbors exclusively through messages. How cells map onto OS
//! threads is not part of the protocol: worker threads drive contiguous
//! shards of cells, one cell per worker while the grid fits the worker cap
//! ([`NetSystem::with_worker_cap`], default 64), and each worker checks all
//! its cells into the round barrier at once.
//!
//! # Round structure
//!
//! The atomic `update = Route; Signal; Move` of the shared-variable model
//! compiles to **three message exchanges per round**, because each phase
//! reads variables its neighbors computed *earlier in the same round*:
//!
//! 1. exchange `dist` → compute `Route` (new `dist`, `next`);
//! 2. exchange `(next, Members ≠ ∅)` → compute `Signal` (new `NEPrev`,
//!    `token`, `signal`);
//! 3. exchange `signal` → compute `Move`; entity transfers travel as
//!    messages and are incorporated before the round ends.
//!
//! Barriers separate the exchanges, mirroring the paper's synchrony
//! assumption (bounded message delay, instantaneous computation). After
//! each exchange a cell's worker drains its mailbox into one slot per
//! neighbor, and the phase reads those slots ([`CellNode::route_step`] and
//! its siblings). A steady round allocates nothing and hashes nothing on
//! this path: mailboxes and slots are reused from round to round.
//!
//! # Faults, chaos, and timeouts
//!
//! Messages travel over a pluggable [`Transport`]. The default
//! [`PerfectTransport`] delivers everything instantly; [`ChaosTransport`]
//! injects seeded, deterministic message faults (drop, delay, duplicate,
//! reorder) per edge, exempting entity transfers so conservation holds.
//! A cell that receives nothing from a neighbor treats it exactly as the
//! paper's footnote 1 prescribes for a failed cell — reads `dist = ∞` and
//! `signal = ⊥` — so lost messages degrade safely instead of corrupting
//! state.
//!
//! Scripted faults come from a [`FaultPlan`](cellflow_core::FaultPlan):
//! protocol-level crash/recover flags, *hard* crashes that seal the cell's
//! failed state into a [`SnapshotStore`] and withdraw its barrier seat
//! until the scripted recovery round, when it restores from the store, and
//! unrecoverable kills. Round synchronization uses a timeout-guarded
//! barrier ([`sync::RoundBarrier`]): a silent neighbor poisons the barrier
//! and the run returns a typed [`NetError::Timeout`] instead of
//! deadlocking.
//!
//! [`NetSystem::run_monitored`] additionally streams per-round snapshots to
//! a collector thread that reassembles the global state and evaluates
//! online [`Monitor`](cellflow_core::Monitor)s — safety (Theorem 5),
//! routing sanity, conservation, and the stabilization stopwatch
//! (Theorem 10) — reporting violations in the [`NetReport`]. The collector
//! keeps one assembled state, moves each snapshot into it, and hands the
//! monitors the cells that changed
//! ([`MonitorCtx::changed`](cellflow_core::monitor::MonitorCtx::changed)),
//! so they pay for the cells that moved rather than the whole grid.
//!
//! # Equivalence
//!
//! The observable behavior is **bit-identical** to the reference
//! shared-variable implementation in `cellflow-core`: integration tests run
//! both side by side (including under failure schedules) and compare entire
//! system states round by round. That is the mechanized version of the
//! paper's claim that the discrete-transition-system model faithfully
//! captures a message-passing deployment.
//!
//! ```
//! use cellflow_core::{Params, SystemConfig};
//! use cellflow_grid::{CellId, GridDims};
//! use cellflow_net::NetSystem;
//!
//! let config = SystemConfig::new(
//!     GridDims::square(4),
//!     CellId::new(3, 3),
//!     Params::from_milli(250, 50, 200)?,
//! )?
//! .with_source(CellId::new(0, 0));
//! let report = NetSystem::new(config)?.run(120)?;
//! assert!(report.consumed > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod message;
mod node;
mod runtime;
pub mod store;
mod supervisor;
pub mod sync;
mod telemetry;
mod transport;

pub use message::{Envelope, Message};
pub use node::{CellNode, NodeCheckpoint};
pub use runtime::{NetError, NetReport, NetSystem};
pub use store::{
    DurableStore, MemoryStore, PersistedRecord, RecordPoint, SnapshotStore, StoreError, TearSpec,
};
pub use supervisor::{RestartPolicy, SupervisorDecision};
pub use sync::{PoisonInfo, WAITS_PER_ROUND};
pub use telemetry::NetTelemetry;
pub use transport::{
    ChaosConfig, ChaosStats, ChaosTransport, EdgeLink, LinkFaultTransport, LinkStats, Mailbox,
    PerfectTransport, Transport,
};
