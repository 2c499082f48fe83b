//! The safe and stabilizing distributed cellular flows protocol.
//!
//! This crate implements the primary contribution of *"Safe and Stabilizing
//! Distributed Cellular Flows"* (Johnson, Mitra, Manamcheri; ICDCS 2010): a
//! synchronous distributed traffic-control protocol on an `N × N` grid of
//! unit-square cells, where the entities (vehicles, packages, …) within a cell
//! move as one. Each round, every non-faulty cell runs three functions:
//!
//! * **`Route`** ([`route_phase`]) — self-stabilizing distance-vector routing
//!   toward the target cell (paper Figure 4);
//! * **`Signal`** ([`signal_phase`]) — token-based permission granting that
//!   blocks a neighbor from sending entities unless a gap of
//!   `d = rs + l` is free at the shared boundary (Figure 5);
//! * **`Move`** ([`move_phase`]) — synchronized motion of a cell's entities at
//!   velocity `v`, with boundary transfers and target consumption (Figure 6).
//!
//! The protocol guarantees (and this crate mechanically checks, via
//! [`safety`] and the bounded model checker in [`mc`]):
//!
//! * **Safety** (Theorem 5): any two entities on the same cell are separated by
//!   at least `d` along some axis, in every reachable state, despite crashes;
//! * **Routing stabilization** (Lemma 6 / Corollary 7): `O(N²)` rounds after
//!   failures cease, all target-connected cells route correctly;
//! * **Progress** (Theorem 10): after failures cease, every entity on a
//!   target-connected cell is eventually consumed by the target.
//!
//! # Quick example
//!
//! ```
//! use cellflow_core::{Params, System, SystemConfig};
//! use cellflow_grid::{CellId, GridDims};
//!
//! // l = 0.25, rs = 0.05, v = 0.25: the fastest series in the paper's Fig. 7.
//! let params = Params::from_milli(250, 50, 250)?;
//! let config = SystemConfig::new(GridDims::square(8), CellId::new(1, 7), params)?
//!     .with_source(CellId::new(1, 0));
//! let mut system = System::new(config);
//! for _ in 0..200 {
//!     system.step();
//! }
//! assert!(system.consumed_total() > 0); // entities reached the target
//! assert!(cellflow_core::safety::check_safe(system.config(), system.state()).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cell;
pub mod certify;
pub mod engine;
mod entity;
pub mod fault;
pub mod hash;
pub mod kernel;
pub mod mc;
pub mod monitor;
mod move_fn;
pub mod overload;
mod params;
mod route;
pub mod safety;
mod signal;
pub mod snapshot;
mod source;
mod system;
mod token;
mod update;
mod view;

pub use cell::CellState;
pub use cellflow_routing::Dist;
pub use certify::{
    certify, certify_batch, certify_links, shrink, shrink_links, Certificate, CertifyOptions,
    CorruptionEvent, LinkCertificate,
};
pub use engine::{Engine, ExecMode, NeighborTable, RoundTrace};
pub use entity::{Entity, EntityId};
pub use fault::{
    CampaignSpec, Corruption, FaultCensus, FaultEvent, FaultKind, FaultPlan, FlakySpec, LinkFault,
    PartitionPlan, PartitionSchedule,
};
pub use monitor::{
    component_map, standard_monitors, Monitor, MonitorCtx, MonitorViolation, ReachabilityMonitor,
};
pub use move_fn::{move_phase, MoveOutcome, Transfer};
pub use overload::{
    expand_overload, BackoffPolicy, CascadeOutcome, CascadeStats, OverloadDetector, OverloadTrigger,
};
pub use params::{Params, ParamsError};
pub use route::route_phase;
pub use signal::{gap_free_toward, signal_phase};
pub use snapshot::{Divergence, Recorder, RegisterDiff};
pub use source::SourcePolicy;
pub use system::{ConfigError, System, SystemConfig, SystemState};
pub use token::TokenPolicy;
pub use update::{update, RoundEvents};
pub use view::{Members, StateView};
