//! # cellular-flows
//!
//! A Rust implementation of *"Safe and Stabilizing Distributed Cellular Flows"*
//! (Taylor Johnson, Sayan Mitra, Karthik Manamcheri; ICDCS 2010): a distributed
//! traffic-control protocol on a partitioned plane that keeps entities safely
//! separated at all times — even under crash failures — and, once failures
//! cease, self-stabilizes so that every entity with a feasible path reaches the
//! target cell.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`geom`] — exact fixed-point planar geometry;
//! * [`grid`] — cell identifiers, paths (with turn counting), connectivity;
//! * [`dts`] — discrete transition systems and an explicit-state model checker;
//! * [`routing`] — the self-stabilizing distance-vector routing substrate;
//! * [`core`] — the cell automaton (`Route` / `Signal` / `Move`) and composed
//!   `System`: the paper's contribution;
//! * [`sim`] — simulation engine, failure models, metrics, and every experiment
//!   scenario from the paper's evaluation;
//! * [`cube`] — the three-dimensional extension named in the paper's
//!   conclusion (§V);
//! * [`multiflow`] — the multi-type flows extension named in the paper's
//!   conclusion (§V);
//! * [`net`] — a true message-passing deployment (shared-nothing cells on
//!   pooled worker threads, channels along edges), proven bit-equivalent to
//!   the shared-variable model;
//! * [`tess`] — the protocol over arbitrary rectangular tessellations
//!   (heterogeneous cell sizes), bit-equivalent to [`core`] on unit cells;
//! * [`telemetry`] — the unified observability layer: metric registry,
//!   phase-span timing, schema-versioned JSONL event streams, a bounded
//!   flight recorder, and Prometheus text exposition.
//!
//! # Quickstart
//!
//! ```
//! use cellular_flows::core::{Params, SystemConfig};
//! use cellular_flows::grid::{CellId, GridDims};
//! use cellular_flows::sim::Simulation;
//!
//! // An 8×8 grid: source at ⟨1,0⟩, target at ⟨1,7⟩ — the paper's Figure 7 setup.
//! let params = Params::from_milli(250, 50, 200)?; // l = 0.25, rs = 0.05, v = 0.2
//! let config = SystemConfig::new(GridDims::square(8), CellId::new(1, 7), params)?
//!     .with_source(CellId::new(1, 0));
//! let mut sim = Simulation::new(config, 42);
//! sim.run(2_500);
//! let throughput = sim.metrics().throughput();
//! assert!(throughput > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cellflow_core as core;
pub use cellflow_cube as cube;
pub use cellflow_dts as dts;
pub use cellflow_geom as geom;
pub use cellflow_grid as grid;
pub use cellflow_multiflow as multiflow;
pub use cellflow_net as net;
pub use cellflow_routing as routing;
pub use cellflow_sim as sim;
pub use cellflow_telemetry as telemetry;
pub use cellflow_tess as tess;
