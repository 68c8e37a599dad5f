//! # nisq-machine — NISQ hardware model
//!
//! The hardware-side substrate of the noise-adaptive compiler: pluggable
//! machine topologies described by a [`TopologySpec`] (the 16-qubit IBMQ16
//! layout the paper evaluates on, arbitrary NxM grids, rings and
//! heavy-hex-style lattices), machine calibration data (coherence times,
//! gate/readout error rates, gate durations), a synthetic calibration
//! *generator* that reproduces the spatial and temporal variation
//! statistics reported in the paper (Figure 1 and Section 2) for **any**
//! topology, and the reliability matrices (most-reliable swap paths,
//! best CNOT routes, one-bend-path CNOT reliabilities) the mapping
//! algorithms consume. [`route_cnot_reliability`] is the one pricing of a
//! routed CNOT's reliability; route durations are priced by `nisq-opt`'s
//! swap-back `route_duration`.
//!
//! In the paper this data comes from IBM's twice-daily calibration feed; we
//! substitute a statistically-matched generator (see the README's "What
//! this reproduction substitutes") so every experiment is reproducible
//! offline.
//!
//! # Example
//!
//! ```
//! use nisq_machine::{Machine, CalibrationGenerator, GridTopology};
//!
//! let topology = GridTopology::ibmq16();
//! let generator = CalibrationGenerator::new(topology.clone(), 42);
//! let calibration = generator.day(0);
//! let machine = Machine::new("IBMQ16", topology, calibration);
//! assert_eq!(machine.topology().num_qubits(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod error;
mod generator;
mod machine;
mod reliability;
mod topology;

pub use calibration::{Calibration, EdgeId, EdgeParams, GateDurations};
pub use error::MachineError;
pub use generator::CalibrationGenerator;
pub use machine::Machine;
pub use reliability::{route_cnot_reliability, PathInfo, ReliabilityModel};
pub use topology::{GridTopology, HwQubit, Topology, TopologySpec};

/// Duration of one hardware timeslot in nanoseconds (IBMQ16 value used
/// throughout the paper: results are reported in 80 ns timeslots).
pub const TIMESLOT_NS: f64 = 80.0;
