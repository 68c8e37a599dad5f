//! # nisq — noise-adaptive compiler mappings for NISQ computers
//!
//! Facade crate re-exporting the whole toolchain of this reproduction of
//! *Noise-Adaptive Compiler Mappings for Noisy Intermediate-Scale Quantum
//! Computers* (ASPLOS 2019):
//!
//! * [`ir`] — circuit IR, benchmarks, OpenQASM ([`nisq_ir`])
//! * [`machine`] — topologies, calibration data and its synthetic generator
//!   ([`nisq_machine`])
//! * [`opt`] — the placement/scheduling optimization substrate
//!   ([`nisq_opt`])
//! * [`compiler`] — the noise-adaptive compiler itself ([`nisq_core`])
//! * [`sim`] — the noisy simulator used to measure success rates
//!   ([`nisq_sim`])
//! * [`exp`] — the declarative experiment API: [`SweepPlan`] workloads
//!   executed by a caching [`Session`] into serializable [`Report`]s
//!   ([`nisq_exp`])
//! * [`serve`] — the fault-tolerant `nisqc serve` daemon: a persistent
//!   session behind a line-delimited JSON protocol ([`nisq_serve`])
//!
//! The [`prelude`] pulls in the handful of types most programs need.
//!
//! # Example
//!
//! ```
//! use nisq::prelude::*;
//!
//! // Declare a workload — Bernstein-Vazirani under the noise-adaptive
//! // mapper and the baseline — and execute it through a caching session.
//! let plan = SweepPlan::new()
//!     .benchmark(Benchmark::Bv4)
//!     .config("Qiskit", CompilerConfig::qiskit())
//!     .config("R-SMT*", CompilerConfig::r_smt_star(0.5))
//!     .with_trials(256)
//!     .fixed_sim_seed(0);
//! let report = Session::new().run(&plan).unwrap();
//! let adaptive = report.require("BV4", "R-SMT*", 0);
//! assert!(adaptive.success() > 0.0);
//! assert!(adaptive.estimated_reliability > 0.0);
//! ```
//!
//! [`SweepPlan`]: prelude::SweepPlan
//! [`Session`]: prelude::Session
//! [`Report`]: prelude::Report

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nisq_core as compiler;
pub use nisq_exp as exp;
pub use nisq_ir as ir;
pub use nisq_machine as machine;
pub use nisq_opt as opt;
pub use nisq_serve as serve;
pub use nisq_sim as sim;

/// The types most users need, in one import.
pub mod prelude {
    pub use nisq_core::{Algorithm, CompiledCircuit, Compiler, CompilerConfig, RouteSelection};
    pub use nisq_exp::{
        CacheStats, Cell, CellRecord, CircuitSpec, Journal, NoiseSpec, Report, RunControl, Session,
        SweepPlan,
    };
    pub use nisq_ir::{Benchmark, Circuit, Gate, GateKind, Qubit};
    pub use nisq_machine::{
        CalibrationGenerator, GridTopology, HwQubit, Machine, Topology, TopologySpec,
    };
    pub use nisq_opt::Placement;
    pub use nisq_sim::{SimulationResult, Simulator, SimulatorConfig};
}
