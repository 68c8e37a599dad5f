//! # nisq-exp — declarative experiment API
//!
//! The paper's evaluation is one large cross-product — benchmarks ×
//! Table-1 configurations × calibration days × trials. This crate turns
//! that shape into three first-class types:
//!
//! * [`SweepPlan`] — a declarative builder describing a workload (circuits
//!   × configs × days × topologies × simulation settings, with
//!   deterministic per-cell seeds);
//! * [`Session`] — a long-lived executor owning machine snapshots, a keyed
//!   full-compile cache and the shared placement cache, running plans
//!   through one cell-parallel, optionally journaled, executor;
//! * [`Report`] — a structured, serializable record set (per-cell success
//!   rate, reliability estimate, swap/slot counts, pass timings, cache
//!   statistics) with a stable JSON format and a parser for validation.
//!
//! Every figure and table binary of the evaluation, the `nisqc sweep`
//! subcommand and the examples are thin declarations over this API.
//!
//! # Example
//!
//! ```
//! use nisq_exp::{Session, SweepPlan};
//! use nisq_core::CompilerConfig;
//! use nisq_ir::Benchmark;
//!
//! let plan = SweepPlan::new()
//!     .benchmark(Benchmark::Bv4)
//!     .config("Qiskit", CompilerConfig::qiskit())
//!     .config("R-SMT*", CompilerConfig::r_smt_star(0.5))
//!     .days(0..2)
//!     .with_trials(128)
//!     .per_day_sim_seed(100);
//!
//! let mut session = Session::new();
//! let report = session.run(&plan).unwrap();
//! assert_eq!(report.cells.len(), 4);
//! let parsed = nisq_exp::Report::from_json(&report.to_json()).unwrap();
//! assert_eq!(parsed, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The JSON module moved to `nisq-noise` (the spec parser lives below the
// sim crate in the dependency order); the re-export keeps every
// `nisq_exp::json::` path working.
pub use nisq_noise::json;
// The noise axis on `SweepPlan` takes a `NoiseSpec`; re-exporting it lets
// plan producers (CLI, serve) avoid a direct `nisq-noise` dependency.
pub use nisq_noise::{NoiseError, NoiseSpec};

mod journal;
pub mod names;
mod plan;
mod report;
mod session;

pub use journal::{
    fnv64, CellKey, CompactInfo, InspectInfo, Journal, JournalError, RecoveryInfo, JOURNAL_SCHEMA,
};
pub use plan::{Cell, CircuitSpec, MachineScope, SeedMode, SweepPlan, DEFAULT_MACHINE_SEED};
pub use report::{BackendTag, CacheStats, CellRecord, Report, TierStats, REPORT_SCHEMA};
pub use session::{RunControl, RunOutcome, Session};
