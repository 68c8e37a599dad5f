//! # nisq-core — noise-adaptive compiler mappings for NISQ computers
//!
//! The paper's primary contribution: a backend compiler that maps
//! machine-independent quantum circuits (from [`nisq_ir`]) onto a NISQ
//! machine (from [`nisq_machine`]), adapting qubit placement, routing and
//! scheduling to the machine's daily calibration data to maximize the
//! probability that a program run succeeds.
//!
//! All compiler configurations of the paper's Table 1 are provided:
//!
//! | Name | Objective | Calibration-aware | Notes |
//! |------|-----------|-------------------|-------|
//! | `Qiskit` | heuristic, minimize duration | no | baseline: lexicographic placement + swap insertion |
//! | `T-SMT` | optimal, minimize duration | no | uniform gate times, static coherence bound |
//! | `T-SMT*` | optimal, minimize duration | yes | per-edge gate times, per-qubit coherence |
//! | `R-SMT*` | optimal, maximize reliability (Eq. 12, weight ω) | yes | one-bend-path routing |
//! | `GreedyV*` | heuristic, maximize reliability | yes | heaviest-vertex-first placement |
//! | `GreedyE*` | heuristic, maximize reliability | yes | heaviest-edge-first placement |
//!
//! The optimal variants solve the paper's SMT formulation through the
//! branch-and-bound substrate in [`nisq_opt`] (see the README's "What
//! this reproduction substitutes").
//!
//! [`Compiler::compile`] is the one compile path. It runs the paper's
//! backend as six direct steps, `decompose → place → route → schedule →
//! emit → estimate`, and records each step's time in
//! [`CompiledCircuit::pass_timings`]. The place step calls
//! [`mapping::place`], which selects the Table-1 algorithm by
//! [`CompilerConfig::algorithm`], unless the caller hands
//! [`Compiler::compile_placed`] a placement it already holds (the
//! experiment session memoizes placements that way). The crate keeps no
//! state between compiles.
//!
//! # Example
//!
//! ```
//! use nisq_core::{Compiler, CompilerConfig};
//! use nisq_ir::Benchmark;
//! use nisq_machine::Machine;
//!
//! let machine = Machine::ibmq16_on_day(7, 0);
//! let compiler = Compiler::new(&machine, CompilerConfig::r_smt_star(0.5));
//! let compiled = compiler.compile(&Benchmark::Bv4.circuit()).unwrap();
//! assert!(compiled.estimated_reliability() > 0.0);
//! assert!(compiled.qasm().contains("OPENQASM 2.0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiler;
mod config;
mod error;
mod executable;
pub mod mapping;
pub mod metrics;

pub use compiler::Compiler;
pub use config::{Algorithm, CompilerConfig};
pub use error::CompileError;
pub use executable::{CompiledCircuit, PassTiming};
pub use nisq_opt::{Placement, RouteSelection};
