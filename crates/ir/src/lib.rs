//! # nisq-ir — quantum circuit intermediate representation
//!
//! This crate provides the program-side substrate used by the noise-adaptive
//! NISQ compiler described in *Noise-Adaptive Compiler Mappings for Noisy
//! Intermediate-Scale Quantum Computers* (ASPLOS 2019): a gate-level circuit
//! IR, a data-dependency DAG, the qubit interaction ("program") graph, the
//! twelve evaluation benchmarks of the paper, a random-circuit generator for
//! scalability studies, and an OpenQASM 2.0 emitter/parser.
//!
//! The IR plays the role of the LLVM IR produced by ScaffCC in the paper:
//! machine-independent gates over *program qubits*, with explicit data
//! dependencies, ready to be mapped onto hardware qubits by `nisq-core`.
//!
//! # Example
//!
//! ```
//! use nisq_ir::{Circuit, Qubit};
//!
//! // Build the 4-qubit Bernstein-Vazirani kernel by hand.
//! let mut c = Circuit::new(4);
//! c.x(Qubit(3));
//! for q in 0..4 {
//!     c.h(Qubit(q));
//! }
//! for q in 0..3 {
//!     c.cnot(Qubit(q), Qubit(3));
//! }
//! for q in 0..3 {
//!     c.h(Qubit(q));
//! }
//! c.measure_all();
//! assert_eq!(c.cnot_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod benchmarks;
mod circuit;
mod dag;
mod decompose;
mod error;
mod gate;
mod graph;
pub mod qasm;
mod random;

pub use analysis::CircuitStats;
pub use benchmarks::{bernstein_vazirani, hidden_shift, Benchmark, BenchmarkInfo};
pub use circuit::Circuit;
pub use dag::DependencyDag;
pub use error::IrError;
pub use gate::{Clbit, Gate, GateKind, Qubit};
pub use graph::InteractionGraph;
pub use random::{random_circuit, RandomCircuitConfig};
