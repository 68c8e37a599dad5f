//! # nisq-sim — noisy simulation of NISQ program executions
//!
//! The paper measures program success rates by running 8192 trials of each
//! compiled executable on the real IBMQ16 machine. That hardware is not
//! available offline, so this crate provides the substitute (see
//! the README's "What this reproduction substitutes"):
//! a state-vector simulator that injects errors drawn from *the same
//! calibration data the compiler adapts to* —
//!
//! * two-qubit depolarizing noise after every hardware CNOT, with the
//!   per-edge CNOT error rate,
//! * single-qubit depolarizing noise after every single-qubit gate, with the
//!   per-qubit gate error rate,
//! * classical readout bit-flips with the per-qubit readout error rate,
//! * optional dephasing proportional to gate duration and the qubit's T2
//!   (decoherence plays a secondary role for these short benchmarks, exactly
//!   as the paper observes).
//!
//! Success rate is the fraction of trials whose measured bit-string equals
//! the classically-known correct answer, matching the paper's metric.
//!
//! # Example
//!
//! ```
//! use nisq_core::{Compiler, CompilerConfig};
//! use nisq_ir::Benchmark;
//! use nisq_machine::Machine;
//! use nisq_sim::{Simulator, SimulatorConfig};
//!
//! let machine = Machine::ibmq16_on_day(3, 0);
//! let compiled = Compiler::new(&machine, CompilerConfig::r_smt_star(0.5))
//!     .compile(&Benchmark::Bv4.circuit())
//!     .unwrap();
//! let simulator = Simulator::new(&machine, SimulatorConfig::with_trials(512, 7));
//! let success = simulator.success_rate(&compiled, &Benchmark::Bv4.expected_output());
//! assert!(success > 0.2, "success rate was {success}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod clifford;
mod complex;
pub mod engine;
pub mod gates;
pub mod noise;
pub mod program;
mod result;
mod rng;
mod simulator;
mod state;
pub mod tableau;
mod workers;

pub use backend::{BackendKind, SimBackend};
pub use clifford::{Clifford1Q, SymplecticPauli};
pub use complex::Complex;
pub use engine::{TierCounts, TieredEngine};
pub use noise::NoiseModel;
pub use program::{KrausTable, TrialEvent, TrialOp, TrialProgram, TrialScratch, MAX_CLBITS};
pub use result::SimulationResult;
pub use rng::TrialRng;
pub use simulator::{Simulator, SimulatorConfig};
pub use state::StateVector;
pub use tableau::TableauState;
pub use workers::run_workers;
