//! # nisq-opt — constrained-optimization substrate for qubit mapping
//!
//! The paper formulates qubit mapping as a constrained optimization problem
//! solved with the Z3 SMT solver: place program qubits on hardware qubits
//! (Constraints 1-2), schedule gates in dependency order before the qubits
//! decohere (Constraints 3-6), keep concurrent CNOT routes from overlapping
//! (Constraints 7-9), and track per-gate reliabilities (Constraints 10-11)
//! to maximize the weighted log-reliability objective (Equation 12) or to
//! minimize execution duration.
//!
//! This crate provides the same optimization capability without a native
//! SMT library (see the README's "What this reproduction substitutes"):
//!
//! * [`AssignmentProblem`] — the placement objective as a quadratic
//!   assignment problem: per-CNOT pairwise cost terms plus per-readout
//!   single-qubit cost terms over an injective program→hardware mapping.
//! * [`solve_branch_and_bound`] — an exact solver with admissible pruning
//!   bounds: it returns the same optimum the SMT encoding would, and its
//!   exponential growth with qubit count reproduces the paper's Figure 11
//!   compile-time scaling.
//! * [`solve_annealing`] — an anytime simulated-annealing solver for
//!   instances beyond the exact solver's reach.
//! * [`problem`] — builders that turn a circuit + machine + objective
//!   (reliability with readout weight ω, or duration) into an
//!   [`AssignmentProblem`].
//! * [`Scheduler`] — a routing-aware list scheduler that assigns start
//!   times respecting data dependencies (Constraint 3), per-edge gate
//!   durations (Constraint 5), coherence windows (Constraints 4/6) and
//!   spatial non-overlap of concurrent CNOT routes under the rectangle
//!   reservation or one-bend-path selections (Constraints 7-9).
//! * the unified routing layer ([`RouteSelection`], [`RoutingPolicy`],
//!   [`Layout`]) — how routes are chosen, and how their SWAPs are
//!   materialized: the paper's swap-out/swap-back model
//!   ([`SwapBackRouting`]) or permutation tracking
//!   ([`PermutationRouting`]), shared by the scheduler and the emitter.
//!   [`RoutingPolicy::route_duration`] is the one pricing of a routed
//!   gate's duration, for the scheduler and the duration objective alike.
//! * [`UNIFORM_CNOT_SLOTS`] and [`STATIC_COHERENCE_SLOTS`] — the paper's
//!   calibration-unaware CNOT time and coherence bound `MT`.
//!
//! # Example
//!
//! ```
//! use nisq_ir::Benchmark;
//! use nisq_machine::Machine;
//! use nisq_opt::{problem, solve_branch_and_bound, MappingObjective, RouteSelection, SolverConfig};
//!
//! let circuit = Benchmark::Bv4.circuit();
//! let machine = Machine::ibmq16_on_day(1, 0);
//! let p = problem::build(
//!     &circuit,
//!     &machine,
//!     MappingObjective::Reliability { omega: 0.5 },
//!     RouteSelection::OneBendPaths,
//! )
//! .unwrap();
//! let solution = solve_branch_and_bound(&p, &SolverConfig::default());
//! assert!(solution.optimal);
//! assert_eq!(solution.assignment.len(), circuit.num_qubits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod assignment;
mod branch_bound;
mod error;
pub mod problem;
mod routing;
mod scheduler;

pub use anneal::{solve_annealing, AnnealConfig};
pub use assignment::{AssignmentProblem, PairTerm, SingleTerm};
pub use branch_bound::{solve_branch_and_bound, SolverConfig};
pub use error::OptError;
pub use problem::MappingObjective;
pub use routing::{
    compute_route, hop_slots, CnotRoute, Layout, PermutationRouting, RouteSelection, RoutedOp,
    RoutingPolicy, SwapBackRouting, SwapHandling,
};
pub use scheduler::{Placement, Schedule, ScheduledGate, Scheduler, SchedulerConfig};

/// Duration in timeslots of every hardware CNOT under the
/// calibration-unaware model (the paper's T-SMT and Qiskit rows of
/// Table 1), which ignores the calibrated per-edge durations.
pub const UNIFORM_CNOT_SLOTS: u32 = 4;

/// The paper's static coherence bound `MT`, in timeslots: the window every
/// qubit gets under the calibration-unaware model. Calibration-aware
/// scheduling uses each qubit's calibrated T2 instead.
pub const STATIC_COHERENCE_SLOTS: u32 = 1000;

/// Result of a placement search: an assignment of program qubits to
/// hardware qubits plus metadata about the search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSolution {
    /// `assignment[p]` is the hardware qubit hosting program qubit `p`.
    pub assignment: Vec<nisq_machine::HwQubit>,
    /// Objective value (total cost, lower is better).
    pub cost: f64,
    /// Whether the solver proved this assignment optimal.
    pub optimal: bool,
    /// Number of search nodes (branch-and-bound) or iterations (annealing)
    /// explored.
    pub nodes_explored: u64,
}
