use crate::config::Algorithm;
use crate::metrics::ReliabilityEstimate;
use nisq_ir::{qasm, Circuit};
use nisq_opt::{Placement, Schedule};
use std::fmt;
use std::time::Duration;

/// Wall-clock time spent in one step of [`crate::Compiler::compile`].
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The step name: `decompose`, `place`, `route`, `schedule`, `emit`
    /// or `estimate`.
    pub pass: &'static str,
    /// Time spent in the step.
    pub elapsed: Duration,
}

/// The output of a compilation run: the physical circuit (over hardware
/// qubits, with all communication SWAPs inserted), the placement and
/// schedule that produced it, and the analytic reliability estimate.
///
/// The physical circuit is directly executable: every two-qubit gate acts on
/// adjacent hardware qubits, and [`CompiledCircuit::qasm`] emits it as
/// OpenQASM 2.0 (with SWAPs expanded into their three-CNOT decomposition),
/// the format the paper targets for IBMQ16.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) program_name: String,
    pub(crate) algorithm: Algorithm,
    pub(crate) physical: Circuit,
    pub(crate) placement: Placement,
    pub(crate) schedule: Schedule,
    pub(crate) estimate: ReliabilityEstimate,
    pub(crate) compile_time: Duration,
    pub(crate) pass_timings: Vec<PassTiming>,
}

impl CompiledCircuit {
    /// Name of the source program.
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// The algorithm that produced this executable.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The physical circuit over hardware qubits (SWAPs kept as explicit
    /// `swap` gates; use [`Circuit::expand_swaps`] for the pure-CNOT form).
    pub fn physical_circuit(&self) -> &Circuit {
        &self.physical
    }

    /// The initial placement of program qubits onto hardware qubits.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Where each program qubit ends up after execution: identical to the
    /// initial placement under swap-back routing, the accumulated
    /// permutation under permutation-tracking routing.
    pub fn final_placement(&self) -> &Placement {
        &self.schedule.final_placement
    }

    /// Wall-clock time spent in each compile step, in execution order:
    /// `decompose`, `place`, `route`, `schedule`, `emit`, `estimate`.
    pub fn pass_timings(&self) -> &[PassTiming] {
        &self.pass_timings
    }

    /// The gate schedule (start times, durations, routes).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Estimated execution duration in hardware timeslots (80 ns each on
    /// IBMQ16), the metric of the paper's Figures 7b and 9.
    pub fn duration_slots(&self) -> u32 {
        self.schedule.makespan
    }

    /// Number of SWAP operations inserted to bring qubits adjacent
    /// (one-way count; the emitted executable also returns qubits to their
    /// home positions).
    pub fn swap_count(&self) -> usize {
        self.schedule.swap_count
    }

    /// Number of hardware CNOTs in the executable, counting each SWAP as
    /// three CNOTs.
    pub fn hardware_cnot_count(&self) -> usize {
        self.physical.cnot_count_with_swaps()
    }

    /// The analytic reliability estimate (the paper's objective value).
    pub fn estimate(&self) -> &ReliabilityEstimate {
        &self.estimate
    }

    /// Estimated success probability of one run.
    pub fn estimated_reliability(&self) -> f64 {
        self.estimate.total()
    }

    /// Wall-clock time spent compiling.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Whether every gate finished inside its coherence window
    /// (Constraint 4/6).
    pub fn within_coherence(&self) -> bool {
        self.schedule.within_coherence()
    }

    /// Emits the executable as OpenQASM 2.0 with SWAPs expanded into CNOTs.
    pub fn qasm(&self) -> String {
        qasm::emit(&self.physical.expand_swaps())
    }
}

impl fmt::Display for CompiledCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} compiled with {}: {} swaps, {} timeslots, estimated reliability {:.3}",
            self.program_name,
            self.algorithm,
            self.swap_count(),
            self.duration_slots(),
            self.estimated_reliability()
        )
    }
}
