//! Placement (initial mapping): the place step of
//! [`Compiler::compile`](crate::Compiler::compile).
//!
//! Each algorithm computes an injective placement of program qubits onto
//! hardware qubits; the compiler then routes, schedules and emits code for
//! that placement. [`place`] selects one of the paper's Table-1 algorithms
//! by [`CompilerConfig::algorithm`]:
//!
//! * [`qiskit`] — the Qiskit 0.5.7-style baseline (lexicographic layout),
//! * [`smt`] — the optimal variants (T-SMT, T-SMT*, R-SMT*) via the
//!   branch-and-bound substrate in [`nisq_opt`],
//! * [`greedy`] — the calibration-aware heuristics GreedyV* and GreedyE*.
//!
//! ```
//! use nisq_core::{mapping, CompilerConfig};
//! use nisq_ir::Benchmark;
//! use nisq_machine::Machine;
//!
//! let machine = Machine::ibmq16_on_day(1, 0);
//! let circuit = Benchmark::Bv4.circuit();
//! let placement = mapping::place(&circuit, &machine, &CompilerConfig::qiskit()).unwrap();
//! assert_eq!(placement.len(), circuit.num_qubits());
//! ```

pub mod greedy;
pub mod qiskit;
pub mod smt;

use crate::config::{Algorithm, CompilerConfig};
use crate::error::CompileError;
use nisq_ir::Circuit;
use nisq_machine::Machine;
use nisq_opt::Placement;

/// Computes the initial placement for `circuit` on `machine` with the
/// algorithm `config` selects.
///
/// # Errors
///
/// Returns an error if the circuit does not fit on the machine or the
/// configuration is invalid (e.g. ω outside `[0, 1]`).
pub fn place(
    circuit: &Circuit,
    machine: &Machine,
    config: &CompilerConfig,
) -> Result<Placement, CompileError> {
    match config.algorithm {
        Algorithm::Qiskit => qiskit::place(circuit, machine),
        Algorithm::TSmt | Algorithm::TSmtStar | Algorithm::RSmtStar => {
            smt::place(circuit, machine, config)
        }
        Algorithm::GreedyV => greedy::place_vertex_first(circuit, machine),
        Algorithm::GreedyE => greedy::place_edge_first(circuit, machine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::Benchmark;

    #[test]
    fn every_algorithm_produces_a_valid_placement() {
        let machine = Machine::ibmq16_on_day(3, 0);
        let circuit = Benchmark::Bv4.circuit();
        for config in CompilerConfig::table1() {
            let placement = place(&circuit, &machine, &config)
                .unwrap_or_else(|e| panic!("{} failed: {e}", config.algorithm));
            assert_eq!(
                placement.len(),
                circuit.num_qubits(),
                "{}",
                config.algorithm
            );
            placement
                .validate(machine.num_qubits())
                .unwrap_or_else(|e| panic!("{} produced invalid placement: {e}", config.algorithm));
        }
    }

    #[test]
    fn oversized_circuit_is_rejected() {
        let machine = Machine::ibmq16_on_day(3, 0);
        let circuit = nisq_ir::random_circuit(nisq_ir::RandomCircuitConfig::new(18, 32, 0));
        let err = place(&circuit, &machine, &CompilerConfig::qiskit()).unwrap_err();
        assert!(matches!(err, CompileError::CircuitTooLarge { .. }));
    }
}
