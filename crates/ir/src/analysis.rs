use crate::circuit::Circuit;
use crate::gate::GateKind;
use std::fmt;

/// Static statistics of a circuit: the quantities the paper's Table 2
/// reports plus a few more the compiler uses for cost estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of program qubits.
    pub num_qubits: usize,
    /// Number of gates excluding measurements and barriers.
    pub gates: usize,
    /// Number of CNOT gates (SWAPs counted as three CNOTs each).
    pub cnots: usize,
    /// Number of single-qubit gates.
    pub single_qubit_gates: usize,
    /// Number of measurement operations.
    pub measurements: usize,
    /// Depth of the data-dependency DAG (number of ASAP layers).
    pub depth: usize,
    /// Number of distinct interacting qubit pairs.
    pub interaction_edges: usize,
}

impl CircuitStats {
    /// Computes statistics for `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut single = 0usize;
        let mut cnots = 0usize;
        let mut measurements = 0usize;
        for g in circuit.iter() {
            match g.kind() {
                GateKind::Cnot => cnots += 1,
                GateKind::Swap => cnots += 3,
                GateKind::Measure => measurements += 1,
                GateKind::Barrier => {}
                _ => single += 1,
            }
        }
        CircuitStats {
            num_qubits: circuit.num_qubits(),
            gates: circuit.gate_count(),
            cnots,
            single_qubit_gates: single,
            measurements,
            depth: circuit.dag().depth(),
            interaction_edges: circuit.interaction_graph().num_edges(),
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} qubits, {} gates ({} CNOTs, {} 1q), {} measurements, depth {}",
            self.num_qubits,
            self.gates,
            self.cnots,
            self.single_qubit_gates,
            self.measurements,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::gate::Qubit;

    #[test]
    fn stats_count_each_category() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        let s = c.stats();
        assert_eq!(s.num_qubits, 2);
        assert_eq!(s.gates, 2);
        assert_eq!(s.cnots, 1);
        assert_eq!(s.single_qubit_gates, 1);
        assert_eq!(s.measurements, 2);
        assert_eq!(s.depth, 3);
        assert_eq!(s.interaction_edges, 1);
    }

    #[test]
    fn swap_counts_as_three_cnots_in_stats() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        assert_eq!(c.stats().cnots, 3);
    }

    #[test]
    fn benchmark_stats_are_consistent_with_info() {
        for b in Benchmark::all() {
            let stats = b.circuit().stats();
            let info = b.info();
            assert_eq!(stats.num_qubits, info.qubits);
            assert_eq!(stats.gates, info.gates);
        }
    }

    #[test]
    fn display_mentions_depth() {
        let s = Benchmark::Bv4.circuit().stats();
        assert!(s.to_string().contains("depth"));
    }
}
