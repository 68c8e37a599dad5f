use crate::circuit::Circuit;
use std::collections::HashMap;

/// Data-dependency DAG over the gates of a [`Circuit`].
///
/// Gate `j` depends on gate `i` (edge `i -> j`) when `j` is the next gate in
/// program order that touches one of the qubits or classical bits used by
/// `i`. This is the relation the paper writes as `g2 > g1` in its scheduling
/// constraint (Constraint 3).
///
/// # Example
///
/// ```
/// use nisq_ir::{Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cnot(Qubit(0), Qubit(1));
/// let dag = c.dag();
/// assert_eq!(dag.predecessors(1), &[0]);
/// assert_eq!(dag.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DependencyDag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Number of ASAP levels.
    depth: usize,
}

impl DependencyDag {
    /// Builds the dependency DAG of `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];

        // Last gate index that touched each qubit / clbit.
        let mut last_on_qubit: HashMap<usize, usize> = HashMap::new();
        let mut last_on_clbit: HashMap<usize, usize> = HashMap::new();

        for (i, gate) in circuit.iter().enumerate() {
            let mut gate_preds: Vec<usize> = Vec::new();
            for q in gate.qubits() {
                if let Some(&p) = last_on_qubit.get(&q.0) {
                    gate_preds.push(p);
                }
                last_on_qubit.insert(q.0, i);
            }
            for c in gate.clbits() {
                if let Some(&p) = last_on_clbit.get(&c.0) {
                    gate_preds.push(p);
                }
                last_on_clbit.insert(c.0, i);
            }
            gate_preds.sort_unstable();
            gate_preds.dedup();
            for &p in &gate_preds {
                succs[p].push(i);
            }
            preds[i] = gate_preds;
        }

        // ASAP levels: level(g) = 1 + max level over predecessors.
        let mut asap_level = vec![0usize; n];
        for i in 0..n {
            asap_level[i] = preds[i]
                .iter()
                .map(|&p| asap_level[p] + 1)
                .max()
                .unwrap_or(0);
        }
        let depth = asap_level.iter().copied().max().map_or(0, |d| d + 1);

        DependencyDag {
            preds,
            succs,
            depth,
        }
    }

    /// Number of gates (nodes) in the DAG.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the DAG has no gates.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors of gate `i` (gates it depends on).
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors of gate `i` (gates that depend on it).
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Circuit depth: number of ASAP layers.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Qubit;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        c
    }

    #[test]
    fn dependencies_follow_qubit_usage() {
        let dag = bell().dag();
        // gate 1 (cnot) depends on gate 0 (h on q0).
        assert_eq!(dag.predecessors(1), &[0]);
        // measurement of q0 (gate 2) depends on the cnot.
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.predecessors(3), &[1]);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn depth_counts_asap_layers() {
        let dag = bell().dag();
        assert_eq!(dag.depth(), 3);
    }

    #[test]
    fn independent_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.h(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        // Both Hadamards and the second CNOT fill the first layer.
        assert_eq!(c.dag().depth(), 2);
    }

    #[test]
    fn empty_circuit_has_empty_dag() {
        let c = Circuit::new(3);
        let dag = c.dag();
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
    }

    #[test]
    fn measurement_clbit_dependencies_are_tracked() {
        use crate::gate::{Clbit, Gate};
        let mut c = Circuit::with_clbits(2, 1);
        c.push(Gate::measure(Qubit(0), Clbit(0)));
        c.push(Gate::measure(Qubit(1), Clbit(0)));
        let dag = c.dag();
        // Second measurement writes the same classical bit, so it depends on
        // the first even though the qubits differ.
        assert_eq!(dag.predecessors(1), &[0]);
    }
}
