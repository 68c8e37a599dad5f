use crate::circuit::Circuit;
use crate::gate::Qubit;
use std::collections::BTreeMap;

/// The qubit interaction graph (the paper's "program graph").
///
/// There is a node per program qubit and an edge between every pair of
/// qubits that share at least one CNOT. Edge weights count how many CNOTs
/// the pair shares; vertex degrees count how many CNOTs a qubit
/// participates in. The greedy heuristics (`GreedyV*`, `GreedyE*`) are
/// driven entirely by this graph.
///
/// # Example
///
/// ```
/// use nisq_ir::{Benchmark, Qubit};
///
/// let bv4 = Benchmark::Bv4.circuit();
/// let g = bv4.interaction_graph();
/// // In Bernstein-Vazirani every data qubit interacts only with the ancilla.
/// assert_eq!(g.degree(Qubit(3)), 3);
/// assert_eq!(g.edge_weight(Qubit(0), Qubit(3)), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionGraph {
    num_qubits: usize,
    /// Edge weights keyed by (min qubit, max qubit).
    edges: BTreeMap<(usize, usize), usize>,
    /// Per-qubit CNOT participation count.
    degree: Vec<usize>,
}

impl InteractionGraph {
    /// Builds the interaction graph of `circuit` from its CNOT gates.
    /// SWAP gates count as three CNOTs between the same pair.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut edges: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut degree = vec![0usize; circuit.num_qubits()];
        for gate in circuit.iter() {
            let weight = match gate.kind() {
                crate::gate::GateKind::Cnot => 1,
                crate::gate::GateKind::Swap => 3,
                _ => continue,
            };
            let a = gate.qubits()[0].0;
            let b = gate.qubits()[1].0;
            let key = (a.min(b), a.max(b));
            *edges.entry(key).or_insert(0) += weight;
            degree[a] += weight;
            degree[b] += weight;
        }
        InteractionGraph {
            num_qubits: circuit.num_qubits(),
            edges,
            degree,
        }
    }

    /// Number of program qubits (nodes).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of distinct interacting pairs (edges).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// CNOT participation count of `q` (0 if the qubit never appears in a
    /// CNOT).
    pub fn degree(&self, q: Qubit) -> usize {
        self.degree.get(q.0).copied().unwrap_or(0)
    }

    /// Number of CNOTs between `a` and `b` (0 if they never interact).
    pub fn edge_weight(&self, a: Qubit, b: Qubit) -> usize {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.edges.get(&key).copied().unwrap_or(0)
    }

    /// All edges as `(qubit, qubit, weight)` triples in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (Qubit, Qubit, usize)> + '_ {
        self.edges
            .iter()
            .map(|(&(a, b), &w)| (Qubit(a), Qubit(b), w))
    }

    /// Edges sorted by descending weight (ties broken by qubit indices),
    /// the order `GreedyE*` consumes them in.
    pub fn edges_by_weight(&self) -> Vec<(Qubit, Qubit, usize)> {
        let mut v: Vec<(Qubit, Qubit, usize)> = self.edges().collect();
        v.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        v
    }

    /// Qubits sorted by descending degree (ties broken by index), the order
    /// `GreedyV*` consumes them in.
    pub fn qubits_by_degree(&self) -> Vec<Qubit> {
        let mut v: Vec<usize> = (0..self.num_qubits).collect();
        v.sort_by(|&a, &b| self.degree[b].cmp(&self.degree[a]).then(a.cmp(&b)));
        v.into_iter().map(Qubit).collect()
    }

    /// Neighbours of `q`: qubits sharing at least one CNOT with it.
    pub fn neighbors(&self, q: Qubit) -> Vec<Qubit> {
        let mut out = Vec::new();
        for &(a, b) in self.edges.keys() {
            if a == q.0 {
                out.push(Qubit(b));
            } else if b == q.0 {
                out.push(Qubit(a));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn star4() -> Circuit {
        // 3 CNOTs all targeting qubit 3 (a BV-like star).
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(3));
        c.cnot(Qubit(1), Qubit(3));
        c.cnot(Qubit(2), Qubit(3));
        c
    }

    #[test]
    fn degrees_count_cnot_participation() {
        let g = star4().interaction_graph();
        assert_eq!(g.degree(Qubit(3)), 3);
        assert_eq!(g.degree(Qubit(0)), 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_weight_is_symmetric() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(0));
        let g = c.interaction_graph();
        assert_eq!(g.edge_weight(Qubit(0), Qubit(1)), 2);
        assert_eq!(g.edge_weight(Qubit(1), Qubit(0)), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn qubits_by_degree_puts_hub_first() {
        let g = star4().interaction_graph();
        assert_eq!(g.qubits_by_degree()[0], Qubit(3));
    }

    #[test]
    fn edges_by_weight_sorts_descending() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        c.cnot(Qubit(1), Qubit(2));
        let g = c.interaction_graph();
        let edges = g.edges_by_weight();
        assert_eq!(edges[0], (Qubit(1), Qubit(2), 2));
        assert_eq!(edges[1], (Qubit(0), Qubit(1), 1));
    }

    #[test]
    fn swap_counts_as_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        let g = c.interaction_graph();
        assert_eq!(g.edge_weight(Qubit(0), Qubit(1)), 3);
        assert_eq!(g.degree(Qubit(0)), 3);
    }

    #[test]
    fn neighbors_lists_interacting_qubits() {
        let g = star4().interaction_graph();
        let mut n = g.neighbors(Qubit(3));
        n.sort();
        assert_eq!(n, vec![Qubit(0), Qubit(1), Qubit(2)]);
        assert_eq!(g.neighbors(Qubit(0)), vec![Qubit(3)]);
    }

    #[test]
    fn non_interacting_qubit_has_zero_degree() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1));
        c.h(Qubit(2));
        let g = c.interaction_graph();
        assert_eq!(g.degree(Qubit(2)), 0);
        assert_eq!(g.edge_weight(Qubit(0), Qubit(2)), 0);
    }
}
