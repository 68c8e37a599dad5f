use crate::analysis::CircuitStats;
use crate::dag::DependencyDag;
use crate::error::IrError;
use crate::gate::{Clbit, Gate, GateKind, Qubit};
use crate::graph::InteractionGraph;
use std::fmt;

/// A machine-independent quantum circuit over program qubits.
///
/// This is the unit the noise-adaptive backend consumes: an ordered list of
/// gates over `num_qubits` program qubits and `num_clbits` classical bits.
/// The order of the gate list is a valid topological order of the data
/// dependencies (gates are appended in program order).
///
/// # Example
///
/// ```
/// use nisq_ir::{Circuit, Qubit};
///
/// let mut bell = Circuit::new(2);
/// bell.h(Qubit(0));
/// bell.cnot(Qubit(0), Qubit(1));
/// bell.measure_all();
/// assert_eq!(bell.len(), 4);
/// assert_eq!(bell.cnot_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit with `num_qubits` qubits and the same number
    /// of classical bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            name: String::from("circuit"),
            num_qubits,
            num_clbits: num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates an empty circuit with an explicit classical register size.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            name: String::from("circuit"),
            num_qubits,
            num_clbits,
            gates: Vec::new(),
        }
    }

    /// Sets a human-readable name (used by benchmark reporting).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Returns the circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of program qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including measurements and barriers).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Iterator over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// A deterministic 64-bit content fingerprint of this circuit: name,
    /// register sizes and the full gate list (rotation angles by their
    /// IEEE-754 bits). Equal circuits always fingerprint equal, so the
    /// fingerprint is usable as a compile-cache key; it is stable within a
    /// process and across runs of the same build, but is not a
    /// serialization format.
    ///
    /// # Example
    ///
    /// ```
    /// use nisq_ir::{Circuit, Qubit};
    ///
    /// let mut a = Circuit::new(2);
    /// a.h(Qubit(0)).cnot(Qubit(0), Qubit(1));
    /// let mut b = a.clone();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// b.x(Qubit(1));
    /// assert_ne!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.name.hash(&mut h);
        self.num_qubits.hash(&mut h);
        self.num_clbits.hash(&mut h);
        for gate in &self.gates {
            gate.hash(&mut h);
        }
        h.finish()
    }

    fn check_qubit(&self, q: Qubit) -> Result<(), IrError> {
        if q.0 >= self.num_qubits {
            Err(IrError::QubitOutOfRange {
                qubit: q.0,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    fn check_clbit(&self, c: Clbit) -> Result<(), IrError> {
        if c.0 >= self.num_clbits {
            Err(IrError::ClbitOutOfRange {
                clbit: c.0,
                num_clbits: self.num_clbits,
            })
        } else {
            Ok(())
        }
    }

    /// Appends an arbitrary gate after validating its operands.
    ///
    /// # Errors
    ///
    /// Returns an error if any operand is out of range or a two-qubit gate
    /// repeats an operand.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), IrError> {
        for &q in gate.qubits() {
            self.check_qubit(q)?;
        }
        for &c in gate.clbits() {
            self.check_clbit(c)?;
        }
        if gate.is_two_qubit() && gate.qubits()[0] == gate.qubits()[1] {
            return Err(IrError::DuplicateOperand {
                qubit: gate.qubits()[0].0,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate, panicking on invalid operands.
    ///
    /// # Panics
    ///
    /// Panics if the gate references qubits or classical bits outside the
    /// circuit. Use [`Circuit::try_push`] to handle this as an error.
    pub fn push(&mut self, gate: Gate) {
        self.try_push(gate).expect("invalid gate operands");
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::H, q));
        self
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::X, q));
        self
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::Y, q));
        self
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::Z, q));
        self
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::S, q));
        self
    }

    /// Appends an S-dagger gate.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::Sdg, q));
        self
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::T, q));
        self
    }

    /// Appends a T-dagger gate.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::single(GateKind::Tdg, q));
        self
    }

    /// Appends an X-rotation by `angle` radians.
    pub fn rx(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::single(GateKind::Rx(angle), q));
        self
    }

    /// Appends a Y-rotation by `angle` radians.
    pub fn ry(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::single(GateKind::Ry(angle), q));
        self
    }

    /// Appends a Z-rotation by `angle` radians.
    pub fn rz(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::single(GateKind::Rz(angle), q));
        self
    }

    /// Appends a CNOT with the given control and target.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::cnot(control, target));
        self
    }

    /// Appends a SWAP between two qubits.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::swap(a, b));
        self
    }

    /// Appends a measurement of `q` into classical bit `c`.
    pub fn measure(&mut self, q: Qubit, c: Clbit) -> &mut Self {
        self.push(Gate::measure(q, c));
        self
    }

    /// Appends a barrier across all qubits.
    pub fn barrier_all(&mut self) -> &mut Self {
        let qs: Vec<Qubit> = (0..self.num_qubits).map(Qubit).collect();
        self.push(Gate::barrier(qs));
        self
    }

    /// Measures every qubit `i` into classical bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if the classical register is smaller than the quantum register.
    pub fn measure_all(&mut self) -> &mut Self {
        assert!(
            self.num_clbits >= self.num_qubits,
            "measure_all requires at least as many classical bits as qubits"
        );
        for i in 0..self.num_qubits {
            self.measure(Qubit(i), Clbit(i));
        }
        self
    }

    /// Appends every gate of `other`, offsetting nothing: both circuits must
    /// use the same register sizes.
    ///
    /// # Errors
    ///
    /// Returns an error if `other` references qubits or classical bits this
    /// circuit does not have.
    pub fn extend_from(&mut self, other: &Circuit) -> Result<(), IrError> {
        for g in other.gates() {
            self.try_push(g.clone())?;
        }
        Ok(())
    }

    /// Number of CNOT gates (excluding the CNOTs hidden inside SWAPs).
    pub fn cnot_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_cnot()).count()
    }

    /// Number of two-qubit gates, counting each SWAP as three CNOTs.
    pub fn cnot_count_with_swaps(&self) -> usize {
        self.gates
            .iter()
            .map(|g| match g.kind() {
                GateKind::Cnot => 1,
                GateKind::Swap => 3,
                _ => 0,
            })
            .sum()
    }

    /// Number of measurement operations.
    pub fn measure_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_measure()).count()
    }

    /// Number of gates excluding measurements and barriers, the convention
    /// the paper's Table 2 uses for its "Gates" column.
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !g.is_measure() && g.kind() != GateKind::Barrier)
            .count()
    }

    /// Builds the data-dependency DAG of this circuit.
    pub fn dag(&self) -> DependencyDag {
        DependencyDag::from_circuit(self)
    }

    /// Builds the qubit interaction (program) graph of this circuit.
    pub fn interaction_graph(&self) -> InteractionGraph {
        InteractionGraph::from_circuit(self)
    }

    /// Computes summary statistics (the quantities reported in Table 2).
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::from_circuit(self)
    }

    /// Returns a copy of the circuit with every SWAP expanded into its
    /// standard three-CNOT decomposition.
    pub fn expand_swaps(&self) -> Circuit {
        let mut out = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        out.set_name(self.name.clone());
        for g in &self.gates {
            if g.kind() == GateKind::Swap {
                let (a, b) = (g.qubits()[0], g.qubits()[1]);
                out.cnot(a, b);
                out.cnot(b, a);
                out.cnot(a, b);
            } else {
                out.push(g.clone());
            }
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} qubits, {} gates)",
            self.name,
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_program_order() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(1)).measure_all();
        assert_eq!(c.len(), 4);
        assert_eq!(c.gates()[0].kind(), GateKind::H);
        assert_eq!(c.gates()[1].kind(), GateKind::Cnot);
        assert!(c.gates()[2].is_measure());
    }

    #[test]
    fn try_push_rejects_out_of_range_qubit() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::cnot(Qubit(0), Qubit(5))).unwrap_err();
        assert!(matches!(err, IrError::QubitOutOfRange { qubit: 5, .. }));
        assert!(c.is_empty());
    }

    #[test]
    fn try_push_rejects_duplicate_operand() {
        let mut c = Circuit::new(3);
        let err = c.try_push(Gate::cnot(Qubit(1), Qubit(1))).unwrap_err();
        assert_eq!(err, IrError::DuplicateOperand { qubit: 1 });
    }

    #[test]
    fn try_push_rejects_out_of_range_clbit() {
        let mut c = Circuit::with_clbits(2, 1);
        let err = c.try_push(Gate::measure(Qubit(1), Clbit(1))).unwrap_err();
        assert!(matches!(err, IrError::ClbitOutOfRange { clbit: 1, .. }));
    }

    #[test]
    fn gate_count_excludes_measures_and_barriers() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(1))
            .barrier_all()
            .measure_all();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.measure_count(), 2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn expand_swaps_produces_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        let e = c.expand_swaps();
        assert_eq!(e.cnot_count(), 3);
        assert_eq!(e.len(), 3);
        // control/target alternate as in the standard decomposition.
        assert_eq!(e.gates()[0].control(), Some(Qubit(0)));
        assert_eq!(e.gates()[1].control(), Some(Qubit(1)));
        assert_eq!(e.gates()[2].control(), Some(Qubit(0)));
    }

    #[test]
    fn cnot_count_with_swaps_counts_swap_as_three() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).swap(Qubit(1), Qubit(2));
        assert_eq!(c.cnot_count(), 1);
        assert_eq!(c.cnot_count_with_swaps(), 4);
    }

    #[test]
    fn extend_from_merges_gates() {
        let mut a = Circuit::new(2);
        a.h(Qubit(0));
        let mut b = Circuit::new(2);
        b.cnot(Qubit(0), Qubit(1));
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn extend_from_rejects_larger_circuit() {
        let mut a = Circuit::new(2);
        let mut b = Circuit::new(4);
        b.h(Qubit(3));
        assert!(a.extend_from(&b).is_err());
    }

    #[test]
    fn measure_all_maps_qubit_i_to_clbit_i() {
        let mut c = Circuit::new(3);
        c.measure_all();
        for (i, g) in c.iter().enumerate() {
            assert_eq!(g.qubits()[0], Qubit(i));
            assert_eq!(g.clbits()[0], Clbit(i));
        }
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(1);
        c.set_name("demo");
        c.h(Qubit(0));
        let s = c.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("h q0"));
    }
}
