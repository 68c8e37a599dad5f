use std::fmt;

/// Index of a *program* qubit (a logical qubit in the input circuit, before
/// it is mapped to a hardware location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qubit(pub usize);

/// Index of a classical bit holding a measurement result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clbit(pub usize);

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for Clbit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for Qubit {
    fn from(value: usize) -> Self {
        Qubit(value)
    }
}

impl From<usize> for Clbit {
    fn from(value: usize) -> Self {
        Clbit(value)
    }
}

/// The kind of a gate, independent of its operands.
///
/// The set mirrors the operations the paper's benchmarks need after ScaffCC
/// decomposition: the Clifford+T single-qubit set, arbitrary-axis rotations,
/// CNOT, SWAP (used by the router), measurement and barriers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum GateKind {
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = sqrt(Z).
    S,
    /// Adjoint of S.
    Sdg,
    /// T = fourth root of Z.
    T,
    /// Adjoint of T.
    Tdg,
    /// Rotation about X by the given angle (radians).
    Rx(f64),
    /// Rotation about Y by the given angle (radians).
    Ry(f64),
    /// Rotation about Z by the given angle (radians).
    Rz(f64),
    /// Controlled-NOT; operands are `[control, target]`.
    Cnot,
    /// SWAP of two qubits; inserted by the router, decomposes into 3 CNOTs.
    Swap,
    /// Projective measurement in the computational basis.
    Measure,
    /// Scheduling barrier across its operand qubits.
    Barrier,
}

impl GateKind {
    /// Lower-case OpenQASM 2.0 mnemonic for this gate kind.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            GateKind::H => "h",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Rx(_) => "rx",
            GateKind::Ry(_) => "ry",
            GateKind::Rz(_) => "rz",
            GateKind::Cnot => "cx",
            GateKind::Swap => "swap",
            GateKind::Measure => "measure",
            GateKind::Barrier => "barrier",
        }
    }

    /// Hash discriminant for this kind: a small code plus the rotation
    /// angle's IEEE-754 bits for the parameterized kinds, so structurally
    /// identical kinds hash identically (used by [`crate::Circuit::fingerprint`]).
    fn hash_code(&self) -> (u8, u64) {
        match *self {
            GateKind::H => (0, 0),
            GateKind::X => (1, 0),
            GateKind::Y => (2, 0),
            GateKind::Z => (3, 0),
            GateKind::S => (4, 0),
            GateKind::Sdg => (5, 0),
            GateKind::T => (6, 0),
            GateKind::Tdg => (7, 0),
            GateKind::Rx(a) => (8, a.to_bits()),
            GateKind::Ry(a) => (9, a.to_bits()),
            GateKind::Rz(a) => (10, a.to_bits()),
            GateKind::Cnot => (11, 0),
            GateKind::Swap => (12, 0),
            GateKind::Measure => (13, 0),
            GateKind::Barrier => (14, 0),
        }
    }

    /// Whether this kind acts on exactly one qubit.
    pub fn is_single_qubit(&self) -> bool {
        matches!(
            self,
            GateKind::H
                | GateKind::X
                | GateKind::Y
                | GateKind::Z
                | GateKind::S
                | GateKind::Sdg
                | GateKind::T
                | GateKind::Tdg
                | GateKind::Rx(_)
                | GateKind::Ry(_)
                | GateKind::Rz(_)
        )
    }

    /// Whether this kind acts on exactly two qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, GateKind::Cnot | GateKind::Swap)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Rx(a) => write!(f, "rx({a})"),
            GateKind::Ry(a) => write!(f, "ry({a})"),
            GateKind::Rz(a) => write!(f, "rz({a})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

impl std::hash::Hash for GateKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Manual impl because the rotation kinds carry `f64` angles; hashing
        // the IEEE-754 bits keeps the `PartialEq`/`Hash` contract (equal
        // kinds compare equal angles, so equal bits).
        let (code, angle_bits) = self.hash_code();
        state.write_u8(code);
        state.write_u64(angle_bits);
    }
}

/// A single gate instance: a kind plus the program qubits (and classical
/// bits) it acts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    kind: GateKind,
    qubits: Vec<Qubit>,
    clbits: Vec<Clbit>,
}

impl Gate {
    /// Creates a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a single-qubit kind; use the dedicated
    /// constructors for multi-qubit gates.
    pub fn single(kind: GateKind, qubit: Qubit) -> Self {
        assert!(
            kind.is_single_qubit(),
            "Gate::single called with non-single-qubit kind {kind:?}"
        );
        Gate {
            kind,
            qubits: vec![qubit],
            clbits: Vec::new(),
        }
    }

    /// Creates a CNOT gate with the given control and target.
    pub fn cnot(control: Qubit, target: Qubit) -> Self {
        Gate {
            kind: GateKind::Cnot,
            qubits: vec![control, target],
            clbits: Vec::new(),
        }
    }

    /// Creates a SWAP gate between two qubits.
    pub fn swap(a: Qubit, b: Qubit) -> Self {
        Gate {
            kind: GateKind::Swap,
            qubits: vec![a, b],
            clbits: Vec::new(),
        }
    }

    /// Creates a measurement of `qubit` into `clbit`.
    pub fn measure(qubit: Qubit, clbit: Clbit) -> Self {
        Gate {
            kind: GateKind::Measure,
            qubits: vec![qubit],
            clbits: vec![clbit],
        }
    }

    /// Creates a barrier across the given qubits.
    pub fn barrier<I: IntoIterator<Item = Qubit>>(qubits: I) -> Self {
        Gate {
            kind: GateKind::Barrier,
            qubits: qubits.into_iter().collect(),
            clbits: Vec::new(),
        }
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The program qubits this gate acts on, in operand order.
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// The classical bits this gate writes (non-empty only for measurements).
    pub fn clbits(&self) -> &[Clbit] {
        &self.clbits
    }

    /// Whether this gate is a CNOT.
    pub fn is_cnot(&self) -> bool {
        matches!(self.kind, GateKind::Cnot)
    }

    /// Whether this gate is a measurement.
    pub fn is_measure(&self) -> bool {
        matches!(self.kind, GateKind::Measure)
    }

    /// Whether this gate acts on a single qubit (excluding measurements and
    /// barriers).
    pub fn is_single_qubit(&self) -> bool {
        self.kind.is_single_qubit()
    }

    /// Whether this gate acts on two qubits (CNOT or SWAP).
    pub fn is_two_qubit(&self) -> bool {
        self.kind.is_two_qubit()
    }

    /// The control qubit, if this gate is a CNOT.
    pub fn control(&self) -> Option<Qubit> {
        if self.is_cnot() {
            Some(self.qubits[0])
        } else {
            None
        }
    }

    /// The target qubit, if this gate is a CNOT.
    pub fn target(&self) -> Option<Qubit> {
        if self.is_cnot() {
            Some(self.qubits[1])
        } else {
            None
        }
    }
}

impl std::hash::Hash for Gate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.qubits.hash(state);
        self.clbits.hash(state);
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        let operands: Vec<String> = self.qubits.iter().map(|q| q.to_string()).collect();
        write!(f, " {}", operands.join(", "))?;
        if let Some(c) = self.clbits.first() {
            write!(f, " -> {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnot_exposes_control_and_target() {
        let g = Gate::cnot(Qubit(1), Qubit(3));
        assert_eq!(g.control(), Some(Qubit(1)));
        assert_eq!(g.target(), Some(Qubit(3)));
        assert!(g.is_cnot());
        assert!(g.is_two_qubit());
        assert!(!g.is_single_qubit());
    }

    #[test]
    fn single_qubit_gate_has_one_operand() {
        let g = Gate::single(GateKind::H, Qubit(0));
        assert_eq!(g.qubits(), &[Qubit(0)]);
        assert!(g.is_single_qubit());
        assert_eq!(g.control(), None);
    }

    #[test]
    #[should_panic(expected = "non-single-qubit")]
    fn single_constructor_rejects_cnot_kind() {
        let _ = Gate::single(GateKind::Cnot, Qubit(0));
    }

    #[test]
    fn measure_records_clbit() {
        let g = Gate::measure(Qubit(2), Clbit(2));
        assert!(g.is_measure());
        assert_eq!(g.clbits(), &[Clbit(2)]);
    }

    #[test]
    fn mnemonics_match_openqasm() {
        assert_eq!(GateKind::Cnot.mnemonic(), "cx");
        assert_eq!(GateKind::Sdg.mnemonic(), "sdg");
        assert_eq!(GateKind::Rz(1.0).mnemonic(), "rz");
    }

    #[test]
    fn display_is_nonempty() {
        let g = Gate::measure(Qubit(0), Clbit(0));
        assert_eq!(g.to_string(), "measure q0 -> c0");
        let g = Gate::single(GateKind::Rz(0.5), Qubit(1));
        assert!(g.to_string().starts_with("rz(0.5)"));
    }

    #[test]
    fn barrier_collects_operands() {
        let g = Gate::barrier([Qubit(0), Qubit(1), Qubit(2)]);
        assert_eq!(g.qubits().len(), 3);
        assert_eq!(g.kind(), GateKind::Barrier);
    }
}
