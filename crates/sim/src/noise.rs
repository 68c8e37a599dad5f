//! Stochastic error channels driven by machine calibration data:
//! depolarizing noise after gates, dephasing over time, and classical
//! readout bit-flips.

use nisq_ir::GateKind;
use rand::Rng;

/// Which error channels the simulator injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing error after every hardware CNOT, with the per-edge rate
    /// from the calibration data.
    pub cnot_noise: bool,
    /// Depolarizing error after every single-qubit gate, with the per-qubit
    /// rate from the calibration data.
    pub single_qubit_noise: bool,
    /// Classical bit-flips on measurement results, with the per-qubit
    /// readout error rate.
    pub readout_noise: bool,
    /// Dephasing proportional to gate duration over the qubit's T2 time.
    pub decoherence: bool,
}

impl NoiseModel {
    /// The full noise model: every channel enabled (the default used for
    /// success-rate experiments).
    pub fn full() -> Self {
        NoiseModel {
            cnot_noise: true,
            single_qubit_noise: true,
            readout_noise: true,
            decoherence: true,
        }
    }

    /// A noiseless model, used to validate circuit semantics.
    pub fn ideal() -> Self {
        NoiseModel {
            cnot_noise: false,
            single_qubit_noise: false,
            readout_noise: false,
            decoherence: false,
        }
    }

    /// The paper's first-order model: CNOT and readout errors only.
    pub fn cnot_and_readout_only() -> Self {
        NoiseModel {
            cnot_noise: true,
            single_qubit_noise: false,
            readout_noise: true,
            decoherence: false,
        }
    }

    /// Whether any channel is enabled.
    pub fn is_noisy(&self) -> bool {
        self.cnot_noise || self.single_qubit_noise || self.readout_noise || self.decoherence
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::full()
    }
}

/// A Pauli operator used for stochastic error injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// Identity (no error).
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// The corresponding gate kind, or `None` for the identity.
    pub fn gate_kind(&self) -> Option<GateKind> {
        match self {
            Pauli::I => None,
            Pauli::X => Some(GateKind::X),
            Pauli::Y => Some(GateKind::Y),
            Pauli::Z => Some(GateKind::Z),
        }
    }

    /// Composes two Pauli errors into the single Pauli with the same action
    /// on the state up to global phase (the Pauli group modulo phase is the
    /// Klein four-group). Global phase never affects measurement statistics,
    /// so the trial program applies one composed Pauli instead of two.
    pub fn compose(self, other: Pauli) -> Pauli {
        use Pauli::{I, X, Y, Z};
        match (self, other) {
            (I, p) | (p, I) => p,
            (a, b) if a == b => I,
            (X, Y) | (Y, X) => Z,
            (X, Z) | (Z, X) => Y,
            _ => X, // the remaining cases: (Y, Z) and (Z, Y)
        }
    }

    /// The symplectic `(x, z)` bits of the Pauli: `P = X^x Z^z` up to
    /// global phase — the coordinate system of Pauli strings
    /// ([`crate::clifford::SymplecticPauli`]) and of the stabilizer tableau.
    pub fn symplectic(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// The Pauli with the given symplectic bits (inverse of
    /// [`Pauli::symplectic`], up to global phase).
    pub fn from_symplectic(x: bool, z: bool) -> Pauli {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    fn from_index(i: usize) -> Pauli {
        match i {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        }
    }
}

/// Samples a single-qubit depolarizing error with probability `p`: with
/// probability `p`, a uniformly random non-identity Pauli.
pub fn depolarizing_1q<R: Rng + ?Sized>(p: f64, rng: &mut R) -> Pauli {
    if rng.gen_bool(p.clamp(0.0, 1.0)) {
        fired_depol_1q(rng)
    } else {
        Pauli::I
    }
}

/// The severity draw of a single-qubit depolarizing error that is known to
/// have fired: a uniformly random non-identity Pauli.
pub(crate) fn fired_depol_1q<R: Rng + ?Sized>(rng: &mut R) -> Pauli {
    Pauli::from_index(rng.gen_range(1..4))
}

/// The severity draw of a two-qubit depolarizing error that is known to
/// have fired: a uniformly random non-identity pair of Paulis.
pub(crate) fn fired_depol_2q<R: Rng + ?Sized>(rng: &mut R) -> (Pauli, Pauli) {
    let idx = rng.gen_range(1..16usize);
    (Pauli::from_index(idx / 4), Pauli::from_index(idx % 4))
}

/// Samples a two-qubit depolarizing error with probability `p`: with
/// probability `p`, a uniformly random non-identity pair of Paulis.
pub fn depolarizing_2q<R: Rng + ?Sized>(p: f64, rng: &mut R) -> (Pauli, Pauli) {
    if rng.gen_bool(p.clamp(0.0, 1.0)) {
        // Uniform over the 15 non-identity two-qubit Paulis.
        fired_depol_2q(rng)
    } else {
        (Pauli::I, Pauli::I)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_model_presets() {
        assert!(NoiseModel::full().is_noisy());
        assert!(!NoiseModel::ideal().is_noisy());
        let paper = NoiseModel::cnot_and_readout_only();
        assert!(paper.cnot_noise && paper.readout_noise);
        assert!(!paper.single_qubit_noise && !paper.decoherence);
    }

    #[test]
    fn pauli_gate_kinds_are_correct() {
        assert_eq!(Pauli::I.gate_kind(), None);
        assert_eq!(Pauli::X.gate_kind(), Some(GateKind::X));
        assert_eq!(Pauli::Z.gate_kind(), Some(GateKind::Z));
    }

    #[test]
    fn pauli_composition_is_the_klein_four_group() {
        use Pauli::{I, X, Y, Z};
        let all = [I, X, Y, Z];
        for p in all {
            assert_eq!(p.compose(I), p);
            assert_eq!(I.compose(p), p);
            assert_eq!(p.compose(p), I);
        }
        assert_eq!(X.compose(Y), Z);
        assert_eq!(Y.compose(X), Z);
        assert_eq!(X.compose(Z), Y);
        assert_eq!(Z.compose(X), Y);
        assert_eq!(Y.compose(Z), X);
        assert_eq!(Z.compose(Y), X);
    }
}
