//! The pluggable simulation-backend seam.
//!
//! A lowered [`TrialProgram`](crate::TrialProgram) is a flat op stream; how
//! those ops act on quantum state is a backend concern. [`SimBackend`]
//! captures exactly the per-op hooks the replay walkers need — fused
//! single-qubit unitaries, CNOT, relabeling SWAP, error-Pauli injection,
//! mid-circuit measurement, terminal joint sampling, and checkpoint
//! save/restore — so the same generic walk drives every state
//! representation:
//!
//! * the dense split-complex [`StateVector`](crate::StateVector) (via
//!   [`TrialScratch`](crate::TrialScratch), the default backend: any gate
//!   set, at most 24 qubits), and
//! * the bit-packed stabilizer tableau
//!   ([`TableauState`](crate::tableau::TableauState): fully-Clifford
//!   programs, hundreds of qubits).
//!
//! Backend *selection* is automatic and per program: lowering classifies
//! every fused unitary against the single-qubit Clifford group and marks
//! the program [`BackendKind::Tableau`] when the whole program is Clifford,
//! [`BackendKind::Dense`] otherwise. No public caller names a backend; the
//! simulator dispatches on the program's kind alone. Dense outcomes are
//! bit-identical to [`TrialProgram::run_trial`](crate::TrialProgram::run_trial);
//! tableau outcomes match it in distribution.

use crate::gates::Matrix2;
use crate::noise::Pauli;
use crate::program::KrausTable;
use rand::Rng;

/// Which simulation backend serves a lowered program's trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Dense split-complex state vector: any gate set, at most 24 qubits.
    #[default]
    Dense,
    /// Bit-packed stabilizer tableau: fully-Clifford programs only, scales
    /// to hundreds of qubits with no 2^n memory term.
    Tableau,
}

impl BackendKind {
    /// Stable lower-case name used in reports ("dense" | "tableau").
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Tableau => "tableau",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-op state interface a replay walk drives.
///
/// Implementations must uphold the replay contracts the tiered engine's
/// bit-exactness rests on:
///
/// * `fuse_unitary` may defer materialization arbitrarily, but every
///   observable operation (`cnot`, `measure`, `terminal_sample`) must act
///   as if all pending unitaries on the involved qubits were applied first.
/// * `swap_relabel` is the *unitary part* of a SWAP — backends realize it
///   as pure relabeling (zero state passes); sampled SWAP errors arrive
///   separately via `inject_pauli` on the relabeled wires.
/// * RNG discipline: `measure` consumes exactly the draws its outcome
///   needs, `terminal_sample` returns *ideal* outcomes only — readout-flip
///   draws stay in the walker so every backend sees the same downstream
///   stream shape.
pub trait SimBackend {
    /// Resets to the all-zeros state with an identity wire labeling.
    fn reset_state(&mut self);

    /// Composes a (possibly fused) single-qubit unitary onto `qubit`.
    fn fuse_unitary(&mut self, qubit: u8, matrix: &Matrix2);

    /// Composes a sampled single-qubit error Pauli onto `qubit`.
    fn inject_pauli(&mut self, qubit: u8, pauli: Pauli);

    /// Applies a CNOT (materializing any pending unitaries on both wires).
    fn cnot(&mut self, control: u8, target: u8);

    /// Realizes the unitary part of a SWAP by relabeling the two wires.
    fn swap_relabel(&mut self, a: u8, b: u8);

    /// Applies a general (non-Pauli) Kraus channel to `qubit`, selecting
    /// the branch with the caller's uniform `u` against the state-dependent
    /// branch probabilities. Only the dense backend can serve this —
    /// lowering forces [`BackendKind::Dense`] for any program containing
    /// one, so the tableau implementation is unreachable.
    fn apply_kraus(&mut self, qubit: u8, table: &KrausTable, u: f64);

    /// Measures `qubit` in the computational basis, collapsing the state
    /// and returning the outcome (readout flips are the walker's job).
    fn measure<R: Rng + ?Sized>(&mut self, qubit: u8, rng: &mut R) -> bool;

    /// Jointly samples the trailing run of measurements from the
    /// uncollapsed state. Bit `i` of the result is the ideal outcome of
    /// `measures[i]` (readout flips are the walker's job; `measures` holds
    /// `(qubit, clbit, p_flip)` triples in program order, at most 128).
    fn terminal_sample<R: Rng + ?Sized>(&mut self, measures: &[(u8, u8, f64)], rng: &mut R)
        -> u128;

    /// Saves the current state into `checkpoint` (same width, no
    /// allocation on the hot path).
    fn save_into(&self, checkpoint: &mut Self);

    /// Restores the state from a checkpoint previously saved with
    /// [`SimBackend::save_into`].
    fn restore_from(&mut self, checkpoint: &Self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_names_are_stable() {
        // Report JSON and the bench harness serialize these names; they are
        // part of the nisq-sweep-report/v6 schema.
        assert_eq!(BackendKind::Dense.name(), "dense");
        assert_eq!(BackendKind::Tableau.to_string(), "tableau");
        assert_eq!(BackendKind::default(), BackendKind::Dense);
    }
}
