//! The channel taxonomy: every error process the simulator can attach to a
//! program site, validated for CPTP-ness at construction time.
//!
//! Channels split into two families the simulator treats very differently:
//!
//! * **Pauli-diagonal** channels ([`Channel::pauli_form`] returns `Some`) —
//!   depolarizing, bit-flip, phase-flip, Pauli-weighted. Their action is
//!   "with probability `p_fire`, apply one non-identity Pauli", which is
//!   exactly the shape of the simulator's pre-sampled Pauli noise sites, so
//!   they keep the fast execution tiers and the tableau backend's
//!   precomputed error masks.
//! * **General Kraus** channels ([`Channel::kraus_ops`] returns `Some`) —
//!   amplitude damping and explicit operator lists. Their branch
//!   probabilities depend on the quantum state, so every trial must replay
//!   densely and draw the branch against the live amplitudes.

use std::fmt;

/// A 2×2 complex matrix in row-major order (`[m00, m01, m10, m11]`);
/// each entry is `(re, im)`.
pub type Matrix2 = [(f64, f64); 4];

/// Largest number of operators a general Kraus channel may carry.
pub const MAX_KRAUS_OPS: usize = 8;

/// Tolerance for the CPTP completeness check `Σ K†K = I`.
pub const CPTP_TOLERANCE: f64 = 1e-9;

/// A fully-parameterized quantum channel.
///
/// Every variant is a CPTP map once [`Channel::validate`] passes; the
/// probability parameters are *absolute* (a `Channel` needs no further
/// context to be applied).
#[derive(Debug, Clone, PartialEq)]
pub enum Channel {
    /// Single-qubit depolarizing: with probability `p`, apply a uniformly
    /// chosen non-identity Pauli (X, Y or Z).
    Depolarizing1q {
        /// Total firing probability.
        p: f64,
    },
    /// Two-qubit depolarizing: with probability `p`, apply a uniformly
    /// chosen non-identity two-qubit Pauli (15 choices).
    Depolarizing2q {
        /// Total firing probability.
        p: f64,
    },
    /// With probability `p`, apply X.
    BitFlip {
        /// Firing probability.
        p: f64,
    },
    /// With probability `p`, apply Z.
    PhaseFlip {
        /// Firing probability.
        p: f64,
    },
    /// Apply X with probability `px`, Y with `py`, Z with `pz`
    /// (identity with the remainder).
    PauliWeighted {
        /// Probability of an X error.
        px: f64,
        /// Probability of a Y error.
        py: f64,
        /// Probability of a Z error.
        pz: f64,
    },
    /// Amplitude damping with decay probability `gamma`:
    /// `K0 = [[1, 0], [0, √(1−γ)]]`, `K1 = [[0, √γ], [0, 0]]`.
    AmplitudeDamping {
        /// Decay probability.
        gamma: f64,
    },
    /// A general single-qubit channel given by explicit Kraus operators.
    Kraus {
        /// The operator list; must satisfy `Σ K†K = I`.
        ops: Vec<Matrix2>,
    },
}

/// The Pauli-diagonal form of a channel: one firing probability plus the
/// conditional distribution over the Paulis it applies, the exact inputs of
/// a pre-sampled Pauli noise site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PauliForm {
    /// Single-qubit: conditional weights over X/Y/Z (summing to 1 whenever
    /// `p_fire > 0`).
    One {
        /// Probability any error fires at this site.
        p_fire: f64,
        /// P(X | fired).
        wx: f64,
        /// P(Y | fired).
        wy: f64,
        /// P(Z | fired).
        wz: f64,
    },
    /// Two-qubit depolarizing: uniform over the 15 non-identity Paulis.
    TwoUniform {
        /// Probability any error fires at this site.
        p_fire: f64,
    },
}

/// Why a channel or spec was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// The document is not well-formed JSON.
    Parse(String),
    /// The document is well-formed JSON but violates the spec schema
    /// (unknown field, wrong type, bad selector, out-of-range rate...).
    Invalid(String),
    /// A channel's parameters do not describe a CPTP map.
    NotCptp(String),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::Parse(m) => write!(f, "noise spec is not valid JSON: {m}"),
            NoiseError::Invalid(m) => write!(f, "invalid noise spec: {m}"),
            NoiseError::NotCptp(m) => write!(f, "channel is not CPTP: {m}"),
        }
    }
}

impl std::error::Error for NoiseError {}

fn check_probability(p: f64, what: &str) -> Result<(), NoiseError> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(NoiseError::NotCptp(format!(
            "{what} must be a probability in [0, 1], got {p}"
        )));
    }
    Ok(())
}

impl Channel {
    /// Checks the parameters describe a CPTP map.
    ///
    /// # Errors
    ///
    /// [`NoiseError::NotCptp`] when a probability is out of range, a Kraus
    /// entry is non-finite, or the completeness sum `Σ K†K` differs from
    /// the identity by more than [`CPTP_TOLERANCE`].
    pub fn validate(&self) -> Result<(), NoiseError> {
        match self {
            Channel::Depolarizing1q { p } => check_probability(*p, "depolarizing-1q p"),
            Channel::Depolarizing2q { p } => check_probability(*p, "depolarizing-2q p"),
            Channel::BitFlip { p } => check_probability(*p, "bit-flip p"),
            Channel::PhaseFlip { p } => check_probability(*p, "phase-flip p"),
            Channel::PauliWeighted { px, py, pz } => {
                check_probability(*px, "pauli-weighted px")?;
                check_probability(*py, "pauli-weighted py")?;
                check_probability(*pz, "pauli-weighted pz")?;
                check_probability(px + py + pz, "pauli-weighted px+py+pz")
            }
            Channel::AmplitudeDamping { gamma } => {
                check_probability(*gamma, "amplitude-damping gamma")
            }
            Channel::Kraus { ops } => validate_kraus(ops),
        }
    }

    /// The Pauli-diagonal form, when the channel has one; `None` for
    /// amplitude damping and general Kraus channels (those force the dense
    /// backend).
    pub fn pauli_form(&self) -> Option<PauliForm> {
        match *self {
            Channel::Depolarizing1q { p } => Some(PauliForm::One {
                p_fire: p,
                wx: 1.0 / 3.0,
                wy: 1.0 / 3.0,
                wz: 1.0 / 3.0,
            }),
            Channel::Depolarizing2q { p } => Some(PauliForm::TwoUniform { p_fire: p }),
            Channel::BitFlip { p } => Some(PauliForm::One {
                p_fire: p,
                wx: 1.0,
                wy: 0.0,
                wz: 0.0,
            }),
            Channel::PhaseFlip { p } => Some(PauliForm::One {
                p_fire: p,
                wx: 0.0,
                wy: 0.0,
                wz: 1.0,
            }),
            Channel::PauliWeighted { px, py, pz } => {
                let p_fire = px + py + pz;
                let (wx, wy, wz) = if p_fire > 0.0 {
                    (px / p_fire, py / p_fire, pz / p_fire)
                } else {
                    (1.0, 0.0, 0.0)
                };
                Some(PauliForm::One { p_fire, wx, wy, wz })
            }
            Channel::AmplitudeDamping { .. } | Channel::Kraus { .. } => None,
        }
    }

    /// The explicit Kraus operators, for the channels that need dense
    /// state-dependent application; `None` for Pauli-diagonal channels
    /// (those lower into the pre-sampler instead).
    pub fn kraus_ops(&self) -> Option<Vec<Matrix2>> {
        match self {
            Channel::AmplitudeDamping { gamma } => {
                let s = (1.0 - gamma).max(0.0).sqrt();
                let g = gamma.max(0.0).sqrt();
                Some(vec![
                    [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (s, 0.0)],
                    [(0.0, 0.0), (g, 0.0), (0.0, 0.0), (0.0, 0.0)],
                ])
            }
            Channel::Kraus { ops } => Some(ops.clone()),
            _ => None,
        }
    }
}

/// Checks completeness `Σ K†K = I` (which also implies trace preservation).
fn validate_kraus(ops: &[Matrix2]) -> Result<(), NoiseError> {
    if ops.is_empty() || ops.len() > MAX_KRAUS_OPS {
        return Err(NoiseError::NotCptp(format!(
            "a Kraus channel needs 1..={MAX_KRAUS_OPS} operators, got {}",
            ops.len()
        )));
    }
    for (k, op) in ops.iter().enumerate() {
        for (re, im) in op {
            if !re.is_finite() || !im.is_finite() {
                return Err(NoiseError::NotCptp(format!(
                    "Kraus operator {k} has a non-finite entry"
                )));
            }
        }
    }
    // (Σ_k K†K)_{ij} = Σ_k Σ_m conj(K_mi) · K_mj, row-major index 2m+i.
    let mut sum = [(0.0f64, 0.0f64); 4];
    for op in ops {
        for i in 0..2 {
            for j in 0..2 {
                for m in 0..2 {
                    let (ar, ai) = op[2 * m + i];
                    let (br, bi) = op[2 * m + j];
                    // conj(a) * b
                    sum[2 * i + j].0 += ar * br + ai * bi;
                    sum[2 * i + j].1 += ar * bi - ai * br;
                }
            }
        }
    }
    let identity = [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)];
    let mut defect = 0.0f64;
    for (s, id) in sum.iter().zip(identity.iter()) {
        defect = defect.max((s.0 - id.0).abs()).max((s.1 - id.1).abs());
    }
    if defect > CPTP_TOLERANCE {
        return Err(NoiseError::NotCptp(format!(
            "Kraus completeness sum deviates from identity by {defect:.3e} \
             (tolerance {CPTP_TOLERANCE:.0e})"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_channels_classify_and_validate() {
        let c = Channel::Depolarizing1q { p: 0.3 };
        c.validate().unwrap();
        let Some(PauliForm::One { p_fire, wx, wy, wz }) = c.pauli_form() else {
            panic!("depolarizing must be Pauli-diagonal");
        };
        assert!((p_fire - 0.3).abs() < 1e-15);
        assert!((wx + wy + wz - 1.0).abs() < 1e-15);

        let c = Channel::PauliWeighted {
            px: 0.1,
            py: 0.0,
            pz: 0.3,
        };
        c.validate().unwrap();
        let Some(PauliForm::One { p_fire, wx, wz, .. }) = c.pauli_form() else {
            panic!()
        };
        assert!((p_fire - 0.4).abs() < 1e-15);
        assert!((wx - 0.25).abs() < 1e-15);
        assert!((wz - 0.75).abs() < 1e-15);

        assert!(matches!(
            Channel::Depolarizing2q { p: 0.1 }.pauli_form(),
            Some(PauliForm::TwoUniform { .. })
        ));
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert!(Channel::BitFlip { p: 1.2 }.validate().is_err());
        assert!(Channel::PhaseFlip { p: -0.1 }.validate().is_err());
        assert!(Channel::AmplitudeDamping { gamma: f64::NAN }
            .validate()
            .is_err());
        assert!(Channel::PauliWeighted {
            px: 0.5,
            py: 0.5,
            pz: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn amplitude_damping_kraus_ops_are_complete() {
        for gamma in [0.0, 0.25, 1.0] {
            let ops = Channel::AmplitudeDamping { gamma }.kraus_ops().unwrap();
            validate_kraus(&ops).unwrap();
        }
        assert!(Channel::AmplitudeDamping { gamma: 0.5 }
            .pauli_form()
            .is_none());
    }

    #[test]
    fn kraus_completeness_is_enforced() {
        // A valid dephasing-style pair...
        let p: f64 = 0.1;
        let good = Channel::Kraus {
            ops: vec![
                [
                    ((1.0 - p).sqrt(), 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    ((1.0 - p).sqrt(), 0.0),
                ],
                [(p.sqrt(), 0.0), (0.0, 0.0), (0.0, 0.0), (-p.sqrt(), 0.0)],
            ],
        };
        good.validate().unwrap();

        // ...and the same pair scaled is no longer trace preserving.
        let bad = Channel::Kraus {
            ops: vec![[(0.9, 0.0), (0.0, 0.0), (0.0, 0.0), (0.9, 0.0)]],
        };
        assert!(matches!(bad.validate(), Err(NoiseError::NotCptp(_))));

        assert!(Channel::Kraus { ops: vec![] }.validate().is_err());
    }
}
