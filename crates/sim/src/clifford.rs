//! Symplectic Clifford machinery for backend selection and the tableau.
//!
//! A Clifford unitary maps Paulis to Paulis under conjugation, so a program
//! built only from Cliffords can be simulated on a stabilizer tableau with
//! pure bit arithmetic — no state-vector pass at all. This module provides
//! two pieces:
//!
//! * [`classify`] decides whether a (possibly fused) 2×2 unitary is one of
//!   the **24 single-qubit Cliffords up to global phase** by exact matching
//!   against a generated table, and returns the element's *symplectic
//!   action* — where conjugation sends `X`, `Z` and `Y`, including the
//!   image signs. Lowering uses it to pick a program's backend, and the
//!   stabilizer-tableau backend consumes the signs for its phase column.
//! * [`SymplecticPauli`] is an n-qubit Pauli string (n ≤ 24) bit-packed as
//!   an X row and a Z row in one `u32` each, with conjugation through CNOT
//!   and composition with freshly sampled error Paulis — the arithmetic
//!   that folds a SWAP's interleaved CNOT errors into one residual pair.
//!
//! Matching is *exact up to phase* with a tight tolerance
//! ([`MATCH_TOLERANCE`]): fused products of Clifford generators accumulate
//! only a few ulps of rounding, while the nearest non-Clifford gates of the
//! gate set (`T`, generic rotations) sit at entry distances of order 1.
//! A matrix within the tolerance of a Clifford but not exactly equal to it
//! perturbs amplitudes by at most ~1e-12 per op — far below the
//! statistical-equivalence tolerance the tableau is tested with.

use crate::complex::Complex;
use crate::gates::Matrix2;
use crate::noise::Pauli;
use std::sync::OnceLock;

/// Maximum per-entry deviation for a fused matrix to match a canonical
/// Clifford element (after normalizing the global phase).
pub const MATCH_TOLERANCE: f64 = 1e-12;

/// The symplectic action of a single-qubit Clifford: the images of `X`, `Z`
/// and `Y` under conjugation, as `(x-bit, z-bit)` pairs plus a sign bit per
/// generator (`true` means the image carries a `−1`).
///
/// Conjugation of an arbitrary Pauli is linear over its symplectic bits:
/// `U X^x Z^z U† ∝ (U X U†)^x (U Z U†)^z`, so the images of the two
/// generators determine the whole bit action. The signs are *not* linear in
/// the bits (the `Y` image sign absorbs an `i²` from reordering), so all
/// three are recorded; the stabilizer-tableau backend uses them to update
/// its phase column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clifford1Q {
    /// `(x, z)` bits of `U X U†`.
    pub x_image: (bool, bool),
    /// `(x, z)` bits of `U Z U†`.
    pub z_image: (bool, bool),
    /// Whether `U X U†` is the *negative* of the Pauli named by `x_image`.
    pub x_sign: bool,
    /// Whether `U Z U†` is the *negative* of the Pauli named by `z_image`.
    pub z_sign: bool,
    /// Whether `U Y U†` is the *negative* of the Pauli its bits
    /// (`x_image ⊕ z_image`) name.
    pub y_sign: bool,
}

impl Clifford1Q {
    /// The identity action.
    pub const IDENTITY: Clifford1Q = Clifford1Q {
        x_image: (true, false),
        z_image: (false, true),
        x_sign: false,
        z_sign: false,
        y_sign: false,
    };

    /// Conjugates the single-qubit Pauli `(x, z)` through this Clifford.
    #[inline]
    pub fn conjugate(&self, x: bool, z: bool) -> (bool, bool) {
        (
            (x & self.x_image.0) ^ (z & self.z_image.0),
            (x & self.x_image.1) ^ (z & self.z_image.1),
        )
    }

    /// Whether conjugating the single-qubit Pauli `(x, z)` (with the
    /// `(1, 1) = Y` convention) flips its sign.
    #[inline]
    pub fn sign_flip(&self, x: bool, z: bool) -> bool {
        (x & !z & self.x_sign) ^ (!x & z & self.z_sign) ^ (x & z & self.y_sign)
    }
}

/// An n-qubit Pauli string (n ≤ 24) in compact symplectic form: bit `q` of
/// `x`/`z` is the X/Z component on qubit `q`. The phase is deliberately not
/// tracked: a sampled error string acts on a pure state, where its phase is
/// global and never reaches a measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymplecticPauli {
    /// Bit-packed X row.
    pub x: u32,
    /// Bit-packed Z row.
    pub z: u32,
}

impl SymplecticPauli {
    /// The identity string.
    pub const IDENTITY: SymplecticPauli = SymplecticPauli { x: 0, z: 0 };

    /// The single-qubit Pauli on `qubit`.
    pub fn pauli_on(&self, qubit: u8) -> Pauli {
        Pauli::from_symplectic(self.x >> qubit & 1 == 1, self.z >> qubit & 1 == 1)
    }

    /// Composes a sampled single-qubit error Pauli onto the string
    /// (composition is XOR of symplectic bits, up to phase).
    #[inline]
    pub fn compose(&mut self, qubit: u8, pauli: Pauli) {
        let (x, z) = pauli.symplectic();
        self.x ^= u32::from(x) << qubit;
        self.z ^= u32::from(z) << qubit;
    }

    /// Conjugates the string through a CNOT (`control`, `target`): X copies
    /// from control to target, Z copies from target to control.
    #[inline]
    pub fn conjugate_cnot(&mut self, control: u8, target: u8) {
        self.x ^= (self.x >> control & 1) << target;
        self.z ^= (self.z >> target & 1) << control;
    }
}

/// One canonical single-qubit Clifford: its phase-normalized matrix and its
/// symplectic action.
struct CanonicalClifford {
    matrix: Matrix2,
    action: Clifford1Q,
}

/// The 24 single-qubit Cliffords (up to global phase), generated once as
/// the closure of `{H, S}`.
fn clifford_table() -> &'static [CanonicalClifford] {
    static TABLE: OnceLock<Vec<CanonicalClifford>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let h = crate::gates::single_qubit_matrix(nisq_ir::GateKind::H);
        let s = crate::gates::single_qubit_matrix(nisq_ir::GateKind::S);
        let mut table: Vec<CanonicalClifford> = vec![CanonicalClifford {
            matrix: normalize_phase(&[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ONE]),
            action: Clifford1Q::IDENTITY,
        }];
        // Breadth-first closure under left-multiplication by the
        // generators; the group has exactly 24 elements mod phase.
        let mut frontier = 0usize;
        while frontier < table.len() {
            let current = table[frontier].matrix;
            frontier += 1;
            for generator in [&h, &s] {
                let product = normalize_phase(&matmul(generator, &current));
                if !table
                    .iter()
                    .any(|c| matrices_equal(&c.matrix, &product, MATCH_TOLERANCE))
                {
                    let action = conjugation_action(&product)
                        .expect("products of Clifford generators are Clifford");
                    table.push(CanonicalClifford {
                        matrix: product,
                        action,
                    });
                }
            }
        }
        assert_eq!(
            table.len(),
            24,
            "the single-qubit Clifford group mod phase has 24 elements"
        );
        table
    })
}

/// Classifies a 2×2 unitary as Clifford-or-not by exact matching (up to
/// global phase, within [`MATCH_TOLERANCE`]) against the 24 canonical
/// single-qubit Cliffords. Returns the element's symplectic action on a
/// match, `None` otherwise.
pub fn classify(m: &Matrix2) -> Option<Clifford1Q> {
    let normalized = normalize_phase(m);
    clifford_table()
        .iter()
        .find(|c| matrices_equal(&c.matrix, &normalized, MATCH_TOLERANCE))
        .map(|c| c.action)
}

/// Rescales a matrix by a unit phase so its largest-magnitude entry becomes
/// real and positive — a canonical representative of the matrix's
/// up-to-global-phase class. (Every unitary row has unit norm, so the
/// largest entry's magnitude is at least `1/√2`; phase extraction is
/// well-conditioned.)
fn normalize_phase(m: &Matrix2) -> Matrix2 {
    let mut pivot = m[0];
    for entry in &m[1..] {
        if entry.norm_sqr() > pivot.norm_sqr() {
            pivot = *entry;
        }
    }
    let magnitude = pivot.norm_sqr().sqrt();
    if magnitude == 0.0 {
        return *m;
    }
    // Multiply by conj(pivot)/|pivot|: rotates pivot onto the positive
    // real axis.
    let phase = Complex::new(pivot.re / magnitude, -pivot.im / magnitude);
    [m[0] * phase, m[1] * phase, m[2] * phase, m[3] * phase]
}

fn matrices_equal(a: &Matrix2, b: &Matrix2, tol: f64) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol)
}

/// Row-major 2×2 product `a * b`.
fn matmul(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Derives the symplectic action of a unitary by conjugating `X`, `Z` and
/// `Y` and matching the images against `±X/±Y/±Z`: `None` when any image is
/// not a signed Pauli, i.e. the matrix is not Clifford. Conjugating a
/// Hermitian Pauli by a unitary yields a Hermitian operator, so the image
/// of a Pauli under a Clifford is *exactly* `±` another Pauli — the sign is
/// well-defined, with no residual phase freedom.
fn conjugation_action(m: &Matrix2) -> Option<Clifford1Q> {
    let x = [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO];
    let y = [
        Complex::ZERO,
        Complex::new(0.0, -1.0),
        Complex::new(0.0, 1.0),
        Complex::ZERO,
    ];
    let z = [Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE];
    let dagger = |u: &Matrix2| -> Matrix2 { [u[0].conj(), u[2].conj(), u[1].conj(), u[3].conj()] };
    let md = dagger(m);
    let image = |p: &Matrix2| -> Option<((bool, bool), bool)> {
        let conj = matmul(m, &matmul(p, &md));
        signed_pauli_of(&conj)
    };
    let (x_image, x_sign) = image(&x)?;
    let (z_image, z_sign) = image(&z)?;
    let (y_image, y_sign) = image(&y)?;
    debug_assert_eq!(
        y_image,
        (x_image.0 ^ z_image.0, x_image.1 ^ z_image.1),
        "the Y image bits are the XOR of the X and Z image bits"
    );
    Some(Clifford1Q {
        x_image,
        z_image,
        x_sign,
        z_sign,
        y_sign,
    })
}

/// Matches a matrix against `±X/±Y/±Z` *exactly* (no residual phase),
/// returning the symplectic bits `(x, z)` of the match and whether the
/// matrix is the negative of that Pauli.
fn signed_pauli_of(m: &Matrix2) -> Option<((bool, bool), bool)> {
    let tol = 1e-9;
    let diag = m[1].norm_sqr() < tol && m[2].norm_sqr() < tol;
    let anti = m[0].norm_sqr() < tol && m[3].norm_sqr() < tol;
    if diag {
        // ±I or ±Z: the diagonal entries agree (I) or oppose (Z), and must
        // be real for an exact signed-Pauli match.
        if m[0].im.abs() >= tol || m[3].im.abs() >= tol {
            return None;
        }
        let sum = m[0] + m[3];
        let diff = m[0] - m[3];
        if diff.norm_sqr() < tol {
            Some(((false, false), m[0].re < 0.0))
        } else if sum.norm_sqr() < tol {
            Some(((false, true), m[0].re < 0.0))
        } else {
            None
        }
    } else if anti {
        // ±X (real off-diagonals that agree) or ±Y (imaginary off-diagonals
        // that oppose; `+Y` has `−i` in the upper-right entry).
        let sum = m[1] + m[2];
        let diff = m[1] - m[2];
        if diff.norm_sqr() < tol && m[1].im.abs() < tol {
            Some(((true, false), m[1].re < 0.0))
        } else if sum.norm_sqr() < tol && m[1].re.abs() < tol {
            Some(((true, true), m[1].im > 0.0))
        } else {
            None
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::single_qubit_matrix;
    use nisq_ir::GateKind;

    fn mm(a: &Matrix2, b: &Matrix2) -> Matrix2 {
        matmul(a, b)
    }

    #[test]
    fn generated_table_has_24_elements() {
        assert_eq!(clifford_table().len(), 24);
    }

    #[test]
    fn clifford_gates_classify_with_known_actions() {
        // H: X <-> Z.
        let h = classify(&single_qubit_matrix(GateKind::H)).expect("H is Clifford");
        assert_eq!(h.x_image, (false, true));
        assert_eq!(h.z_image, (true, false));
        // S: X -> Y, Z -> Z.
        let s = classify(&single_qubit_matrix(GateKind::S)).expect("S is Clifford");
        assert_eq!(s.x_image, (true, true));
        assert_eq!(s.z_image, (false, true));
        // Paulis act trivially up to sign: identity bit action, and the two
        // anticommuting generators pick up a minus.
        for (kind, x_sign, z_sign, y_sign) in [
            (GateKind::X, false, true, true),
            (GateKind::Y, true, true, false),
            (GateKind::Z, true, false, true),
        ] {
            let p = classify(&single_qubit_matrix(kind)).expect("Paulis are Clifford");
            assert_eq!(
                (p.x_image, p.z_image),
                (Clifford1Q::IDENTITY.x_image, Clifford1Q::IDENTITY.z_image),
                "{kind:?}"
            );
            assert_eq!(
                (p.x_sign, p.z_sign, p.y_sign),
                (x_sign, z_sign, y_sign),
                "{kind:?}"
            );
        }
        // Sdg: X -> Y (sign dropped), Z -> Z.
        let sdg = classify(&single_qubit_matrix(GateKind::Sdg)).expect("Sdg is Clifford");
        assert_eq!(sdg.x_image, (true, true));
        assert_eq!(sdg.z_image, (false, true));
    }

    #[test]
    fn rotations_at_clifford_angles_classify_and_others_do_not() {
        use std::f64::consts::{FRAC_PI_2, PI};
        assert!(classify(&single_qubit_matrix(GateKind::Rz(FRAC_PI_2))).is_some());
        assert!(classify(&single_qubit_matrix(GateKind::Rx(PI))).is_some());
        assert!(classify(&single_qubit_matrix(GateKind::Ry(-FRAC_PI_2))).is_some());
        assert!(classify(&single_qubit_matrix(GateKind::T)).is_none());
        assert!(classify(&single_qubit_matrix(GateKind::Tdg)).is_none());
        assert!(classify(&single_qubit_matrix(GateKind::Rz(0.3))).is_none());
        assert!(classify(&single_qubit_matrix(GateKind::Rx(1e-6))).is_none());
    }

    #[test]
    fn fused_clifford_products_still_classify() {
        let h = single_qubit_matrix(GateKind::H);
        let s = single_qubit_matrix(GateKind::S);
        let x = single_qubit_matrix(GateKind::X);
        // HSH, SHSHS, products with Paulis — all stay in the group.
        for m in [
            mm(&h, &mm(&s, &h)),
            mm(&s, &mm(&h, &mm(&s, &mm(&h, &s)))),
            mm(&x, &mm(&h, &s)),
        ] {
            assert!(classify(&m).is_some(), "fused Clifford failed to match");
        }
        // ... but one T in the product breaks membership.
        let t = single_qubit_matrix(GateKind::T);
        assert!(classify(&mm(&h, &mm(&t, &h))).is_none());
    }

    #[test]
    fn classified_action_matches_textbook_identities() {
        // HXH = Z, HZH = X, S X S† = Y, S Z S† = Z — checked through the
        // conjugate() helper on symplectic bits.
        let h = classify(&single_qubit_matrix(GateKind::H)).unwrap();
        assert_eq!(h.conjugate(true, false), (false, true)); // X -> Z
        assert_eq!(h.conjugate(false, true), (true, false)); // Z -> X
        assert_eq!(h.conjugate(true, true), (true, true)); // Y -> ±Y
        let s = classify(&single_qubit_matrix(GateKind::S)).unwrap();
        assert_eq!(s.conjugate(true, false), (true, true)); // X -> Y
        assert_eq!(s.conjugate(false, true), (false, true)); // Z -> Z
    }

    #[test]
    fn symplectic_pauli_conjugation_rules() {
        // CNOT: X on control copies to target.
        let mut p = SymplecticPauli::IDENTITY;
        p.compose(0, Pauli::X);
        p.conjugate_cnot(0, 1);
        assert_eq!(p.pauli_on(0), Pauli::X);
        assert_eq!(p.pauli_on(1), Pauli::X);
        // CNOT: Z on target copies to control.
        let mut p = SymplecticPauli::IDENTITY;
        p.compose(1, Pauli::Z);
        p.conjugate_cnot(0, 1);
        assert_eq!(p.pauli_on(0), Pauli::Z);
        assert_eq!(p.pauli_on(1), Pauli::Z);
        // Composition is the Klein four-group per qubit.
        let mut p = SymplecticPauli::IDENTITY;
        p.compose(3, Pauli::X);
        p.compose(3, Pauli::Y);
        assert_eq!(p.pauli_on(3), Pauli::Z);
        p.compose(3, Pauli::Z);
        assert_eq!(p, SymplecticPauli::IDENTITY);
    }

    #[test]
    fn conjugation_matches_dense_matrix_conjugation() {
        // For every table element and every Pauli, the symplectic action
        // agrees with dense conjugation U P U†.
        let paulis = [
            (Pauli::X, single_qubit_matrix(GateKind::X)),
            (Pauli::Y, single_qubit_matrix(GateKind::Y)),
            (Pauli::Z, single_qubit_matrix(GateKind::Z)),
        ];
        for element in clifford_table() {
            for (pauli, matrix) in &paulis {
                let dagger: Matrix2 = [
                    element.matrix[0].conj(),
                    element.matrix[2].conj(),
                    element.matrix[1].conj(),
                    element.matrix[3].conj(),
                ];
                let conj = matmul(&element.matrix, &matmul(matrix, &dagger));
                let (expected_bits, expected_sign) =
                    signed_pauli_of(&conj).expect("Clifford conjugate is a signed Pauli");
                let (x, z) = pauli.symplectic();
                assert_eq!(element.action.conjugate(x, z), expected_bits);
                assert_eq!(element.action.sign_flip(x, z), expected_sign);
            }
        }
    }
}
