use crate::error::OptError;
use nisq_machine::HwQubit;

/// A pairwise cost term: a program-qubit pair that interacts (shares CNOTs),
/// contributing `weight * pair_cost[place(a)][place(b)]` to the objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTerm {
    /// First program qubit.
    pub a: usize,
    /// Second program qubit.
    pub b: usize,
    /// Multiplier (e.g. CNOT count between the pair times `1 - ω`).
    pub weight: f64,
}

/// A single-qubit cost term: a program qubit that is measured, contributing
/// `weight * single_cost[place(q)]` to the objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleTerm {
    /// Program qubit.
    pub q: usize,
    /// Multiplier (e.g. `ω` per readout).
    pub weight: f64,
}

/// A placement objective in quadratic-assignment form.
///
/// The paper's Equation 12 (weighted log-reliability of CNOTs and readouts)
/// and its duration objective both reduce to this shape once the junction
/// choice per CNOT is folded into the pairwise cost matrix (the solver is
/// free to pick the better junction, so the optimum is unchanged). The
/// solvers minimize
///
/// ```text
/// sum_i pair[i].weight * pair_cost[place(a_i)][place(b_i)]
///   + sum_j single[j].weight * single_cost[place(q_j)]
/// ```
///
/// over injective placements of program qubits onto hardware qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentProblem {
    num_program: usize,
    num_hardware: usize,
    pair_terms: Vec<PairTerm>,
    single_terms: Vec<SingleTerm>,
    /// `pair_cost[h1 * num_hardware + h2]`, symmetric.
    pair_cost: Vec<f64>,
    /// `single_cost[h]`.
    single_cost: Vec<f64>,
    /// The smallest off-diagonal `pair_cost` entry.
    min_pair: f64,
    /// `min_pair_from[h]`: the smallest `pair_cost[h][other]`, `other != h`.
    min_pair_from: Vec<f64>,
    /// The smallest `single_cost` entry.
    min_single: f64,
}

impl AssignmentProblem {
    /// Creates a problem from its cost matrices and terms.
    ///
    /// # Errors
    ///
    /// Returns an error if more program qubits than hardware qubits are
    /// requested.
    ///
    /// # Panics
    ///
    /// Panics if the cost matrices have the wrong dimensions or a term
    /// references a program qubit outside `0..num_program`.
    pub fn new(
        num_program: usize,
        num_hardware: usize,
        pair_terms: Vec<PairTerm>,
        single_terms: Vec<SingleTerm>,
        pair_cost: Vec<f64>,
        single_cost: Vec<f64>,
    ) -> Result<Self, OptError> {
        if num_program > num_hardware {
            return Err(OptError::TooManyProgramQubits {
                program: num_program,
                hardware: num_hardware,
            });
        }
        assert_eq!(
            pair_cost.len(),
            num_hardware * num_hardware,
            "pair cost matrix must be num_hardware^2"
        );
        assert_eq!(
            single_cost.len(),
            num_hardware,
            "single cost vector must be num_hardware long"
        );
        for t in &pair_terms {
            assert!(t.a < num_program && t.b < num_program && t.a != t.b);
        }
        for t in &single_terms {
            assert!(t.q < num_program);
        }
        // The solvers' bounds read these minima at every search node, so
        // they are computed once here.
        let min_pair = pair_cost
            .iter()
            .enumerate()
            .filter(|(i, _)| i / num_hardware != i % num_hardware)
            .map(|(_, &c)| c)
            .fold(f64::INFINITY, f64::min);
        let min_pair_from = (0..num_hardware)
            .map(|h| {
                (0..num_hardware)
                    .filter(|&other| other != h)
                    .map(|other| pair_cost[h * num_hardware + other])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let min_single = single_cost.iter().copied().fold(f64::INFINITY, f64::min);
        Ok(AssignmentProblem {
            num_program,
            num_hardware,
            pair_terms,
            single_terms,
            pair_cost,
            single_cost,
            min_pair,
            min_pair_from,
            min_single,
        })
    }

    /// Number of program qubits to place.
    pub fn num_program(&self) -> usize {
        self.num_program
    }

    /// Number of hardware locations available.
    pub fn num_hardware(&self) -> usize {
        self.num_hardware
    }

    /// The pairwise terms.
    pub fn pair_terms(&self) -> &[PairTerm] {
        &self.pair_terms
    }

    /// The single-qubit terms.
    pub fn single_terms(&self) -> &[SingleTerm] {
        &self.single_terms
    }

    /// Pairwise cost of hosting an interacting pair at hardware locations
    /// `h1` and `h2`.
    pub fn pair_cost(&self, h1: HwQubit, h2: HwQubit) -> f64 {
        self.pair_cost[h1.0 * self.num_hardware + h2.0]
    }

    /// Single-qubit cost of hosting a measured program qubit at `h`.
    pub fn single_cost(&self, h: HwQubit) -> f64 {
        self.single_cost[h.0]
    }

    /// The smallest pairwise cost anywhere in the machine (used as an
    /// admissible bound for unplaced pairs).
    pub fn min_pair_cost(&self) -> f64 {
        self.min_pair
    }

    /// The smallest pairwise cost for a pair with one endpoint fixed at `h`.
    pub fn min_pair_cost_from(&self, h: HwQubit) -> f64 {
        self.min_pair_from[h.0]
    }

    /// The smallest single-qubit cost anywhere in the machine.
    pub fn min_single_cost(&self) -> f64 {
        self.min_single
    }

    /// Validates a complete placement against Constraints 1-2 (every program
    /// qubit on a distinct, in-range hardware qubit).
    ///
    /// # Errors
    ///
    /// Returns an error describing the first violation.
    pub fn validate_placement(&self, assignment: &[HwQubit]) -> Result<(), OptError> {
        if assignment.len() != self.num_program {
            return Err(OptError::InvalidPlacement {
                reason: format!(
                    "expected {} placed qubits, got {}",
                    self.num_program,
                    assignment.len()
                ),
            });
        }
        let mut used = vec![false; self.num_hardware];
        for (p, h) in assignment.iter().enumerate() {
            if h.0 >= self.num_hardware {
                return Err(OptError::InvalidPlacement {
                    reason: format!("program qubit {p} placed on non-existent hardware qubit {h}"),
                });
            }
            if used[h.0] {
                return Err(OptError::InvalidPlacement {
                    reason: format!("hardware qubit {h} hosts more than one program qubit"),
                });
            }
            used[h.0] = true;
        }
        Ok(())
    }

    /// Evaluates the total cost of a complete placement.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement is invalid.
    pub fn evaluate(&self, assignment: &[HwQubit]) -> Result<f64, OptError> {
        self.validate_placement(assignment)?;
        let mut total = 0.0;
        for t in &self.pair_terms {
            total += t.weight * self.pair_cost(assignment[t.a], assignment[t.b]);
        }
        for t in &self.single_terms {
            total += t.weight * self.single_cost(assignment[t.q]);
        }
        Ok(total)
    }

    /// Total weight incident on each program qubit, used to order branching
    /// (most constrained first).
    pub fn incident_weight(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.num_program];
        for t in &self.pair_terms {
            w[t.a] += t.weight.abs();
            w[t.b] += t.weight.abs();
        }
        for t in &self.single_terms {
            w[t.q] += t.weight.abs();
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 2-program-qubit, 3-hardware-qubit problem where locations 0-1
    /// are cheap to pair and location 2 has the cheapest single cost.
    fn toy() -> AssignmentProblem {
        let pair_cost = vec![
            0.0, 1.0, 5.0, //
            1.0, 0.0, 5.0, //
            5.0, 5.0, 0.0,
        ];
        let single_cost = vec![2.0, 3.0, 0.5];
        AssignmentProblem::new(
            2,
            3,
            vec![PairTerm {
                a: 0,
                b: 1,
                weight: 1.0,
            }],
            vec![
                SingleTerm { q: 0, weight: 1.0 },
                SingleTerm { q: 1, weight: 1.0 },
            ],
            pair_cost,
            single_cost,
        )
        .unwrap()
    }

    #[test]
    fn evaluate_sums_terms() {
        let p = toy();
        let cost = p.evaluate(&[HwQubit(0), HwQubit(1)]).unwrap();
        assert!((cost - (1.0 + 2.0 + 3.0)).abs() < 1e-12);
        let cost = p.evaluate(&[HwQubit(2), HwQubit(0)]).unwrap();
        assert!((cost - (5.0 + 0.5 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn rejects_duplicate_placement() {
        let p = toy();
        assert!(matches!(
            p.evaluate(&[HwQubit(1), HwQubit(1)]),
            Err(OptError::InvalidPlacement { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_placement() {
        let p = toy();
        assert!(p.evaluate(&[HwQubit(0), HwQubit(7)]).is_err());
        assert!(p.evaluate(&[HwQubit(0)]).is_err());
    }

    #[test]
    fn rejects_more_program_than_hardware() {
        let err =
            AssignmentProblem::new(4, 3, vec![], vec![], vec![0.0; 9], vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, OptError::TooManyProgramQubits { .. }));
    }

    #[test]
    fn min_costs_are_correct() {
        let p = toy();
        assert_eq!(p.min_pair_cost(), 1.0);
        assert_eq!(p.min_single_cost(), 0.5);
        assert_eq!(p.min_pair_cost_from(HwQubit(2)), 5.0);
        assert_eq!(p.min_pair_cost_from(HwQubit(0)), 1.0);
    }

    #[test]
    fn incident_weight_counts_terms() {
        let p = toy();
        let w = p.incident_weight();
        assert_eq!(w, vec![2.0, 2.0]);
    }
}
