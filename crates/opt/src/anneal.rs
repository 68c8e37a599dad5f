use crate::assignment::AssignmentProblem;
use crate::PlacementSolution;
use nisq_machine::HwQubit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the anytime simulated-annealing placement solver.
///
/// The paper's SMT approach stops scaling around 32 qubits (Figure 11);
/// annealing provides an anytime fallback for larger machines or circuits,
/// trading optimality guarantees for bounded, configurable running time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Number of proposal moves.
    pub iterations: u64,
    /// RNG seed for reproducible runs.
    pub seed: u64,
}

/// Initial temperature (in objective units).
const INITIAL_TEMPERATURE: f64 = 2.0;

/// Final temperature reached by geometric cooling.
const FINAL_TEMPERATURE: f64 = 1e-3;

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 50_000,
            seed: 0,
        }
    }
}

impl AnnealConfig {
    /// A configuration with the given iteration budget and seed.
    pub fn new(iterations: u64, seed: u64) -> Self {
        AnnealConfig { iterations, seed }
    }
}

/// Solves the placement problem with simulated annealing.
///
/// Returns the best placement visited; the result is never marked optimal.
/// Moves either relocate one program qubit to a free hardware location or
/// swap the locations of two program qubits, so Constraints 1-2 (injective
/// placement) hold at every step.
pub fn solve_annealing(problem: &AssignmentProblem, config: &AnnealConfig) -> PlacementSolution {
    if problem.num_program() == 0 {
        return PlacementSolution {
            assignment: Vec::new(),
            cost: 0.0,
            optimal: true,
            nodes_explored: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_prog = problem.num_program();
    let n_hw = problem.num_hardware();

    // Initial placement: identity (program qubit i on hardware qubit i).
    let mut current: Vec<HwQubit> = (0..n_prog).map(HwQubit).collect();
    let mut current_cost = problem
        .evaluate(&current)
        .expect("identity placement is valid");
    let mut occupied: Vec<Option<usize>> = vec![None; n_hw];
    for (p, h) in current.iter().enumerate() {
        occupied[h.0] = Some(p);
    }

    let mut best = current.clone();
    let mut best_cost = current_cost;

    let cooling = if config.iterations > 1 {
        (FINAL_TEMPERATURE / INITIAL_TEMPERATURE).powf(1.0 / config.iterations as f64)
    } else {
        1.0
    };
    let mut temperature = INITIAL_TEMPERATURE;

    for _ in 0..config.iterations {
        // Propose: pick a program qubit and a target hardware location.
        let p = rng.gen_range(0..n_prog);
        let target = HwQubit(rng.gen_range(0..n_hw));
        let source = current[p];
        if target == source {
            temperature *= cooling;
            continue;
        }
        let displaced = occupied[target.0];

        // Apply the move (relocate, or swap with the displaced qubit).
        current[p] = target;
        occupied[target.0] = Some(p);
        occupied[source.0] = displaced;
        if let Some(other) = displaced {
            current[other] = source;
        }

        let new_cost = problem
            .evaluate(&current)
            .expect("moves preserve placement validity");
        let accept = new_cost <= current_cost
            || rng.gen_bool(
                ((current_cost - new_cost) / temperature.max(1e-12))
                    .exp()
                    .min(1.0),
            );
        if accept {
            current_cost = new_cost;
            if new_cost < best_cost {
                best_cost = new_cost;
                best = current.clone();
            }
        } else {
            // Undo the move.
            current[p] = source;
            occupied[source.0] = Some(p);
            occupied[target.0] = displaced;
            if let Some(other) = displaced {
                current[other] = target;
            }
        }
        temperature *= cooling;
    }

    PlacementSolution {
        assignment: best,
        cost: best_cost,
        optimal: false,
        nodes_explored: config.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{PairTerm, SingleTerm};
    use crate::branch_bound::{solve_branch_and_bound, SolverConfig};

    fn random_problem(seed: u64, prog: usize, hw: usize) -> AssignmentProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair_cost = vec![0.0; hw * hw];
        for a in 0..hw {
            for b in (a + 1)..hw {
                let v = rng.gen_range(0.1..4.0);
                pair_cost[a * hw + b] = v;
                pair_cost[b * hw + a] = v;
            }
        }
        let single_cost: Vec<f64> = (0..hw).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut pair_terms = Vec::new();
        for a in 0..prog {
            for b in (a + 1)..prog {
                if rng.gen_bool(0.5) {
                    pair_terms.push(PairTerm { a, b, weight: 1.0 });
                }
            }
        }
        let single_terms = (0..prog).map(|q| SingleTerm { q, weight: 0.5 }).collect();
        AssignmentProblem::new(prog, hw, pair_terms, single_terms, pair_cost, single_cost).unwrap()
    }

    #[test]
    fn produces_valid_placements() {
        let p = random_problem(5, 6, 9);
        let sol = solve_annealing(&p, &AnnealConfig::new(20_000, 1));
        assert!(p.validate_placement(&sol.assignment).is_ok());
        assert!(!sol.optimal);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let p = random_problem(7, 5, 8);
        let a = solve_annealing(&p, &AnnealConfig::new(10_000, 3));
        let b = solve_annealing(&p, &AnnealConfig::new(10_000, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn gets_close_to_the_exact_optimum() {
        for seed in 0..5 {
            let p = random_problem(seed, 5, 8);
            let exact = solve_branch_and_bound(&p, &SolverConfig::default());
            let anneal = solve_annealing(&p, &AnnealConfig::new(40_000, seed));
            assert!(exact.optimal);
            assert!(
                anneal.cost <= exact.cost * 1.15 + 1e-9,
                "seed {seed}: anneal {} vs exact {}",
                anneal.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn improves_over_the_identity_placement() {
        let p = random_problem(11, 8, 16);
        let identity: Vec<HwQubit> = (0..8).map(HwQubit).collect();
        let identity_cost = p.evaluate(&identity).unwrap();
        let sol = solve_annealing(&p, &AnnealConfig::new(30_000, 2));
        assert!(sol.cost <= identity_cost + 1e-9);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = AssignmentProblem::new(0, 3, vec![], vec![], vec![0.0; 9], vec![0.0; 3]).unwrap();
        let sol = solve_annealing(&p, &AnnealConfig::default());
        assert!(sol.assignment.is_empty());
        assert_eq!(sol.cost, 0.0);
    }
}
