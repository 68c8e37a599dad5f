use crate::assignment::AssignmentProblem;
use crate::PlacementSolution;
use nisq_machine::HwQubit;
use std::time::{Duration, Instant};

/// Budget limits for the exact branch-and-bound solver.
///
/// The search is exact when it completes within the budget (the returned
/// solution is marked `optimal`); otherwise the best incumbent found so far
/// is returned, mirroring how the paper caps the SMT solver's running time
/// on large synthetic circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of search nodes to expand.
    pub max_nodes: u64,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 50_000_000,
            time_limit: Some(Duration::from_secs(120)),
        }
    }
}

impl SolverConfig {
    /// A configuration with a wall-clock limit and a generous node budget.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolverConfig {
            max_nodes: u64::MAX,
            time_limit: Some(limit),
        }
    }

    /// A configuration bounded only by node count (deterministic runtime
    /// behaviour, useful in tests).
    pub fn with_max_nodes(max_nodes: u64) -> Self {
        SolverConfig {
            max_nodes,
            time_limit: None,
        }
    }
}

/// The terms incident on each program qubit, in term order.
struct Incidence {
    /// `pairs[q]`: the other endpoint and the weight of each pair term on `q`.
    pairs: Vec<Vec<(usize, f64)>>,
    /// `singles[q]`: the weight of each single term on `q`.
    singles: Vec<Vec<f64>>,
}

impl Incidence {
    fn new(problem: &AssignmentProblem) -> Self {
        let mut pairs = vec![Vec::new(); problem.num_program()];
        let mut singles = vec![Vec::new(); problem.num_program()];
        for t in problem.pair_terms() {
            pairs[t.a].push((t.b, t.weight));
            pairs[t.b].push((t.a, t.weight));
        }
        for t in problem.single_terms() {
            singles[t.q].push(t.weight);
        }
        Incidence { pairs, singles }
    }

    /// Cost contribution of placing program qubit `pq` at hardware `h`
    /// against the already-placed qubits.
    fn marginal_cost(
        &self,
        problem: &AssignmentProblem,
        assignment: &[Option<HwQubit>],
        pq: usize,
        h: HwQubit,
    ) -> f64 {
        let mut cost = 0.0;
        for &(other, weight) in &self.pairs[pq] {
            if let Some(oh) = assignment[other] {
                cost += weight * problem.pair_cost(h, oh);
            }
        }
        for &weight in &self.singles[pq] {
            cost += weight * problem.single_cost(h);
        }
        cost
    }
}

struct Search<'a> {
    problem: &'a AssignmentProblem,
    incidence: Incidence,
    order: Vec<usize>,
    assignment: Vec<Option<HwQubit>>,
    used: Vec<bool>,
    /// One `(marginal cost, location)` buffer per depth, reused by every
    /// node expanded at that depth.
    candidates: Vec<Vec<(f64, usize)>>,
    best_assignment: Vec<HwQubit>,
    best_cost: f64,
    nodes: u64,
    max_nodes: u64,
    deadline: Option<Instant>,
    aborted: bool,
}

impl<'a> Search<'a> {
    /// Admissible lower bound on the cost still to be paid by terms that are
    /// not yet fully placed, given the current partial assignment.
    fn remaining_bound(&self) -> f64 {
        let mut bound = 0.0;
        let min_pair = self.problem.min_pair_cost();
        let min_single = self.problem.min_single_cost();
        for t in self.problem.pair_terms() {
            match (self.assignment[t.a], self.assignment[t.b]) {
                (Some(_), Some(_)) => {}
                (Some(h), None) | (None, Some(h)) => {
                    bound += t.weight * self.problem.min_pair_cost_from(h);
                }
                (None, None) => bound += t.weight * min_pair,
            }
        }
        for t in self.problem.single_terms() {
            if self.assignment[t.q].is_none() {
                bound += t.weight * min_single;
            }
        }
        bound
    }

    fn over_budget(&mut self) -> bool {
        if self.nodes >= self.max_nodes {
            self.aborted = true;
            return true;
        }
        if let Some(deadline) = self.deadline {
            // Only check the clock occasionally to keep node expansion cheap.
            if self.nodes.is_multiple_of(1024) && Instant::now() >= deadline {
                self.aborted = true;
                return true;
            }
        }
        false
    }

    fn dfs(&mut self, depth: usize, partial_cost: f64) {
        if self.over_budget() {
            return;
        }
        if depth == self.order.len() {
            if partial_cost < self.best_cost {
                self.best_cost = partial_cost;
                self.best_assignment = self
                    .assignment
                    .iter()
                    .map(|h| h.expect("complete assignment"))
                    .collect();
            }
            return;
        }
        let pq = self.order[depth];
        // Candidate locations sorted by marginal cost so good incumbents are
        // found early and pruning kicks in sooner. The sort is stable, so
        // ties keep ascending location order.
        let mut candidates = std::mem::take(&mut self.candidates[depth]);
        candidates.clear();
        for h in (0..self.problem.num_hardware()).filter(|&h| !self.used[h]) {
            let marginal =
                self.incidence
                    .marginal_cost(self.problem, &self.assignment, pq, HwQubit(h));
            candidates.push((marginal, h));
        }
        candidates.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));

        for &(marginal, h) in &candidates {
            self.nodes += 1;
            let new_cost = partial_cost + marginal;
            self.assignment[pq] = Some(HwQubit(h));
            self.used[h] = true;
            let bound = new_cost + self.remaining_bound();
            if bound < self.best_cost - 1e-12 {
                self.dfs(depth + 1, new_cost);
            }
            self.assignment[pq] = None;
            self.used[h] = false;
            if self.aborted {
                break;
            }
        }
        self.candidates[depth] = candidates;
    }
}

/// Greedy construction used as the initial incumbent: place program qubits
/// in descending incident-weight order, each at the currently cheapest
/// available location (the lowest index among equals).
fn greedy_incumbent(
    problem: &AssignmentProblem,
    incidence: &Incidence,
    order: &[usize],
) -> Vec<HwQubit> {
    let mut assignment: Vec<Option<HwQubit>> = vec![None; problem.num_program()];
    let mut used = vec![false; problem.num_hardware()];
    for &pq in order {
        let mut best = (f64::INFINITY, 0usize);
        for (h, &in_use) in used.iter().enumerate() {
            if in_use {
                continue;
            }
            let cost = incidence.marginal_cost(problem, &assignment, pq, HwQubit(h));
            if cost < best.0 {
                best = (cost, h);
            }
        }
        assignment[pq] = Some(HwQubit(best.1));
        used[best.1] = true;
    }
    assignment.into_iter().map(|h| h.unwrap()).collect()
}

/// Solves the placement problem exactly with branch and bound (within the
/// given budget).
///
/// The returned solution is marked [`PlacementSolution::optimal`] only when
/// the search space was exhausted before hitting the budget, in which case
/// the assignment minimizes the problem's objective — the same optimum the
/// paper's SMT encoding computes.
///
/// The sequence of explored nodes is a function of the problem alone: the
/// branching order, the candidate order and the bound depend only on the
/// terms and cost matrices, and the bound's constants (the smallest pair
/// and single costs) are computed once per problem, when the
/// [`AssignmentProblem`] is built. A node budget therefore cuts the search
/// at the same node on every host. How far a solve bounded only by wall
/// clock gets (`fig11_scalability`, the scalability example) depends on
/// the host and on the cost of a node, so cheaper nodes get further in the
/// same time and may return a better placement.
///
/// # Panics
///
/// Panics if the problem has zero hardware qubits but a nonzero number of
/// program qubits (an [`AssignmentProblem`] cannot be constructed that way).
pub fn solve_branch_and_bound(
    problem: &AssignmentProblem,
    config: &SolverConfig,
) -> PlacementSolution {
    if problem.num_program() == 0 {
        return PlacementSolution {
            assignment: Vec::new(),
            cost: 0.0,
            optimal: true,
            nodes_explored: 0,
        };
    }
    let weights = problem.incident_weight();
    let mut order: Vec<usize> = (0..problem.num_program()).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let incidence = Incidence::new(problem);
    let incumbent = greedy_incumbent(problem, &incidence, &order);
    let incumbent_cost = problem
        .evaluate(&incumbent)
        .expect("greedy incumbent is a valid placement");

    let mut search = Search {
        problem,
        incidence,
        candidates: vec![Vec::new(); order.len()],
        order,
        assignment: vec![None; problem.num_program()],
        used: vec![false; problem.num_hardware()],
        best_assignment: incumbent,
        best_cost: incumbent_cost,
        nodes: 0,
        max_nodes: config.max_nodes,
        deadline: config.time_limit.map(|d| Instant::now() + d),
        aborted: false,
    };
    search.dfs(0, 0.0);

    PlacementSolution {
        assignment: search.best_assignment,
        cost: search.best_cost,
        optimal: !search.aborted,
        nodes_explored: search.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{PairTerm, SingleTerm};

    /// A 3-program-qubit chain on a 4-location line where locations 0-1-2
    /// are cheap to pair and location 3 is expensive for everything.
    fn line_problem() -> AssignmentProblem {
        let n = 4;
        let mut pair_cost = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let base = (a as i64 - b as i64).unsigned_abs() as f64;
                let penalty = if a == 3 || b == 3 { 10.0 } else { 0.0 };
                pair_cost[a * n + b] = base + penalty;
            }
        }
        let single_cost = vec![1.0, 0.5, 1.0, 5.0];
        AssignmentProblem::new(
            3,
            4,
            vec![
                PairTerm {
                    a: 0,
                    b: 1,
                    weight: 1.0,
                },
                PairTerm {
                    a: 1,
                    b: 2,
                    weight: 1.0,
                },
            ],
            vec![
                SingleTerm { q: 0, weight: 1.0 },
                SingleTerm { q: 1, weight: 1.0 },
                SingleTerm { q: 2, weight: 1.0 },
            ],
            pair_cost,
            single_cost,
        )
        .unwrap()
    }

    /// Exhaustively enumerates every placement to find the true optimum.
    fn brute_force(problem: &AssignmentProblem) -> f64 {
        fn recurse(
            problem: &AssignmentProblem,
            assignment: &mut Vec<HwQubit>,
            used: &mut Vec<bool>,
            best: &mut f64,
        ) {
            if assignment.len() == problem.num_program() {
                let c = problem.evaluate(assignment).unwrap();
                if c < *best {
                    *best = c;
                }
                return;
            }
            for h in 0..problem.num_hardware() {
                if used[h] {
                    continue;
                }
                used[h] = true;
                assignment.push(HwQubit(h));
                recurse(problem, assignment, used, best);
                assignment.pop();
                used[h] = false;
            }
        }
        let mut best = f64::INFINITY;
        recurse(
            problem,
            &mut Vec::new(),
            &mut vec![false; problem.num_hardware()],
            &mut best,
        );
        best
    }

    #[test]
    fn finds_the_brute_force_optimum() {
        let p = line_problem();
        let sol = solve_branch_and_bound(&p, &SolverConfig::default());
        assert!(sol.optimal);
        assert!((sol.cost - brute_force(&p)).abs() < 1e-9);
        assert!(p.validate_placement(&sol.assignment).is_ok());
    }

    #[test]
    fn avoids_the_expensive_location() {
        let p = line_problem();
        let sol = solve_branch_and_bound(&p, &SolverConfig::default());
        assert!(
            !sol.assignment.contains(&HwQubit(3)),
            "optimal placement should not use the bad location: {:?}",
            sol.assignment
        );
    }

    #[test]
    fn reports_node_budget_exhaustion() {
        let p = line_problem();
        let sol = solve_branch_and_bound(&p, &SolverConfig::with_max_nodes(1));
        assert!(!sol.optimal);
        // Even when aborted the incumbent is a valid placement.
        assert!(p.validate_placement(&sol.assignment).is_ok());
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = AssignmentProblem::new(0, 4, vec![], vec![], vec![0.0; 16], vec![0.0; 4]).unwrap();
        let sol = solve_branch_and_bound(&p, &SolverConfig::default());
        assert!(sol.optimal);
        assert_eq!(sol.cost, 0.0);
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn random_problems_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            let hw = 6;
            let prog = 4;
            let mut pair_cost = vec![0.0; hw * hw];
            for a in 0..hw {
                for b in 0..hw {
                    if a != b {
                        let v = rng.gen_range(0.1..5.0);
                        pair_cost[a * hw + b] = v;
                        pair_cost[b * hw + a] = v;
                    }
                }
            }
            let single_cost: Vec<f64> = (0..hw).map(|_| rng.gen_range(0.0..2.0)).collect();
            let mut pair_terms = Vec::new();
            for a in 0..prog {
                for b in (a + 1)..prog {
                    if rng.gen_bool(0.7) {
                        pair_terms.push(PairTerm {
                            a,
                            b,
                            weight: rng.gen_range(0.5..2.0),
                        });
                    }
                }
            }
            let single_terms = (0..prog).map(|q| SingleTerm { q, weight: 1.0 }).collect();
            let p =
                AssignmentProblem::new(prog, hw, pair_terms, single_terms, pair_cost, single_cost)
                    .unwrap();
            let sol = solve_branch_and_bound(&p, &SolverConfig::default());
            assert!(sol.optimal, "trial {trial} did not finish");
            assert!(
                (sol.cost - brute_force(&p)).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                sol.cost,
                brute_force(&p)
            );
        }
    }
}
