use nisq_opt::{RouteSelection, SwapHandling};
use std::fmt;
use std::time::Duration;

/// The mapping algorithms studied in the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// IBM Qiskit 0.5.7-style baseline: lexicographic placement plus swap
    /// insertion; duration-oriented, calibration-unaware.
    Qiskit,
    /// Optimal placement minimizing duration with uniform gate times and a
    /// static coherence bound (no calibration data).
    TSmt,
    /// Optimal placement minimizing duration using per-edge gate durations
    /// and per-qubit coherence times from calibration data.
    TSmtStar,
    /// Optimal placement maximizing the weighted log-reliability of CNOT and
    /// readout operations (Equation 12), calibration-aware.
    RSmtStar,
    /// Greedy heaviest-vertex-first placement on most-reliable paths,
    /// calibration-aware.
    GreedyV,
    /// Greedy heaviest-edge-first placement on most-reliable paths,
    /// calibration-aware.
    GreedyE,
}

impl Algorithm {
    /// All algorithms in the order of Table 1.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Qiskit,
            Algorithm::TSmt,
            Algorithm::TSmtStar,
            Algorithm::RSmtStar,
            Algorithm::GreedyV,
            Algorithm::GreedyE,
        ]
    }

    /// The name used in the paper's figures (calibration-aware variants are
    /// marked with a star).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Qiskit => "Qiskit",
            Algorithm::TSmt => "T-SMT",
            Algorithm::TSmtStar => "T-SMT*",
            Algorithm::RSmtStar => "R-SMT*",
            Algorithm::GreedyV => "GreedyV*",
            Algorithm::GreedyE => "GreedyE*",
        }
    }

    /// Whether the algorithm adapts to machine calibration data.
    pub fn is_calibration_aware(&self) -> bool {
        !matches!(self, Algorithm::Qiskit | Algorithm::TSmt)
    }

    /// Whether the algorithm solves the placement problem with the exact
    /// (SMT-equivalent) optimizer.
    pub fn is_optimal(&self) -> bool {
        matches!(
            self,
            Algorithm::TSmt | Algorithm::TSmtStar | Algorithm::RSmtStar
        )
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A full compiler configuration: an algorithm plus its parameters
/// (routing policy, readout weight ω, and the optimizer's budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerConfig {
    /// The mapping algorithm.
    pub algorithm: Algorithm,
    /// Routing policy used for placement costs and scheduling.
    pub routing: RouteSelection,
    /// Readout weight ω of the reliability objective (only used by R-SMT*).
    pub omega: f64,
    /// Node budget of the exact solver before it falls back to the best
    /// incumbent found.
    pub solver_max_nodes: u64,
    /// Wall-clock budget of the exact solver.
    pub solver_time_limit: Option<Duration>,
    /// How swap round-trips are handled: the paper's swap-out/swap-back
    /// model (default) or permutation tracking (no swap-back, placement
    /// updated in place).
    pub swap_handling: SwapHandling,
    /// Lower program-level SWAP gates into three CNOTs in the decompose
    /// step instead of routing them symbolically (off by default, matching
    /// the paper's model).
    pub decompose_swaps: bool,
}

impl CompilerConfig {
    fn base(algorithm: Algorithm, routing: RouteSelection) -> Self {
        CompilerConfig {
            algorithm,
            routing,
            omega: 0.5,
            solver_max_nodes: 20_000_000,
            solver_time_limit: Some(Duration::from_secs(60)),
            swap_handling: SwapHandling::SwapBack,
            decompose_swaps: false,
        }
    }

    /// The Qiskit-style baseline configuration.
    pub fn qiskit() -> Self {
        CompilerConfig::base(Algorithm::Qiskit, RouteSelection::OneBendPaths)
    }

    /// T-SMT with the given routing policy (RR or 1BP in the paper).
    pub fn t_smt(routing: RouteSelection) -> Self {
        CompilerConfig::base(Algorithm::TSmt, routing)
    }

    /// T-SMT* with the given routing policy.
    pub fn t_smt_star(routing: RouteSelection) -> Self {
        CompilerConfig::base(Algorithm::TSmtStar, routing)
    }

    /// R-SMT* with readout weight ω and one-bend-path routing (the policy
    /// the paper uses for its reliability optimization).
    pub fn r_smt_star(omega: f64) -> Self {
        CompilerConfig {
            omega,
            ..CompilerConfig::base(Algorithm::RSmtStar, RouteSelection::OneBendPaths)
        }
    }

    /// GreedyV* (heaviest vertex first, best-path routing).
    pub fn greedy_v() -> Self {
        CompilerConfig::base(Algorithm::GreedyV, RouteSelection::BestPath)
    }

    /// GreedyE* (heaviest edge first, best-path routing).
    pub fn greedy_e() -> Self {
        CompilerConfig::base(Algorithm::GreedyE, RouteSelection::BestPath)
    }

    /// The full set of configurations evaluated in the paper's Table 1,
    /// with their default parameters.
    pub fn table1() -> Vec<CompilerConfig> {
        vec![
            CompilerConfig::qiskit(),
            CompilerConfig::t_smt(RouteSelection::RectangleReservation),
            CompilerConfig::t_smt_star(RouteSelection::RectangleReservation),
            CompilerConfig::r_smt_star(0.5),
            CompilerConfig::greedy_v(),
            CompilerConfig::greedy_e(),
        ]
    }

    /// Returns a copy with a different solver budget, for scalability
    /// experiments.
    pub fn with_solver_budget(mut self, max_nodes: u64, time_limit: Option<Duration>) -> Self {
        self.solver_max_nodes = max_nodes;
        self.solver_time_limit = time_limit;
        self
    }

    /// Returns a copy with a different swap-handling policy (opt in to
    /// permutation-tracking routing with [`SwapHandling::Permute`]).
    pub fn with_swap_handling(mut self, swap_handling: SwapHandling) -> Self {
        self.swap_handling = swap_handling;
        self
    }

    /// Returns a copy that lowers program-level SWAPs in the decompose
    /// step.
    pub fn with_decompose_swaps(mut self, decompose_swaps: bool) -> Self {
        self.decompose_swaps = decompose_swaps;
        self
    }

    /// Whether the scheduler should use calibration durations and per-qubit
    /// coherence windows for this configuration.
    pub fn calibration_aware(&self) -> bool {
        self.algorithm.is_calibration_aware()
    }

    /// A deterministic 64-bit fingerprint of every field (ω by its IEEE-754
    /// bits). Configurations that compare equal fingerprint equal, so the
    /// fingerprint serves as the config component of compile-cache keys.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.algorithm.hash(&mut h);
        self.routing.hash(&mut h);
        h.write_u64(self.omega.to_bits());
        self.solver_max_nodes.hash(&mut h);
        self.solver_time_limit.hash(&mut h);
        self.swap_handling.hash(&mut h);
        self.decompose_swaps.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for CompilerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.algorithm {
            Algorithm::RSmtStar => write!(
                f,
                "{} (omega = {}, {})",
                self.algorithm, self.omega, self.routing
            )?,
            _ => write!(f, "{} ({})", self.algorithm, self.routing)?,
        }
        if self.swap_handling != SwapHandling::SwapBack {
            write!(f, " [{}]", self.swap_handling)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Algorithm::RSmtStar.name(), "R-SMT*");
        assert_eq!(Algorithm::GreedyE.name(), "GreedyE*");
        assert_eq!(Algorithm::Qiskit.to_string(), "Qiskit");
    }

    #[test]
    fn calibration_awareness_matches_table1() {
        assert!(!Algorithm::Qiskit.is_calibration_aware());
        assert!(!Algorithm::TSmt.is_calibration_aware());
        assert!(Algorithm::TSmtStar.is_calibration_aware());
        assert!(Algorithm::RSmtStar.is_calibration_aware());
        assert!(Algorithm::GreedyV.is_calibration_aware());
        assert!(Algorithm::GreedyE.is_calibration_aware());
    }

    #[test]
    fn table1_lists_six_configurations() {
        let configs = CompilerConfig::table1();
        assert_eq!(configs.len(), 6);
        let names: Vec<&str> = configs.iter().map(|c| c.algorithm.name()).collect();
        assert_eq!(
            names,
            vec!["Qiskit", "T-SMT", "T-SMT*", "R-SMT*", "GreedyV*", "GreedyE*"]
        );
    }

    #[test]
    fn r_smt_star_records_omega() {
        let c = CompilerConfig::r_smt_star(0.25);
        assert_eq!(c.omega, 0.25);
        assert!(c.to_string().contains("0.25"));
    }

    #[test]
    fn greedy_configs_use_best_path_routing() {
        assert_eq!(CompilerConfig::greedy_v().routing, RouteSelection::BestPath);
        assert_eq!(CompilerConfig::greedy_e().routing, RouteSelection::BestPath);
    }

    #[test]
    fn with_solver_budget_updates_limits() {
        let c = CompilerConfig::r_smt_star(0.5).with_solver_budget(10, None);
        assert_eq!(c.solver_max_nodes, 10);
        assert_eq!(c.solver_time_limit, None);
    }
}
