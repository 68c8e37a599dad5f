//! Optimal placement via the constrained-optimization substrate.
//!
//! The paper encodes mapping as an SMT problem and solves it with Z3. Here
//! the same objective (duration for T-SMT/T-SMT*, weighted log-reliability
//! for R-SMT*) is minimized exactly by branch and bound; when the search
//! budget is exhausted on large instances the best incumbent is refined
//! with simulated annealing, mirroring how the paper caps SMT solve time on
//! its synthetic scalability benchmarks.

use crate::config::{Algorithm, CompilerConfig};
use crate::error::CompileError;
use nisq_ir::Circuit;
use nisq_machine::Machine;
use nisq_opt::{
    problem, solve_annealing, solve_branch_and_bound, AnnealConfig, MappingObjective, Placement,
    SolverConfig,
};

/// The placement objective of an SMT-style variant (Table 1).
fn objective(config: &CompilerConfig) -> Result<MappingObjective, CompileError> {
    match config.algorithm {
        Algorithm::TSmt => Ok(MappingObjective::Duration {
            calibration_aware: false,
            uniform_cnot_slots: config.uniform_cnot_slots,
        }),
        Algorithm::TSmtStar => Ok(MappingObjective::Duration {
            calibration_aware: true,
            uniform_cnot_slots: config.uniform_cnot_slots,
        }),
        Algorithm::RSmtStar => Ok(MappingObjective::Reliability {
            omega: config.omega,
        }),
        other => Err(CompileError::Optimization(
            nisq_opt::OptError::InvalidPlacement {
                reason: format!("algorithm {other} is not an SMT-style variant"),
            },
        )),
    }
}

/// Computes the optimal placement for the configured SMT-style variant.
///
/// # Errors
///
/// Returns an error if the circuit does not fit on the machine, ω is
/// invalid, or `config.algorithm` is not one of the SMT variants.
pub fn place(
    circuit: &Circuit,
    machine: &Machine,
    config: &CompilerConfig,
) -> Result<Placement, CompileError> {
    let problem = problem::build(circuit, machine, objective(config)?, config.routing)?;
    let solver_config = SolverConfig {
        max_nodes: config.solver_max_nodes,
        time_limit: config.solver_time_limit,
    };
    let exact = solve_branch_and_bound(&problem, &solver_config);
    let solution = if exact.optimal {
        exact
    } else {
        // Anytime fallback: keep the better of the truncated exact search
        // and an annealing run.
        let anneal = solve_annealing(&problem, &AnnealConfig::new(200_000, config.anneal_seed));
        if anneal.cost < exact.cost {
            anneal
        } else {
            exact
        }
    };
    Ok(Placement::new(solution.assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::{Benchmark, Qubit};
    use nisq_machine::HwQubit;

    fn machine() -> Machine {
        Machine::ibmq16_on_day(11, 0)
    }

    #[test]
    fn r_smt_star_places_interacting_qubits_close() {
        let circuit = Benchmark::Bv4.circuit();
        let placement = place(&circuit, &machine(), &CompilerConfig::r_smt_star(0.5)).unwrap();
        // The ancilla (program qubit 3) interacts with every data qubit; the
        // average distance to it should be small (at most 2 hops).
        let m = machine();
        let ancilla = placement.hw(Qubit(3));
        let avg: f64 = (0..3)
            .map(|q| m.topology().distance(placement.hw(Qubit(q)), ancilla) as f64)
            .sum::<f64>()
            / 3.0;
        assert!(avg <= 2.0, "average distance to ancilla was {avg}");
    }

    #[test]
    fn t_smt_ignores_calibration_data() {
        // With a duration objective and uniform gate times, only the
        // topology matters: two different calibration days give the same
        // placement.
        let circuit = Benchmark::Toffoli.circuit();
        let config = CompilerConfig::t_smt(nisq_opt::RouteSelection::RectangleReservation);
        let a = place(&circuit, &Machine::ibmq16_on_day(1, 0), &config).unwrap();
        let b = place(&circuit, &Machine::ibmq16_on_day(1, 6), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn r_smt_star_adapts_to_calibration_changes() {
        // Over several days, the reliability-aware mapping should change at
        // least once as error rates drift (Figure 6's premise).
        let circuit = Benchmark::Bv4.circuit();
        let config = CompilerConfig::r_smt_star(0.5);
        let placements: Vec<Placement> = (0..5)
            .map(|day| place(&circuit, &Machine::ibmq16_on_day(1, day), &config).unwrap())
            .collect();
        let all_same = placements.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "R-SMT* never adapted across five days");
    }

    #[test]
    fn budget_exhaustion_still_returns_valid_placement() {
        let circuit = Benchmark::Adder.circuit();
        let config = CompilerConfig::r_smt_star(0.5).with_solver_budget(2, None);
        let placement = place(&circuit, &machine(), &config).unwrap();
        placement.validate(16).unwrap();
        assert_eq!(placement.len(), 4);
    }

    #[test]
    fn rejects_non_smt_algorithms() {
        let circuit = Benchmark::Bv4.circuit();
        let err = place(&circuit, &machine(), &CompilerConfig::greedy_e()).unwrap_err();
        assert!(matches!(err, CompileError::Optimization(_)));
    }

    /// Pins the exact solver's search effort on the paper's evaluation:
    /// every Table-1 SMT problem of the 12 benchmarks on IBMQ16 (machine
    /// seed 2019, days 0-6), built as `place` builds it and solved with the
    /// config's node budget and no time limit. The node counts are a
    /// function of the bound and the branching order alone, so a change to
    /// either has to update these numbers on purpose.
    #[test]
    fn table1_week_search_effort_is_pinned() {
        let circuits: Vec<(Benchmark, Circuit)> = Benchmark::all()
            .into_iter()
            .map(|b| (b, b.circuit()))
            .collect();
        let machines: Vec<Machine> = (0..7)
            .map(|day| Machine::ibmq16_on_day(2019, day))
            .collect();
        let mut totals = Vec::new();
        let mut largest = (0, "", "", 0);
        for config in CompilerConfig::table1() {
            if !config.algorithm.is_optimal() {
                continue;
            }
            let name = config.algorithm.name();
            let objective = objective(&config).unwrap();
            let budget = SolverConfig::with_max_nodes(config.solver_max_nodes);
            let (mut problems, mut nodes) = (0, 0);
            for (day, machine) in machines.iter().enumerate() {
                for (benchmark, circuit) in &circuits {
                    let p = problem::build(circuit, machine, objective, config.routing).unwrap();
                    let solution = solve_branch_and_bound(&p, &budget);
                    assert!(
                        solution.optimal,
                        "{name} {benchmark} day {day} hit its budget"
                    );
                    problems += 1;
                    nodes += solution.nodes_explored;
                    if solution.nodes_explored > largest.0 {
                        largest = (solution.nodes_explored, name, benchmark.name(), day);
                    }
                }
            }
            totals.push((name, problems, nodes));
        }
        assert_eq!(
            totals,
            [
                ("T-SMT", 84, 41_643),
                ("T-SMT*", 84, 57_509),
                ("R-SMT*", 84, 412_053),
            ]
        );
        assert_eq!(largest, (104_542, "R-SMT*", "BV8", 6));
    }

    #[test]
    fn omega_one_optimizes_readout_only() {
        // With ω = 1 the objective ignores CNOTs entirely, so the chosen
        // locations must be the top-4 readout-reliability qubits.
        let m = machine();
        let circuit = Benchmark::Bv4.circuit();
        let placement = place(&circuit, &m, &CompilerConfig::r_smt_star(1.0)).unwrap();
        let mut by_readout: Vec<HwQubit> = m.topology().qubits().collect();
        by_readout.sort_by(|a, b| {
            m.calibration()
                .readout_error(*a)
                .partial_cmp(&m.calibration().readout_error(*b))
                .unwrap()
        });
        let top4: std::collections::BTreeSet<HwQubit> = by_readout[..4].iter().copied().collect();
        let chosen: std::collections::BTreeSet<HwQubit> =
            placement.as_slice().iter().copied().collect();
        assert_eq!(chosen, top4);
    }
}
