//! Builders that turn a circuit, a machine and an optimization objective
//! into an [`AssignmentProblem`] over hardware placements.
//!
//! This is the translation step the paper performs when it generates the
//! SMT encoding (Figure 3, "Generate Data-Aware Constraints"): reliability
//! or duration matrices become pairwise placement costs, readout error rates
//! become single-qubit placement costs, and the junction choice of the
//! one-bend-path policy is folded into the pairwise cost by always pricing a
//! pair at its better junction (which is exactly the choice the SMT solver
//! would make, so the optimum is unchanged).
//!
//! A pair is priced by the same cost model the scheduler and the estimate
//! use: reliability by [`nisq_machine::route_cnot_reliability`] (through
//! [`nisq_machine::ReliabilityModel`]), duration by [`route_duration`] over
//! the hops of the route the pair would take. The calibration-unaware
//! duration (T-SMT) prices a pair as its hop distance of
//! [`UNIFORM_CNOT_SLOTS`] each.

use crate::assignment::{AssignmentProblem, PairTerm, SingleTerm};
use crate::error::OptError;
use crate::routing::{hop_slots, route_duration, RouteSelection};
use crate::UNIFORM_CNOT_SLOTS;
use nisq_ir::Circuit;
use nisq_machine::{HwQubit, Machine};
use std::collections::BTreeMap;

/// The objective the placement should optimize (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum MappingObjective {
    /// Maximize the weighted log-reliability of CNOT and readout operations
    /// (Equation 12). `omega` weights readout terms, `1 - omega` CNOT terms.
    Reliability {
        /// Readout weight ω ∈ [0, 1].
        omega: f64,
    },
    /// Minimize execution duration. When `calibration_aware` is false the
    /// model assumes every hardware CNOT takes [`UNIFORM_CNOT_SLOTS`]
    /// timeslots (the paper's T-SMT); otherwise it uses the per-edge
    /// calibration durations (T-SMT*).
    Duration {
        /// Whether to use per-edge calibration durations.
        calibration_aware: bool,
    },
}

/// Builds the placement problem for `circuit` on `machine` under the given
/// objective and routing policy.
///
/// # Errors
///
/// Returns an error if the circuit needs more qubits than the machine has,
/// or the readout weight is outside `[0, 1]`.
pub fn build(
    circuit: &Circuit,
    machine: &Machine,
    objective: MappingObjective,
    policy: RouteSelection,
) -> Result<AssignmentProblem, OptError> {
    let n_prog = circuit.num_qubits();
    let n_hw = machine.num_qubits();
    if n_prog > n_hw {
        return Err(OptError::TooManyProgramQubits {
            program: n_prog,
            hardware: n_hw,
        });
    }
    if let MappingObjective::Reliability { omega } = objective {
        if !(0.0..=1.0).contains(&omega) || omega.is_nan() {
            return Err(OptError::InvalidOmega { omega });
        }
    }

    // Aggregate CNOTs by unordered program-qubit pair; reliability and
    // duration are symmetric in control/target under our routing model.
    let mut cnot_counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut measured: BTreeMap<usize, usize> = BTreeMap::new();
    for gate in circuit.iter() {
        if gate.is_cnot() {
            let a = gate.qubits()[0].0;
            let b = gate.qubits()[1].0;
            *cnot_counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        } else if gate.kind() == nisq_ir::GateKind::Swap {
            let a = gate.qubits()[0].0;
            let b = gate.qubits()[1].0;
            *cnot_counts.entry((a.min(b), a.max(b))).or_insert(0) += 3;
        } else if gate.is_measure() {
            *measured.entry(gate.qubits()[0].0).or_insert(0) += 1;
        }
    }

    let (pair_weight_scale, single_weight_scale) = match objective {
        MappingObjective::Reliability { omega } => (1.0 - omega, omega),
        MappingObjective::Duration { .. } => (1.0, 0.0),
    };

    let pair_terms: Vec<PairTerm> = cnot_counts
        .iter()
        .map(|(&(a, b), &count)| PairTerm {
            a,
            b,
            weight: pair_weight_scale * count as f64,
        })
        .collect();
    let single_terms: Vec<SingleTerm> = measured
        .iter()
        .map(|(&q, &count)| SingleTerm {
            q,
            weight: single_weight_scale * count as f64,
        })
        .collect();

    let reliability = machine.reliability();
    let topology = machine.topology();
    // Price pairs under the selection the scheduler will actually use
    // (grid-only selections degrade to best-path off-grid).
    let policy = policy.effective_on(topology);
    let mut hops = Vec::new();
    let mut pair_cost = vec![0.0; n_hw * n_hw];
    for h1 in 0..n_hw {
        for h2 in 0..n_hw {
            if h1 == h2 {
                continue;
            }
            let a = HwQubit(h1);
            let b = HwQubit(h2);
            pair_cost[h1 * n_hw + h2] = match objective {
                MappingObjective::Reliability { .. } => {
                    let rel = match policy {
                        RouteSelection::OneBendPaths | RouteSelection::RectangleReservation => {
                            reliability
                                .best_one_bend(a, b)
                                .expect("distinct qubits always have a one-bend route on a grid")
                                .1
                        }
                        RouteSelection::BestPath => reliability.best_path_cnot_reliability(a, b),
                    };
                    -rel.max(1e-12).ln()
                }
                MappingObjective::Duration {
                    calibration_aware: true,
                } => {
                    let one_bend;
                    let path = match policy {
                        RouteSelection::OneBendPaths | RouteSelection::RectangleReservation => {
                            let (junction, _) = reliability
                                .best_one_bend(a, b)
                                .expect("distinct qubits always have a one-bend route on a grid");
                            one_bend = topology
                                .as_grid()
                                .expect("grid-only selections are effective only on grids")
                                .one_bend_path(a, b, junction);
                            &one_bend
                        }
                        RouteSelection::BestPath => &reliability.best_cnot_route(a, b).path,
                    };
                    hops.clear();
                    hops.extend(hop_slots(machine, path, true));
                    route_duration(&hops) as f64
                }
                MappingObjective::Duration {
                    calibration_aware: false,
                } => {
                    hops.clear();
                    hops.resize(topology.distance(a, b), UNIFORM_CNOT_SLOTS);
                    route_duration(&hops) as f64
                }
            };
        }
    }

    let single_cost: Vec<f64> = (0..n_hw)
        .map(|h| match objective {
            MappingObjective::Reliability { .. } => {
                -reliability.readout_reliability(HwQubit(h)).max(1e-12).ln()
            }
            MappingObjective::Duration { .. } => 0.0,
        })
        .collect();

    AssignmentProblem::new(
        n_prog,
        n_hw,
        pair_terms,
        single_terms,
        pair_cost,
        single_cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::{solve_branch_and_bound, SolverConfig};
    use nisq_ir::Benchmark;
    use nisq_machine::Machine;

    fn machine() -> Machine {
        Machine::ibmq16_on_day(5, 0)
    }

    #[test]
    fn bv4_reliability_problem_has_star_terms() {
        let c = Benchmark::Bv4.circuit();
        let p = build(
            &c,
            &machine(),
            MappingObjective::Reliability { omega: 0.5 },
            RouteSelection::OneBendPaths,
        )
        .unwrap();
        assert_eq!(p.num_program(), 4);
        assert_eq!(p.pair_terms().len(), 3);
        assert_eq!(p.single_terms().len(), 4);
        for t in p.pair_terms() {
            assert!((t.weight - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn omega_zero_ignores_readout_terms() {
        let c = Benchmark::Bv4.circuit();
        let p = build(
            &c,
            &machine(),
            MappingObjective::Reliability { omega: 0.0 },
            RouteSelection::OneBendPaths,
        )
        .unwrap();
        assert!(p.single_terms().iter().all(|t| t.weight == 0.0));
    }

    #[test]
    fn duration_objective_ignores_readout() {
        let c = Benchmark::Toffoli.circuit();
        let p = build(
            &c,
            &machine(),
            MappingObjective::Duration {
                calibration_aware: true,
            },
            RouteSelection::OneBendPaths,
        )
        .unwrap();
        assert!(p.single_terms().iter().all(|t| t.weight == 0.0));
        // Toffoli has CNOTs between all three pairs of qubits.
        assert_eq!(p.pair_terms().len(), 3);
    }

    #[test]
    fn rejects_invalid_omega() {
        let c = Benchmark::Bv4.circuit();
        assert!(matches!(
            build(
                &c,
                &machine(),
                MappingObjective::Reliability { omega: 1.5 },
                RouteSelection::OneBendPaths,
            ),
            Err(OptError::InvalidOmega { .. })
        ));
    }

    #[test]
    fn rejects_oversized_circuits() {
        let c = nisq_ir::random_circuit(nisq_ir::RandomCircuitConfig::new(20, 32, 0));
        assert!(matches!(
            build(
                &c,
                &machine(),
                MappingObjective::Reliability { omega: 0.5 },
                RouteSelection::OneBendPaths,
            ),
            Err(OptError::TooManyProgramQubits { .. })
        ));
    }

    #[test]
    fn optimal_reliability_placement_beats_random_placements() {
        // The exact solver's cost must not exceed the cost of any other
        // valid placement (here: many random ones plus a hand-built
        // all-adjacent star like the paper's Figure 2c).
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let c = Benchmark::Bv4.circuit();
        let m = machine();
        let p = build(
            &c,
            &m,
            MappingObjective::Reliability { omega: 0.5 },
            RouteSelection::OneBendPaths,
        )
        .unwrap();
        let sol = solve_branch_and_bound(&p, &SolverConfig::default());
        assert!(sol.optimal);

        // Hand-built star: ancilla (program qubit 3) at hardware qubit 1,
        // data qubits at its three neighbours 0, 2 and 9.
        let star = vec![HwQubit(0), HwQubit(2), HwQubit(9), HwQubit(1)];
        assert!(sol.cost <= p.evaluate(&star).unwrap() + 1e-9);

        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut locations: Vec<usize> = (0..16).collect();
        for _ in 0..50 {
            locations.shuffle(&mut rng);
            let random: Vec<HwQubit> = locations[..4].iter().map(|&h| HwQubit(h)).collect();
            assert!(sol.cost <= p.evaluate(&random).unwrap() + 1e-9);
        }
    }

    #[test]
    fn duration_uniform_ties_are_broken_but_valid() {
        let c = Benchmark::Bv4.circuit();
        let m = machine();
        let p = build(
            &c,
            &m,
            MappingObjective::Duration {
                calibration_aware: false,
            },
            RouteSelection::RectangleReservation,
        )
        .unwrap();
        let sol = solve_branch_and_bound(&p, &SolverConfig::default());
        assert!(sol.optimal);
        assert!(p.validate_placement(&sol.assignment).is_ok());
    }

    fn duration_problem(calibration_aware: bool, selection: RouteSelection) -> AssignmentProblem {
        let objective = MappingObjective::Duration { calibration_aware };
        build(&Benchmark::Bv4.circuit(), &machine(), objective, selection).unwrap()
    }

    #[test]
    fn adjacent_duration_is_single_cnot() {
        let m = machine();
        let edge = nisq_machine::EdgeId::new(HwQubit(0), HwQubit(1));
        let cnot = m.calibration().durations.cnot(edge).unwrap();
        let p = duration_problem(true, RouteSelection::OneBendPaths);
        assert_eq!(p.pair_cost(HwQubit(0), HwQubit(1)), f64::from(cnot));
    }

    #[test]
    fn uniform_duration_matches_paper_formula() {
        // distance 3 => 2*(3-1) swaps of 3 CNOTs each, plus the CNOT.
        let p = duration_problem(false, RouteSelection::RectangleReservation);
        assert_eq!(
            p.pair_cost(HwQubit(0), HwQubit(3)),
            f64::from(2 * 2 * 3 * 4 + 4)
        );
        assert_eq!(p.pair_cost(HwQubit(0), HwQubit(0)), 0.0);
    }

    #[test]
    fn farther_pairs_take_longer() {
        let p = duration_problem(true, RouteSelection::BestPath);
        assert!(p.pair_cost(HwQubit(0), HwQubit(15)) > p.pair_cost(HwQubit(0), HwQubit(1)));
    }
}
