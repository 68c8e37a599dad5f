//! Analytic reliability estimation for compiled circuits.
//!
//! The paper scores a mapping by the product of the reliabilities of its
//! CNOT and readout operations (Section 4.5); single-qubit gates are ignored
//! because their error rates are two orders of magnitude smaller on IBMQ16.
//! This module computes exactly that product for a scheduled circuit,
//! pricing every routed CNOT with [`nisq_machine::route_cnot_reliability`],
//! the same function placement prices pairs with.

use nisq_ir::{Circuit, GateKind};
use nisq_machine::{route_cnot_reliability, Machine};
use nisq_opt::Schedule;

/// The analytic reliability estimate: the paper's CNOT × readout product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityEstimate {
    /// Product of CNOT route reliabilities (swaps counted one-way, as in
    /// the paper's Footnote 3).
    pub cnot: f64,
    /// Product of readout reliabilities of the measured hardware qubits.
    pub readout: f64,
}

impl ReliabilityEstimate {
    /// The estimated success probability, `cnot * readout`.
    pub fn total(&self) -> f64 {
        self.cnot * self.readout
    }
}

/// Computes the analytic reliability estimate for a scheduled circuit.
///
/// # Panics
///
/// Panics if the schedule does not cover the circuit (it must come from the
/// same compilation run).
pub fn estimate(circuit: &Circuit, schedule: &Schedule, machine: &Machine) -> ReliabilityEstimate {
    let calibration = machine.calibration();
    let mut cnot = 1.0;
    let mut readout = 1.0;

    for entry in &schedule.gates {
        let gate = &circuit.gates()[entry.gate_index];
        match gate.kind() {
            GateKind::Cnot | GateKind::Swap => {
                let route = entry
                    .route
                    .as_ref()
                    .expect("the scheduler routes every two-qubit gate");
                let mut r = route_cnot_reliability(calibration, &route.path);
                if gate.kind() == GateKind::Swap {
                    // A program-level SWAP costs three CNOTs on its final hop.
                    let last = &route.path[route.path.len() - 2..];
                    let edge_rel = calibration
                        .cnot_reliability(last[0], last[1])
                        .expect("route hops are adjacent");
                    r *= edge_rel.powi(2);
                }
                cnot *= r;
            }
            GateKind::Measure => {
                readout *= calibration.readout_reliability(entry.hw[0]);
            }
            _ => {}
        }
    }

    ReliabilityEstimate { cnot, readout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::Benchmark;
    use nisq_machine::{HwQubit, Machine};
    use nisq_opt::{Placement, Scheduler, SchedulerConfig};

    fn compile_parts(
        benchmark: Benchmark,
        placement: Vec<HwQubit>,
    ) -> (Circuit, Schedule, Machine) {
        let machine = Machine::ibmq16_on_day(4, 0);
        let circuit = benchmark.circuit();
        let placement = Placement::new(placement);
        let schedule = Scheduler::new(&machine, SchedulerConfig::default())
            .schedule(&circuit, &placement)
            .unwrap();
        (circuit, schedule, machine)
    }

    #[test]
    fn estimate_is_a_probability() {
        let (c, s, m) = compile_parts(
            Benchmark::Bv4,
            vec![HwQubit(0), HwQubit(2), HwQubit(9), HwQubit(1)],
        );
        let e = estimate(&c, &s, &m);
        assert!(e.total() > 0.0 && e.total() <= 1.0);
        assert!(e.cnot > 0.0 && e.cnot <= 1.0);
        assert!(e.readout > 0.0 && e.readout <= 1.0);
    }

    #[test]
    fn compact_placement_beats_spread_placement() {
        let (c, s_near, m) = compile_parts(
            Benchmark::Bv4,
            vec![HwQubit(0), HwQubit(2), HwQubit(9), HwQubit(1)],
        );
        let near = estimate(&c, &s_near, &m);
        let (c2, s_far, m2) = compile_parts(
            Benchmark::Bv4,
            vec![HwQubit(0), HwQubit(7), HwQubit(8), HwQubit(15)],
        );
        let far = estimate(&c2, &s_far, &m2);
        assert!(near.total() > far.total());
    }

    // `estimate` prices every routed CNOT with `route_cnot_reliability`.
    #[test]
    fn route_reliability_direct_edge_matches_calibration() {
        let m = Machine::ibmq16_on_day(4, 0);
        let cal = m.calibration();
        let direct = route_cnot_reliability(cal, &[HwQubit(0), HwQubit(1)]);
        assert!((direct - cal.cnot_reliability(HwQubit(0), HwQubit(1)).unwrap()).abs() < 1e-12);
        assert_eq!(route_cnot_reliability(cal, &[HwQubit(3)]), 1.0);
    }

    #[test]
    fn longer_routes_are_less_reliable() {
        let m = Machine::ibmq16_on_day(4, 0);
        let cal = m.calibration();
        let short = route_cnot_reliability(cal, &[HwQubit(0), HwQubit(1)]);
        let long = route_cnot_reliability(cal, &[HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)]);
        assert!(long < short);
    }
}
