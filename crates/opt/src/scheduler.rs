use crate::error::OptError;
use crate::routing::{compute_route, hop_slots, route_duration, CnotRoute, RouteSelection};
use crate::STATIC_COHERENCE_SLOTS;
use nisq_ir::{Circuit, GateKind, Qubit};
use nisq_machine::{HwQubit, Machine};
use std::collections::BTreeSet;

/// An injective assignment of program qubits to hardware qubits
/// (Constraints 1-2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    map: Vec<HwQubit>,
}

impl Placement {
    /// Creates a placement from the hardware location of each program qubit
    /// (index `p` holds program qubit `p`'s location).
    pub fn new(map: Vec<HwQubit>) -> Self {
        Placement { map }
    }

    /// Hardware location of a program qubit.
    ///
    /// # Panics
    ///
    /// Panics if the program qubit is not covered by this placement.
    pub fn hw(&self, q: Qubit) -> HwQubit {
        self.map[q.0]
    }

    /// Number of placed program qubits.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The underlying mapping as a slice indexed by program qubit.
    pub fn as_slice(&self) -> &[HwQubit] {
        &self.map
    }

    /// Validates injectivity and range against a machine with
    /// `num_hardware` qubits.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first violation.
    pub fn validate(&self, num_hardware: usize) -> Result<(), OptError> {
        let mut used = vec![false; num_hardware];
        for (p, h) in self.map.iter().enumerate() {
            if h.0 >= num_hardware {
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
}

impl From<Vec<HwQubit>> for Placement {
    fn from(map: Vec<HwQubit>) -> Self {
        Placement::new(map)
    }
}

/// Scheduler configuration: route selection, and whether durations and
/// coherence windows come from calibration data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Route selection for non-adjacent CNOTs.
    pub selection: RouteSelection,
    /// Use per-edge calibration durations and per-qubit T2 windows
    /// (T-SMT*/R-SMT*) instead of [`UNIFORM_CNOT_SLOTS`](crate::UNIFORM_CNOT_SLOTS)
    /// per CNOT and the [`STATIC_COHERENCE_SLOTS`] bound (T-SMT).
    pub calibration_aware: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            selection: RouteSelection::OneBendPaths,
            calibration_aware: true,
        }
    }
}

/// One gate with its assigned start time, duration, resolved hardware
/// operands and (for two-qubit gates) route.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledGate {
    /// Index of the gate in the input circuit.
    pub gate_index: usize,
    /// Start timeslot.
    pub start: u32,
    /// Duration in timeslots.
    pub duration: u32,
    /// Route used, for two-qubit gates.
    pub route: Option<CnotRoute>,
    /// Hardware locations of the gate's operands (for two-qubit gates:
    /// control then target), as the placement assigns them.
    pub hw: Vec<HwQubit>,
}

impl ScheduledGate {
    /// Timeslot at which the gate finishes.
    pub fn finish(&self) -> u32 {
        self.start + self.duration
    }
}

/// The output of the scheduler: start times for every gate, the overall
/// makespan, the routes chosen for CNOTs and any coherence violations.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Scheduled gates, in the order they were issued.
    pub gates: Vec<ScheduledGate>,
    /// Finish time of the last gate, in timeslots.
    pub makespan: u32,
    /// Gate indices that finish after the coherence window of a qubit they
    /// touch (violations of Constraint 4/6).
    pub coherence_violations: Vec<usize>,
    /// Total number of SWAP operations implied by the chosen routes
    /// (one-way, i.e. the swaps needed to bring qubits adjacent).
    pub swap_count: usize,
}

impl Schedule {
    /// The scheduled entry for a circuit gate index, if present.
    pub fn entry(&self, gate_index: usize) -> Option<&ScheduledGate> {
        self.gates.iter().find(|g| g.gate_index == gate_index)
    }

    /// Whether every gate finished within its coherence window.
    pub fn within_coherence(&self) -> bool {
        self.coherence_violations.is_empty()
    }
}

/// Routing-aware list scheduler.
///
/// Implements the paper's scheduling model: gates start only after their
/// dependencies finish (Constraint 3), a routed CNOT lasts the swap-back
/// [`route_duration`] over the route's [`hop_slots`], the swaps out and
/// back included, so every qubit is at its placed location between gates
/// (Constraint 5), concurrent CNOTs never overlap in time if their
/// reserved regions overlap in space (Constraints 7-9, via resource
/// reservation of either the one-bend path or the whole bounding
/// rectangle), and gates that outlive the coherence window are reported
/// (Constraints 4/6): a qubit's calibrated T2 when calibration-aware,
/// [`STATIC_COHERENCE_SLOTS`] otherwise. Gates are issued
/// earliest-ready-first.
///
/// # Example
///
/// ```
/// use nisq_ir::Benchmark;
/// use nisq_machine::{HwQubit, Machine};
/// use nisq_opt::{Placement, Scheduler, SchedulerConfig};
///
/// let machine = Machine::ibmq16_on_day(0, 0);
/// let circuit = Benchmark::Bv4.circuit();
/// // Star placement: ancilla on Q1, data qubits on its neighbours.
/// let placement = Placement::new(vec![HwQubit(0), HwQubit(2), HwQubit(9), HwQubit(1)]);
/// let scheduler = Scheduler::new(&machine, SchedulerConfig::default());
/// let schedule = scheduler.schedule(&circuit, &placement).unwrap();
/// assert_eq!(schedule.swap_count, 0);
/// assert!(schedule.within_coherence());
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<'m> {
    machine: &'m Machine,
    config: SchedulerConfig,
}

impl<'m> Scheduler<'m> {
    /// Creates a scheduler for a machine with the given configuration.
    pub fn new(machine: &'m Machine, config: SchedulerConfig) -> Self {
        Scheduler { machine, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Computes the route for a CNOT between two hardware locations under
    /// the configured route selection (see [`compute_route`]).
    pub fn route(&self, control: HwQubit, target: HwQubit) -> CnotRoute {
        compute_route(
            self.machine,
            self.config.selection,
            self.config.calibration_aware,
            control,
            target,
        )
    }

    fn route_duration(&self, route: &CnotRoute) -> u32 {
        let slots: Vec<u32> =
            hop_slots(self.machine, &route.path, self.config.calibration_aware).collect();
        route_duration(&slots)
    }

    fn coherence_limit(&self, qubits: &[HwQubit]) -> u32 {
        if self.config.calibration_aware {
            qubits
                .iter()
                .map(|&q| self.machine.calibration().t2_slots(q))
                .min()
                .unwrap_or(STATIC_COHERENCE_SLOTS)
        } else {
            STATIC_COHERENCE_SLOTS
        }
    }

    /// Schedules `circuit` under `placement`.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement does not cover the circuit's
    /// program qubits injectively on this machine.
    pub fn schedule(&self, circuit: &Circuit, placement: &Placement) -> Result<Schedule, OptError> {
        if placement.len() < circuit.num_qubits() {
            return Err(OptError::InvalidPlacement {
                reason: format!(
                    "placement covers {} qubits but the circuit uses {}",
                    placement.len(),
                    circuit.num_qubits()
                ),
            });
        }
        placement.validate(self.machine.num_qubits())?;

        let dag = circuit.dag();
        let n = circuit.len();
        let calibration = self.machine.calibration();
        let single_slots = calibration.durations.single_qubit_slots;
        let readout_slots = calibration.durations.readout_slots;

        let mut busy_until = vec![0u32; self.machine.num_qubits()];
        let mut ready_time = vec![0u32; n];
        let mut unscheduled_preds: Vec<usize> = (0..n).map(|i| dag.predecessors(i).len()).collect();
        let mut ready: BTreeSet<(u32, usize)> = (0..n)
            .filter(|&i| unscheduled_preds[i] == 0)
            .map(|i| (0u32, i))
            .collect();

        let mut gates: Vec<ScheduledGate> = Vec::with_capacity(n);
        let mut coherence_violations = Vec::new();
        let mut swap_count = 0usize;
        let mut makespan = 0u32;

        while let Some(&(rt, idx)) = ready.iter().next() {
            ready.remove(&(rt, idx));
            let gate = &circuit.gates()[idx];

            let acting: Vec<HwQubit> = gate.qubits().iter().map(|&q| placement.hw(q)).collect();

            let (resources, duration, route) = match gate.kind() {
                GateKind::Cnot | GateKind::Swap => {
                    let route = self.route(acting[0], acting[1]);
                    let mut duration = self.route_duration(&route);
                    if gate.kind() == GateKind::Swap {
                        duration *= 3;
                    }
                    swap_count += route.swaps_needed();
                    (route.reserved.clone(), duration, Some(route))
                }
                GateKind::Measure => (acting.clone(), readout_slots, None),
                GateKind::Barrier => (acting.clone(), 0, None),
                _ => (acting.clone(), single_slots, None),
            };

            let resource_free = resources
                .iter()
                .map(|&q| busy_until[q.0])
                .max()
                .unwrap_or(0);
            let start = rt.max(resource_free);
            let finish = start + duration;
            for &q in &resources {
                busy_until[q.0] = finish;
            }
            makespan = makespan.max(finish);

            // Coherence check against the qubits the gate acts on.
            if finish > self.coherence_limit(&acting) {
                coherence_violations.push(idx);
            }

            for &succ in dag.successors(idx) {
                ready_time[succ] = ready_time[succ].max(finish);
                unscheduled_preds[succ] -= 1;
                if unscheduled_preds[succ] == 0 {
                    ready.insert((ready_time[succ], succ));
                }
            }

            gates.push(ScheduledGate {
                gate_index: idx,
                start,
                duration,
                route,
                hw: acting,
            });
        }

        Ok(Schedule {
            gates,
            makespan,
            coherence_violations,
            swap_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::Benchmark;

    fn machine() -> Machine {
        Machine::ibmq16_on_day(1, 0)
    }

    fn star_placement() -> Placement {
        // BV4: ancilla (program qubit 3) on hardware qubit 1, data qubits on
        // its three neighbours.
        Placement::new(vec![HwQubit(0), HwQubit(2), HwQubit(9), HwQubit(1)])
    }

    fn spread_placement() -> Placement {
        // Deliberately far apart: forces swaps.
        Placement::new(vec![HwQubit(0), HwQubit(7), HwQubit(8), HwQubit(15)])
    }

    #[test]
    fn respects_dependencies() {
        let m = machine();
        let c = Benchmark::Bv4.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &star_placement()).unwrap();
        let dag = c.dag();
        for entry in &schedule.gates {
            for &pred in dag.predecessors(entry.gate_index) {
                let pred_entry = schedule.entry(pred).unwrap();
                assert!(
                    entry.start >= pred_entry.finish(),
                    "gate {} starts before its dependency {}",
                    entry.gate_index,
                    pred
                );
            }
        }
    }

    #[test]
    fn adjacent_star_placement_needs_no_swaps() {
        let m = machine();
        let c = Benchmark::Bv4.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &star_placement()).unwrap();
        assert_eq!(schedule.swap_count, 0);
        assert!(schedule.within_coherence());
    }

    #[test]
    fn spread_placement_needs_swaps_and_takes_longer() {
        let m = machine();
        let c = Benchmark::Bv4.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let near = s.schedule(&c, &star_placement()).unwrap();
        let far = s.schedule(&c, &spread_placement()).unwrap();
        assert!(far.swap_count > 0);
        assert!(far.makespan > near.makespan);
    }

    #[test]
    fn overlapping_cnot_routes_are_serialised() {
        // Two CNOTs that share hardware qubits cannot overlap in time.
        let m = machine();
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        // Place them so both routes pass through the same region: (0,0)->(3,0)
        // and (1,0)->(2,0) share qubits 1 and 2.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(3), HwQubit(1), HwQubit(2)]);
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &placement).unwrap();
        let g0 = schedule.entry(0).unwrap();
        let g1 = schedule.entry(1).unwrap();
        let overlap_in_time = g0.start < g1.finish() && g1.start < g0.finish();
        assert!(!overlap_in_time, "routes share qubits but overlap in time");
    }

    #[test]
    fn disjoint_cnots_run_in_parallel() {
        let m = machine();
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        // Far-apart adjacent pairs: (0,1) and (14,15).
        let placement = Placement::new(vec![HwQubit(0), HwQubit(1), HwQubit(14), HwQubit(15)]);
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &placement).unwrap();
        let g0 = schedule.entry(0).unwrap();
        let g1 = schedule.entry(1).unwrap();
        assert_eq!(g0.start, 0);
        assert_eq!(g1.start, 0);
    }

    #[test]
    fn rectangle_reservation_blocks_more_than_one_bend() {
        let m = machine();
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        // First CNOT spans a wide rectangle covering the second's qubits in
        // the other row; under RR they serialise, under 1BP they can overlap
        // if the chosen paths are disjoint.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(12), HwQubit(9), HwQubit(10)]);
        let rr = Scheduler::new(
            &m,
            SchedulerConfig {
                selection: RouteSelection::RectangleReservation,
                ..SchedulerConfig::default()
            },
        )
        .schedule(&c, &placement)
        .unwrap();
        let obp = Scheduler::new(
            &m,
            SchedulerConfig {
                selection: RouteSelection::OneBendPaths,
                ..SchedulerConfig::default()
            },
        )
        .schedule(&c, &placement)
        .unwrap();
        assert!(rr.makespan >= obp.makespan);
    }

    #[test]
    fn calibration_unaware_durations_use_uniform_slots() {
        let m = machine();
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        // An edge whose calibrated duration is not the uniform one, so the
        // makespan shows which model priced the CNOT.
        let (a, b) = m
            .topology()
            .edges()
            .iter()
            .copied()
            .find(|&(a, b)| {
                let edge = nisq_machine::EdgeId::new(a, b);
                m.calibration().durations.cnot(edge).unwrap() != crate::UNIFORM_CNOT_SLOTS
            })
            .unwrap();
        let placement = Placement::new(vec![a, b]);
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                calibration_aware: false,
                ..SchedulerConfig::default()
            },
        );
        let schedule = s.schedule(&c, &placement).unwrap();
        assert_eq!(schedule.makespan, crate::UNIFORM_CNOT_SLOTS);
    }

    #[test]
    fn rejects_placement_smaller_than_circuit() {
        let m = machine();
        let c = Benchmark::Bv4.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let placement = Placement::new(vec![HwQubit(0), HwQubit(1)]);
        assert!(s.schedule(&c, &placement).is_err());
    }

    #[test]
    fn rejects_duplicate_hardware_locations() {
        let m = machine();
        let c = Benchmark::Bv4.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let placement = Placement::new(vec![HwQubit(0), HwQubit(0), HwQubit(1), HwQubit(2)]);
        assert!(s.schedule(&c, &placement).is_err());
        // A location the machine does not have is rejected too.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(16)]);
        assert!(s.schedule(&c, &placement).is_err());
    }

    #[test]
    fn all_benchmarks_fit_within_coherence_with_good_placements() {
        // The paper reports every benchmark finishes in < 150 timeslots with
        // R-SMT*-style placements, far below the worst-case coherence
        // window. Here we only check the scheduler flags nothing for a
        // compact placement of the smallest benchmark.
        let m = machine();
        let c = Benchmark::Hs2.circuit();
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let placement = Placement::new(vec![HwQubit(1), HwQubit(2)]);
        let schedule = s.schedule(&c, &placement).unwrap();
        assert!(schedule.within_coherence());
        assert!(schedule.makespan < 150);
    }

    #[test]
    fn adjacent_program_swaps_run_physically() {
        let m = machine();
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.swap(Qubit(0), Qubit(1));
        let placement = Placement::new(vec![HwQubit(0), HwQubit(1)]);
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &placement).unwrap();
        let executed = schedule.entry(1).unwrap();
        assert!(executed.duration > 0);
        assert!(executed.route.is_some());
        assert_eq!(schedule.swap_count, 0, "an adjacent SWAP needs no movement");
    }

    #[test]
    fn non_adjacent_program_swaps_are_routed() {
        let m = machine();
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        // Same row, two columns apart: not adjacent, so the SWAP is routed
        // and executed.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(2)]);
        let s = Scheduler::new(&m, SchedulerConfig::default());
        let schedule = s.schedule(&c, &placement).unwrap();
        let entry = schedule.entry(0).unwrap();
        assert!(entry.route.is_some());
        assert!(entry.duration > 0);
        assert_eq!(schedule.swap_count, 1);
    }

    #[test]
    fn placement_accessors_work() {
        let p = star_placement();
        assert_eq!(p.hw(Qubit(3)), HwQubit(1));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert!(p.validate(16).is_ok());
        assert!(p.validate(2).is_err());
    }
}
