//! The routing layer: how a two-qubit gate between non-adjacent hardware
//! qubits is routed, what it reserves, what it costs in time, and which
//! physical SWAPs realize it.
//!
//! Routing follows the paper's swap-back model: a routed gate SWAPs its
//! control next to its target, runs, and SWAPs the control back, so the
//! placement holds for the whole execution (Constraint 5).
//!
//! * [`RouteSelection`] and [`compute_route`] — *which path* a routed gate
//!   takes and what it reserves while executing (Section 4.3 of the paper:
//!   rectangle reservation, one-bend paths, or most-reliable best paths).
//! * [`route_duration`] over [`hop_slots`] — the one pricing of a routed
//!   gate's duration, for the scheduler and the duration objective alike.
//! * [`realize`] — the physical operations of a routed gate, which the
//!   emitter writes out.

use crate::UNIFORM_CNOT_SLOTS;
use nisq_machine::{EdgeId, HwQubit, Machine};
use std::fmt;

/// How a route is chosen for a two-qubit gate between non-adjacent hardware
/// qubits, and which resources the gate reserves while executing
/// (Section 4.3 of the paper).
///
/// Selections that need a 2-D grid layout (rectangle reservation, one-bend
/// paths) automatically fall back to best-path routing on topologies
/// without one (rings, heavy-hex lattices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RouteSelection {
    /// Rectangle reservation: the gate blocks the whole bounding rectangle
    /// of its control and target for its duration (Constraints 7-8).
    RectangleReservation,
    /// One-bend paths: the gate uses one of the two L-shaped paths along the
    /// bounding rectangle and blocks only the qubits on that path
    /// (Constraint 9).
    OneBendPaths,
    /// Best path: route along the most reliable CNOT route found by
    /// Dijkstra with swap-cubed intermediate edge weights (used by the
    /// greedy heuristics).
    BestPath,
}

impl RouteSelection {
    /// The selection actually usable on `topology`: grid-only selections
    /// (rectangle reservation, one-bend paths) degrade to best-path
    /// routing when the topology has no 2-D grid layout. The single
    /// source of truth for that rule — the scheduler's route computation,
    /// the SMT cost model and the compiler's route step all call this.
    pub fn effective_on(self, topology: &nisq_machine::Topology) -> RouteSelection {
        if topology.as_grid().is_none() {
            RouteSelection::BestPath
        } else {
            self
        }
    }

    /// Short name used in reports ("RR", "1BP", "Best Path").
    pub fn short_name(&self) -> &'static str {
        match self {
            RouteSelection::RectangleReservation => "RR",
            RouteSelection::OneBendPaths => "1BP",
            RouteSelection::BestPath => "Best Path",
        }
    }
}

impl fmt::Display for RouteSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The hardware route chosen for one program CNOT (or program SWAP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnotRoute {
    /// Hardware qubits along the route, from the control's location to the
    /// target's location (inclusive). Adjacent CNOTs have a 2-element path.
    pub path: Vec<HwQubit>,
    /// The junction corner used, when routed with one-bend paths.
    pub junction: Option<HwQubit>,
    /// Hardware qubits reserved while the CNOT executes (the path itself
    /// for 1BP/best-path, the full bounding rectangle for RR).
    pub reserved: Vec<HwQubit>,
}

impl CnotRoute {
    /// Number of SWAP operations needed before the CNOT (hops minus one).
    pub fn swaps_needed(&self) -> usize {
        self.path.len().saturating_sub(2)
    }

    /// Whether the CNOT can run directly on a hardware edge without any
    /// qubit movement.
    pub fn is_direct(&self) -> bool {
        self.path.len() == 2
    }
}

/// Computes the route for a two-qubit gate between hardware locations
/// `control` and `target` on `machine` under `selection`.
///
/// When `calibration_aware` is set, one-bend junctions are chosen by route
/// reliability; otherwise the first geometric junction is used (the
/// calibration-unaware variants of Table 1). On topologies without a grid
/// layout, grid-only selections fall back to best-path routing.
///
/// # Panics
///
/// Panics if `control == target`.
pub fn compute_route(
    machine: &Machine,
    selection: RouteSelection,
    calibration_aware: bool,
    control: HwQubit,
    target: HwQubit,
) -> CnotRoute {
    let topology = machine.topology();
    let reliability = machine.reliability();
    let grid = topology.as_grid();
    match (selection.effective_on(topology), grid) {
        (RouteSelection::BestPath, _) | (_, None) => {
            let path = reliability.best_cnot_route(control, target).path.clone();
            CnotRoute {
                reserved: path.clone(),
                path,
                junction: None,
            }
        }
        (RouteSelection::OneBendPaths | RouteSelection::RectangleReservation, Some(grid)) => {
            let junction = if calibration_aware {
                reliability
                    .best_one_bend(control, target)
                    .expect("control and target are distinct on a grid")
                    .0
            } else {
                grid.junctions(control, target).0
            };
            let path = grid.one_bend_path(control, target, junction);
            let reserved = if selection == RouteSelection::RectangleReservation {
                let ((lx, ly), (rx, ry)) = grid.bounding_rectangle(control, target);
                let mut qs = Vec::new();
                for y in ly..=ry {
                    for x in lx..=rx {
                        qs.push(grid.at(x, y));
                    }
                }
                qs
            } else {
                path.clone()
            };
            CnotRoute {
                path,
                junction: Some(junction),
                reserved,
            }
        }
    }
}

/// One physical operation produced when a routed two-qubit gate is
/// materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedOp {
    /// A movement SWAP between adjacent hardware locations.
    Swap(HwQubit, HwQubit),
    /// The routed gate itself (CNOT or program-level SWAP) on the final
    /// adjacent pair.
    Gate(HwQubit, HwQubit),
}

/// Duration in timeslots of a routed two-qubit gate under swap-back, given
/// the CNOT duration of each hop along its path (the last entry is the edge
/// the gate itself executes on): every hop but the last costs a SWAP out
/// and a SWAP back, three CNOTs each, then the gate runs once (the duration
/// model of Constraint 5).
pub fn route_duration(hop_slots: &[u32]) -> u32 {
    let mut total = 0;
    for (i, &h) in hop_slots.iter().enumerate() {
        if i + 1 == hop_slots.len() {
            total += h;
        } else {
            total += 6 * h;
        }
    }
    total
}

/// Materializes the physical operations of a routed two-qubit gate under
/// swap-back, appending them to `out`: SWAP the control along the path
/// until it is adjacent to the target, run the gate, then SWAP it back in
/// reverse order, so every qubit is home again afterwards.
///
/// # Example
///
/// ```
/// use nisq_machine::HwQubit;
/// use nisq_opt::{realize, CnotRoute, RoutedOp};
///
/// let route = CnotRoute {
///     path: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
///     junction: None,
///     reserved: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
/// };
/// let mut ops = Vec::new();
/// realize(&route, &mut ops);
/// assert_eq!(
///     ops,
///     vec![
///         RoutedOp::Swap(HwQubit(0), HwQubit(1)),
///         RoutedOp::Gate(HwQubit(1), HwQubit(2)),
///         RoutedOp::Swap(HwQubit(0), HwQubit(1)),
///     ]
/// );
/// ```
pub fn realize(route: &CnotRoute, out: &mut Vec<RoutedOp>) {
    let path = &route.path;
    let hops = path.len() - 1;
    for i in 0..hops.saturating_sub(1) {
        out.push(RoutedOp::Swap(path[i], path[i + 1]));
    }
    out.push(RoutedOp::Gate(path[hops - 1], path[hops]));
    for i in (0..hops.saturating_sub(1)).rev() {
        out.push(RoutedOp::Swap(path[i], path[i + 1]));
    }
}

/// CNOT duration of every hop along `path`, the input of
/// [`route_duration`]: the per-edge calibration durations when
/// `calibration_aware`, otherwise [`UNIFORM_CNOT_SLOTS`] for every hop (the
/// calibration-unaware model).
///
/// # Panics
///
/// The iterator panics if a path edge has no calibration duration entry.
pub fn hop_slots<'a>(
    machine: &'a Machine,
    path: &'a [HwQubit],
    calibration_aware: bool,
) -> impl Iterator<Item = u32> + 'a {
    path.windows(2).map(move |pair| {
        if calibration_aware {
            machine
                .calibration()
                .durations
                .cnot(EdgeId::new(pair[0], pair[1]))
                .expect("route edges have calibration durations")
        } else {
            UNIFORM_CNOT_SLOTS
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use nisq_ir::Qubit;

    fn route_3() -> CnotRoute {
        CnotRoute {
            path: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
            junction: None,
            reserved: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
        }
    }

    #[test]
    fn short_names_match_paper() {
        assert_eq!(RouteSelection::RectangleReservation.short_name(), "RR");
        assert_eq!(RouteSelection::OneBendPaths.short_name(), "1BP");
        assert_eq!(RouteSelection::BestPath.to_string(), "Best Path");
    }

    #[test]
    fn swaps_needed_counts_intermediate_hops() {
        let route = route_3();
        assert_eq!(route.swaps_needed(), 1);
        assert!(!route.is_direct());
        let direct = CnotRoute {
            path: vec![HwQubit(0), HwQubit(1)],
            junction: None,
            reserved: vec![HwQubit(0), HwQubit(1)],
        };
        assert_eq!(direct.swaps_needed(), 0);
        assert!(direct.is_direct());
    }

    /// Which program qubit sits on each of `n` hardware locations.
    fn occupancy(placement: &Placement, n: usize) -> Vec<Option<Qubit>> {
        let mut occupant = vec![None; n];
        for (p, h) in placement.as_slice().iter().enumerate() {
            occupant[h.0] = Some(Qubit(p));
        }
        occupant
    }

    /// Applies the SWAPs among `ops` to `occupant`.
    fn apply_swaps(occupant: &mut [Option<Qubit>], ops: &[RoutedOp]) {
        for op in ops {
            if let RoutedOp::Swap(a, b) = *op {
                occupant.swap(a.0, b.0);
            }
        }
    }

    #[test]
    fn swap_back_realizes_the_round_trip() {
        let mut ops = Vec::new();
        realize(&route_3(), &mut ops);
        assert_eq!(
            ops,
            vec![
                RoutedOp::Swap(HwQubit(0), HwQubit(1)),
                RoutedOp::Gate(HwQubit(1), HwQubit(2)),
                RoutedOp::Swap(HwQubit(0), HwQubit(1)),
            ]
        );
        // Round trip: no net layout change.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(2)]);
        let mut occupant = occupancy(&placement, 4);
        apply_swaps(&mut occupant, &ops);
        assert_eq!(occupant, occupancy(&placement, 4));
    }

    #[test]
    fn advance_applies_exactly_the_movement_swaps() {
        // Under swap-back a routed gate advances the layout by nothing: the
        // movement SWAPs before the gate bring the control next to the
        // target, and the ones after it undo them exactly. The scheduler
        // and the emitter rely on this when they keep one placement for
        // the whole run.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(3)]);
        let route = CnotRoute {
            path: vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)],
            junction: None,
            reserved: vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)],
        };
        let mut ops = Vec::new();
        realize(&route, &mut ops);
        let gate = ops
            .iter()
            .position(|op| matches!(op, RoutedOp::Gate(..)))
            .unwrap();
        assert_eq!(gate, route.swaps_needed());
        assert_eq!(ops.len(), 2 * route.swaps_needed() + 1);

        let mut occupant = occupancy(&placement, 4);
        apply_swaps(&mut occupant, &ops[..gate]);
        // The gate acts on the control's new location and the target's.
        assert_eq!(ops[gate], RoutedOp::Gate(HwQubit(2), HwQubit(3)));
        assert_eq!(occupant[2], Some(Qubit(0)));
        assert_eq!(occupant[3], Some(Qubit(1)));
        apply_swaps(&mut occupant, &ops[gate + 1..]);
        assert_eq!(occupant, occupancy(&placement, 4));
    }

    #[test]
    fn durations_differ_by_swap_back() {
        // Every movement hop pays a SWAP out and a SWAP back (six CNOTs);
        // the gate's own hop pays once.
        let hops = [4, 5, 6];
        assert_eq!(route_duration(&hops), 6 * 4 + 6 * 5 + 6);
        // A direct gate costs its one CNOT.
        assert_eq!(route_duration(&[7]), 7);
    }

    #[test]
    fn layout_round_trips_and_tracks_swaps() {
        let placement = Placement::new(vec![HwQubit(3), HwQubit(0)]);
        assert_eq!(Placement::from(placement.as_slice().to_vec()), placement);
        assert_eq!(placement.hw(Qubit(0)), HwQubit(3));
        placement.validate(5).unwrap();
        // Routing program qubit 0 to program qubit 1 moves it through two
        // empty locations; the empty locations move the other way.
        let route = CnotRoute {
            path: vec![HwQubit(3), HwQubit(2), HwQubit(1), HwQubit(0)],
            junction: None,
            reserved: vec![HwQubit(3), HwQubit(2), HwQubit(1), HwQubit(0)],
        };
        let mut ops = Vec::new();
        realize(&route, &mut ops);
        let mut occupant = occupancy(&placement, 5);
        apply_swaps(&mut occupant, &ops[..2]);
        assert_eq!(occupant, [Some(Qubit(1)), Some(Qubit(0)), None, None, None]);
        apply_swaps(&mut occupant, &ops[2..]);
        assert_eq!(occupant, occupancy(&placement, 5));
        // Invalid placements are rejected.
        assert!(Placement::new(vec![HwQubit(9)]).validate(4).is_err());
        assert!(Placement::new(vec![HwQubit(1), HwQubit(1)])
            .validate(4)
            .is_err());
    }

    #[test]
    fn compute_route_falls_back_to_best_path_off_grid() {
        let ring = Machine::from_spec(nisq_machine::TopologySpec::Ring { n: 8 }, 1, 0);
        let route = compute_route(
            &ring,
            RouteSelection::OneBendPaths,
            true,
            HwQubit(0),
            HwQubit(3),
        );
        assert_eq!(route.junction, None, "no junctions off-grid");
        assert_eq!(route.path.first(), Some(&HwQubit(0)));
        assert_eq!(route.path.last(), Some(&HwQubit(3)));
        for pair in route.path.windows(2) {
            assert!(ring.topology().adjacent(pair[0], pair[1]));
        }
    }

    #[test]
    fn grid_selections_degrade_to_best_path_off_grid() {
        let ring = Machine::from_spec(nisq_machine::TopologySpec::Ring { n: 8 }, 1, 0);
        let grid = Machine::ibmq16_on_day(1, 0);
        for selection in [
            RouteSelection::RectangleReservation,
            RouteSelection::OneBendPaths,
            RouteSelection::BestPath,
        ] {
            assert_eq!(
                selection.effective_on(ring.topology()),
                RouteSelection::BestPath
            );
            assert_eq!(selection.effective_on(grid.topology()), selection);
        }
    }
}
