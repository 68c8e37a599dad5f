//! The unified routing layer: how two-qubit gates between non-adjacent
//! hardware qubits are routed, which resources they reserve, and how the
//! chosen routes are materialized as physical SWAP sequences.
//!
//! Three concerns are separated here:
//!
//! * [`RouteSelection`] — *which path* a routed gate takes and what it
//!   reserves while executing (Section 4.3 of the paper: rectangle
//!   reservation, one-bend paths, or most-reliable best paths).
//! * [`RoutingPolicy`] — *what the swaps do to the placement*: the paper's
//!   swap-out/swap-back model ([`SwapBackRouting`], the default, which
//!   preserves the placement invariant for the whole execution) or
//!   permutation tracking ([`PermutationRouting`], which elides the swap-back
//!   and updates the placement in place, halving movement cost at the price
//!   of a drifting layout).
//! * [`Layout`] — the live program-qubit ⇄ hardware-qubit correspondence a
//!   policy threads through scheduling and emission.
//!
//! Both the scheduler (durations, swap counts, layout evolution) and the
//! emitter (physical gate sequences) consume the same [`RoutingPolicy`]
//! implementation, so the swap round-trip logic exists in exactly one
//! place.

use crate::error::OptError;
use crate::scheduler::Placement;
use crate::UNIFORM_CNOT_SLOTS;
use nisq_ir::Qubit;
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

/// The live correspondence between program qubits and hardware locations,
/// threaded through scheduling and emission by a [`RoutingPolicy`].
///
/// Under [`SwapBackRouting`] the layout never drifts from the initial
/// placement; under [`PermutationRouting`] every movement SWAP permanently
/// relocates the qubits it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    prog_to_hw: Vec<HwQubit>,
    hw_to_prog: Vec<Option<usize>>,
}

impl Layout {
    /// Creates the layout for an initial placement on a machine with
    /// `num_hardware` qubits.
    ///
    /// # Errors
    ///
    /// Returns an error if the placement is not injective or out of range.
    pub fn new(placement: &Placement, num_hardware: usize) -> Result<Self, OptError> {
        placement.validate(num_hardware)?;
        let prog_to_hw: Vec<HwQubit> = placement.as_slice().to_vec();
        let mut hw_to_prog = vec![None; num_hardware];
        for (p, h) in prog_to_hw.iter().enumerate() {
            hw_to_prog[h.0] = Some(p);
        }
        Ok(Layout {
            prog_to_hw,
            hw_to_prog,
        })
    }

    /// Current hardware location of a program qubit.
    ///
    /// # Panics
    ///
    /// Panics if the program qubit is not covered by the layout.
    pub fn hw(&self, q: Qubit) -> HwQubit {
        self.prog_to_hw[q.0]
    }

    /// Program qubit currently at a hardware location, if any.
    pub fn program_at(&self, h: HwQubit) -> Option<Qubit> {
        self.hw_to_prog[h.0].map(Qubit)
    }

    /// Exchanges the occupants of two hardware locations (the effect of a
    /// physical SWAP on the correspondence).
    pub fn apply_swap(&mut self, a: HwQubit, b: HwQubit) {
        let pa = self.hw_to_prog[a.0];
        let pb = self.hw_to_prog[b.0];
        self.hw_to_prog[a.0] = pb;
        self.hw_to_prog[b.0] = pa;
        if let Some(p) = pa {
            self.prog_to_hw[p] = b;
        }
        if let Some(p) = pb {
            self.prog_to_hw[p] = a;
        }
    }

    /// The current correspondence as a placement (program qubit `p` →
    /// hardware location).
    pub fn to_placement(&self) -> Placement {
        Placement::new(self.prog_to_hw.clone())
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

/// How the SWAPs that implement a routed two-qubit gate interact with the
/// placement: the single source of truth for swap round-trips, consumed by
/// both the scheduler (durations, layout evolution) and the emitter
/// (physical gate sequences).
///
/// # Example
///
/// ```
/// use nisq_machine::HwQubit;
/// use nisq_opt::{CnotRoute, Layout, Placement, PermutationRouting, RoutedOp, RoutingPolicy,
///                SwapBackRouting};
///
/// let route = CnotRoute {
///     path: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
///     junction: None,
///     reserved: vec![HwQubit(0), HwQubit(1), HwQubit(2)],
/// };
///
/// // The paper's model: swap out, gate, swap back.
/// let mut ops = Vec::new();
/// SwapBackRouting.realize(&route, &mut ops);
/// assert_eq!(ops.len(), 3); // swap, gate, swap
///
/// // Permutation tracking: no swap-back...
/// let mut ops = Vec::new();
/// PermutationRouting.realize(&route, &mut ops);
/// assert_eq!(ops, vec![RoutedOp::Swap(HwQubit(0), HwQubit(1)),
///                      RoutedOp::Gate(HwQubit(1), HwQubit(2))]);
///
/// // ...and `advance` applies the matching net layout change.
/// let placement = Placement::new(vec![HwQubit(0), HwQubit(2)]);
/// let mut layout = Layout::new(&placement, 4).unwrap();
/// PermutationRouting.advance(&route, &mut layout);
/// assert_eq!(layout.hw(nisq_ir::Qubit(0)), HwQubit(1));
/// ```
pub trait RoutingPolicy: fmt::Debug + Send + Sync {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Whether moved qubits return to their home positions after each
    /// routed gate (so the initial placement stays valid throughout).
    fn returns_home(&self) -> bool;

    /// Duration in timeslots of a routed two-qubit gate, given the CNOT
    /// duration of each hop along its path (the last entry is the edge the
    /// gate itself executes on).
    fn route_duration(&self, hop_slots: &[u32]) -> u32;

    /// Materializes the physical operations of a routed two-qubit gate,
    /// appending them to `out`. The op sequence is a pure function of the
    /// route; the policy's net effect on the correspondence is applied
    /// separately via [`RoutingPolicy::advance`].
    fn realize(&self, route: &CnotRoute, out: &mut Vec<RoutedOp>);

    /// Whether a *program-level* SWAP between currently adjacent hardware
    /// locations is elided entirely: the scheduler exchanges the layout's
    /// occupants instead of issuing gates, so the SWAP is free in both the
    /// duration and the reliability model (its [`ScheduledGate`] carries no
    /// route and zero duration, and the emitter materializes nothing).
    /// Only sound for policies that let the layout drift — a swap-back
    /// policy must keep the initial placement valid, which a relabeling
    /// would break.
    ///
    /// [`ScheduledGate`]: crate::ScheduledGate
    fn elides_adjacent_swap(&self) -> bool {
        false
    }

    /// Applies the net layout change of a routed gate (a no-op for
    /// policies that return qubits home). The scheduler calls this after
    /// issuing each two-qubit gate so later gates route from live
    /// positions.
    fn advance(&self, route: &CnotRoute, layout: &mut Layout) {
        if !self.returns_home() {
            let path = &route.path;
            for i in 0..path.len().saturating_sub(2) {
                layout.apply_swap(path[i], path[i + 1]);
            }
        }
    }
}

/// The paper's routing model: SWAP the control adjacent to the target,
/// execute the gate, then SWAP it back so the placement invariant holds for
/// the whole execution (the duration model of Constraint 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapBackRouting;

impl RoutingPolicy for SwapBackRouting {
    fn name(&self) -> &'static str {
        "swap-back"
    }

    fn returns_home(&self) -> bool {
        true
    }

    fn route_duration(&self, hop_slots: &[u32]) -> u32 {
        let mut total = 0;
        for (i, &h) in hop_slots.iter().enumerate() {
            if i + 1 == hop_slots.len() {
                total += h;
            } else {
                // Swap out and back: 2 * 3 CNOTs.
                total += 6 * h;
            }
        }
        total
    }

    fn realize(&self, route: &CnotRoute, out: &mut Vec<RoutedOp>) {
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
}

/// Permutation-tracking routing: movement SWAPs are *not* undone — the
/// layout is updated in place and later gates route from the qubits' new
/// positions. Halves the movement cost of every routed gate (`(hops-1)`
/// SWAPs instead of `2*(hops-1)`) at the price of a drifting placement;
/// measurements follow the live layout, so results are unchanged. As a
/// bonus of the drifting layout, an adjacent *program-level* SWAP costs
/// nothing at all: it is elided into a pure relabeling
/// ([`RoutingPolicy::elides_adjacent_swap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PermutationRouting;

impl RoutingPolicy for PermutationRouting {
    fn name(&self) -> &'static str {
        "permute"
    }

    fn returns_home(&self) -> bool {
        false
    }

    fn elides_adjacent_swap(&self) -> bool {
        true
    }

    fn route_duration(&self, hop_slots: &[u32]) -> u32 {
        let mut total = 0;
        for (i, &h) in hop_slots.iter().enumerate() {
            if i + 1 == hop_slots.len() {
                total += h;
            } else {
                // Swap out only: 3 CNOTs.
                total += 3 * h;
            }
        }
        total
    }

    fn realize(&self, route: &CnotRoute, out: &mut Vec<RoutedOp>) {
        let path = &route.path;
        let hops = path.len() - 1;
        for i in 0..hops.saturating_sub(1) {
            out.push(RoutedOp::Swap(path[i], path[i + 1]));
        }
        out.push(RoutedOp::Gate(path[hops - 1], path[hops]));
    }
}

/// How swap round-trips are handled, as a copyable configuration value; use
/// [`SwapHandling::policy`] to obtain the corresponding [`RoutingPolicy`]
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SwapHandling {
    /// Swap out and back after every routed gate (the paper's model).
    #[default]
    SwapBack,
    /// Track the permutation: no swap-back, placement updated in place.
    Permute,
}

impl SwapHandling {
    /// The policy implementation this configuration selects.
    pub fn policy(&self) -> &'static dyn RoutingPolicy {
        match self {
            SwapHandling::SwapBack => &SwapBackRouting,
            SwapHandling::Permute => &PermutationRouting,
        }
    }
}

impl fmt::Display for SwapHandling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.policy().name())
    }
}

/// CNOT duration of every hop along `path`, the input of
/// [`RoutingPolicy::route_duration`]: the per-edge calibration durations
/// when `calibration_aware`, otherwise [`UNIFORM_CNOT_SLOTS`] for every hop
/// (the calibration-unaware model).
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

    #[test]
    fn swap_back_realizes_the_round_trip() {
        let mut ops = Vec::new();
        SwapBackRouting.realize(&route_3(), &mut ops);
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
        let mut layout = Layout::new(&placement, 4).unwrap();
        SwapBackRouting.advance(&route_3(), &mut layout);
        assert_eq!(layout.to_placement(), placement);
        assert!(SwapBackRouting.returns_home());
    }

    #[test]
    fn permutation_realizes_one_way_and_advance_moves_the_layout() {
        let mut ops = Vec::new();
        PermutationRouting.realize(&route_3(), &mut ops);
        assert_eq!(
            ops,
            vec![
                RoutedOp::Swap(HwQubit(0), HwQubit(1)),
                RoutedOp::Gate(HwQubit(1), HwQubit(2)),
            ]
        );
        let placement = Placement::new(vec![HwQubit(0), HwQubit(2)]);
        let mut layout = Layout::new(&placement, 4).unwrap();
        PermutationRouting.advance(&route_3(), &mut layout);
        assert_eq!(layout.hw(Qubit(0)), HwQubit(1));
        assert_eq!(layout.hw(Qubit(1)), HwQubit(2));
        assert!(!PermutationRouting.returns_home());
    }

    #[test]
    fn advance_applies_exactly_the_movement_swaps() {
        // The emitted movement swaps (everything except the central gate
        // and, for swap-back, the return trip) must equal advance's layout
        // effect — the invariant the emitter and scheduler rely on.
        let placement = Placement::new(vec![HwQubit(0), HwQubit(3)]);
        let route = CnotRoute {
            path: vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)],
            junction: None,
            reserved: vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)],
        };
        for policy in [
            &SwapBackRouting as &dyn RoutingPolicy,
            &PermutationRouting as &dyn RoutingPolicy,
        ] {
            let mut ops = Vec::new();
            policy.realize(&route, &mut ops);
            let mut via_ops = Layout::new(&placement, 4).unwrap();
            for op in &ops {
                if let RoutedOp::Swap(a, b) = *op {
                    via_ops.apply_swap(a, b);
                }
            }
            let mut via_advance = Layout::new(&placement, 4).unwrap();
            policy.advance(&route, &mut via_advance);
            assert_eq!(
                via_ops.to_placement(),
                via_advance.to_placement(),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn durations_differ_by_swap_back() {
        let hops = [4, 5, 6];
        assert_eq!(SwapBackRouting.route_duration(&hops), 6 * 4 + 6 * 5 + 6);
        assert_eq!(PermutationRouting.route_duration(&hops), 3 * 4 + 3 * 5 + 6);
        // Direct gates cost the same under both policies.
        assert_eq!(SwapBackRouting.route_duration(&[7]), 7);
        assert_eq!(PermutationRouting.route_duration(&[7]), 7);
    }

    #[test]
    fn swap_handling_selects_policies() {
        assert_eq!(SwapHandling::SwapBack.policy().name(), "swap-back");
        assert_eq!(SwapHandling::Permute.policy().name(), "permute");
        assert_eq!(SwapHandling::default(), SwapHandling::SwapBack);
        assert_eq!(SwapHandling::Permute.to_string(), "permute");
    }

    #[test]
    fn layout_round_trips_and_tracks_swaps() {
        let placement = Placement::new(vec![HwQubit(3), HwQubit(0)]);
        let mut layout = Layout::new(&placement, 5).unwrap();
        assert_eq!(layout.program_at(HwQubit(3)), Some(Qubit(0)));
        assert_eq!(layout.program_at(HwQubit(4)), None);
        layout.apply_swap(HwQubit(3), HwQubit(4));
        assert_eq!(layout.hw(Qubit(0)), HwQubit(4));
        assert_eq!(layout.program_at(HwQubit(3)), None);
        // Swapping two empty locations is a no-op.
        layout.apply_swap(HwQubit(2), HwQubit(3));
        assert_eq!(
            layout.to_placement(),
            Placement::new(vec![HwQubit(4), HwQubit(0)])
        );
        // Invalid placements are rejected.
        assert!(Layout::new(&Placement::new(vec![HwQubit(9)]), 4).is_err());
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
