use crate::calibration::Calibration;
use crate::error::MachineError;
use crate::topology::{HwQubit, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// A most-reliable route between two hardware qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInfo {
    /// Qubits along the route, including both endpoints.
    pub path: Vec<HwQubit>,
    /// Sum of `-ln(CNOT reliability)` over the route's edges (lower is
    /// better). Zero for a path from a qubit to itself.
    pub cost: f64,
}

impl PathInfo {
    /// Number of hops (edges) along the path.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Pre-computed reliability matrices for one machine calibration snapshot.
///
/// This is the quantitative core the mapping algorithms share:
///
/// * most-reliable paths between every pair of hardware qubits (Dijkstra
///   over `-log` CNOT reliabilities, as in Section 5 of the paper),
/// * the reliability of performing a program CNOT between two hardware
///   locations, either along the best path or along one of the two one-bend
///   paths (the paper's `EC` matrix, Constraint 11), priced by
///   [`route_cnot_reliability`].
///
/// Route durations (the paper's `Δ` matrix, Constraint 5) are not held
/// here: `nisq_opt::route_duration` prices a route's hops under swap-back,
/// for placement and scheduling alike.
///
/// # Example
///
/// ```
/// use nisq_machine::{CalibrationGenerator, HwQubit, ReliabilityModel, Topology};
///
/// let topology = Topology::ibmq16();
/// let calibration = CalibrationGenerator::new(topology.clone(), 0).day(0);
/// let model = ReliabilityModel::new(&topology, &calibration);
/// let direct = model.best_path_cnot_reliability(HwQubit(0), HwQubit(1));
/// let far = model.best_path_cnot_reliability(HwQubit(0), HwQubit(15));
/// assert!(direct > far, "distant CNOTs need swaps and are less reliable");
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityModel {
    topology: Topology,
    calibration: Calibration,
    /// `paths[a][b]`: most reliable swap path from `a` to `b` (every hop
    /// weighted as one CNOT; the argmin is the same as weighting every hop
    /// as a 3-CNOT SWAP, so this is the optimal full-swap route).
    paths: Vec<Vec<PathInfo>>,
    /// `cnot_routes[a][b]`: most reliable *CNOT route* from `a` to `b`:
    /// intermediate hops are 3-CNOT SWAPs, the final hop is the CNOT itself.
    /// Because the final hop is weighted differently, this can differ from
    /// `paths[a][b]`.
    cnot_routes: Vec<Vec<PathInfo>>,
    /// `one_bends[a * n + b]`: [`ReliabilityModel::best_one_bend`] for
    /// every ordered pair of a grid topology, tabulated on first use
    /// (placement prices every pair, and routing asks again per CNOT).
    one_bends: OnceLock<Vec<(HwQubit, f64)>>,
}

impl ReliabilityModel {
    /// Builds the model for a topology and calibration snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the calibration does not cover the topology; call
    /// [`Calibration::validate`] first to handle that case as an error.
    pub fn new(topology: &Topology, calibration: &Calibration) -> Self {
        calibration
            .validate(topology)
            .expect("calibration must cover the topology");
        let n = topology.num_qubits();
        let mut paths = Vec::with_capacity(n);
        let mut cnot_routes = Vec::with_capacity(n);
        for source in 0..n {
            paths.push(Self::dijkstra(topology, calibration, HwQubit(source)));
            cnot_routes.push(Self::cnot_route_search(
                topology,
                calibration,
                HwQubit(source),
            ));
        }
        ReliabilityModel {
            topology: topology.clone(),
            calibration: calibration.clone(),
            paths,
            cnot_routes,
            one_bends: OnceLock::new(),
        }
    }

    /// The topology the model was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration snapshot the model was built from.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    fn edge_weight(calibration: &Calibration, a: HwQubit, b: HwQubit) -> f64 {
        let rel = calibration
            .cnot_reliability(a, b)
            .expect("adjacent edges always have calibration data");
        -rel.max(1e-9).ln()
    }

    /// Single-source Dijkstra over `hop_scale * -ln(CNOT reliability)` edge
    /// weights, returning the distance and predecessor arrays.
    fn dijkstra_costs(
        topology: &Topology,
        calibration: &Calibration,
        source: HwQubit,
        hop_scale: f64,
    ) -> (Vec<f64>, Vec<Option<usize>>) {
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            qubit: usize,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on cost.
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(Ordering::Equal)
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = topology.num_qubits();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        dist[source.0] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            cost: 0.0,
            qubit: source.0,
        });
        while let Some(Entry { cost, qubit }) = heap.pop() {
            if cost > dist[qubit] {
                continue;
            }
            for &nb in topology.neighbors(HwQubit(qubit)) {
                let w = hop_scale * Self::edge_weight(calibration, HwQubit(qubit), nb);
                let next = cost + w;
                if next < dist[nb.0] {
                    dist[nb.0] = next;
                    prev[nb.0] = Some(qubit);
                    heap.push(Entry {
                        cost: next,
                        qubit: nb.0,
                    });
                }
            }
        }
        (dist, prev)
    }

    fn walk_back(prev: &[Option<usize>], source: HwQubit, target: usize) -> Vec<HwQubit> {
        let mut path = Vec::new();
        let mut cur = Some(target);
        while let Some(q) = cur {
            path.push(HwQubit(q));
            if q == source.0 {
                break;
            }
            cur = prev[q];
        }
        path.reverse();
        path
    }

    fn dijkstra(topology: &Topology, calibration: &Calibration, source: HwQubit) -> Vec<PathInfo> {
        let n = topology.num_qubits();
        let (dist, prev) = Self::dijkstra_costs(topology, calibration, source, 1.0);
        (0..n)
            .map(|target| PathInfo {
                path: Self::walk_back(&prev, source, target),
                cost: dist[target],
            })
            .collect()
    }

    /// Most reliable *CNOT routes* from `source`: intermediate hops cost a
    /// full 3-CNOT SWAP, the final hop only the CNOT itself. The swap chain
    /// is searched with swap-cubed edge weights, then each target's route is
    /// the best choice of "swap to a neighbour `nb` of the target, CNOT on
    /// the `nb`–target edge" — including the degenerate chain `nb = source`,
    /// so a direct edge is always a candidate.
    fn cnot_route_search(
        topology: &Topology,
        calibration: &Calibration,
        source: HwQubit,
    ) -> Vec<PathInfo> {
        let n = topology.num_qubits();
        let (swap_dist, swap_prev) = Self::dijkstra_costs(topology, calibration, source, 3.0);
        (0..n)
            .map(|target| {
                if target == source.0 {
                    return PathInfo {
                        path: vec![source],
                        cost: 0.0,
                    };
                }
                let mut best: Option<(f64, Vec<HwQubit>)> = None;
                for &nb in topology.neighbors(HwQubit(target)) {
                    if swap_dist[nb.0].is_infinite() {
                        continue;
                    }
                    let cost =
                        swap_dist[nb.0] + Self::edge_weight(calibration, nb, HwQubit(target));
                    if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                        let chain = Self::walk_back(&swap_prev, source, nb.0);
                        // A strictly better chain never passes through the
                        // target (its predecessor on that chain would be a
                        // cheaper candidate), but guard against float ties.
                        if chain.contains(&HwQubit(target)) {
                            continue;
                        }
                        best = Some((cost, chain));
                    }
                }
                match best {
                    Some((cost, mut path)) => {
                        path.push(HwQubit(target));
                        PathInfo { path, cost }
                    }
                    // Disconnected target (cannot happen on the built-in
                    // topologies, all of which are connected).
                    None => PathInfo {
                        path: Self::walk_back(&swap_prev, source, target),
                        cost: f64::INFINITY,
                    },
                }
            })
            .collect()
    }

    /// The most reliable path from `a` to `b` (Dijkstra over `-log` CNOT
    /// reliability edge weights). This is the optimal route when *every*
    /// hop costs the same (e.g. a full swap chain); see
    /// [`ReliabilityModel::best_cnot_route`] for the route a program CNOT
    /// should take.
    pub fn best_path(&self, a: HwQubit, b: HwQubit) -> &PathInfo {
        &self.paths[a.0][b.0]
    }

    /// The most reliable route for a program CNOT from `a` to `b`: SWAPs
    /// (three CNOTs, i.e. swap-cubed edge weights) on every hop except the
    /// last, then the hardware CNOT on the final edge. Its `cost` is the
    /// summed `-ln` reliability of exactly that operation sequence, so
    /// `exp(-cost)` is the route's CNOT reliability.
    pub fn best_cnot_route(&self, a: HwQubit, b: HwQubit) -> &PathInfo {
        &self.cnot_routes[a.0][b.0]
    }

    /// Reliability of performing a program CNOT between hardware locations
    /// `a` and `b` using the most reliable route: SWAPs along every hop
    /// except the last, then the hardware CNOT on the final edge. The route
    /// is searched with swap-cubed intermediate edge weights and a
    /// single-CNOT final hop, so it is optimal for exactly that cost model
    /// (for adjacent pairs the direct edge is always a candidate and is
    /// therefore never beaten).
    pub fn best_path_cnot_reliability(&self, a: HwQubit, b: HwQubit) -> f64 {
        if a == b {
            return 1.0;
        }
        route_cnot_reliability(&self.calibration, &self.best_cnot_route(a, b).path)
    }

    fn require_grid(&self) -> Result<&crate::topology::GridTopology, MachineError> {
        self.topology
            .as_grid()
            .ok_or_else(|| MachineError::NotAGrid {
                topology: self.topology.to_string(),
            })
    }

    /// Reliability of a program CNOT between `control` and `target` routed
    /// along the one-bend path through `junction` (the paper's `EC` matrix,
    /// Constraint 11). `junction` must be one of the two corners returned by
    /// [`crate::GridTopology::junctions`].
    ///
    /// # Errors
    ///
    /// Returns an error if control and target are the same qubit, or the
    /// topology has no grid layout (one-bend paths are a grid concept).
    pub fn one_bend_cnot_reliability(
        &self,
        control: HwQubit,
        target: HwQubit,
        junction: HwQubit,
    ) -> Result<f64, MachineError> {
        if control == target {
            return Err(MachineError::NotAdjacent {
                a: control.0,
                b: target.0,
            });
        }
        let path = self
            .require_grid()?
            .one_bend_path(control, target, junction);
        Ok(route_cnot_reliability(&self.calibration, &path))
    }

    /// The better of the two one-bend options for a CNOT between `control`
    /// and `target`: returns `(junction, reliability)`.
    ///
    /// # Errors
    ///
    /// Returns an error if control and target are the same qubit, or the
    /// topology has no grid layout.
    pub fn best_one_bend(
        &self,
        control: HwQubit,
        target: HwQubit,
    ) -> Result<(HwQubit, f64), MachineError> {
        let grid = self.require_grid()?;
        if control == target {
            return Err(MachineError::NotAdjacent {
                a: control.0,
                b: target.0,
            });
        }
        let n = self.topology.num_qubits();
        let table = self.one_bends.get_or_init(|| {
            (0..n * n)
                .map(|pair| {
                    let (a, b) = (HwQubit(pair / n), HwQubit(pair % n));
                    if a == b {
                        return (a, 1.0);
                    }
                    let (j1, j2) = grid.junctions(a, b);
                    let price = |junction| {
                        self.one_bend_cnot_reliability(a, b, junction)
                            .expect("distinct qubits of a grid have one-bend routes")
                    };
                    let (r1, r2) = (price(j1), price(j2));
                    if r1 >= r2 {
                        (j1, r1)
                    } else {
                        (j2, r2)
                    }
                })
                .collect()
        });
        Ok(table[control.0 * n + target.0])
    }

    /// Readout reliability of a hardware qubit.
    pub fn readout_reliability(&self, q: HwQubit) -> f64 {
        self.calibration.readout_reliability(q)
    }
}

/// Reliability of a program CNOT routed along `path`, from the control's
/// location to the target's: a SWAP (three CNOTs) on every hop but the
/// last, then the CNOT itself on the last hop. This is the one pricing of
/// a route's reliability: the [`ReliabilityModel`] entries that placement
/// prices pairs with and the compiler's estimate both use it. A path of
/// fewer than two qubits needs no gate and has reliability 1.
///
/// # Panics
///
/// Panics if two consecutive path qubits are not adjacent on the
/// calibration's topology.
pub fn route_cnot_reliability(calibration: &Calibration, path: &[HwQubit]) -> f64 {
    let mut rel = 1.0;
    for (i, pair) in path.windows(2).enumerate() {
        let edge_rel = calibration
            .cnot_reliability(pair[0], pair[1])
            .expect("route hops are adjacent hardware qubits");
        if i + 2 == path.len() {
            // Final hop: the CNOT itself.
            rel *= edge_rel;
        } else {
            // Intermediate hop: a SWAP (three CNOTs).
            rel *= edge_rel.powi(3);
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CalibrationGenerator;

    fn model() -> ReliabilityModel {
        let t = Topology::ibmq16();
        let c = CalibrationGenerator::new(t.clone(), 3).day(0);
        ReliabilityModel::new(&t, &c)
    }

    #[test]
    fn best_path_endpoints_are_correct() {
        let m = model();
        let p = m.best_path(HwQubit(0), HwQubit(11));
        assert_eq!(p.path.first(), Some(&HwQubit(0)));
        assert_eq!(p.path.last(), Some(&HwQubit(11)));
        for pair in p.path.windows(2) {
            assert!(m.topology().adjacent(pair[0], pair[1]));
        }
    }

    #[test]
    fn self_path_has_zero_cost() {
        let m = model();
        let p = m.best_path(HwQubit(5), HwQubit(5));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.cost, 0.0);
        assert_eq!(m.best_path_cnot_reliability(HwQubit(5), HwQubit(5)), 1.0);
    }

    #[test]
    fn adjacent_cnot_reliability_matches_calibration() {
        let m = model();
        let direct = m.best_path_cnot_reliability(HwQubit(0), HwQubit(1));
        let cal = m
            .calibration()
            .cnot_reliability(HwQubit(0), HwQubit(1))
            .unwrap();
        // The best path between adjacent qubits is usually the direct edge;
        // it can only be better than or equal to the direct reliability.
        assert!(direct >= cal - 1e-12);
    }

    #[test]
    fn reliability_decreases_with_distance_on_average() {
        let m = model();
        let near = m.best_path_cnot_reliability(HwQubit(0), HwQubit(1));
        let far = m.best_path_cnot_reliability(HwQubit(0), HwQubit(15));
        assert!(near > far);
    }

    #[test]
    fn path_cost_is_symmetric() {
        let m = model();
        for a in 0..16 {
            for b in 0..16 {
                let ab = m.best_path(HwQubit(a), HwQubit(b)).cost;
                let ba = m.best_path(HwQubit(b), HwQubit(a)).cost;
                assert!((ab - ba).abs() < 1e-9, "asymmetric cost {a}->{b}");
            }
        }
    }

    #[test]
    fn best_one_bend_picks_the_better_junction() {
        let m = model();
        for a in 0..16usize {
            for b in 0..16usize {
                if a == b {
                    continue;
                }
                let (ja, jb) = m
                    .topology()
                    .as_grid()
                    .unwrap()
                    .junctions(HwQubit(a), HwQubit(b));
                let r1 = m
                    .one_bend_cnot_reliability(HwQubit(a), HwQubit(b), ja)
                    .unwrap();
                let r2 = m
                    .one_bend_cnot_reliability(HwQubit(a), HwQubit(b), jb)
                    .unwrap();
                let (_, best) = m.best_one_bend(HwQubit(a), HwQubit(b)).unwrap();
                assert!((best - r1.max(r2)).abs() < 1e-12);
                assert!(best > 0.0 && best <= 1.0);
            }
        }
    }

    #[test]
    fn best_path_swap_route_is_optimal_among_one_bend_routes() {
        // The Dijkstra paths minimise the summed -log CNOT reliability, so a
        // swap-only route along them is at least as reliable as a swap-only
        // route along either one-bend path.
        let m = model();
        for a in 0..16usize {
            for b in 0..16usize {
                if a == b {
                    continue;
                }
                let best = (-3.0 * m.best_path(HwQubit(a), HwQubit(b)).cost).exp();
                let (ja, jb) = m
                    .topology()
                    .as_grid()
                    .unwrap()
                    .junctions(HwQubit(a), HwQubit(b));
                for j in [ja, jb] {
                    let path =
                        m.topology()
                            .as_grid()
                            .unwrap()
                            .one_bend_path(HwQubit(a), HwQubit(b), j);
                    let mut rel = 1.0;
                    for pair in path.windows(2) {
                        rel *= m
                            .calibration()
                            .cnot_reliability(pair[0], pair[1])
                            .unwrap()
                            .powi(3);
                    }
                    assert!(best >= rel - 1e-12, "{a}->{b} best {best} < one-bend {rel}");
                }
            }
        }
    }

    #[test]
    fn cnot_route_is_valid_and_matches_its_cost() {
        let m = model();
        for a in 0..16usize {
            for b in 0..16usize {
                let route = m.best_cnot_route(HwQubit(a), HwQubit(b));
                assert_eq!(route.path.first(), Some(&HwQubit(a)));
                assert_eq!(route.path.last(), Some(&HwQubit(b)));
                for pair in route.path.windows(2) {
                    assert!(m.topology().adjacent(pair[0], pair[1]));
                }
                let rel = m.best_path_cnot_reliability(HwQubit(a), HwQubit(b));
                assert!(
                    ((-route.cost).exp() - rel).abs() < 1e-12,
                    "{a}->{b}: cost {} vs reliability {rel}",
                    route.cost
                );
            }
        }
    }

    #[test]
    fn cnot_route_never_loses_to_swap_path_or_direct_edge() {
        // The corrected search (swap-cubed intermediate weights, single
        // final hop) must weakly beat both strategies the old code used:
        // executing the CNOT along the swap-optimal path, and the direct
        // edge for adjacent pairs.
        let t = Topology::ibmq16();
        for day in 0..4 {
            let c = CalibrationGenerator::new(t.clone(), 3).day(day);
            let m = ReliabilityModel::new(&t, &c);
            for a in 0..16usize {
                for b in 0..16usize {
                    if a == b {
                        continue;
                    }
                    let fixed = m.best_path_cnot_reliability(HwQubit(a), HwQubit(b));
                    let legacy = route_cnot_reliability(
                        m.calibration(),
                        &m.best_path(HwQubit(a), HwQubit(b)).path,
                    );
                    assert!(
                        fixed >= legacy - 1e-12,
                        "day {day} {a}->{b}: corrected {fixed} < legacy {legacy}"
                    );
                    if let Ok(direct) = c.cnot_reliability(HwQubit(a), HwQubit(b)) {
                        assert!(fixed >= direct - 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn one_bend_rejects_equal_qubits() {
        let m = model();
        assert!(m.best_one_bend(HwQubit(3), HwQubit(3)).is_err());
    }
}
