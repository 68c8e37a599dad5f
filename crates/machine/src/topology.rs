use crate::error::MachineError;
use std::fmt;

/// Index of a *hardware* qubit (a physical location on the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwQubit(pub usize);

impl fmt::Display for HwQubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

impl From<usize> for HwQubit {
    fn from(value: usize) -> Self {
        HwQubit(value)
    }
}

/// A 2-D grid of hardware qubits with nearest-neighbour CNOT connectivity,
/// the machine model the paper assumes (Section 4.1).
///
/// Qubit `i` sits at column `x = i % mx` and row `y = i / mx`; two qubits
/// may run a hardware CNOT only if they are adjacent horizontally or
/// vertically.
///
/// # Example
///
/// ```
/// use nisq_machine::{GridTopology, HwQubit};
///
/// let t = GridTopology::ibmq16();
/// assert_eq!(t.num_qubits(), 16);
/// assert!(t.adjacent(HwQubit(0), HwQubit(1)));
/// assert!(t.adjacent(HwQubit(0), HwQubit(8)));
/// assert!(!t.adjacent(HwQubit(0), HwQubit(2)));
/// assert_eq!(t.distance(HwQubit(0), HwQubit(15)), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridTopology {
    mx: usize,
    my: usize,
}

impl GridTopology {
    /// Creates an `mx` columns by `my` rows grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(mx: usize, my: usize) -> Self {
        assert!(mx > 0 && my > 0, "grid dimensions must be positive");
        GridTopology { mx, my }
    }

    /// The 16-qubit IBMQ16 Rueschlikon layout: two rows of eight qubits.
    pub fn ibmq16() -> Self {
        GridTopology::new(8, 2)
    }

    /// Smallest grid that holds at least `n` qubits while staying close to
    /// square (used when sweeping machine sizes in the scalability study).
    pub fn at_least(n: usize) -> Self {
        assert!(n > 0, "machine must have at least one qubit");
        let side = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(side);
        GridTopology::new(side, rows.max(1))
    }

    /// Number of columns.
    pub fn mx(&self) -> usize {
        self.mx
    }

    /// Number of rows.
    pub fn my(&self) -> usize {
        self.my
    }

    /// Total number of hardware qubits.
    pub fn num_qubits(&self) -> usize {
        self.mx * self.my
    }

    /// Column/row coordinates of a hardware qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is outside the grid; use [`GridTopology::contains`]
    /// to check first.
    pub fn coords(&self, q: HwQubit) -> (usize, usize) {
        assert!(self.contains(q), "{q} outside {self}");
        (q.0 % self.mx, q.0 / self.mx)
    }

    /// Hardware qubit at the given column/row.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn at(&self, x: usize, y: usize) -> HwQubit {
        assert!(x < self.mx && y < self.my, "({x},{y}) outside {self}");
        HwQubit(y * self.mx + x)
    }

    /// Whether the qubit index is inside the grid.
    pub fn contains(&self, q: HwQubit) -> bool {
        q.0 < self.num_qubits()
    }

    /// Validates that a qubit is inside the grid.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::QubitOutOfRange`] when it is not.
    pub fn check(&self, q: HwQubit) -> Result<(), MachineError> {
        if self.contains(q) {
            Ok(())
        } else {
            Err(MachineError::QubitOutOfRange {
                qubit: q.0,
                num_qubits: self.num_qubits(),
            })
        }
    }

    /// Manhattan distance between two hardware qubits (the `L1` norm used in
    /// the paper's CNOT duration model).
    pub fn distance(&self, a: HwQubit, b: HwQubit) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Whether a hardware CNOT may be applied directly between `a` and `b`.
    pub fn adjacent(&self, a: HwQubit, b: HwQubit) -> bool {
        self.contains(a) && self.contains(b) && a != b && self.distance(a, b) == 1
    }

    /// All undirected nearest-neighbour edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(HwQubit, HwQubit)> {
        let mut out = Vec::new();
        for y in 0..self.my {
            for x in 0..self.mx {
                let q = self.at(x, y);
                if x + 1 < self.mx {
                    out.push((q, self.at(x + 1, y)));
                }
                if y + 1 < self.my {
                    out.push((q, self.at(x, y + 1)));
                }
            }
        }
        out
    }

    /// Nearest neighbours of `q`.
    pub fn neighbors(&self, q: HwQubit) -> Vec<HwQubit> {
        let (x, y) = self.coords(q);
        let mut out = Vec::new();
        if x > 0 {
            out.push(self.at(x - 1, y));
        }
        if x + 1 < self.mx {
            out.push(self.at(x + 1, y));
        }
        if y > 0 {
            out.push(self.at(x, y - 1));
        }
        if y + 1 < self.my {
            out.push(self.at(x, y + 1));
        }
        out
    }

    /// All hardware qubits in index order.
    pub fn qubits(&self) -> impl Iterator<Item = HwQubit> {
        (0..self.num_qubits()).map(HwQubit)
    }

    /// The two one-bend-path junction corners for a control/target pair, in
    /// the order (corner sharing the control's row, corner sharing the
    /// control's column). For qubits in the same row or column both
    /// junctions coincide with the straight-line path.
    pub fn junctions(&self, control: HwQubit, target: HwQubit) -> (HwQubit, HwQubit) {
        let (cx, cy) = self.coords(control);
        let (tx, ty) = self.coords(target);
        (self.at(tx, cy), self.at(cx, ty))
    }

    /// The one-bend path from `from` to `to` through `junction`, as the
    /// full sequence of hardware qubits including both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `junction` does not share a row or column with both
    /// endpoints (i.e. it is not one of the two corners returned by
    /// [`GridTopology::junctions`]).
    pub fn one_bend_path(&self, from: HwQubit, to: HwQubit, junction: HwQubit) -> Vec<HwQubit> {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let (jx, jy) = self.coords(junction);
        assert!(
            (jx == fx || jy == fy) && (jx == tx || jy == ty),
            "junction {junction} is not a corner of the bounding rectangle of {from} and {to}"
        );
        let mut path = vec![from];
        let push_line = |path: &mut Vec<HwQubit>, x0: usize, y0: usize, x1: usize, y1: usize| {
            // Walk one axis at a time; exactly one of the axes differs.
            if x0 == x1 {
                let range: Vec<usize> = if y0 <= y1 {
                    (y0..=y1).collect()
                } else {
                    (y1..=y0).rev().collect()
                };
                for y in range.into_iter().skip(1) {
                    path.push(self.at(x0, y));
                }
            } else {
                let range: Vec<usize> = if x0 <= x1 {
                    (x0..=x1).collect()
                } else {
                    (x1..=x0).rev().collect()
                };
                for x in range.into_iter().skip(1) {
                    path.push(self.at(x, y0));
                }
            }
        };
        if (jx, jy) != (fx, fy) {
            push_line(&mut path, fx, fy, jx, jy);
        }
        if (jx, jy) != (tx, ty) {
            push_line(&mut path, jx, jy, tx, ty);
        }
        path
    }

    /// The bounding rectangle of two qubits as
    /// `((min_x, min_y), (max_x, max_y))`, used by the rectangle-reservation
    /// routing policy.
    pub fn bounding_rectangle(&self, a: HwQubit, b: HwQubit) -> ((usize, usize), (usize, usize)) {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ((ax.min(bx), ay.min(by)), (ax.max(bx), ay.max(by)))
    }
}

impl fmt::Display for GridTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} grid", self.mx, self.my)
    }
}

/// A machine topology family plus its parameters — the pluggable
/// description a [`Topology`] (and from there a whole machine) is built
/// from.
///
/// The paper evaluates one hard-coded device (IBMQ16); the spec opens the
/// same compiler to arbitrary grids, rings and heavy-hex-style lattices so
/// scaling and architecture studies do not need code changes.
///
/// # Example
///
/// ```
/// use nisq_machine::TopologySpec;
///
/// let ring = TopologySpec::Ring { n: 12 }.build();
/// assert_eq!(ring.num_qubits(), 12);
/// assert_eq!(ring.edges().len(), 12);
/// assert!(ring.as_grid().is_none(), "rings have no 2-D grid layout");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TopologySpec {
    /// The 16-qubit IBMQ16 Rueschlikon device (an 8x2 grid), the machine
    /// the paper evaluates on.
    Ibmq16,
    /// An `mx` columns by `my` rows nearest-neighbour grid.
    Grid {
        /// Number of columns.
        mx: usize,
        /// Number of rows.
        my: usize,
    },
    /// A cycle of `n` qubits, each coupled to its two ring neighbours.
    Ring {
        /// Number of qubits (at least 3).
        n: usize,
    },
    /// A heavy-hex-style lattice: `rows` horizontal chains of `cols`
    /// qubits, with consecutive chains linked through dedicated bridge
    /// qubits at every fourth column (offset alternating by row, as on
    /// IBM's heavy-hex devices).
    HeavyHex {
        /// Number of horizontal chains (at least 2).
        rows: usize,
        /// Qubits per chain (at least 3).
        cols: usize,
    },
}

impl TopologySpec {
    /// Builds the concrete [`Topology`] this spec describes.
    pub fn build(self) -> Topology {
        Topology::from_spec(self)
    }

    /// Checks the spec parameters without building anything.
    ///
    /// [`TopologySpec::build`] panics on degenerate parameters; callers
    /// handling untrusted input (the CLI, the serve daemon) call this first
    /// and surface the typed error instead.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::DegenerateTopology`] for zero-sized grids,
    /// rings below 3 qubits, or heavy-hex lattices below 2 rows x 3 columns.
    pub fn validate(&self) -> Result<(), MachineError> {
        let fail = |reason: &'static str| {
            Err(MachineError::DegenerateTopology {
                topology: self.name(),
                reason,
            })
        };
        match *self {
            TopologySpec::Ibmq16 => Ok(()),
            TopologySpec::Grid { mx, my } => {
                if mx == 0 || my == 0 {
                    return fail("grid dimensions must be positive");
                }
                Ok(())
            }
            TopologySpec::Ring { n } => {
                if n < 3 {
                    return fail("a ring needs at least 3 qubits");
                }
                Ok(())
            }
            TopologySpec::HeavyHex { rows, cols } => {
                if rows < 2 || cols < 3 {
                    return fail("a heavy-hex lattice needs at least 2 rows of 3 columns");
                }
                Ok(())
            }
        }
    }

    /// The number of hardware qubits the built topology would have, computed
    /// without building it (building allocates an `n x n` distance matrix,
    /// which admission control must be able to refuse *before* paying for).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::DegenerateTopology`] when the spec does not
    /// validate.
    pub fn qubit_count(&self) -> Result<usize, MachineError> {
        self.validate()?;
        Ok(match *self {
            TopologySpec::Ibmq16 => 16,
            TopologySpec::Grid { mx, my } => mx.saturating_mul(my),
            TopologySpec::Ring { n } => n,
            TopologySpec::HeavyHex { rows, cols } => {
                // Chain qubits plus one bridge per selected column between
                // consecutive rows (mirrors the construction in
                // `Topology::from_spec`).
                let mut bridges = 0usize;
                for r in 0..rows - 1 {
                    let offset = if r % 2 == 0 { 0 } else { 2 };
                    let cols_hit = (0..cols).filter(|c| c % 4 == offset).count();
                    bridges += cols_hit.max(1);
                }
                rows.saturating_mul(cols).saturating_add(bridges)
            }
        })
    }

    /// Short machine-style name ("IBMQ16", "grid-4x4", "ring-12",
    /// "heavy-hex-2x7").
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Ibmq16 => "IBMQ16".to_string(),
            TopologySpec::Grid { mx, my } => format!("grid-{mx}x{my}"),
            TopologySpec::Ring { n } => format!("ring-{n}"),
            TopologySpec::HeavyHex { rows, cols } => format!("heavy-hex-{rows}x{cols}"),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Ibmq16 => f.write_str("IBMQ16 (8x2 grid)"),
            TopologySpec::Grid { mx, my } => write!(f, "{mx}x{my} grid"),
            TopologySpec::Ring { n } => write!(f, "{n}-qubit ring"),
            TopologySpec::HeavyHex { rows, cols } => write!(f, "heavy-hex {rows}x{cols}"),
        }
    }
}

/// A concrete machine topology: an undirected coupling graph over hardware
/// qubits, with precomputed adjacency and all-pairs BFS distances, plus the
/// 2-D grid layout when the spec is grid-shaped (which unlocks the paper's
/// one-bend-path and rectangle-reservation routing).
///
/// Built from a [`TopologySpec`]; grid-shaped topologies behave exactly
/// like the original [`GridTopology`] (same edge enumeration order, same
/// neighbour order, Manhattan distances), so swapping the machine model
/// from "hard-coded IBMQ16" to "any spec" changes nothing for existing
/// grid machines.
///
/// # Example
///
/// ```
/// use nisq_machine::{HwQubit, Topology, TopologySpec};
///
/// let t = Topology::ibmq16();
/// assert_eq!(t.num_qubits(), 16);
/// assert!(t.adjacent(HwQubit(0), HwQubit(8)));
/// assert!(t.as_grid().is_some());
///
/// let hex = TopologySpec::HeavyHex { rows: 2, cols: 5 }.build();
/// assert!(hex.as_grid().is_none());
/// assert!(hex.num_qubits() > 10, "chains plus bridge qubits");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    spec: TopologySpec,
    n: usize,
    edges: Vec<(HwQubit, HwQubit)>,
    adjacency: Vec<Vec<HwQubit>>,
    /// Row-major `n x n` BFS hop distances; `u32::MAX` marks "unreachable"
    /// (never the case for the built-in specs, which are all connected).
    dist: Vec<u32>,
    grid: Option<GridTopology>,
}

impl Topology {
    /// Builds the topology described by `spec`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero-sized grids, rings with fewer
    /// than 3 qubits, heavy-hex lattices smaller than 2 rows x 3 columns).
    pub fn from_spec(spec: TopologySpec) -> Self {
        match spec {
            TopologySpec::Ibmq16 => Self::from_grid(spec, GridTopology::ibmq16()),
            TopologySpec::Grid { mx, my } => Self::from_grid(spec, GridTopology::new(mx, my)),
            TopologySpec::Ring { n } => {
                assert!(n >= 3, "a ring needs at least 3 qubits");
                let edges: Vec<(HwQubit, HwQubit)> =
                    (0..n).map(|i| (HwQubit(i), HwQubit((i + 1) % n))).collect();
                Self::from_edge_list(spec, n, edges, None)
            }
            TopologySpec::HeavyHex { rows, cols } => {
                assert!(
                    rows >= 2 && cols >= 3,
                    "a heavy-hex lattice needs at least 2 rows of 3 columns"
                );
                let mut edges = Vec::new();
                // Chain qubits first: qubit r*cols + c.
                for r in 0..rows {
                    for c in 0..cols.saturating_sub(1) {
                        edges.push((HwQubit(r * cols + c), HwQubit(r * cols + c + 1)));
                    }
                }
                // Bridge qubits appended after all chain qubits: one per
                // selected column between consecutive rows, alternating
                // offset 0 / 2 every row pair (heavy-hex style).
                let mut next = rows * cols;
                for r in 0..rows - 1 {
                    let offset = if r % 2 == 0 { 0 } else { 2 };
                    let mut columns: Vec<usize> = (0..cols).filter(|c| c % 4 == offset).collect();
                    if columns.is_empty() {
                        columns.push(0);
                    }
                    for c in columns {
                        let bridge = HwQubit(next);
                        next += 1;
                        edges.push((HwQubit(r * cols + c), bridge));
                        edges.push((bridge, HwQubit((r + 1) * cols + c)));
                    }
                }
                Self::from_edge_list(spec, next, edges, None)
            }
        }
    }

    /// The IBMQ16 topology (8x2 grid), the device of the paper.
    pub fn ibmq16() -> Self {
        TopologySpec::Ibmq16.build()
    }

    /// An `mx` by `my` nearest-neighbour grid.
    pub fn grid(mx: usize, my: usize) -> Self {
        TopologySpec::Grid { mx, my }.build()
    }

    /// An `n`-qubit ring.
    pub fn ring(n: usize) -> Self {
        TopologySpec::Ring { n }.build()
    }

    /// A heavy-hex-style lattice of `rows` chains of `cols` qubits.
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        TopologySpec::HeavyHex { rows, cols }.build()
    }

    fn from_grid(spec: TopologySpec, grid: GridTopology) -> Self {
        let n = grid.num_qubits();
        let edges = grid.edges();
        // Preserve GridTopology's neighbour order (left, right, up, down)
        // so Dijkstra tie-breaking — and therefore every chosen route —
        // is identical to the original hard-coded machine model.
        let adjacency: Vec<Vec<HwQubit>> = (0..n).map(|q| grid.neighbors(HwQubit(q))).collect();
        let dist = Self::bfs_all_pairs(n, &adjacency);
        Topology {
            spec,
            n,
            edges,
            adjacency,
            dist,
            grid: Some(grid),
        }
    }

    fn from_edge_list(
        spec: TopologySpec,
        n: usize,
        edges: Vec<(HwQubit, HwQubit)>,
        grid: Option<GridTopology>,
    ) -> Self {
        let mut adjacency: Vec<Vec<HwQubit>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            assert!(a.0 < n && b.0 < n && a != b, "invalid edge {a}-{b}");
            adjacency[a.0].push(b);
            adjacency[b.0].push(a);
        }
        let dist = Self::bfs_all_pairs(n, &adjacency);
        Topology {
            spec,
            n,
            edges,
            adjacency,
            dist,
            grid,
        }
    }

    fn bfs_all_pairs(n: usize, adjacency: &[Vec<HwQubit>]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for source in 0..n {
            let row = &mut dist[source * n..(source + 1) * n];
            row[source] = 0;
            queue.clear();
            queue.push_back(source);
            while let Some(q) = queue.pop_front() {
                let d = row[q];
                for &nb in &adjacency[q] {
                    if row[nb.0] == u32::MAX {
                        row[nb.0] = d + 1;
                        queue.push_back(nb.0);
                    }
                }
            }
        }
        dist
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Whether every qubit can reach every other qubit through coupling
    /// edges. All built-in specs produce connected graphs; the check exists
    /// so [`Machine::try_new`](crate::Machine::try_new) can refuse a
    /// disconnected machine with a typed error instead of letting routing
    /// fail much later on an "unreachable" distance.
    pub fn is_connected(&self) -> bool {
        self.connected_count() == self.n
    }

    /// Number of qubits reachable from qubit 0 (equals
    /// [`Topology::num_qubits`] exactly when the graph is connected).
    pub fn connected_count(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        // Row 0 of the precomputed all-pairs BFS table already encodes
        // reachability from qubit 0.
        self.dist[..self.n]
            .iter()
            .filter(|&&d| d != u32::MAX)
            .count()
    }

    /// Builds a topology from an explicit edge list, for tests that need
    /// graphs the public specs cannot describe (e.g. disconnected ones).
    /// The `spec` argument is only a label for naming/fingerprinting.
    #[cfg(test)]
    pub(crate) fn custom_for_tests(
        spec: TopologySpec,
        n: usize,
        edges: Vec<(HwQubit, HwQubit)>,
    ) -> Self {
        Self::from_edge_list(spec, n, edges, None)
    }

    /// A deterministic 64-bit fingerprint of the coupling graph: the spec,
    /// qubit count and edge list. Calibration-unaware compiler passes key
    /// their caches on this (their results depend only on the graph, not on
    /// the day's calibration data).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.spec.hash(&mut h);
        self.n.hash(&mut h);
        for &(a, b) in &self.edges {
            a.0.hash(&mut h);
            b.0.hash(&mut h);
        }
        h.finish()
    }

    /// The 2-D grid layout, when the topology is grid-shaped. Grid-only
    /// routing (one-bend paths, rectangle reservation) is available exactly
    /// when this returns `Some`; other policies fall back to best-path
    /// routing.
    pub fn as_grid(&self) -> Option<&GridTopology> {
        self.grid.as_ref()
    }

    /// Total number of hardware qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// All undirected coupling edges, in the spec's canonical enumeration
    /// order (for grids: identical to [`GridTopology::edges`]).
    pub fn edges(&self) -> &[(HwQubit, HwQubit)] {
        &self.edges
    }

    /// Nearest neighbours of `q`, in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is outside the topology.
    pub fn neighbors(&self, q: HwQubit) -> &[HwQubit] {
        &self.adjacency[q.0]
    }

    /// Whether the qubit index is inside the topology.
    pub fn contains(&self, q: HwQubit) -> bool {
        q.0 < self.n
    }

    /// Validates that a qubit is inside the topology.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::QubitOutOfRange`] when it is not.
    pub fn check(&self, q: HwQubit) -> Result<(), MachineError> {
        if self.contains(q) {
            Ok(())
        } else {
            Err(MachineError::QubitOutOfRange {
                qubit: q.0,
                num_qubits: self.n,
            })
        }
    }

    /// Whether a hardware CNOT may be applied directly between `a` and `b`.
    pub fn adjacent(&self, a: HwQubit, b: HwQubit) -> bool {
        self.contains(a) && self.contains(b) && a != b && self.distance(a, b) == 1
    }

    /// Coupling-graph hop distance between two hardware qubits (for grids
    /// this equals the Manhattan distance the paper's duration model uses).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is outside the topology.
    pub fn distance(&self, a: HwQubit, b: HwQubit) -> usize {
        assert!(self.contains(a), "{a} outside {self}");
        assert!(self.contains(b), "{b} outside {self}");
        self.dist[a.0 * self.n + b.0] as usize
    }

    /// All hardware qubits in index order.
    pub fn qubits(&self) -> impl Iterator<Item = HwQubit> {
        (0..self.n).map(HwQubit)
    }
}

impl From<GridTopology> for Topology {
    fn from(grid: GridTopology) -> Self {
        let spec = TopologySpec::Grid {
            mx: grid.mx(),
            my: grid.my(),
        };
        Topology::from_grid(spec, grid)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.grid {
            // Keep the original grid rendering ("8x2 grid") so reports and
            // machine names are unchanged for grid-shaped machines.
            Some(grid) => grid.fmt(f),
            None => self.spec.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibmq16_is_two_rows_of_eight() {
        let t = GridTopology::ibmq16();
        assert_eq!(t.mx(), 8);
        assert_eq!(t.my(), 2);
        assert_eq!(t.num_qubits(), 16);
        assert_eq!(t.edges().len(), 7 * 2 + 8);
    }

    #[test]
    fn coords_and_at_are_inverse() {
        let t = GridTopology::new(5, 3);
        for q in t.qubits() {
            let (x, y) = t.coords(q);
            assert_eq!(t.at(x, y), q);
        }
    }

    #[test]
    fn adjacency_is_grid_nearest_neighbour() {
        let t = GridTopology::ibmq16();
        assert!(t.adjacent(HwQubit(3), HwQubit(4)));
        assert!(t.adjacent(HwQubit(3), HwQubit(11)));
        assert!(!t.adjacent(HwQubit(7), HwQubit(8))); // row wrap is not adjacent
        assert!(!t.adjacent(HwQubit(2), HwQubit(2)));
    }

    #[test]
    fn distance_is_manhattan() {
        let t = GridTopology::ibmq16();
        assert_eq!(t.distance(HwQubit(0), HwQubit(15)), 7 + 1);
        assert_eq!(t.distance(HwQubit(4), HwQubit(4)), 0);
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let t = GridTopology::new(4, 4);
        assert_eq!(t.neighbors(HwQubit(0)).len(), 2);
        assert_eq!(t.neighbors(t.at(1, 1)).len(), 4);
        assert_eq!(t.neighbors(t.at(3, 0)).len(), 2);
    }

    #[test]
    fn junctions_are_rectangle_corners() {
        let t = GridTopology::new(4, 4);
        let c = t.at(0, 0);
        let tg = t.at(2, 3);
        let (j1, j2) = t.junctions(c, tg);
        assert_eq!(j1, t.at(2, 0));
        assert_eq!(j2, t.at(0, 3));
    }

    #[test]
    fn one_bend_path_visits_every_intermediate_qubit() {
        let t = GridTopology::new(4, 4);
        let from = t.at(0, 0);
        let to = t.at(2, 3);
        let (j1, _) = t.junctions(from, to);
        let path = t.one_bend_path(from, to, j1);
        assert_eq!(path.first(), Some(&from));
        assert_eq!(path.last(), Some(&to));
        assert_eq!(path.len(), t.distance(from, to) + 1);
        for pair in path.windows(2) {
            assert!(t.adjacent(pair[0], pair[1]));
        }
    }

    #[test]
    fn one_bend_path_handles_straight_lines() {
        let t = GridTopology::ibmq16();
        let from = HwQubit(0);
        let to = HwQubit(3);
        let (j1, j2) = t.junctions(from, to);
        assert_eq!(j1, to);
        assert_eq!(j2, from);
        let path = t.one_bend_path(from, to, j1);
        assert_eq!(path, vec![HwQubit(0), HwQubit(1), HwQubit(2), HwQubit(3)]);
    }

    #[test]
    #[should_panic(expected = "not a corner")]
    fn one_bend_path_rejects_non_corner_junction() {
        let t = GridTopology::new(4, 4);
        let _ = t.one_bend_path(t.at(0, 0), t.at(2, 3), t.at(1, 1));
    }

    #[test]
    fn at_least_covers_requested_size() {
        for n in [4, 8, 16, 32, 64, 128] {
            let t = GridTopology::at_least(n);
            assert!(t.num_qubits() >= n, "{n} -> {t}");
        }
    }

    #[test]
    fn check_reports_out_of_range() {
        let t = GridTopology::ibmq16();
        assert!(t.check(HwQubit(15)).is_ok());
        assert!(matches!(
            t.check(HwQubit(16)),
            Err(MachineError::QubitOutOfRange { qubit: 16, .. })
        ));
    }

    #[test]
    fn topology_grid_matches_grid_topology_exactly() {
        let grid = GridTopology::ibmq16();
        let t = Topology::ibmq16();
        assert_eq!(t.num_qubits(), grid.num_qubits());
        assert_eq!(t.edges(), grid.edges().as_slice());
        for q in grid.qubits() {
            assert_eq!(t.neighbors(q), grid.neighbors(q).as_slice(), "{q}");
            for p in grid.qubits() {
                assert_eq!(t.distance(q, p), grid.distance(q, p));
                assert_eq!(t.adjacent(q, p), grid.adjacent(q, p));
            }
        }
        assert_eq!(t.as_grid(), Some(&grid));
        assert_eq!(t.to_string(), "8x2 grid");
    }

    #[test]
    fn from_grid_topology_preserves_layout() {
        let t: Topology = GridTopology::new(3, 5).into();
        assert_eq!(t.spec(), TopologySpec::Grid { mx: 3, my: 5 });
        assert_eq!(t.num_qubits(), 15);
        assert!(t.as_grid().is_some());
    }

    #[test]
    fn ring_distances_wrap_around() {
        let t = Topology::ring(8);
        assert_eq!(t.num_qubits(), 8);
        assert_eq!(t.edges().len(), 8);
        assert!(t.adjacent(HwQubit(0), HwQubit(7)));
        assert_eq!(t.distance(HwQubit(0), HwQubit(4)), 4);
        assert_eq!(t.distance(HwQubit(1), HwQubit(7)), 2);
        assert!(t.as_grid().is_none());
        for q in t.qubits() {
            assert_eq!(t.neighbors(q).len(), 2);
        }
    }

    #[test]
    fn heavy_hex_is_connected_with_degree_two_bridges() {
        let t = Topology::heavy_hex(3, 7);
        let chain_qubits = 3 * 7;
        assert!(t.num_qubits() > chain_qubits, "bridge qubits appended");
        // Every pair reachable (BFS distance finite).
        for a in t.qubits() {
            for b in t.qubits() {
                assert!(t.distance(a, b) < t.num_qubits(), "{a} cannot reach {b}");
            }
        }
        // Bridge qubits connect exactly one qubit of each adjacent chain.
        for q in chain_qubits..t.num_qubits() {
            assert_eq!(t.neighbors(HwQubit(q)).len(), 2, "bridge Q{q}");
        }
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(TopologySpec::Ibmq16.name(), "IBMQ16");
        assert_eq!(TopologySpec::Grid { mx: 4, my: 4 }.name(), "grid-4x4");
        assert_eq!(TopologySpec::Ring { n: 12 }.name(), "ring-12");
        assert_eq!(
            TopologySpec::HeavyHex { rows: 2, cols: 5 }.name(),
            "heavy-hex-2x5"
        );
        assert_eq!(Topology::ring(5).to_string(), "5-qubit ring");
    }
}
