//! Declarative sweep plans.
//!
//! A [`SweepPlan`] describes an experiment workload as a cross-product of
//! axes — circuits × compiler configurations × calibration days ×
//! topologies — plus simulation settings, without executing anything. The
//! paper's figures and tables are all instances of this shape; a
//! [`Session`](crate::Session) executes the plan into a
//! [`Report`](crate::Report).

use nisq_core::CompilerConfig;
use nisq_ir::{Benchmark, Circuit};
use nisq_machine::{GridTopology, TopologySpec};
use nisq_noise::NoiseSpec;
use std::hash::{Hash, Hasher};

/// One circuit of a plan: a display name, the logical circuit, and (when
/// known) the classically-correct output used to score success rates.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSpec {
    /// Display name used in reports (benchmark name, file name, ...).
    pub name: String,
    /// The logical circuit to compile.
    pub circuit: Circuit,
    /// The correct answer, if known; `None` disables success-rate scoring
    /// for this circuit.
    pub expected: Option<Vec<bool>>,
}

impl CircuitSpec {
    /// A named circuit without a known correct answer.
    pub fn new(name: impl Into<String>, circuit: Circuit) -> Self {
        CircuitSpec {
            name: name.into(),
            circuit,
            expected: None,
        }
    }

    /// Attaches the classically-correct output.
    ///
    /// # Errors
    ///
    /// Refuses an answer whose length differs from the circuit's classical
    /// bits: no outcome could ever match it, so every cell would score 0.
    pub fn with_expected(mut self, expected: Vec<bool>) -> Result<Self, String> {
        let clbits = self.circuit.num_clbits();
        if expected.len() != clbits {
            return Err(format!(
                "the expected answer for {} has {} bits but the circuit has {clbits} classical bits",
                self.name,
                expected.len()
            ));
        }
        self.expected = Some(expected);
        Ok(self)
    }
}

impl From<Benchmark> for CircuitSpec {
    fn from(benchmark: Benchmark) -> Self {
        CircuitSpec {
            name: benchmark.name().to_string(),
            circuit: benchmark.circuit(),
            expected: Some(benchmark.expected_output()),
        }
    }
}

/// How per-cell simulation seeds are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Every cell simulates with the same seed (the historical behaviour of
    /// the single-day figure binaries).
    Fixed(u64),
    /// Cells on day `d` use `base + d` (the historical behaviour of the
    /// daily-variation figures).
    PerDay(u64),
    /// Every cell gets an independent stream: `base` mixed with a hash of
    /// the cell's coordinates (topology, day, circuit and config names), so
    /// seeds are stable when axes are reordered or extended.
    PerCell(u64),
}

/// Which machines the plan targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineScope {
    /// A fixed list of topologies, crossed with every other axis.
    Topologies(Vec<TopologySpec>),
    /// One near-square grid per circuit, just large enough to hold it (the
    /// scalability-study shape: the machine grows with the workload).
    GridPerCircuit,
}

/// One executable cell of a plan: indices into the plan's axes plus the
/// resolved topology and derived simulation seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The machine topology this cell targets.
    pub topology: TopologySpec,
    /// Calibration day index.
    pub day: usize,
    /// Index into [`SweepPlan::circuits`].
    pub circuit: usize,
    /// Index into [`SweepPlan::configs`].
    pub config: usize,
    /// Index into [`SweepPlan::noise_axis`], or `None` for the built-in
    /// noise model alone (the only value when the plan has no noise axis).
    pub noise: Option<usize>,
    /// Seed for this cell's simulation trials.
    pub sim_seed: u64,
}

/// A declarative description of an experiment workload.
///
/// # Example
///
/// ```
/// use nisq_exp::SweepPlan;
/// use nisq_core::CompilerConfig;
/// use nisq_ir::Benchmark;
///
/// let plan = SweepPlan::new()
///     .benchmarks(Benchmark::representative())
///     .config("Qiskit", CompilerConfig::qiskit())
///     .config("GreedyE*", CompilerConfig::greedy_e())
///     .days(0..7)
///     .with_trials(256);
/// assert_eq!(plan.cells().len(), 3 * 2 * 7);
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    circuits: Vec<CircuitSpec>,
    configs: Vec<(String, CompilerConfig)>,
    days: Vec<usize>,
    noises: Vec<(String, NoiseSpec)>,
    scope: MachineScope,
    machine_seed: u64,
    trials: u32,
    seed_mode: SeedMode,
}

/// The default machine seed shared by the whole evaluation (one consistent
/// synthetic device across every figure and table).
pub const DEFAULT_MACHINE_SEED: u64 = 2019;

impl Default for SweepPlan {
    fn default() -> Self {
        SweepPlan::new()
    }
}

impl SweepPlan {
    /// An empty plan: IBMQ16, day 0, machine seed 2019, no simulation
    /// (compile-only), per-cell seeds from base 0.
    pub fn new() -> Self {
        SweepPlan {
            circuits: Vec::new(),
            configs: Vec::new(),
            days: vec![0],
            noises: Vec::new(),
            scope: MachineScope::Topologies(vec![TopologySpec::Ibmq16]),
            machine_seed: DEFAULT_MACHINE_SEED,
            trials: 0,
            seed_mode: SeedMode::PerCell(0),
        }
    }

    /// Adds one benchmark (name, circuit and expected output).
    pub fn benchmark(self, benchmark: Benchmark) -> Self {
        self.circuit(benchmark.into())
    }

    /// Adds several benchmarks.
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.circuits
            .extend(benchmarks.into_iter().map(CircuitSpec::from));
        self
    }

    /// Adds a custom circuit.
    pub fn circuit(mut self, spec: CircuitSpec) -> Self {
        self.circuits.push(spec);
        self
    }

    /// Adds one labelled compiler configuration. Labels address report
    /// cells ([`Report::cell`](crate::Report::cell) returns the first
    /// match), so keep them unique within a plan.
    pub fn config(mut self, label: impl Into<String>, config: CompilerConfig) -> Self {
        self.configs.push((label.into(), config));
        self
    }

    /// Adds several labelled configurations.
    pub fn with_configs<L: Into<String>>(
        mut self,
        configs: impl IntoIterator<Item = (L, CompilerConfig)>,
    ) -> Self {
        self.configs
            .extend(configs.into_iter().map(|(l, c)| (l.into(), c)));
        self
    }

    /// Adds the paper's six Table-1 configurations, labelled by algorithm
    /// name.
    pub fn table1_configs(mut self) -> Self {
        for config in CompilerConfig::table1() {
            self.configs
                .push((config.algorithm.name().to_string(), config));
        }
        self
    }

    /// Adds one labelled noise spec to the noise axis. A plan with a
    /// non-empty noise axis runs every other-axis combination once per
    /// entry, binding that spec's declarative channels on top of the
    /// built-in noise model; an empty axis (the default) runs each
    /// combination once with the built-in model alone.
    pub fn with_noise(mut self, label: impl Into<String>, spec: NoiseSpec) -> Self {
        self.noises.push((label.into(), spec));
        self
    }

    /// Replaces the calibration-day axis.
    pub fn days(mut self, days: impl IntoIterator<Item = usize>) -> Self {
        self.days = days.into_iter().collect();
        assert!(!self.days.is_empty(), "a plan needs at least one day");
        self
    }

    /// Replaces the topology axis.
    pub fn topologies(mut self, specs: impl IntoIterator<Item = TopologySpec>) -> Self {
        let specs: Vec<TopologySpec> = specs.into_iter().collect();
        assert!(!specs.is_empty(), "a plan needs at least one topology");
        self.scope = MachineScope::Topologies(specs);
        self
    }

    /// Targets one topology.
    pub fn topology(self, spec: TopologySpec) -> Self {
        self.topologies([spec])
    }

    /// Sizes a near-square grid machine to each circuit instead of using a
    /// fixed topology list (the scalability-study shape).
    pub fn grid_per_circuit(mut self) -> Self {
        self.scope = MachineScope::GridPerCircuit;
        self
    }

    /// Sets the machine calibration seed.
    pub fn with_machine_seed(mut self, seed: u64) -> Self {
        self.machine_seed = seed;
        self
    }

    /// Sets the number of noisy trials per cell (0 = compile only).
    pub fn with_trials(mut self, trials: u32) -> Self {
        self.trials = trials;
        self
    }

    /// Uses one fixed simulation seed for every cell.
    pub fn fixed_sim_seed(mut self, seed: u64) -> Self {
        self.seed_mode = SeedMode::Fixed(seed);
        self
    }

    /// Seeds cells on day `d` with `base + d`.
    pub fn per_day_sim_seed(mut self, base: u64) -> Self {
        self.seed_mode = SeedMode::PerDay(base);
        self
    }

    /// Derives an independent seed per cell from `base` and the cell's
    /// coordinates (the default, with base 0).
    pub fn per_cell_sim_seed(mut self, base: u64) -> Self {
        self.seed_mode = SeedMode::PerCell(base);
        self
    }

    /// The circuit axis.
    pub fn circuits(&self) -> &[CircuitSpec] {
        &self.circuits
    }

    /// The labelled configuration axis.
    pub fn configs(&self) -> &[(String, CompilerConfig)] {
        &self.configs
    }

    /// The calibration-day axis.
    pub fn day_axis(&self) -> &[usize] {
        &self.days
    }

    /// The labelled noise-spec axis (empty = built-in model only).
    pub fn noise_axis(&self) -> &[(String, NoiseSpec)] {
        &self.noises
    }

    /// The machine scope.
    pub fn scope(&self) -> &MachineScope {
        &self.scope
    }

    /// The machine calibration seed.
    pub fn machine_seed(&self) -> u64 {
        self.machine_seed
    }

    /// Trials per cell (0 = compile only).
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// A stable 64-bit content fingerprint of the whole plan.
    ///
    /// Two plans that would produce identical reports fingerprint
    /// identically: circuit contents (not just names), configuration
    /// fingerprints, day / topology / noise axes, machine seed, trial
    /// count and seed mode all join the hash. The sharded serve
    /// supervisor routes requests by this value so identical plans land
    /// on the same worker (warm compile and placement caches); it is not
    /// cryptographic.
    pub fn fingerprint(&self) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        self.circuits.len().hash(&mut h);
        for spec in &self.circuits {
            spec.name.hash(&mut h);
            spec.circuit.fingerprint().hash(&mut h);
            spec.expected.hash(&mut h);
        }
        self.configs.len().hash(&mut h);
        for (label, config) in &self.configs {
            label.hash(&mut h);
            config.fingerprint().hash(&mut h);
        }
        self.days.hash(&mut h);
        for (label, _) in &self.noises {
            label.hash(&mut h);
        }
        match &self.scope {
            MachineScope::Topologies(specs) => specs.hash(&mut h),
            MachineScope::GridPerCircuit => "grid-per-circuit".hash(&mut h),
        }
        self.machine_seed.hash(&mut h);
        self.trials.hash(&mut h);
        match self.seed_mode {
            SeedMode::Fixed(seed) => (0u8, seed).hash(&mut h),
            SeedMode::PerDay(base) => (1u8, base).hash(&mut h),
            SeedMode::PerCell(base) => (2u8, base).hash(&mut h),
        }
        // SplitMix64-style avalanche: near-identical plans must not
        // produce correlated rendezvous-hash scores.
        let mut z = h.finish();
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// The smallest near-square grid holding `circuit` (the machine used
    /// for it under [`MachineScope::GridPerCircuit`]).
    pub fn grid_for(circuit: &Circuit) -> TopologySpec {
        let grid = GridTopology::at_least(circuit.num_qubits().max(1));
        TopologySpec::Grid {
            mx: grid.mx(),
            my: grid.my(),
        }
    }

    /// Materializes the plan into its cells, in deterministic order:
    /// topology-major, then day, circuit, configuration, noise (innermost,
    /// so adding a noise axis extends rather than reshuffles the order).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        let topologies: Vec<Option<TopologySpec>> = match &self.scope {
            MachineScope::Topologies(specs) => specs.iter().copied().map(Some).collect(),
            MachineScope::GridPerCircuit => vec![None],
        };
        let noises: Vec<Option<usize>> = if self.noises.is_empty() {
            vec![None]
        } else {
            (0..self.noises.len()).map(Some).collect()
        };
        for topology in topologies {
            for &day in &self.days {
                for (ci, spec) in self.circuits.iter().enumerate() {
                    let resolved = topology.unwrap_or_else(|| SweepPlan::grid_for(&spec.circuit));
                    for cfg in 0..self.configs.len() {
                        for &noise in &noises {
                            cells.push(Cell {
                                topology: resolved,
                                day,
                                circuit: ci,
                                config: cfg,
                                noise,
                                sim_seed: self.cell_seed(resolved, day, ci, cfg, noise),
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The simulation seed of a cell, per the plan's [`SeedMode`].
    fn cell_seed(
        &self,
        topology: TopologySpec,
        day: usize,
        circuit: usize,
        config: usize,
        noise: Option<usize>,
    ) -> u64 {
        match self.seed_mode {
            SeedMode::Fixed(seed) => seed,
            SeedMode::PerDay(base) => base.wrapping_add(day as u64),
            SeedMode::PerCell(base) => {
                let mut h = rustc_hash::FxHasher::default();
                topology.hash(&mut h);
                day.hash(&mut h);
                self.circuits[circuit].name.hash(&mut h);
                self.configs[config].0.hash(&mut h);
                // Only a bound noise spec joins the key: plans without a
                // noise axis keep their historical per-cell seeds.
                if let Some(n) = noise {
                    self.noises[n].0.hash(&mut h);
                }
                // Finalize with a SplitMix64-style avalanche so nearby
                // hashes do not yield correlated trial streams.
                let mut z = base ^ h.finish();
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_covers_every_axis() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .table1_configs()
            .days([0, 3, 6])
            .topologies([TopologySpec::Ibmq16, TopologySpec::Grid { mx: 4, my: 4 }]);
        assert_eq!(plan.cells().len(), 2 * 6 * 3 * 2);
    }

    #[test]
    fn seed_modes_match_their_contracts() {
        let base = SweepPlan::new()
            .benchmark(Benchmark::Bv4)
            .config("Qiskit", CompilerConfig::qiskit())
            .days([0, 5]);

        let fixed = base.clone().fixed_sim_seed(42);
        assert!(fixed.cells().iter().all(|c| c.sim_seed == 42));

        let per_day = base.clone().per_day_sim_seed(100);
        let seeds: Vec<u64> = per_day.cells().iter().map(|c| c.sim_seed).collect();
        assert_eq!(seeds, vec![100, 105]);

        let per_cell = base.per_cell_sim_seed(7);
        let seeds: Vec<u64> = per_cell.cells().iter().map(|c| c.sim_seed).collect();
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn per_cell_seeds_are_stable_under_axis_extension() {
        let small = SweepPlan::new()
            .benchmark(Benchmark::Bv4)
            .config("Qiskit", CompilerConfig::qiskit());
        let large = SweepPlan::new()
            .benchmark(Benchmark::Bv4)
            .benchmark(Benchmark::Hs2)
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e());
        assert_eq!(small.cells()[0].sim_seed, large.cells()[0].sim_seed);
    }

    #[test]
    fn grid_per_circuit_sizes_machines_to_circuits() {
        let plan = SweepPlan::new()
            .circuit(CircuitSpec::new("tiny", Circuit::new(3)))
            .circuit(CircuitSpec::new("big", Circuit::new(60)))
            .config("GreedyE*", CompilerConfig::greedy_e())
            .grid_per_circuit();
        let cells = plan.cells();
        assert_eq!(cells[0].topology, TopologySpec::Grid { mx: 2, my: 2 });
        assert_eq!(cells[1].topology, TopologySpec::Grid { mx: 8, my: 8 });
    }

    #[test]
    fn plan_fingerprints_are_stable_and_content_sensitive() {
        let base = || {
            SweepPlan::new()
                .benchmark(Benchmark::Bv4)
                .config("Qiskit", CompilerConfig::qiskit())
                .days([0, 1])
                .with_trials(64)
        };
        assert_eq!(base().fingerprint(), base().fingerprint());
        // Every axis of the plan moves the fingerprint.
        assert_ne!(base().fingerprint(), base().with_trials(65).fingerprint());
        assert_ne!(
            base().fingerprint(),
            base().with_machine_seed(7).fingerprint()
        );
        assert_ne!(base().fingerprint(), base().days([0, 2]).fingerprint());
        assert_ne!(base().fingerprint(), base().fixed_sim_seed(0).fingerprint());
        assert_ne!(
            base().fingerprint(),
            base().benchmark(Benchmark::Hs2).fingerprint()
        );
        assert_ne!(
            base().fingerprint(),
            base()
                .topology(TopologySpec::Grid { mx: 4, my: 4 })
                .fingerprint()
        );
    }

    #[test]
    fn benchmark_specs_carry_expected_outputs() {
        let spec: CircuitSpec = Benchmark::Bv4.into();
        assert_eq!(spec.name, "BV4");
        assert_eq!(spec.expected, Some(Benchmark::Bv4.expected_output()));
    }

    #[test]
    fn an_expected_answer_must_match_the_classical_bits() {
        let bv4 = || CircuitSpec::new("BV4", Benchmark::Bv4.circuit());
        let err = bv4().with_expected(vec![true, false]).unwrap_err();
        assert!(
            err.contains("2 bits") && err.contains("4 classical bits"),
            "{err}"
        );
        let answer = vec![true, false, true, true];
        let spec = bv4().with_expected(answer.clone()).unwrap();
        assert_eq!(spec.expected, Some(answer));
    }
}
