//! The long-lived experiment executor.

use crate::journal::{CellKey, Journal};
use crate::plan::{Cell, SweepPlan};
use crate::report::{CacheStats, CellRecord, Report, TierStats};
use nisq_core::{CompileError, CompiledCircuit, Compiler, CompilerConfig, PlacementCache};
use nisq_ir::Circuit;
use nisq_machine::{Machine, MachineError, TopologySpec};
use nisq_sim::{run_workers, Simulator, SimulatorConfig};
use rustc_hash::{FxHashMap, FxHashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Key of the full-compile cache: circuit, machine and config fingerprints.
type CompileKey = (u64, u64, u64);

/// External controls for [`Session::execute`]: the knobs a hosting
/// service (the serve daemon) uses to bound a run without forking the
/// execution logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControl {
    /// Claim no cell after this instant; cells already claimed finish.
    /// `None` runs to completion.
    pub deadline: Option<Instant>,
    /// Stop before starting the `n+1`-th cell (journal hits included).
    /// `None` runs to completion. Unlike the wall-clock deadline this cut
    /// is deterministic, which is what the crash-recovery tests need to
    /// simulate a process dying at an exact cell boundary.
    pub stop_after_cells: Option<usize>,
}

impl RunControl {
    /// A control block with no limits: [`Session::execute`] runs the whole
    /// plan, as [`Session::run`] does.
    pub fn unbounded() -> Self {
        RunControl::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deterministic cell-count cut.
    pub fn with_stop_after_cells(mut self, cells: usize) -> Self {
        self.stop_after_cells = Some(cells);
        self
    }
}

/// What [`Session::execute`] produced: the (possibly partial) report plus
/// how far through the plan the run got.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Records for every cell that finished, in plan order.
    pub report: Report,
    /// `true` when every plan cell ran; `false` when the control block cut
    /// the run short (the report then holds a plan-order prefix of the
    /// plan's cells).
    pub completed: bool,
    /// Total cells the plan describes.
    pub cells_total: usize,
}

/// A long-lived executor for [`SweepPlan`] workloads.
///
/// A session owns three layers of reusable state, so a sequence of plans
/// (or one plan with overlapping cells) never repeats work:
///
/// * **machine snapshots** — `(topology, seed, day)` builds calibration
///   data once and shares the [`Machine`] behind an `Arc`;
/// * **a full-compile cache** — identical `(circuit, machine-day, config)`
///   triples return the same [`CompiledCircuit`], bit for bit;
/// * **a placement cache** (see [`PlacementCache`]) — installed with
///   [`Compiler::with_placement_cache`] into every compile the session
///   runs, so even compile-cache *misses* skip the expensive place step
///   when only the calibration day changed for a calibration-unaware
///   configuration. That call is the session's only hook into
///   compilation: a miss is a plain [`Compiler::compile`].
///
/// [`Session::execute`] runs a plan's cells on the session's worker
/// threads, compiling them serially in plan order and simulating them in
/// parallel. Each cell replays its trials with a deterministic per-cell
/// stream, so results are independent of thread count and identical to a
/// serial run.
///
/// # Example
///
/// ```
/// use nisq_exp::{Session, SweepPlan};
/// use nisq_core::CompilerConfig;
/// use nisq_ir::Benchmark;
///
/// let mut session = Session::new();
/// let report = session
///     .run(
///         &SweepPlan::new()
///             .benchmark(Benchmark::Bv4)
///             .config("GreedyE*", CompilerConfig::greedy_e())
///             .with_trials(128),
///     )
///     .unwrap();
/// assert_eq!(report.cells.len(), 1);
/// assert!(report.cells[0].success() > 0.0);
/// ```
#[derive(Debug)]
pub struct Session {
    machines: FxHashMap<(TopologySpec, u64, usize), Arc<Machine>>,
    compiled: FxHashMap<CompileKey, Arc<CompiledCircuit>>,
    place_cache: Arc<PlacementCache>,
    compile_requests: u64,
    compile_hits: u64,
    threads: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session with an empty cache and the default thread budget
    /// (the machine's available parallelism, capped at 8 like the
    /// simulator's default).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        Session {
            machines: FxHashMap::default(),
            compiled: FxHashMap::default(),
            place_cache: Arc::new(PlacementCache::new()),
            compile_requests: 0,
            compile_hits: 0,
            threads,
        }
    }

    /// Sets the worker-thread budget for batch simulation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The machine snapshot for `(spec, seed, day)`, built on first use and
    /// shared afterwards.
    pub fn machine(&mut self, spec: TopologySpec, seed: u64, day: usize) -> Arc<Machine> {
        self.machines
            .entry((spec, seed, day))
            .or_insert_with(|| Arc::new(Machine::from_spec(spec, seed, day)))
            .clone()
    }

    /// Like [`Session::machine`], but validating the spec first so a
    /// degenerate topology (a `ring-2`, a `grid-0x5`) surfaces as a typed
    /// error instead of a panic — the variant untrusted plans go through.
    /// Only successful builds enter the cache.
    ///
    /// # Errors
    ///
    /// Returns whatever [`Machine::try_from_spec`] reports.
    pub fn try_machine(
        &mut self,
        spec: TopologySpec,
        seed: u64,
        day: usize,
    ) -> Result<Arc<Machine>, MachineError> {
        if let Some(hit) = self.machines.get(&(spec, seed, day)) {
            return Ok(hit.clone());
        }
        let machine = Arc::new(Machine::try_from_spec(spec, seed, day)?);
        self.machines.insert((spec, seed, day), machine.clone());
        Ok(machine)
    }

    /// Compiles `circuit` for `machine` under `config` through the
    /// session's caches. The returned flag is `true` when the result came
    /// from the full-compile cache (bit-identical to the original compile).
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit does not fit on the machine or the
    /// configuration is invalid.
    pub fn compile_cached(
        &mut self,
        machine: &Machine,
        config: &CompilerConfig,
        circuit: &Circuit,
    ) -> Result<(Arc<CompiledCircuit>, bool), CompileError> {
        self.compile_requests += 1;
        let key = (
            circuit.fingerprint(),
            machine.fingerprint(),
            config.fingerprint(),
        );
        if let Some(hit) = self.compiled.get(&key) {
            self.compile_hits += 1;
            return Ok((hit.clone(), true));
        }
        let compiled = Arc::new(
            Compiler::new(machine, *config)
                .with_placement_cache(self.place_cache.clone())
                .compile(circuit)?,
        );
        self.compiled.insert(key, compiled.clone());
        Ok((compiled, false))
    }

    /// Like [`Session::compile_cached`], discarding the hit flag.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit does not fit on the machine or the
    /// configuration is invalid.
    pub fn compile(
        &mut self,
        machine: &Machine,
        config: &CompilerConfig,
        circuit: &Circuit,
    ) -> Result<Arc<CompiledCircuit>, CompileError> {
        self.compile_cached(machine, config, circuit)
            .map(|(compiled, _)| compiled)
    }

    /// The placement cache shared by every compile this session runs.
    pub fn placement_cache(&self) -> &Arc<PlacementCache> {
        &self.place_cache
    }

    /// Cache behaviour accumulated over the session's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        let place = self.place_cache.stats();
        CacheStats {
            compile_requests: self.compile_requests,
            compile_hits: self.compile_hits,
            place_hits: place.hits,
            place_runs: place.misses,
            // Journal hits are per-run provenance, not session state; runs
            // fill the field in their report deltas.
            journal_hits: 0,
        }
    }

    /// Executes every cell of `plan` to completion: [`Session::execute`]
    /// with no deadline and no journal.
    ///
    /// # Errors
    ///
    /// Returns the first compile error in plan order; cells already
    /// executed are discarded.
    pub fn run(&mut self, plan: &SweepPlan) -> Result<Report, CompileError> {
        self.execute(plan, &RunControl::unbounded(), None)
            .map(|outcome| outcome.report)
    }

    /// Executes `plan` on the session's worker threads under `control`,
    /// streaming finished cells into `journal` when one is given.
    ///
    /// Workers claim cells in plan order under one lock. A claim checks
    /// the control block (an expired deadline or a reached cell-count cut
    /// ends the run with `completed == false`), looks the cell up in the
    /// journal, builds its machine through [`Session::try_machine`] (so a
    /// degenerate topology is a typed error, not a panic) and compiles it
    /// through the caches. The worker then simulates the cell outside the
    /// lock. Compiles therefore run serially and in plan order while other
    /// cells simulate, and since every claimed cell finishes, a cut run
    /// reports the longest plan-order prefix of cells; up to one cell per
    /// worker may still be running when a deadline passes. The run uses
    /// one worker per simulated cell, up to the thread budget, and splits
    /// each cell's trial chunks over the threads left per worker, so a
    /// lone simulated cell gets every thread. Each cell replays its trials
    /// from its own deterministic stream, so reports do not depend on the
    /// thread count. A worker that panics stops further claims; its panic
    /// reaches the caller once the cells in flight finish.
    ///
    /// With a journal, a cell whose record the journal held before the
    /// run replays it under the cell's own labels without recompiling or
    /// resimulating (counted in `resumed_cells` and the cache's
    /// `journal_hits`); any other cell, including one that shares its
    /// journal key with an earlier cell of the same run, appends a
    /// write-ahead intent when claimed and its fsync'd record when
    /// finished. Because journaled records round-trip bit-exactly, a
    /// resumed run's [`Report::canonicalized`] form is byte-identical to an
    /// uninterrupted run of the same plan. A journal that degrades mid-run
    /// (disk full) stops persisting but never fails the sweep — check
    /// [`Journal::degraded`] after the run.
    ///
    /// The report's [`CacheStats`] are the session totals *for this run*
    /// (deltas against the session state before the call).
    ///
    /// # Errors
    ///
    /// Returns the first compile error in plan order; cells already
    /// executed are discarded (though a journal keeps them).
    pub fn execute(
        &mut self,
        plan: &SweepPlan,
        control: &RunControl,
        journal: Option<&mut Journal>,
    ) -> Result<RunOutcome, CompileError> {
        let before = self.cache_stats();
        let cells = plan.cells();
        let trials = plan.trials();
        let journal_hash = journal.as_ref().map_or(0, |j| j.path_hash());
        // The one thread-split decision: simulated cells run one per
        // worker, and each cell splits its trial chunks over the threads
        // left per worker, so a lone simulated cell gets every thread.
        let simulated = cells
            .iter()
            .filter(|cell| trials > 0 && plan.circuits()[cell.circuit].expected.is_some())
            .count();
        let workers = self.threads.min(simulated.max(1));
        let sim_threads = (self.threads / workers).max(1);

        let claims = Mutex::new(Claims {
            session: &mut *self,
            journal,
            computed: FxHashSet::default(),
            claimed: 0,
            journal_hits: 0,
            stopped: false,
            error: None,
        });
        let finished = run_workers(workers, || {
            let mut done = Vec::new();
            // A poisoned lock means another worker panicked mid-claim: stop
            // claiming and let its panic reach the caller.
            while let Some((index, claim)) = claims
                .lock()
                .ok()
                .and_then(|mut claims| claims.claim(plan, &cells, control))
            {
                let record = match claim {
                    Claim::Journaled(record) => record,
                    Claim::Compiled {
                        machine,
                        executable,
                        cache_hit,
                        key,
                    } => {
                        let cell = &cells[index];
                        let record = catch_unwind(AssertUnwindSafe(|| {
                            run_cell(plan, cell, &machine, &executable, cache_hit, sim_threads)
                        }))
                        .unwrap_or_else(|payload| {
                            // Claim nothing more, so the panic reaches the
                            // caller once the cells in flight finish.
                            if let Ok(mut claims) = claims.lock() {
                                claims.stopped = true;
                            }
                            resume_unwind(payload)
                        });
                        if let Some(key) = key {
                            // A poisoned lock means another worker's panic
                            // is failing the run: skip the record.
                            if let Ok(mut claims) = claims.lock() {
                                let journal = claims.journal.as_deref_mut();
                                journal
                                    .expect("only journaled runs key their cells")
                                    .append_cell(&key, &record);
                            }
                        }
                        record
                    }
                };
                done.push((index, record));
            }
            done
        });
        let Claims {
            journal_hits,
            stopped,
            error,
            ..
        } = claims
            .into_inner()
            .expect("run_workers re-raises the panic of a worker that poisoned the lock");
        if let Some(err) = error {
            return Err(err);
        }

        // Every claimed cell finished, so in index order the records are
        // exactly the plan-order prefix of claimed cells.
        let mut finished: Vec<(usize, CellRecord)> = finished.into_iter().flatten().collect();
        finished.sort_unstable_by_key(|&(index, _)| index);
        let mut tiers = TierStats::default();
        for (_, record) in &finished {
            tiers.merge(&record.tiers);
        }

        let after = self.cache_stats();
        Ok(RunOutcome {
            report: Report {
                machine_seed: plan.machine_seed(),
                trials,
                resumed_cells: journal_hits,
                journal_hash,
                cells: finished.into_iter().map(|(_, record)| record).collect(),
                cache: CacheStats {
                    compile_requests: after.compile_requests - before.compile_requests,
                    compile_hits: after.compile_hits - before.compile_hits,
                    place_hits: after.place_hits - before.place_hits,
                    place_runs: after.place_runs - before.place_runs,
                    journal_hits,
                },
                tiers,
            },
            completed: !stopped,
            cells_total: cells.len(),
        })
    }
}

/// What [`Session::execute`]'s workers share under its one lock: the
/// session's caches, the journal and the plan-order claim cursor.
struct Claims<'s, 'j> {
    session: &'s mut Session,
    journal: Option<&'j mut Journal>,
    /// Journal keys of the cells this run computes. A later cell with one
    /// of these keys computes too rather than replaying a record that may
    /// or may not have landed yet, so only records that predate the run
    /// replay.
    computed: FxHashSet<CellKey>,
    /// Cells claimed so far: the plan-order prefix `0..claimed`.
    claimed: usize,
    /// Claimed cells the journal already held.
    journal_hits: u64,
    /// Set once the control block cut the run, a compile failed or a
    /// worker panicked.
    stopped: bool,
    error: Option<CompileError>,
}

/// A claimed cell: its journaled record, or what simulating it needs.
enum Claim {
    Journaled(CellRecord),
    Compiled {
        machine: Arc<Machine>,
        executable: Arc<CompiledCircuit>,
        cache_hit: bool,
        /// The cell's journal key, when the run is journaled.
        key: Option<CellKey>,
    },
}

impl Claims<'_, '_> {
    /// Claims the next plan cell, or `None` once the plan is exhausted,
    /// the control block cuts the run, or a compile fails (recorded in
    /// `error`).
    fn claim(
        &mut self,
        plan: &SweepPlan,
        cells: &[Cell],
        control: &RunControl,
    ) -> Option<(usize, Claim)> {
        let index = self.claimed;
        if self.stopped || index == cells.len() {
            return None;
        }
        let expired = control.deadline.is_some_and(|d| Instant::now() >= d);
        if expired || control.stop_after_cells.is_some_and(|limit| index >= limit) {
            self.stopped = true;
            return None;
        }
        match self.prepare(plan, &cells[index]) {
            Ok(claim) => {
                self.claimed += 1;
                Some((index, claim))
            }
            Err(err) => {
                self.stopped = true;
                self.error = Some(err);
                None
            }
        }
    }

    fn prepare(&mut self, plan: &SweepPlan, cell: &Cell) -> Result<Claim, CompileError> {
        let machine = self
            .session
            .try_machine(cell.topology, plan.machine_seed(), cell.day)?;
        let spec = &plan.circuits()[cell.circuit];
        let (label, config) = &plan.configs()[cell.config];
        let key = self.journal.as_ref().map(|_| CellKey {
            circuit_fp: spec.circuit.fingerprint(),
            machine_fp: machine.fingerprint(),
            config_fp: config.fingerprint(),
            day: cell.day,
            noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
            sim_seed: cell.sim_seed,
            trials: plan.trials(),
        });
        if let (Some(journal), Some(key)) = (self.journal.as_deref_mut(), key.as_ref()) {
            if let Some(hit) = journal.lookup(key).filter(|_| !self.computed.contains(key)) {
                self.journal_hits += 1;
                // The key pins the science, not the names: the record
                // replays under this cell's own circuit and config labels.
                return Ok(Claim::Journaled(CellRecord {
                    circuit: spec.name.clone(),
                    config: label.clone(),
                    ..hit.clone()
                }));
            }
            journal.append_intent(key);
            self.computed.insert(key.clone());
        }
        let (executable, cache_hit) =
            self.session
                .compile_cached(&machine, config, &spec.circuit)?;
        Ok(Claim::Compiled {
            machine,
            executable,
            cache_hit,
            key,
        })
    }
}

/// Simulates one compiled cell on `threads` threads (when the plan asks
/// for trials and the circuit has a known answer) and builds its record.
fn run_cell(
    plan: &SweepPlan,
    cell: &Cell,
    machine: &Machine,
    executable: &CompiledCircuit,
    cache_hit: bool,
    threads: usize,
) -> CellRecord {
    let spec = &plan.circuits()[cell.circuit];
    let trials = plan.trials();
    let (success_rate, tiers) = match &spec.expected {
        Some(expected) if trials > 0 => {
            let mut config = SimulatorConfig::with_trials(trials, cell.sim_seed);
            config.threads = threads;
            let simulator = Simulator::new(machine, config);
            let noise = cell.noise.map(|n| &plan.noise_axis()[n].1);
            let program = simulator.prepare_with_noise(executable.physical_circuit(), noise);
            let (result, counts) = simulator.run_program_with_stats(&program);
            (
                Some(result.probability_of(expected)),
                TierStats::from(counts),
            )
        }
        _ => (None, TierStats::default()),
    };
    // Timings are rounded to the JSON precision (3 decimals) so
    // serializing a report round-trips bit-exactly.
    let round3 = |v: f64| (v * 1e3).round() / 1e3;
    let place_us = executable
        .pass_timings()
        .iter()
        .find(|t| t.pass == "place")
        .map_or(0.0, |t| round3(t.elapsed.as_secs_f64() * 1e6));
    CellRecord {
        circuit: spec.name.clone(),
        config: plan.configs()[cell.config].0.clone(),
        topology: cell.topology.name(),
        day: cell.day,
        noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
        qubits: spec.circuit.num_qubits(),
        gates: spec.circuit.gate_count(),
        sim_seed: cell.sim_seed,
        trials,
        success_rate,
        estimated_reliability: executable.estimated_reliability(),
        duration_slots: executable.duration_slots(),
        swap_count: executable.swap_count(),
        hardware_cnots: executable.hardware_cnot_count(),
        compile_ms: round3(executable.compile_time().as_secs_f64() * 1e3),
        place_us,
        cache_hit,
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CircuitSpec;
    use crate::report::BackendTag;
    use nisq_ir::{Benchmark, Qubit};
    use nisq_noise::NoiseSpec;
    use std::time::Duration;

    #[test]
    fn run_scores_success_and_counts_caches() {
        let mut session = Session::new();
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(128)
            .fixed_sim_seed(7);
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            let rate = cell.success();
            assert!(
                rate > 0.0 && rate <= 1.0,
                "{}/{}: {rate}",
                cell.circuit,
                cell.config
            );
            assert!(!cell.cache_hit);
        }
        assert_eq!(report.cache.compile_requests, 4);
        assert_eq!(report.cache.compile_hits, 0);
        assert_eq!(report.cache.place_runs, 4);

        // The same plan again is answered entirely from the compile cache.
        let again = session.run(&plan).unwrap();
        assert_eq!(again.cache.compile_hits, 4);
        assert!(again.cells.iter().all(|c| c.cache_hit));
        for (a, b) in report.cells.iter().zip(again.cells.iter()) {
            assert_eq!(a.success_rate, b.success_rate, "fixed seeds must reproduce");
            assert_eq!(a.estimated_reliability, b.estimated_reliability);
        }
    }

    #[test]
    fn thread_count_does_not_change_batch_results() {
        let plan = SweepPlan::new()
            .benchmarks(Benchmark::representative())
            .config("GreedyV*", CompilerConfig::greedy_v())
            .days([0, 1])
            .with_trials(96);
        let serial = Session::new().with_threads(1).run(&plan).unwrap();
        let parallel = Session::new().with_threads(7).run(&plan).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(parallel.cells.iter()) {
            // Wall-clock fields (compile_ms, place_us) vary run to run;
            // everything observable must not.
            assert_eq!(a.success_rate, b.success_rate, "{}/{}", a.circuit, a.day);
            assert_eq!(a.estimated_reliability, b.estimated_reliability);
            assert_eq!(a.sim_seed, b.sim_seed);
            assert_eq!(
                (a.duration_slots, a.swap_count, a.hardware_cnots),
                (b.duration_slots, b.swap_count, b.hardware_cnots)
            );
        }
    }

    #[test]
    fn compile_only_plans_skip_simulation() {
        let mut session = Session::new();
        let plan = SweepPlan::new()
            .benchmark(Benchmark::Toffoli)
            .table1_configs();
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells.len(), 6);
        assert!(report.cells.iter().all(|c| c.success_rate.is_none()));
        assert!(report.cells.iter().all(|c| c.duration_slots > 0));
    }

    #[test]
    fn circuits_without_expected_output_are_not_scored() {
        let mut session = Session::new();
        let mut ghz = Circuit::new(3);
        ghz.h(nisq_ir::Qubit(0));
        ghz.cnot(nisq_ir::Qubit(0), nisq_ir::Qubit(1));
        ghz.cnot(nisq_ir::Qubit(1), nisq_ir::Qubit(2));
        ghz.measure_all();
        let plan = SweepPlan::new()
            .circuit(CircuitSpec::new("ghz", ghz))
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(64);
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells[0].success_rate, None);
        assert_eq!(report.cells[0].trials, 64);
    }

    #[test]
    fn controlled_run_matches_parallel_run_canonically() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .days([0, 1])
            .with_trials(64);
        let parallel = Session::new().run(&plan).unwrap();
        let outcome = Session::new()
            .execute(&plan, &RunControl::unbounded(), None)
            .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.cells_total, parallel.cells.len());
        assert_eq!(
            outcome.report.canonicalized(),
            parallel.canonicalized(),
            "controlled and parallel runs must agree on everything observable"
        );
    }

    #[test]
    fn controlled_run_stops_at_an_expired_deadline() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(32);
        let control = RunControl::unbounded().with_deadline(Instant::now());
        let outcome = Session::new().execute(&plan, &control, None).unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.report.cells.len(), 0);
        assert_eq!(outcome.cells_total, 2);
    }

    /// 16 cells over 2 days, tableau and dense circuits, and a noise axis
    /// whose second entry is a non-Pauli Kraus channel. Noise is the
    /// innermost axis, so every second cell repeats the previous compile.
    fn mixed_plan() -> SweepPlan {
        let spec = |json: &str| NoiseSpec::from_json(json).unwrap();
        SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Toffoli])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .days([0, 1])
            .with_noise(
                "bitflip-sq",
                spec(
                    r#"{"name": "bitflip-sq", "bindings": [
                    {"on": "sq", "rate": 0.01, "channel": {"kind": "bit-flip"}}]}"#,
                ),
            )
            .with_noise(
                "ad-measure",
                spec(
                    r#"{"name": "ad-measure", "bindings": [
                    {"on": "measure", "rate": 0.05, "channel": {"kind": "amplitude-damping"}}]}"#,
                ),
            )
            .with_trials(600)
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nisq-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn every_execution_mode_yields_the_same_canonical_report() {
        let plan = mixed_plan();
        let serial = Session::new().with_threads(1).run(&plan).unwrap();
        let backends: Vec<BackendTag> = serial.cells.iter().map(|c| c.tiers.backend).collect();
        assert!(backends.contains(&BackendTag::Tableau), "{backends:?}");
        assert!(backends.contains(&BackendTag::Dense), "{backends:?}");
        let canonical = serial.to_json_line_canonical();
        let cache_hits: Vec<bool> = serial.cells.iter().map(|c| c.cache_hit).collect();
        assert_eq!(cache_hits, [false, true].repeat(8));

        for threads in [2, 7] {
            let report = Session::new().with_threads(threads).run(&plan).unwrap();
            assert_eq!(
                report.to_json_line_canonical(),
                canonical,
                "{threads} threads"
            );
            let hits: Vec<bool> = report.cells.iter().map(|c| c.cache_hit).collect();
            assert_eq!(
                hits, cache_hits,
                "compiles follow plan order at {threads} threads"
            );
        }

        let path = temp_journal("modes.journal");
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let journaled = Session::new()
            .with_threads(2)
            .execute(&plan, &RunControl::unbounded(), Some(&mut journal))
            .unwrap();
        assert!(journaled.completed);
        assert_eq!(journaled.report.to_json_line_canonical(), canonical);

        let path = temp_journal("modes-cut.journal");
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let control = RunControl::unbounded().with_stop_after_cells(5);
        let cut = Session::new()
            .with_threads(2)
            .execute(&plan, &control, Some(&mut journal))
            .unwrap();
        assert!(!cut.completed);
        assert_eq!(cut.report.cells.len(), 5);
        drop(journal);
        let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
        let resumed = Session::new()
            .with_threads(2)
            .execute(&plan, &RunControl::unbounded(), Some(&mut journal))
            .unwrap();
        assert_eq!(resumed.report.resumed_cells, 5);
        assert_eq!(resumed.report.to_json_line_canonical(), canonical);
    }

    #[test]
    fn a_deadline_expiring_mid_plan_keeps_the_plan_order_prefix() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs4, Benchmark::Toffoli])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .days(0..4)
            .with_trials(1024);
        let full = Session::new()
            .with_threads(2)
            .run(&plan)
            .unwrap()
            .canonicalized();
        // Budgets double until one expires mid-plan, however fast the host.
        let mut cut_mid_plan = false;
        for budget_ms in (0..12).map(|k| 1u64 << k) {
            let control = RunControl::unbounded()
                .with_deadline(Instant::now() + Duration::from_millis(budget_ms));
            let outcome = Session::new()
                .with_threads(2)
                .execute(&plan, &control, None)
                .unwrap();
            let prefix = outcome.report.canonicalized().cells;
            assert_eq!(
                prefix[..],
                full.cells[..prefix.len()],
                "{budget_ms} ms budget"
            );
            assert_eq!(outcome.completed, prefix.len() == outcome.cells_total);
            if !outcome.completed && !prefix.is_empty() {
                cut_mid_plan = true;
                break;
            }
        }
        assert!(cut_mid_plan, "no budget expired mid-plan");
    }

    #[test]
    fn the_first_compile_error_in_plan_order_is_returned() {
        let wide = |n: usize| {
            let mut circuit = Circuit::new(n);
            circuit.h(Qubit(0));
            circuit.measure_all();
            CircuitSpec::new(format!("wide{n}"), circuit)
                .with_expected(vec![false; n])
                .unwrap()
        };
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Toffoli])
            .circuit(wide(17))
            .circuit(wide(20))
            .config("Qiskit", CompilerConfig::qiskit())
            .with_trials(256);
        for threads in [1, 2, 7] {
            let err = Session::new().with_threads(threads).run(&plan).unwrap_err();
            assert_eq!(
                err,
                CompileError::CircuitTooLarge {
                    program_qubits: 17,
                    hardware_qubits: 16
                },
                "{threads} threads"
            );
        }
    }

    #[test]
    fn cells_sharing_a_journal_key_replay_only_records_that_predate_the_run() {
        // Two labels for one configuration, a repeated day and a fixed
        // seed: cells 0, 1, 4 and 5 share one journal key, and cells 2,
        // 3, 6 and 7 share another.
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("A", CompilerConfig::qiskit())
            .config("B", CompilerConfig::qiskit())
            .days([0, 0])
            .with_trials(300)
            .fixed_sim_seed(3);
        let reference = Session::new().with_threads(1).run(&plan).unwrap();
        let canonical = reference.to_json_line_canonical();
        let cache_hits: Vec<bool> = reference.cells.iter().map(|c| c.cache_hit).collect();
        for threads in [1, 2, 7] {
            let path = temp_journal(&format!("shared-keys-{threads}.journal"));
            let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
            let fresh = Session::new()
                .with_threads(threads)
                .execute(&plan, &RunControl::unbounded(), Some(&mut journal))
                .unwrap();
            assert_eq!(fresh.report.resumed_cells, 0, "{threads} threads");
            let hits: Vec<bool> = fresh.report.cells.iter().map(|c| c.cache_hit).collect();
            assert_eq!(hits, cache_hits, "{threads} threads");
            assert_eq!(fresh.report.to_json_line_canonical(), canonical);
            // A rerun replays every cell under its own labels, whichever
            // cell's record landed last under the shared key.
            let rerun = Session::new()
                .with_threads(threads)
                .execute(&plan, &RunControl::unbounded(), Some(&mut journal))
                .unwrap();
            assert_eq!(rerun.report.resumed_cells, 8, "{threads} threads");
            assert_eq!(rerun.report.to_json_line_canonical(), canonical);
        }
    }

    #[test]
    fn a_panicking_cell_stops_further_claims() {
        // 129 classical bits overflow the simulator's bit-packed outcomes,
        // so the second cell compiles, then panics when simulated. The
        // first cell simulates long enough for that panic to stop the run.
        let mut wide = Circuit::new(129);
        wide.measure_all();
        let unscored = Benchmark::all().map(|b| CircuitSpec::new(b.to_string(), b.circuit()));
        let plan = unscored
            .into_iter()
            .fold(
                SweepPlan::new().benchmark(Benchmark::Toffoli).circuit(
                    CircuitSpec::new("wide", wide)
                        .with_expected(vec![false; 129])
                        .unwrap(),
                ),
                SweepPlan::circuit,
            )
            .config("Qiskit", CompilerConfig::qiskit())
            .grid_per_circuit()
            .with_trials(1 << 17);
        let path = temp_journal("panic.journal");
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Session::new().with_threads(2).execute(
                &plan,
                &RunControl::unbounded(),
                Some(&mut journal),
            )
        }));
        assert!(outcome.is_err(), "the cell's panic must reach the caller");
        // The worker holding the first cell finishes it and claims none of
        // the 12 compile-only cells after the panicking one.
        assert_eq!(journal.completed_cells(), 1);
    }

    #[test]
    fn try_machine_rejects_degenerate_specs_without_caching() {
        let mut session = Session::new();
        assert!(session
            .try_machine(TopologySpec::Ring { n: 2 }, 1, 0)
            .is_err());
        let ok = session
            .try_machine(TopologySpec::Ring { n: 4 }, 1, 0)
            .unwrap();
        let again = session
            .try_machine(TopologySpec::Ring { n: 4 }, 1, 0)
            .unwrap();
        assert!(Arc::ptr_eq(&ok, &again));
    }

    #[test]
    fn machines_are_shared_snapshots() {
        let mut session = Session::new();
        let a = session.machine(TopologySpec::Ibmq16, 2019, 0);
        let b = session.machine(TopologySpec::Ibmq16, 2019, 0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = session.machine(TopologySpec::Ibmq16, 2019, 1);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
