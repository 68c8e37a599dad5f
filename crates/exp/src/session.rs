//! The long-lived experiment executor.

use crate::journal::{CellKey, Journal};
use crate::plan::{Cell, SweepPlan};
use crate::report::{CacheStats, CellRecord, Report, TierStats};
use nisq_core::{CompileError, CompiledCircuit, Compiler, CompilerConfig, Placement};
use nisq_ir::Circuit;
use nisq_machine::{Machine, MachineError, TopologySpec};
use nisq_sim::{run_workers, Simulator, SimulatorConfig};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Key of the full-compile cache: circuit, machine and config fingerprints.
/// The placement memo uses the same shape, with the topology fingerprint in
/// the machine's place for calibration-unaware configs.
type CompileKey = (u64, u64, u64);

/// The two cache keys of one compile.
#[derive(Debug, Clone, Copy)]
struct Keys {
    compile: CompileKey,
    place: CompileKey,
}

fn compile_keys(machine: &Machine, config: &CompilerConfig, circuit: &Circuit) -> Keys {
    let compile = (
        circuit.fingerprint(),
        machine.fingerprint(),
        config.fingerprint(),
    );
    // Calibration-aware placement tracks the day's error rates; the others
    // place from the coupling graph alone.
    let place = if config.calibration_aware() {
        compile
    } else {
        (compile.0, machine.topology().fingerprint(), compile.2)
    };
    Keys { compile, place }
}

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
/// * **a placement memo** — the placement of every compile, keyed on the
///   circuit, config and machine fingerprints, with the topology's in the
///   machine's place for calibration-unaware configurations (Qiskit,
///   T-SMT), which place from the coupling graph alone. A compile-cache
///   *miss* hands a memoized placement to [`Compiler::compile_placed`], so
///   a day sweep runs such a configuration's placement once per circuit,
///   not once per day.
///
/// [`Session::execute`] runs a plan's cells on the session's worker
/// threads. Workers claim cells in plan order under one lock, which only
/// decides each cell's part in the caches (a hit, the owner of a compile
/// or a waiter on an earlier claim's); compiles and simulations run
/// outside it, in parallel. Each cell replays its trials with a
/// deterministic per-cell stream, so results and cache provenance are
/// independent of thread count and identical to a serial run.
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
    placements: FxHashMap<CompileKey, Placement>,
    compile_requests: u64,
    compile_hits: u64,
    place_hits: u64,
    place_runs: u64,
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
            placements: FxHashMap::default(),
            compile_requests: 0,
            compile_hits: 0,
            place_hits: 0,
            place_runs: 0,
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
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec; [`Session::try_machine`] returns the
    /// error instead.
    pub fn machine(&mut self, spec: TopologySpec, seed: u64, day: usize) -> Arc<Machine> {
        self.try_machine(spec, seed, day)
            .expect("degenerate topology spec")
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
    /// A miss compiles from the memoized placement when the session holds
    /// one for the key, and memoizes the placement it ran otherwise.
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
        let keys = compile_keys(machine, config, circuit);
        self.compile_requests += 1;
        if let Some(hit) = self.compiled.get(&keys.compile) {
            self.compile_hits += 1;
            return Ok((hit.clone(), true));
        }
        let held = self.placements.get(&keys.place);
        let compiled = Compiler::new(machine, *config).compile_placed(circuit, held)?;
        let held = held.is_some();
        Ok((self.store(keys, held, compiled), false))
    }

    /// Enters a compile-cache miss's result under its keys and counts its
    /// placement: a memo hit when it compiled from a `held` placement, a
    /// run (memoized here) otherwise.
    fn store(&mut self, keys: Keys, held: bool, compiled: CompiledCircuit) -> Arc<CompiledCircuit> {
        if held {
            self.place_hits += 1;
        } else {
            self.place_runs += 1;
            self.placements
                .insert(keys.place, compiled.placement().clone());
        }
        let compiled = Arc::new(compiled);
        self.compiled.insert(keys.compile, compiled.clone());
        compiled
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

    /// Cache behaviour accumulated over the session's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            compile_requests: self.compile_requests,
            compile_hits: self.compile_hits,
            place_hits: self.place_hits,
            place_runs: self.place_runs,
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
    /// degenerate topology is a typed error, not a panic) and looks its
    /// compile up in the caches, which makes the cell a hit, the owner of
    /// its compile key or a waiter on it. The first claim in plan order of
    /// a compile key or a placement key owns it: once the lock is released
    /// it compiles (from the memoized placement, or running the placement
    /// itself), then enters the result under the lock and wakes the claims
    /// waiting on its keys. A later claim whose key is still in flight
    /// waits for the owner and counts what a serial run counts: a compile
    /// waiter is a cache hit, a placement waiter a memo hit. Waits point
    /// only at earlier claims, so they cannot cycle; a waiter whose owner
    /// failed stops without compiling. Cache statistics, every cell's
    /// `cache_hit` and the error returned are therefore those of a serial
    /// run at any thread count.
    ///
    /// Each worker simulates its cell outside the lock too, and since every
    /// claimed cell finishes, a cut run reports the longest plan-order
    /// prefix of cells; up to one cell per worker may still be running
    /// when a deadline passes. The run uses one worker per cell, up to the
    /// thread budget, and splits each simulated cell's trial chunks over
    /// the threads left per simulated cell, so a lone simulated cell gets
    /// every thread. Each cell replays its trials from its own
    /// deterministic stream, so reports do not depend on the thread count.
    /// A worker that panics stops further claims and wakes the claims
    /// waiting on it; its panic reaches the caller once the cells in
    /// flight finish.
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
    /// executed are discarded (though a journal keeps them), and compiles
    /// of cells claimed after the failing one may stay in the caches.
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
        let simulated = cells
            .iter()
            .filter(|cell| trials > 0 && plan.circuits()[cell.circuit].expected.is_some())
            .count();
        // The one thread-split decision: every cell gets a worker, up to
        // the thread budget, so a compile-only plan compiles on every
        // thread; a simulated cell splits its trial chunks over the threads
        // left per simulated cell, so a lone simulated cell gets every
        // thread.
        let workers = self.threads.min(cells.len().max(1));
        let sim_threads = (self.threads / self.threads.min(simulated.max(1))).max(1);

        let shared = Shared::new(self, journal);
        let finished = run_workers(workers, || {
            let _stop = StopOnPanic(&shared);
            let mut done = Vec::new();
            // A poisoned lock means another worker panicked mid-claim: stop
            // claiming and let its panic reach the caller.
            while let Some((index, claim)) = shared
                .claims
                .lock()
                .ok()
                .and_then(|mut claims| claims.claim(plan, &cells, control))
            {
                let record = match claim {
                    Claim::Journaled(record) => record,
                    Claim::Compile {
                        machine,
                        compile,
                        key,
                    } => {
                        let cell = &cells[index];
                        let cache_hit = !matches!(compile, Compile::Own { .. });
                        // No executable: the compile this cell needed failed
                        // or a worker panicked, and either fails the run.
                        let Some(executable) =
                            shared.executable(index, plan, cell, &machine, compile)
                        else {
                            break;
                        };
                        let record =
                            run_cell(plan, cell, &machine, &executable, cache_hit, sim_threads);
                        if let Some(key) = key {
                            // A poisoned lock means another worker's panic
                            // is failing the run: skip the record.
                            if let Ok(mut claims) = shared.claims.lock() {
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
        } = shared
            .claims
            .into_inner()
            .expect("run_workers re-raises the panic of a worker that poisoned the lock");
        if let Some((_, err)) = error {
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

/// What [`Session::execute`]'s workers share: the claim state behind its
/// one lock, and the condvar on which claims wait for an earlier claim's
/// compile or placement to land.
struct Shared<'s, 'j> {
    claims: Mutex<Claims<'s, 'j>>,
    landed: Condvar,
}

/// What [`Session::execute`]'s workers share under its one lock: the
/// session's caches, the journal, the plan-order claim cursor and the keys
/// claims are computing outside it.
struct Claims<'s, 'j> {
    session: &'s mut Session,
    journal: Option<&'j mut Journal>,
    /// Journal keys of the cells this run computes. A later cell with one
    /// of these keys computes too rather than replaying a record that may
    /// or may not have landed yet, so only records that predate the run
    /// replay.
    computed: FxHashSet<CellKey>,
    /// Compile keys whose owning claim has not landed its compile yet.
    compiling: FxHashSet<CompileKey>,
    /// Placement keys whose owning claim has not landed its placement yet.
    placing: FxHashSet<CompileKey>,
    /// Cells claimed so far: the plan-order prefix `0..claimed`.
    claimed: usize,
    /// Claimed cells the journal already held.
    journal_hits: u64,
    /// Set once the control block cut the run, a compile failed or a
    /// worker panicked.
    stopped: bool,
    /// Set once a worker panicked: nothing in flight lands any more.
    panicked: bool,
    /// The failing claim's index and error, the earliest in plan order.
    error: Option<(usize, CompileError)>,
}

/// A claimed cell: its journaled record, or what simulating it needs.
enum Claim {
    Journaled(CellRecord),
    Compile {
        machine: Arc<Machine>,
        compile: Compile,
        /// The cell's journal key, when the run is journaled.
        key: Option<CellKey>,
    },
}

/// Where a claimed cell's executable comes from.
enum Compile {
    /// The compile cache.
    Hit(Arc<CompiledCircuit>),
    /// An earlier claim that owns the compile key; a serial run would find
    /// its compile in the cache.
    Await(CompileKey),
    /// This claim, which owns the compile key.
    Own { keys: Keys, place: Place },
}

/// Where an owned compile's placement comes from.
enum Place {
    /// The placement memo.
    Held(Placement),
    /// An earlier claim that owns the placement key; a serial run would
    /// find its placement in the memo.
    Await,
    /// The configuration's algorithm: this claim owns the placement key.
    Run,
}

impl Claims<'_, '_> {
    /// Claims the next plan cell, or `None` once the plan is exhausted,
    /// the control block cuts the run, or its claim fails (recorded in
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
                self.fail(index, err);
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
        let keys = compile_keys(&machine, config, &spec.circuit);
        let session = &mut *self.session;
        session.compile_requests += 1;
        let compile = if let Some(hit) = session.compiled.get(&keys.compile) {
            session.compile_hits += 1;
            Compile::Hit(hit.clone())
        } else if self.compiling.contains(&keys.compile) {
            session.compile_hits += 1;
            Compile::Await(keys.compile)
        } else {
            self.compiling.insert(keys.compile);
            let place = if let Some(held) = session.placements.get(&keys.place) {
                Place::Held(held.clone())
            } else if self.placing.insert(keys.place) {
                Place::Run
            } else {
                Place::Await
            };
            Compile::Own { keys, place }
        };
        Ok(Claim::Compile {
            machine,
            compile,
            key,
        })
    }

    /// Records claim `index`'s compile error and stops the run. Claims
    /// compile out of plan order, so an error found later for an earlier
    /// cell replaces the one held: the run returns the first in plan order.
    fn fail(&mut self, index: usize, err: CompileError) {
        self.stopped = true;
        if self.error.as_ref().is_none_or(|(first, _)| index < *first) {
            self.error = Some((index, err));
        }
    }
}

impl<'s, 'j> Shared<'s, 'j> {
    fn new(session: &'s mut Session, journal: Option<&'j mut Journal>) -> Self {
        Shared {
            claims: Mutex::new(Claims {
                session,
                journal,
                computed: FxHashSet::default(),
                compiling: FxHashSet::default(),
                placing: FxHashSet::default(),
                claimed: 0,
                journal_hits: 0,
                stopped: false,
                panicked: false,
                error: None,
            }),
            landed: Condvar::new(),
        }
    }

    /// The executable of claimed cell `index`, compiled outside the lock
    /// when the claim owns its compile key. `None` when a compile or
    /// placement it needed failed, or a worker panicked.
    fn executable(
        &self,
        index: usize,
        plan: &SweepPlan,
        cell: &Cell,
        machine: &Machine,
        compile: Compile,
    ) -> Option<Arc<CompiledCircuit>> {
        let (keys, place) = match compile {
            Compile::Hit(executable) => return Some(executable),
            Compile::Await(key) => {
                return self.await_landed(
                    |claims| claims.compiling.contains(&key),
                    |claims| claims.session.compiled.get(&key).cloned(),
                )
            }
            Compile::Own { keys, place } => (keys, place),
        };
        let owns_place = matches!(place, Place::Run);
        let held = match place {
            Place::Held(placement) => Some(Some(placement)),
            Place::Run => Some(None),
            Place::Await => self
                .await_landed(
                    |claims| claims.placing.contains(&keys.place),
                    |claims| claims.session.placements.get(&keys.place).cloned(),
                )
                .map(Some),
        };
        let spec = &plan.circuits()[cell.circuit];
        let config = plan.configs()[cell.config].1;
        let compiled = held.map(|held| {
            let compiled =
                Compiler::new(machine, config).compile_placed(&spec.circuit, held.as_ref());
            (compiled, held.is_some())
        });

        let mut claims = self.claims.lock().ok()?;
        claims.compiling.remove(&keys.compile);
        if owns_place {
            claims.placing.remove(&keys.place);
        }
        let executable = match compiled {
            Some((Ok(compiled), held)) => Some(claims.session.store(keys, held, compiled)),
            Some((Err(err), _)) => {
                claims.fail(index, err);
                None
            }
            // The placement's owner failed, and that fails the run.
            None => None,
        };
        drop(claims);
        self.landed.notify_all();
        executable
    }

    /// Waits while `pending` holds, that is while an earlier claim still
    /// computes what this one needs, then returns what `landed` finds:
    /// nothing when that claim failed, a worker panicked or the lock is
    /// poisoned.
    fn await_landed<T>(
        &self,
        pending: impl Fn(&Claims<'s, 'j>) -> bool,
        landed: impl FnOnce(&Claims<'s, 'j>) -> Option<T>,
    ) -> Option<T> {
        let mut claims = self.claims.lock().ok()?;
        while pending(&claims) && !claims.panicked {
            claims = self.landed.wait(claims).ok()?;
        }
        landed(&claims)
    }
}

/// Held by each of [`Session::execute`]'s workers: when the worker unwinds,
/// it stops further claims and wakes every waiting claim, so none waits on
/// a compile that will not land and the panic reaches the caller once the
/// cells in flight finish.
struct StopOnPanic<'a, 's, 'j>(&'a Shared<'s, 'j>);

impl Drop for StopOnPanic<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut claims = self.0.claims.lock().unwrap_or_else(PoisonError::into_inner);
            claims.stopped = true;
            claims.panicked = true;
            drop(claims);
            self.0.landed.notify_all();
        }
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
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
    fn compile_provenance_does_not_depend_on_the_thread_count() {
        let compile_only = SweepPlan::new()
            .benchmarks(Benchmark::all())
            .table1_configs()
            .days(0..2);
        // Adjacent cells share a compile key, and day 1 shares day 0's
        // placement keys.
        let two_labels = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs4, Benchmark::Toffoli])
            .config("A", CompilerConfig::qiskit())
            .config("B", CompilerConfig::qiskit())
            .days(0..2)
            .with_trials(64);
        for (name, plan) in [
            ("compile-only", compile_only),
            ("mixed", mixed_plan()),
            ("two labels", two_labels),
        ] {
            let serial = Session::new().with_threads(1).run(&plan).unwrap();
            let hits = |report: &Report| -> Vec<bool> {
                report.cells.iter().map(|c| c.cache_hit).collect()
            };
            for threads in [2, 7] {
                let report = Session::new().with_threads(threads).run(&plan).unwrap();
                assert_eq!(report.cache, serial.cache, "{name} at {threads} threads");
                assert_eq!(hits(&report), hits(&serial), "{name} at {threads} threads");
                assert_eq!(
                    report.to_json_line_canonical(),
                    serial.to_json_line_canonical(),
                    "{name} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_failed_compile_wakes_its_waiters() {
        let mut wide = Circuit::new(17);
        wide.h(Qubit(0));
        wide.measure_all();
        // Both cells have one compile key: a claim of the second while the
        // first compiles waits on it, and must wake when it fails.
        let plan = SweepPlan::new()
            .circuit(CircuitSpec::new("wide17", wide))
            .config("A", CompilerConfig::qiskit())
            .config("B", CompilerConfig::qiskit());
        let too_large = CompileError::CircuitTooLarge {
            program_qubits: 17,
            hardware_qubits: 16,
        };
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let runs: Vec<_> = (0..20)
                .map(|_| Session::new().with_threads(7).run(&plan).map(|_| ()))
                .collect();
            // The failing compile is too quick for a run to catch the
            // second claim waiting reliably, so claim both cells by hand
            // and land the owner's failure after a pause that lets the
            // waiter park; it must stop in either order.
            let mut session = Session::new();
            let shared = Shared::new(&mut session, None);
            let cells = plan.cells();
            let claim = || {
                let claimed =
                    shared
                        .claims
                        .lock()
                        .unwrap()
                        .claim(&plan, &cells, &RunControl::unbounded());
                match claimed {
                    Some((
                        index,
                        Claim::Compile {
                            machine, compile, ..
                        },
                    )) => (index, machine, compile),
                    _ => unreachable!("both cells compile"),
                }
            };
            let (owner, waiter) = (claim(), claim());
            assert!(matches!(waiter.2, Compile::Await(_)));
            let woken = std::thread::scope(|scope| {
                let parked = scope.spawn(|| {
                    let (index, machine, compile) = waiter;
                    shared.executable(index, &plan, &cells[index], &machine, compile)
                });
                std::thread::sleep(Duration::from_millis(50));
                let (index, machine, compile) = owner;
                assert!(shared
                    .executable(index, &plan, &cells[index], &machine, compile)
                    .is_none());
                parked.join().unwrap()
            });
            let error = shared.claims.into_inner().unwrap().error;
            done.send((runs, woken.is_none(), error)).unwrap();
        });
        let (runs, waiter_stopped, error) = result
            .recv_timeout(Duration::from_secs(10))
            .expect("a waiter was never woken");
        for outcome in runs {
            assert_eq!(outcome, Err(too_large.clone()));
        }
        assert!(waiter_stopped, "the waiter must stop without compiling");
        assert_eq!(error, Some((0, too_large)));
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

    /// A cell that compiles, then panics when simulated: 129 classical
    /// bits overflow the simulator's bit-packed outcomes (`with_expected`
    /// refuses such a circuit, so its answer is set directly).
    fn panicking_cell() -> CircuitSpec {
        CircuitSpec {
            name: "wide".to_string(),
            circuit: nisq_ir::qasm::parse("qreg q[1]; creg c[129]; measure q[0] -> c[128];")
                .unwrap(),
            expected: Some(vec![false; 129]),
        }
    }

    #[test]
    fn a_panicking_cell_stops_further_claims() {
        // The second cell panics when simulated. Its one qubit compiles at
        // once, so the panic stops the run while the first cell's 2^17
        // trials still simulate; a worker that claims it only after the
        // first cell panics on it itself.
        let unscored = Benchmark::all().map(|b| CircuitSpec::new(b.to_string(), b.circuit()));
        let plan = unscored
            .into_iter()
            .fold(
                SweepPlan::new()
                    .benchmark(Benchmark::Toffoli)
                    .circuit(panicking_cell()),
                SweepPlan::circuit,
            )
            .config("Qiskit", CompilerConfig::qiskit())
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
    fn a_session_keeps_its_caches_after_a_panicking_run() {
        let mut session = Session::new().with_threads(2);
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Toffoli])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(256);
        let first = session.run(&plan).unwrap();
        let panicking = SweepPlan::new()
            .circuit(panicking_cell())
            .config("Qiskit", CompilerConfig::qiskit())
            .with_trials(64);
        let outcome = catch_unwind(AssertUnwindSafe(|| session.run(&panicking)));
        assert!(outcome.is_err(), "the cell's panic must reach the caller");
        // The same session answers the first plan again from its caches.
        let rerun = session.run(&plan).unwrap();
        assert!(rerun.cells.iter().all(|c| c.cache_hit));
        assert_eq!(
            rerun.to_json_line_canonical(),
            first.to_json_line_canonical()
        );
    }

    #[test]
    fn aware_configs_key_on_the_day_unaware_on_topology() {
        let mut session = Session::new();
        let day0 = session.machine(TopologySpec::Ibmq16, 5, 0);
        let day3 = session.machine(TopologySpec::Ibmq16, 5, 3);
        let circuit = Benchmark::Bv4.circuit();
        // A calibration-aware config places on each day; an unaware one
        // places once and reuses it on the other day.
        for (config, place_runs) in [
            (CompilerConfig::greedy_e(), 2),
            (CompilerConfig::qiskit(), 1),
        ] {
            let before = session.cache_stats();
            session.compile(&day0, &config, &circuit).unwrap();
            session.compile(&day3, &config, &circuit).unwrap();
            let after = session.cache_stats();
            assert_eq!(after.place_runs - before.place_runs, place_runs, "{config}");
            assert_eq!(
                after.place_hits - before.place_hits,
                2 - place_runs,
                "{config}"
            );
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut session = Session::new();
        let day0 = session.machine(TopologySpec::Ibmq16, 5, 0);
        let day1 = session.machine(TopologySpec::Ibmq16, 5, 1);
        let circuit = Benchmark::Bv4.circuit();
        let config = CompilerConfig::qiskit();
        let placed = session.compile(&day0, &config, &circuit).unwrap();
        let held = session.compile(&day1, &config, &circuit).unwrap();
        assert_eq!(held.placement(), placed.placement());
        let stats = session.cache_stats();
        assert_eq!((stats.place_hits, stats.place_runs), (1, 1));
        assert_eq!(session.placements.len(), 1);
        // A repeated triple is a full-compile hit and never reaches the
        // placement memo.
        session.compile(&day1, &config, &circuit).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.compile_hits, 1);
        assert_eq!((stats.place_hits, stats.place_runs), (1, 1));
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
