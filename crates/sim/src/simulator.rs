use crate::backend::BackendKind;
use crate::engine::{EngineScratch, TerminalMemo, TierCounts, TieredEngine};
use crate::noise::NoiseModel;
use crate::program::TrialProgram;
use crate::result::SimulationResult;
use crate::tableau::TableauEngine;
use crate::workers::run_workers;
use nisq_core::CompiledCircuit;
use nisq_ir::Circuit;
use nisq_machine::Machine;
use nisq_noise::NoiseSpec;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Trials per parallel work unit. Every trial draws from its own
/// `(seed, trial)` stream and its tier depends on that trial alone, so
/// neither outcomes nor tier counts depend on the partition: the fixed size
/// only sets the granularity of work — how many error trials share one
/// dense prefix walk, and how finely workers balance.
const TRIAL_CHUNK: u32 = 256;

/// Configuration of a multi-trial noisy simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatorConfig {
    /// Number of trials per run (the paper uses 8192 on IBMQ16).
    pub trials: u32,
    /// Base RNG seed; each trial derives its own stream, so results do not
    /// depend on how trials are distributed over threads.
    pub seed: u64,
    /// Which error channels to inject.
    pub noise: NoiseModel,
    /// Number of worker threads (trials are embarrassingly parallel).
    pub threads: usize,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            trials: 8192,
            seed: 0,
            noise: NoiseModel::full(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        }
    }
}

impl SimulatorConfig {
    /// A configuration with the given trial count and seed, full noise.
    pub fn with_trials(trials: u32, seed: u64) -> Self {
        SimulatorConfig {
            trials,
            seed,
            ..SimulatorConfig::default()
        }
    }

    /// A noiseless configuration (used to validate circuit semantics).
    pub fn ideal(trials: u32) -> Self {
        SimulatorConfig {
            trials,
            seed: 0,
            noise: NoiseModel::ideal(),
            ..SimulatorConfig::default()
        }
    }
}

/// Noisy state-vector simulator bound to one machine snapshot.
///
/// Circuits handed to [`Simulator::run`] are *physical* circuits: their
/// qubit indices are hardware qubit indices on the machine (the output of
/// [`nisq_core::Compiler::compile`]). The simulator only allocates state for
/// the qubits the circuit actually touches, so even executables for large
/// machines simulate quickly as long as the program itself is small.
///
/// Internally, `run` lowers the circuit **once** into a [`TrialProgram`]
/// (pre-resolved indices, pre-fetched calibration data, fused unitaries —
/// see [`crate::program`]) and then replays that flat program for every
/// trial; callers that simulate the same executable repeatedly can lower
/// once themselves via [`Simulator::prepare`] and pass the program to
/// [`Simulator::run_program`].
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    machine: &'m Machine,
    config: SimulatorConfig,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator for a machine snapshot.
    pub fn new(machine: &'m Machine, config: SimulatorConfig) -> Self {
        Simulator { machine, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Lowers a physical circuit into a replayable trial program under this
    /// simulator's noise model.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references qubits outside the machine or uses
    /// more than 128 classical bits.
    pub fn prepare(&self, physical: &Circuit) -> TrialProgram {
        self.prepare_with_noise(physical, None)
    }

    /// Like [`Simulator::prepare`], additionally binding the channels of a
    /// declarative [`NoiseSpec`] on top of the configured built-in
    /// [`NoiseModel`]. `None` is exactly [`Simulator::prepare`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit references qubits outside the machine or uses
    /// more than 128 classical bits.
    pub fn prepare_with_noise(&self, physical: &Circuit, spec: Option<&NoiseSpec>) -> TrialProgram {
        TrialProgram::lower_with_spec(physical, self.machine, &self.config.noise, spec)
    }

    /// Runs the configured number of trials of a physical circuit and
    /// aggregates the measured bit-strings.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references qubits outside the machine.
    pub fn run(&self, physical: &Circuit) -> SimulationResult {
        self.run_program(&self.prepare(physical))
    }

    /// Runs the configured number of trials of an already-lowered program.
    ///
    /// The program's [`BackendKind`] picks the engine. Dense programs run
    /// on the three-tier [`TieredEngine`]: error patterns are pre-sampled
    /// per trial, error-free trials are served from the precomputed ideal
    /// terminal distribution, error trials resume from a shared
    /// ideal-prefix checkpoint, and only the rest replay in full; outcomes
    /// are bit-identical to a [`TrialProgram::run_trial`] loop.
    /// Fully-Clifford programs run on the stabilizer tableau
    /// ([`crate::tableau`]), whose outcomes match that loop in
    /// distribution. Either way results are bit-for-bit deterministic for
    /// a seed and independent of the thread count.
    pub fn run_program(&self, program: &TrialProgram) -> SimulationResult {
        self.run_program_with_stats(program).0
    }

    /// Like [`Simulator::run_program`], additionally reporting how many
    /// trials each engine tier served (and which backend served them).
    pub fn run_program_with_stats(&self, program: &TrialProgram) -> (SimulationResult, TierCounts) {
        let trials = self.config.trials;
        let seed = self.config.seed;
        let engine = match program.backend_kind() {
            BackendKind::Dense => ChunkEngine::Dense(TieredEngine::new(program)),
            BackendKind::Tableau => ChunkEngine::Tableau(TableauEngine::new(program)),
        };

        // Workers pull fixed-size chunks from one cursor, so *everything*
        // the engine reports — outcomes and tier counts alike — is a pure
        // function of (program, seed, trials), whatever the thread count
        // and whichever worker runs which chunk. The cursor publishes no
        // data (counts come back through the workers' join), so `Relaxed`
        // suffices.
        let chunks = trials.div_ceil(TRIAL_CHUNK);
        let next = AtomicU32::new(0);
        let threads = self.config.threads.min(chunks as usize);
        let mut partials = run_workers(threads, || {
            let mut counts = FxHashMap::default();
            let mut tiers = TierCounts::default();
            // A dense worker's scratch, built on its first chunk, and its
            // terminal memo serve every chunk it pulls of this program, and
            // go with the call.
            let mut scratch = None;
            let mut memo = TerminalMemo::default();
            loop {
                let chunk = next.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    return (counts, tiers);
                }
                let start = chunk * TRIAL_CHUNK;
                let end = start.saturating_add(TRIAL_CHUNK).min(trials);
                match &engine {
                    ChunkEngine::Dense(dense) => dense.run_chunk(
                        seed,
                        start..end,
                        scratch.get_or_insert_with(|| EngineScratch::new(program)),
                        &mut memo,
                        &mut counts,
                        &mut tiers,
                    ),
                    ChunkEngine::Tableau(tableau) => {
                        tableau.run_chunk(seed, start..end, &mut counts, &mut tiers)
                    }
                }
            }
        })
        .into_iter();
        // Count merging is commutative, so the final map does not depend
        // on which worker ran which chunk.
        let (mut counts, mut tiers) = partials
            .next()
            .expect("run_workers runs at least one worker");
        for (partial, partial_tiers) in partials {
            for (key, count) in partial {
                *counts.entry(key).or_insert(0) += count;
            }
            tiers.merge(&partial_tiers);
        }
        (
            SimulationResult::from_bitpacked(counts, program.num_clbits()),
            tiers,
        )
    }

    /// Runs the circuit without any noise (regardless of the configured
    /// noise model), useful for checking circuit semantics.
    pub fn run_ideal(&self, physical: &Circuit) -> SimulationResult {
        let ideal = Simulator {
            machine: self.machine,
            config: SimulatorConfig {
                noise: NoiseModel::ideal(),
                ..self.config
            },
        };
        ideal.run(physical)
    }

    /// Convenience wrapper: simulates a compiled executable and returns the
    /// fraction of trials that produced `expected` — the paper's success
    /// rate.
    pub fn success_rate(&self, compiled: &CompiledCircuit, expected: &[bool]) -> f64 {
        self.run(compiled.physical_circuit())
            .probability_of(expected)
    }
}

/// The per-program engine a run dispatches its chunks through: the dense
/// three-tier engine, or the stabilizer-tableau engine for fully-Clifford
/// programs.
#[derive(Debug)]
enum ChunkEngine<'p> {
    Dense(TieredEngine<'p>),
    Tableau(TableauEngine<'p>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_core::{Compiler, CompilerConfig};
    use nisq_ir::Benchmark;

    fn machine() -> Machine {
        Machine::ibmq16_on_day(2, 0)
    }

    #[test]
    fn ideal_simulation_reproduces_benchmark_answers() {
        // Validates both the benchmark constructions and the simulator: with
        // no noise, every benchmark returns its classically-known answer in
        // every trial.
        let m = machine();
        let sim = Simulator::new(&m, SimulatorConfig::ideal(64));
        for b in Benchmark::all() {
            let result = sim.run(&b.circuit());
            let expected = b.expected_output();
            assert!(
                (result.probability_of(&expected) - 1.0).abs() < 1e-12,
                "{b} produced {result}"
            );
        }
    }

    #[test]
    fn ideal_simulation_of_compiled_circuits_matches_logical_answers() {
        // The compiled physical circuit (with placement and swap insertion)
        // must compute the same function as the logical circuit.
        let m = machine();
        let sim = Simulator::new(&m, SimulatorConfig::ideal(32));
        for config in CompilerConfig::table1() {
            let compiler = Compiler::new(&m, config);
            for b in [
                Benchmark::Bv4,
                Benchmark::Toffoli,
                Benchmark::Adder,
                Benchmark::Hs4,
            ] {
                let compiled = compiler.compile(&b.circuit()).unwrap();
                let result = sim.run(compiled.physical_circuit());
                assert!(
                    (result.probability_of(&b.expected_output()) - 1.0).abs() < 1e-12,
                    "{} mis-compiled {b}: {result}",
                    config.algorithm
                );
            }
        }
    }

    #[test]
    fn noise_reduces_success_rate() {
        let m = machine();
        let compiled = Compiler::new(&m, CompilerConfig::qiskit())
            .compile(&Benchmark::Toffoli.circuit())
            .unwrap();
        let noisy = Simulator::new(&m, SimulatorConfig::with_trials(512, 1));
        let success = noisy.success_rate(&compiled, &Benchmark::Toffoli.expected_output());
        assert!(success < 1.0);
        assert!(success > 0.0);
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let m = machine();
        let compiled = Compiler::new(&m, CompilerConfig::greedy_e())
            .compile(&Benchmark::Bv4.circuit())
            .unwrap();
        let sim = Simulator::new(&m, SimulatorConfig::with_trials(256, 9));
        let a = sim.run(compiled.physical_circuit());
        let b = sim.run(compiled.physical_circuit());
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = machine();
        let compiled = Compiler::new(&m, CompilerConfig::greedy_v())
            .compile(&Benchmark::Peres.circuit())
            .unwrap();
        // 2050 trials spans multiple chunks with a ragged tail, exercising
        // the partition logic rather than just the serial path.
        let mut cfg = SimulatorConfig::with_trials(2050, 4);
        cfg.threads = 1;
        let serial = Simulator::new(&m, cfg).run(compiled.physical_circuit());
        for threads in [2, 3, 4, 7] {
            cfg.threads = threads;
            let parallel = Simulator::new(&m, cfg).run(compiled.physical_circuit());
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn prepared_program_reuse_matches_run() {
        let m = machine();
        let compiled = Compiler::new(&m, CompilerConfig::greedy_e())
            .compile(&Benchmark::Hs4.circuit())
            .unwrap();
        let sim = Simulator::new(&m, SimulatorConfig::with_trials(512, 11));
        let program = sim.prepare(compiled.physical_circuit());
        let via_program = sim.run_program(&program);
        let via_run = sim.run(compiled.physical_circuit());
        assert_eq!(via_program, via_run);
    }

    #[test]
    fn better_mappings_give_higher_success() {
        // The core claim of the paper, in miniature: the noise-adaptive
        // optimal mapping beats the noise-unaware baseline under the same
        // noise. Averaged over several benchmarks to keep the test robust.
        let m = machine();
        let sim = Simulator::new(&m, SimulatorConfig::with_trials(1024, 3));
        let mut adaptive_total = 0.0;
        let mut baseline_total = 0.0;
        for b in [Benchmark::Bv4, Benchmark::Bv8, Benchmark::Hs4] {
            let expected = b.expected_output();
            let adaptive = Compiler::new(&m, CompilerConfig::r_smt_star(0.5))
                .compile(&b.circuit())
                .unwrap();
            let baseline = Compiler::new(&m, CompilerConfig::qiskit())
                .compile(&b.circuit())
                .unwrap();
            adaptive_total += sim.success_rate(&adaptive, &expected);
            baseline_total += sim.success_rate(&baseline, &expected);
        }
        assert!(
            adaptive_total > baseline_total,
            "adaptive {adaptive_total} <= baseline {baseline_total}"
        );
    }

    #[test]
    fn analytic_estimate_tracks_measured_success() {
        // The analytic reliability score and the simulated success rate
        // should agree in ordering for clearly-separated mappings.
        let m = machine();
        let sim = Simulator::new(&m, SimulatorConfig::with_trials(1024, 5));
        let b = Benchmark::Bv8;
        let good = Compiler::new(&m, CompilerConfig::r_smt_star(0.5))
            .compile(&b.circuit())
            .unwrap();
        let bad = Compiler::new(&m, CompilerConfig::qiskit())
            .compile(&b.circuit())
            .unwrap();
        let good_measured = sim.success_rate(&good, &b.expected_output());
        let bad_measured = sim.success_rate(&bad, &b.expected_output());
        assert!(good.estimated_reliability() > bad.estimated_reliability());
        assert!(good_measured > bad_measured);
    }
}
