//! Equivalence and determinism properties of the trial-program simulator:
//!
//! * the fused, relabeled trial program is amplitude-identical to a naive
//!   gate-by-gate state-vector replay on random circuits,
//! * the native SWAP op (relabeling fast path + materializing slow path)
//!   reproduces the `expand_swaps()` 3-CNOT program bit for bit under the
//!   full noise model,
//! * `u64`-bit-packed aggregation matches a `Vec<bool>`-keyed reference
//!   aggregation,
//! * results are deterministic per seed and invariant under thread count.
//!
//! Each property runs over a deterministic, seeded sample of circuits
//! (`proptest` is unavailable offline; see shims/README.md).

use nisq::prelude::*;
use nisq_ir::{random_circuit, Gate, GateKind, Qubit, RandomCircuitConfig};
use nisq_sim::{BackendKind, NoiseModel, StateVector, TrialProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn machine() -> Machine {
    Machine::ibmq16_on_day(2019, 0)
}

/// A random circuit with explicit SWAP gates sprinkled in, ending in
/// `measure_all` (whose terminal sampling leaves the state uncollapsed).
fn random_circuit_with_swaps(qubits: usize, gates: usize, seed: u64) -> Circuit {
    let base = random_circuit(RandomCircuitConfig {
        measure_all: false,
        ..RandomCircuitConfig::new(qubits, gates, seed)
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157);
    let mut c = Circuit::new(qubits);
    for (i, gate) in base.iter().enumerate() {
        c.push(gate.clone());
        if i % 4 == 3 {
            let a = rng.gen_range(0..qubits);
            let mut b = rng.gen_range(0..qubits - 1);
            if b >= a {
                b += 1;
            }
            c.push(Gate::swap(Qubit(a), Qubit(b)));
        }
    }
    c.measure_all();
    c
}

#[test]
fn fused_program_is_amplitude_identical_to_naive_replay() {
    let m = machine();
    for seed in 0..20u64 {
        let qubits = 2 + (seed as usize % 4);
        let circuit = random_circuit_with_swaps(qubits, 24 + (seed as usize * 7) % 40, seed);

        let program = TrialProgram::lower(&circuit, &m, &NoiseModel::ideal());
        let mut scratch = program.make_scratch();
        let mut rng = TrialProgram::trial_rng(0, 0);
        let _ = program.run_trial(&mut scratch, &mut rng);

        // Naive reference: apply every gate one by one, no fusion, no
        // relabeling, skipping the measurements (terminal sampling leaves
        // the program state uncollapsed, so the states must agree).
        let mut naive = StateVector::new(qubits);
        for gate in circuit.iter() {
            match gate.kind() {
                GateKind::Cnot => naive.apply_cnot(gate.qubits()[0].0, gate.qubits()[1].0),
                GateKind::Swap => naive.apply_swap(gate.qubits()[0].0, gate.qubits()[1].0),
                GateKind::Measure | GateKind::Barrier => {}
                kind => naive.apply_single(gate.qubits()[0].0, kind),
            }
        }

        // Compare amplitude by amplitude, mapping program qubit `i` through
        // its current state slot (relabeling swaps permute slots) on the
        // program side and through its hardware index on the naive side.
        let k = program.num_qubits();
        assert_eq!(k, qubits, "random circuits touch every qubit");
        for assignment in 0..1usize << k {
            let mut program_index = 0usize;
            let mut naive_index = 0usize;
            for i in 0..k {
                if assignment >> i & 1 == 1 {
                    program_index |= 1 << scratch.slot_of(i);
                    naive_index |= 1 << program.touched()[i];
                }
            }
            let a = scratch.state().amplitude(program_index);
            let b = naive.amplitude(naive_index);
            assert!(
                (a - b).norm_sqr() < 1e-20,
                "seed {seed}, assignment {assignment:b}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn native_swaps_match_expanded_swaps_bit_for_bit() {
    // The native SWAP op (relabeling when no error fires, exact
    // materialization when one does) must reproduce the expanded 3-CNOT
    // program exactly — same seeds, same outcome counts — under full noise.
    let m = machine();
    for benchmark in [
        Benchmark::Bv4,
        Benchmark::Bv8,
        Benchmark::Toffoli,
        Benchmark::Adder,
    ] {
        let compiled = Compiler::new(&m, CompilerConfig::qiskit())
            .compile(&benchmark.circuit())
            .unwrap();
        let physical = compiled.physical_circuit();
        let expanded = physical.expand_swaps();
        for seed in [1u64, 7, 42] {
            let sim = Simulator::new(&m, SimulatorConfig::with_trials(512, seed));
            let native = sim.run(physical);
            let via_expansion = sim.run(&expanded);
            assert_eq!(
                native, via_expansion,
                "{benchmark} seed {seed}: native swaps diverged from expansion"
            );
        }
    }
}

#[test]
fn bitpacked_aggregation_matches_vec_bool_reference() {
    let m = machine();
    let circuit = random_circuit_with_swaps(4, 32, 3);
    let config = SimulatorConfig::with_trials(1024, 17);
    let sim = Simulator::new(&m, config);

    // Reference: replay each trial directly and aggregate Vec<bool> keys.
    // Bit-level comparison holds on the dense engine (the tableau matches
    // the reference in distribution only — see tests/tiered_engine.rs).
    let program = sim.prepare(&circuit);
    assert_eq!(program.backend_kind(), BackendKind::Dense);
    let mut scratch = program.make_scratch();
    let mut reference: BTreeMap<Vec<bool>, u32> = BTreeMap::new();
    for trial in 0..config.trials {
        let mut rng = TrialProgram::trial_rng(config.seed, trial);
        let key = program.run_trial(&mut scratch, &mut rng);
        let bits: Vec<bool> = (0..program.num_clbits())
            .map(|i| key >> i & 1 == 1)
            .collect();
        *reference.entry(bits).or_insert(0) += 1;
    }

    let result = sim.run(&circuit);
    assert_eq!(result.counts(), &reference);
    assert_eq!(result.trials(), config.trials);
}

#[test]
fn random_circuit_results_are_deterministic_and_thread_invariant() {
    let m = machine();
    for seed in [0u64, 5, 11] {
        let circuit = random_circuit_with_swaps(5, 48, seed);
        let mut config = SimulatorConfig::with_trials(1030, seed);
        config.threads = 1;
        let serial = Simulator::new(&m, config).run(&circuit);
        let serial_again = Simulator::new(&m, config).run(&circuit);
        assert_eq!(serial, serial_again, "seed {seed} not deterministic");
        for threads in [2, 4, 8] {
            config.threads = threads;
            let parallel = Simulator::new(&m, config).run(&circuit);
            assert_eq!(
                serial, parallel,
                "seed {seed} diverged at {threads} threads"
            );
        }
    }
}
