//! Property-based integration tests: for arbitrary random circuits and
//! calibration days, every compiler configuration must produce executables
//! that (a) respect the machine's connectivity, (b) compute exactly the same
//! function as the input circuit, and (c) carry internally-consistent
//! schedules and placements.
//!
//! `proptest` is unavailable offline (see shims/README.md), so each property
//! runs over a deterministic, seeded sample of the parameter space instead
//! of a shrinking search. Failures print the sampled case, which is fully
//! reproducible from the seed.

use nisq::prelude::*;
use nisq_ir::{random_circuit, RandomCircuitConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 12;

/// One sampled property case: circuit shape, circuit seed, calibration day.
#[derive(Debug, Clone, Copy)]
struct Case {
    qubits: usize,
    gates: usize,
    seed: u64,
    day: usize,
}

fn cases(property_seed: u64, max_qubits: usize, max_gates: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(property_seed);
    (0..CASES)
        .map(|_| Case {
            qubits: rng.gen_range(2..max_qubits),
            gates: rng.gen_range(4..max_gates),
            seed: rng.gen_range(0..1_000u64),
            day: rng.gen_range(0..4usize),
        })
        .collect()
}

/// Builds a small random circuit, keeping sizes modest so the exact solver
/// and the state-vector check stay fast across the sampled cases.
fn small_random_circuit(case: Case) -> Circuit {
    random_circuit(RandomCircuitConfig::new(case.qubits, case.gates, case.seed))
}

fn all_configs() -> Vec<CompilerConfig> {
    // Cap the exact solver's budget: random circuits have denser interaction
    // graphs than the paper benchmarks, and the property tests only need a
    // valid (not provably optimal) mapping from the SMT-style variants.
    CompilerConfig::table1()
        .into_iter()
        .map(|c| c.with_solver_budget(30_000, Some(std::time::Duration::from_millis(500))))
        .collect()
}

#[test]
fn compiled_circuits_compute_the_same_function() {
    for case in cases(0xC0FFEE, 6, 40) {
        let circuit = small_random_circuit(case);
        let machine = Machine::ibmq16_on_day(2019, case.day);
        // Reference: noiseless simulation of the logical circuit.
        let sim = Simulator::new(&machine, SimulatorConfig::ideal(64));
        let reference = sim.run(&circuit);

        for config in all_configs() {
            let compiled = Compiler::new(&machine, config).compile(&circuit).unwrap();
            let result = sim.run(compiled.physical_circuit());
            // The logical circuit measures every qubit once at the end, so
            // the output distributions must match. Compare the probability
            // of every outcome the reference observed.
            for (&key, &count) in reference.counts() {
                let bits: Vec<bool> = (0..circuit.num_clbits())
                    .map(|i| key >> i & 1 == 1)
                    .collect();
                let p_ref = count as f64 / reference.trials() as f64;
                let p_cmp = result.probability_of(&bits);
                assert!(
                    (p_ref - p_cmp).abs() < 0.35,
                    "{:?}: {} changed the distribution of {:?}: {p_ref} vs {p_cmp}",
                    case,
                    config.algorithm,
                    bits
                );
            }
        }
    }
}

#[test]
fn two_qubit_gates_are_always_adjacent_after_compilation() {
    for case in cases(0xAD0ACE17, 8, 60) {
        let circuit = small_random_circuit(case);
        let machine = Machine::ibmq16_on_day(7, 0);
        for config in all_configs() {
            let compiled = Compiler::new(&machine, config).compile(&circuit).unwrap();
            for gate in compiled.physical_circuit().expand_swaps().iter() {
                if gate.is_two_qubit() {
                    assert!(
                        machine
                            .topology()
                            .adjacent(HwQubit(gate.qubits()[0].0), HwQubit(gate.qubits()[1].0),),
                        "{case:?}: {} produced non-adjacent two-qubit gate {gate}",
                        config.algorithm
                    );
                }
            }
        }
    }
}

#[test]
fn placements_are_injective_and_schedules_respect_dependencies() {
    for case in cases(0x5C4ED01E, 8, 60) {
        let circuit = small_random_circuit(case);
        let machine = Machine::ibmq16_on_day(3, 1);
        let dag = circuit.dag();
        for config in all_configs() {
            let compiled = Compiler::new(&machine, config).compile(&circuit).unwrap();
            assert!(compiled.placement().validate(machine.num_qubits()).is_ok());
            let schedule = compiled.schedule();
            assert_eq!(schedule.gates.len(), circuit.len());
            for entry in &schedule.gates {
                for &pred in dag.predecessors(entry.gate_index) {
                    let pred_entry = schedule.entry(pred).unwrap();
                    assert!(
                        entry.start >= pred_entry.finish(),
                        "{case:?}: {} scheduled gate {} before its dependency",
                        config.algorithm,
                        entry.gate_index
                    );
                }
            }
        }
    }
}

#[test]
fn estimated_reliability_is_a_probability() {
    for case in cases(0x2E11AB1E, 6, 40) {
        let circuit = small_random_circuit(case);
        let machine = Machine::ibmq16_on_day(11, 0);
        for config in all_configs() {
            let compiled = Compiler::new(&machine, config).compile(&circuit).unwrap();
            let r = compiled.estimated_reliability();
            assert!(
                r > 0.0 && r <= 1.0,
                "{case:?}: {} reliability {r}",
                config.algorithm
            );
        }
    }
}

#[test]
fn qasm_emission_round_trips_for_random_circuits() {
    for case in cases(0x0A5A, 6, 40) {
        let circuit = small_random_circuit(case);
        let emitted = nisq::ir::qasm::emit(&circuit);
        let parsed = nisq::ir::qasm::parse(&emitted).unwrap();
        assert_eq!(parsed.len(), circuit.len(), "{case:?}");
        assert_eq!(parsed.cnot_count(), circuit.cnot_count(), "{case:?}");
    }
}
