//! Multi-backend scenarios: the compiler pipeline on pluggable machine
//! topologies (grids, rings, heavy-hex lattices).
//!
//! Every executable is validated two ways: all two-qubit gates respect the
//! machine's coupling graph, and a noiseless simulation reproduces the
//! benchmark's classically-known answer — so routing, the swap-back
//! round trips and the placement of measurements are verified end to end.

use nisq::prelude::*;

fn assert_respects_connectivity(machine: &Machine, compiled: &CompiledCircuit, label: &str) {
    for gate in compiled.physical_circuit().expand_swaps().iter() {
        if gate.is_two_qubit() {
            let a = HwQubit(gate.qubits()[0].0);
            let b = HwQubit(gate.qubits()[1].0);
            assert!(
                machine.topology().adjacent(a, b),
                "{label}: non-adjacent two-qubit gate {a}-{b} on {}",
                machine.name()
            );
        }
    }
}

fn assert_computes_right_answer(machine: &Machine, compiled: &CompiledCircuit, b: Benchmark) {
    let sim = Simulator::new(machine, SimulatorConfig::ideal(16));
    let result = sim.run(compiled.physical_circuit());
    assert!(
        (result.probability_of(&b.expected_output()) - 1.0).abs() < 1e-9,
        "{b} mis-compiled on {}: {result}",
        machine.name()
    );
}

#[test]
fn grid_and_ring_machines_compile_every_benchmark_with_every_config() {
    for spec in [
        TopologySpec::Grid { mx: 4, my: 4 },
        TopologySpec::Ring { n: 16 },
    ] {
        let machine = Machine::from_spec(spec, 2019, 0);
        for config in CompilerConfig::table1() {
            for b in Benchmark::all() {
                let compiled = Compiler::new(&machine, config)
                    .compile(&b.circuit())
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} failed on {b} for {}: {e}",
                            config.algorithm,
                            machine.name()
                        )
                    });
                assert_respects_connectivity(&machine, &compiled, &format!("{}", config.algorithm));
                assert_computes_right_answer(&machine, &compiled, b);
            }
        }
    }
}

/// The name recalls the comparison with permutation routing, which
/// emitted only the one-way half of the movement and is gone; what it
/// pinned on the swap-back side holds for every Table-1 config: the
/// physical circuit carries each program SWAP once and each movement SWAP
/// twice (out and back), and the answer still comes out right.
#[test]
fn permutation_routing_halves_movement_on_ibmq16() {
    let machine = Machine::ibmq16_on_day(2019, 0);
    let count_swaps = |c: &Circuit| c.iter().filter(|g| g.kind() == GateKind::Swap).count();
    let mut saw_movement = false;
    for config in CompilerConfig::table1() {
        for b in Benchmark::all() {
            let circuit = b.circuit();
            let compiled = Compiler::new(&machine, config).compile(&circuit).unwrap();
            assert_computes_right_answer(&machine, &compiled, b);
            assert_eq!(
                count_swaps(compiled.physical_circuit()) - count_swaps(&circuit),
                2 * compiled.swap_count(),
                "{b} under {}",
                config.algorithm
            );
            saw_movement |= compiled.swap_count() > 0;
        }
    }
    assert!(
        saw_movement,
        "no benchmark needed movement; test is vacuous"
    );
}

#[test]
fn heavy_hex_machine_compiles_representative_benchmarks() {
    let machine = Machine::from_spec(TopologySpec::HeavyHex { rows: 2, cols: 7 }, 2019, 0);
    assert!(machine.num_qubits() >= 14);
    let config = CompilerConfig::greedy_e();
    for b in Benchmark::representative() {
        let compiled = Compiler::new(&machine, config)
            .compile(&b.circuit())
            .unwrap_or_else(|e| panic!("greedy-e failed on {b}: {e}"));
        assert_respects_connectivity(&machine, &compiled, "greedy-e heavy-hex");
        assert_computes_right_answer(&machine, &compiled, b);
    }
}

#[test]
fn daily_calibration_exists_for_every_topology() {
    // The calibration generator is parameterized over any topology: every
    // edge and qubit of each spec gets calibrated values, and the machine's
    // reliability model builds without a grid.
    for spec in [
        TopologySpec::Ibmq16,
        TopologySpec::Grid { mx: 5, my: 3 },
        TopologySpec::Ring { n: 11 },
        TopologySpec::HeavyHex { rows: 3, cols: 5 },
    ] {
        let machine = Machine::from_spec(spec, 7, 2);
        let calibration = machine.calibration();
        assert_eq!(calibration.num_qubits(), machine.num_qubits());
        for &(a, b) in machine.topology().edges() {
            assert!(calibration.cnot_error(a, b).unwrap() > 0.0);
        }
        let reliability = machine.reliability();
        let far = HwQubit(machine.num_qubits() - 1);
        assert!(reliability.best_path_cnot_reliability(HwQubit(0), far) > 0.0);
    }
}

/// Quality regression guard for the topology-aware greedy seeding
/// (ROADMAP: "seed on highest-degree hardware qubit is untuned off-grid").
///
/// The floors below were measured at implementation time on the fixed
/// machine seed 2019 and carry ~30% headroom; they pin the ring
/// neighborhood-aware seeding (GreedyE*/GreedyV* antipodal to the weakest
/// arc) and the heavy-hex behavior (bridge-free GreedyV* hub seat) against
/// accidental regressions. Everything here is deterministic.
#[test]
fn topology_aware_greedy_seeding_quality_on_ring_and_heavy_hex() {
    let suite = [Benchmark::Bv8, Benchmark::Adder, Benchmark::Hs6];
    let quality = |machine: &Machine, config: CompilerConfig| -> f64 {
        suite
            .iter()
            .map(|b| {
                Compiler::new(machine, config)
                    .compile(&b.circuit())
                    .unwrap()
                    .estimated_reliability()
            })
            .product()
    };
    for (spec, floor_v, floor_e) in [
        (TopologySpec::Ring { n: 16 }, 0.07, 0.09),
        (TopologySpec::HeavyHex { rows: 2, cols: 7 }, 0.09, 0.09),
    ] {
        for day in 0..4 {
            let machine = Machine::from_spec(spec, 2019, day);
            let greedy_v = quality(&machine, CompilerConfig::greedy_v());
            let greedy_e = quality(&machine, CompilerConfig::greedy_e());
            let qiskit = quality(&machine, CompilerConfig::qiskit());
            assert!(
                greedy_v >= floor_v,
                "{} day {day}: GreedyV* quality {greedy_v} under floor {floor_v}",
                machine.name()
            );
            assert!(
                greedy_e >= floor_e,
                "{} day {day}: GreedyE* quality {greedy_e} under floor {floor_e}",
                machine.name()
            );
            // The calibration-aware heuristics must dominate the
            // topology-blind baseline by a wide margin off-grid.
            assert!(
                greedy_v > 2.0 * qiskit && greedy_e > 2.0 * qiskit,
                "{} day {day}: greedy ({greedy_v}/{greedy_e}) vs qiskit {qiskit}",
                machine.name()
            );
        }
    }
}

/// The GreedyV* hub (the highest-degree program qubit) must never be
/// seated on a heavy-hex bridge: bridges are degree-2 articulation
/// points, the worst possible home for the interaction graph's hub.
#[test]
fn greedy_v_hub_avoids_heavy_hex_bridges() {
    let (rows, cols) = (2, 7);
    let spec = TopologySpec::HeavyHex { rows, cols };
    for day in 0..6 {
        let machine = Machine::from_spec(spec, 2019, day);
        for b in [Benchmark::Bv4, Benchmark::Bv8, Benchmark::Hs6] {
            let circuit = b.circuit();
            let placement =
                nisq_core::mapping::greedy::place_vertex_first(&circuit, &machine).unwrap();
            let hub = circuit
                .interaction_graph()
                .qubits_by_degree()
                .into_iter()
                .next()
                .unwrap();
            assert!(
                placement.hw(hub).0 < rows * cols,
                "{b} day {day}: hub {hub:?} seated on bridge {}",
                placement.hw(hub)
            );
        }
    }
}
