//! End-to-end integration tests spanning every crate: IR benchmarks are
//! compiled by every Table 1 configuration onto calibrated machines, the
//! executables are simulated, and the paper's qualitative claims are
//! checked.

use nisq::prelude::*;

const TRIALS: u32 = 768;

fn machine(day: usize) -> Machine {
    Machine::ibmq16_on_day(2019, day)
}

fn success(machine: &Machine, config: CompilerConfig, benchmark: Benchmark, seed: u64) -> f64 {
    let compiled = Compiler::new(machine, config)
        .compile(&benchmark.circuit())
        .unwrap_or_else(|e| panic!("{} failed on {benchmark}: {e}", config.algorithm));
    Simulator::new(machine, SimulatorConfig::with_trials(TRIALS, seed))
        .success_rate(&compiled, &benchmark.expected_output())
}

#[test]
fn every_configuration_produces_runnable_executables_for_every_benchmark() {
    let m = machine(0);
    let sim = Simulator::new(&m, SimulatorConfig::ideal(16));
    for config in CompilerConfig::table1() {
        for benchmark in Benchmark::all() {
            let compiled = Compiler::new(&m, config)
                .compile(&benchmark.circuit())
                .unwrap_or_else(|e| panic!("{} failed on {benchmark}: {e}", config.algorithm));
            // The executable must compute the right answer when noiseless.
            let ideal = sim.run(compiled.physical_circuit());
            assert!(
                (ideal.probability_of(&benchmark.expected_output()) - 1.0).abs() < 1e-9,
                "{} mis-compiled {benchmark}",
                config.algorithm
            );
            // And it must respect the machine's connectivity.
            for gate in compiled.physical_circuit().expand_swaps().iter() {
                if gate.is_two_qubit() {
                    assert!(m
                        .topology()
                        .adjacent(HwQubit(gate.qubits()[0].0), HwQubit(gate.qubits()[1].0)));
                }
            }
        }
    }
}

#[test]
fn r_smt_star_beats_qiskit_on_average_success_rate() {
    // The paper's headline: geomean 2.9x improvement over Qiskit. We only
    // require a clear (>1.2x) average win to keep the test robust to
    // simulator statistics.
    let m = machine(0);
    let mut ratios = Vec::new();
    for benchmark in Benchmark::all() {
        let adaptive = success(&m, CompilerConfig::r_smt_star(0.5), benchmark, 5);
        let baseline = success(&m, CompilerConfig::qiskit(), benchmark, 5);
        ratios.push(adaptive / baseline.max(1e-3));
    }
    let log_mean: f64 = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    let geomean = log_mean.exp();
    assert!(
        geomean > 1.2,
        "R-SMT* only improved over Qiskit by {geomean:.2}x on geomean: {ratios:?}"
    );
}

#[test]
fn r_smt_star_is_at_least_as_good_as_t_smt_star_on_most_benchmarks() {
    let m = machine(1);
    let mut wins = 0usize;
    let benchmarks = Benchmark::all();
    for &benchmark in &benchmarks {
        let r = success(&m, CompilerConfig::r_smt_star(0.5), benchmark, 9);
        let t = success(
            &m,
            CompilerConfig::t_smt_star(RouteSelection::OneBendPaths),
            benchmark,
            9,
        );
        if r + 0.02 >= t {
            wins += 1;
        }
    }
    assert!(
        wins >= benchmarks.len() - 2,
        "R-SMT* lost to T-SMT* on too many benchmarks ({wins}/{} wins)",
        benchmarks.len()
    );
}

#[test]
fn zero_swap_benchmarks_are_more_reliable_than_swap_heavy_ones() {
    // Section 7: benchmarks that need no qubit movement (BV, HS, QFT, Adder)
    // have higher success than those that require swaps (Toffoli, Fredkin,
    // Or, Peres) under R-SMT*.
    let m = machine(0);
    let config = CompilerConfig::r_smt_star(0.5);
    let mut no_move = Vec::new();
    let mut movers = Vec::new();
    for benchmark in Benchmark::all() {
        let compiled = Compiler::new(&m, config)
            .compile(&benchmark.circuit())
            .unwrap();
        let s = Simulator::new(&m, SimulatorConfig::with_trials(TRIALS, 2))
            .success_rate(&compiled, &benchmark.expected_output());
        if compiled.swap_count() == 0 {
            no_move.push(s);
        } else {
            movers.push(s);
        }
    }
    assert!(!no_move.is_empty());
    let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    if !movers.is_empty() {
        assert!(
            avg(&no_move) > avg(&movers),
            "zero-movement benchmarks ({:.3}) not more reliable than movers ({:.3})",
            avg(&no_move),
            avg(&movers)
        );
    }
}

#[test]
fn greedy_e_is_competitive_with_r_smt_star() {
    // Figure 10: GreedyE* is comparable to R-SMT* in success rate.
    let m = machine(0);
    let mut greedy_total = 0.0;
    let mut optimal_total = 0.0;
    for benchmark in Benchmark::all() {
        greedy_total += success(&m, CompilerConfig::greedy_e(), benchmark, 13);
        optimal_total += success(&m, CompilerConfig::r_smt_star(0.5), benchmark, 13);
    }
    assert!(
        greedy_total > 0.8 * optimal_total,
        "GreedyE* total {greedy_total:.2} fell far below R-SMT* total {optimal_total:.2}"
    );
}

#[test]
fn daily_recompilation_tracks_machine_drift() {
    // Figure 6's premise: compiling against the right day's calibration is
    // never much worse, and usually better, than reusing a stale mapping.
    let benchmark = Benchmark::Bv4;
    let mut adaptive_total = 0.0;
    let mut stale_total = 0.0;
    let stale = Compiler::new(&machine(0), CompilerConfig::r_smt_star(0.5))
        .compile(&benchmark.circuit())
        .unwrap();
    for day in 0..5 {
        let m = machine(day);
        let sim = Simulator::new(&m, SimulatorConfig::with_trials(TRIALS, 40 + day as u64));
        let fresh = Compiler::new(&m, CompilerConfig::r_smt_star(0.5))
            .compile(&benchmark.circuit())
            .unwrap();
        adaptive_total += sim.success_rate(&fresh, &benchmark.expected_output());
        stale_total += sim.success_rate(&stale, &benchmark.expected_output());
    }
    assert!(
        adaptive_total >= stale_total - 0.05,
        "daily recompilation ({adaptive_total:.2}) lost to a stale mapping ({stale_total:.2})"
    );
}

#[test]
fn compile_time_of_greedy_is_far_below_the_exact_solver_on_large_circuits() {
    use nisq_ir::{random_circuit, RandomCircuitConfig};
    use std::time::Instant;
    let topology = Topology::grid(4, 4);
    let calibration = CalibrationGenerator::new(topology.clone(), 1).day(0);
    let m = Machine::new("synthetic-16", topology, calibration);
    let circuit = random_circuit(RandomCircuitConfig::new(16, 192, 3));

    let start = Instant::now();
    Compiler::new(&m, CompilerConfig::greedy_e())
        .compile(&circuit)
        .unwrap();
    let greedy = start.elapsed();

    // A node budget rather than a wall-clock limit, so the exact solver
    // does the same work on every host: 10^5 nodes of branch and bound,
    // then the annealing fallback.
    let exact_config = CompilerConfig::r_smt_star(0.5).with_solver_budget(100_000, None);
    let start = Instant::now();
    Compiler::new(&m, exact_config).compile(&circuit).unwrap();
    let exact = start.elapsed();

    assert!(
        exact > greedy,
        "expected the exact solver ({exact:?}) to take longer than GreedyE* ({greedy:?})"
    );
}

#[test]
fn qasm_round_trip_preserves_the_compiled_program() {
    let m = machine(0);
    for benchmark in [Benchmark::Bv4, Benchmark::Hs4, Benchmark::Adder] {
        let compiled = Compiler::new(&m, CompilerConfig::greedy_v())
            .compile(&benchmark.circuit())
            .unwrap();
        let parsed = nisq::ir::qasm::parse(&compiled.qasm()).unwrap();
        // Re-simulating the parsed program must give the same answer.
        let sim = Simulator::new(&m, SimulatorConfig::ideal(16));
        let result = sim.run(&parsed);
        assert!(
            (result.probability_of(&benchmark.expected_output()) - 1.0).abs() < 1e-9,
            "{benchmark} changed behaviour after a QASM round trip"
        );
    }
}
