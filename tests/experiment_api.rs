//! Integration tests of the experiment API's caching contract:
//!
//! * the full-compile cache hits on identical `(circuit, machine-day,
//!   config)` triples and misses when any component changes,
//! * cached compiles are bit-identical to cold compiles — including when
//!   only the *placement* came from the session's placement memo,
//! * a fig6-style day sweep over the Table-1 configurations shows cache
//!   hits and strictly fewer placement-pass invocations than compiles (the
//!   ROADMAP's pass-level-caching item).

use nisq::prelude::*;
use std::sync::Arc;

const SEED: u64 = 2019;

fn machine(day: usize) -> Arc<Machine> {
    Arc::new(Machine::ibmq16_on_day(SEED, day))
}

/// Asserts two compiled circuits are bit-identical in every observable
/// artifact (placement, schedule metrics, physical gates, reliability bits,
/// emitted OpenQASM).
fn assert_identical(a: &CompiledCircuit, b: &CompiledCircuit, what: &str) {
    assert_eq!(
        a.placement().as_slice(),
        b.placement().as_slice(),
        "{what}: placement"
    );
    assert_eq!(a.swap_count(), b.swap_count(), "{what}: swaps");
    assert_eq!(a.duration_slots(), b.duration_slots(), "{what}: makespan");
    assert_eq!(
        a.physical_circuit(),
        b.physical_circuit(),
        "{what}: physical circuit"
    );
    assert_eq!(
        a.estimated_reliability().to_bits(),
        b.estimated_reliability().to_bits(),
        "{what}: reliability bits"
    );
    assert_eq!(a.qasm(), b.qasm(), "{what}: OpenQASM");
}

#[test]
fn compile_cache_hits_on_identical_triples() {
    let mut session = Session::new();
    let m = session.machine(TopologySpec::Ibmq16, SEED, 0);
    let config = CompilerConfig::greedy_e();
    let circuit = Benchmark::Toffoli.circuit();

    let first = session.compile(&m, &config, &circuit).unwrap();
    let second = session.compile(&m, &config, &circuit).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "second compile must be served from cache"
    );
    let stats = session.cache_stats();
    assert_eq!(stats.compile_requests, 2);
    assert_eq!(stats.compile_hits, 1);
}

#[test]
fn compile_cache_misses_across_days_and_configs() {
    let mut session = Session::new();
    let day0 = session.machine(TopologySpec::Ibmq16, SEED, 0);
    let day3 = session.machine(TopologySpec::Ibmq16, SEED, 3);
    let circuit = Benchmark::Bv8.circuit();

    let a = session
        .compile(&day0, &CompilerConfig::greedy_e(), &circuit)
        .unwrap();
    let b = session
        .compile(&day3, &CompilerConfig::greedy_e(), &circuit)
        .unwrap();
    let c = session
        .compile(&day0, &CompilerConfig::greedy_v(), &circuit)
        .unwrap();
    assert!(
        !Arc::ptr_eq(&a, &b),
        "different days must not share a compile"
    );
    assert!(
        !Arc::ptr_eq(&a, &c),
        "different configs must not share a compile"
    );
    assert_eq!(session.cache_stats().compile_hits, 0);

    // Different omegas are different configs too.
    let w5 = session
        .compile(&day0, &CompilerConfig::r_smt_star(0.5), &circuit)
        .unwrap();
    let w9 = session
        .compile(&day0, &CompilerConfig::r_smt_star(0.9), &circuit)
        .unwrap();
    assert!(!Arc::ptr_eq(&w5, &w9));
    assert_eq!(session.cache_stats().compile_hits, 0);
}

#[test]
fn cached_compiles_are_bit_identical_to_cold_compiles() {
    let m = machine(0);
    for config in CompilerConfig::table1() {
        let mut session = Session::new();
        let label = config.algorithm.name();
        for b in [Benchmark::Bv4, Benchmark::Toffoli, Benchmark::Adder] {
            let circuit = b.circuit();
            let cold = Compiler::new(&m, config).compile(&circuit).unwrap();
            let warm1 = session.compile(&m, &config, &circuit).unwrap();
            let warm2 = session.compile(&m, &config, &circuit).unwrap();
            assert_identical(&cold, &warm1, &format!("{label}/{b} cold vs miss"));
            assert_identical(&cold, &warm2, &format!("{label}/{b} cold vs hit"));
        }
    }
}

#[test]
fn placement_cache_reuse_across_days_is_exact_for_unaware_configs() {
    // Calibration-unaware configs key their placement on the topology
    // alone, so a day sweep reuses the day-0 placement. The full compile
    // for the new day must still be bit-identical to a cold compile on
    // that day (schedule and estimate see the new calibration).
    let mut session = Session::new();
    for config in [
        CompilerConfig::qiskit(),
        CompilerConfig::t_smt(RouteSelection::RectangleReservation),
    ] {
        let circuit = Benchmark::Hs6.circuit();
        let day0 = session.machine(TopologySpec::Ibmq16, SEED, 0);
        let day4 = session.machine(TopologySpec::Ibmq16, SEED, 4);
        session.compile(&day0, &config, &circuit).unwrap();
        let place_hits_before = session.cache_stats().place_hits;
        let warm = session.compile(&day4, &config, &circuit).unwrap();
        assert!(
            session.cache_stats().place_hits > place_hits_before,
            "{config}: day-4 compile should reuse the day-0 placement"
        );
        let cold = Compiler::new(&machine(4), config)
            .compile(&circuit)
            .unwrap();
        assert_identical(&cold, &warm, &format!("{config} day-4"));
    }

    // The Table-1 plan over two days, compile only: the 24 unaware day-1
    // compiles take their day-0 placements, and a second run on the same
    // session is answered from the compile cache without placing.
    let plan = SweepPlan::new()
        .benchmarks(Benchmark::all())
        .table1_configs()
        .days(0..2);
    let mut session = Session::new();
    let counts = |cache: CacheStats| {
        (
            cache.compile_requests,
            cache.compile_hits,
            cache.place_hits,
            cache.place_runs,
        )
    };
    assert_eq!(counts(session.run(&plan).unwrap().cache), (144, 0, 24, 120));
    assert_eq!(counts(session.run(&plan).unwrap().cache), (144, 144, 0, 0));
}

#[test]
fn day_sweep_shows_cache_hits_and_fewer_placement_passes() {
    // The acceptance shape: a fig6-style day sweep over the Table-1
    // configurations. Calibration-unaware placements are computed once,
    // not once per day, so placement passes < compiles and hits > 0.
    let days = 4usize;
    let plan = SweepPlan::new()
        .benchmarks(Benchmark::representative())
        .table1_configs()
        .days(0..days);
    let report = Session::new().run(&plan).unwrap();

    assert_eq!(report.cells.len(), 3 * 6 * days);
    assert_eq!(report.cache.compile_requests as usize, report.cells.len());
    assert!(
        report.cache.total_hits() > 0,
        "a day sweep must produce cache hits, got {:?}",
        report.cache
    );
    assert!(
        report.cache.place_runs < report.cache.compile_requests,
        "placement passes ({}) must be strictly fewer than compiles ({})",
        report.cache.place_runs,
        report.cache.compile_requests
    );
    // Two of six Table-1 configs are calibration-unaware; their placements
    // for days 1.. are all placement-cache hits.
    assert_eq!(report.cache.place_hits as usize, 3 * 2 * (days - 1));
}

#[test]
fn executed_reports_round_trip_through_json() {
    let plan = SweepPlan::new()
        .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
        .config("Qiskit", CompilerConfig::qiskit())
        .config("GreedyE*", CompilerConfig::greedy_e())
        .days([0, 2])
        .with_trials(64);
    let report = Session::new().run(&plan).unwrap();
    let parsed = Report::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.cells.len(), 2 * 2 * 2);
    assert!(parsed.cells.iter().all(|c| c.success_rate.is_some()));
}

#[test]
fn session_sweep_matches_direct_compile_and_simulate() {
    // The declarative path must reproduce exactly what the hand-rolled
    // compile-then-simulate loop measures for the same seeds.
    let b = Benchmark::Peres;
    let config = CompilerConfig::r_smt_star(0.5);
    let m = machine(0);
    let compiled = Compiler::new(&m, config).compile(&b.circuit()).unwrap();
    let direct = Simulator::new(&m, SimulatorConfig::with_trials(512, 99))
        .success_rate(&compiled, &b.expected_output());

    let plan = SweepPlan::new()
        .benchmark(b)
        .config("R-SMT*", config)
        .with_trials(512)
        .fixed_sim_seed(99);
    let report = Session::new().run(&plan).unwrap();
    assert_eq!(report.require("Peres", "R-SMT*", 0).success(), direct);
}
