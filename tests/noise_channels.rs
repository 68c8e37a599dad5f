//! Physics and backend-selection properties of the declarative
//! `nisq-noise` channel subsystem:
//!
//! * **analytic output** — amplitude-damping and Pauli-weighted channels
//!   reproduce the closed-form single-qubit outcome probabilities within
//!   fixed-seed frequency bounds, on both the measure-bound (bare Kraus)
//!   and gate-bound (fused `K·U`) paths;
//! * **backend selection** — a Pauli-only spec keeps the stabilizer
//!   tableau backend and its error-mask occupancy on Clifford executables,
//!   while any non-Pauli binding forces the dense backend with every trial
//!   served by full replay;
//! * **cross-backend equivalence** — with a Pauli-only spec the tableau
//!   fast path and the `run_trial` reference replay sample the same
//!   distribution (total variation within the sampling bound at fixed
//!   seeds);
//! * **determinism** — Kraus-channel programs reproduce their counts
//!   bit-for-bit from the same seed.

use nisq::prelude::*;
use nisq_ir::{Clbit, Qubit};
use nisq_sim::{BackendKind, NoiseModel, TierCounts, TrialProgram};
use std::collections::HashMap;

fn machine() -> Machine {
    Machine::ibmq16_on_day(2019, 0)
}

/// Runs `program` and returns outcome counts plus tier occupancy.
fn run_counts(
    machine: &Machine,
    program: &TrialProgram,
    seed: u64,
    trials: u32,
) -> (HashMap<Vec<bool>, u32>, TierCounts) {
    let mut config = SimulatorConfig::with_trials(trials, seed);
    config.noise = NoiseModel::ideal();
    let sim = Simulator::new(machine, config);
    let (result, tiers) = sim.run_program_with_stats(program);
    let counts = result
        .counts()
        .iter()
        .map(|(&key, &n)| (unpack(key, program.num_clbits()), n))
        .collect();
    (counts, tiers)
}

/// The classical bits of a packed outcome key (index = classical bit).
fn unpack(key: u128, num_clbits: usize) -> Vec<bool> {
    (0..num_clbits).map(|i| key >> i & 1 == 1).collect()
}

/// Runs every trial through the single-trial reference path.
fn reference_counts(program: &TrialProgram, seed: u64, trials: u32) -> HashMap<Vec<bool>, u32> {
    let mut scratch = program.make_scratch();
    let mut counts = HashMap::new();
    for trial in 0..trials {
        let mut rng = TrialProgram::trial_rng(seed, trial);
        let key = program.run_trial(&mut scratch, &mut rng);
        *counts.entry(unpack(key, program.num_clbits())).or_insert(0) += 1;
    }
    counts
}

fn frequency_of(counts: &HashMap<Vec<bool>, u32>, key: &[bool], trials: u32) -> f64 {
    f64::from(counts.get(key).copied().unwrap_or(0)) / f64::from(trials)
}

fn total_variation(a: &HashMap<Vec<bool>, u32>, b: &HashMap<Vec<bool>, u32>, trials: u32) -> f64 {
    let mut keys: Vec<&Vec<bool>> = a.keys().chain(b.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    let n = f64::from(trials);
    0.5 * keys
        .iter()
        .map(|k| {
            let pa = f64::from(a.get(*k).copied().unwrap_or(0)) / n;
            let pb = f64::from(b.get(*k).copied().unwrap_or(0)) / n;
            (pa - pb).abs()
        })
        .sum::<f64>()
}

fn x_then_measure() -> Circuit {
    let mut c = Circuit::with_clbits(1, 1);
    c.x(Qubit(0));
    c.measure(Qubit(0), Clbit(0));
    c
}

#[test]
fn amplitude_damping_matches_analytic_decay() {
    // γ = 0.3 damping applied to the |1⟩ state prepared by an X gate:
    // P(measure 1) = 1 − γ = 0.7 exactly. At 32768 trials, 3σ of the
    // Bernoulli frequency is ≈ 0.008; 0.02 leaves >2× headroom.
    let m = machine();
    let trials = 32768u32;
    let sim = {
        let mut config = SimulatorConfig::with_trials(trials, 13);
        config.noise = NoiseModel::ideal();
        Simulator::new(&m, config)
    };
    // Measure-bound: the bare Kraus pair fires just before readout.
    let measure_spec = NoiseSpec::from_json(
        r#"{"name": "ad-measure", "bindings": [
            {"on": "measure", "rate": 0.3,
             "channel": {"kind": "amplitude-damping"}}]}"#,
    )
    .unwrap();
    // Gate-bound: the damping operators fuse with the X unitary (A_k = K_k·U).
    let gate_spec = NoiseSpec::from_json(
        r#"{"name": "ad-sq", "bindings": [
            {"on": "sq", "rate": 0.3,
             "channel": {"kind": "amplitude-damping"}}]}"#,
    )
    .unwrap();
    for spec in [&measure_spec, &gate_spec] {
        let program = sim.prepare_with_noise(&x_then_measure(), Some(spec));
        assert!(
            program.has_kraus(),
            "{}: damping is a Kraus site",
            spec.name()
        );
        assert_eq!(program.backend_kind(), BackendKind::Dense);
        let (counts, tiers) = run_counts(&m, &program, 13, trials);
        assert_eq!(
            tiers.full_replay,
            u64::from(trials),
            "{}: Kraus programs replay every trial",
            spec.name()
        );
        let p1 = frequency_of(&counts, &[true], trials);
        assert!(
            (p1 - 0.7).abs() < 0.02,
            "{}: P(1) = {p1}, analytic 0.7",
            spec.name()
        );
    }
}

#[test]
fn pauli_weighted_channel_matches_analytic_flip_rate() {
    // The channel fires with p = 0.2 and picks X:Y:Z with weights 1:1:2.
    // From |1⟩ only X and Y flip the readout, so
    // P(measure 0) = 0.2 · (1+1)/4 = 0.1. Pure-Pauli spec on a Clifford
    // circuit: the tableau backend and its error masks must survive.
    let m = machine();
    let trials = 32768u32;
    let spec = NoiseSpec::from_json(
        r#"{"name": "pw-sq", "bindings": [
            {"on": "sq", "rate": 0.2,
             "channel": {"kind": "pauli-weighted", "wx": 1, "wy": 1, "wz": 2}}]}"#,
    )
    .unwrap();
    let program =
        TrialProgram::lower_with_spec(&x_then_measure(), &m, &NoiseModel::ideal(), Some(&spec));
    assert!(!program.has_kraus());
    assert_eq!(program.backend_kind(), BackendKind::Tableau);
    let (counts, tiers) = run_counts(&m, &program, 29, trials);
    assert!(
        tiers.pauli_prop > 0,
        "the error masks must absorb the error trials"
    );
    let p0 = frequency_of(&counts, &[false], trials);
    assert!((p0 - 0.1).abs() < 0.01, "P(0) = {p0}, analytic 0.1");
}

#[test]
fn pauli_weights_whose_split_rounds_past_one_are_accepted() {
    // At a resolved rate of 1, weights 9:18:1 split into px + py + pz =
    // 1.0000000000000002; the site fires with probability 1 (clamped) and
    // picks X:Y:Z as 9:18:1. From |1⟩ X and Y flip the readout, so
    // P(measure 0) = 27/28 at rate 1.0. At 4096 trials 3σ of the frequency
    // is ≈ 0.009; 0.02 leaves >2× headroom.
    let m = machine();
    let trials = 4096u32;
    for rate in ["1.0", r#"{"calibration": 2.0}"#] {
        let spec = NoiseSpec::from_json(&format!(
            r#"{{"name": "pw-9-18-1", "bindings": [
            {{"on": "sq", "rate": {rate},
             "channel": {{"kind": "pauli-weighted", "wx": 9, "wy": 18, "wz": 1}}}}]}}"#
        ))
        .unwrap();
        let program =
            TrialProgram::lower_with_spec(&x_then_measure(), &m, &NoiseModel::ideal(), Some(&spec));
        let (counts, _) = run_counts(&m, &program, 37, trials);
        assert_eq!(counts.values().sum::<u32>(), trials, "rate {rate}");
        if rate == "1.0" {
            let p0 = frequency_of(&counts, &[false], trials);
            assert!(
                (p0 - 27.0 / 28.0).abs() < 0.02,
                "P(0) = {p0}, analytic 27/28"
            );
        }
    }
}

/// A small entangling Clifford circuit with a mid-circuit measurement.
fn clifford_workload() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(Qubit(0));
    c.cnot(Qubit(0), Qubit(1));
    c.measure(Qubit(0), Clbit(0));
    c.cnot(Qubit(1), Qubit(2));
    c.measure(Qubit(1), Clbit(1));
    c.measure(Qubit(2), Clbit(2));
    c
}

#[test]
fn pauli_only_spec_keeps_the_tableau_backend_and_matches_dense_exact() {
    // Bit-flips on every single-qubit gate plus calibration-scaled
    // two-qubit depolarizing on every CNOT: all Pauli-diagonal, so the
    // simulator keeps the tableau fast path. Its outcome distribution must
    // match the `run_trial` reference replay's within sampling TV (the same
    // cross-backend gate the built-in channels pass).
    let m = machine();
    let spec = NoiseSpec::from_json(
        r#"{"name": "pauli-mix", "bindings": [
            {"on": "sq", "rate": 0.02, "channel": {"kind": "bit-flip"}},
            {"on": "cnot", "rate": {"calibration": 2.0},
             "channel": {"kind": "depolarizing-2q"}}]}"#,
    )
    .unwrap();
    let program =
        TrialProgram::lower_with_spec(&clifford_workload(), &m, &NoiseModel::ideal(), Some(&spec));
    assert_eq!(program.backend_kind(), BackendKind::Tableau);
    let trials = 16384u32;
    let (fast, fast_tiers) = run_counts(&m, &program, 17, trials);
    let exact = reference_counts(&program, 17, trials);
    assert_eq!(fast_tiers.backend, BackendKind::Tableau);
    assert!(
        fast_tiers.pauli_prop > 0,
        "spec channels must reach the error masks"
    );
    let tv = total_variation(&fast, &exact, trials);
    assert!(
        tv < 0.05,
        "cross-backend TV {tv} exceeds the sampling bound"
    );
}

#[test]
fn non_pauli_spec_forces_dense_full_replay_and_is_deterministic() {
    // One amplitude-damping binding is enough to force the dense backend
    // on an otherwise Clifford executable; every trial is a full replay
    // (branch probabilities depend on live amplitudes) and the counts are
    // reproducible bit-for-bit from the seed.
    let m = machine();
    let spec = NoiseSpec::from_json(
        r#"{"name": "ad-all", "bindings": [
            {"on": "measure", "rate": 0.1,
             "channel": {"kind": "amplitude-damping"}}]}"#,
    )
    .unwrap();
    let program =
        TrialProgram::lower_with_spec(&clifford_workload(), &m, &NoiseModel::ideal(), Some(&spec));
    assert!(program.has_kraus());
    assert_eq!(program.backend_kind(), BackendKind::Dense);
    let trials = 4096u32;
    let (a, tiers) = run_counts(&m, &program, 31, trials);
    assert_eq!(tiers.full_replay, u64::from(trials));
    assert_eq!(
        tiers.error_free + tiers.pauli_prop + tiers.checkpointed,
        0,
        "no fast tier may serve a Kraus program"
    );
    let (b, _) = run_counts(&m, &program, 31, trials);
    assert_eq!(a, b, "same seed must reproduce Kraus counts bit-for-bit");
}
