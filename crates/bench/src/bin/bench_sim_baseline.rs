//! Emits `BENCH_sim.json`: a machine-readable throughput baseline for the
//! noisy simulator, so future PRs can track the perf trajectory.
//!
//! For each measured configuration it runs the full compile-then-simulate
//! pipeline at 4096 trials, repeats the simulation several times, and
//! records the **best** observed trials/second (best-of-N is robust against
//! scheduler noise on shared machines).
//!
//! Usage:
//!
//! ```text
//! bench_sim_baseline [output-path]                    # write a snapshot
//! bench_sim_baseline [output-path] --check <baseline> # ...and ratchet
//!                    [--max-regress <fraction>]       #    (default 0.20)
//!                    [--require-tableau]              # backend occupancy
//! ```
//!
//! With `--check`, every measured configuration's `best_trials_per_sec` is
//! compared against the checked-in baseline; the process exits non-zero if
//! any configuration regresses by more than the allowed fraction (the CI
//! ratchet of the roadmap). Improvements are reported but never fail; a
//! baseline that is not JSON, or a row missing one of its fields, does.
//! `--require-tableau` additionally fails the run if any wide Clifford
//! entry (BV64/BV128/ghz48) was not served by the stabilizer-tableau
//! backend — backend selection is automatic, so a silent fallback to the
//! dense path is a bug, not a tuning choice.

use nisq_core::CompilerConfig;
use nisq_exp::{json, NoiseSpec, Session, DEFAULT_MACHINE_SEED};
use nisq_ir::{bernstein_vazirani, random_circuit, Benchmark, Circuit, RandomCircuitConfig};
use nisq_machine::TopologySpec;
use nisq_sim::{Simulator, SimulatorConfig};
use std::time::Instant;

const TRIALS: u32 = 4096;
/// The random-circuit scalability entries (rand12/rand14) route onto a 4x4
/// grid and simulate states up to 2^16 amplitudes with errors in nearly
/// every trial, so they run fewer trials per repetition to keep the
/// wall-clock sane. (BV12 stays at the full trial count: its classical
/// output keeps the tier-1 shortcut hot.)
const LARGE_TRIALS: u32 = 1024;
const REPETITIONS: usize = 5;

struct Measurement {
    benchmark: &'static str,
    compiler: &'static str,
    gates: usize,
    trials: u32,
    /// Which state backend served the trials ("dense" or "tableau"), as
    /// reported by the engine's tier counters.
    backend: &'static str,
    best_trials_per_sec: f64,
    mean_trials_per_sec: f64,
}

/// One benchmarked configuration: a circuit compiled with `config` on
/// `topology`, simulated under full noise for `trials` per repetition.
struct Spec {
    name: &'static str,
    compiler: &'static str,
    config: CompilerConfig,
    circuit: Circuit,
    topology: TopologySpec,
    trials: u32,
    /// Entries wider than 24 qubits only exist because the stabilizer
    /// tableau serves them; `--require-tableau` turns a silent dense
    /// fallback on these into a hard failure.
    require_tableau: bool,
    /// Extra declarative channels lowered into the program (`None` for
    /// the calibration-only entries).
    noise: Option<NoiseSpec>,
}

impl Spec {
    /// A paper benchmark on the default IBMQ16 device at full trial count.
    fn paper(benchmark: Benchmark, compiler: &'static str, config: CompilerConfig) -> Self {
        Spec {
            name: benchmark.name(),
            compiler,
            config,
            circuit: benchmark.circuit(),
            topology: TopologySpec::Ibmq16,
            trials: TRIALS,
            require_tableau: false,
            noise: None,
        }
    }
}

/// A deep Clifford-only circuit (H/S layers over a CNOT ladder): the whole
/// program runs on the stabilizer tableau, so every error trial is served
/// by precomputed outcome masks. This entry ratchets that path — on the
/// dense engine, every one of its error trials would pay a
/// multi-hundred-gate state replay at 2^14 amplitudes.
fn clifford_ladder(qubits: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(qubits);
    for layer in 0..layers {
        for q in 0..qubits {
            if (q + layer) % 2 == 0 {
                c.h(nisq_ir::Qubit(q));
            } else {
                c.s(nisq_ir::Qubit(q));
            }
        }
        let mut q = layer % 2;
        while q + 1 < qubits {
            c.cnot(nisq_ir::Qubit(q), nisq_ir::Qubit(q + 1));
            q += 2;
        }
    }
    c.measure_all();
    c
}

/// A deep GHZ ladder: one Hadamard seeds a parity chain that is folded
/// forward and backward `rounds` times before the terminal measurement —
/// pure H/CNOT, fully Clifford, and far too wide for any dense
/// representation (2^48 amplitudes at 48 qubits). Exists purely to pin the
/// tableau backend's wide-path throughput.
fn ghz_ladder(qubits: usize, rounds: usize) -> Circuit {
    let mut c = Circuit::new(qubits);
    c.h(nisq_ir::Qubit(0));
    for _ in 0..rounds {
        for q in 0..qubits - 1 {
            c.cnot(nisq_ir::Qubit(q), nisq_ir::Qubit(q + 1));
        }
        for q in (0..qubits - 1).rev() {
            c.cnot(nisq_ir::Qubit(q), nisq_ir::Qubit(q + 1));
        }
    }
    c.measure_all();
    c
}

/// An alternating hidden string for the wide Bernstein-Vazirani entries.
fn bv_hidden(bits: usize) -> Vec<bool> {
    (0..bits).map(|i| i % 3 != 1).collect()
}

fn measure(session: &mut Session, spec: &Spec) -> Measurement {
    let machine = session.machine(spec.topology, DEFAULT_MACHINE_SEED, 0);
    let compiled = session
        .compile(&machine, &spec.config, &spec.circuit)
        .expect("baseline benchmarks compile on their machine");
    let physical = compiled.physical_circuit();
    let sim = Simulator::new(&machine, SimulatorConfig::with_trials(spec.trials, 1));
    // Lowering happens once, outside the timed region: what's ratcheted is
    // trial throughput, not program analysis.
    let program = sim.prepare_with_noise(physical, spec.noise.as_ref());

    // One warm-up run outside the timed region.
    let (_, tiers) = sim.run_program_with_stats(&program);
    let backend = tiers.backend.name();

    let mut rates = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        let start = Instant::now();
        let (result, _) = sim.run_program_with_stats(&program);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(result.trials(), spec.trials);
        rates.push(f64::from(spec.trials) / elapsed);
    }
    let best = rates.iter().cloned().fold(0.0f64, f64::max);
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    Measurement {
        benchmark: spec.name,
        compiler: spec.compiler,
        gates: physical.expand_swaps().len(),
        trials: spec.trials,
        backend,
        best_trials_per_sec: best,
        mean_trials_per_sec: mean,
    }
}

/// Reads the `(benchmark, compiler, best_trials_per_sec)` triple of every
/// row of a baseline file written by this binary.
///
/// # Errors
///
/// Fails if the file is not JSON, has no non-empty `measurements` array, or
/// a row lacks one of the three fields. A row the ratchet cannot read must
/// fail the check rather than silently drop out of it.
fn parse_baseline(text: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let rows = doc
        .get("measurements")
        .and_then(json::Value::as_array)
        .filter(|rows| !rows.is_empty())
        .ok_or("no measurements")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let missing = |key: &str| format!("measurement {i} has no {key:?}");
            let name = |key: &str| {
                row.get(key)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| missing(key))
            };
            let rate = row
                .get("best_trials_per_sec")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| missing("best_trials_per_sec"))?;
            Ok((name("benchmark")?, name("compiler")?, rate))
        })
        .collect()
}

/// Compares fresh measurements against a baseline; returns the number of
/// configurations that regressed beyond `max_regress` plus the number of
/// baseline rows no measurement covers (so renaming or dropping a
/// configuration cannot silently disable its guard).
fn ratchet(
    measurements: &[Measurement],
    baseline: &[(String, String, f64)],
    max_regress: f64,
) -> usize {
    let mut regressions = 0;
    for (b, c, _) in baseline {
        if !measurements
            .iter()
            .any(|m| m.benchmark == *b && m.compiler == *c)
        {
            println!("  {b:>8} / {c:<10} in baseline but NOT MEASURED — update BENCH_sim.json");
            regressions += 1;
        }
    }
    for m in measurements {
        let Some((_, _, base)) = baseline
            .iter()
            .find(|(b, c, _)| b == m.benchmark && c == m.compiler)
        else {
            println!(
                "  {:>8} / {:<10} not in baseline (new measurement, ok)",
                m.benchmark, m.compiler
            );
            continue;
        };
        let ratio = m.best_trials_per_sec / base;
        let verdict = if ratio < 1.0 - max_regress {
            regressions += 1;
            "REGRESSED"
        } else if ratio > 1.0 {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {:>8} / {:<10} baseline {:>10.0}  now {:>10.0}  ({:+.1}%)  {}",
            m.benchmark,
            m.compiler,
            base,
            m.best_trials_per_sec,
            (ratio - 1.0) * 100.0,
            verdict
        );
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = String::from("BENCH_sim.json");
    let mut check: Option<String> = None;
    let mut require_tableau = false;
    let mut max_regress = 0.20f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                check = Some(
                    args.get(i + 1)
                        .expect("--check needs a baseline path")
                        .clone(),
                );
                i += 2;
            }
            "--require-tableau" => {
                require_tableau = true;
                i += 1;
            }
            "--max-regress" => {
                max_regress = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regress needs a fraction, e.g. 0.2");
                i += 2;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}; see the doc comment for usage");
                std::process::exit(2);
            }
            other => {
                output = other.to_string();
                i += 1;
            }
        }
    }

    // One session for the whole run: machine snapshots are built once and
    // compiles share the session's placement memo.
    //
    // The random circuits routed onto a 4x4 grid (rand12, rand14) exercise
    // the fig11-scale dense regime, where an error trial replays the
    // circuit gate by gate on a 2^12-2^14-amplitude state vector; their
    // rates ratchet the whole dense engine at that width, the amplitude
    // kernels included. BV12 is the same scale on the tableau.
    let specs = [
        Spec::paper(Benchmark::Bv8, "qiskit", CompilerConfig::qiskit()),
        Spec::paper(
            Benchmark::Bv8,
            "r_smt_star",
            CompilerConfig::r_smt_star(0.5),
        ),
        Spec::paper(Benchmark::Toffoli, "qiskit", CompilerConfig::qiskit()),
        Spec::paper(
            Benchmark::Adder,
            "r_smt_star",
            CompilerConfig::r_smt_star(0.5),
        ),
        // Amplitude damping on every measurement: a non-Pauli Kraus
        // channel, so backend selection forces dense and *every* trial is
        // a full replay with per-site branch selection — this entry
        // ratchets the Kraus-channel replay path itself, which no
        // calibration-only workload exercises.
        Spec {
            name: "Toffoli-ad",
            compiler: "qiskit",
            config: CompilerConfig::qiskit(),
            circuit: Benchmark::Toffoli.circuit(),
            topology: TopologySpec::Ibmq16,
            trials: LARGE_TRIALS,
            require_tableau: false,
            noise: Some(
                NoiseSpec::from_json(
                    r#"{"name": "ad-measure", "bindings": [
                        {"on": "measure", "rate": 0.05,
                         "channel": {"kind": "amplitude-damping"}}]}"#,
                )
                .expect("the baseline noise spec is valid"),
            ),
        },
        Spec {
            name: "BV12",
            compiler: "qiskit",
            config: CompilerConfig::qiskit(),
            circuit: bernstein_vazirani(&[
                true, false, true, true, false, true, false, true, true, false, true,
            ]),
            topology: TopologySpec::Ibmq16,
            trials: TRIALS,
            require_tableau: false,
            noise: None,
        },
        Spec {
            name: "rand12",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: random_circuit(RandomCircuitConfig::new(12, 96, 7)),
            topology: TopologySpec::Grid { mx: 4, my: 4 },
            trials: LARGE_TRIALS,
            require_tableau: false,
            noise: None,
        },
        Spec {
            name: "rand14",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: random_circuit(RandomCircuitConfig::new(14, 112, 9)),
            topology: TopologySpec::Grid { mx: 4, my: 4 },
            trials: LARGE_TRIALS,
            require_tableau: false,
            noise: None,
        },
        // BV16 fills the whole IBMQ16 device (2^16 amplitudes): the widest
        // paper-family entry, Clifford-only, with swap-back mid-circuit
        // measurements, served by the stabilizer tableau.
        Spec {
            name: "BV16",
            compiler: "qiskit",
            config: CompilerConfig::qiskit(),
            circuit: bernstein_vazirani(&[
                true, false, true, true, false, true, false, true, true, false, true, true, false,
                false, true,
            ]),
            topology: TopologySpec::Ibmq16,
            trials: TRIALS,
            require_tableau: false,
            noise: None,
        },
        Spec {
            name: "cliff14",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: clifford_ladder(14, 40),
            topology: TopologySpec::Grid { mx: 4, my: 4 },
            trials: LARGE_TRIALS,
            require_tableau: false,
            noise: None,
        },
        // The wide Clifford entries below exceed any 2^n state vector and
        // exist only because the stabilizer-tableau backend serves them;
        // `--require-tableau` (used by CI) fails the run if backend
        // selection ever silently falls back to dense for these.
        Spec {
            name: "BV64",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: bernstein_vazirani(&bv_hidden(63)),
            topology: TopologySpec::Grid { mx: 8, my: 8 },
            trials: TRIALS,
            require_tableau: true,
            noise: None,
        },
        Spec {
            name: "BV128",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: bernstein_vazirani(&bv_hidden(127)),
            topology: TopologySpec::Grid { mx: 12, my: 11 },
            trials: LARGE_TRIALS,
            require_tableau: true,
            noise: None,
        },
        Spec {
            name: "ghz48",
            compiler: "greedy_e",
            config: CompilerConfig::greedy_e(),
            circuit: ghz_ladder(48, 8),
            topology: TopologySpec::Grid { mx: 7, my: 7 },
            trials: TRIALS,
            require_tableau: true,
            noise: None,
        },
    ];
    let mut session = Session::new();
    let measurements: Vec<Measurement> = specs.iter().map(|s| measure(&mut session, s)).collect();

    // Backend-occupancy guard: the wide Clifford entries must actually be
    // served by the tableau backend — a silent dense fallback would either
    // panic (>24 qubits) or quietly ratchet the wrong engine.
    if require_tableau {
        let mut missing = 0;
        for (spec, m) in specs.iter().zip(&measurements) {
            if spec.require_tableau && m.backend != "tableau" {
                eprintln!(
                    "  {:>8} / {:<10} expected the tableau backend, got {}",
                    m.benchmark, m.compiler, m.backend
                );
                missing += 1;
            }
        }
        if missing > 0 {
            eprintln!("{missing} wide entries were not served by the tableau backend");
            std::process::exit(1);
        }
        println!("backend occupancy check passed (all wide entries on tableau)");
    }

    // Hand-rolled JSON: the workspace has no serde_json offline (see
    // shims/README.md); the format below is stable and append-friendly.
    let mut json = String::from("{\n  \"trials_per_run\": 4096,\n  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"compiler\": \"{}\", \"physical_gates\": {}, \
             \"trials\": {}, \"backend\": \"{}\", \"best_trials_per_sec\": {:.1}, \
             \"mean_trials_per_sec\": {:.1}}}{}\n",
            m.benchmark,
            m.compiler,
            m.gates,
            m.trials,
            m.backend,
            m.best_trials_per_sec,
            m.mean_trials_per_sec,
            if i + 1 == measurements.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&output, &json).expect("failed to write baseline file");
    println!("wrote {output}");
    for m in &measurements {
        println!(
            "  {:>8} / {:<10} {:>6} gates  [{}]  best {:>10.0} trials/s  mean {:>10.0} trials/s",
            m.benchmark,
            m.compiler,
            m.gates,
            m.backend,
            m.best_trials_per_sec,
            m.mean_trials_per_sec
        );
    }

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_baseline(&text))
            .unwrap_or_else(|e| {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            });
        println!(
            "\nratchet against {baseline_path} (allowed regression {:.0}%):",
            max_regress * 100.0
        );
        let regressions = ratchet(&measurements, &baseline, max_regress);
        if regressions > 0 {
            eprintln!(
                "{regressions} configuration(s) regressed more than {:.0}%",
                max_regress * 100.0
            );
            std::process::exit(1);
        }
        println!("ratchet passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_rows_whatever_their_key_order_or_layout() {
        let text = r#"{"measurements": [
            {"compiler": "qiskit", "best_trials_per_sec": 2.5e6, "benchmark": "BV8"},
            {"benchmark": "Adder",
             "compiler": "r_smt_star",
             "best_trials_per_sec": 100}
        ]}"#;
        assert_eq!(
            parse_baseline(text).unwrap(),
            [
                ("BV8".to_string(), "qiskit".to_string(), 2.5e6),
                ("Adder".to_string(), "r_smt_star".to_string(), 100.0),
            ]
        );
    }

    #[test]
    fn a_missing_field_or_a_malformed_file_fails_the_check() {
        let missing = r#"{"measurements": [{"benchmark": "BV8", "compiler": "qiskit"}]}"#;
        assert!(parse_baseline(missing)
            .unwrap_err()
            .contains("best_trials_per_sec"));
        assert!(parse_baseline(r#"{"measurements": [{"benchmark": "BV8""#).is_err());
        assert!(parse_baseline(r#"{"measurements": []}"#).is_err());
    }

    #[test]
    fn the_checked_in_baseline_parses() {
        let rows = parse_baseline(include_str!("../../../../BENCH_sim.json")).unwrap();
        assert_eq!(rows.len(), 13);
    }
}
