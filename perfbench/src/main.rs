//! The repository benchmark harness.
//!
//! ```text
//! perfbench --workload <table1-week|noise-study|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--nisqc <path>]
//! perfbench --write-reference <path>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics. Every run checks the
//! program's outputs outside its timed region. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod plans;
mod reference;
mod serve;
mod sweep;
mod sys;
mod trace;

use nisq_exp::TierStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: every untraced run prints all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sweep_cpu_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them. A layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("machine.build_ms", "ms"),
    ("machine.builds", "count"),
    ("core.compile_ms", "ms"),
    ("core.compiles", "count"),
    ("core.compile_hits", "count"),
    ("core.decompose_ms", "ms"),
    ("core.place_ms", "ms"),
    ("core.route_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("core.emit_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.place_runs", "count"),
    ("core.place_hits", "count"),
    ("core.physical_gates", "count"),
    ("core.swaps", "count"),
    ("sim.lower_ms", "ms"),
    ("sim.program_ops", "count"),
    ("sim.noise_sites", "count"),
    ("sim.run_ms.tableau", "ms"),
    ("sim.run_ms.dense", "ms"),
    ("sim.run_ms.kraus", "ms"),
    ("sim.trials", "count"),
    ("sim.tier.error_free", "count"),
    ("sim.tier.pauli_prop", "count"),
    ("sim.tier.checkpointed", "count"),
    ("sim.tier.full_replay", "count"),
    ("sim.memo_hits", "count"),
    ("sim.memo_misses", "count"),
    ("sim.stateless_share", "fraction"),
    ("exp.cores_used", "cores"),
    ("exp.report_ms", "ms"),
    ("exp.report_bytes", "bytes"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.latency_ms.plain", "ms"),
    ("serve.latency_ms.noise", "ms"),
    ("serve.latency_ms.journal", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.compile_hit_ratio", "fraction"),
    ("journal.bytes", "bytes"),
    ("trace.overhead_share", "fraction"),
    ("trace.cpu_wait_share", "fraction"),
];

/// What one run measured and how many of its operations failed a check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one failed operation; the first few messages are kept.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(message);
        }
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }
}

/// The simulator tier counts and their derived shares.
pub fn insert_tiers(m: &mut BTreeMap<&'static str, f64>, t: &TierStats) {
    let trials = t.total() as f64;
    m.insert("sim.trials", trials);
    m.insert("sim.tier.error_free", t.error_free as f64);
    m.insert("sim.tier.pauli_prop", t.pauli_prop as f64);
    m.insert("sim.tier.checkpointed", t.checkpointed as f64);
    m.insert("sim.tier.full_replay", t.full_replay as f64);
    m.insert("sim.memo_hits", t.memo_hits as f64);
    m.insert("sim.memo_misses", t.memo_misses as f64);
    let stateless = (t.error_free + t.pauli_prop) as f64;
    m.insert(
        "sim.stateless_share",
        if trials > 0.0 {
            stateless / trials
        } else {
            0.0
        },
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nisqc: PathBuf,
}

enum Command {
    Run(Args),
    WriteReference(String),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut nisqc = PathBuf::from("perfbench/target/release/nisqc");
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--nisqc" => nisqc = PathBuf::from(value),
            "--write-reference" => return Ok(Command::WriteReference(value.clone())),
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nisqc,
    }))
}

fn run(args: &Args) -> Result<Outcome, String> {
    // Run files (sockets, journals, spans) stay inside the checkout.
    let run_dir = Path::new(".perfbench");
    std::fs::create_dir_all(run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let mut out = Outcome::default();
    let sweep = match args.workload.as_str() {
        "table1-week" => Some(sweep::Sweep::Table1Week),
        "noise-study" => Some(sweep::Sweep::NoiseStudy),
        "serve-mixed" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    match (sweep, args.trace) {
        (Some(s), false) => sweep::run(s, args.seed, args.seconds, &mut out)?,
        (Some(s), true) => sweep::run_traced(s, args.seed, args.seconds, run_dir, &mut out)?,
        (None, trace) => serve::run(
            &args.nisqc,
            args.seed,
            args.seconds,
            trace,
            run_dir,
            &mut out,
        )?,
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::WriteReference(path)) => {
            return match reference::write(&path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in list {
        if !args.trace && !out.metrics.contains_key(name) {
            eprintln!("perfbench: {}: no value for {name}", args.workload);
            return ExitCode::FAILURE;
        }
        out.metrics.entry(name).or_insert(0.0);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
    for (name, unit) in list {
        println!("{name:<28} {:>16.6} {unit}", out.metrics[name]);
    }
    // Failures are counted against operations attempted; the JSON carries
    // both, so the share is printed here rather than as a metric.
    println!(
        "{:<28} {:>16.6} fraction",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics[name];
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
