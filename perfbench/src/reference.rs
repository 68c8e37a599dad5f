//! Stored reference outputs and the checks against them.
//!
//! `perfbench/reference.txt` holds, for every (config, benchmark, day) cell
//! the workloads can run on IBMQ16, the compiler's golden-snapshot fields,
//! and for every (noise scenario, cell) pair a reference success rate
//! measured at many more trials than any workload uses. A measured rate
//! passes when it lies within [`Z`] standard errors of the reference
//! (binomial, both estimates' variance), plus one trial's worth of slack.
//! The bound depends on the trial counts only, never on the workload seed.

use crate::plans;
use nisq_core::{CompiledCircuit, CompilerConfig};
use nisq_exp::{CellRecord, Session, DEFAULT_MACHINE_SEED};
use nisq_ir::Benchmark;
use nisq_machine::{Machine, TopologySpec};
use nisq_sim::{Simulator, SimulatorConfig};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Standard errors a success rate may stray from its reference: a false
/// failure is a 6-sigma event (about 2e-9 per cell).
pub const Z: f64 = 6.0;
/// Scenario label of cells under the built-in calibration noise alone.
pub const BUILTIN: &str = "builtin";
/// Trials of a noise-free run that must all return the expected output.
const IDEAL_TRIALS: u32 = 256;

const REFERENCE_SEED: u64 = 0x5eed_0000_2019_0001;
const REFERENCE_TRIALS: u32 = 1 << 18;
const REFERENCE_NOISE_TRIALS: u32 = 1 << 20;

/// The golden-snapshot fields of one compiled cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub placement: String,
    pub swaps: usize,
    pub slots: u32,
    pub physical_gates: usize,
    pub hw_cnots: usize,
    pub reliability_bits: u64,
}

impl Digest {
    pub fn of(exe: &CompiledCircuit) -> Digest {
        let placement: Vec<String> = exe
            .placement()
            .as_slice()
            .iter()
            .map(|h| h.0.to_string())
            .collect();
        Digest {
            placement: placement.join(","),
            swaps: exe.swap_count(),
            slots: exe.duration_slots(),
            physical_gates: exe.physical_circuit().len(),
            hw_cnots: exe.hardware_cnot_count(),
            reliability_bits: exe.estimated_reliability().to_bits(),
        }
    }
}

type CellId = (String, String, usize);

#[derive(Debug, Default)]
pub struct Reference {
    digests: HashMap<CellId, Digest>,
    /// (scenario, config, benchmark, day) -> (rate, trials behind it).
    rates: HashMap<(String, CellId), (f64, u32)>,
}

fn cell_id(config: &str, benchmark: &str, day: usize) -> CellId {
    (config.to_string(), benchmark.to_string(), day)
}

fn field<T: std::str::FromStr>(text: Option<&str>, what: &str) -> Result<T, String> {
    text.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("reference: bad {what}"))
}

impl Reference {
    /// The reference data compiled into the harness.
    pub fn load() -> Result<Reference, String> {
        Reference::parse(include_str!("../reference.txt"))
    }

    fn parse(text: &str) -> Result<Reference, String> {
        let mut reference = Reference::default();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let mut f = line.split('|');
            match f.next() {
                Some("C") => {
                    let id = cell_id(
                        f.next().unwrap_or_default(),
                        f.next().unwrap_or_default(),
                        field(f.next(), "day")?,
                    );
                    let digest = Digest {
                        placement: f.next().unwrap_or_default().to_string(),
                        swaps: field(f.next(), "swaps")?,
                        slots: field(f.next(), "slots")?,
                        physical_gates: field(f.next(), "physical gates")?,
                        hw_cnots: field(f.next(), "hardware cnots")?,
                        reliability_bits: f
                            .next()
                            .and_then(|t| u64::from_str_radix(t, 16).ok())
                            .ok_or("reference: bad reliability bits")?,
                    };
                    reference.digests.insert(id, digest);
                }
                Some("R") => {
                    let scenario = f.next().unwrap_or_default().to_string();
                    let id = cell_id(
                        f.next().unwrap_or_default(),
                        f.next().unwrap_or_default(),
                        field(f.next(), "day")?,
                    );
                    let rate = field(f.next(), "rate")?;
                    let trials = field(f.next(), "trials")?;
                    reference.rates.insert((scenario, id), (rate, trials));
                }
                _ => return Err(format!("reference: unknown line {line:?}")),
            }
        }
        Ok(reference)
    }

    /// Checks an executable against its stored golden-snapshot fields.
    pub fn check_compiled(
        &self,
        config: &str,
        benchmark: &str,
        day: usize,
        exe: &CompiledCircuit,
    ) -> Result<(), String> {
        let want = self
            .digests
            .get(&cell_id(config, benchmark, day))
            .ok_or_else(|| format!("no reference digest for {config}/{benchmark}/day {day}"))?;
        let got = Digest::of(exe);
        if &got != want {
            return Err(format!(
                "{config}/{benchmark}/day {day}: compiled {got:?}, reference {want:?}"
            ));
        }
        Ok(())
    }

    /// Checks a report record: the compile fields a report carries against
    /// the digest, and the success rate against the reference rate.
    pub fn check_record(&self, cell: &CellRecord) -> Result<(), String> {
        let name = format!("{}/{}/day {}", cell.config, cell.circuit, cell.day);
        let want = self
            .digests
            .get(&cell_id(&cell.config, &cell.circuit, cell.day))
            .ok_or_else(|| format!("no reference digest for {name}"))?;
        let got = (
            cell.swap_count,
            cell.duration_slots,
            cell.hardware_cnots,
            cell.estimated_reliability.to_bits(),
        );
        let expect = (want.swaps, want.slots, want.hw_cnots, want.reliability_bits);
        if got != expect {
            return Err(format!(
                "{name}: (swaps, slots, cnots, reliability bits) {got:?}, reference {expect:?}"
            ));
        }
        let scenario = cell.noise.as_deref().unwrap_or(BUILTIN);
        let rate = cell
            .success_rate
            .ok_or_else(|| format!("{name}: not simulated"))?;
        let &(reference, ref_trials) = self
            .rates
            .get(&(
                scenario.to_string(),
                cell_id(&cell.config, &cell.circuit, cell.day),
            ))
            .ok_or_else(|| format!("no reference rate for {scenario} {name}"))?;
        let bound = rate_bound(reference, ref_trials, cell.trials);
        if (rate - reference).abs() > bound {
            return Err(format!(
                "{scenario} {name}: success rate {rate} is {:.5} from the reference {reference}, bound {bound:.5}",
                (rate - reference).abs()
            ));
        }
        Ok(())
    }
}

/// Largest allowed distance between a rate measured over `trials` and a
/// reference rate measured over `ref_trials`.
pub fn rate_bound(reference: f64, ref_trials: u32, trials: u32) -> f64 {
    let (n, m) = (f64::from(trials.max(1)), f64::from(ref_trials.max(1)));
    let p = reference.clamp(0.5 / m, 1.0 - 0.5 / m);
    Z * (p * (1.0 - p) * (1.0 / n + 1.0 / m)).sqrt() + 1.0 / n
}

/// Runs `exe` noise-free and requires every trial to return the
/// benchmark's hand-written expected output.
pub fn check_ideal(
    machine: &Machine,
    benchmark: &str,
    exe: &CompiledCircuit,
) -> Result<(), String> {
    let expected = plans::expected_bits(benchmark)
        .ok_or_else(|| format!("no hand-written output for {benchmark}"))?;
    let mut config = SimulatorConfig::ideal(IDEAL_TRIALS);
    config.threads = 1;
    let result = Simulator::new(machine, config).run_ideal(exe.physical_circuit());
    let share = result.probability_of(&expected);
    if share != 1.0 {
        return Err(format!(
            "{benchmark} ({}): a noise-free run returned the expected output on {share} of trials",
            exe.algorithm()
        ));
    }
    Ok(())
}

/// Regenerates the reference file: golden fields of every Table-1 cell on
/// days 0-6, and reference rates for the built-in noise and every noise
/// scenario the workloads use. Takes a few minutes.
pub fn write(path: &str) -> Result<(), String> {
    let mut out = String::from(
        "# perfbench reference data; regenerate with: bash perfbench/run.sh --write-reference perfbench/reference.txt\n\
         # C|config|benchmark|day|placement|swaps|slots|physical_gates|hw_cnots|reliability_bits\n\
         # R|scenario|config|benchmark|day|success_rate|trials\n",
    );
    let mut session = Session::new();
    for day in plans::DAYS {
        let machine = session
            .try_machine(TopologySpec::Ibmq16, DEFAULT_MACHINE_SEED, day)
            .map_err(|e| e.to_string())?;
        for config in CompilerConfig::table1() {
            for b in Benchmark::all() {
                let exe = session
                    .compile(&machine, &config, &b.circuit())
                    .map_err(|e| e.to_string())?;
                check_ideal(&machine, b.name(), &exe)?;
                let d = Digest::of(&exe);
                writeln!(
                    out,
                    "C|{}|{}|{day}|{}|{}|{}|{}|{}|{:016x}",
                    config.algorithm.name(),
                    b.name(),
                    d.placement,
                    d.swaps,
                    d.slots,
                    d.physical_gates,
                    d.hw_cnots,
                    d.reliability_bits
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
    let depol = plans::noise_spec(plans::DEPOL_CNOT_X2);
    let plans = [
        plans::table1_week(REFERENCE_SEED, REFERENCE_TRIALS),
        plans::table1_week(REFERENCE_SEED, REFERENCE_TRIALS)
            .with_noise(depol.name().to_string(), depol),
        [plans::BITFLIP_SQ, plans::AD_MEASURE].iter().fold(
            nisq_exp::SweepPlan::new()
                .benchmarks(Benchmark::all())
                .config(plans::greedy_e_label(), CompilerConfig::greedy_e())
                .with_trials(REFERENCE_NOISE_TRIALS)
                .per_cell_sim_seed(REFERENCE_SEED),
            |plan, text| {
                let spec = plans::noise_spec(text);
                plan.with_noise(spec.name().to_string(), spec)
            },
        ),
    ];
    for plan in &plans {
        let report = session.run(plan).map_err(|e| e.to_string())?;
        for c in &report.cells {
            writeln!(
                out,
                "R|{}|{}|{}|{}|{}|{}",
                c.noise.as_deref().unwrap_or(BUILTIN),
                c.config,
                c.circuit,
                c.day,
                c.success(),
                c.trials
            )
            .expect("writing to a String cannot fail");
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_shrinks_with_trials_and_keeps_slack_at_the_edges() {
        assert!(rate_bound(0.5, 1 << 18, 65536) < rate_bound(0.5, 1 << 18, 4096));
        assert!(rate_bound(1.0, 1 << 18, 4096) >= 1.0 / 4096.0);
    }

    #[test]
    fn stored_reference_covers_every_workload_cell() {
        let reference = Reference::load().unwrap();
        assert_eq!(reference.digests.len(), 12 * 6 * 7);
        assert_eq!(reference.rates.len(), 2 * 12 * 6 * 7 + 2 * 12);
    }
}
