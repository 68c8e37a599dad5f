//! # nisq-bench — experiment harness for the paper's tables and figures
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (the README's "What this reproduction substitutes" has the index). The
//! binaries are thin declarations over the experiment API of
//! [`nisq_exp`] — each one builds a
//! [`SweepPlan`](nisq_exp::SweepPlan), executes it through a caching
//! [`Session`](nisq_exp::Session), and renders the resulting
//! [`Report`](nisq_exp::Report) as a text table. This library holds the
//! pieces they share: the canonical machine/calibration helpers, the
//! golden compiler snapshot, and text-table / statistics helpers.
//!
//! The experiments substitute a noisy simulator driven by synthetic
//! calibration data for the paper's real IBMQ16 runs, so absolute numbers
//! differ from the paper while the comparisons between mapping algorithms
//! (who wins, by roughly what factor) are preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nisq_core::{Compiler, CompilerConfig};
use nisq_ir::Benchmark;
use nisq_machine::{Calibration, CalibrationGenerator, Machine, Topology};

/// The default machine seed used across the experiment binaries, so the
/// whole evaluation refers to one consistent synthetic device (re-exported
/// from the experiment API, which applies it to every plan by default).
pub const DEFAULT_MACHINE_SEED: u64 = nisq_exp::DEFAULT_MACHINE_SEED;

/// The default number of simulation trials (matches the paper's 8192 trials
/// per execution on IBMQ16).
pub const DEFAULT_TRIALS: u32 = 8192;

/// Builds the IBMQ16-like machine for a given calibration day.
pub fn ibmq16_on_day(day: usize) -> Machine {
    Machine::ibmq16_on_day(DEFAULT_MACHINE_SEED, day)
}

/// The first `days` calibration snapshots of the default synthetic IBMQ16
/// device — the canonical calibration series every daily-variation figure
/// draws from.
pub fn ibmq16_calibration_days(days: usize) -> Vec<Calibration> {
    CalibrationGenerator::new(Topology::ibmq16(), DEFAULT_MACHINE_SEED).days(days)
}

/// Reads the `NISQ_TRIALS` override every figure binary honours, falling
/// back to `default` trials per cell.
pub fn trials_from_env(default: u32) -> u32 {
    std::env::var("NISQ_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Calibration days snapshotted by the golden equivalence harness (day 0
/// plus one drifted day, so calibration-aware configs are pinned on two
/// different machine states).
pub const GOLDEN_DAYS: &[usize] = &[0, 3];

/// Produces one golden line per Table-1 configuration × benchmark × day on
/// the default synthetic IBMQ16 machine, pinning every observable artifact
/// of a compilation bit-exactly:
///
/// `config|benchmark|day|placement|swaps|makespan|physical_gates|hw_cnots|reliability_bits`
///
/// where `placement` is the comma-separated hardware location of each
/// program qubit and `reliability_bits` is the estimated reliability's raw
/// IEEE-754 bit pattern in hex (so equality means bit-identical floats).
///
/// The `golden_snapshot` binary writes these lines to
/// `tests/golden/table1_ibmq16.txt`; `tests/pipeline_equivalence.rs`
/// regenerates them and diffs against that file.
///
/// # Panics
///
/// Panics if any benchmark fails to compile (they all fit on IBMQ16).
pub fn golden_snapshot_lines(days: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    for &day in days {
        let machine = ibmq16_on_day(day);
        for config in CompilerConfig::table1() {
            let label = format!(
                "{}/{}",
                config.algorithm.name(),
                config.routing.short_name()
            );
            for b in Benchmark::all() {
                let compiled = Compiler::new(&machine, config)
                    .compile(&b.circuit())
                    .unwrap_or_else(|e| panic!("{label} failed on {b}: {e}"));
                let placement: Vec<String> = compiled
                    .placement()
                    .as_slice()
                    .iter()
                    .map(|h| h.0.to_string())
                    .collect();
                out.push(format!(
                    "{label}|{}|{day}|{}|{}|{}|{}|{}|{:016x}",
                    b.name(),
                    placement.join(","),
                    compiled.swap_count(),
                    compiled.duration_slots(),
                    compiled.physical_circuit().len(),
                    compiled.hardware_cnot_count(),
                    compiled.estimated_reliability().to_bits(),
                ));
            }
        }
    }
    out
}

/// Geometric mean of a slice of positive values (used for the paper's
/// "geomean improvement" numbers). Returns 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Renders a simple aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a fraction with three decimal places.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_of_mixed_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn format_table_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.lines().count() >= 4);
    }
}
