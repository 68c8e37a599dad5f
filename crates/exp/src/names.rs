//! Textual names for plan axes.
//!
//! The CLI and the serve daemon accept the same spellings for mappers,
//! benchmarks, topologies, day lists and expected answers; this module is
//! the single parser for them, so a request sent to `nisqc serve` and a
//! `nisqc` invocation resolve identically. Every function returns a typed
//! `Result` — unknown or malformed names are diagnoses, never panics.

use nisq_core::{CompilerConfig, RouteSelection};
use nisq_ir::Benchmark;
use nisq_machine::TopologySpec;

/// Resolves a mapper name (`qiskit`, `t-smt`, `t-smt-star`, `r-smt-star`,
/// `greedy-v`, `greedy-e`) into a compiler configuration.
///
/// # Errors
///
/// Returns a message naming the unknown mapper.
pub fn config_for(mapper: &str, omega: f64) -> Result<CompilerConfig, String> {
    Ok(match mapper {
        "qiskit" => CompilerConfig::qiskit(),
        "t-smt" => CompilerConfig::t_smt(RouteSelection::RectangleReservation),
        "t-smt-star" => CompilerConfig::t_smt_star(RouteSelection::OneBendPaths),
        "r-smt-star" => CompilerConfig::r_smt_star(omega),
        "greedy-v" => CompilerConfig::greedy_v(),
        "greedy-e" => CompilerConfig::greedy_e(),
        other => return Err(format!("unknown mapper {other}")),
    })
}

/// Largest day-axis a textual range may expand to. Untrusted input like
/// `"0..9999999999"` must fail before the expansion allocates.
pub const MAX_DAY_RANGE: usize = 100_000;

/// Parses a day-axis argument: comma-separated items, each a single index
/// or an `a..b` half-open range (`"0,3,5..8"` → `[0, 3, 5, 6, 7]`).
///
/// # Errors
///
/// Returns a message describing the first malformed item, an error for an
/// empty list, or an error for a range expanding past [`MAX_DAY_RANGE`].
pub fn parse_days(text: &str) -> Result<Vec<usize>, String> {
    let mut days = Vec::new();
    for item in text.split(',') {
        let item = item.trim();
        if let Some((start, end)) = item.split_once("..") {
            let start: usize = start
                .parse()
                .map_err(|_| format!("invalid day range start {start:?}"))?;
            let end: usize = end
                .parse()
                .map_err(|_| format!("invalid day range end {end:?}"))?;
            if start >= end {
                return Err(format!("empty day range {item:?}"));
            }
            if end - start > MAX_DAY_RANGE.saturating_sub(days.len()) {
                return Err(format!(
                    "day range {item:?} expands past the {MAX_DAY_RANGE}-day limit"
                ));
            }
            days.extend(start..end);
        } else {
            days.push(
                item.parse()
                    .map_err(|_| format!("invalid day index {item:?}"))?,
            );
        }
    }
    if days.is_empty() {
        return Err("no days given".to_string());
    }
    Ok(days)
}

/// Parses a topology name: `ibmq16`, `grid-MxN`, `ring-N` or
/// `heavy-hex-RxC`. The returned spec is *not* validated for degeneracy;
/// call [`TopologySpec::validate`] (or build machines via
/// `Machine::try_from_spec`) before trusting the dimensions.
///
/// # Errors
///
/// Returns a message describing the malformed name.
pub fn parse_topology(text: &str) -> Result<TopologySpec, String> {
    let lower = text.to_ascii_lowercase();
    let dims = |spec: &str| -> Result<(usize, usize), String> {
        spec.split_once('x')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| format!("invalid topology dimensions in {text:?}"))
    };
    if lower == "ibmq16" {
        Ok(TopologySpec::Ibmq16)
    } else if let Some(rest) = lower.strip_prefix("grid-") {
        let (mx, my) = dims(rest)?;
        Ok(TopologySpec::Grid { mx, my })
    } else if let Some(rest) = lower.strip_prefix("ring-") {
        let n = rest
            .parse()
            .map_err(|_| format!("invalid ring size in {text:?}"))?;
        Ok(TopologySpec::Ring { n })
    } else if let Some(rest) = lower.strip_prefix("heavy-hex-") {
        let (rows, cols) = dims(rest)?;
        Ok(TopologySpec::HeavyHex { rows, cols })
    } else {
        Err(format!("unknown topology {text:?}"))
    }
}

/// Resolves one Table-2 benchmark name, ignoring case (`bv4`, `Toffoli`).
///
/// # Errors
///
/// Returns a message naming the unknown benchmark.
pub fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark {name}"))
}

/// Resolves a benchmark-list argument (`all`, `representative`, `none`, or
/// a comma list of Table-2 names) into benchmarks. `none` selects no
/// benchmarks — for plans built entirely from custom QASM circuits.
///
/// # Errors
///
/// Returns a message naming the first unknown benchmark.
pub fn parse_benchmarks(text: &str) -> Result<Vec<Benchmark>, String> {
    match text.to_ascii_lowercase().as_str() {
        "all" => Ok(Benchmark::all().to_vec()),
        "representative" => Ok(Benchmark::representative().to_vec()),
        "none" => Ok(Vec::new()),
        _ => text
            .split(',')
            .map(|name| parse_benchmark(name.trim()))
            .collect(),
    }
}

/// Parses a circuit's correct answer, written as its classical bits in
/// order (`"1101"`); `what` names where the text came from in the error.
///
/// # Errors
///
/// Returns a message naming the first character that is neither `0` nor
/// `1`.
pub fn parse_bits(text: &str, what: &str) -> Result<Vec<bool>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid bit {other:?} in {what}")),
        })
        .collect()
}

/// Resolves a mapper-list argument (`table1` or a comma list of mapper
/// names) into labelled configurations.
///
/// # Errors
///
/// Returns a message for an unknown mapper or a duplicate label.
pub fn parse_mappers(text: &str, omega: f64) -> Result<Vec<(String, CompilerConfig)>, String> {
    if text.eq_ignore_ascii_case("table1") {
        return Ok(CompilerConfig::table1()
            .into_iter()
            .map(|c| (c.algorithm.name().to_string(), c))
            .collect());
    }
    let mappers: Vec<(String, CompilerConfig)> = text
        .split(',')
        .map(|name| {
            let name = name.trim();
            config_for(name, omega).map(|c| (name.to_string(), c))
        })
        .collect::<Result<_, _>>()?;
    // Labels address report cells, so they must be unambiguous.
    for (i, (label, _)) in mappers.iter().enumerate() {
        if mappers[..i].iter().any(|(seen, _)| seen == label) {
            return Err(format!("duplicate mapper {label}"));
        }
    }
    Ok(mappers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_day_lists_and_ranges() {
        assert_eq!(parse_days("0,3,5..8").unwrap(), vec![0, 3, 5, 6, 7]);
        assert_eq!(parse_days("2").unwrap(), vec![2]);
        assert!(parse_days("5..5").is_err());
        assert!(parse_days("x").is_err());
        assert!(parse_days("").is_err());
        assert!(parse_days("0..9999999999").is_err());
    }

    #[test]
    fn parses_topology_names() {
        assert_eq!(parse_topology("ibmq16").unwrap(), TopologySpec::Ibmq16);
        assert_eq!(
            parse_topology("grid-4x4").unwrap(),
            TopologySpec::Grid { mx: 4, my: 4 }
        );
        assert_eq!(
            parse_topology("ring-12").unwrap(),
            TopologySpec::Ring { n: 12 }
        );
        assert_eq!(
            parse_topology("heavy-hex-2x7").unwrap(),
            TopologySpec::HeavyHex { rows: 2, cols: 7 }
        );
        assert!(parse_topology("torus-3x3").is_err());
    }

    #[test]
    fn parses_benchmark_and_mapper_lists() {
        assert_eq!(parse_benchmarks("all").unwrap().len(), 12);
        assert_eq!(parse_benchmarks("representative").unwrap().len(), 3);
        assert_eq!(
            parse_benchmarks("bv4,toffoli").unwrap(),
            vec![Benchmark::Bv4, Benchmark::Toffoli]
        );
        assert!(parse_benchmarks("bv99").is_err());
        assert_eq!(parse_benchmark("TOFFOLI").unwrap(), Benchmark::Toffoli);
        assert!(parse_benchmark("all").is_err());

        assert_eq!(parse_mappers("table1", 0.5).unwrap().len(), 6);
        let pair = parse_mappers("qiskit,greedy-e", 0.5).unwrap();
        assert_eq!(pair[0].0, "qiskit");
        assert_eq!(pair[1].1, CompilerConfig::greedy_e());
        assert!(parse_mappers("magic", 0.5).is_err());
        assert!(parse_mappers("qiskit,qiskit", 0.5).is_err());
    }

    #[test]
    fn parses_answers_bit_by_bit() {
        assert_eq!(
            parse_bits("1101", "--expected").unwrap(),
            vec![true, true, false, true]
        );
        assert_eq!(parse_bits("", "--expected").unwrap(), Vec::<bool>::new());
        assert_eq!(
            parse_bits("10x1", "--expected").unwrap_err(),
            "invalid bit 'x' in --expected"
        );
    }

    #[test]
    fn every_documented_mapper_name_is_accepted() {
        for name in [
            "qiskit",
            "t-smt",
            "t-smt-star",
            "r-smt-star",
            "greedy-v",
            "greedy-e",
        ] {
            assert!(config_for(name, 0.5).is_ok(), "{name}");
        }
    }
}
