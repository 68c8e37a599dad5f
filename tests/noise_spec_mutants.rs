//! Seeded mutation test of noise specs: mutants of the specs under
//! `tests/corpus/noise/` must each parse to a spec or a typed `NoiseError`
//! without panicking (`NotCptp` only for explicit Kraus operators), and
//! every accepted mutant must lower on a fixed 3-qubit IBMQ16 circuit to
//! complete Kraus tables and run.
//!
//! Mutators: byte flips, digit swaps and truncations; a kind the spec lacks; a rate of
//! -1, 2 or 1e999; zero Pauli weights; extra Kraus operators (up to a
//! ninth) or a non-finite entry; `qubits` on a `cnot` binding.

use nisq::exp::NoiseError;
use nisq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CORPUS: [&str; 3] = [
    include_str!("corpus/noise/pauli-kinds.json"),
    include_str!("corpus/noise/kraus-kinds.json"),
    include_str!("corpus/noise/pauli-weighted-9-18-1.json"),
];

const MUTANTS: usize = 2000;

/// Byte offsets just past each occurrence of `pattern`.
fn ends_of(text: &str, pattern: &str) -> Vec<usize> {
    text.match_indices(pattern)
        .map(|(i, m)| i + m.len())
        .collect()
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// The spans of the number tokens in `text[from..]`.
fn numbers_after(text: &str, from: usize) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'-' || bytes[i].is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Applies one randomly chosen mutator, or returns `None` when the chosen
/// grammar mutator finds nothing to change.
fn mutate(text: &str, rng: &mut StdRng) -> Option<String> {
    let mut out = text.to_string();
    match rng.gen_range(0..9u32) {
        0 => {
            // Flip one of the low seven bits, so the text stays ASCII.
            let mut bytes = out.into_bytes();
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..7u32);
            out = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        8 => {
            // Swap one digit for another: mostly still a well-formed spec.
            let digits: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter_map(|(i, b)| b.is_ascii_digit().then_some(i))
                .collect();
            let i = pick(rng, &digits)?;
            let digit = char::from(b'0' + rng.gen_range(0..10u8));
            out.replace_range(i..=i, digit.encode_utf8(&mut [0; 1]));
        }
        2 => {
            let start = pick(rng, &ends_of(text, "\"kind\": \""))?;
            let end = start + text[start..].find('"')?;
            let kind = pick(rng, &["loss", "depolarizing-3q", "Bit-Flip", ""])?;
            out.replace_range(start..end, kind);
        }
        3 => {
            let start = pick(rng, &ends_of(text, "\"rate\": "))?;
            let end = if text[start..].starts_with('{') {
                start + text[start..].find('}')? + 1
            } else {
                start + text[start..].find([',', '}'])?
            };
            out.replace_range(start..end, pick(rng, &["-1", "2", "1e999"])?);
        }
        4 => {
            // Zero every weight of one pauli-weighted channel.
            let at = pick(rng, &ends_of(text, "\"wx\": "))?;
            for (start, end) in numbers_after(text, at).into_iter().take(3).rev() {
                out.replace_range(start..end, "0");
            }
        }
        5 => {
            // One to seven more operators: three to nine in all.
            let at = pick(rng, &ends_of(text, "\"ops\": ["))?;
            let extra = "[[0.1, 0], [0, 0], [0, 0], [-0.1, 0]], ".repeat(rng.gen_range(1..8usize));
            out.insert_str(at, &extra);
        }
        6 => {
            let at = pick(rng, &ends_of(text, "\"ops\": ["))?;
            let (start, end) = pick(rng, &numbers_after(text, at))?;
            out.replace_range(start..end, pick(rng, &["1e999", "-1e999"])?);
        }
        _ => {
            let at = pick(rng, &ends_of(text, "\"on\": \"cnot\", "))?;
            out.insert_str(at, "\"qubits\": [0], ");
        }
    }
    Some(out)
}

/// A physical circuit on the IBMQ16 chain 0-1-2: single-qubit gates on
/// every wire, a CNOT, a SWAP and a measure of each qubit.
fn chain_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(Qubit(0)).t(Qubit(1)).x(Qubit(2));
    c.cnot(Qubit(0), Qubit(1));
    c.push(Gate::swap(Qubit(1), Qubit(2)));
    c.measure_all();
    c
}

/// Lowers and runs an accepted spec, checking every Kraus table's
/// completeness `Σ_k A_k†A_k = I`.
fn lower_and_run(sim: &Simulator, circuit: &Circuit, spec: &NoiseSpec) {
    let program = sim.prepare_with_noise(circuit, Some(spec));
    for table in program.kraus_tables() {
        let (mut g00, mut g01_re, mut g01_im, mut g11) = (0.0, 0.0, 0.0, 0.0);
        for &(d0, off, d1) in &table.grams {
            g00 += d0;
            g01_re += off.re;
            g01_im += off.im;
            g11 += d1;
        }
        for defect in [g00 - 1.0, g01_re, g01_im, g11 - 1.0] {
            assert!(defect.abs() <= 1e-9, "Gram sum {:?}", table.grams);
        }
    }
    let result = sim.run_program(&program);
    assert_eq!(result.trials(), 64);
    assert_eq!(result.counts().values().sum::<u32>(), 64);
}

#[test]
fn noise_spec_mutants_parse_to_a_typed_result_and_accepted_ones_run() {
    let machine = Machine::ibmq16_on_day(2019, 0);
    let mut config = SimulatorConfig::with_trials(64, 7);
    config.threads = 1;
    let sim = Simulator::new(&machine, config);
    let circuit = chain_circuit();

    // The corpus itself is accepted and runs.
    for text in CORPUS {
        lower_and_run(&sim, &circuit, &NoiseSpec::from_json(text).unwrap());
    }

    let mut rng = StdRng::seed_from_u64(26);
    let (mut accepted, mut parse, mut invalid, mut not_cptp) = (0, 0, 0, 0);
    let mut made = 0;
    while made < MUTANTS {
        let mut text = CORPUS[rng.gen_range(0..CORPUS.len())].to_string();
        let Some(first) = mutate(&text, &mut rng) else {
            continue;
        };
        text = first;
        if rng.gen_bool(0.25) {
            text = mutate(&text, &mut rng).unwrap_or(text);
        }
        made += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| match NoiseSpec::from_json(&text) {
            Ok(spec) => {
                lower_and_run(&sim, &circuit, &spec);
                Ok(())
            }
            Err(e) => Err(e),
        }));
        match outcome {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(NoiseError::Parse(_))) => parse += 1,
            Ok(Err(NoiseError::Invalid(_))) => invalid += 1,
            Ok(Err(NoiseError::NotCptp(message))) => {
                assert!(
                    message.contains("→ kraus)"),
                    "NotCptp for a binding without Kraus operators: {message}\n{text}"
                );
                not_cptp += 1;
            }
            Err(_) => panic!("mutant {made} panicked:\n{text}"),
        }
    }
    // Every outcome class occurs, so no mutator is dead.
    assert!(
        accepted > 0 && parse > 0 && invalid > 0 && not_cptp > 0,
        "accepted {accepted}, parse {parse}, invalid {invalid}, not CPTP {not_cptp}"
    );
}
