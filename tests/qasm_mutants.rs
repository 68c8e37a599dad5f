//! Seeded mutation test of the OpenQASM reader: mutants of the circuits
//! under `tests/corpus/qasm/` (Table-2 benchmarks written by `qasm::emit`)
//! must each parse to a circuit or a typed `IrError` without panicking,
//! and every accepted circuit must compile under Qiskit on IBMQ16 or get a
//! typed `CompileError`.
//!
//! Mutators: byte flips, truncations and digit swaps; a register size of
//! 0, -1, 2^40 or one more than IBMQ16's 16 qubits; an unknown gate name;
//! an unbalanced parenthesis or bracket; a NaN or infinite angle.

use nisq::ir::{qasm, GateKind, IrError};
use nisq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CORPUS: [&str; 5] = [
    include_str!("corpus/qasm/bv4.qasm"),
    include_str!("corpus/qasm/hs2.qasm"),
    include_str!("corpus/qasm/toffoli.qasm"),
    include_str!("corpus/qasm/adder.qasm"),
    include_str!("corpus/qasm/qft.qasm"),
];

const MUTANTS: usize = 2000;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// Byte offsets of every occurrence of any of `bytes` in `text`.
fn offsets_of(text: &str, bytes: &[u8]) -> Vec<usize> {
    text.bytes()
        .enumerate()
        .filter_map(|(i, b)| bytes.contains(&b).then_some(i))
        .collect()
}

/// Applies one randomly chosen mutator, or returns `None` when the chosen
/// grammar mutator finds nothing to change.
fn mutate(text: &str, rng: &mut StdRng) -> Option<String> {
    let mut out = text.to_string();
    match rng.gen_range(0..8u32) {
        0 => {
            // Flip one of the low seven bits, so the text stays ASCII.
            let mut bytes = out.into_bytes();
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..7u32);
            out = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        2 => {
            // Swap one digit for another: mostly still a well-formed circuit.
            let i = pick(rng, &offsets_of(text, b"0123456789"))?;
            let digit = char::from(b'0' + rng.gen_range(0..10u8));
            out.replace_range(i..=i, digit.encode_utf8(&mut [0; 1]));
        }
        3 => {
            let register = pick(rng, &["qreg q[", "creg c["])?;
            let start = text.find(register)? + register.len();
            let end = start + text[start..].find(']')?;
            let size = pick(rng, &["0", "-1", "1099511627776", "17"])?;
            out.replace_range(start..end, size);
        }
        4 => {
            // Rename the gate of one gate statement.
            let lines: Vec<usize> = text
                .match_indices('\n')
                .map(|(i, _)| i + 1)
                .filter(|&i| text[i..].contains(" q[") && !text[i..].starts_with("measure"))
                .collect();
            let start = pick(rng, &lines)?;
            let end = start + text[start..].find([' ', '('])?;
            let name = pick(rng, &["cz", "u3", "hh", "CX", "ccx", ""])?;
            out.replace_range(start..end, name);
        }
        5 => {
            // Drop or double one parenthesis, or open one before an operand.
            if let Some(i) = pick(rng, &offsets_of(text, b"()")) {
                if rng.gen_bool(0.5) {
                    out.remove(i);
                } else {
                    out.insert(i, char::from(text.as_bytes()[i]));
                }
            } else {
                let i = pick(rng, &offsets_of(text, b"q"))?;
                out.insert(i, '(');
            }
        }
        6 => {
            let start = pick(rng, &offsets_of(text, b"("))? + 1;
            let end = start + text[start..].find(')')?;
            let angle = pick(rng, &["nan", "inf", "-1e999", "pi/0"])?;
            out.replace_range(start..end, angle);
        }
        _ => {
            // Drop or double one bracket.
            let i = pick(rng, &offsets_of(text, b"[]"))?;
            if rng.gen_bool(0.5) {
                out.remove(i);
            } else {
                out.insert(i, char::from(text.as_bytes()[i]));
            }
        }
    }
    Some(out)
}

#[test]
fn qasm_mutants_parse_to_a_typed_result_and_accepted_ones_compile() {
    let machine = Machine::ibmq16_on_day(2019, 0);
    let compiler = Compiler::new(&machine, CompilerConfig::qiskit());

    // The corpus itself parses to its benchmarks and compiles.
    for text in CORPUS {
        let circuit = qasm::parse(text).unwrap();
        assert_eq!(qasm::emit(&circuit), text);
        compiler.compile(&circuit).unwrap();
    }

    let mut rng = StdRng::seed_from_u64(30);
    let (mut compiled, mut refused, mut parse, mut invalid) = (0, 0, 0, 0);
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            qasm::parse(&text).map(|circuit| {
                // A NaN or infinite rotation would compile and then panic
                // the simulator.
                assert!(
                    circuit.iter().all(|gate| match gate.kind() {
                        GateKind::Rx(a) | GateKind::Ry(a) | GateKind::Rz(a) => a.is_finite(),
                        _ => true,
                    }),
                    "mutant {made} parsed to a non-finite angle:\n{text}"
                );
                compiler.compile(&circuit).map(|_| ())
            })
        }));
        match outcome {
            Ok(Ok(Ok(()))) => compiled += 1,
            Ok(Ok(Err(_))) => refused += 1,
            Ok(Err(IrError::QasmParse { .. })) => parse += 1,
            Ok(Err(_)) => invalid += 1,
            Err(_) => panic!("mutant {made} panicked:\n{text}"),
        }
    }
    // Every outcome class occurs, so no mutator is dead.
    assert!(
        compiled > 0 && refused > 0 && parse > 0 && invalid > 0,
        "compiled {compiled}, compile error {refused}, parse error {parse}, invalid {invalid}"
    );
}
