//! OpenQASM 2.0 emission and parsing.
//!
//! The compiler's final output in the paper is OpenQASM code runnable on
//! IBMQ16. This module emits the subset of OpenQASM 2.0 the rest of the
//! system produces (single-qubit gates, `cx`, `swap`, `barrier`, `measure`)
//! and parses the same subset back, enabling round-trip tests and the use of
//! externally-written circuits as compiler input.

use crate::circuit::Circuit;
use crate::error::IrError;
use crate::gate::{Clbit, Gate, GateKind, Qubit};
use std::f64::consts::PI;

/// Emits OpenQASM 2.0 source for `circuit`, using a single quantum register
/// `q` and classical register `c`.
///
/// # Example
///
/// ```
/// use nisq_ir::{Circuit, Qubit, qasm};
///
/// let mut bell = Circuit::new(2);
/// bell.h(Qubit(0));
/// bell.cnot(Qubit(0), Qubit(1));
/// let src = qasm::emit(&bell);
/// assert!(src.contains("cx q[0], q[1];"));
/// ```
pub fn emit(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    out.push_str(&format!("creg c[{}];\n", circuit.num_clbits()));
    for gate in circuit.iter() {
        out.push_str(&emit_gate(gate));
        out.push('\n');
    }
    out
}

fn emit_gate(gate: &Gate) -> String {
    let q = gate.qubits();
    match gate.kind() {
        GateKind::Measure => format!("measure q[{}] -> c[{}];", q[0].0, gate.clbits()[0].0),
        GateKind::Barrier => {
            let ops: Vec<String> = q.iter().map(|x| format!("q[{}]", x.0)).collect();
            format!("barrier {};", ops.join(", "))
        }
        GateKind::Cnot => format!("cx q[{}], q[{}];", q[0].0, q[1].0),
        GateKind::Swap => format!("swap q[{}], q[{}];", q[0].0, q[1].0),
        GateKind::Rx(a) => format!("rx({a}) q[{}];", q[0].0),
        GateKind::Ry(a) => format!("ry({a}) q[{}];", q[0].0),
        GateKind::Rz(a) => format!("rz({a}) q[{}];", q[0].0),
        kind => format!("{} q[{}];", kind.mnemonic(), q[0].0),
    }
}

/// Parses the subset of OpenQASM 2.0 emitted by [`emit`].
///
/// Supports one `qreg` and one `creg` declaration, the gates
/// `h x y z s sdg t tdg rx ry rz cx swap`, `measure` and `barrier`, plus
/// comments (`//`) and blank lines. Angles may be plain numbers or simple
/// `pi`-expressions (`pi`, `pi/2`, `-pi/4`, `2*pi`).
///
/// # Errors
///
/// Returns [`IrError::QasmParse`] describing the first offending line.
///
/// # Example
///
/// ```
/// use nisq_ir::qasm;
///
/// let src = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n";
/// let circuit = qasm::parse(src)?;
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.cnot_count(), 1);
/// # Ok::<(), nisq_ir::IrError>(())
/// ```
pub fn parse(source: &str) -> Result<Circuit, IrError> {
    let mut num_qubits: Option<usize> = None;
    let mut num_clbits: Option<usize> = None;
    let mut gates: Vec<Gate> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, &mut num_qubits, &mut num_clbits, &mut gates)?;
        }
    }

    let nq = num_qubits.ok_or(IrError::QasmParse {
        line: 0,
        message: "missing qreg declaration".into(),
    })?;
    let nc = num_clbits.unwrap_or(nq);
    let mut circuit = Circuit::with_clbits(nq, nc);
    for g in gates {
        circuit.try_push(g)?;
    }
    Ok(circuit)
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_statement(
    stmt: &str,
    line: usize,
    num_qubits: &mut Option<usize>,
    num_clbits: &mut Option<usize>,
    gates: &mut Vec<Gate>,
) -> Result<(), IrError> {
    let err = |message: String| IrError::QasmParse { line, message };

    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        *num_qubits = Some(parse_reg_size(rest, line)?);
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("creg") {
        *num_clbits = Some(parse_reg_size(rest, line)?);
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("measure") {
        let parts: Vec<&str> = rest.split("->").collect();
        if parts.len() != 2 {
            return Err(err(format!("malformed measure statement: {stmt}")));
        }
        let q = parse_index(parts[0], 'q', line)?;
        let c = parse_index(parts[1], 'c', line)?;
        gates.push(Gate::measure(Qubit(q), Clbit(c)));
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("barrier") {
        let mut qs = Vec::new();
        for op in rest.split(',') {
            qs.push(Qubit(parse_index(op, 'q', line)?));
        }
        gates.push(Gate::barrier(qs));
        return Ok(());
    }

    // Gate applications: "<name>[(angle)] q[i](, q[j])".
    let (head, operands) = match stmt.find(" q[") {
        Some(i) => (&stmt[..i], &stmt[i..]),
        None => return Err(err(format!("unrecognised statement: {stmt}"))),
    };
    let head = head.trim();
    let ops: Vec<usize> = operands
        .split(',')
        .map(|op| parse_index(op, 'q', line))
        .collect::<Result<_, _>>()?;

    let (name, angle) = match head.find('(') {
        Some(i) => {
            let name = &head[..i];
            let inner = head[i + 1..]
                .strip_suffix(')')
                .ok_or_else(|| err(format!("unbalanced parenthesis in: {stmt}")))?;
            (name, Some(parse_angle(inner, line)?))
        }
        None => (head, None),
    };

    let single = |kind: GateKind, ops: &[usize]| -> Result<Gate, IrError> {
        if ops.len() != 1 {
            return Err(IrError::QasmParse {
                line,
                message: format!("gate {name} expects one operand"),
            });
        }
        Ok(Gate::single(kind, Qubit(ops[0])))
    };
    let double = |ops: &[usize]| -> Result<(Qubit, Qubit), IrError> {
        if ops.len() != 2 {
            return Err(IrError::QasmParse {
                line,
                message: format!("gate {name} expects two operands"),
            });
        }
        Ok((Qubit(ops[0]), Qubit(ops[1])))
    };

    let gate = match name {
        "h" => single(GateKind::H, &ops)?,
        "x" => single(GateKind::X, &ops)?,
        "y" => single(GateKind::Y, &ops)?,
        "z" => single(GateKind::Z, &ops)?,
        "s" => single(GateKind::S, &ops)?,
        "sdg" => single(GateKind::Sdg, &ops)?,
        "t" => single(GateKind::T, &ops)?,
        "tdg" => single(GateKind::Tdg, &ops)?,
        "rx" => single(
            GateKind::Rx(angle.ok_or_else(|| err("rx requires an angle".into()))?),
            &ops,
        )?,
        "ry" => single(
            GateKind::Ry(angle.ok_or_else(|| err("ry requires an angle".into()))?),
            &ops,
        )?,
        "rz" => single(
            GateKind::Rz(angle.ok_or_else(|| err("rz requires an angle".into()))?),
            &ops,
        )?,
        "cx" | "CX" => {
            let (c, t) = double(&ops)?;
            Gate::cnot(c, t)
        }
        "swap" => {
            let (a, b) = double(&ops)?;
            Gate::swap(a, b)
        }
        other => return Err(err(format!("unknown gate: {other}"))),
    };
    gates.push(gate);
    Ok(())
}

/// Largest register size [`parse`] accepts. Untrusted QASM is rejected with
/// [`IrError::RegisterTooLarge`] before any per-qubit allocation happens;
/// simulation-size limits downstream are far tighter than this.
pub const MAX_REGISTER_SIZE: usize = 1 << 16;

fn parse_reg_size(rest: &str, line: usize) -> Result<usize, IrError> {
    let rest = rest.trim();
    let open = rest.find('[');
    let close = rest.find(']');
    let size: usize = match (open, close) {
        (Some(o), Some(c)) if c > o => {
            rest[o + 1..c]
                .trim()
                .parse()
                .map_err(|_| IrError::QasmParse {
                    line,
                    message: format!("invalid register size in: {rest}"),
                })?
        }
        _ => {
            return Err(IrError::QasmParse {
                line,
                message: format!("malformed register declaration: {rest}"),
            })
        }
    };
    if size > MAX_REGISTER_SIZE {
        return Err(IrError::RegisterTooLarge {
            requested: size,
            max: MAX_REGISTER_SIZE,
        });
    }
    Ok(size)
}

fn parse_index(op: &str, reg: char, line: usize) -> Result<usize, IrError> {
    let op = op.trim();
    let expected_prefix = format!("{reg}[");
    if let Some(rest) = op.strip_prefix(&expected_prefix) {
        if let Some(inner) = rest.strip_suffix(']') {
            return inner.trim().parse().map_err(|_| IrError::QasmParse {
                line,
                message: format!("invalid index in operand: {op}"),
            });
        }
    }
    Err(IrError::QasmParse {
        line,
        message: format!("expected operand of register '{reg}', found: {op}"),
    })
}

fn parse_angle(expr: &str, line: usize) -> Result<f64, IrError> {
    let expr = expr.trim();
    let err = || IrError::QasmParse {
        line,
        message: format!("cannot parse angle expression: {expr}"),
    };
    // A NaN or infinite angle has no rotation to lower to.
    let finite = |v: f64| if v.is_finite() { Ok(v) } else { Err(err()) };
    if let Ok(v) = expr.parse::<f64>() {
        return finite(v);
    }
    // Simple pi expressions: [-][k*]pi[/d]
    let (negative, body) = match expr.strip_prefix('-') {
        Some(rest) => (true, rest.trim()),
        None => (false, expr),
    };
    let (mult, body) = match body.find("*pi") {
        Some(i) => {
            let m: f64 = body[..i].trim().parse().map_err(|_| err())?;
            (m, &body[i + 1..])
        }
        None => (1.0, body),
    };
    if !body.starts_with("pi") {
        return Err(err());
    }
    let rest = &body[2..];
    let div = if let Some(d) = rest.strip_prefix('/') {
        d.trim().parse::<f64>().map_err(|_| err())?
    } else if rest.trim().is_empty() {
        1.0
    } else {
        return Err(err());
    };
    let val = mult * PI / div;
    finite(if negative { -val } else { val })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    #[test]
    fn emit_contains_headers_and_registers() {
        let c = Benchmark::Bv4.circuit();
        let src = emit(&c);
        assert!(src.starts_with("OPENQASM 2.0;"));
        assert!(src.contains("qreg q[4];"));
        assert!(src.contains("creg c[4];"));
        assert!(src.contains("measure q[0] -> c[0];"));
    }

    #[test]
    fn round_trip_preserves_every_benchmark() {
        for b in Benchmark::all() {
            let original = b.circuit();
            let parsed = parse(&emit(&original)).expect("round trip should parse");
            assert_eq!(parsed.num_qubits(), original.num_qubits(), "{b}");
            assert_eq!(parsed.len(), original.len(), "{b}");
            assert_eq!(parsed.cnot_count(), original.cnot_count(), "{b}");
            for (g1, g2) in original.iter().zip(parsed.iter()) {
                assert_eq!(g1.qubits(), g2.qubits(), "{b}");
            }
        }
    }

    #[test]
    fn parse_accepts_pi_expressions() {
        let src = "qreg q[1];\ncreg c[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nry(2*pi) q[0];";
        let c = parse(src).unwrap();
        match c.gates()[0].kind() {
            GateKind::Rz(a) => assert!((a - PI / 2.0).abs() < 1e-12),
            other => panic!("unexpected kind {other:?}"),
        }
        match c.gates()[1].kind() {
            GateKind::Rx(a) => assert!((a + PI / 4.0).abs() < 1e-12),
            other => panic!("unexpected kind {other:?}"),
        }
        match c.gates()[2].kind() {
            GateKind::Ry(a) => assert!((a - 2.0 * PI).abs() < 1e-12),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn parse_reports_unknown_gate_with_line_number() {
        let src = "qreg q[1];\ncreg c[1];\nfoo q[0];";
        let err = parse(src).unwrap_err();
        match err {
            IrError::QasmParse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("foo"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_requires_qreg() {
        let err = parse("creg c[2];\n").unwrap_err();
        assert!(matches!(err, IrError::QasmParse { .. }));
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let src =
            "// a bell pair\nqreg q[2];\ncreg c[2];\n\nh q[0]; // superpose\ncx q[0], q[1];\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn parse_rejects_out_of_range_operand() {
        let src = "qreg q[2];\ncreg c[2];\ncx q[0], q[5];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parse_handles_multiple_statements_per_line() {
        let src = "qreg q[2]; creg c[2]; h q[0]; cx q[0], q[1];";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn parse_rejects_oversized_registers_without_allocating() {
        let src = format!("qreg q[{}];\ncreg c[2];\nh q[0];", MAX_REGISTER_SIZE + 1);
        match parse(&src).unwrap_err() {
            IrError::RegisterTooLarge { requested, max } => {
                assert_eq!(requested, MAX_REGISTER_SIZE + 1);
                assert_eq!(max, MAX_REGISTER_SIZE);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The boundary itself is accepted (declaration only, no gates).
        let src = format!("qreg q[{MAX_REGISTER_SIZE}];\ncreg c[1];");
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn malformed_input_yields_typed_errors_never_panics() {
        // Each entry is (description, source). All must return Err — the
        // battery exists to prove untrusted QASM cannot panic the parser.
        let cases: &[(&str, &str)] = &[
            ("negative register size", "qreg q[-4];"),
            ("non-numeric register size", "qreg q[two];"),
            ("missing bracket in qreg", "qreg q4];"),
            ("reversed brackets in qreg", "qreg q]4[;"),
            ("empty register size", "qreg q[];"),
            (
                "huge register size overflow",
                "qreg q[99999999999999999999];",
            ),
            ("truncated measure", "qreg q[2]; creg c[2]; measure q[0];"),
            (
                "measure into wrong register",
                "qreg q[2]; creg c[2]; measure q[0] -> q[1];",
            ),
            ("unknown gate", "qreg q[1]; frobnicate q[0];"),
            ("unknown statement", "qreg q[1]; gibberish;"),
            ("unbalanced parenthesis", "qreg q[1]; rx(pi/2 q[0];"),
            ("missing angle", "qreg q[1]; rz q[0];"),
            ("bad angle expression", "qreg q[1]; rx(banana) q[0];"),
            ("bad pi divisor", "qreg q[1]; rz(pi/zero) q[0];"),
            ("NaN angle", "qreg q[1]; rz(nan) q[0];"),
            ("infinite angle", "qreg q[1]; rx(-inf) q[0];"),
            ("overflowing angle", "qreg q[1]; ry(1e999) q[0];"),
            ("zero pi divisor", "qreg q[1]; rz(pi/0) q[0];"),
            ("cx with one operand", "qreg q[2]; cx q[0];"),
            ("cx with three operands", "qreg q[3]; cx q[0], q[1], q[2];"),
            ("h with two operands", "qreg q[2]; h q[0], q[1];"),
            ("duplicate cx operands", "qreg q[2]; cx q[0], q[0];"),
            ("operand index out of range", "qreg q[2]; h q[7];"),
            ("operand with bad index", "qreg q[2]; h q[x];"),
            ("operand missing close bracket", "qreg q[2]; h q[0;"),
            (
                "clbit out of range",
                "qreg q[2]; creg c[1]; measure q[1] -> c[1];",
            ),
            ("barrier on bad operand", "qreg q[2]; barrier q[0], nope;"),
            ("no qreg at all", "creg c[3]; h q[0];"),
        ];
        for (what, src) in cases {
            let err = std::panic::catch_unwind(|| parse(src))
                .unwrap_or_else(|_| panic!("{what}: parser panicked"));
            assert!(err.is_err(), "{what}: expected a typed error, got Ok");
        }
    }

    #[test]
    fn barrier_round_trips() {
        let mut c = Circuit::new(3);
        c.barrier_all();
        let parsed = parse(&emit(&c)).unwrap();
        assert_eq!(parsed.gates()[0].kind(), GateKind::Barrier);
        assert_eq!(parsed.gates()[0].qubits().len(), 3);
    }
}
