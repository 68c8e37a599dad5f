//! Request parsing and admission control.
//!
//! One request is one line of JSON. The envelope carries an operation, an
//! optional client correlation `id`, and — for `run` — a plan object that
//! maps onto [`SweepPlan`] through the same name parsers the CLI uses, so
//! a request and a `nisqc sweep` invocation resolve identically. Parsing
//! is strict: unknown fields are rejected (a typo silently ignored is a
//! plan silently different from the one the client meant).

use crate::error::ServeError;
use nisq_exp::json::{self, Value};
use nisq_exp::{names, CircuitSpec, NoiseSpec, SweepPlan};
use nisq_ir::qasm;

/// One parsed request envelope.
#[derive(Debug)]
pub struct Request {
    /// Client correlation id, echoed verbatim into the response.
    pub id: Option<String>,
    /// Client-supplied stable key naming the request's journal, so a
    /// reconnecting client resumes the same journal after a crash.
    pub resume_key: Option<String>,
    /// The requested operation.
    pub op: Op,
}

/// The operations the protocol supports.
#[derive(Debug)]
pub enum Op {
    /// Execute a sweep plan and stream the report back.
    Run {
        /// The workload.
        plan: Box<SweepPlan>,
        /// Per-request timeout override in milliseconds (clamped to the
        /// server's configured maximum).
        timeout_ms: Option<u64>,
        /// Whether the plan asked for journaled execution
        /// (`"journal": true`); requires a server `--journal-dir` and a
        /// request `resume_key`.
        journal: bool,
    },
    /// Liveness probe.
    Ping,
    /// Aggregate daemon statistics.
    Stats,
    /// Begin graceful shutdown: drain in-flight work, refuse new work.
    Shutdown,
}

fn protocol(message: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        message: message.into(),
    }
}

fn invalid(message: impl Into<String>) -> ServeError {
    ServeError::InvalidPlan {
        message: message.into(),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServeError::Protocol`] for malformed JSON or a malformed envelope,
/// [`ServeError::InvalidPlan`] for a well-formed envelope carrying a bad
/// plan.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = json::parse(line).map_err(|e| protocol(e.to_string()))?;
    let Value::Object(fields) = &doc else {
        return Err(protocol("request must be a JSON object"));
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "op" | "id" | "plan" | "timeout_ms" | "resume_key"
        ) {
            return Err(protocol(format!("unknown request field {key:?}")));
        }
    }
    let id = match doc.get("id") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) => Some(s.clone()),
        Some(Value::Integer(i)) => Some(i.to_string()),
        Some(_) => return Err(protocol("\"id\" must be a string or integer")),
    };
    let resume_key = match doc.get("resume_key") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) if !s.is_empty() => Some(s.clone()),
        Some(Value::String(_)) => return Err(protocol("\"resume_key\" must not be empty")),
        Some(_) => return Err(protocol("\"resume_key\" must be a string")),
    };
    let op = match doc.get("op") {
        None => "run",
        Some(v) => v
            .as_str()
            .ok_or_else(|| protocol("\"op\" must be a string"))?,
    };
    let op = match op {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "run" => {
            let timeout_ms = match doc.get("timeout_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| protocol("\"timeout_ms\" must be a non-negative integer"))?,
                ),
            };
            let plan_doc = doc
                .get("plan")
                .ok_or_else(|| protocol("run request is missing \"plan\""))?;
            let (plan, journal) = parse_plan_with_journal(plan_doc)?;
            Op::Run {
                plan: Box::new(plan),
                timeout_ms,
                journal,
            }
        }
        other => return Err(protocol(format!("unknown op {other:?}"))),
    };
    Ok(Request { id, resume_key, op })
}

/// Accepts either a JSON string or an array of scalars, normalizing the
/// array into the comma-separated form the CLI name parsers take.
fn comma_list(value: &Value, what: &str) -> Result<String, ServeError> {
    match value {
        Value::String(s) => Ok(s.clone()),
        Value::Array(items) => {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::String(s) => parts.push(s.clone()),
                    Value::Integer(i) => parts.push(i.to_string()),
                    _ => {
                        return Err(invalid(format!(
                            "\"{what}\" array items must be strings or integers"
                        )))
                    }
                }
            }
            Ok(parts.join(","))
        }
        _ => Err(invalid(format!("\"{what}\" must be a string or an array"))),
    }
}

fn parse_expected_bits(text: &str) -> Result<Vec<bool>, ServeError> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(invalid(format!("invalid bit {other:?} in \"expected\""))),
        })
        .collect()
}

fn parse_circuit_spec(doc: &Value) -> Result<CircuitSpec, ServeError> {
    let Value::Object(fields) = doc else {
        return Err(invalid("\"circuits\" items must be objects"));
    };
    for (key, _) in fields {
        if !matches!(key.as_str(), "name" | "qasm" | "expected") {
            return Err(invalid(format!("unknown circuit field {key:?}")));
        }
    }
    let name = doc
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid("circuit is missing a string \"name\""))?;
    let source = doc
        .get("qasm")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid(format!("circuit {name:?} is missing string \"qasm\"")))?;
    let circuit = qasm::parse(source)
        .map_err(|e| invalid(format!("circuit {name:?} has malformed QASM: {e}")))?;
    let mut spec = CircuitSpec::new(name, circuit);
    if let Some(expected) = doc.get("expected") {
        let bits = expected
            .as_str()
            .ok_or_else(|| invalid("\"expected\" must be a string of 0/1 bits"))?;
        spec = spec
            .with_expected(parse_expected_bits(bits)?)
            .map_err(invalid)?;
    }
    Ok(spec)
}

/// Parses the `plan` object of a run request into a [`SweepPlan`] plus the
/// plan's `"journal"` flag.
///
/// # Errors
///
/// [`ServeError::InvalidPlan`] naming the offending field.
pub fn parse_plan_with_journal(doc: &Value) -> Result<(SweepPlan, bool), ServeError> {
    let Value::Object(fields) = doc else {
        return Err(invalid("\"plan\" must be a JSON object"));
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "benchmarks"
                | "circuits"
                | "mappers"
                | "omega"
                | "days"
                | "topologies"
                | "trials"
                | "machine_seed"
                | "sim_seed"
                | "noise"
                | "journal"
        ) {
            return Err(invalid(format!("unknown plan field {key:?}")));
        }
    }
    let journal = match doc.get("journal") {
        None | Some(Value::Null) | Some(Value::Bool(false)) => false,
        Some(Value::Bool(true)) => true,
        Some(_) => return Err(invalid("\"journal\" must be a boolean")),
    };

    let omega = match doc.get("omega") {
        None => 0.5,
        Some(v) => {
            let omega = v
                .as_f64()
                .ok_or_else(|| invalid("\"omega\" must be a number"))?;
            if !omega.is_finite() || !(0.0..=1.0).contains(&omega) {
                return Err(invalid(format!("\"omega\" must be in [0, 1], got {omega}")));
            }
            omega
        }
    };

    let mut plan = SweepPlan::new();

    if let Some(v) = doc.get("benchmarks") {
        let benchmarks = names::parse_benchmarks(&comma_list(v, "benchmarks")?).map_err(invalid)?;
        plan = plan.benchmarks(benchmarks);
    }
    if let Some(v) = doc.get("circuits") {
        let items = v
            .as_array()
            .ok_or_else(|| invalid("\"circuits\" must be an array"))?;
        for item in items {
            plan = plan.circuit(parse_circuit_spec(item)?);
        }
    }
    if plan.circuits().is_empty() {
        return Err(invalid(
            "plan selects no circuits (give \"benchmarks\" and/or \"circuits\")",
        ));
    }

    let mappers = match doc.get("mappers") {
        None => names::parse_mappers("r-smt-star", omega).map_err(invalid)?,
        Some(v) => names::parse_mappers(&comma_list(v, "mappers")?, omega).map_err(invalid)?,
    };
    plan = plan.with_configs(mappers);

    if let Some(v) = doc.get("days") {
        let days = names::parse_days(&comma_list(v, "days")?).map_err(invalid)?;
        plan = plan.days(days);
    }
    if let Some(v) = doc.get("topologies") {
        let mut specs = Vec::new();
        for name in comma_list(v, "topologies")?.split(',') {
            let spec = names::parse_topology(name.trim()).map_err(invalid)?;
            spec.validate()
                .map_err(|e| invalid(format!("topology {}: {e}", name.trim())))?;
            specs.push(spec);
        }
        plan = plan.topologies(specs);
    }
    if let Some(v) = doc.get("trials") {
        let trials = v
            .as_u64()
            .ok_or_else(|| invalid("\"trials\" must be a non-negative integer"))?;
        let trials =
            u32::try_from(trials).map_err(|_| invalid("\"trials\" exceeds the u32 range"))?;
        plan = plan.with_trials(trials);
    }
    if let Some(v) = doc.get("machine_seed") {
        let seed = v
            .as_u64()
            .ok_or_else(|| invalid("\"machine_seed\" must be a non-negative integer"))?;
        plan = plan.with_machine_seed(seed);
    }
    if let Some(v) = doc.get("sim_seed") {
        let seed = v
            .as_u64()
            .ok_or_else(|| invalid("\"sim_seed\" must be a non-negative integer"))?;
        plan = plan.fixed_sim_seed(seed);
    }
    match doc.get("noise") {
        None | Some(Value::Null) => {}
        // One spec object or an array of them; each spec names itself, and
        // an array becomes a sweep axis (cells multiply accordingly).
        Some(Value::Array(items)) => {
            for item in items {
                let spec = NoiseSpec::from_value(item).map_err(|e| invalid(e.to_string()))?;
                plan = plan.with_noise(spec.name().to_string(), spec);
            }
        }
        Some(v) => {
            let spec = NoiseSpec::from_value(v).map_err(|e| invalid(e.to_string()))?;
            plan = plan.with_noise(spec.name().to_string(), spec);
        }
    }
    Ok((plan, journal))
}

/// The admission budgets a plan must fit inside before it is enqueued.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Largest cell count a single request may describe.
    pub max_cells: usize,
    /// Largest trial count per cell.
    pub max_trials: u32,
    /// Largest machine (topology qubit count) a request may target.
    pub max_machine_qubits: usize,
    /// Widest circuit (logical qubits) a request may *simulate* —
    /// state-vector cost is exponential in this, so it is the budget that
    /// actually protects the daemon.
    pub max_sim_qubits: usize,
}

/// Checks `plan` against the admission budgets without building machines
/// or materializing cells (cell count is computed analytically, so an
/// oversized plan is rejected in O(axes), not O(cells)).
///
/// # Errors
///
/// [`ServeError::Budget`] naming the exceeded budget, or
/// [`ServeError::InvalidPlan`] for a plan whose topology is degenerate.
pub fn admit(plan: &SweepPlan, budgets: &Budgets) -> Result<(), ServeError> {
    let budget = |message: String| ServeError::Budget { message };

    if plan.trials() > budgets.max_trials {
        return Err(budget(format!(
            "plan requests {} trials per cell, budget is {}",
            plan.trials(),
            budgets.max_trials
        )));
    }

    let topology_count = match plan.scope() {
        nisq_exp::MachineScope::Topologies(specs) => {
            for spec in specs {
                let qubits = spec
                    .qubit_count()
                    .map_err(|e| invalid(format!("topology {}: {e}", spec.name())))?;
                if qubits > budgets.max_machine_qubits {
                    return Err(budget(format!(
                        "topology {} has {qubits} qubits, budget is {}",
                        spec.name(),
                        budgets.max_machine_qubits
                    )));
                }
            }
            specs.len()
        }
        nisq_exp::MachineScope::GridPerCircuit => {
            for spec in plan.circuits() {
                let grid = SweepPlan::grid_for(&spec.circuit);
                let qubits = grid.qubit_count().unwrap_or(usize::MAX);
                if qubits > budgets.max_machine_qubits {
                    return Err(budget(format!(
                        "circuit {:?} needs a {qubits}-qubit grid, budget is {}",
                        spec.name, budgets.max_machine_qubits
                    )));
                }
            }
            1
        }
    };

    if plan.trials() > 0 {
        for spec in plan.circuits() {
            if spec.expected.is_some() && spec.circuit.num_qubits() > budgets.max_sim_qubits {
                return Err(budget(format!(
                    "circuit {:?} simulates {} qubits, budget is {}",
                    spec.name,
                    spec.circuit.num_qubits(),
                    budgets.max_sim_qubits
                )));
            }
        }
    }

    let cells = topology_count
        .checked_mul(plan.day_axis().len())
        .and_then(|n| n.checked_mul(plan.circuits().len()))
        .and_then(|n| n.checked_mul(plan.configs().len()))
        .and_then(|n| n.checked_mul(plan.noise_axis().len().max(1)))
        .unwrap_or(usize::MAX);
    if cells > budgets.max_cells {
        return Err(budget(format!(
            "plan describes {cells} cells, budget is {}",
            budgets.max_cells
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets() -> Budgets {
        Budgets {
            max_cells: 64,
            max_trials: 1000,
            max_machine_qubits: 64,
            max_sim_qubits: 16,
        }
    }

    #[test]
    fn parses_a_full_run_request() {
        let line = r#"{"op": "run", "id": "r1", "timeout_ms": 500, "plan": {
            "benchmarks": "bv4,hs2", "mappers": ["qiskit", "greedy-e"],
            "days": "0..2", "topologies": "ibmq16", "trials": 32,
            "machine_seed": 7, "sim_seed": 9}}"#
            .replace('\n', " ");
        let request = parse_request(&line).unwrap();
        assert_eq!(request.id.as_deref(), Some("r1"));
        assert_eq!(request.resume_key, None);
        let Op::Run {
            plan,
            timeout_ms,
            journal,
        } = request.op
        else {
            panic!("expected a run op");
        };
        assert_eq!(timeout_ms, Some(500));
        assert!(!journal);
        assert_eq!(plan.cells().len(), 2 * 2 * 2);
        assert_eq!(plan.machine_seed(), 7);
        assert!(plan.cells().iter().all(|c| c.sim_seed == 9));
        admit(&plan, &budgets()).unwrap();
    }

    #[test]
    fn parses_custom_qasm_circuits() {
        let line = r#"{"plan": {"circuits": [{"name": "bell",
            "qasm": "qreg q[2]; creg c[2]; h q[0]; cx q[0], q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];",
            "expected": "00"}], "trials": 8}}"#
            .replace('\n', " ");
        let Op::Run { plan, .. } = parse_request(&line).unwrap().op else {
            panic!("expected a run op");
        };
        assert_eq!(plan.circuits()[0].name, "bell");
        assert_eq!(plan.circuits()[0].expected, Some(vec![false, false]));
        assert_eq!(plan.configs().len(), 1, "mappers default to r-smt-star");
    }

    #[test]
    fn parses_noise_axis_plans() {
        // A single spec object adds one noise point (cells unchanged in
        // count, every cell tagged).
        let line = r#"{"op": "run", "plan": {"benchmarks": "bv4", "trials": 8,
            "noise": {"name": "depol-x2", "bindings": [
                {"on": "cnot", "rate": {"calibration": 2.0},
                 "channel": {"kind": "depolarizing-2q"}}]}}}"#
            .replace('\n', " ");
        let Op::Run { plan, .. } = parse_request(&line).unwrap().op else {
            panic!("expected a run op");
        };
        assert_eq!(plan.noise_axis().len(), 1);
        assert_eq!(plan.noise_axis()[0].0, "depol-x2");
        assert!(plan.cells().iter().all(|c| c.noise == Some(0)));
        admit(&plan, &budgets()).unwrap();

        // An array of specs becomes a sweep axis: cells multiply, and the
        // admission cell count tracks the multiplication.
        let line = r#"{"op": "run", "plan": {"benchmarks": "bv4,hs2", "noise": [
            {"name": "a", "bindings": [{"on": "sq", "rate": 0.01,
                "channel": {"kind": "bit-flip"}}]},
            {"name": "b", "bindings": [{"on": "measure", "rate": 0.05,
                "channel": {"kind": "amplitude-damping"}}]}]}}"#
            .replace('\n', " ");
        let Op::Run { plan, .. } = parse_request(&line).unwrap().op else {
            panic!("expected a run op");
        };
        assert_eq!(plan.cells().len(), 2 * 2);
        admit(&plan, &budgets()).unwrap();
        let tight = Budgets {
            max_cells: 3,
            ..budgets()
        };
        let err = admit(&plan, &tight).unwrap_err();
        assert_eq!(err.code(), "budget", "{err}");
    }

    #[test]
    fn rejects_malformed_envelopes_with_protocol_errors() {
        for line in [
            "not json",
            "[1,2]",
            r#"{"op": "frobnicate"}"#,
            r#"{"op": "run"}"#,
            r#"{"op": "run", "plan": {}, "unknown_field": 1}"#,
            r#"{"op": 7}"#,
            r#"{"id": true, "op": "ping"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "protocol", "{line}: {err}");
        }
    }

    #[test]
    fn rejects_bad_plans_with_invalid_plan_errors() {
        for plan in [
            r#"{}"#,
            r#"{"benchmarks": "bv99"}"#,
            r#"{"benchmarks": "bv4", "mappers": "magic"}"#,
            r#"{"benchmarks": "bv4", "days": "9..2"}"#,
            r#"{"benchmarks": "bv4", "days": "0..9999999999"}"#,
            r#"{"benchmarks": "bv4", "topologies": "ring-2"}"#,
            r#"{"benchmarks": "bv4", "topologies": "torus-3x3"}"#,
            r#"{"benchmarks": "bv4", "omega": 3.5}"#,
            r#"{"benchmarks": "bv4", "trials": -5}"#,
            r#"{"benchmarks": "bv4", "tirals": 10}"#,
            r#"{"circuits": [{"name": "bad", "qasm": "qreg q[2]; zap q[0];"}]}"#,
            r#"{"circuits": [{"name": "huge", "qasm": "qreg q[999999];"}]}"#,
            // An answer that cannot match any outcome of the circuit.
            r#"{"circuits": [{"name": "short", "expected": "1",
                "qasm": "qreg q[2]; creg c[2]; measure q[0] -> c[0]; measure q[1] -> c[1];"}]}"#,
            // Noise specs go through the same strict parser the CLI uses:
            // unknown fields, shape/selector mismatches and non-CPTP Kraus
            // sets are all invalid-plan, not protocol, errors.
            r#"{"benchmarks": "bv4", "noise": {"name": "x", "bindings": [
                {"on": "cnot", "rate": 0.1, "channel": {"kind": "depolarizing-2q"}}],
                "extra": 1}}"#,
            r#"{"benchmarks": "bv4", "noise": {"name": "x", "bindings": [
                {"on": "sq", "rate": 0.1, "channel": {"kind": "depolarizing-2q"}}]}}"#,
            r#"{"benchmarks": "bv4", "noise": {"name": "x", "bindings": [
                {"on": "sq", "channel": {"kind": "kraus",
                 "ops": [[[2, 0], [0, 0], [0, 0], [2, 0]]]}}]}}"#,
            r#"{"benchmarks": "bv4", "noise": 7}"#,
        ] {
            let line = format!(r#"{{"op": "run", "plan": {plan}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.code(), "invalid-plan", "{plan}: {err}");
        }
    }

    #[test]
    fn admission_enforces_every_budget() {
        let plan = |text: &str| -> SweepPlan {
            let line = format!(r#"{{"op": "run", "plan": {text}}}"#);
            match parse_request(&line).unwrap().op {
                Op::Run { plan, .. } => *plan,
                _ => unreachable!(),
            }
        };
        // Too many cells: 12 benchmarks x 6 mappers x 1 day = 72 > 64.
        let err = admit(
            &plan(r#"{"benchmarks": "all", "mappers": "table1"}"#),
            &budgets(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "budget", "{err}");
        // Too many trials.
        let err = admit(
            &plan(r#"{"benchmarks": "bv4", "trials": 5000}"#),
            &budgets(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "budget", "{err}");
        // Machine too large (the check is analytic: no 10000-qubit
        // topology is ever built).
        let err = admit(
            &plan(r#"{"benchmarks": "bv4", "topologies": "grid-100x100"}"#),
            &budgets(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "budget", "{err}");
        // Within budget.
        admit(
            &plan(r#"{"benchmarks": "bv4,hs2", "mappers": "qiskit", "trials": 100}"#),
            &budgets(),
        )
        .unwrap();
    }

    #[test]
    fn journaled_requests_parse_flag_and_resume_key() {
        let line = r#"{"op": "run", "id": "j1", "resume_key": "client-7/nightly",
            "plan": {"benchmarks": "bv4", "trials": 8, "journal": true}}"#
            .replace('\n', " ");
        let request = parse_request(&line).unwrap();
        assert_eq!(request.resume_key.as_deref(), Some("client-7/nightly"));
        let Op::Run { journal, .. } = request.op else {
            panic!("expected a run op");
        };
        assert!(journal);

        // journal: false and omitted are the same thing.
        let line = r#"{"op": "run", "plan": {"benchmarks": "bv4", "journal": false}}"#;
        let Op::Run { journal, .. } = parse_request(line).unwrap().op else {
            panic!("expected a run op");
        };
        assert!(!journal);

        // Malformed journal/resume_key values are typed errors.
        let err = parse_request(r#"{"op": "run", "plan": {"benchmarks": "bv4", "journal": 1}}"#)
            .unwrap_err();
        assert_eq!(err.code(), "invalid-plan");
        for bad in [
            r#"{"op": "run", "resume_key": 7, "plan": {"benchmarks": "bv4"}}"#,
            r#"{"op": "run", "resume_key": "", "plan": {"benchmarks": "bv4"}}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code(), "protocol", "{bad}");
        }
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op": "ping"}"#).unwrap().op,
            Op::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op": "stats", "id": 4}"#).unwrap().op,
            Op::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap().op,
            Op::Shutdown
        ));
    }
}
