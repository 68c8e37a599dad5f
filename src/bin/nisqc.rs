//! `nisqc` — command-line front end for the noise-adaptive compiler.
//!
//! Reads an OpenQASM 2.0 program, compiles it for a calibrated machine with
//! one of the paper's mapping algorithms, prints a compilation report, and
//! optionally writes the hardware executable and measures its simulated
//! success rate. The `sweep`, `serve` and `journal` subcommands execute
//! declarative experiment plans, run the persistent compile-and-simulate
//! daemon, and maintain sweep journals. `nisqc --help` and
//! `nisqc <subcommand> --help` print each command's usage (the `USAGE`,
//! `SWEEP_USAGE`, `SERVE_USAGE` and `JOURNAL_USAGE` texts below).

use nisq::exp::names::{
    config_for, parse_benchmark, parse_benchmarks, parse_bits, parse_days, parse_mappers,
    parse_topology,
};
use nisq::prelude::*;
use nisq::serve::{Endpoint, Server, ServerConfig, SupervisorConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

struct Options {
    input: Input,
    mapper: String,
    omega: f64,
    day: usize,
    seed: u64,
    trials: u32,
    expected: Option<Vec<bool>>,
    output: Option<String>,
}

enum Input {
    QasmFile(String),
    Benchmark(Benchmark),
}

/// `nisqc --help`: single-circuit compilation, plus the subcommand index.
const USAGE: &str = "\
usage: nisqc <input.qasm> [options]
       nisqc --benchmark <name> [options]
       nisqc sweep [sweep options]            (see nisqc sweep --help)
       nisqc serve [serve options]            (see nisqc serve --help)
       nisqc journal inspect|compact <path>   (see nisqc journal --help)

Compiles one circuit for a calibrated IBMQ16 machine, prints a compilation
report, and optionally writes the executable and measures its simulated
success rate.

Options:
  --benchmark <name> compile a built-in Table-2 benchmark instead of a file
  --mapper <name>    qiskit | t-smt | t-smt-star | r-smt-star |
                     greedy-v | greedy-e              (default: r-smt-star)
  --omega <w>        readout weight for r-smt-star    (default: 0.5)
  --day <d>          calibration day index            (default: 0)
  --seed <s>         machine calibration seed         (default: 2019)
  --trials <n>       simulate n noisy trials          (default: 0 = skip)
  --expected <bits>  correct answer, e.g. 1101, for success-rate reporting
  --output <path>    write the compiled OpenQASM here
  --help             print this help
";

/// `nisqc sweep --help`.
const SWEEP_USAGE: &str = "\
usage: nisqc sweep [sweep options]
       nisqc sweep --validate <report.json> [--expect-cells <n>]
       nisqc sweep --canonicalize <report.json> [--output <path>]

Executes a declarative plan (circuits x mappers x days x noise specs) and
emits a JSON report.

Sweep options:
  --benchmarks <l>   comma list of Table-2 names, \"all\", \"representative\"
                     or \"none\" (with --qasm)          (default: representative)
  --qasm <path>      add a custom OpenQASM circuit to the plan (repeatable)
  --mappers <l>      comma list of mapper names or \"table1\"
                                                      (default: r-smt-star)
  --omega <w>        readout weight for r-smt-star    (default: 0.5)
  --days <l>         comma list and/or a..b ranges    (default: 0)
  --topology <t>     ibmq16 | grid-MxN | ring-N | heavy-hex-RxC
                                                      (default: ibmq16)
  --trials <n>       noisy trials per cell            (default: 0 = compile only)
  --noise <path>     add a JSON noise spec as a sweep-axis point
                     (repeatable; cells multiply)     (default: calibration noise only)
  --machine-seed <s> machine calibration seed         (default: 2019)
  --sim-seed <s>     fixed simulation seed            (default: per-cell seeds)
  --journal <path>   stream finished cells to a fresh crash-safe journal
  --resume <path>    resume from an existing journal: completed cells load
                     without recomputation, new cells keep appending
  --reuse <path>     absorb completed cells from another run's journal into
                     this run's journal (requires --journal or --resume);
                     matching is purely by cell fingerprint
  --canonicalize <p> print a report's canonical single-line JSON
                     (runtime provenance zeroed) for byte-wise comparison
  --output <path>    write the JSON report here       (default: stdout)
  --validate <path>  parse an emitted report instead of running a sweep
  --expect-cells <n> require exactly n cells (after a sweep or --validate)
  --help             print this help
";

/// `nisqc serve --help`.
const SERVE_USAGE: &str = "\
usage: nisqc serve [serve options]

Runs the persistent compile-and-simulate daemon until SIGINT, SIGTERM or a
shutdown request drains it.

Serve options:
  --listen <addr>    TCP listen address               (default: 127.0.0.1:7878)
  --unix <path>      listen on a Unix socket instead of TCP
  --queue <n>        per-client work-queue capacity   (default: 32)
  --timeout-ms <n>   per-request wall-clock budget    (default: 30000)
  --max-cells <n>    largest plan a request may send  (default: 4096)
  --max-trials <n>   largest per-cell trial count     (default: 65536)
  --max-qubits <n>   largest machine a request builds (default: 256)
  --threads <n>      session worker threads           (default: auto)
  --journal-dir <d>  accept journaled requests; per-request journals are
                     kept here, keyed by the request's resume_key
  --workers <n>      run n process-isolated worker shards behind a
                     supervisor (0 = single-process)   (default: 0)
  --runtime-dir <d>  directory for the shards' private Unix sockets
                     (default: a per-process tmp dir)
  --help             print this help
";

/// `nisqc journal --help`.
const JOURNAL_USAGE: &str = "\
usage: nisqc journal inspect <path>
       nisqc journal compact <path>

Journal maintenance:
  inspect <path>     summarize a journal: schema, record and cell counts,
                     orphan intents, dead records, torn tail. Exits nonzero
                     for corrupt or torn journals.
  compact <path>     rewrite the journal keeping only the last write per
                     cell (atomic tmp + rename)
";

/// The usage text a command line asks for with `--help` (or `-h`), or
/// `None` when it asks for no help: a subcommand's own usage after
/// `sweep`, `serve` or `journal`, the top-level usage otherwise.
fn help_for(args: &[String]) -> Option<&'static str> {
    let (usage, rest) = match args.first().map(String::as_str) {
        Some("sweep") => (SWEEP_USAGE, &args[1..]),
        Some("serve") => (SERVE_USAGE, &args[1..]),
        Some("journal") => (JOURNAL_USAGE, &args[1..]),
        _ => (USAGE, args),
    };
    rest.iter()
        .any(|arg| arg == "--help" || arg == "-h")
        .then_some(usage)
}

/// Reads one command's arguments in order: each flag, then its value.
/// Taking a value and parsing a number are written here once, so every
/// command words a missing or malformed value the same way.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag read last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// Reads the next flag, or a positional argument.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// Takes the flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// Takes the flag's value as a number; one that does not parse is an
    /// error saying the flag must be `kind`.
    fn number<T: FromStr>(&mut self, kind: &str) -> Result<T, String> {
        let flag = self.flag.trim_start_matches("--");
        self.value()?
            .parse()
            .map_err(|_| format!("{flag} must be {kind}"))
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input: Option<Input> = None;
    let mut options = Options {
        input: Input::Benchmark(Benchmark::Bv4),
        mapper: "r-smt-star".to_string(),
        omega: 0.5,
        day: 0,
        seed: 2019,
        trials: 0,
        expected: None,
        output: None,
    };

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--mapper" => options.mapper = flags.value()?.to_string(),
            "--omega" => options.omega = flags.number("a number")?,
            "--day" => options.day = flags.number("an integer")?,
            "--seed" => options.seed = flags.number("an integer")?,
            "--trials" => options.trials = flags.number("an integer")?,
            "--expected" => options.expected = Some(parse_bits(flags.value()?, "--expected")?),
            "--output" => options.output = Some(flags.value()?.to_string()),
            "--benchmark" => input = Some(Input::Benchmark(parse_benchmark(flags.value()?)?)),
            other if !other.starts_with("--") => {
                input = Some(Input::QasmFile(other.to_string()));
            }
            other => return Err(format!("unknown option {other} (see nisqc --help)")),
        }
    }

    options.input = input.ok_or_else(|| {
        "no input: pass <input.qasm> or --benchmark <name> (see nisqc --help)".to_string()
    })?;
    Ok(options)
}

fn run(options: &Options) -> Result<(), String> {
    let mut spec = match &options.input {
        Input::QasmFile(path) => {
            // The report's `program` line prints the circuit's name.
            let mut spec = load_qasm_circuit(path)?;
            spec.circuit.set_name(path.clone());
            spec
        }
        Input::Benchmark(benchmark) => CircuitSpec::from(*benchmark),
    };
    if let Some(expected) = &options.expected {
        spec = spec.with_expected(expected.clone())?;
    }

    let machine = Machine::ibmq16_on_day(options.seed, options.day);
    let config = config_for(&options.mapper, options.omega)?;
    let compiled = Compiler::new(&machine, config)
        .compile(&spec.circuit)
        .map_err(|e| format!("compilation failed: {e}"))?;

    println!("program        : {}", compiled.program_name());
    println!("machine        : {machine}");
    println!("mapper         : {config}");
    println!("placement      : {:?}", compiled.placement().as_slice());
    println!("swaps inserted : {}", compiled.swap_count());
    println!("hardware CNOTs : {}", compiled.hardware_cnot_count());
    println!("duration       : {} timeslots", compiled.duration_slots());
    println!("est. reliability: {:.4}", compiled.estimated_reliability());
    println!("within coherence: {}", compiled.within_coherence());
    println!(
        "compile time   : {:.2} ms",
        compiled.compile_time().as_secs_f64() * 1000.0
    );

    if options.trials > 0 {
        match &spec.expected {
            Some(expected) => {
                let simulator =
                    Simulator::new(&machine, SimulatorConfig::with_trials(options.trials, 1));
                let success = simulator.success_rate(&compiled, expected);
                println!(
                    "success rate   : {success:.4} over {} noisy trials",
                    options.trials
                );
            }
            None => println!(
                "success rate   : skipped (pass --expected BITS to define the correct answer)"
            ),
        }
    }

    match &options.output {
        Some(path) => {
            std::fs::write(path, compiled.qasm())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote executable to {path}");
        }
        None => {
            println!("\n--- compiled OpenQASM ---");
            print!("{}", compiled.qasm());
        }
    }
    Ok(())
}

/// Loads a custom OpenQASM circuit into a plan-ready spec. Malformed
/// files surface the parser's typed diagnosis; nothing panics. The circuit
/// stays unnamed: its name enters [`Circuit::fingerprint`], which keys a
/// sweep journal's cells, so a named circuit would not resume a journal
/// written before.
fn load_qasm_circuit(path: &str) -> Result<CircuitSpec, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let circuit =
        nisq::ir::qasm::parse(&source).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(CircuitSpec::new(path.to_string(), circuit))
}

/// Loads and validates a declarative noise spec. Parse and CPTP failures
/// surface the noise crate's typed diagnosis; nothing panics.
fn load_noise_spec(path: &str) -> Result<NoiseSpec, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    NoiseSpec::from_json(&source).map_err(|e| format!("invalid noise spec {path}: {e}"))
}

/// Reads an emitted sweep report. A malformed one is a typed diagnosis.
fn read_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Report::from_json(&text).map_err(|e| format!("invalid report: {e}"))
}

/// Runs the `sweep` subcommand: execute a plan and emit JSON, or validate
/// an emitted report (`--validate`).
fn run_sweep(args: &[String]) -> Result<(), String> {
    let mut benchmarks = "representative";
    let mut qasm_files: Vec<&str> = Vec::new();
    let mut noise_files: Vec<&str> = Vec::new();
    let mut mappers = "r-smt-star";
    let mut omega = 0.5;
    let mut days = vec![0usize];
    let mut topology = TopologySpec::Ibmq16;
    let mut trials = 0u32;
    let mut machine_seed = nisq::exp::DEFAULT_MACHINE_SEED;
    let mut sim_seed: Option<u64> = None;
    let mut output: Option<&str> = None;
    let mut validate: Option<&str> = None;
    let mut canonicalize: Option<&str> = None;
    let mut expect_cells: Option<usize> = None;
    let mut journal_new: Option<&str> = None;
    let mut journal_resume: Option<&str> = None;
    let mut journal_reuse: Option<&str> = None;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--benchmarks" => benchmarks = flags.value()?,
            "--qasm" => qasm_files.push(flags.value()?),
            "--mappers" => mappers = flags.value()?,
            "--omega" => omega = flags.number("a number")?,
            "--days" => days = parse_days(flags.value()?)?,
            "--topology" => topology = parse_topology(flags.value()?)?,
            "--trials" => trials = flags.number("an integer")?,
            "--noise" => noise_files.push(flags.value()?),
            "--machine-seed" => machine_seed = flags.number("an integer")?,
            "--sim-seed" => sim_seed = Some(flags.number("an integer")?),
            "--output" => output = Some(flags.value()?),
            "--validate" => validate = Some(flags.value()?),
            "--canonicalize" => canonicalize = Some(flags.value()?),
            "--expect-cells" => expect_cells = Some(flags.number("an integer")?),
            "--journal" => journal_new = Some(flags.value()?),
            "--resume" => journal_resume = Some(flags.value()?),
            "--reuse" => journal_reuse = Some(flags.value()?),
            other => {
                return Err(format!(
                    "unknown sweep option {other} (see nisqc sweep --help)"
                ))
            }
        }
    }

    if journal_new.is_some() && journal_resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (--journal starts fresh, \
             --resume continues an existing journal)"
                .to_string(),
        );
    }
    if journal_reuse.is_some() && journal_new.is_none() && journal_resume.is_none() {
        return Err(
            "--reuse needs a journal of its own to absorb into (pass --journal or --resume)"
                .to_string(),
        );
    }

    if let Some(path) = canonicalize {
        let line = read_report(path)?.to_json_line_canonical();
        match output {
            Some(out) => std::fs::write(out, format!("{line}\n"))
                .map_err(|e| format!("cannot write {out}: {e}"))?,
            None => println!("{line}"),
        }
        return Ok(());
    }

    if let Some(path) = validate {
        let report = read_report(path)?;
        if let Some(expected) = expect_cells {
            if report.cells.len() != expected {
                return Err(format!(
                    "expected {expected} cells, report has {}",
                    report.cells.len()
                ));
            }
        }
        // Backend occupancy: how many simulated cells each state backend
        // served (a cell's tag is pure; only run totals can be mixed).
        let simulated = report.cells.iter().filter(|c| c.tiers.total() > 0);
        let tableau = |c: &&CellRecord| c.tiers.backend == nisq_exp::BackendTag::Tableau;
        let tableau_cells = simulated.clone().filter(tableau).count();
        let dense_cells = simulated.count() - tableau_cells;
        println!(
            "{path}: valid report ({} cells, {} compiles, {} compile hits, {} placement passes; \
             tiers {} error-free / {} pauli-prop / {} checkpointed / {} full; \
             backends {} dense / {} tableau cells)",
            report.cells.len(),
            report.cache.compile_requests,
            report.cache.compile_hits,
            report.cache.place_runs,
            report.tiers.error_free,
            report.tiers.pauli_prop,
            report.tiers.checkpointed,
            report.tiers.full_replay,
            dense_cells,
            tableau_cells,
        );
        return Ok(());
    }

    let mut plan = SweepPlan::new()
        .benchmarks(parse_benchmarks(benchmarks)?)
        .with_configs(parse_mappers(mappers, omega)?)
        .days(days)
        .topology(topology)
        .with_machine_seed(machine_seed)
        .with_trials(trials);
    for path in &qasm_files {
        plan = plan.circuit(load_qasm_circuit(path)?);
    }
    for path in &noise_files {
        let spec = load_noise_spec(path)?;
        plan = plan.with_noise(spec.name().to_string(), spec);
    }
    if plan.circuits().is_empty() {
        return Err("the plan selects no circuits (pass --benchmarks or --qasm)".to_string());
    }
    if let Some(seed) = sim_seed {
        plan = plan.fixed_sim_seed(seed);
    }

    let mut session = Session::new();
    let mut journal = match (&journal_new, &journal_resume) {
        (Some(path), None) => Some(
            Journal::create(
                std::path::Path::new(path),
                plan.machine_seed(),
                plan.trials(),
            )
            .map_err(|e| format!("cannot start journal: {e}"))?,
        ),
        (None, Some(path)) => {
            let journal = Journal::resume(
                std::path::Path::new(path),
                plan.machine_seed(),
                plan.trials(),
            )
            .map_err(|e| format!("cannot resume journal: {e}"))?;
            let recovery = journal.recovery();
            if recovery.truncated_bytes > 0 {
                eprintln!(
                    "warning: {path}: truncated {} trailing bytes (torn or corrupt record); \
                     the cells before them were recovered intact",
                    recovery.truncated_bytes
                );
            }
            if recovery.orphan_intents > 0 {
                eprintln!(
                    "note: {path}: {} cell(s) were in flight at the crash and will be re-run",
                    recovery.orphan_intents
                );
            }
            eprintln!(
                "resuming from {path}: {} completed cell(s) on record",
                journal.completed_cells()
            );
            Some(journal)
        }
        _ => None,
    };
    if let (Some(journal), Some(path)) = (journal.as_mut(), &journal_reuse) {
        let absorbed = journal
            .absorb(std::path::Path::new(path))
            .map_err(|e| format!("cannot reuse {path}: {e}"))?;
        eprintln!("reuse: absorbed {absorbed} completed cell(s) from {path}");
    }
    let report = session
        .execute(&plan, &RunControl::unbounded(), journal.as_mut())
        .map(|outcome| outcome.report)
        .map_err(|e| format!("sweep failed: {e}"))?;
    if let Some(reason) = journal.as_ref().and_then(|j| j.degraded()) {
        eprintln!(
            "warning: journal degraded ({reason}); the report is complete but later \
             cells were not journaled"
        );
    }
    if report.resumed_cells > 0 {
        eprintln!(
            "journal: {} of {} cell(s) resumed without recomputation",
            report.resumed_cells,
            report.cells.len()
        );
    }
    if let Some(expected) = expect_cells {
        if report.cells.len() != expected {
            return Err(format!(
                "expected {expected} cells, sweep produced {}",
                report.cells.len()
            ));
        }
    }
    let json = report.to_json();
    match output {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} cells, {} compile hits, {} placement passes over {} compiles)",
                report.cells.len(),
                report.cache.compile_hits,
                report.cache.place_runs,
                report.cache.compile_requests,
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// Runs the `serve` subcommand: bind the daemon and serve until SIGINT,
/// SIGTERM or a `shutdown` request drains it.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut endpoint = Endpoint::Tcp("127.0.0.1:7878".to_string());
    let mut config = ServerConfig::default();
    let mut workers = 0usize;
    let mut runtime_dir: Option<PathBuf> = None;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--listen" => endpoint = Endpoint::Tcp(flags.value()?.to_string()),
            "--unix" => endpoint = Endpoint::Unix(flags.value()?.into()),
            "--queue" => config.queue_capacity = flags.number("an integer")?,
            "--timeout-ms" => {
                config.request_timeout = Duration::from_millis(flags.number("an integer")?)
            }
            "--max-cells" => config.max_cells = flags.number("an integer")?,
            "--max-trials" => config.max_trials = flags.number("an integer")?,
            "--max-qubits" => config.max_machine_qubits = flags.number("an integer")?,
            "--threads" => config.threads = flags.number("an integer")?,
            "--journal-dir" => config.journal_dir = Some(flags.value()?.into()),
            "--workers" => workers = flags.number("an integer")?,
            "--runtime-dir" => runtime_dir = Some(flags.value()?.into()),
            other => {
                return Err(format!(
                    "unknown serve option {other} (see nisqc serve --help)"
                ))
            }
        }
    }

    nisq::serve::signal::install();
    let (server, serving, stopped) = if workers > 0 {
        let server = supervise(&endpoint, config, workers, runtime_dir, args)?;
        let serving = format!("supervising {workers} workers on");
        (server, serving, "workers stopped, supervisor shut down")
    } else {
        let server = Server::bind(&endpoint, config).map_err(|e| format!("cannot bind: {e}"))?;
        (server, "listening on".to_string(), "drained and shut down")
    };
    match (&endpoint, server.local_addr()) {
        (_, Some(addr)) => eprintln!("nisqc serve: {serving} tcp://{addr}"),
        (Endpoint::Unix(path), None) => {
            eprintln!("nisqc serve: {serving} unix://{}", path.display())
        }
        _ => {}
    }
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("nisqc serve: {stopped}");
    Ok(())
}

/// The flags a supervised worker is launched with after `serve --unix
/// {socket}`: every flag of `args`, a serve command line that parsed (so
/// flag-value pairs), in the order given, but the endpoint and fleet
/// flags. Supervisor and shard thus enforce identical admission.
fn worker_flags(args: &[String]) -> Vec<String> {
    let endpoint_or_fleet =
        |flag: &str| matches!(flag, "--listen" | "--unix" | "--workers" | "--runtime-dir");
    args.chunks(2)
        .filter(|pair| !endpoint_or_fleet(&pair[0]))
        .flatten()
        .cloned()
        .collect()
}

/// Binds `serve --workers N`: a supervisor routing to N process-isolated
/// worker shards, each a `nisqc serve --unix` child of this process given
/// the [`worker_flags`] of the supervisor's own command line `args`.
fn supervise(
    endpoint: &Endpoint,
    config: ServerConfig,
    workers: usize,
    runtime_dir: Option<PathBuf>,
    args: &[String],
) -> Result<Server, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let runtime_dir = runtime_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nisqc-serve-{}", std::process::id()))
    });
    let mut sup = SupervisorConfig::new(workers, config, runtime_dir, exe);
    sup.spec.args.extend(worker_flags(args));
    Server::supervise(endpoint, sup).map_err(|e| format!("cannot start workers: {e}"))
}

/// Runs the `journal` subcommand: read-only inspection or last-write-wins
/// compaction of a sweep journal.
fn run_journal(args: &[String]) -> Result<(), String> {
    let (verb, path) = match (args.first(), args.get(1)) {
        (Some(verb), Some(path)) if args.len() == 2 => (verb.as_str(), path.as_str()),
        _ => return Err(JOURNAL_USAGE.to_string()),
    };
    match verb {
        "inspect" => {
            let info =
                Journal::inspect(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            let header = |v: Option<u64>| v.map_or("?".to_string(), |v| v.to_string());
            println!("{path}: nisq sweep journal");
            println!(
                "  header        : machine_seed {}, trials {}",
                header(info.machine_seed),
                header(info.trials)
            );
            println!(
                "  records       : {} ({} cells, {} intents) in {} bytes",
                info.records, info.cell_records, info.intent_records, info.file_bytes
            );
            println!("  unique cells  : {}", info.unique_cells);
            println!(
                "  dead records  : {} (superseded duplicates and completed intents)",
                info.dead_records
            );
            println!("  orphan intents: {}", info.orphan_intents);
            match info.torn_tail_offset {
                None => println!("  tail          : clean"),
                Some(offset) => println!(
                    "  tail          : TORN at byte {offset} ({} trailing bytes would be \
                     truncated on resume)",
                    info.file_bytes - offset
                ),
            }
            if info.torn_tail_offset.is_some() {
                return Err(format!(
                    "{path}: journal has a torn or corrupt tail (resume would recover, \
                     truncating it)"
                ));
            }
            Ok(())
        }
        "compact" => {
            let info =
                Journal::compact(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: kept {} cell(s), dropped {} dead record(s), {} -> {} bytes",
                info.kept_cells, info.dropped_records, info.bytes_before, info.bytes_after
            );
            Ok(())
        }
        other => Err(format!("unknown journal verb {other:?}\n{JOURNAL_USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(usage) = help_for(&args) {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("sweep") => run_sweep(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("journal") => run_journal(&args[1..]),
        _ => match parse_args(&args) {
            Ok(options) => run(&options),
            // A malformed compile command line prints its message bare.
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_benchmark_input_with_options() {
        let o = parse_args(&args(&[
            "--benchmark",
            "Toffoli",
            "--mapper",
            "greedy-e",
            "--trials",
            "128",
            "--day",
            "3",
        ]))
        .unwrap();
        assert!(matches!(o.input, Input::Benchmark(Benchmark::Toffoli)));
        assert_eq!(o.mapper, "greedy-e");
        assert_eq!(o.trials, 128);
        assert_eq!(o.day, 3);
    }

    #[test]
    fn parses_expected_bits() {
        let o = parse_args(&args(&["--benchmark", "BV4", "--expected", "1011"])).unwrap();
        assert_eq!(o.expected, Some(vec![true, false, true, true]));
    }

    #[test]
    fn rejects_missing_input() {
        assert!(parse_args(&args(&["--mapper", "qiskit"])).is_err());
    }

    #[test]
    fn rejects_unknown_mapper_and_option() {
        assert!(config_for("magic", 0.5).is_err());
        assert!(parse_args(&args(&["--frobnicate", "x"])).is_err());
    }

    #[test]
    fn run_compiles_a_builtin_benchmark() {
        let options = parse_args(&args(&["--benchmark", "HS2", "--trials", "64"])).unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn run_rejects_an_expected_answer_of_the_wrong_length() {
        let options = parse_args(&args(&[
            "--benchmark",
            "BV4",
            "--trials",
            "16",
            "--expected",
            "11",
        ]))
        .unwrap();
        let err = run(&options).unwrap_err();
        assert!(
            err.contains("2 bits") && err.contains("4 classical bits"),
            "{err}"
        );
    }

    #[test]
    fn sweep_accepts_custom_qasm_and_rejects_malformed_input() {
        let dir = std::env::temp_dir().join("nisqc-qasm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.qasm");
        std::fs::write(
            &good,
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        let report_path = dir.join("qasm-report.json");
        run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            good.to_str().unwrap(),
            "--mappers",
            "qiskit",
            "--output",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--validate",
            report_path.to_str().unwrap(),
            "--expect-cells",
            "1",
        ]))
        .unwrap();

        // A malformed file is a typed diagnosis, never a panic.
        let bad = dir.join("bad.qasm");
        std::fs::write(&bad, "OPENQASM 2.0;\nqreg q[;\n").unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");

        // So are a missing file and an empty plan.
        assert!(run_sweep(&args(&["--qasm", "/nonexistent/x.qasm"])).is_err());
        assert!(run_sweep(&args(&["--benchmarks", "none"])).is_err());
        // And an oversized register is refused without allocating.
        let huge = dir.join("huge.qasm");
        std::fs::write(&huge, "OPENQASM 2.0;\nqreg q[99999999999];\n").unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            huge.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn sweep_accepts_noise_specs_and_rejects_malformed_ones() {
        let dir = std::env::temp_dir().join("nisqc-noise-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("depol-ad.json");
        std::fs::write(
            &spec,
            r#"{"name": "depol-cnot_ad-measure", "bindings": [
                {"on": "cnot", "rate": {"calibration": 2.0},
                 "channel": {"kind": "depolarizing-2q"}},
                {"on": "measure", "rate": 0.05,
                 "channel": {"kind": "amplitude-damping"}}]}"#,
        )
        .unwrap();
        let report_path = dir.join("noise-report.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "64",
            "--noise",
            spec.to_str().unwrap(),
            "--output",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--validate",
            report_path.to_str().unwrap(),
            "--expect-cells",
            "1",
        ]))
        .unwrap();
        let report = Report::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert_eq!(
            report.cells[0].noise.as_deref(),
            Some("depol-cnot_ad-measure")
        );

        // A malformed spec and a non-CPTP Kraus set are typed diagnoses.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"name": "x", "bindings": [{"on": "warp"}]}"#).unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--noise",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("invalid noise spec"), "{err}");
        let noncptp = dir.join("noncptp.json");
        std::fs::write(
            &noncptp,
            r#"{"name": "x", "bindings": [{"on": "sq", "channel": {"kind": "kraus",
                "ops": [[[2, 0], [0, 0], [0, 0], [2, 0]]]}}]}"#,
        )
        .unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--noise",
            noncptp.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("invalid noise spec"), "{err}");
        assert!(run_sweep(&args(&["--noise", "/nonexistent/n.json"])).is_err());
    }

    #[test]
    fn top_level_help_prints_the_compile_usage() {
        for flag in ["--help", "-h"] {
            assert_eq!(help_for(&args(&[flag])), Some(USAGE));
        }
        assert_eq!(
            help_for(&args(&["--benchmark", "BV4", "--help"])),
            Some(USAGE)
        );
        assert!(USAGE.starts_with("usage: nisqc <input.qasm>"));
        assert_eq!(help_for(&args(&["--benchmark", "BV4"])), None);
        assert_eq!(help_for(&args(&[])), None);
    }

    #[test]
    fn sweep_help_prints_the_sweep_usage() {
        assert_eq!(help_for(&args(&["sweep", "--help"])), Some(SWEEP_USAGE));
        assert_eq!(
            help_for(&args(&["sweep", "--benchmarks", "all", "-h"])),
            Some(SWEEP_USAGE)
        );
        assert!(SWEEP_USAGE.starts_with("usage: nisqc sweep"));
        assert_eq!(help_for(&args(&["sweep", "--benchmarks", "all"])), None);
    }

    #[test]
    fn serve_help_prints_the_serve_usage() {
        assert_eq!(help_for(&args(&["serve", "--help"])), Some(SERVE_USAGE));
        assert!(SERVE_USAGE.starts_with("usage: nisqc serve"));
        assert_eq!(help_for(&args(&["serve", "--workers", "2"])), None);
    }

    #[test]
    fn journal_help_prints_the_journal_usage() {
        assert_eq!(help_for(&args(&["journal", "--help"])), Some(JOURNAL_USAGE));
        assert_eq!(
            help_for(&args(&["journal", "inspect", "-h"])),
            Some(JOURNAL_USAGE)
        );
        assert!(JOURNAL_USAGE.starts_with("usage: nisqc journal"));
        assert_eq!(help_for(&args(&["journal", "inspect", "a.journal"])), None);
    }

    #[test]
    fn serve_rejects_unknown_options() {
        assert!(run_serve(&args(&["--frobnicate", "1"])).is_err());
        assert!(run_serve(&args(&["--queue"])).is_err());
        assert!(run_serve(&args(&["--timeout-ms", "soon"])).is_err());
        assert!(run_serve(&args(&["--journal-dir"])).is_err());
    }

    #[test]
    fn fleet_workers_get_the_limit_flags_in_the_order_given() {
        let line = args(&[
            "--max-trials",
            "9",
            "--listen",
            "127.0.0.1:0",
            "--queue",
            "4",
            "--workers",
            "2",
            "--timeout-ms",
            "500",
            "--runtime-dir",
            "shards",
            "--max-cells",
            "7",
            "--unix",
            "front.sock",
            "--max-qubits",
            "30",
            "--threads",
            "1",
            "--journal-dir",
            "journals",
        ]);
        assert_eq!(
            worker_flags(&line),
            args(&[
                "--max-trials",
                "9",
                "--queue",
                "4",
                "--timeout-ms",
                "500",
                "--max-cells",
                "7",
                "--max-qubits",
                "30",
                "--threads",
                "1",
                "--journal-dir",
                "journals",
            ])
        );
    }

    #[test]
    fn loaded_qasm_circuits_keep_the_parsers_fingerprint() {
        let dir = std::env::temp_dir().join("nisqc-fingerprint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        let source = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n\
                      measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
        std::fs::write(&path, source).unwrap();
        // Journals key a sweep's cells by this fingerprint, so the loader
        // must not name the circuit.
        let spec = load_qasm_circuit(path.to_str().unwrap()).unwrap();
        assert_eq!(
            spec.circuit.fingerprint(),
            nisq::ir::qasm::parse(source).unwrap().fingerprint()
        );
    }

    #[test]
    fn sweep_journal_and_resume_reports_are_canonically_identical() {
        let dir = std::env::temp_dir().join("nisqc-journal-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let first = dir.join("first.json");
        let second = dir.join("second.json");
        let plan_args = |journal_flag: &str, journal_path: &str, out: &str| {
            args(&[
                "--benchmarks",
                "bv4",
                "--mappers",
                "qiskit",
                "--trials",
                "32",
                journal_flag,
                journal_path,
                "--output",
                out,
                "--expect-cells",
                "1",
            ])
        };
        run_sweep(&plan_args(
            "--journal",
            journal.to_str().unwrap(),
            first.to_str().unwrap(),
        ))
        .unwrap();
        // Resume the finished journal: every cell loads from disk, and the
        // canonical report matches the uninterrupted run byte for byte.
        run_sweep(&plan_args(
            "--resume",
            journal.to_str().unwrap(),
            second.to_str().unwrap(),
        ))
        .unwrap();
        let a = Report::from_json(&std::fs::read_to_string(&first).unwrap()).unwrap();
        let b = Report::from_json(&std::fs::read_to_string(&second).unwrap()).unwrap();
        assert_eq!(a.resumed_cells, 0);
        assert_eq!(b.resumed_cells, 1);
        assert_eq!(b.cache.journal_hits, 1);
        assert_eq!(a.to_json_line_canonical(), b.to_json_line_canonical());

        // --canonicalize emits the same comparison form for both reports.
        let canon_a = dir.join("a.canon");
        let canon_b = dir.join("b.canon");
        run_sweep(&args(&[
            "--canonicalize",
            first.to_str().unwrap(),
            "--output",
            canon_a.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--canonicalize",
            second.to_str().unwrap(),
            "--output",
            canon_b.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&canon_a).unwrap(),
            std::fs::read(&canon_b).unwrap()
        );

        // The flags are mutually exclusive, and --expect-cells now guards
        // executed sweeps too.
        assert!(run_sweep(&args(&["--journal", "a", "--resume", "b"])).is_err());
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--expect-cells",
            "2",
            "--output",
            dir.join("unused.json").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("expected 2 cells"), "{err}");
    }

    #[test]
    fn journal_subcommand_inspects_compacts_and_reuse_absorbs() {
        let dir = std::env::temp_dir().join("nisqc-journal-tools-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("a.journal");
        let first = dir.join("first.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "32",
            "--journal",
            journal.to_str().unwrap(),
            "--output",
            first.to_str().unwrap(),
        ]))
        .unwrap();

        // inspect passes on a clean journal; compact shrinks it (the one
        // completed intent is dead weight); the compacted file still
        // inspects clean.
        run_journal(&args(&["inspect", journal.to_str().unwrap()])).unwrap();
        let before = std::fs::metadata(&journal).unwrap().len();
        run_journal(&args(&["compact", journal.to_str().unwrap()])).unwrap();
        assert!(std::fs::metadata(&journal).unwrap().len() < before);
        run_journal(&args(&["inspect", journal.to_str().unwrap()])).unwrap();

        // --reuse absorbs the compacted journal's cell into a new journal:
        // the second sweep recomputes nothing and reports identically.
        let reused = dir.join("b.journal");
        let second = dir.join("second.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "32",
            "--journal",
            reused.to_str().unwrap(),
            "--reuse",
            journal.to_str().unwrap(),
            "--output",
            second.to_str().unwrap(),
        ]))
        .unwrap();
        let a = Report::from_json(&std::fs::read_to_string(&first).unwrap()).unwrap();
        let b = Report::from_json(&std::fs::read_to_string(&second).unwrap()).unwrap();
        assert_eq!(b.resumed_cells, 1);
        assert_eq!(a.to_json_line_canonical(), b.to_json_line_canonical());

        // --reuse needs a journal to absorb into; the subcommand needs a
        // known verb and exactly one path.
        assert!(run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--reuse",
            journal.to_str().unwrap(),
        ]))
        .is_err());
        assert!(run_journal(&args(&["inspect"])).is_err());
        assert!(run_journal(&args(&["defrag", journal.to_str().unwrap()])).is_err());

        // A torn tail is a nonzero inspect exit; a non-journal is refused.
        let torn = dir.join("torn.journal");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"J1 9 0000 {torn");
        std::fs::write(&torn, &bytes).unwrap();
        assert!(run_journal(&args(&["inspect", torn.to_str().unwrap()])).is_err());
        let bogus = dir.join("notes.txt");
        std::fs::write(&bogus, "notes\n").unwrap();
        assert!(run_journal(&args(&["compact", bogus.to_str().unwrap()])).is_err());
    }

    #[test]
    fn sweep_runs_and_validates_a_tiny_plan() {
        let dir = std::env::temp_dir().join("nisqc-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path_str = path.to_str().unwrap().to_string();
        run_sweep(&args(&[
            "--benchmarks",
            "bv4,hs2",
            "--mappers",
            "qiskit,greedy-e",
            "--days",
            "0..2",
            "--trials",
            "32",
            "--output",
            &path_str,
        ]))
        .unwrap();
        // 2 benchmarks x 2 mappers x 2 days = 8 cells.
        run_sweep(&args(&["--validate", &path_str, "--expect-cells", "8"])).unwrap();
        assert!(run_sweep(&args(&["--validate", &path_str, "--expect-cells", "9"])).is_err());
        let report = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(report.cells.iter().all(|c| c.success_rate.is_some()));
    }
}
