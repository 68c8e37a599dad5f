//! The sweep workloads, table1-week and noise-study.
//!
//! Timed runs execute the plan the way `nisqc sweep` does: plan, a fresh
//! `Session`, `Session::run`, `Report::to_json`. The traced run replays the
//! same plan through the public calls `Session::run` is built from, in its
//! order (a serial compile phase, then cell-parallel simulation on the same
//! thread count), with a span around each call.

use crate::plans;
use crate::reference::{self, Reference};
use crate::sys;
use crate::trace::{self, Lane, Span, Tracer, NO_CELL};
use crate::Outcome;
use nisq_exp::{CacheStats, CellRecord, Report, Session, SweepPlan, TierStats};
use nisq_sim::{BackendKind, Simulator, SimulatorConfig};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The standard pipeline's passes, by `PassTiming::pass` name.
const PASSES: [(&str, &str); 6] = [
    ("decompose", "core.decompose_ms"),
    ("place", "core.place_ms"),
    ("route", "core.route_ms"),
    ("schedule", "core.schedule_ms"),
    ("emit", "core.emit_ms"),
    ("estimate", "core.estimate_ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Table1Week,
    NoiseStudy,
}

impl Sweep {
    fn plan(self, seed: u64) -> SweepPlan {
        match self {
            Sweep::Table1Week => plans::table1_week(seed, plans::TABLE1_TRIALS),
            Sweep::NoiseStudy => plans::noise_study(seed, plans::NOISE_TRIALS),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Sweep::Table1Week => "table1-week",
            Sweep::NoiseStudy => "noise-study",
        }
    }
}

/// One sweep as a user runs it, from plan to JSON report.
struct Timed {
    wall: Duration,
    cpu_s: f64,
    report: Report,
    session: Session,
    plan: SweepPlan,
}

fn timed_sweep(sweep: Sweep, seed: u64) -> Result<Timed, String> {
    let cpu0 = sys::own_cpu_seconds();
    let start = Instant::now();
    let plan = sweep.plan(seed);
    let mut session = Session::new();
    let report = session.run(&plan).map_err(|e| e.to_string())?;
    black_box(report.to_json());
    let wall = start.elapsed();
    let cpu_s = sys::own_cpu_seconds() - cpu0;
    Ok(Timed {
        wall,
        cpu_s,
        report,
        session,
        plan,
    })
}

/// Every check of the first sweep of a run: per cell, the compile
/// artifacts against the reference digests, a noise-free run of the
/// executable against the hand-written output, and the success rate
/// against the reference rate.
fn check_first(reference: &Reference, timed: &mut Timed, out: &mut Outcome) {
    let Timed {
        report,
        session,
        plan,
        ..
    } = timed;
    let mut idealized = HashSet::new();
    for (cell, record) in plan.cells().iter().zip(&report.cells) {
        let result = (|| {
            reference.check_record(record)?;
            let machine = session
                .try_machine(cell.topology, plan.machine_seed(), cell.day)
                .map_err(|e| e.to_string())?;
            let spec = &plan.circuits()[cell.circuit];
            let (label, config) = &plan.configs()[cell.config];
            let exe = session
                .compile(&machine, config, &spec.circuit)
                .map_err(|e| e.to_string())?;
            reference.check_compiled(label, &spec.name, cell.day, &exe)?;
            if idealized.insert((cell.config, cell.circuit, cell.day)) {
                reference::check_ideal(&machine, &spec.name, &exe)?;
            }
            Ok::<(), String>(())
        })();
        if let Err(message) = result {
            out.fail(message);
        }
    }
    if report.cells.len() != plan.cells().len() {
        out.fail(format!(
            "report holds {} cells, plan {}",
            report.cells.len(),
            plan.cells().len()
        ));
    }
}

/// Counts the cells of `report` whose canonical record differs from the
/// first sweep's: the same plan and seed must give the same science.
fn check_drift(first: &Report, report: &Report, what: &str, out: &mut Outcome) {
    let canon = report.canonicalized();
    if canon.cells.len() != first.cells.len() {
        out.fail(format!(
            "{what}: {} cells, first sweep {}",
            canon.cells.len(),
            first.cells.len()
        ));
        return;
    }
    for (a, b) in first.cells.iter().zip(&canon.cells) {
        if a != b {
            out.fail(format!(
                "{what}: {}/{}/day {} drifted from the first sweep",
                b.config, b.circuit, b.day
            ));
        }
    }
}

/// The work counts of one sweep. At a fixed seed every field must repeat
/// exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    machine_builds: u64,
    compiles: u64,
    compile_hits: u64,
    place_runs: u64,
    place_hits: u64,
    physical_gates: u64,
    swaps: u64,
    program_ops: u64,
    noise_sites: u64,
    tiers: TierStats,
    report_bytes: u64,
}

/// The traced replay of one sweep.
struct Replay {
    wall: Duration,
    report: Report,
    spans: Vec<Span>,
    counts: Counts,
    pass_ms: BTreeMap<&'static str, f64>,
}

struct Simulated {
    cell: usize,
    rate: f64,
    tiers: TierStats,
    ops: usize,
    sites: usize,
}

/// The thread budget `Session::new` picks.
fn session_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
}

fn traced_sweep(sweep: Sweep, seed: u64, tracer: &Tracer) -> Result<Replay, String> {
    let start = Instant::now();
    let mut lane = tracer.lane();
    let root = lane.open("exp.sweep", None, NO_CELL);
    let plan = sweep.plan(seed);
    let mut session = Session::new();
    let before = session.cache_stats();
    let cells = plan.cells();
    let trials = plan.trials();
    let mut counts = Counts::default();
    let mut pass_ms = BTreeMap::new();

    let phase = lane.open("exp.compile-phase", Some(root.id()), NO_CELL);
    let mut machines_seen = HashSet::new();
    let mut compiled = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let span = lane.open("machine.build", Some(phase.id()), i as u32);
        let machine = session
            .try_machine(cell.topology, plan.machine_seed(), cell.day)
            .map_err(|e| e.to_string())?;
        lane.close(span);
        if machines_seen.insert((cell.topology, cell.day)) {
            counts.machine_builds += 1;
        }
        let spec = &plan.circuits()[cell.circuit];
        let config = &plan.configs()[cell.config].1;
        let span = lane.open("core.compile", Some(phase.id()), i as u32);
        let (exe, hit) = session
            .compile_cached(&machine, config, &spec.circuit)
            .map_err(|e| e.to_string())?;
        lane.close(span);
        if hit {
            counts.compile_hits += 1;
        } else {
            counts.compiles += 1;
            for t in exe.pass_timings() {
                *pass_ms.entry(t.pass).or_insert(0.0) += t.elapsed.as_secs_f64() * 1e3;
            }
        }
        counts.physical_gates += exe.physical_circuit().len() as u64;
        counts.swaps += exe.swap_count() as u64;
        compiled.push((machine, exe, hit));
    }
    lane.close(phase);
    let after = session.cache_stats();
    counts.place_runs = after.place_runs - before.place_runs;
    counts.place_hits = after.place_hits - before.place_hits;

    // Simulation phase, split as `Session::run` splits it: one contiguous
    // chunk of cells per worker, and a lone cell parallelizes over trials.
    let work: Vec<usize> = (0..cells.len())
        .filter(|&i| trials > 0 && plan.circuits()[cells[i].circuit].expected.is_some())
        .collect();
    let threads = session_threads();
    let sim_threads = if work.len() > 1 { 1 } else { threads };
    let phase = lane.open("exp.sim-phase", Some(root.id()), NO_CELL);
    let phase_id = phase.id();
    let simulate = |lane: &mut Lane<'_>, parent: u32, i: usize| -> Simulated {
        let cell = &cells[i];
        let (machine, exe, _) = &compiled[i];
        let spec = &plan.circuits()[cell.circuit];
        let mut config = SimulatorConfig::with_trials(trials, cell.sim_seed);
        config.threads = sim_threads;
        let simulator = Simulator::new(machine, config);
        let noise = cell.noise.map(|n| &plan.noise_axis()[n].1);
        let span = lane.open("sim.lower", Some(parent), i as u32);
        let program = simulator.prepare_with_noise(exe.physical_circuit(), noise);
        lane.close(span);
        let name = if program.has_kraus() {
            "sim.run.kraus"
        } else if program.backend_kind() == BackendKind::Tableau {
            "sim.run.tableau"
        } else {
            "sim.run.dense"
        };
        let span = lane.open(name, Some(parent), i as u32);
        let (result, tiers) = simulator.run_program_with_stats(&program);
        lane.close(span);
        Simulated {
            cell: i,
            rate: result.probability_of(spec.expected.as_ref().expect("filtered above")),
            tiers: TierStats::from(tiers),
            ops: program.ops().len(),
            sites: program.noise_sites().len(),
        }
    };
    let workers = threads.min(work.len()).max(1);
    let parts: Vec<(Vec<Span>, Vec<Simulated>)> = if workers > 1 {
        let chunk = work.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(chunk)
                .map(|part| {
                    let simulate = &simulate;
                    scope.spawn(move || {
                        let mut lane = tracer.lane();
                        let worker = lane.open("exp.worker", Some(phase_id), NO_CELL);
                        let done: Vec<Simulated> = part
                            .iter()
                            .map(|&i| simulate(&mut lane, worker.id(), i))
                            .collect();
                        lane.close(worker);
                        (lane.spans, done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a simulation worker panicked"))
                .collect()
        })
    } else {
        let done = work
            .iter()
            .map(|&i| simulate(&mut lane, phase_id, i))
            .collect();
        vec![(Vec::new(), done)]
    };
    lane.close(phase);

    let mut success = vec![None; cells.len()];
    let mut cell_tiers = vec![TierStats::default(); cells.len()];
    let mut spans = Vec::new();
    for (worker_spans, done) in parts {
        spans.extend(worker_spans);
        for s in done {
            success[s.cell] = Some(s.rate);
            cell_tiers[s.cell] = s.tiers;
            counts.program_ops += s.ops as u64;
            counts.noise_sites += s.sites as u64;
        }
    }
    let mut totals = TierStats::default();
    for tiers in &cell_tiers {
        totals.merge(tiers);
    }
    counts.tiers = totals;
    let records = cells
        .iter()
        .zip(&compiled)
        .zip(success.into_iter().zip(cell_tiers))
        .map(|((cell, (_, exe, hit)), (success_rate, tiers))| {
            let spec = &plan.circuits()[cell.circuit];
            CellRecord {
                circuit: spec.name.clone(),
                config: plan.configs()[cell.config].0.clone(),
                topology: cell.topology.name(),
                day: cell.day,
                noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
                qubits: spec.circuit.num_qubits(),
                gates: spec.circuit.gate_count(),
                sim_seed: cell.sim_seed,
                trials,
                success_rate,
                estimated_reliability: exe.estimated_reliability(),
                duration_slots: exe.duration_slots(),
                swap_count: exe.swap_count(),
                hardware_cnots: exe.hardware_cnot_count(),
                compile_ms: exe.compile_time().as_secs_f64() * 1e3,
                place_us: 0.0,
                cache_hit: *hit,
                tiers,
            }
        })
        .collect();
    let cache = session.cache_stats();
    let report = Report {
        machine_seed: plan.machine_seed(),
        trials,
        resumed_cells: 0,
        journal_hash: 0,
        cells: records,
        cache: CacheStats {
            compile_requests: cache.compile_requests - before.compile_requests,
            compile_hits: cache.compile_hits - before.compile_hits,
            place_hits: cache.place_hits - before.place_hits,
            place_runs: cache.place_runs - before.place_runs,
            journal_hits: 0,
        },
        tiers: totals,
    };
    let span = lane.open("exp.report", Some(root.id()), NO_CELL);
    black_box(report.to_json());
    lane.close(span);
    lane.close(root);
    let wall = start.elapsed();
    // The document's size with its wall-clock fields zeroed, so the count
    // repeats exactly.
    counts.report_bytes = report.canonicalized().to_json().len() as u64;
    spans.extend(lane.spans);
    spans.sort_by_key(|s| s.id);
    Ok(Replay {
        wall,
        report,
        spans,
        counts,
        pass_ms,
    })
}

fn secs(values: &[Duration]) -> Vec<f64> {
    values.iter().map(Duration::as_secs_f64).collect()
}

/// An untraced run: set-up (plan, session, one discarded warm-up sweep)
/// repeated [`SETUP_REPEATS`] times, then sweeps until `seconds` pass.
pub fn run(sweep: Sweep, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let reference = Reference::load()?;
    let cells = sweep.plan(seed).cells().len() as u64;
    let mut setups = Vec::new();
    let mut first: Option<Report> = None;
    for _ in 0..SETUP_REPEATS {
        let mut timed = timed_sweep(sweep, seed)?;
        setups.push(timed.wall);
        out.attempted += cells;
        match &first {
            None => {
                check_first(&reference, &mut timed, out);
                first = Some(timed.report.canonicalized());
            }
            Some(first) => check_drift(first, &timed.report, "set-up sweep", out),
        }
    }
    let first = first.expect("at least one set-up sweep ran");

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while walls.is_empty() || Instant::now() < deadline {
        let timed = timed_sweep(sweep, seed)?;
        walls.push(timed.wall);
        cpus.push(timed.cpu_s);
        out.attempted += cells;
        check_drift(&first, &timed.report, "timed sweep", out);
    }
    let walls = secs(&walls);
    let total: f64 = walls.iter().sum();
    let m = &mut out.metrics;
    m.insert("setup_s", sys::median(&secs(&setups)));
    m.insert("sweep_s", sys::median(&walls));
    m.insert("sweep_cpu_s", sys::median(&cpus));
    m.insert("req_per_s", walls.len() as f64 / total);
    m.insert("req_p50_ms", sys::median(&walls) * 1e3);
    // A run holds far fewer than the 1000 sweeps a p99 needs; this is the
    // highest percentile with ten sweeps beyond it.
    m.insert("req_p99_ms", sys::tail(&walls) * 1e3);
    m.insert("peak_rss_mb", sys::peak_rss_mb("self").unwrap_or(0.0));
    out.note(format!(
        "{} timed sweeps of {cells} cells; wall quartiles {:.4} {:.4} {:.4} s, max {:.4} s",
        walls.len(),
        sys::quantile(&walls, 0.25),
        sys::median(&walls),
        sys::quantile(&walls, 0.75),
        sys::quantile(&walls, 1.0),
    ));
    Ok(())
}

/// A traced run: one set-up sweep, then untraced sweeps (the baseline of
/// the tracing overhead and of `exp.cores_used`) alternating with traced
/// replays until `seconds` pass, so drift in host load over the run falls
/// on both alike.
pub fn run_traced(
    sweep: Sweep,
    seed: u64,
    seconds: f64,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = Reference::load()?;
    let cells = sweep.plan(seed).cells().len() as u64;
    let mut timed = timed_sweep(sweep, seed)?;
    out.attempted += cells;
    check_first(&reference, &mut timed, out);
    let first = timed.report.canonicalized();
    let untraced_counts = timed.report.clone();
    drop(timed);

    let tracer = Tracer::new();
    let (mut walls, mut cores) = (Vec::new(), Vec::new());
    let mut replays: Vec<Replay> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while replays.is_empty() || Instant::now() < deadline {
        let timed = timed_sweep(sweep, seed)?;
        walls.push(timed.wall.as_secs_f64());
        cores.push(timed.cpu_s / timed.wall.as_secs_f64());
        out.attempted += cells;
        check_drift(&first, &timed.report, "untraced sweep", out);
        drop(timed);

        let replay = traced_sweep(sweep, seed, &tracer)?;
        out.attempted += cells;
        if replay.report.to_json_line_canonical() != first.to_json_line() {
            check_drift(&first, &replay.report, "traced replay", out);
            out.fail("the traced replay's canonical report differs from Session::run's".into());
        }
        if let Some(reference) = replays.first() {
            if replay.counts != reference.counts {
                out.fail(format!(
                    "work counts drifted between replays: {:?} then {:?}",
                    reference.counts, replay.counts
                ));
            }
        }
        replays.push(replay);
    }
    let counts = replays[0].counts.clone();
    let cache = untraced_counts.cache;
    if (counts.tiers, counts.place_runs, counts.compiles)
        != (
            untraced_counts.tiers,
            cache.place_runs,
            cache.compile_runs(),
        )
    {
        out.fail(format!(
            "traced counts {counts:?} disagree with Session::run's tiers {:?} and cache {cache:?}",
            untraced_counts.tiers
        ));
    }

    // Per-layer times: the median over replays of each replay's total.
    let by_name: Vec<BTreeMap<&str, f64>> = replays
        .iter()
        .map(|r| trace::self_ms_by_name(&r.spans))
        .collect();
    let layer = |name: &str| -> f64 {
        let per: Vec<f64> = by_name
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        sys::median(&per)
    };
    let pass = |name: &str| -> f64 {
        let per: Vec<f64> = replays
            .iter()
            .map(|r| r.pass_ms.get(name).copied().unwrap_or(0.0))
            .collect();
        sys::median(&per)
    };
    let traced_wall = sys::median(
        &replays
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let untraced_wall = sys::median(&walls);
    let all_spans: Vec<Span> = replays
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    let t = &counts.tiers;
    let trials = t.total();
    let m = &mut out.metrics;
    m.insert("machine.build_ms", layer("machine.build"));
    m.insert("machine.builds", counts.machine_builds as f64);
    m.insert("core.compile_ms", layer("core.compile"));
    m.insert("core.compiles", counts.compiles as f64);
    m.insert("core.compile_hits", counts.compile_hits as f64);
    for (p, metric) in PASSES {
        m.insert(metric, pass(p));
    }
    m.insert("core.place_runs", counts.place_runs as f64);
    m.insert("core.place_hits", counts.place_hits as f64);
    m.insert("core.physical_gates", counts.physical_gates as f64);
    m.insert("core.swaps", counts.swaps as f64);
    m.insert("sim.lower_ms", layer("sim.lower"));
    m.insert("sim.program_ops", counts.program_ops as f64);
    m.insert("sim.noise_sites", counts.noise_sites as f64);
    m.insert("sim.run_ms.tableau", layer("sim.run.tableau"));
    m.insert("sim.run_ms.dense", layer("sim.run.dense"));
    m.insert("sim.run_ms.kraus", layer("sim.run.kraus"));
    crate::insert_tiers(m, t);
    m.insert("exp.cores_used", sys::median(&cores));
    m.insert("exp.report_ms", layer("exp.report"));
    m.insert("exp.report_bytes", counts.report_bytes as f64);
    m.insert(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    m.insert(
        "trace.cpu_wait_share",
        trace::cpu_wait_share(
            &all_spans,
            &[
                "machine.build",
                "core.compile",
                "sim.lower",
                "sim.run.tableau",
                "sim.run.dense",
                "sim.run.kraus",
                "exp.report",
            ],
        ),
    );
    out.note(format!(
        "{} untraced sweeps, {} traced replays of {cells} cells ({trials} trials each)",
        walls.len(),
        replays.len()
    ));
    let path = run_dir.join(format!("spans-{}.jsonl", sweep.name()));
    let last = replays.last().expect("at least one replay ran");
    trace::write_spans(&path, &last.spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.note(format!(
        "spans of the last replay written to {}",
        path.display()
    ));
    Ok(())
}
