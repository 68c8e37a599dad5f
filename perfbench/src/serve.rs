//! The serve-mixed workload: one `nisqc serve --journal-dir` daemon on a
//! Unix socket, driven closed-loop over two connections.
//!
//! Each connection sends its next request when the reply to the previous
//! one arrives. Connection `c` sends requests `c, c + 2, c + 4, ...` of the
//! sequence [`plans::request`] draws from the workload seed. Every daemon
//! gets a fresh socket and journal directory, so a `resume_key` never
//! replays an earlier run's journal.

use crate::plans::{self, Kind};
use crate::reference::Reference;
use crate::sys;
use crate::trace::{self, Tracer, NO_CELL};
use crate::Outcome;
use nisq_core::CompilerConfig;
use nisq_exp::json::{self, Value};
use nisq_exp::{fnv64, Report, TierStats};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const CONNECTIONS: u64 = 2;
/// Requests of the traced phase: a fixed prefix of the sequence, so the
/// phase's work counts repeat exactly at a fixed seed.
const TRACED_REQUESTS: u64 = 384;
/// How long a daemon may take to come up or to drain and exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-framed connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(sock: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(sock)?;
        writer.set_read_timeout(Some(PROCESS_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and reads the one reply line.
    fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// A call whose reply must carry `status: "ok"`.
    fn call_ok(&mut self, line: &str) -> Result<Value, String> {
        let reply = self
            .call(line)
            .map_err(|e| format!("daemon call failed: {e}"))?;
        let doc = json::parse(&reply).map_err(|e| format!("unparseable reply: {e}"))?;
        match doc.get("status").and_then(Value::as_str) {
            Some("ok") => Ok(doc),
            _ => Err(format!("daemon refused {line}: {reply}")),
        }
    }
}

/// A running daemon with its control connection. Dropping it kills a
/// daemon that was not shut down cleanly and waits for it.
struct Daemon {
    child: Child,
    pid: String,
    dir: PathBuf,
    sock: PathBuf,
    control: Option<Conn>,
}

impl Daemon {
    fn spawn(nisqc: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let sock = dir.join("d.sock");
        let child = Command::new(nisqc)
            .arg("serve")
            .arg("--unix")
            .arg(&sock)
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nisqc.display()))?;
        let mut daemon = Daemon {
            pid: child.id().to_string(),
            child,
            dir,
            sock,
            control: None,
        };
        let started = Instant::now();
        let conn = loop {
            match Conn::connect(&daemon.sock) {
                Ok(conn) => break conn,
                Err(_) if started.elapsed() < PROCESS_TIMEOUT => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("daemon socket never came up: {e}")),
            }
        };
        daemon.control = Some(conn);
        daemon.control()?.call_ok(r#"{"op": "ping"}"#)?;
        Ok(daemon)
    }

    fn control(&mut self) -> Result<&mut Conn, String> {
        self.control
            .as_mut()
            .ok_or_else(|| "no control connection".to_string())
    }

    /// Compiles every (benchmark, day) pair under the Table-1 mappers.
    fn warm(&mut self) -> Result<(), String> {
        let doc = self.control()?.call_ok(&plans::warmup_request())?;
        let cells = doc.get("cells_done").and_then(Value::as_u64).unwrap_or(0);
        if cells != plans::warmup_cells() as u64 {
            return Err(format!(
                "warm-up compiled {cells} cells, expected {}",
                plans::warmup_cells()
            ));
        }
        Ok(())
    }

    fn stats(&mut self) -> Result<Stats, String> {
        let doc = self.control()?.call_ok(r#"{"op": "stats"}"#)?;
        Stats::parse(&doc).ok_or_else(|| "malformed stats reply".to_string())
    }

    /// Sends `shutdown`, waits for the daemon to drain and exit, and
    /// requires exit status 0.
    fn shutdown(mut self) -> Result<(), String> {
        self.control()?.call_ok(r#"{"op": "shutdown"}"#)?;
        self.control = None;
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if started.elapsed() < PROCESS_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `stats` counters the harness reconciles with what it sent.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    accepted: u64,
    completed: u64,
    journal_runs: u64,
    compile_requests: u64,
    compile_hits: u64,
    place_hits: u64,
    place_runs: u64,
    tiers: TierStats,
}

impl Stats {
    fn parse(doc: &Value) -> Option<Stats> {
        let s = doc.get("stats")?;
        let session = s.get("session")?;
        let tiers = s.get("tiers")?;
        let u = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
        Some(Stats {
            accepted: u(s, "accepted")?,
            completed: u(s, "completed")?,
            journal_runs: u(s.get("journal")?, "runs")?,
            compile_requests: u(session, "compile_requests")?,
            compile_hits: u(session, "compile_hits")?,
            place_hits: u(session, "place_hits")?,
            place_runs: u(session, "place_runs")?,
            tiers: TierStats {
                error_free: u(tiers, "error_free")?,
                pauli_prop: u(tiers, "pauli_prop")?,
                checkpointed: u(tiers, "checkpointed")?,
                full_replay: u(tiers, "full_replay")?,
                memo_hits: u(tiers, "memo_hits")?,
                memo_misses: u(tiers, "memo_misses")?,
                ..TierStats::default()
            },
        })
    }

    fn since(&self, before: &Stats) -> Stats {
        let (a, b) = (&self.tiers, &before.tiers);
        Stats {
            accepted: self.accepted - before.accepted,
            completed: self.completed - before.completed,
            journal_runs: self.journal_runs - before.journal_runs,
            compile_requests: self.compile_requests - before.compile_requests,
            compile_hits: self.compile_hits - before.compile_hits,
            place_hits: self.place_hits - before.place_hits,
            place_runs: self.place_runs - before.place_runs,
            tiers: TierStats {
                error_free: a.error_free - b.error_free,
                pauli_prop: a.pauli_prop - b.pauli_prop,
                checkpointed: a.checkpointed - b.checkpointed,
                full_replay: a.full_replay - b.full_replay,
                memo_hits: a.memo_hits - b.memo_hits,
                memo_misses: a.memo_misses - b.memo_misses,
                ..TierStats::default()
            },
        }
    }
}

/// One request and its reply.
struct Sample {
    index: u64,
    kind: Kind,
    /// Send time, relative to the start of its connection's loop.
    sent: Duration,
    latency: Duration,
    reply: String,
}

enum Stop {
    /// Send until this long after the connections are up.
    For(Duration),
    /// Send requests `0..n` of the sequence.
    After(u64),
}

/// Drives the closed loop over [`CONNECTIONS`] connections; returns the
/// samples and the phase's wall time (start to last reply).
fn closed_loop(
    sock: &Path,
    seed: u64,
    stop: &Stop,
    key_prefix: &str,
) -> Result<(Vec<Sample>, Duration), String> {
    let ready = Barrier::new(CONNECTIONS as usize);
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let ready = &ready;
                scope.spawn(move || {
                    // A ping proves the daemon accepted the connection, so
                    // no request waits on the accept loop.
                    let conn = Conn::connect(sock).map_err(|e| format!("cannot connect: {e}"));
                    let mut conn = conn.and_then(|mut c| c.call_ok(r#"{"op": "ping"}"#).map(|_| c));
                    ready.wait();
                    let start = Instant::now();
                    let conn = conn.as_mut().map_err(|e| e.clone())?;
                    let mut samples = Vec::new();
                    let mut index = c;
                    loop {
                        let done = match stop {
                            Stop::For(span) => start.elapsed() >= *span,
                            Stop::After(n) => index >= *n,
                        };
                        if done {
                            break;
                        }
                        let request = plans::request(seed, index, key_prefix);
                        let sent = Instant::now();
                        let reply = conn
                            .call(&request.line)
                            .map_err(|e| format!("request {index}: {e}"))?;
                        samples.push(Sample {
                            index,
                            kind: request.kind,
                            sent: sent.duration_since(start),
                            latency: sent.elapsed(),
                            reply,
                        });
                        index += CONNECTIONS;
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client connection thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for result in results {
        samples.extend(result?);
    }
    let end = samples
        .iter()
        .map(|s| s.sent + s.latency)
        .max()
        .unwrap_or_default();
    samples.sort_by_key(|s| s.index);
    Ok((samples, end))
}

/// What a reply carried, once checked.
struct Reply {
    queue_ms: u64,
    run_ms: u64,
    canonical: String,
    tiers: TierStats,
}

/// Checks one reply: status ok, a report that parses with 6 cells, each
/// cell the requested one with reference compile fields and a success
/// rate within the reference bound.
fn check_reply(reference: &Reference, seed: u64, sample: &Sample) -> Result<Reply, String> {
    let request = plans::request(seed, sample.index, "");
    let line = &sample.reply;
    let doc = json::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if doc.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("request {}: {line}", sample.index));
    }
    let field = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("reply lacks {k}"))
    };
    let (queue_ms, run_ms) = (field("queue_ms")?, field("run_ms")?);
    let start = line.find("\"report\": ").ok_or("reply lacks a report")? + "\"report\": ".len();
    let report = Report::from_json(&line[start..line.len() - 1])
        .map_err(|e| format!("request {}: report does not parse: {e}", sample.index))?;
    let labels: Vec<String> = CompilerConfig::table1()
        .iter()
        .map(|c| c.algorithm.name().to_string())
        .collect();
    if report.cells.len() != labels.len() {
        return Err(format!(
            "request {}: {} cells, expected 6",
            sample.index,
            report.cells.len()
        ));
    }
    let noise = (request.kind == Kind::Noise)
        .then(|| plans::noise_spec(plans::DEPOL_CNOT_X2).name().to_string());
    for (cell, label) in report.cells.iter().zip(&labels) {
        let want = (
            label.as_str(),
            request.benchmark.name(),
            request.day,
            request.sim_seed,
            plans::SERVE_TRIALS,
            &noise,
        );
        let got = (
            cell.config.as_str(),
            cell.circuit.as_str(),
            cell.day,
            cell.sim_seed,
            cell.trials,
            &cell.noise,
        );
        if got != want {
            return Err(format!(
                "request {}: cell {got:?}, asked for {want:?}",
                sample.index
            ));
        }
        reference
            .check_record(cell)
            .map_err(|e| format!("request {}: {e}", sample.index))?;
    }
    if request.kind == Kind::Journal && (report.journal_hash == 0 || report.resumed_cells != 0) {
        return Err(format!(
            "request {}: not a fresh journaled run",
            sample.index
        ));
    }
    Ok(Reply {
        queue_ms,
        run_ms,
        canonical: report.to_json_line_canonical(),
        tiers: report.tiers,
    })
}

/// Checks every sample, counting each failed request.
fn check_all(
    reference: &Reference,
    seed: u64,
    samples: &[Sample],
    out: &mut Outcome,
) -> Vec<Option<Reply>> {
    samples
        .iter()
        .map(|s| {
            out.attempted += 1;
            check_reply(reference, seed, s)
                .map_err(|e| out.fail(e))
                .ok()
        })
        .collect()
}

/// Requires the daemon's counters to have moved exactly by what was sent.
fn check_stats(delta: &Stats, samples: &[Sample], phase: &str, out: &mut Outcome) {
    let sent = samples.len() as u64;
    let journaled = samples.iter().filter(|s| s.kind == Kind::Journal).count() as u64;
    let got = (delta.accepted, delta.completed, delta.journal_runs);
    if got != (sent, sent, journaled) {
        out.fail(format!(
            "{phase}: stats moved (accepted, completed, journal.runs) by {got:?}, sent {:?}",
            (sent, sent, journaled)
        ));
    }
}

/// A journal file's size with each record's wall-clock fields
/// (`compile_ms`, `place_us`) written as `0`, so the count repeats exactly.
fn canonical_journal_bytes(text: &str) -> u64 {
    fn zero(payload: &str, key: &str) -> String {
        match payload.find(key) {
            Some(at) => {
                let from = at + key.len();
                let to = payload[from..]
                    .find([',', '}'])
                    .map_or(payload.len(), |n| from + n);
                format!("{}0{}", &payload[..from], &payload[to..])
            }
            None => payload.to_string(),
        }
    }
    text.lines()
        .map(|line| {
            let payload = line.splitn(4, ' ').nth(3).unwrap_or_default();
            let payload = zero(&zero(payload, "\"compile_ms\": "), "\"place_us\": ");
            // "J1 <bytes> <16 hex digits> <payload>\n"
            (format!("J1 {} ", payload.len()).len() + 17 + payload.len() + 1) as u64
        })
        .sum()
}

fn journal_bytes(dir: &Path, key: &str) -> Result<u64, String> {
    let path = dir
        .join("journal")
        .join(format!("req-{:016x}.journal", fnv64(key.as_bytes())));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(canonical_journal_bytes(&text))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| ms(s.latency)).collect()
}

/// Spawns and warms a daemon in a fresh directory; returns it and the
/// set-up time.
fn set_up(nisqc: &Path, run_dir: &Path, n: usize) -> Result<(Daemon, Duration), String> {
    let dir = run_dir.join(format!("serve-{}-{n}", std::process::id()));
    let start = Instant::now();
    let mut daemon = Daemon::spawn(nisqc, dir)?;
    daemon.warm()?;
    Ok((daemon, start.elapsed()))
}

/// One closed-loop phase and the daemon-side readings around it.
struct Phase {
    samples: Vec<Sample>,
    elapsed: Duration,
    /// Daemon CPU seconds spent during the phase.
    cpu_s: f64,
    delta: Stats,
    /// Run-queue wait and on-CPU nanoseconds of the daemon threads that
    /// lived through the phase.
    wait_ns: u64,
    busy_ns: u64,
}

fn phase(
    daemon: &mut Daemon,
    seed: u64,
    stop: &Stop,
    prefix: &str,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let before = daemon.stats()?;
    let sched0 = sys::process_threads_sched(&daemon.pid);
    let cpu0 = sys::cpu_seconds(&daemon.pid).unwrap_or(0.0);
    let (samples, elapsed) = closed_loop(&daemon.sock, seed, stop, prefix)?;
    let cpu_s = sys::cpu_seconds(&daemon.pid).unwrap_or(0.0) - cpu0;
    let sched1 = sys::process_threads_sched(&daemon.pid);
    let delta = daemon.stats()?.since(&before);
    check_stats(&delta, &samples, prefix, out);
    let (mut wait_ns, mut busy_ns) = (0, 0);
    for (tid, after) in &sched1 {
        if let Some((_, b)) = sched0.iter().find(|(t, _)| t == tid) {
            wait_ns += after.wait_ns.saturating_sub(b.wait_ns);
            busy_ns += after.on_cpu_ns.saturating_sub(b.on_cpu_ns);
        }
    }
    Ok(Phase {
        samples,
        elapsed,
        cpu_s,
        delta,
        wait_ns,
        busy_ns,
    })
}

/// An untraced run: set-up repeated [`SETUP_REPEATS`] times (each daemon
/// but the last is shut down), then one closed-loop phase of `seconds`.
/// A traced run: one set-up, then an untraced phase of a quarter of
/// `seconds`, the traced phase (the first [`TRACED_REQUESTS`] requests),
/// and another untraced quarter, so drift in host load over the run falls
/// on both sides of the tracing-overhead comparison alike.
pub fn run(
    nisqc: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = Reference::load()?;
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut daemon = None;
    for n in 0..repeats {
        let (d, took) = set_up(nisqc, run_dir, n)?;
        setups.push(took.as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            Daemon::shutdown(previous)?;
        }
    }
    let mut daemon = daemon.expect("at least one set-up ran");

    if !traced {
        let p = phase(
            &mut daemon,
            seed,
            &Stop::For(Duration::from_secs_f64(seconds)),
            "u",
            out,
        )?;
        let peak_rss = sys::peak_rss_mb(&daemon.pid).unwrap_or(0.0);
        daemon.shutdown()?;
        check_all(&reference, seed, &p.samples, out);
        let lat = latencies_ms(&p.samples);
        let n = p.samples.len() as f64;
        let m = &mut out.metrics;
        m.insert("setup_s", sys::median(&setups));
        m.insert("sweep_s", sys::median(&lat) / 1e3);
        m.insert("sweep_cpu_s", p.cpu_s / n);
        m.insert("req_per_s", n / p.elapsed.as_secs_f64());
        m.insert("req_p50_ms", sys::median(&lat));
        m.insert("req_p99_ms", sys::tail(&lat));
        m.insert("peak_rss_mb", peak_rss);
        if p.samples.len() < 1000 {
            out.note(format!(
                "only {} requests: req_p99_ms is the highest percentile with ten beyond it",
                p.samples.len()
            ));
        }
        out.note(format!(
            "{} requests over {:.3} s",
            p.samples.len(),
            p.elapsed.as_secs_f64()
        ));
        return Ok(());
    }

    let quarter = Stop::For(Duration::from_secs_f64(seconds / 4.0));
    let a = phase(&mut daemon, seed, &quarter, "a", out)?;
    let t = phase(&mut daemon, seed, &Stop::After(TRACED_REQUESTS), "t", out)?;
    let b = phase(&mut daemon, seed, &quarter, "b", out)?;
    let mut journal = Vec::new();
    for s in t.samples.iter().filter(|s| s.kind == Kind::Journal) {
        let bytes = journal_bytes(&daemon.dir, &format!("t{}", s.index))?;
        // The same request journaled in the first untraced phase must have
        // written the same canonical bytes.
        if a.samples
            .binary_search_by_key(&s.index, |u| u.index)
            .is_ok()
            && journal_bytes(&daemon.dir, &format!("a{}", s.index))? != bytes
        {
            out.fail(format!(
                "request {}: journal bytes drifted between phases",
                s.index
            ));
        }
        journal.push(bytes as f64);
    }
    daemon.shutdown()?;

    // The phases repeat requests: the same request must give the same
    // canonical report.
    let untraced: Vec<(&Sample, Option<Reply>)> = [&a, &b]
        .into_iter()
        .flat_map(|p| {
            p.samples
                .iter()
                .zip(check_all(&reference, seed, &p.samples, out))
        })
        .collect();
    let untraced_by_index: HashMap<u64, &Reply> = untraced
        .iter()
        .filter_map(|(s, r)| Some((s.index, r.as_ref()?)))
        .collect();
    let t_replies = check_all(&reference, seed, &t.samples, out);
    let mut tiers = TierStats::default();
    for (s, r) in t.samples.iter().zip(&t_replies) {
        let Some(r) = r else { continue };
        tiers.merge(&r.tiers);
        if untraced_by_index
            .get(&s.index)
            .is_some_and(|u| u.canonical != r.canonical)
        {
            out.fail(format!(
                "request {}: report drifted between phases",
                s.index
            ));
        }
    }
    let d = &t.delta.tiers;
    if (
        tiers.error_free,
        tiers.pauli_prop,
        tiers.checkpointed,
        tiers.full_replay,
        tiers.memo_hits,
        tiers.memo_misses,
    ) != (
        d.error_free,
        d.pauli_prop,
        d.checkpointed,
        d.full_replay,
        d.memo_hits,
        d.memo_misses,
    ) {
        out.fail(format!(
            "stats tier deltas {d:?} disagree with the replies' {tiers:?}"
        ));
    }

    // Spans: each request with `queue` and `run` children laid out from
    // the reply's fields; the rest of its latency is the daemon's parsing,
    // admission and serialization plus the socket.
    let tracer = Tracer::new();
    let mut lane = tracer.lane();
    lane.record("serve.phase", None, NO_CELL, 0, t.elapsed);
    let root = lane.spans[0].id;
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut queue, mut run, mut overhead, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (s, r) in t.samples.iter().zip(&t_replies) {
        let Some(r) = r else { continue };
        let start = s.sent.as_nanos() as u64;
        let cell = s.index as u32;
        lane.record("serve.request", Some(root), cell, start, s.latency);
        let request = lane.spans.last().expect("just recorded").id;
        let q = Duration::from_millis(r.queue_ms);
        lane.record("serve.queue", Some(request), cell, start, q);
        let run_start = start + q.as_nanos() as u64;
        lane.record(
            "serve.run",
            Some(request),
            cell,
            run_start,
            Duration::from_millis(r.run_ms),
        );
        // The daemon reports whole milliseconds, truncated; half a
        // millisecond is the unbiased estimate of each lost fraction.
        let (qm, rm) = (r.queue_ms as f64 + 0.5, r.run_ms as f64 + 0.5);
        queue.push(qm);
        run.push(rm);
        overhead.push(ms(s.latency) - qm - rm);
        bytes.push(s.reply.len() as f64);
        by_kind
            .entry(s.kind.name())
            .or_default()
            .push(ms(s.latency));
    }
    let path = run_dir.join("spans-serve-mixed.jsonl");
    trace::write_spans(&path, &lane.spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let untraced_lat: Vec<f64> = untraced.iter().map(|(s, _)| ms(s.latency)).collect();
    let untraced_p50 = sys::median(&untraced_lat);
    let delta = &t.delta;
    let m = &mut out.metrics;
    // The daemon's session layers, from the `stats` deltas.
    m.insert("core.compile_hits", delta.compile_hits as f64);
    m.insert(
        "core.compiles",
        (delta.compile_requests - delta.compile_hits) as f64,
    );
    m.insert("core.place_runs", delta.place_runs as f64);
    m.insert("core.place_hits", delta.place_hits as f64);
    crate::insert_tiers(m, &delta.tiers);
    m.insert(
        "exp.cores_used",
        (a.cpu_s + b.cpu_s) / (a.elapsed + b.elapsed).as_secs_f64(),
    );
    m.insert("serve.queue_ms", mean(&queue));
    m.insert("serve.run_ms", mean(&run));
    m.insert("serve.overhead_ms", sys::median(&overhead));
    for kind in Kind::ALL {
        let name = match kind {
            Kind::Plain => "serve.latency_ms.plain",
            Kind::Noise => "serve.latency_ms.noise",
            Kind::Journal => "serve.latency_ms.journal",
        };
        m.insert(
            name,
            by_kind.get(kind.name()).map_or(0.0, |v| sys::median(v)),
        );
    }
    m.insert("serve.response_bytes", sys::median(&bytes));
    m.insert(
        "serve.compile_hit_ratio",
        delta.compile_hits as f64 / delta.compile_requests.max(1) as f64,
    );
    m.insert("journal.bytes", mean(&journal));
    m.insert(
        "trace.overhead_share",
        (sys::median(&latencies_ms(&t.samples)) - untraced_p50) / untraced_p50,
    );
    // The spans here are client waits, so contention is read from the
    // daemon's long-lived threads: run-queue wait over runnable time.
    m.insert(
        "trace.cpu_wait_share",
        t.wait_ns as f64 / (t.wait_ns + t.busy_ns).max(1) as f64,
    );
    out.note(format!(
        "{} untraced requests, {} traced ({} journaled); spans written to {}",
        untraced.len(),
        t.samples.len(),
        journal.len(),
        path.display()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_journal_bytes_ignore_timing_digits() {
        let a = "J1 60 0123456789abcdef {\"kind\": \"cell\", \"cell\": {\"compile_ms\": 1.234, \"place_us\": 9.000}}\n";
        let b = "J1 62 0123456789abcdef {\"kind\": \"cell\", \"cell\": {\"compile_ms\": 12.345, \"place_us\": 10.500}}\n";
        assert_eq!(canonical_journal_bytes(a), canonical_journal_bytes(b));
    }
}
