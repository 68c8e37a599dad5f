//! The multi-worker supervisor: process-isolated shards behind one socket.
//!
//! `nisqc serve --workers N` puts this backend behind the front door
//! instead of the daemon (see [`Server::supervise`]): it forks `N` worker
//! processes (each an ordinary single-session daemon on a private Unix
//! socket) and routes every admitted run by **rendezvous hash of its plan
//! fingerprint** — the same plan always lands on the same live shard, so
//! each shard's compile and placement caches stay warm for its slice of
//! the workload.
//!
//! Fault handling is layered:
//!
//! - a **monitor thread per shard** pings its control connection every
//!   heartbeat interval; a worker that misses heartbeats past the
//!   liveness deadline, or whose process exits, is killed, reaped, and
//!   respawned after a capped exponential backoff with deterministic
//!   per-shard jitter (the backoff never exceeds the request deadline
//!   cap, so a restarting fleet is never gone longer than one request);
//! - a request in flight on a dying shard is **re-dispatched** to the
//!   next shard the hash prefers, after the dead process is reaped —
//!   never before, so two processes cannot write one journal. With a
//!   shared `--journal-dir`, the surviving shard resumes the dead one's
//!   journal and replays finished cells bit-identically;
//! - when every candidate is gone the client gets a `worker-lost` error
//!   with a deterministic jittered `retry_after_ms`, mirroring the
//!   `queue-full` contract.
//!
//! Parsing, admission and the control operations (`ping`, `stats`,
//! `shutdown`) happen at the front door, as for the daemon; `stats`
//! reports per-shard liveness, restart, routing and in-flight counts plus
//! fleet totals.

use crate::error::ServeError;
use crate::response;
use crate::server::{
    retry_jitter_ms, Backend, Door, DoorCounters, Endpoint, Run, Server, ServerConfig,
};
use crate::worker::{WorkerHandle, WorkerSpec};
use nisq_exp::fnv64;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a shard's restart backoff, further clamped to the
/// request deadline so a restarting shard is never out longer than one
/// request is allowed to run.
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(10);

/// Most re-dispatch attempts after a shard dies mid-request before
/// answering `worker-lost`.
const MAX_REDISPATCH: usize = 2;

/// Tunables of a supervised fleet ([`Server::supervise`]). `server`
/// carries the admission budgets and request deadline the supervisor
/// enforces at its front door; the worker processes must be launched (via
/// [`WorkerSpec`]) with matching limits so both layers agree. `nisqc serve
/// --workers` does that by passing each worker the serve flags it was
/// given itself, all but its endpoint and fleet flags.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How many worker processes to run.
    pub workers: usize,
    /// Front-door limits: budgets, request deadline, queue capacity
    /// (applied per shard), request line size.
    pub server: ServerConfig,
    /// Directory for the shards' private Unix sockets.
    pub runtime_dir: PathBuf,
    /// How to launch one worker process.
    pub spec: WorkerSpec,
    /// Interval between heartbeat pings to each shard.
    pub heartbeat_interval: Duration,
    /// A shard whose last successful heartbeat is older than this is
    /// declared wedged: killed, reaped, restarted.
    pub liveness_deadline: Duration,
    /// First restart backoff; doubles per consecutive failed respawn.
    pub restart_backoff_base: Duration,
}

impl SupervisorConfig {
    /// A supervisor launching `workers` copies of `exe serve --unix
    /// {socket}` with sockets under `runtime_dir`, with default
    /// supervision timings. Those arguments carry none of `server`'s
    /// limits: the caller appends to `spec.args` the flags that set them,
    /// as `nisqc serve` appends the limit flags of its own command line.
    pub fn new(workers: usize, server: ServerConfig, runtime_dir: PathBuf, exe: PathBuf) -> Self {
        SupervisorConfig {
            workers,
            server,
            runtime_dir,
            spec: WorkerSpec {
                exe,
                args: vec!["serve".into(), "--unix".into(), "{socket}".into()],
                env: Vec::new(),
            },
            heartbeat_interval: Duration::from_millis(500),
            liveness_deadline: Duration::from_secs(3),
            restart_backoff_base: Duration::from_millis(200),
        }
    }
}

/// The supervisor's backend: the shards and what routing to them counted.
pub(crate) struct Fleet {
    workers: Vec<WorkerHandle>,
    spec: WorkerSpec,
    redispatches: AtomicU64,
    worker_lost: AtomicU64,
    request_timeout: Duration,
    per_worker_capacity: usize,
    heartbeat_interval: Duration,
    liveness_deadline: Duration,
    restart_backoff_base: Duration,
    restart_backoff_cap: Duration,
}

impl Server {
    /// Binds the public endpoint and spawns every worker process. A
    /// worker that fails to come up is a bind error: the fleet starts
    /// whole or not at all (restarts later are the monitors' job).
    ///
    /// On Linux each worker gets SIGTERM, drains and exits when the thread
    /// that spawned it exits, so no worker outlives a killed supervisor.
    /// The calling thread spawns the first workers and must outlive the
    /// fleet: if it exits first, those workers stop and the monitors
    /// respawn them.
    ///
    /// # Errors
    ///
    /// Socket creation, runtime-dir creation, or initial worker spawn
    /// failures; every already-spawned worker is killed before returning.
    pub fn supervise(endpoint: &Endpoint, config: SupervisorConfig) -> io::Result<Server> {
        if config.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a supervisor needs at least one worker",
            ));
        }
        std::fs::create_dir_all(&config.runtime_dir)?;
        Server::open(endpoint, &config.server, || {
            let workers: Vec<WorkerHandle> = (0..config.workers)
                .map(|index| {
                    WorkerHandle::new(
                        index,
                        config.runtime_dir.join(format!("worker-{index}.sock")),
                    )
                })
                .collect();
            for worker in &workers {
                if let Err(e) = worker.spawn_process(&config.spec) {
                    for spawned in &workers {
                        spawned.kill_and_reap();
                    }
                    return Err(e);
                }
            }
            Ok(Fleet {
                workers,
                spec: config.spec.clone(),
                redispatches: AtomicU64::new(0),
                worker_lost: AtomicU64::new(0),
                request_timeout: config.server.request_timeout,
                per_worker_capacity: config.server.queue_capacity,
                heartbeat_interval: config.heartbeat_interval,
                liveness_deadline: config.liveness_deadline,
                restart_backoff_base: config.restart_backoff_base,
                restart_backoff_cap: RESTART_BACKOFF_CAP.min(config.server.request_timeout),
            })
        })
    }
}

impl Backend for Fleet {
    fn start(door: &Arc<Door<Fleet>>) -> Vec<JoinHandle<()>> {
        (0..door.backend.workers.len())
            .map(|index| {
                let door = door.clone();
                std::thread::spawn(move || monitor_loop(&door, index))
            })
            .collect()
    }

    /// Forwards the run to its shard. The reader waits for the answer, so
    /// each connection has at most one run in flight; other connections
    /// proceed in parallel on other shards.
    fn run(&self, run: Run<'_>) -> Result<Option<String>, ServeError> {
        let fingerprint = run.plan.fingerprint();
        drop(run.plan);
        self.dispatch(run.line, run.id, fingerprint).map(Some)
    }

    /// One entry per shard plus fleet totals.
    fn stats_line(&self, id: Option<&str>, door: &DoorCounters) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"index\": {}, \"alive\": {}, \"pid\": {}, \"restarts\": {}, \
                     \"routed\": {}, \"pending\": {}}}",
                    w.index,
                    w.alive(),
                    w.pid(),
                    get(&w.restarts),
                    get(&w.routed),
                    get(&w.pending),
                )
            })
            .collect();
        let restarts: u64 = self.workers.iter().map(|w| get(&w.restarts)).sum();
        let rejected = get(&door.rejected_invalid)
            + get(&door.rejected_budget)
            + get(&door.rejected_queue_full)
            + get(&door.rejected_shutting_down);
        format!(
            "{{\"id\": {}, \"status\": \"ok\", \"op\": \"stats\", \"stats\": {{\
             \"workers\": [{}], \"supervisor\": {{\"restarts\": {}, \"redispatches\": {}, \
             \"worker_lost\": {}, \"connections\": {}, \"accepted\": {}, \"rejected\": {}}}}}}}",
            response::id_json(id),
            workers.join(", "),
            restarts,
            get(&self.redispatches),
            get(&self.worker_lost),
            get(&door.connections),
            get(&door.accepted),
            rejected,
        )
    }

    /// A connection answers each run before it reads the next line, so an
    /// idle reader holds no work.
    fn reader_may_stop(&self) -> bool {
        true
    }

    /// Joins the monitors, then asks each worker to drain, gives it a
    /// grace period, and reaps it.
    fn stop(&self, monitors: Vec<JoinHandle<()>>) {
        for handle in monitors {
            let _ = handle.join();
        }
        let grace = Instant::now() + Duration::from_millis(500);
        for worker in &self.workers {
            worker.request_shutdown(grace);
        }
        for worker in &self.workers {
            worker.shutdown_and_reap(Duration::from_secs(5));
        }
    }
}

/// Rendezvous (highest-random-weight) routing: every live shard scores
/// the fingerprint, the highest score wins. Stable — the same fingerprint
/// picks the same shard while it lives — and minimal on failure: a dead
/// shard's plans move to their next-highest choice, nothing else moves.
pub fn route_worker(fingerprint: u64, alive: &[bool]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (index, &ok) in alive.iter().enumerate() {
        if !ok {
            continue;
        }
        let mut z = fingerprint ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if best.is_none_or(|(score, _)| z > score) {
            best = Some((z, index));
        }
    }
    best.map(|(_, index)| index)
}

/// The backoff before respawn attempt `attempt` of shard `worker`:
/// exponential from `base`, plus deterministic jitter (up to a quarter of
/// the exponential term, keyed on shard and attempt so a fleet dying
/// together does not respawn in lockstep), capped at `cap`.
pub fn restart_backoff(attempt: u32, worker: usize, base: Duration, cap: Duration) -> Duration {
    let doublings = attempt.min(16);
    let exp = base.saturating_mul(1u32 << doublings).min(cap);
    let window = exp.as_millis() as u64 / 4 + 1;
    let jitter = fnv64(format!("{worker}:{attempt}").as_bytes()) % window;
    (exp + Duration::from_millis(jitter)).min(cap)
}

/// One shard's keeper: heartbeats while it lives, reaps it when it
/// wedges or exits, respawns it after backoff.
fn monitor_loop(door: &Door<Fleet>, index: usize) {
    let fleet = &door.backend;
    let worker = &fleet.workers[index];
    let mut last_ok = Instant::now();
    let mut attempt: u32 = 0;
    while !door.shutting_down() {
        if worker.alive() {
            if worker.child_exited() {
                // The process died on its own (OOM kill, abort, SIGKILL
                // from outside): reap immediately, no heartbeat needed.
                worker.kill_and_reap();
                continue;
            }
            match worker.ping(Instant::now() + fleet.heartbeat_interval) {
                Ok(()) => last_ok = Instant::now(),
                Err(_) => {
                    if last_ok.elapsed() >= fleet.liveness_deadline {
                        // Alive as a process, dead as a service: wedged.
                        worker.kill_and_reap();
                        continue;
                    }
                }
            }
            sleep_interruptibly(door, fleet.heartbeat_interval);
        } else {
            let backoff = restart_backoff(
                attempt,
                index,
                fleet.restart_backoff_base,
                fleet.restart_backoff_cap,
            );
            sleep_interruptibly(door, backoff);
            if door.shutting_down() {
                return;
            }
            match worker.spawn_process(&fleet.spec) {
                Ok(()) => {
                    worker.restarts.fetch_add(1, Ordering::Relaxed);
                    last_ok = Instant::now();
                    attempt = 0;
                }
                Err(_) => attempt = attempt.saturating_add(1),
            }
        }
    }
}

/// Sleeps `total` in small slices, returning early on shutdown.
fn sleep_interruptibly(door: &Door<Fleet>, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !door.shutting_down() {
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

impl Fleet {
    /// Routes one admitted run to its shard and forwards it; on shard
    /// death mid-request, reaps the shard and re-dispatches to the
    /// next-preferred survivor (at most [`MAX_REDISPATCH`] times). The
    /// request line travels verbatim, so the worker parses exactly what
    /// the client sent — journal flags, resume keys, timeouts and all.
    /// Returns the shard's reply, or a `worker-lost` error line when
    /// every candidate died; a full shard refuses the run with
    /// `queue-full`.
    fn dispatch(
        &self,
        line: &str,
        id: Option<&str>,
        fingerprint: u64,
    ) -> Result<String, ServeError> {
        let deadline = Instant::now() + self.request_timeout + self.liveness_deadline;
        let mut excluded = vec![false; self.workers.len()];
        for attempt in 0..=MAX_REDISPATCH {
            let candidates: Vec<bool> = self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| w.alive() && !excluded[i])
                .collect();
            let Some(index) = route_worker(fingerprint, &candidates) else {
                break;
            };
            let worker = &self.workers[index];
            let pending = worker.pending.load(Ordering::SeqCst);
            if pending >= self.per_worker_capacity as u64 {
                let retry_after_ms = 100 + 150 * pending + retry_jitter_ms(id);
                return Err(ServeError::QueueFull { retry_after_ms });
            }
            if attempt > 0 {
                self.redispatches.fetch_add(1, Ordering::Relaxed);
            }
            worker.routed.fetch_add(1, Ordering::Relaxed);
            worker.pending.fetch_add(1, Ordering::SeqCst);
            let result = worker.forward(line, deadline);
            worker.pending.fetch_sub(1, Ordering::SeqCst);
            match result {
                Ok(response) => return Ok(response),
                Err(_) => {
                    // Reap before re-dispatch: the journal the dead shard
                    // may have been writing must have no writer before a
                    // survivor resumes it.
                    worker.kill_and_reap();
                    excluded[index] = true;
                }
            }
        }
        self.worker_lost.fetch_add(1, Ordering::Relaxed);
        Ok(response::error_line(
            id,
            &ServeError::WorkerLost {
                message: "every candidate worker died mid-request".to_string(),
                retry_after_ms: 500 + retry_jitter_ms(id),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_sticky_and_moves_minimally_on_death() {
        let alive = [true, true, true];
        let picks: Vec<Option<usize>> = (0..64).map(|f| route_worker(f, &alive)).collect();
        // Deterministic.
        for (f, pick) in picks.iter().enumerate() {
            assert_eq!(*pick, route_worker(f as u64, &alive));
        }
        // Non-degenerate: more than one shard gets work.
        let distinct: std::collections::BTreeSet<_> = picks.iter().flatten().collect();
        assert!(distinct.len() > 1, "all 64 fingerprints on one shard");
        // Kill shard 1: only its fingerprints move, others stay put.
        let survivors = [true, false, true];
        for (f, pick) in picks.iter().enumerate() {
            let moved = route_worker(f as u64, &survivors);
            match pick {
                Some(1) => assert!(matches!(moved, Some(0) | Some(2))),
                other => assert_eq!(moved, *other, "fingerprint {f} moved needlessly"),
            }
        }
        // Nobody alive: nobody routed.
        assert_eq!(route_worker(7, &[false, false]), None);
        assert_eq!(route_worker(7, &[]), None);
    }

    #[test]
    fn restart_backoff_is_deterministic_capped_and_grows() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        let b0 = restart_backoff(0, 0, base, cap);
        assert_eq!(b0, restart_backoff(0, 0, base, cap));
        assert!(b0 >= base && b0 <= cap);
        // Grows (until the cap) and never exceeds it.
        let b3 = restart_backoff(3, 0, base, cap);
        assert!(b3 > b0);
        for attempt in 0..40 {
            assert!(restart_backoff(attempt, 1, base, cap) <= cap);
        }
        // Different shards jitter differently somewhere in the schedule.
        assert!(
            (0..8).any(|a| restart_backoff(a, 0, base, cap) != restart_backoff(a, 1, base, cap))
        );
    }
}
