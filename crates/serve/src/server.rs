//! The front door both serve modes share, and the single-session daemon
//! behind it.
//!
//! A [`Server`] is one front door over one backend. The door owns
//! everything a request meets before it runs: the accept loop, a reader
//! and a writer thread per connection, line framing under the
//! `max_request_bytes` cap, parsing, the control operations (`ping`,
//! `stats`, `shutdown`), the shutting-down check, the admission budgets
//! and the front-door counters. Each writer is fed through a bounded
//! channel, so a slow or dead client can stall only its own writer. The
//! backend decides only what an admitted run does, the body of the
//! `stats` reply, and when an idle reader may stop during a drain.
//! [`Server::bind`] puts the daemon behind the door, and
//! [`Server::supervise`] a supervised worker fleet.
//!
//! The daemon: one worker thread owns the shared [`Session`], consuming a
//! bounded queue of per-connection lanes drained round-robin — per-client
//! fairness, and `&mut Session` needs no locking. Requests execute under
//! [`catch_unwind`]; a panicking request is answered with a structured
//! error, the shared caches are checked for lock poisoning, and only a
//! poisoned session is rebuilt — a healthy one keeps its warm caches
//! across the fault. With a `--journal-dir`, journaled requests stream
//! per-cell results to disk as they complete, so a client reconnecting
//! after a daemon crash resumes its finished prefix instead of a cold
//! start.

use crate::error::ServeError;
#[cfg(feature = "fault-injection")]
use crate::fault::FaultPlan;
use crate::queue::{FairQueue, PushError};
use crate::request::{self, Budgets, Op};
use crate::response;
use crate::signal;
use nisq_exp::{fnv64, Journal, RunControl, RunOutcome, Session, SweepPlan, TierStats};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the shutdown watcher checks whether a shutdown began: a
/// `shutdown` request, [`ServerHandle::shutdown`], SIGINT or SIGTERM.
const SHUTDOWN_WATCH_INTERVAL: Duration = Duration::from_millis(50);

/// After refusing a line over the cap, the door reads and discards at
/// most this many more bytes before it closes, so that a client still
/// writing the line can finish and read the refusal instead of meeting a
/// connection reset...
const REFUSAL_DRAIN_BYTES: usize = 32 << 20;

/// ...and for at most this long.
const REFUSAL_DRAIN_TIME: Duration = Duration::from_secs(5);

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path (removed and re-created on bind).
    Unix(PathBuf),
}

/// Tunables of a [`Server`]. The defaults suit an interactive deployment;
/// tests shrink them to exercise the rejection paths deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests the queue admits before `queue-full` backpressure.
    pub queue_capacity: usize,
    /// Default and maximum per-request wall-clock budget (queue wait
    /// included). A request's `timeout_ms` can only shrink it.
    pub request_timeout: Duration,
    /// Largest cell count a request may describe.
    pub max_cells: usize,
    /// Largest trial count per cell.
    pub max_trials: u32,
    /// Largest machine (topology qubit count) a request may target.
    pub max_machine_qubits: usize,
    /// Widest circuit a request may simulate.
    pub max_sim_qubits: usize,
    /// Longest request line accepted, in bytes.
    pub max_request_bytes: usize,
    /// Worker threads of the shared session (0 = the session default).
    pub threads: usize,
    /// Directory for per-request sweep journals. `None` (the default)
    /// rejects journaled requests; `Some` enables crash-safe resume keyed
    /// by the request's `resume_key`.
    pub journal_dir: Option<PathBuf>,
    /// Faults to inject into the worker (present only when the
    /// `fault-injection` feature is enabled; release daemons have no such
    /// field).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 32,
            request_timeout: Duration::from_secs(30),
            max_cells: 4096,
            max_trials: 65_536,
            max_machine_qubits: 256,
            max_sim_qubits: 24,
            max_request_bytes: 1 << 20,
            threads: 0,
            journal_dir: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl ServerConfig {
    pub(crate) fn budgets(&self) -> Budgets {
        Budgets {
            max_cells: self.max_cells,
            max_trials: self.max_trials,
            max_machine_qubits: self.max_machine_qubits,
            max_sim_qubits: self.max_sim_qubits,
        }
    }
}

/// A bidirectional stream the front door can split into reader and
/// writer halves — the common face of TCP and Unix sockets.
trait Conn: Read + Write + Send {
    fn split(&self) -> io::Result<Box<dyn Conn>>;
    fn set_timeouts(&self) -> io::Result<()>;
    fn shutdown_write(&self) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn split(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(100)))?;
        self.set_write_timeout(Some(Duration::from_secs(2)))
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

impl Conn for UnixStream {
    fn split(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(100)))?;
        self.set_write_timeout(Some(Duration::from_secs(2)))
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        }
    }

    /// Makes a blocked [`Listener::accept`] return, by connecting to the
    /// listener's own address (over loopback for a TCP listener bound to an
    /// unspecified address). A Unix socket's path may by now lead to
    /// another listener, so on Linux that listener is shut down instead.
    fn wake(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, SHUTDOWN_WATCH_INTERVAL).map(drop)
            }
            #[cfg(target_os = "linux")]
            Listener::Unix(l, _) => signal::stop_accepting(l),
            #[cfg(not(target_os = "linux"))]
            Listener::Unix(_, path) => UnixStream::connect(path).map(drop),
        }
    }
}

/// Binds a blocking listener on `endpoint`, returning the bound TCP
/// address when there is one. A Unix endpoint's stale socket file is
/// removed first; the file is removed again when the listener drops.
fn bind_listener(endpoint: &Endpoint) -> io::Result<(Listener, Option<SocketAddr>)> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            let addr = l.local_addr()?;
            Ok((Listener::Tcp(l), Some(addr)))
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l, path.clone()), None))
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The per-connection writer: drains the response channel onto the
/// socket. Exits when every sender is gone or the socket dies.
fn write_loop(mut stream: Box<dyn Conn>, responses: &Receiver<String>) {
    while let Ok(line) = responses.recv() {
        if stream.write_all(line.as_bytes()).is_err()
            || stream.write_all(b"\n").is_err()
            || stream.flush().is_err()
        {
            break;
        }
    }
}

/// The counters of the front door: connections, runs that got past every
/// refusal, and refusals by kind.
#[derive(Default)]
pub(crate) struct DoorCounters {
    pub(crate) connections: AtomicU64,
    /// Runs that got past every refusal: for the daemon, runs that
    /// entered its queue; for the supervisor, runs it forwarded to a shard
    /// (counted once the shard answered or every candidate was lost).
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) rejected_budget: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_shutting_down: AtomicU64,
    #[cfg(feature = "fault-injection")]
    pings_answered: AtomicU64,
}

impl DoorCounters {
    fn reject(&self, err: &ServeError) {
        let counter = match err {
            ServeError::Budget { .. } => &self.rejected_budget,
            ServeError::QueueFull { .. } => &self.rejected_queue_full,
            ServeError::ShuttingDown { .. } => &self.rejected_shutting_down,
            _ => &self.rejected_invalid,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A run request that got past parsing, the shutting-down check and the
/// admission budgets.
pub(crate) struct Run<'a> {
    /// The request line as the client sent it.
    pub(crate) line: &'a str,
    pub(crate) id: Option<&'a str>,
    pub(crate) resume_key: Option<&'a str>,
    pub(crate) plan: Box<SweepPlan>,
    pub(crate) timeout_ms: Option<u64>,
    pub(crate) journal: bool,
    /// The connection ordinal, which doubles as the daemon's fairness lane.
    pub(crate) client: u64,
    /// The connection's reply channel.
    pub(crate) reply: &'a SyncSender<String>,
}

/// What a serve mode puts behind the front door.
pub(crate) trait Backend: Send + Sync + Sized + 'static {
    /// Starts the backend's own threads.
    fn start(door: &Arc<Door<Self>>) -> Vec<JoinHandle<()>>;

    /// Takes an admitted run. `Ok(Some(line))` is the reply to send now;
    /// `Ok(None)` means the backend answers through `run.reply` later. An
    /// `Err` is a refusal, which the door counts and answers.
    fn run(&self, run: Run<'_>) -> Result<Option<String>, ServeError>;

    /// The `stats` reply.
    fn stats_line(&self, id: Option<&str>, door: &DoorCounters) -> String;

    /// Whether a connection's idle reader may stop once shutdown began.
    fn reader_may_stop(&self) -> bool;

    /// Stops the backend once every connection finished, joining the
    /// threads [`Backend::start`] returned.
    fn stop(&self, threads: Vec<JoinHandle<()>>);
}

/// The front door over backend `B`.
pub(crate) struct Door<B> {
    pub(crate) backend: B,
    counters: DoorCounters,
    shutdown: AtomicBool,
    budgets: Budgets,
    max_request_bytes: usize,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

impl<B: Backend> Door<B> {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::received()
    }

    /// The per-connection reader on this thread, the writer on its own.
    fn handle_connection(&self, mut stream: Box<dyn Conn>, client: u64) {
        if stream.set_timeouts().is_err() {
            return;
        }
        let Ok(write_half) = stream.split() else {
            return;
        };
        let (reply, responses) = sync_channel::<String>(16);
        let writer = std::thread::spawn(move || write_loop(write_half, &responses));

        let refused = self.read_requests(stream.as_mut(), &reply, client);

        drop(reply);
        let _ = writer.join();
        if refused {
            // Every reply, the refusal last, is written: end the sending
            // side so the client reads them and then end-of-stream, and
            // read what it still sends, so that closing with input unread
            // does not reset the connection under the replies.
            let _ = stream.shutdown_write();
            self.discard_input(stream.as_mut());
        }
    }

    /// Reads and discards what a refused client still sends, until it
    /// closes, shutdown begins, or [`REFUSAL_DRAIN_BYTES`] or
    /// [`REFUSAL_DRAIN_TIME`] run out.
    fn discard_input(&self, stream: &mut dyn Conn) {
        let deadline = Instant::now() + REFUSAL_DRAIN_TIME;
        let mut left = REFUSAL_DRAIN_BYTES;
        let mut chunk = [0u8; 4096];
        while left > 0 && Instant::now() < deadline && !self.shutting_down() {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => left = left.saturating_sub(n),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Frames lines and handles each. A line longer than
    /// `max_request_bytes`, complete or not, is refused and ends the
    /// connection; returns whether that happened.
    fn read_requests(
        &self,
        stream: &mut dyn Conn,
        reply: &SyncSender<String>,
        client: u64,
    ) -> bool {
        let mut buffer: Vec<u8> = Vec::new();
        // How many leading bytes of `buffer` hold no newline: each read
        // scans only what it appended, so framing a line stays linear in
        // its length.
        let mut scanned = 0;
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    buffer.extend_from_slice(&chunk[..n]);
                    while let Some(offset) = buffer[scanned..].iter().position(|&b| b == b'\n') {
                        let pos = scanned + offset;
                        if pos > self.max_request_bytes {
                            break;
                        }
                        let line_bytes: Vec<u8> = buffer.drain(..=pos).collect();
                        scanned = 0;
                        let line = String::from_utf8_lossy(&line_bytes[..pos]);
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        self.handle_line(line, reply, client);
                    }
                    scanned = buffer.len();
                    // Whatever is left starts with a line that has no
                    // newline yet or is already over the cap.
                    if buffer.len() > self.max_request_bytes {
                        let err = ServeError::Protocol {
                            message: format!(
                                "request line exceeds {} bytes",
                                self.max_request_bytes
                            ),
                        };
                        self.refuse(None, &err, reply);
                        return true;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    if self.shutting_down() && self.backend.reader_may_stop() {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// Parses one line, answers control operations, and admits runs.
    fn handle_line(&self, line: &str, reply: &SyncSender<String>, client: u64) {
        let request = match request::parse_request(line) {
            Ok(request) => request,
            Err(err) => return self.refuse(None, &err, reply),
        };
        let id = request.id.as_deref();
        match request.op {
            Op::Ping => {
                #[cfg(feature = "fault-injection")]
                if let Some(plan) = &self.fault_plan {
                    let answered = self.counters.pings_answered.load(Ordering::Relaxed);
                    if plan.should_wedge_ping(answered) {
                        // Injected heartbeat wedge: swallow the ping. The
                        // process stays alive and the socket stays open — only
                        // the supervisor's liveness deadline can tell.
                        return;
                    }
                }
                #[cfg(feature = "fault-injection")]
                self.counters.pings_answered.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(response::ping_line(id));
            }
            Op::Stats => {
                let _ = reply.send(self.backend.stats_line(id, &self.counters));
            }
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                let _ = reply.send(response::shutdown_line(id));
            }
            Op::Run {
                plan,
                timeout_ms,
                journal,
            } => {
                let admitted = if self.shutting_down() {
                    Err(shutting_down_error(id))
                } else {
                    request::admit(&plan, &self.budgets).and_then(|()| {
                        self.backend.run(Run {
                            line,
                            id,
                            resume_key: request.resume_key.as_deref(),
                            plan,
                            timeout_ms,
                            journal,
                            client,
                            reply,
                        })
                    })
                };
                match admitted {
                    Ok(answer) => {
                        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                        if let Some(line) = answer {
                            let _ = reply.send(line);
                        }
                    }
                    Err(err) => self.refuse(id, &err, reply),
                }
            }
        }
    }

    fn refuse(&self, id: Option<&str>, err: &ServeError, reply: &SyncSender<String>) {
        self.counters.reject(err);
        let _ = reply.send(response::error_line(id, err));
    }
}

/// A [`Door`] with its backend type erased, so both modes are one
/// [`Server`].
trait Serve: Send + Sync {
    fn serve(self: Arc<Self>, listener: &Listener) -> io::Result<()>;
    fn begin_shutdown(&self);
}

impl<B: Backend> Serve for Door<B> {
    /// Accepts until shutdown, then drains: stop accepting, join every
    /// connection, stop the backend. A connection's writer exits only
    /// after every reply sender dropped, the ones queued jobs hold
    /// included, so every admitted request is answered before the
    /// backend stops.
    fn serve(self: Arc<Self>, listener: &Listener) -> io::Result<()> {
        let backend_threads = B::start(&self);
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        let accepting = AtomicBool::new(true);
        let result = std::thread::scope(|scope| {
            // `accept` blocks, and a signal only sets a flag (std retries an
            // accept that EINTR interrupts), so this watcher turns every
            // shutdown source into a connection that wakes the accept.
            let watcher = scope.spawn(|| {
                while accepting.load(Ordering::SeqCst) {
                    if self.shutting_down() {
                        let _ = listener.wake();
                    }
                    std::thread::park_timeout(SHUTDOWN_WATCH_INTERVAL);
                }
            });
            let result = loop {
                match listener.accept() {
                    // Once shutdown began, a connection (the watcher's
                    // among them) is dropped unserved, and an error is the
                    // watcher stopping the listener.
                    _ if self.shutting_down() => break Ok(()),
                    Ok(stream) => {
                        let client = self.counters.connections.fetch_add(1, Ordering::Relaxed);
                        let door = self.clone();
                        connections.push(std::thread::spawn(move || {
                            door.handle_connection(stream, client)
                        }));
                    }
                    // A broken listener cannot serve anyway: drain and
                    // report.
                    Err(e) => break Err(e),
                }
                // Reap finished connection threads so a long-lived server's
                // registry does not grow without bound.
                connections.retain(|handle| !handle.is_finished());
            };
            accepting.store(false, Ordering::SeqCst);
            watcher.thread().unpark();
            result
        });
        self.begin_shutdown();
        for handle in connections {
            let _ = handle.join();
        }
        self.backend.stop(backend_threads);
        result
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound front door: the daemon ([`Server::bind`]) or a supervised
/// worker fleet ([`Server::supervise`]). Run it on the current thread
/// with [`Server::run`] (the CLI does this) or get a joinable handle
/// from [`Server::spawn`] (tests do this).
pub struct Server {
    listener: Listener,
    local_addr: Option<SocketAddr>,
    door: Arc<dyn Serve>,
}

/// A handle onto a spawned server: its address, a shutdown switch, and a
/// join point.
pub struct ServerHandle {
    thread: JoinHandle<io::Result<()>>,
    door: Arc<dyn Serve>,
    local_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The bound TCP address, if listening on TCP.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Requests graceful shutdown (same path as SIGINT: drain in-flight
    /// work, refuse new work).
    pub fn shutdown(&self) {
        self.door.begin_shutdown();
    }

    /// Waits for the server to exit.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, or reports a crashed
    /// server thread.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    /// Binds the daemon's listening socket (without accepting yet).
    ///
    /// # Errors
    ///
    /// Propagates socket and journal-directory creation failures.
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> io::Result<Server> {
        // Workers supervised across an exec boundary receive their fault
        // plan as environment variables; an explicitly configured plan
        // wins over the environment.
        #[cfg(feature = "fault-injection")]
        let mut config = config;
        #[cfg(feature = "fault-injection")]
        if config.fault_plan.is_none() {
            config.fault_plan = FaultPlan::from_env();
        }
        Server::open(endpoint, &config, || {
            if let Some(dir) = &config.journal_dir {
                std::fs::create_dir_all(dir)?;
            }
            Ok(Daemon {
                queue: FairQueue::new(config.queue_capacity),
                counters: Counters::default(),
                session_totals: Mutex::new(SessionTotals::default()),
                request_timeout: config.request_timeout,
                journal_dir: config.journal_dir.clone(),
                threads: config.threads,
            })
        })
    }

    /// Binds `endpoint`, then builds the backend to put behind a door
    /// enforcing `config`'s budgets and line cap.
    pub(crate) fn open<B: Backend>(
        endpoint: &Endpoint,
        config: &ServerConfig,
        backend: impl FnOnce() -> io::Result<B>,
    ) -> io::Result<Server> {
        let (listener, local_addr) = bind_listener(endpoint)?;
        let door = Door {
            backend: backend()?,
            counters: DoorCounters::default(),
            shutdown: AtomicBool::new(false),
            budgets: config.budgets(),
            max_request_bytes: config.max_request_bytes,
            #[cfg(feature = "fault-injection")]
            fault_plan: config.fault_plan.clone(),
        };
        Ok(Server {
            listener,
            local_addr,
            door: Arc::new(door),
        })
    }

    /// The bound TCP address, if listening on TCP (useful after binding
    /// port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Serves on the current thread until shutdown (SIGINT, a `shutdown`
    /// request, or a [`ServerHandle::shutdown`]), then drains: every
    /// admitted request is answered before the backend stops.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than transient ones.
    pub fn run(self) -> io::Result<()> {
        self.door.serve(&self.listener)
    }

    /// Spawns [`Server::run`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let door = self.door.clone();
        let local_addr = self.local_addr;
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            thread,
            door,
            local_addr,
        }
    }
}

/// One admitted unit of work.
struct Job {
    id: Option<String>,
    plan: SweepPlan,
    /// Journal file for this request, when it asked for one and the
    /// daemon has a journal directory.
    journal: Option<PathBuf>,
    enqueued: Instant,
    deadline: Instant,
    reply: SyncSender<String>,
}

/// Monotonic counters of what the daemon's worker did.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    partials: AtomicU64,
    timeouts: AtomicU64,
    compile_errors: AtomicU64,
    panics: AtomicU64,
    session_rebuilds: AtomicU64,
    responses_dropped: AtomicU64,
    journal_runs: AtomicU64,
    journal_corrupt: AtomicU64,
    journal_degraded: AtomicU64,
    journal_compactions: AtomicU64,
}

/// Cumulative session-side totals, published by the worker after every
/// request so `stats` answers without touching the session.
#[derive(Default, Clone, Copy)]
struct SessionTotals {
    compile_requests: u64,
    compile_hits: u64,
    place_hits: u64,
    place_runs: u64,
    tiers: TierStats,
}

/// The daemon's backend: the fair queue, and what the worker needs and
/// counts.
struct Daemon {
    queue: FairQueue<Job>,
    counters: Counters,
    session_totals: Mutex<SessionTotals>,
    request_timeout: Duration,
    journal_dir: Option<PathBuf>,
    /// Worker threads of the shared session (0 = the session default).
    threads: usize,
}

impl Backend for Daemon {
    fn start(door: &Arc<Door<Daemon>>) -> Vec<JoinHandle<()>> {
        let door = door.clone();
        vec![std::thread::spawn(move || worker_loop(&door))]
    }

    /// Enqueues the run on its connection's lane.
    fn run(&self, run: Run<'_>) -> Result<Option<String>, ServeError> {
        let journal = journal_file(self, run.journal, run.resume_key)?;
        let timeout = run
            .timeout_ms
            .map(Duration::from_millis)
            .map_or(self.request_timeout, |t| t.min(self.request_timeout));
        let now = Instant::now();
        let job = Job {
            id: run.id.map(str::to_string),
            plan: *run.plan,
            journal,
            enqueued: now,
            deadline: now + timeout,
            reply: run.reply.clone(),
        };
        match self.queue.try_push(run.client, job) {
            Ok(()) => Ok(None),
            // Back-off scaled to how much work is already queued, plus a
            // deterministic per-request jitter so a herd of rejected
            // clients does not retry in lockstep.
            Err(PushError::Full) => Err(ServeError::QueueFull {
                retry_after_ms: 100 + 150 * self.queue.len() as u64 + retry_jitter_ms(run.id),
            }),
            Err(PushError::Closed) => Err(shutting_down_error(run.id)),
        }
    }

    fn stats_line(&self, id: Option<&str>, door: &DoorCounters) -> String {
        let c = &self.counters;
        let totals = *self
            .session_totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let tiers = totals.tiers;
        // Per-client lane depths as a JSON object keyed by connection ordinal.
        let queue_depths = {
            let entries: Vec<String> = self
                .queue
                .depths()
                .iter()
                .map(|(client, depth)| format!("\"{client}\": {depth}"))
                .collect();
            format!("{{{}}}", entries.join(", "))
        };
        format!(
            "{{\"id\": {}, \"status\": \"ok\", \"op\": \"stats\", \"stats\": {{\
             \"queue_depth\": {}, \"queue_depths\": {}, \"connections\": {}, \"accepted\": {}, \"completed\": {}, \
             \"partials\": {}, \"timeouts\": {}, \"compile_errors\": {}, \"panics\": {}, \
             \"session_rebuilds\": {}, \"responses_dropped\": {}, \
             \"journal\": {{\"runs\": {}, \"corrupt\": {}, \"degraded\": {}, \"compactions\": {}}}, \
             \"rejected\": {{\"invalid\": {}, \"budget\": {}, \"queue_full\": {}, \"shutting_down\": {}}}, \
             \"session\": {{\"compile_requests\": {}, \"compile_hits\": {}, \"place_hits\": {}, \"place_runs\": {}}}, \
             \"tiers\": {{\"error_free\": {}, \"pauli_prop\": {}, \"checkpointed\": {}, \"full_replay\": {}, \
             \"memo_hits\": {}, \"memo_misses\": {}}}}}}}",
            response::id_json(id),
            self.queue.len(),
            queue_depths,
            get(&door.connections),
            get(&door.accepted),
            get(&c.completed),
            get(&c.partials),
            get(&c.timeouts),
            get(&c.compile_errors),
            get(&c.panics),
            get(&c.session_rebuilds),
            get(&c.responses_dropped),
            get(&c.journal_runs),
            get(&c.journal_corrupt),
            get(&c.journal_degraded),
            get(&c.journal_compactions),
            get(&door.rejected_invalid),
            get(&door.rejected_budget),
            get(&door.rejected_queue_full),
            get(&door.rejected_shutting_down),
            totals.compile_requests,
            totals.compile_hits,
            totals.place_hits,
            totals.place_runs,
            tiers.error_free,
            tiers.pauli_prop,
            tiers.checkpointed,
            tiers.full_replay,
            tiers.memo_hits,
            tiers.memo_misses,
        )
    }

    /// A reader stays while queued work may still need its connection.
    fn reader_may_stop(&self) -> bool {
        self.queue.is_empty()
    }

    fn stop(&self, worker: Vec<JoinHandle<()>>) {
        self.queue.close();
        for handle in worker {
            let _ = handle.join();
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn new_session(threads: usize) -> Session {
    if threads > 0 {
        Session::new().with_threads(threads)
    } else {
        Session::new()
    }
}

/// The on-disk journal file for a `resume_key`: named by FNV-1a hash so
/// arbitrary client-supplied keys cannot traverse outside `dir`.
pub fn journal_path(dir: &Path, resume_key: &str) -> PathBuf {
    dir.join(format!("req-{:016x}.journal", fnv64(resume_key.as_bytes())))
}

/// The single worker: owns the session, serves the queue round-robin
/// across client lanes until the queue closes and drains.
fn worker_loop(door: &Door<Daemon>) {
    let daemon = &door.backend;
    #[cfg(feature = "fault-injection")]
    let fault = &door.fault_plan;
    let mut session = new_session(daemon.threads);
    let counters = &daemon.counters;
    while let Some(job) = daemon.queue.pop() {
        let started = Instant::now();
        let queue_ms = started.duration_since(job.enqueued).as_millis() as u64;

        #[cfg(feature = "fault-injection")]
        if let Some(delay) = fault.as_ref().and_then(|f| f.delay_before_run_ms) {
            std::thread::sleep(Duration::from_millis(delay));
        }

        let control = RunControl::unbounded().with_deadline(job.deadline);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if let Some(f) = fault {
                if f.should_panic(job.plan.circuits().iter().map(|c| c.name.as_str())) {
                    panic!("injected fault: panic_on_circuit");
                }
            }
            run_job(&mut session, &job, &control)
        }));

        let line = match outcome {
            Ok(Ok((outcome, effects))) => {
                if job.journal.is_some() {
                    counters.journal_runs.fetch_add(1, Ordering::Relaxed);
                }
                if effects.degraded {
                    counters.journal_degraded.fetch_add(1, Ordering::Relaxed);
                }
                if effects.compacted {
                    counters.journal_compactions.fetch_add(1, Ordering::Relaxed);
                }
                publish_totals(daemon, &outcome.report);
                if outcome.completed {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                } else if outcome.report.cells.is_empty() {
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let elapsed = job.enqueued.elapsed().as_millis() as u64;
                    let err = ServeError::Timeout {
                        elapsed_ms: elapsed,
                    };
                    let line = response::error_line(job.id.as_deref(), &err);
                    send_reply(daemon, &job.reply, line);
                    continue;
                } else {
                    counters.partials.fetch_add(1, Ordering::Relaxed);
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                let run_ms = started.elapsed().as_millis() as u64;
                response::run_line(job.id.as_deref(), &outcome, queue_ms, run_ms)
            }
            Ok(Err(err)) => {
                match err.code() {
                    "journal-corrupt" => counters.journal_corrupt.fetch_add(1, Ordering::Relaxed),
                    _ => counters.compile_errors.fetch_add(1, Ordering::Relaxed),
                };
                response::error_line(job.id.as_deref(), &err)
            }
            Err(payload) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                // The cache-owner poison check: a panic that unwound
                // through a lock holder leaves the placement cache
                // unusable, so replace the session. A clean unwind keeps
                // the warm caches.
                if session.placement_cache().is_poisoned() {
                    session = new_session(daemon.threads);
                    counters.session_rebuilds.fetch_add(1, Ordering::Relaxed);
                }
                let err = ServeError::Panic {
                    message: panic_message(payload.as_ref()),
                };
                response::error_line(job.id.as_deref(), &err)
            }
        };
        send_reply(daemon, &job.reply, line);
    }
}

/// What [`run_job`] observed about a job's journal, besides the outcome.
#[derive(Default)]
struct JournalEffects {
    /// The journal ran out of disk mid-sweep and fell back to in-memory
    /// execution.
    degraded: bool,
    /// The journal was auto-compacted after the run.
    compacted: bool,
}

/// Dead records (completed intents, superseded duplicates) a journaled run
/// may leave in its journal before [`run_job`] compacts it; long-lived
/// resume keys would otherwise grow their journals without bound.
const JOURNAL_COMPACT_THRESHOLD: u64 = 64;

/// Executes one job on the session, journaled when the job carries a
/// journal path. After a journaled run, auto-compacts the file when the
/// dead-record count reaches [`JOURNAL_COMPACT_THRESHOLD`].
///
/// An unusable journal — not-a-journal file, unreadable, unwritable — is
/// a `journal-corrupt` request error, never a daemon fault. Torn or
/// checksum-corrupt *trailing* records are recovered by truncation inside
/// [`Journal::resume`] and do not error.
fn run_job(
    session: &mut Session,
    job: &Job,
    control: &RunControl,
) -> Result<(RunOutcome, JournalEffects), ServeError> {
    match &job.journal {
        None => Ok((
            session.execute(&job.plan, control, None)?,
            JournalEffects::default(),
        )),
        Some(path) => {
            let mut journal = Journal::resume(path, job.plan.machine_seed(), job.plan.trials())
                .map_err(|e| ServeError::JournalCorrupt {
                    message: e.to_string(),
                })?;
            let outcome = session.execute(&job.plan, control, Some(&mut journal))?;
            let mut effects = JournalEffects {
                degraded: journal.degraded().is_some(),
                compacted: false,
            };
            if !effects.degraded && journal.dead_records() >= JOURNAL_COMPACT_THRESHOLD {
                effects.compacted = journal.compact_in_place();
            }
            Ok((outcome, effects))
        }
    }
}

fn publish_totals(daemon: &Daemon, report: &nisq_exp::Report) {
    let mut totals = daemon
        .session_totals
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    totals.compile_requests += report.cache.compile_requests;
    totals.compile_hits += report.cache.compile_hits;
    totals.place_hits += report.cache.place_hits;
    totals.place_runs += report.cache.place_runs;
    totals.tiers.merge(&report.tiers);
}

/// Hands a response line to the connection's writer without ever blocking
/// the worker: a slow consumer's full channel drops the response (counted)
/// rather than stalling the daemon.
fn send_reply(daemon: &Daemon, reply: &SyncSender<String>, line: String) {
    if reply.try_send(line).is_err() {
        daemon
            .counters
            .responses_dropped
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Resolves a run request's journal flag to an on-disk path, or rejects
/// the combination: journaling needs both a client `resume_key` (the
/// stable identity that survives reconnects) and a daemon `--journal-dir`.
fn journal_file(
    daemon: &Daemon,
    journal: bool,
    resume_key: Option<&str>,
) -> Result<Option<PathBuf>, ServeError> {
    if !journal {
        return Ok(None);
    }
    let Some(dir) = &daemon.journal_dir else {
        return Err(ServeError::InvalidPlan {
            message: "journaled run refused: daemon started without --journal-dir".to_string(),
        });
    };
    let Some(key) = resume_key else {
        return Err(ServeError::InvalidPlan {
            message: "journaled run requires a resume_key in the request envelope".to_string(),
        });
    };
    Ok(Some(journal_path(dir, key)))
}

/// Deterministic bounded jitter (0..100 ms) for `retry_after_ms`, derived
/// from the request id so tests can predict it and id-less requests get
/// none.
pub(crate) fn retry_jitter_ms(id: Option<&str>) -> u64 {
    id.map_or(0, |id| fnv64(id.as_bytes()) % 100)
}

/// A `shutting-down` rejection with the same deterministic per-request
/// jitter as queue-full back-off: a herd of clients bounced by a draining
/// daemon should not hammer its replacement in lockstep.
fn shutting_down_error(id: Option<&str>) -> ServeError {
    ServeError::ShuttingDown {
        retry_after_ms: 500 + retry_jitter_ms(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_exp::json;

    fn test_daemon() -> Daemon {
        Daemon {
            queue: FairQueue::new(4),
            counters: Counters::default(),
            session_totals: Mutex::new(SessionTotals::default()),
            request_timeout: Duration::from_secs(1),
            journal_dir: None,
            threads: 0,
        }
    }

    #[test]
    fn stats_line_is_valid_json() {
        let daemon = test_daemon();
        let door = DoorCounters::default();
        door.accepted.store(3, Ordering::Relaxed);
        daemon.counters.journal_runs.store(2, Ordering::Relaxed);
        let doc = json::parse(&daemon.stats_line(Some("s"), &door)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        let stats = doc.get("stats").unwrap();
        assert_eq!(stats.get("accepted").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
        assert!(stats.get("queue_depths").is_some());
        let journal = stats.get("journal").unwrap();
        assert_eq!(journal.get("runs").unwrap().as_u64(), Some(2));
        assert_eq!(journal.get("corrupt").unwrap().as_u64(), Some(0));
        assert!(stats
            .get("session")
            .unwrap()
            .get("compile_requests")
            .is_some());
        assert!(stats.get("tiers").unwrap().get("error_free").is_some());
    }

    #[test]
    fn journal_flag_needs_both_dir_and_key() {
        let without_dir = test_daemon();
        assert_eq!(journal_file(&without_dir, false, None), Ok(None));
        assert!(matches!(
            journal_file(&without_dir, true, Some("k")),
            Err(ServeError::InvalidPlan { .. })
        ));
        let with_dir = Daemon {
            journal_dir: Some(PathBuf::from("/tmp/journals")),
            ..test_daemon()
        };
        assert!(matches!(
            journal_file(&with_dir, true, None),
            Err(ServeError::InvalidPlan { .. })
        ));
        let path = journal_file(&with_dir, true, Some("client-7/exp")).unwrap();
        let path = path.unwrap();
        assert_eq!(path.parent(), Some(Path::new("/tmp/journals")));
        let name = path.file_name().unwrap().to_str().unwrap();
        // Content-addressed: no trace of the raw key (which may contain
        // separators) in the filename.
        assert!(name.starts_with("req-") && name.ends_with(".journal"));
        assert_eq!(
            path,
            journal_file(&with_dir, true, Some("client-7/exp"))
                .unwrap()
                .unwrap()
        );
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        assert_eq!(retry_jitter_ms(None), 0);
        let a = retry_jitter_ms(Some("req-1"));
        assert_eq!(a, retry_jitter_ms(Some("req-1")));
        assert!(a < 100);
        assert!(retry_jitter_ms(Some("req-2")) < 100);
    }

    #[test]
    fn panic_messages_survive_extraction() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(payload.as_ref()), "kaboom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
