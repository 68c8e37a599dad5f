//! `nisq-serve`: a fault-tolerant compile-and-simulate daemon.
//!
//! The daemon wraps one long-lived [`nisq_exp::Session`] behind a
//! line-delimited JSON protocol over TCP or a Unix socket, so repeated
//! sweeps share compile and placement caches across clients. It is built
//! for hostile weather:
//!
//! - a **bounded fair queue** holds one lane per connection, drained
//!   round-robin, so a flooding client cannot starve a quiet one; excess
//!   load is rejected with `queue-full` and a deterministic
//!   `retry_after_ms` hint (jittered per request id) instead of buffering
//!   without limit;
//! - every request runs under a **wall-clock deadline** (queue wait
//!   included) and returns a partial, well-formed report when time runs
//!   out;
//! - requests execute under **panic isolation**: a panicking request is
//!   answered with a structured `panic` error, and the shared session is
//!   rebuilt only if the panic poisoned a cache lock;
//! - with a `--journal-dir`, a request carrying `"journal": true` and a
//!   `resume_key` streams finished cells to a **crash-safe journal**; a
//!   client re-sending the same request after a daemon crash resumes the
//!   finished prefix bit-identically instead of recomputing it;
//! - SIGINT/SIGTERM trigger a **graceful drain**: admitted work finishes,
//!   new work is refused with `shutting-down`, then the process exits 0;
//! - with `--workers N`, [`Server::supervise`] forks N process-isolated
//!   worker shards on private Unix sockets, routes runs by rendezvous
//!   hash of the plan fingerprint, heartbeats each shard, restarts the
//!   dead after capped jittered backoff, and re-dispatches in-flight
//!   requests to a survivor — with a shared journal directory, the
//!   failover response is canonically bit-identical to an undisturbed
//!   run.
//!
//! Both modes are one [`Server`] behind one front door: the same accept
//! loop, connection threads, line framing, parsing, control operations,
//! admission budgets and `accepted`/`rejected` counters. Only what an
//! admitted run does and the body of the `stats` reply differ.
//!
//! Every error travels as a typed [`ServeError`] with a stable wire code,
//! mirrored by the `code` field of error responses. The `fault-injection`
//! feature (tests only) adds `FaultPlan` hooks for panicking or stalling
//! the worker on demand.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
#[cfg(feature = "fault-injection")]
mod fault;
mod queue;
mod request;
mod response;
mod server;
pub mod signal;
mod supervisor;
mod worker;

pub use error::ServeError;
#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, ENV_DELAY_BEFORE_RUN_MS, ENV_PANIC_ON_CIRCUIT, ENV_WEDGE_AFTER_PINGS};
pub use request::{admit, parse_plan_with_journal, parse_request, Budgets, Op, Request};
pub use server::{journal_path, Endpoint, Server, ServerConfig, ServerHandle};
pub use supervisor::{restart_backoff, route_worker, SupervisorConfig};
pub use worker::WorkerSpec;
