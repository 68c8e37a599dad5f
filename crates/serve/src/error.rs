//! The request-level error taxonomy.
//!
//! Every way a request can fail maps to exactly one [`ServeError`]
//! variant, and every variant has a stable wire `code` clients can switch
//! on. The daemon never answers a request with anything other than a
//! report or one of these — process death is not part of the taxonomy.

use std::error::Error;
use std::fmt;

/// A structured request failure, serialized onto the wire as
/// `{"status": "error", "code": ..., "message": ...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request line was not valid JSON, exceeded the size limit, or
    /// did not have the shape of a request envelope.
    Protocol {
        /// What was wrong with the framing or envelope.
        message: String,
    },
    /// The envelope was well-formed but the plan it carries is not: an
    /// unknown benchmark or mapper name, malformed QASM, a degenerate
    /// topology, an unknown field.
    InvalidPlan {
        /// What was wrong with the plan.
        message: String,
    },
    /// The plan is valid but exceeds an admission budget (cells, trials,
    /// machine size, simulated-circuit width).
    Budget {
        /// Which budget was exceeded and by how much.
        message: String,
    },
    /// The work queue is at capacity; the request was not enqueued.
    QueueFull {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's wall-clock deadline expired before any cell finished
    /// (a deadline that expires mid-run yields a `partial` response
    /// instead, carrying the cells that did finish).
    Timeout {
        /// Wall-clock time the request spent (queueing included), in
        /// milliseconds.
        elapsed_ms: u64,
    },
    /// Compilation or machine construction failed for a plan cell.
    Compile {
        /// The underlying compile diagnostic.
        message: String,
    },
    /// The request panicked inside the worker. The daemon caught it and
    /// stayed up, its session's caches intact.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request's journal could not be opened or recovered: the file
    /// at its `resume_key` path exists but is not a sweep journal, or
    /// journal I/O failed outright. (Torn or checksum-corrupt *trailing*
    /// records are not errors — recovery truncates them and resumes.)
    JournalCorrupt {
        /// What went wrong with the journal.
        message: String,
    },
    /// The worker process holding the request died (SIGKILL, OOM, abort)
    /// and re-dispatch to a surviving worker was not possible or also
    /// failed. Retryable: journaled work a dead worker completed replays
    /// from its journal on the next attempt.
    WorkerLost {
        /// What happened to the worker.
        message: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining for shutdown and refuses new work.
    ShuttingDown {
        /// Suggested client back-off before retrying (against a restarted
        /// daemon), in milliseconds.
        retry_after_ms: u64,
    },
}

impl ServeError {
    /// The stable wire code of this error.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Protocol { .. } => "protocol",
            ServeError::InvalidPlan { .. } => "invalid-plan",
            ServeError::Budget { .. } => "budget",
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::Timeout { .. } => "timeout",
            ServeError::Compile { .. } => "compile",
            ServeError::Panic { .. } => "panic",
            ServeError::JournalCorrupt { .. } => "journal-corrupt",
            ServeError::WorkerLost { .. } => "worker-lost",
            ServeError::ShuttingDown { .. } => "shutting-down",
        }
    }

    /// The retry hint this error carries, when it is retryable.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::QueueFull { retry_after_ms }
            | ServeError::WorkerLost { retry_after_ms, .. }
            | ServeError::ShuttingDown { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol { message } => write!(f, "protocol error: {message}"),
            ServeError::InvalidPlan { message } => write!(f, "invalid plan: {message}"),
            ServeError::Budget { message } => write!(f, "budget exceeded: {message}"),
            ServeError::QueueFull { retry_after_ms } => {
                write!(f, "queue full, retry after {retry_after_ms} ms")
            }
            ServeError::Timeout { elapsed_ms } => {
                write!(f, "deadline expired after {elapsed_ms} ms")
            }
            ServeError::Compile { message } => write!(f, "compile failed: {message}"),
            ServeError::Panic { message } => write!(f, "request panicked: {message}"),
            ServeError::JournalCorrupt { message } => write!(f, "journal unusable: {message}"),
            ServeError::WorkerLost {
                message,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "worker lost ({message}), retry after {retry_after_ms} ms"
                )
            }
            ServeError::ShuttingDown { retry_after_ms } => {
                write!(
                    f,
                    "daemon is shutting down, retry after {retry_after_ms} ms"
                )
            }
        }
    }
}

impl Error for ServeError {}

impl From<nisq_core::CompileError> for ServeError {
    fn from(err: nisq_core::CompileError) -> Self {
        ServeError::Compile {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_code() {
        let variants = [
            ServeError::Protocol {
                message: String::new(),
            },
            ServeError::InvalidPlan {
                message: String::new(),
            },
            ServeError::Budget {
                message: String::new(),
            },
            ServeError::QueueFull { retry_after_ms: 1 },
            ServeError::Timeout { elapsed_ms: 1 },
            ServeError::Compile {
                message: String::new(),
            },
            ServeError::Panic {
                message: String::new(),
            },
            ServeError::JournalCorrupt {
                message: String::new(),
            },
            ServeError::WorkerLost {
                message: String::new(),
                retry_after_ms: 1,
            },
            ServeError::ShuttingDown { retry_after_ms: 1 },
        ];
        let codes: Vec<&str> = variants.iter().map(ServeError::code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
    }

    #[test]
    fn retryable_variants_carry_their_hint() {
        assert_eq!(
            ServeError::QueueFull { retry_after_ms: 9 }.retry_after_ms(),
            Some(9)
        );
        assert_eq!(
            ServeError::WorkerLost {
                message: "killed".to_string(),
                retry_after_ms: 11,
            }
            .retry_after_ms(),
            Some(11)
        );
        assert_eq!(
            ServeError::ShuttingDown { retry_after_ms: 13 }.retry_after_ms(),
            Some(13)
        );
        assert_eq!(ServeError::Timeout { elapsed_ms: 5 }.retry_after_ms(), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
