//! Response framing: one JSON object per line.
//!
//! Every response echoes the request's `id` (or `null`) and carries a
//! `status` of `ok`, `partial` or `error`. Reports are embedded as the
//! same document `nisqc sweep` emits, so existing report tooling parses
//! the `report` field unchanged.

use crate::error::ServeError;
use nisq_exp::json;
use nisq_exp::RunOutcome;

pub(crate) fn id_json(id: Option<&str>) -> String {
    match id {
        Some(id) => json::write_str(id),
        None => "null".to_string(),
    }
}

/// The response to a failed request. Retryable errors (`queue-full`,
/// `worker-lost`, `shutting-down`) carry their back-off hint as a
/// `retry_after_ms` field.
pub fn error_line(id: Option<&str>, err: &ServeError) -> String {
    let mut extra = String::new();
    if let Some(retry_after_ms) = err.retry_after_ms() {
        extra = format!(", \"retry_after_ms\": {retry_after_ms}");
    }
    format!(
        "{{\"id\": {}, \"status\": \"error\", \"code\": {}, \"message\": {}{extra}}}",
        id_json(id),
        json::write_str(err.code()),
        json::write_str(&err.to_string()),
    )
}

/// The response to a completed (or deadline-truncated) run. A truncated
/// run reports `status: "partial"` with `code: "timeout"` and the records
/// of every cell that finished.
pub fn run_line(id: Option<&str>, outcome: &RunOutcome, queue_ms: u64, run_ms: u64) -> String {
    let status = if outcome.completed { "ok" } else { "partial" };
    let code = if outcome.completed {
        String::new()
    } else {
        ", \"code\": \"timeout\"".to_string()
    };
    format!(
        "{{\"id\": {}, \"status\": \"{status}\"{code}, \"cells_done\": {}, \"cells_total\": {}, \
         \"queue_ms\": {queue_ms}, \"run_ms\": {run_ms}, \"report\": {}}}",
        id_json(id),
        outcome.report.cells.len(),
        outcome.cells_total,
        outcome.report.to_json_line(),
    )
}

/// The response to a `ping`.
pub fn ping_line(id: Option<&str>) -> String {
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"op\": \"ping\"}}",
        id_json(id)
    )
}

/// The response to an accepted `shutdown`.
pub fn shutdown_line(id: Option<&str>) -> String {
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"op\": \"shutdown\"}}",
        id_json(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_lines_are_single_line_json_with_code() {
        let line = error_line(
            Some("x"),
            &ServeError::QueueFull {
                retry_after_ms: 250,
            },
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("code").unwrap().as_str(), Some("queue-full"));
        assert_eq!(doc.get("retry_after_ms").unwrap().as_u64(), Some(250));
        assert!(doc.get("message").unwrap().as_str().is_some());
    }

    #[test]
    fn worker_lost_and_shutting_down_lines_carry_retry_hints() {
        let line = error_line(
            Some("x"),
            &ServeError::WorkerLost {
                message: "worker 2 died".to_string(),
                retry_after_ms: 321,
            },
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("worker-lost"));
        assert_eq!(doc.get("retry_after_ms").unwrap().as_u64(), Some(321));

        let line = error_line(None, &ServeError::ShuttingDown { retry_after_ms: 77 });
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("shutting-down"));
        assert_eq!(doc.get("retry_after_ms").unwrap().as_u64(), Some(77));
    }

    #[test]
    fn error_line_escapes_hostile_ids_and_messages() {
        let line = error_line(
            Some("line\nbreak\"quote"),
            &ServeError::InvalidPlan {
                message: "bad \"name\"\nwith newline".to_string(),
            },
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("line\nbreak\"quote"));
    }

    #[test]
    fn ping_echoes_null_id() {
        let doc = json::parse(&ping_line(None)).unwrap();
        assert_eq!(doc.get("id"), Some(&json::Value::Null));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    }
}
