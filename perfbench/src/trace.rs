//! In-memory spans for the traced runs.
//!
//! Spans are recorded by the harness around its own calls into each
//! layer's public functions; the program itself is not instrumented. Each
//! thread records into its own [`Lane`], and lanes are merged when the
//! threads join. Span ids come from one shared counter, so parents recorded
//! on other threads stay addressable after the merge.

use crate::sys::ThreadSched;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Marks a span that belongs to no single cell or request.
pub const NO_CELL: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time the recording thread spent runnable but waiting for a CPU
    /// during the span (run-queue delay).
    pub wait_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The clock and id source spans of one traced run share.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
        }
    }

    pub fn lane(&self) -> Lane<'_> {
        Lane {
            tracer: self,
            sched: ThreadSched::open(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    cell: u32,
    start: Instant,
    wait_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// One thread's span buffer.
pub struct Lane<'t> {
    tracer: &'t Tracer,
    sched: ThreadSched,
    pub spans: Vec<Span>,
}

impl Lane<'_> {
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, cell: u32) -> Open {
        Open {
            // Relaxed: the id only has to be unique; it publishes nothing.
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            wait_ns: self.sched.read().wait_ns,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: Open) {
        let end = Instant::now();
        let wait_ns = self.sched.read().wait_ns;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cell: open.cell,
            start_ns: self.tracer.ns(open.start),
            end_ns: self.tracer.ns(end),
            wait_ns: wait_ns.saturating_sub(open.wait_ns),
        });
    }

    /// Records a span whose duration was measured elsewhere (a response's
    /// `queue_ms`), laid out from `start` under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        cell: u32,
        start_ns: u64,
        dur: Duration,
    ) {
        self.spans.push(Span {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            wait_ns: 0,
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
            children[*p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Share of the wall time of the named spans their thread spent off the
/// CPU waiting to run: high when other work on the host contends for the
/// cores. Run-queue delay is booked when a wait ends, so unlike on-CPU
/// time it is exact even for spans shorter than a scheduler tick.
pub fn cpu_wait_share(spans: &[Span], names: &[&str]) -> f64 {
    let (mut wall, mut wait) = (0u64, 0u64);
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        wall += s.dur_ns();
        wait += s.wait_ns.min(s.dur_ns());
    }
    wait as f64 / wall.max(1) as f64
}

/// Writes spans as JSON lines (one span per line), replacing `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = if s.cell == NO_CELL {
            "null".to_string()
        } else {
            s.cell.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"cell\": {cell}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"wait_ns\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.wait_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            cell: NO_CELL,
            start_ns,
            end_ns,
            wait_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover [10, 70).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 20, 70),
            span(3, Some(1), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 50, 10]);
    }
}
