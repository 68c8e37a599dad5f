//! Crash-safe write-ahead journaling for sweep execution.
//!
//! A journal is an append-only file of length-and-checksum-framed JSON
//! records. Before a cell executes, an *intent* record is appended; after
//! it completes, the full per-cell result (the report's cell schema) is
//! appended and fsync'd, keyed by the cell's content fingerprint
//! `(circuit_fp, machine_fp, config_fp, day, noise, sim_seed, trials)`.
//! Because every cell is a deterministic function of the plan and its
//! seeds, a run resumed from a journal is *bit-identical* (canonically) to
//! an uninterrupted run: completed cells are replayed from the journal,
//! the rest recompute.
//!
//! # Framing
//!
//! One record per line:
//!
//! ```text
//! J1 <payload-bytes> <fnv1a64-hex16> <single-line JSON payload>\n
//! ```
//!
//! Recovery scans from the start; the first record must be a `header`
//! carrying the journal schema tag (anything else means the file is not a
//! journal and is left untouched). The first torn or checksum-corrupt
//! record truncates the file at that record's byte offset — a crash mid-
//! append loses at most the record being written, never a completed one.
//!
//! # Degradation
//!
//! Append failures after a journal is open (disk full, I/O error, an
//! injected fault) never fail the sweep: the journal degrades to a no-op
//! sink, the run continues journal-less, and the caller surfaces the
//! reason from [`Journal::degraded`]. A report is never lost to a
//! journaling problem.

use crate::json::{self, Value};
use crate::report::{self, CellRecord};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Version tag carried by every journal's header record.
pub const JOURNAL_SCHEMA: &str = "nisq-sweep-journal/v1";

/// 64-bit FNV-1a — the journal's record checksum (also used to derive
/// stable per-path and per-request hashes; not cryptographic).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content fingerprint identifying one sweep cell across processes.
///
/// Two cells with equal keys compute bit-identical results: the circuit,
/// machine and compiler-config fingerprints pin the compile, and the day /
/// noise label / seed / trial count pin the simulation stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Circuit content fingerprint.
    pub circuit_fp: u64,
    /// Machine snapshot fingerprint (topology + calibration day + seed).
    pub machine_fp: u64,
    /// Compiler configuration fingerprint.
    pub config_fp: u64,
    /// Calibration day index.
    pub day: usize,
    /// Noise-axis label bound for the cell (`None` = built-in noise only).
    pub noise: Option<String>,
    /// Simulation seed of the cell's trial stream.
    pub sim_seed: u64,
    /// Trials per cell.
    pub trials: u32,
}

/// Why a journal could not be opened or recovered.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure opening or reading the journal file.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file exists but does not begin with a valid journal header —
    /// it is refused (and never truncated) rather than overwritten.
    NotAJournal {
        /// The offending path.
        path: PathBuf,
        /// What disqualified the file.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::NotAJournal { path, detail } => {
                write!(
                    f,
                    "journal {}: not a sweep journal ({detail})",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// What recovery found in an existing journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Completed cell records loaded (after last-write-wins dedup).
    pub completed_cells: usize,
    /// Trailing bytes truncated because of a torn or corrupt record.
    pub truncated_bytes: u64,
    /// Intent records with no matching completion (cells that were
    /// executing when the previous process died).
    pub orphan_intents: usize,
}

/// A read-only summary of a journal file — what `nisqc journal inspect`
/// prints. Produced by [`Journal::inspect`] without truncating or
/// otherwise modifying the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InspectInfo {
    /// Machine seed recorded in the header, when the header carries one.
    pub machine_seed: Option<u64>,
    /// Trial count recorded in the header, when the header carries one.
    pub trials: Option<u64>,
    /// Valid records of any kind (header included).
    pub records: usize,
    /// Completed-cell records, duplicates included.
    pub cell_records: usize,
    /// Distinct cell keys after last-write-wins dedup.
    pub unique_cells: usize,
    /// Write-ahead intent records, matched and orphaned alike.
    pub intent_records: usize,
    /// Intents with no matching completion (cells in flight at a crash).
    pub orphan_intents: usize,
    /// Records compaction would drop: intents, superseded duplicates and
    /// redundant headers.
    pub dead_records: usize,
    /// Byte offset of the first torn or checksum-corrupt record, when the
    /// file does not scan clean to its end.
    pub torn_tail_offset: Option<u64>,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// What [`Journal::compact`] did to a journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactInfo {
    /// Distinct cell records the compacted journal keeps.
    pub kept_cells: usize,
    /// Records dropped (intents, superseded duplicates, torn tail).
    pub dropped_records: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
}

/// A write-ahead sweep journal: completed-cell lookup plus durable
/// appends. See the module docs for the format and recovery semantics.
pub struct Journal {
    path: PathBuf,
    file: Option<std::fs::File>,
    completed: FxHashMap<CellKey, CellRecord>,
    /// Distinct keys in first-completion order, so compaction rewrites
    /// deterministically.
    order: Vec<CellKey>,
    recovery: RecoveryInfo,
    degraded: Option<String>,
    appends: u64,
    /// `sync_data` calls since open.
    syncs: u64,
    machine_seed: u64,
    trials: u32,
    /// Records on disk a compaction would drop: every intent whose cell
    /// completed, superseded duplicate cells, and whatever recovery found
    /// already dead. The serve daemon compacts when this crosses its
    /// threshold.
    dead_records: u64,
    /// Intents appended whose completion has not landed yet.
    live_intents: u64,
    #[cfg(feature = "fault-injection")]
    fail_appends_after: Option<u64>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("completed", &self.completed.len())
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any existing file and
    /// writing the header record. `machine_seed` and `trials` are recorded
    /// in the header for provenance.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be created.
    pub fn create(path: &Path, machine_seed: u64, trials: u32) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file: Some(file),
            completed: FxHashMap::default(),
            order: Vec::new(),
            recovery: RecoveryInfo::default(),
            degraded: None,
            appends: 0,
            syncs: 0,
            machine_seed,
            trials,
            dead_records: 0,
            live_intents: 0,
            #[cfg(feature = "fault-injection")]
            fail_appends_after: None,
        };
        journal.append_payload(&header_payload(machine_seed, trials), true);
        Ok(journal)
    }

    /// Opens `path` for resumption: recovers every completed cell record
    /// (last write wins for duplicate keys), truncates the file after the
    /// first torn or checksum-corrupt record, and positions the journal
    /// for appending. A missing or empty file behaves like
    /// [`Journal::create`]. Records from a different plan are harmless —
    /// their keys simply never match.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on read/open failures; [`JournalError::NotAJournal`]
    /// when the file exists but does not begin with a journal header (the
    /// file is left untouched in that case).
    pub fn resume(path: &Path, machine_seed: u64, trials: u32) -> Result<Journal, JournalError> {
        let io_err = |source: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        let scan = scan_records(path, &buf)?;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        if (scan.valid_end as usize) < buf.len() {
            file.set_len(scan.valid_end).map_err(io_err)?;
        }
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        // Everything on disk that a compaction would drop is already dead:
        // all records except the leading header and one per distinct key.
        let dead = scan.records.saturating_sub(1 + scan.completed.len()) as u64;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file: Some(file),
            completed: scan.completed,
            order: scan.order,
            recovery: RecoveryInfo {
                completed_cells: 0,
                truncated_bytes: buf.len() as u64 - scan.valid_end,
                orphan_intents: scan.orphan_intents,
            },
            degraded: None,
            appends: 0,
            syncs: 0,
            machine_seed,
            trials,
            dead_records: dead,
            live_intents: 0,
            #[cfg(feature = "fault-injection")]
            fail_appends_after: None,
        };
        journal.recovery.completed_cells = journal.completed.len();
        if scan.valid_end == 0 {
            journal.append_payload(&header_payload(machine_seed, trials), true);
        }
        Ok(journal)
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A stable 64-bit hash of the journal path — the `journal_hash`
    /// provenance field of reports produced through this journal.
    pub fn path_hash(&self) -> u64 {
        fnv64(self.path.to_string_lossy().as_bytes())
    }

    /// What recovery found when this journal was opened with
    /// [`Journal::resume`] (all zero for a fresh journal).
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Completed cell records currently known (recovered plus appended).
    pub fn completed_cells(&self) -> usize {
        self.completed.len()
    }

    /// Why the journal stopped persisting, if an append or a sync failed. A
    /// degraded journal keeps serving lookups; it only stops writing.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// How many times the journal has fsync'd its file since it was opened
    /// (the header of a fresh file and every completed cell each count
    /// one; an absorb counts one in all).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The completed record for `key`, if the journal holds one.
    pub fn lookup(&self, key: &CellKey) -> Option<&CellRecord> {
        self.completed.get(key)
    }

    /// Appends the write-ahead intent record for `key` (flushed, not
    /// fsync'd — an intent marks work in flight, not work to preserve).
    pub fn append_intent(&mut self, key: &CellKey) {
        let payload = format!("{{\"kind\": \"intent\", \"key\": {}}}", write_key(key));
        self.append_payload(&payload, false);
        self.live_intents += 1;
    }

    /// Appends (and fsyncs) the completed record for `key`, and makes it
    /// visible to [`Journal::lookup`].
    pub fn append_cell(&mut self, key: &CellKey, record: &CellRecord) {
        self.record_cell(key, record, true);
    }

    /// Appends the completed record for `key` — fsync'd when `sync` — and
    /// makes it visible to [`Journal::lookup`].
    fn record_cell(&mut self, key: &CellKey, record: &CellRecord, sync: bool) {
        let payload = format!(
            "{{\"kind\": \"cell\", \"key\": {}, \"cell\": {}}}",
            write_key(key),
            report::write_cell(record),
        );
        self.append_payload(&payload, sync);
        // The completion kills its write-ahead intent; overwriting an
        // existing key kills the superseded cell record.
        if self.live_intents > 0 {
            self.live_intents -= 1;
            self.dead_records += 1;
        }
        if self.completed.insert(key.clone(), record.clone()).is_some() {
            self.dead_records += 1;
        } else {
            self.order.push(key.clone());
        }
    }

    /// Records on disk that a compaction would drop: completed intents,
    /// superseded duplicate cells, and dead weight found at recovery.
    pub fn dead_records(&self) -> u64 {
        self.dead_records
    }

    /// Copies every completed cell of the journal at `other` that this
    /// journal does not already hold into this journal — cross-run reuse
    /// keyed purely by cell fingerprints. Records for other plans are
    /// harmless: their keys never match a lookup. Returns how many cells
    /// were absorbed.
    ///
    /// The copies are appended like freshly computed cells but fsync'd
    /// once, after the last one. Each is a copy of a record `other` still
    /// holds, so a crash mid-absorb loses nothing: recovery truncates the
    /// torn tail and absorbing again restores the rest. A failed sync
    /// degrades the journal, as a failed append does.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if `other` cannot be read,
    /// [`JournalError::NotAJournal`] if it is not a sweep journal. This
    /// journal is unchanged on error.
    pub fn absorb(&mut self, other: &Path) -> Result<usize, JournalError> {
        let buf = std::fs::read(other).map_err(|source| JournalError::Io {
            path: other.to_path_buf(),
            source,
        })?;
        let scan = scan_records(other, &buf)?;
        let mut absorbed = 0;
        for key in &scan.order {
            if self.completed.contains_key(key) {
                continue;
            }
            let record = scan.completed.get(key).expect("order keys are completed");
            self.record_cell(key, record, false);
            absorbed += 1;
        }
        if absorbed > 0 {
            self.sync();
        }
        Ok(absorbed)
    }

    /// Summarizes the journal file at `path` without modifying it — no
    /// truncation, no header rewrite, nothing. The torn-tail offset (if
    /// any) reports where [`Journal::resume`] would truncate.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be read,
    /// [`JournalError::NotAJournal`] if it is not a sweep journal.
    pub fn inspect(path: &Path) -> Result<InspectInfo, JournalError> {
        let buf = std::fs::read(path).map_err(|source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let scan = scan_records(path, &buf)?;
        Ok(InspectInfo {
            machine_seed: scan.header_machine_seed,
            trials: scan.header_trials,
            records: scan.records,
            cell_records: scan.cell_records,
            unique_cells: scan.completed.len(),
            intent_records: scan.intent_records,
            orphan_intents: scan.orphan_intents,
            dead_records: scan.records.saturating_sub(1 + scan.completed.len()),
            torn_tail_offset: ((scan.valid_end as usize) < buf.len()).then_some(scan.valid_end),
            file_bytes: buf.len() as u64,
        })
    }

    /// Rewrites the journal file at `path` keeping only the header and the
    /// last-write-wins record per cell key — dropping intents, superseded
    /// duplicates and any torn tail. The rewrite is atomic: a sibling
    /// temporary file is written, fsync'd, then renamed over the original,
    /// so a crash mid-compaction leaves either the old or the new journal,
    /// never a torn hybrid.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on read/write/rename failures,
    /// [`JournalError::NotAJournal`] if the file is not a sweep journal.
    pub fn compact(path: &Path) -> Result<CompactInfo, JournalError> {
        let io_err = |source: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let buf = std::fs::read(path).map_err(io_err)?;
        let scan = scan_records(path, &buf)?;
        let bytes_after = write_compacted(
            path,
            scan.header_machine_seed.unwrap_or(0),
            scan.header_trials.unwrap_or(0) as u32,
            scan.order.iter().map(|key| {
                let record = scan.completed.get(key).expect("order keys are completed");
                (key, record)
            }),
        )
        .map_err(io_err)?;
        Ok(CompactInfo {
            kept_cells: scan.completed.len(),
            dropped_records: scan.records.saturating_sub(1 + scan.completed.len()),
            bytes_before: buf.len() as u64,
            bytes_after,
        })
    }

    /// Compacts this open journal's file in place (same rewrite-and-rename
    /// as [`Journal::compact`]) and re-opens it for appending. Lookups and
    /// recovery info are unaffected. Returns `false` — without failing the
    /// run — when the journal is degraded or the rewrite fails; the old
    /// file is left as it was in that case.
    pub fn compact_in_place(&mut self) -> bool {
        if self.file.is_none() {
            return false;
        }
        let written = write_compacted(
            &self.path,
            self.machine_seed,
            self.trials,
            self.order.iter().map(|key| {
                let record = self.completed.get(key).expect("order keys are completed");
                (key, record)
            }),
        );
        if written.is_err() {
            // Compaction is an optimization: failure leaves the journal
            // usable (the original file was replaced only on success).
            return false;
        }
        let reopened = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .and_then(|mut f| f.seek(SeekFrom::End(0)).map(|_| f));
        match reopened {
            Ok(file) => {
                self.file = Some(file);
                self.dead_records = 0;
                self.live_intents = 0;
                true
            }
            Err(e) => {
                self.degrade(format!("reopen after compaction failed: {e}"));
                false
            }
        }
    }

    /// Makes every append after the next `appends` ones fail with a
    /// simulated out-of-space error, exercising the degradation path
    /// (appends are counted from journal open, header included).
    #[cfg(feature = "fault-injection")]
    pub fn fail_appends_after(&mut self, appends: u64) {
        self.fail_appends_after = Some(appends);
    }

    fn append_payload(&mut self, payload: &str, sync: bool) {
        if self.file.is_none() {
            return;
        }
        #[cfg(feature = "fault-injection")]
        if let Some(limit) = self.fail_appends_after {
            if self.appends >= limit {
                self.degrade("injected append fault: no space left on device".to_string());
                return;
            }
        }
        self.appends += 1;
        let line = frame(payload);
        let result = {
            let file = self.file.as_mut().expect("checked above");
            file.write_all(line.as_bytes()).and_then(|()| file.flush())
        };
        match result {
            Ok(()) if sync => self.sync(),
            Ok(()) => {}
            Err(e) => self.degrade(format!("append failed: {e}")),
        }
    }

    /// Fsyncs the journal file, degrading the journal if that fails.
    fn sync(&mut self) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        self.syncs += 1;
        if let Err(e) = file.sync_data() {
            self.degrade(format!("sync failed: {e}"));
        }
    }

    fn degrade(&mut self, reason: String) {
        self.file = None;
        self.degraded = Some(reason);
    }
}

/// Writes a compacted journal (header plus one record per key, in the
/// given order) to a sibling temporary file, fsyncs it, and atomically
/// renames it over `path`. Returns the compacted file's byte length.
fn write_compacted<'a>(
    path: &Path,
    machine_seed: u64,
    trials: u32,
    cells: impl Iterator<Item = (&'a CellKey, &'a CellRecord)>,
) -> std::io::Result<u64> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".compact-tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut out = String::new();
    out.push_str(&frame(&header_payload(machine_seed, trials)));
    for (key, record) in cells {
        let payload = format!(
            "{{\"kind\": \"cell\", \"key\": {}, \"cell\": {}}}",
            write_key(key),
            report::write_cell(record),
        );
        out.push_str(&frame(&payload));
    }
    let result = (|| {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(out.len() as u64)
}

/// Frames a payload as one journal record line.
fn frame(payload: &str) -> String {
    format!(
        "J1 {} {:016x} {payload}\n",
        payload.len(),
        fnv64(payload.as_bytes())
    )
}

fn header_payload(machine_seed: u64, trials: u32) -> String {
    format!(
        "{{\"kind\": \"header\", \"schema\": {}, \"machine_seed\": {machine_seed}, \"trials\": {trials}}}",
        json::write_str(JOURNAL_SCHEMA)
    )
}

fn write_key(key: &CellKey) -> String {
    let noise = match &key.noise {
        Some(label) => json::write_str(label),
        None => "null".to_string(),
    };
    format!(
        "{{\"circuit_fp\": {}, \"machine_fp\": {}, \"config_fp\": {}, \"day\": {}, \
         \"noise\": {noise}, \"sim_seed\": {}, \"trials\": {}}}",
        key.circuit_fp, key.machine_fp, key.config_fp, key.day, key.sim_seed, key.trials,
    )
}

fn parse_key(doc: &Value) -> Result<CellKey, String> {
    let int = |field: &str| {
        doc.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("key field {field:?} missing or not an unsigned integer"))
    };
    Ok(CellKey {
        circuit_fp: int("circuit_fp")?,
        machine_fp: int("machine_fp")?,
        config_fp: int("config_fp")?,
        day: int("day")? as usize,
        noise: match doc.get("noise") {
            Some(Value::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "key field \"noise\" is not a string".to_string())?
                    .to_string(),
            ),
        },
        sim_seed: int("sim_seed")?,
        trials: int("trials")? as u32,
    })
}

/// One record successfully parsed out of a journal file.
enum Record {
    Header {
        schema: Option<String>,
        machine_seed: Option<u64>,
        trials: Option<u64>,
    },
    Intent(CellKey),
    Cell(CellKey, Box<CellRecord>),
}

/// Parses one framed line (without its trailing newline).
fn parse_record(line: &[u8]) -> Result<Record, String> {
    let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
    let rest = text
        .strip_prefix("J1 ")
        .ok_or_else(|| "missing J1 record magic".to_string())?;
    let (len_text, rest) = rest
        .split_once(' ')
        .ok_or_else(|| "missing length field".to_string())?;
    let (sum_text, payload) = rest
        .split_once(' ')
        .ok_or_else(|| "missing checksum field".to_string())?;
    let length: usize = len_text
        .parse()
        .map_err(|_| format!("bad length field {len_text:?}"))?;
    if payload.len() != length {
        return Err(format!(
            "length mismatch: framed {length}, found {} (torn record)",
            payload.len()
        ));
    }
    let framed_sum = u64::from_str_radix(sum_text, 16)
        .map_err(|_| format!("bad checksum field {sum_text:?}"))?;
    let actual_sum = fnv64(payload.as_bytes());
    if framed_sum != actual_sum {
        return Err(format!(
            "checksum mismatch: framed {framed_sum:016x}, computed {actual_sum:016x}"
        ));
    }
    let doc = json::parse(payload).map_err(|e| format!("payload is not JSON: {e}"))?;
    match doc.get("kind").and_then(Value::as_str) {
        Some("header") => Ok(Record::Header {
            schema: doc
                .get("schema")
                .and_then(Value::as_str)
                .map(str::to_string),
            machine_seed: doc.get("machine_seed").and_then(Value::as_u64),
            trials: doc.get("trials").and_then(Value::as_u64),
        }),
        Some("intent") => {
            let key = doc
                .get("key")
                .ok_or_else(|| "intent has no key".to_string())?;
            Ok(Record::Intent(parse_key(key)?))
        }
        Some("cell") => {
            let key = doc
                .get("key")
                .ok_or_else(|| "cell has no key".to_string())?;
            let cell = doc
                .get("cell")
                .ok_or_else(|| "cell record has no cell body".to_string())?;
            let record = report::parse_cell(cell).map_err(|e| format!("bad cell body: {e}"))?;
            Ok(Record::Cell(parse_key(key)?, Box::new(record)))
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

struct Scan {
    completed: FxHashMap<CellKey, CellRecord>,
    /// Distinct keys in first-completion order (compaction order).
    order: Vec<CellKey>,
    valid_end: u64,
    orphan_intents: usize,
    records: usize,
    cell_records: usize,
    intent_records: usize,
    header_machine_seed: Option<u64>,
    header_trials: Option<u64>,
}

/// Scans a journal file's bytes: validates the header, loads completed
/// records, and finds the byte offset after the last valid record.
fn scan_records(path: &Path, buf: &[u8]) -> Result<Scan, JournalError> {
    let mut scan = Scan {
        completed: FxHashMap::default(),
        order: Vec::new(),
        valid_end: 0,
        orphan_intents: 0,
        records: 0,
        cell_records: 0,
        intent_records: 0,
        header_machine_seed: None,
        header_trials: None,
    };
    if buf.is_empty() {
        return Ok(scan);
    }
    let not_a_journal = |detail: String| JournalError::NotAJournal {
        path: path.to_path_buf(),
        detail,
    };
    // A non-empty file that does not even start with the record magic is
    // some other file — refuse rather than truncate it to zero.
    if !buf.starts_with(b"J1 ") {
        return Err(not_a_journal("no J1 record magic at offset 0".to_string()));
    }
    let mut intents: FxHashSet<CellKey> = FxHashSet::default();
    let mut offset = 0usize;
    let mut saw_header = false;
    while offset < buf.len() {
        let Some(newline) = buf[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn tail: no record terminator
        };
        let record = match parse_record(&buf[offset..offset + newline]) {
            Ok(record) => record,
            // A torn/corrupt record truncates from its offset. For the
            // header itself that truncates to zero: the file carries the
            // magic but no recoverable prefix, so it restarts fresh.
            Err(_) => break,
        };
        match record {
            Record::Header {
                schema,
                machine_seed,
                trials,
            } if !saw_header => match schema.as_deref() {
                Some(JOURNAL_SCHEMA) => {
                    saw_header = true;
                    scan.header_machine_seed = machine_seed;
                    scan.header_trials = trials;
                }
                Some(other) => {
                    return Err(not_a_journal(format!(
                        "unsupported journal schema {other:?} (expected {JOURNAL_SCHEMA:?})"
                    )))
                }
                None => return Err(not_a_journal("header carries no schema tag".to_string())),
            },
            Record::Header { .. } => {} // a later header is inert
            _ if !saw_header => {
                return Err(not_a_journal(
                    "first record is not a journal header".to_string(),
                ))
            }
            Record::Intent(key) => {
                scan.intent_records += 1;
                intents.insert(key);
            }
            Record::Cell(key, record) => {
                scan.cell_records += 1;
                intents.remove(&key);
                if scan.completed.insert(key.clone(), *record).is_none() {
                    scan.order.push(key); // last write wins; first-seen order
                }
            }
        }
        scan.records += 1;
        offset += newline + 1;
        scan.valid_end = offset as u64;
    }
    scan.orphan_intents = intents.len();
    Ok(scan)
}
