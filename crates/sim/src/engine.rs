//! The three-tier dense trial engine.
//!
//! At the paper's calibration-derived error rates, most trials sample *no*
//! error anywhere — yet a naive simulator still pays a full state-vector
//! evolution per trial. The engine classifies every trial by its
//! pre-sampled error pattern ([`TrialProgram::pre_sample`]) before touching
//! any state, then serves it from the cheapest tier:
//!
//! * **Tier 1 — error-free**: the trial's terminal outcome is drawn from a
//!   precomputed CDF over the *ideal* final state (one shared ideal
//!   evolution per program); per trial the cost is the error draws, the
//!   mid-measure Bernoullis against precomputed probabilities, one uniform
//!   draw binary-searched into the CDF, and the readout-flip draws.
//!   Aggregated over a batch this is exactly a multinomial sample of the
//!   ideal outcome distribution, yet it remains bit-identical to replaying
//!   each trial because the CDF is built by the same canonical traversal
//!   the replay's terminal sampler uses.
//! * **Tier 2 — checkpointed**: a trial whose first error fires at op `k`
//!   resumes from a shared ideal-prefix snapshot advanced lazily to `k`
//!   (trials are processed in first-error order, so the walker only ever
//!   moves forward), replaying just the suffix.
//! * **Tier 3 — full replay**: trials whose first error fires before any
//!   prefix exists (op 0) replay from scratch — the old cost, now paid
//!   only by the trials that need it.
//!
//! Every tier is **bit-identical** to the single-trial reference path
//! ([`TrialProgram::run_trial`]): same draws, same FP operations, same
//! outcomes. (The stabilizer-tableau backend, which serves fully-Clifford
//! programs instead, matches the reference in distribution only; see
//! [`crate::tableau`].)
//!
//! # Mid-circuit measurement: the dominant-outcome path
//!
//! A mid-circuit measurement injects per-trial randomness into the state
//! itself, so no single shared prefix can cross it. The engine walks the
//! *dominant-outcome* path instead: at each measure point it precomputes
//! the outcome probability on the shared path, keeps a fallback checkpoint
//! of the pre-measure state, collapses onto the likelier outcome, and
//! continues. A trial draws its measure outcomes against the precomputed
//! probabilities (the exact draws a replay would make); as long as it
//! stays on the dominant path it keeps riding the shared states, and the
//! moment it diverges it falls back to the checkpoint before that measure
//! and replays the rest.
//!
//! Determinism: every stochastic draw of a trial comes from its own
//! counter-based [`TrialRng`] stream in a fixed order (error pattern
//! first, then measurement/readout draws in replay order), so outcomes are
//! a pure function of `(program, seed, trial)` — independent of tier
//! assignment, batch partitioning and thread count.

use crate::backend::BackendKind;
use crate::program::{TrialEvent, TrialOp, TrialProgram, TrialScratch};
use crate::rng::TrialRng;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::cell::RefCell;

/// How many trials of a batch each tier served. The four tier fields
/// partition the batch's trial count; merging counts across batches is
/// plain addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Which backend served the batch. Batches are merged per program, and
    /// a program has exactly one backend, so merging keeps the tag as-is.
    pub backend: BackendKind,
    /// Tier-1 trials: no error anywhere and every mid-measure on the
    /// dominant path; outcome drawn from the ideal terminal distribution
    /// with no state work at all.
    pub error_free: u64,
    /// Tableau error trials: the error-free sample shifted by the fired
    /// Paulis' precomputed outcome masks, with no per-trial tableau. Always
    /// 0 on the dense engine.
    pub pauli_prop: u64,
    /// Tier-2 trials: resumed from a shared checkpoint (first-error prefix
    /// or a mid-measure divergence fallback).
    pub checkpointed: u64,
    /// Tier-3 trials: replayed from the initial state.
    pub full_replay: u64,
}

impl TierCounts {
    /// Total trials across every tier.
    pub fn total(&self) -> u64 {
        self.error_free + self.pauli_prop + self.checkpointed + self.full_replay
    }

    /// Accumulates another batch's counts. An empty accumulator adopts the
    /// other side's backend tag (batches are merged per program, so every
    /// non-empty operand carries the same tag).
    pub fn merge(&mut self, other: &TierCounts) {
        if self.total() == 0 {
            self.backend = other.backend;
        }
        self.error_free += other.error_free;
        self.pauli_prop += other.pauli_prop;
        self.checkpointed += other.checkpointed;
        self.full_replay += other.full_replay;
    }
}

/// One entry of the terminal CDF: cumulative probability up to and
/// including a run of canonical basis states that share a packed clbit key.
#[derive(Debug, Clone, Copy)]
struct CdfEntry {
    cum: f64,
    key: u128,
}

/// How tier 1 resolves the terminal op of an on-dominant-path trial.
#[derive(Debug, Clone)]
enum TerminalPlan {
    /// The program ends in one [`TrialOp::TerminalSample`]: sample the
    /// precomputed CDF, then draw the readout flips in measure order.
    Sample {
        cdf: Vec<CdfEntry>,
        /// `(clbit, p_flip)` of every folded measure with a non-zero flip
        /// probability, in program order.
        flips: Vec<(u8, f64)>,
    },
    /// No terminal sample: every classical bit was produced by the measure
    /// ladder (or the program measures nothing).
    None,
}

/// One mid-program measure point on the shared dominant path.
#[derive(Debug, Clone, Copy)]
struct MeasurePoint {
    /// Op index of the [`TrialOp::Measure`].
    op: u32,
    /// Program qubit measured.
    qubit: u8,
    /// Classical bit recorded.
    clbit: u8,
    /// Readout flip probability.
    p_flip: f64,
    /// Probability of outcome 1 on the dominant path (clamped to `[0, 1]`
    /// exactly as [`crate::StateVector::measure`] does).
    p1: f64,
    /// The dominant outcome the shared path collapses onto.
    dominant: bool,
}

/// Result of drawing a trial's measure outcomes along the dominant path.
struct MeasureWalk {
    /// Clbits recorded by the walked measures (post-flip).
    clbits: u128,
    /// First measure whose outcome left the dominant path, with the drawn
    /// (pre-flip) outcome.
    diverged: Option<(usize, bool)>,
}

/// A [`TrialProgram`] analyzed for tiered execution: the dominant-path
/// measure ladder with fallback checkpoints and the shared terminal plan.
/// Build once per program via [`TieredEngine::new`], then run batches
/// through [`TieredEngine::run_chunk`].
#[derive(Debug)]
pub struct TieredEngine<'p> {
    program: &'p TrialProgram,
    /// Mid-program measure points, in op order.
    measures: Vec<MeasurePoint>,
    /// The pre-measure state of each measure point (measured qubit
    /// flushed): the fallback checkpoint when a trial's outcome diverges
    /// from the dominant path.
    checkpoints: Vec<TrialScratch>,
    /// Op index of the trailing [`TrialOp::TerminalSample`], or `ops.len()`
    /// when there is none.
    terminal_op: usize,
    terminal: TerminalPlan,
}

impl<'p> TieredEngine<'p> {
    /// Analyzes `program`: walks the shared dominant path once (collapsing
    /// every mid-measure onto its likelier outcome, snapshotting fallback
    /// checkpoints) and precomputes the shared terminal plan from the
    /// path's final state.
    pub fn new(program: &'p TrialProgram) -> Self {
        let ops = program.ops();
        let terminal_op = match ops.last() {
            Some(TrialOp::TerminalSample { .. }) => ops.len() - 1,
            _ => ops.len(),
        };

        // A program with general Kraus channels has no shared ideal path:
        // every channel application is state-dependent, so there is no
        // dominant-path walk, no checkpoints and no terminal CDF — every
        // trial replays in full (tier 3).
        if program.has_kraus() {
            return TieredEngine {
                program,
                measures: Vec::new(),
                checkpoints: Vec::new(),
                terminal_op,
                terminal: TerminalPlan::None,
            };
        }

        let mut walker = program.make_scratch();
        walker.reset();
        let mut measures = Vec::new();
        let mut checkpoints = Vec::new();
        let mut pos = 0usize;
        for (i, op) in ops[..terminal_op].iter().enumerate() {
            let &TrialOp::Measure {
                qubit,
                clbit,
                p_flip,
            } = op
            else {
                continue;
            };
            program.advance_ideal(&mut walker, pos, i);
            let p1 = walker.flush_and_p1(qubit).clamp(0.0, 1.0);
            // Snapshot before the collapse: the fallback for trials whose
            // drawn outcome leaves the dominant path.
            checkpoints.push(walker.clone());
            let dominant = p1 >= 0.5;
            walker.collapse_measured(qubit, dominant, p1);
            measures.push(MeasurePoint {
                op: i as u32,
                qubit,
                clbit,
                p_flip,
                p1,
                dominant,
            });
            pos = i + 1;
        }
        program.advance_ideal(&mut walker, pos, terminal_op);

        let terminal = match ops.get(terminal_op) {
            Some(TrialOp::TerminalSample { measures }) => {
                // Mirror the replay exactly: flush the measured qubits,
                // then accumulate probabilities in canonical order. Runs of
                // adjacent entries sharing a key merge (the scan outcome is
                // unchanged), which collapses classical-output programs to
                // a single entry.
                let mut scratch = walker;
                scratch.flush_terminal(measures);
                let cdf = build_terminal_cdf(&scratch, measures);
                let flips = measures
                    .iter()
                    .filter(|&&(_, _, p_flip)| p_flip > 0.0)
                    .map(|&(_, clbit, p_flip)| (clbit, p_flip))
                    .collect();
                TerminalPlan::Sample { cdf, flips }
            }
            _ => TerminalPlan::None,
        };

        TieredEngine {
            program,
            measures,
            checkpoints,
            terminal_op,
            terminal,
        }
    }

    /// Number of noise sites at ops before `op` — the offset into a
    /// trial's event list where a replay starting at `op` begins consuming.
    fn site_index_at(&self, op: usize) -> usize {
        self.program
            .noise_sites()
            .partition_point(|&site| (site as usize) < op)
    }

    /// Draws a trial's outcomes for every measure point before `limit_op`,
    /// exactly as a replay would (Bernoulli on the dominant-path
    /// probability, then the readout flip), stopping at the first outcome
    /// that leaves the dominant path.
    fn walk_measures<R: Rng + ?Sized>(&self, limit_op: usize, rng: &mut R) -> MeasureWalk {
        let mut clbits = 0u128;
        for (k, m) in self.measures.iter().enumerate() {
            if m.op as usize >= limit_op {
                break;
            }
            let outcome = rng.gen_bool(m.p1);
            let mut bit = outcome;
            if m.p_flip > 0.0 && rng.gen_bool(m.p_flip) {
                bit = !bit;
            }
            if bit {
                clbits |= 1u128 << m.clbit;
            }
            if outcome != m.dominant {
                return MeasureWalk {
                    clbits,
                    diverged: Some((k, outcome)),
                };
            }
        }
        MeasureWalk {
            clbits,
            diverged: None,
        }
    }

    /// Resolves the terminal op for an on-dominant-path, error-free trial,
    /// consuming exactly the draws a full replay's terminal op would.
    fn sample_terminal<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        match &self.terminal {
            TerminalPlan::Sample { cdf, flips } => {
                let mut key = cdf[sample_cdf_index(cdf, rng)].key;
                for &(clbit, p_flip) in flips {
                    if rng.gen_bool(p_flip) {
                        key ^= 1u128 << clbit;
                    }
                }
                key
            }
            TerminalPlan::None => 0,
        }
    }

    /// Restores `trial` to the divergence fallback: the checkpoint before
    /// measure `k`, collapsed onto the drawn off-dominant `outcome`.
    fn restore_diverged(&self, trial: &mut TrialScratch, k: usize, outcome: bool) {
        let m = &self.measures[k];
        trial.copy_from(&self.checkpoints[k]);
        trial.collapse_measured(m.qubit, outcome, m.p1);
    }

    /// Simulates trials `[start, end)` of the stream derived from `seed`,
    /// accumulating bit-packed outcome counts into `counts` and tier
    /// occupancy into `tiers`. `scratch` provides every buffer the batch
    /// needs; it is reused across calls without reallocation.
    ///
    /// Outcomes are bit-identical to running [`TrialProgram::run_trial`]
    /// per trial, for any chunking: the outcome of a trial is a pure
    /// function of `(program, seed, trial index)`.
    pub fn run_chunk(
        &self,
        seed: u64,
        start: u32,
        end: u32,
        scratch: &mut EngineScratch,
        counts: &mut FxHashMap<u128, u32>,
        tiers: &mut TierCounts,
    ) {
        let program = self.program;
        let sites = program.noise_sites();
        tiers.backend = BackendKind::Dense;
        scratch.prepare(program);
        let EngineScratch {
            trial,
            prefix,
            draw,
            arena,
            queue,
        } = scratch;
        let trial = trial.as_mut().expect("prepared above");
        let prefix = prefix.as_mut().expect("prepared above");

        // Kraus programs have no shared structure to exploit (every
        // channel application depends on the trial's own state), so every
        // trial is a tier-3 full replay: pre-sample the Pauli-channel
        // pattern, then walk the whole program.
        if program.has_kraus() {
            for t in start..end {
                let mut rng = TrialRng::new(seed, t);
                let _ = program.pre_sample(draw, &mut rng);
                trial.reset();
                let key = program.replay_from(trial, 0, draw, &mut rng);
                *counts.entry(key).or_insert(0) += 1;
                tiers.full_replay += 1;
            }
            return;
        }

        // Phase 1: pre-sample every trial's error pattern (no state work).
        // Error-free trials resolve immediately — through the tier-1 plan
        // when their measure draws stay on the dominant path, from a
        // divergence checkpoint otherwise. Error trials queue for
        // checkpointed replay, carrying their events and RNG position.
        for t in start..end {
            let mut rng = TrialRng::new(seed, t);
            match program.pre_sample(draw, &mut rng) {
                None => {
                    let walk = self.walk_measures(self.terminal_op, &mut rng);
                    match walk.diverged {
                        None => {
                            let key = walk.clbits | self.sample_terminal(&mut rng);
                            *counts.entry(key).or_insert(0) += 1;
                            tiers.error_free += 1;
                        }
                        Some((k, outcome)) => {
                            self.restore_diverged(trial, k, outcome);
                            let resume = self.measures[k].op as usize + 1;
                            let key = walk.clbits
                                | program.replay_from(
                                    trial,
                                    resume,
                                    &draw[self.site_index_at(resume)..],
                                    &mut rng,
                                );
                            *counts.entry(key).or_insert(0) += 1;
                            tiers.checkpointed += 1;
                        }
                    }
                }
                Some(s) => {
                    let events_start = arena.len();
                    arena.extend_from_slice(draw);
                    queue.push(PendingTrial {
                        resume_op: sites[s as usize],
                        events_start: events_start as u32,
                        rng,
                    });
                }
            }
        }

        // Phase 2: replay the queued trials in first-error order, advancing
        // the shared dominant-path walker monotonically (collapsing each
        // crossed measure onto its dominant outcome) so each program op is
        // evolved at most once per chunk regardless of how many trials
        // resume behind it.
        queue.sort_by_key(|t| t.resume_op);
        prefix.reset();
        let mut prefix_pos = 0usize;
        let mut prefix_measure = 0usize;
        for pending in queue.drain(..) {
            let resume_op = pending.resume_op as usize;
            while prefix_measure < self.measures.len()
                && (self.measures[prefix_measure].op as usize) < resume_op
            {
                let m = &self.measures[prefix_measure];
                program.advance_ideal(prefix, prefix_pos, m.op as usize);
                prefix.flush(m.qubit);
                prefix.collapse_measured(m.qubit, m.dominant, m.p1);
                prefix_pos = m.op as usize + 1;
                prefix_measure += 1;
            }
            if resume_op > prefix_pos {
                program.advance_ideal(prefix, prefix_pos, resume_op);
                prefix_pos = resume_op;
            }

            let mut rng = pending.rng;
            // One full event list per queued trial (one entry per noise
            // site) lives at the trial's arena offset.
            let events_start = pending.events_start as usize;
            let events = &arena[events_start..events_start + sites.len()];
            // The trial's own draws for the measures the walker crossed.
            let walk = self.walk_measures(resume_op, &mut rng);
            let resume = match walk.diverged {
                None => {
                    trial.copy_from(prefix);
                    resume_op
                }
                Some((k, outcome)) => {
                    self.restore_diverged(trial, k, outcome);
                    self.measures[k].op as usize + 1
                }
            };
            let key = walk.clbits
                | program.replay_from(
                    trial,
                    resume,
                    &events[self.site_index_at(resume)..],
                    &mut rng,
                );
            *counts.entry(key).or_insert(0) += 1;
            if resume_op > 0 || walk.diverged.is_some() {
                tiers.checkpointed += 1;
            } else {
                tiers.full_replay += 1;
            }
        }
        arena.clear();
    }
}

/// Binary-searches a terminal CDF with one uniform draw — identical to the
/// replay's linear scan, including the trailing-remainder fallback.
fn sample_cdf_index<R: Rng + ?Sized>(cdf: &[CdfEntry], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|e| e.cum <= u).min(cdf.len() - 1)
}

/// Accumulates the canonical-order terminal CDF of a scratch whose measured
/// qubits are already flushed — the exact probability sequence the replay's
/// terminal sampler scans, with runs of adjacent states sharing a clbit key
/// merged (the scan outcome is unchanged).
fn build_terminal_cdf(scratch: &TrialScratch, measures: &[(u8, u8, f64)]) -> Vec<CdfEntry> {
    let mut cdf: Vec<CdfEntry> = Vec::new();
    let mut cum = 0.0;
    scratch
        .state()
        .for_each_canonical_probability(scratch.perm(), |c, p| {
            cum += p;
            let mut key = 0u128;
            for &(qubit, clbit, _) in measures {
                if c >> qubit & 1 == 1 {
                    key |= 1u128 << clbit;
                }
            }
            match cdf.last_mut() {
                Some(last) if last.key == key => last.cum = cum,
                _ => cdf.push(CdfEntry { cum, key }),
            }
        });
    cdf
}

/// A queued tier-2/3 trial: where its replay resumes, its pre-drawn events
/// (an offset into the chunk's event arena), and its RNG positioned after
/// the pre-sampling draws.
#[derive(Debug)]
struct PendingTrial {
    resume_op: u32,
    events_start: u32,
    rng: TrialRng,
}

/// Every reusable buffer a batch needs: the replay scratch, the shared
/// dominant-path walker, the pre-sample draw buffer, the event arena and
/// the pending-trial queue. Each worker thread holds one, reached through
/// [`with_engine_scratch`], so the chunks and cells one call hands a
/// worker — of programs of any width — reuse one allocation. Scoped
/// workers end with their call; the calling thread, itself a worker, keeps
/// its scratch across calls.
#[derive(Debug, Default)]
pub struct EngineScratch {
    trial: Option<TrialScratch>,
    prefix: Option<TrialScratch>,
    draw: Vec<TrialEvent>,
    arena: Vec<TrialEvent>,
    queue: Vec<PendingTrial>,
}

impl EngineScratch {
    fn prepare(&mut self, program: &TrialProgram) {
        let n = program.num_qubits();
        for slot in [&mut self.trial, &mut self.prefix] {
            match slot {
                Some(s) => s.ensure(n),
                None => *slot = Some(program.make_scratch()),
            }
        }
        self.draw.clear();
        self.arena.clear();
        self.queue.clear();
    }
}

thread_local! {
    /// The calling worker's engine scratch, shared by every chunk it runs:
    /// the "reuse scratch and checkpoint buffers instead of per-chunk
    /// reallocation" half of the engine's memory story.
    static ENGINE_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
}

/// Runs `f` with the calling worker's reusable [`EngineScratch`].
pub fn with_engine_scratch<R>(f: impl FnOnce(&mut EngineScratch) -> R) -> R {
    ENGINE_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}
