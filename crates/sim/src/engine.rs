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
//! # The terminal memo
//!
//! A trial whose *only* error fires after the program's last mid-circuit
//! measure, and whose measure draws stay on the dominant path, reaches the
//! terminal sample in a state fixed by that one error: the shared prefix up
//! to the error's site, the drawn Pauli pair, then the ideal suffix. So each
//! worker keeps a [`TerminalMemo`] for the program it runs, keyed by
//! `(noise site, pair)`. The first such trial replays from the shared
//! prefix up to the terminal op and stores the flushed state's terminal
//! CDF, built by tier 1's canonical traversal; every later trial with the
//! same error draws its outcome from that CDF with tier 1's sampler. A CDF
//! draw is draw-for-draw the replay's terminal sample (the identity tier 1
//! rests on), so memo-served outcomes are bit-identical too.
//!
//! The memo lives for one
//! [`Simulator::run_program_with_stats`](crate::Simulator::run_program_with_stats)
//! call on one worker: no lock, no sharing. So does the worker's
//! [`EngineScratch`], the state vectors and event buffers its chunks
//! reuse: a run leaves no memory behind on the thread that made it, however
//! long that thread lives (the serve daemon's worker thread runs every
//! request). The memo holds a fixed budget of CDF entries; a miss whose CDF
//! might not fit replays as if there were no memo and stores nothing, which
//! keeps wide programs (CDFs of thousands of entries) at their replay cost. Kraus programs, programs without a
//! terminal sample, errors at or before a mid-circuit measure, trials with
//! more than one error and diverged trials never touch it.
//!
//! Tiers classify a trial by where its first error fires, not by the work
//! spent on it: a memo-served trial counts as checkpointed (or full replay
//! when its site is op 0), exactly where its replay would have. Memo hits
//! are not counted at all: which trials hit depends on which worker pulled
//! which chunk, and every count the engine reports is independent of the
//! thread count.
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
use std::ops::Range;

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
    /// Tier-2 trials: the first error fires after op 0, or a mid-measure
    /// draw left the dominant path. Tiers classify a trial by where its
    /// first error fires, not by the work spent on it: most of these resume
    /// from a shared checkpoint (first-error prefix or divergence
    /// fallback), and single-error trials the terminal memo serves count
    /// here too.
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

/// The shared terminal plan of a program ending in one
/// [`TrialOp::TerminalSample`].
#[derive(Debug, Clone)]
struct TerminalPlan<'p> {
    /// `(qubit, clbit, p_flip)` of every folded measure, in program order.
    measures: &'p [(u8, u8, f64)],
    /// The CDF of the ideal final state, sampled by tier 1.
    ideal: Vec<CdfEntry>,
    /// `(clbit, p_flip)` of every folded measure with a non-zero flip
    /// probability, in program order.
    flips: Vec<(u8, f64)>,
}

impl TerminalPlan<'_> {
    /// Draws a terminal outcome from `cdf` (the ideal CDF or a memoized
    /// one), then the readout flips in measure order: exactly the draws a
    /// replay's terminal op makes on the state `cdf` was built from.
    fn sample<R: Rng + ?Sized>(&self, cdf: &[CdfEntry], rng: &mut R) -> u128 {
        let mut key = cdf[sample_cdf_index(cdf, rng)].key;
        for &(clbit, p_flip) in &self.flips {
            if rng.gen_bool(p_flip) {
                key ^= 1u128 << clbit;
            }
        }
        key
    }
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
    /// `None` when the program has no terminal sample (every classical bit
    /// came from the measure ladder, or it measures nothing) or has Kraus
    /// channels.
    terminal: Option<TerminalPlan<'p>>,
    /// Index of the first noise site the terminal memo serves: the first
    /// site after the last mid-circuit measure, or the number of sites
    /// when there is no terminal plan.
    memo_sites_from: usize,
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
                terminal: None,
                memo_sites_from: program.noise_sites().len(),
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
                let mut ideal = Vec::new();
                build_terminal_cdf(&scratch, measures, &mut ideal);
                let flips = measures
                    .iter()
                    .filter(|&&(_, _, p_flip)| p_flip > 0.0)
                    .map(|&(_, clbit, p_flip)| (clbit, p_flip))
                    .collect();
                Some(TerminalPlan {
                    measures,
                    ideal,
                    flips,
                })
            }
            _ => None,
        };
        let sites = program.noise_sites();
        let memo_sites_from = match (&terminal, measures.last()) {
            (None, _) => sites.len(),
            (Some(_), None) => 0,
            (Some(_), Some(last)) => sites.partition_point(|&site| site < last.op),
        };

        TieredEngine {
            program,
            measures,
            checkpoints,
            terminal_op,
            terminal,
            memo_sites_from,
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
        self.terminal
            .as_ref()
            .map_or(0, |terminal| terminal.sample(&terminal.ideal, rng))
    }

    /// Serves a memoizable trial that stayed on the dominant path, whose
    /// only error is `events[site]`, from `memo`. On a miss the
    /// trial replays from the shared prefix up to the terminal op, drawing
    /// nothing (no measure lies in between), and the flushed state's
    /// terminal CDF is stored. Either way the outcome is one draw from that
    /// CDF plus the readout flips. Returns `None`, having drawn nothing,
    /// when the CDF is not stored and might not fit the budget.
    fn sample_memoized<R: Rng + ?Sized>(
        &self,
        memo: &mut TerminalMemo,
        prefix: &mut PrefixWalker<'_>,
        trial: &mut TrialScratch,
        site: usize,
        events: &[TrialEvent],
        rng: &mut R,
    ) -> Option<u128> {
        let terminal = self.terminal.as_ref()?;
        let slot = 16 * site + usize::from(events[site].pair());
        let cdf = match memo.cached(slot) {
            Some(cdf) => cdf,
            // A CDF has at most one entry per basis state.
            None if memo.has_room(1 << self.program.num_qubits()) => {
                let resume_op = self.program.noise_sites()[site] as usize;
                trial.copy_from(prefix.advance_to(self, resume_op));
                self.program
                    .replay_range(trial, resume_op, self.terminal_op, &events[site..], rng);
                trial.flush_terminal(terminal.measures);
                memo.store(slot, trial, terminal.measures)
            }
            None => return None,
        };
        Some(terminal.sample(&memo.arena[cdf], rng))
    }

    /// Restores `trial` to the divergence fallback: the checkpoint before
    /// measure `k`, collapsed onto the drawn off-dominant `outcome`.
    fn restore_diverged(&self, trial: &mut TrialScratch, k: usize, outcome: bool) {
        let m = &self.measures[k];
        trial.copy_from(&self.checkpoints[k]);
        trial.collapse_measured(m.qubit, outcome, m.p1);
    }

    /// Simulates the `trials` of the stream derived from `seed`,
    /// accumulating bit-packed outcome counts into `counts` and tier
    /// occupancy into `tiers`. `scratch`, built for this program, provides
    /// every buffer the batch needs; it is reused across calls without
    /// reallocation. `memo` is the calling worker's terminal memo for this
    /// program (see the module docs), carried from chunk to chunk.
    ///
    /// Outcomes are bit-identical to running [`TrialProgram::run_trial`]
    /// per trial, for any chunking and whatever the memo holds: the outcome
    /// of a trial is a pure function of `(program, seed, trial index)`.
    pub fn run_chunk(
        &self,
        seed: u64,
        trials: Range<u32>,
        scratch: &mut EngineScratch,
        memo: &mut TerminalMemo,
        counts: &mut FxHashMap<u128, u32>,
        tiers: &mut TierCounts,
    ) {
        let program = self.program;
        let sites = program.noise_sites();
        tiers.backend = BackendKind::Dense;
        let EngineScratch {
            trial,
            prefix,
            draw,
            arena,
            queue,
        } = scratch;

        // Kraus programs have no shared structure to exploit (every
        // channel application depends on the trial's own state), so every
        // trial is a tier-3 full replay: pre-sample the Pauli-channel
        // pattern, then walk the whole program.
        if program.has_kraus() {
            for t in trials {
                let mut rng = TrialRng::new(seed, t);
                let _ = program.pre_sample(draw, &mut rng);
                trial.reset();
                let key = program.replay_from(trial, 0, draw, &mut rng);
                *counts.entry(key).or_insert(0) += 1;
                tiers.full_replay += 1;
            }
            return;
        }
        if self.memo_sites_from < sites.len() {
            memo.prepare(sites.len());
        }

        // Phase 1: pre-sample every trial's error pattern (no state work).
        // Error-free trials resolve immediately — through the tier-1 plan
        // when their measure draws stay on the dominant path, from a
        // divergence checkpoint otherwise. Error trials queue for
        // checkpointed replay, carrying their events and RNG position.
        for t in trials {
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
                Some((first, last)) => {
                    let events_start = arena.len();
                    arena.extend_from_slice(draw);
                    queue.push(PendingTrial {
                        site: first,
                        memoizable: first == last && first as usize >= self.memo_sites_from,
                        events_start: events_start as u32,
                        rng,
                    });
                }
            }
        }

        // Phase 2: serve the queued trials in first-error order. A trial
        // that stays on the dominant path and whose only error the memo
        // serves draws from the memo; any other resumes from the shared
        // prefix at its first error, or from the divergence checkpoint.
        queue.sort_by_key(|t| t.site);
        prefix.reset();
        let mut prefix = PrefixWalker {
            state: prefix,
            pos: 0,
            measure: 0,
        };
        for pending in queue.drain(..) {
            let site = pending.site as usize;
            let resume_op = sites[site] as usize;
            let mut rng = pending.rng;
            // One full event list per queued trial (one entry per noise
            // site) lives at the trial's arena offset.
            let events_start = pending.events_start as usize;
            let events = &arena[events_start..events_start + sites.len()];
            // The trial's own draws for the measures before its first error.
            let walk = self.walk_measures(resume_op, &mut rng);
            let key = match walk.diverged {
                Some((k, outcome)) => {
                    self.restore_diverged(trial, k, outcome);
                    let resume = self.measures[k].op as usize + 1;
                    program.replay_from(
                        trial,
                        resume,
                        &events[self.site_index_at(resume)..],
                        &mut rng,
                    )
                }
                None => pending
                    .memoizable
                    .then(|| self.sample_memoized(memo, &mut prefix, trial, site, events, &mut rng))
                    .flatten()
                    .unwrap_or_else(|| {
                        trial.copy_from(prefix.advance_to(self, resume_op));
                        program.replay_from(trial, resume_op, &events[site..], &mut rng)
                    }),
            };
            let key = walk.clbits | key;
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

/// Appends to `cdf` the canonical-order terminal CDF of a scratch whose
/// measured qubits are already flushed — the exact probability sequence the
/// replay's terminal sampler scans, with runs of adjacent states sharing a
/// clbit key merged (the scan outcome is unchanged).
fn build_terminal_cdf(scratch: &TrialScratch, measures: &[(u8, u8, f64)], cdf: &mut Vec<CdfEntry>) {
    let start = cdf.len();
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
            match cdf[start..].last_mut() {
                Some(last) if last.key == key => last.cum = cum,
                _ => cdf.push(CdfEntry { cum, key }),
            }
        });
}

/// The most CDF entries one [`TerminalMemo`] holds: 1 MiB at 32 bytes an
/// entry. The dense Table-1 programs (2 to 5 qubits, CDFs of at most 32
/// entries) never come near it.
const MEMO_BUDGET: usize = 1 << 15;

/// A worker's terminal CDFs of single-error trials, keyed by the error (see
/// the module docs). Create one per program run with
/// [`TerminalMemo::default`] and pass it to every chunk the worker runs of
/// that program: its keys name that program's noise sites, so it must not
/// serve another.
#[derive(Debug, Default)]
pub struct TerminalMemo {
    /// `slots[16 · site + pair]`: the `arena` range holding the terminal
    /// CDF of a trial whose only error is `pair` at noise site `site`;
    /// empty until a miss stores it.
    slots: Vec<(u32, u32)>,
    /// Every stored CDF, back to back.
    arena: Vec<CdfEntry>,
}

impl TerminalMemo {
    /// Sizes the slot table for a program of `sites` noise sites on first
    /// use.
    fn prepare(&mut self, sites: usize) {
        if self.slots.is_empty() {
            self.slots.resize(16 * sites, (0, 0));
        }
        debug_assert_eq!(self.slots.len(), 16 * sites, "a memo serves one program");
    }

    /// The arena range of the CDF stored at `slot`, if any.
    fn cached(&self, slot: usize) -> Option<Range<usize>> {
        let (start, end) = self.slots[slot];
        (start < end).then_some(start as usize..end as usize)
    }

    /// Whether a CDF of up to `entries` entries still fits the budget.
    fn has_room(&self, entries: usize) -> bool {
        self.arena.len() + entries <= MEMO_BUDGET
    }

    /// Builds the terminal CDF of `scratch` (measured qubits flushed) into
    /// the arena, stores it at `slot` and returns its range.
    fn store(
        &mut self,
        slot: usize,
        scratch: &TrialScratch,
        measures: &[(u8, u8, f64)],
    ) -> Range<usize> {
        let start = self.arena.len();
        build_terminal_cdf(scratch, measures, &mut self.arena);
        self.slots[slot] = (start as u32, self.arena.len() as u32);
        start..self.arena.len()
    }
}

/// A chunk's shared dominant-path walker: the ideal prefix state, the op it
/// has reached and the next measure point ahead of it. It only moves
/// forward, collapsing each measure it crosses onto the dominant outcome,
/// so each program op is evolved at most once per chunk however many
/// trials resume behind it.
struct PrefixWalker<'s> {
    state: &'s mut TrialScratch,
    pos: usize,
    measure: usize,
}

impl PrefixWalker<'_> {
    /// Advances the walker to `op` (which must not lie behind it) and
    /// returns the prefix state there.
    fn advance_to(&mut self, engine: &TieredEngine<'_>, op: usize) -> &TrialScratch {
        let program = engine.program;
        while let Some(m) = engine.measures.get(self.measure) {
            if m.op as usize >= op {
                break;
            }
            program.advance_ideal(self.state, self.pos, m.op as usize);
            self.state.flush(m.qubit);
            self.state.collapse_measured(m.qubit, m.dominant, m.p1);
            self.pos = m.op as usize + 1;
            self.measure += 1;
        }
        if op > self.pos {
            program.advance_ideal(self.state, self.pos, op);
            self.pos = op;
        }
        self.state
    }
}

/// A queued error trial: its first fired noise site, whether the terminal
/// memo serves it (that site is its only error and lies after the last
/// mid-circuit measure), its pre-drawn events (an offset into the chunk's
/// event arena), and its RNG positioned after the pre-sampling draws.
#[derive(Debug)]
struct PendingTrial {
    site: u32,
    memoizable: bool,
    events_start: u32,
    rng: TrialRng,
}

/// Every reusable buffer a batch needs: the replay scratch, the shared
/// dominant-path walker, the pre-sample draw buffer, the event arena and
/// the pending-trial queue. Like the [`TerminalMemo`], it serves one
/// program: each worker of a
/// [`Simulator::run_program_with_stats`](crate::Simulator::run_program_with_stats)
/// call builds one next to its memo and reuses it for every chunk it
/// pulls, and it goes with the call. Nothing outlives the run, so a
/// long-lived caller such as the serve daemon holds no state-vector memory
/// between runs.
#[derive(Debug)]
pub struct EngineScratch {
    trial: TrialScratch,
    prefix: TrialScratch,
    draw: Vec<TrialEvent>,
    arena: Vec<TrialEvent>,
    queue: Vec<PendingTrial>,
}

impl EngineScratch {
    /// Empty buffers sized for `program`'s trials.
    pub fn new(program: &TrialProgram) -> Self {
        EngineScratch {
            trial: program.make_scratch(),
            prefix: program.make_scratch(),
            draw: Vec::new(),
            arena: Vec::new(),
            queue: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseModel;
    use nisq_core::{Compiler, CompilerConfig};
    use nisq_ir::{Benchmark, Circuit, Qubit};
    use nisq_machine::Machine;
    use rustc_hash::FxHashSet;

    /// Runs `trials` trials of `program` chunk by chunk through one engine,
    /// scratch and memo — one worker of a 1-thread run — and checks the
    /// counts against a [`TrialProgram::run_trial`] loop.
    fn run_one_worker(program: &TrialProgram, seed: u64, trials: u32) -> TerminalMemo {
        let engine = TieredEngine::new(program);
        let mut scratch = EngineScratch::new(program);
        let mut memo = TerminalMemo::default();
        let mut counts = FxHashMap::default();
        let mut tiers = TierCounts::default();
        for start in (0..trials).step_by(256) {
            let end = (start + 256).min(trials);
            let chunk = start..end;
            engine.run_chunk(
                seed,
                chunk,
                &mut scratch,
                &mut memo,
                &mut counts,
                &mut tiers,
            );
        }
        let mut reference = FxHashMap::default();
        let mut trial = program.make_scratch();
        for t in 0..trials {
            let key = program.run_trial(&mut trial, &mut TrialRng::new(seed, t));
            *reference.entry(key).or_insert(0) += 1;
        }
        assert_eq!(counts, reference, "the engine left the reference replay");
        assert_eq!(tiers.total(), u64::from(trials));
        memo
    }

    /// The `(site, pair)` keys of every single-error trial.
    fn single_errors(program: &TrialProgram, seed: u64, trials: u32) -> (u32, FxHashSet<usize>) {
        let mut events = Vec::new();
        let mut keys = FxHashSet::default();
        let mut count = 0;
        for t in 0..trials {
            if let Some((first, last)) =
                program.pre_sample(&mut events, &mut TrialRng::new(seed, t))
            {
                if first == last {
                    count += 1;
                    keys.insert(16 * first as usize + usize::from(events[first as usize].pair()));
                }
            }
        }
        (count, keys)
    }

    fn stored(memo: &TerminalMemo) -> FxHashSet<usize> {
        (0..memo.slots.len())
            .filter(|&slot| memo.cached(slot).is_some())
            .collect()
    }

    #[test]
    fn terminal_memo_serves_repeated_single_errors() {
        let m = Machine::ibmq16_on_day(2019, 0);
        let compiled = Compiler::new(&m, CompilerConfig::r_smt_star(0.5))
            .compile(&Benchmark::Toffoli.circuit())
            .unwrap();
        let program = TrialProgram::lower(compiled.physical_circuit(), &m, &NoiseModel::full());
        let engine = TieredEngine::new(&program);
        // No mid-circuit measure: every single-error trial qualifies.
        assert!(engine.measures.is_empty() && engine.memo_sites_from == 0);
        let memo = run_one_worker(&program, 7, 8192);
        let (single, keys) = single_errors(&program, 7, 8192);
        // One CDF per distinct error, stored by its first trial; every
        // later trial with that error was served from the memo.
        assert_eq!(stored(&memo), keys);
        assert!(keys.len() <= 15 * program.noise_sites().len());
        assert!(
            single as usize > 2 * keys.len(),
            "{single} single-error trials, {} distinct",
            keys.len()
        );
        assert!(memo.arena.len() <= MEMO_BUDGET);
    }

    #[test]
    fn terminal_memo_stops_storing_at_its_budget() {
        // 13 qubits: a terminal CDF may hold 2^13 entries, so the budget
        // admits four before misses replay without storing.
        let qubits = 13;
        let mut c = Circuit::new(qubits);
        for q in 0..qubits {
            c.h(Qubit(q)).t(Qubit(q));
        }
        for q in 0..qubits - 1 {
            c.cnot(Qubit(q), Qubit(q + 1));
        }
        for q in 0..qubits {
            c.h(Qubit(q));
        }
        c.measure_all();
        let m = Machine::ibmq16_on_day(2019, 0);
        let program = TrialProgram::lower(&c, &m, &NoiseModel::cnot_and_readout_only());
        let memo = run_one_worker(&program, 3, 384);
        let (_, keys) = single_errors(&program, 3, 384);
        let stored = stored(&memo);
        assert!(!stored.is_empty() && stored.len() < keys.len());
        assert!(stored.is_subset(&keys));
        assert!(memo.arena.len() <= MEMO_BUDGET);
    }
}
