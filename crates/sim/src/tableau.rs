//! Bit-packed stabilizer-tableau backend for fully-Clifford programs.
//!
//! The dense engine pays `2^n` amplitudes per state pass, which walls off
//! exactly the wide benchmarks (BV64, BV128, deep GHZ ladders) where the
//! paper's scaling story gets interesting. Every one of those circuits is
//! Clifford end to end, so an Aaronson–Gottesman tableau simulates them in
//! `O(n)` 64-bit words per gate with no exponential term anywhere.
//!
//! Two layers live here:
//!
//! * [`TableauState`]: the state representation — a `2n × 2n` binary
//!   symplectic matrix (destabilizer rows `0..n`, stabilizer rows `n..2n`)
//!   plus a phase column, stored **column-major**: per program wire one
//!   `x` and one `z` bit-column over all `2n` rows, packed into `u64`
//!   words. Single-qubit Cliffords and CNOTs are then word-parallel column
//!   ops touching `O(n/64)` words per wire, and a relabeling SWAP is a
//!   permutation update with zero data movement. It implements
//!   [`SimBackend`], so the generic replay walker drives it unchanged.
//! * `TableauEngine`: the per-program trial engine. One ideal pass over
//!   the ops computes every mid-measure's deterministic outcome and reduces
//!   the terminal state to an *affine sampler* (see below); one backward
//!   pass precomputes, for every noise site, the clbit-key perturbation an
//!   `X` or `Z` injected there produces. After that, an error-free trial
//!   costs a handful of coin flips, and an error trial adds one
//!   precomputed `u128` XOR per fired Pauli component — never a state
//!   pass, and never a per-trial tableau replay unless the program has a
//!   genuinely random mid-circuit measurement (then the engine falls back
//!   to full tableau replays, which are still polynomial).
//!
//! # The affine terminal sampler
//!
//! The computational-basis support of a stabilizer state is an affine
//! subspace `s0 ⊕ span(D)` with *uniform* probability on it, where `D` is
//! the set of X-parts of the stabilizer generators. Gaussian elimination on
//! the stabilizer rows' X-parts (phase-correct row multiplication) yields
//! `k` pivot rows — the directions `D` — and `n − k` pure-Z rows, each a
//! parity constraint `v · s = r` on the support; solving the constraints
//! with free bits at zero gives `s0`. Projecting `s0` and the directions
//! through the terminal measure map onto classical bits (then reducing the
//! projected directions to a GF(2) basis, which preserves uniformity over
//! the span) turns terminal sampling into `base ⊕ (random subset of the
//! basis)` — one coin flip per basis vector.
//!
//! # Error trials as precomputed XOR masks
//!
//! Every effect a Pauli error has on the outcome key is *linear over
//! GF(2)*: symplectic conjugation through Clifford gates is linear, an `X`
//! crossing a measurement flips exactly that clbit, a `Z` crossing one
//! dies (global phase), and `P|ψ⟩` at the terminal sample merely translates
//! the support of `|ψ⟩` by `P`'s X-mask — phases never touch measurement
//! statistics. So a single backward pass over the ops suffices to tabulate,
//! per noise site and wire, the final-key image of an `X` and of a `Z`
//! injected there (`SiteMask`). An error trial is then the error-free
//! sample XOR the masks of whatever fired — `O(1)` per fired Pauli instead
//! of an `O(ops)` propagation walk.
//!
//! # Exactness
//!
//! The tableau backend is *statistically equivalent* to the dense engine —
//! same outcome distribution for every `(program, noise)` — but not
//! bit-identical draw-for-draw. It is the one engine path that matches
//! [`TrialProgram::run_trial`] only in distribution, so the test suite
//! bounds the total variation between the two at fixed seeds. Outcomes
//! remain a pure function of `(program, seed, trial)` and thread-count
//! invariant.

use crate::backend::{BackendKind, SimBackend};
use crate::clifford::{classify, Clifford1Q};
use crate::engine::TierCounts;
use crate::gates::Matrix2;
use crate::noise::Pauli;
use crate::program::{TrialEvent, TrialOp, TrialProgram};
use crate::rng::TrialRng;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::ops::Range;

/// Words per wide bit-row: 256 bits cover every compact qubit index (`u8`).
const ROW_WORDS: usize = 4;

#[inline]
fn wide_get(bits: &[u64; ROW_WORDS], q: u8) -> bool {
    bits[usize::from(q >> 6)] >> (q & 63) & 1 == 1
}

#[inline]
fn wide_toggle(bits: &mut [u64; ROW_WORDS], q: u8) {
    bits[usize::from(q >> 6)] ^= 1u64 << (q & 63);
}

/// Aaronson–Gottesman stabilizer tableau with the `(x, z) = (1, 1) ≡ Y`
/// convention, stored column-major and bit-packed (see the module docs).
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers; each row is a
/// signed Pauli `(−1)^r · P`. Program wires map to columns through a
/// relabeling permutation exactly like the dense scratch's slot map, so
/// SWAPs are free here too.
#[derive(Debug, Clone)]
pub struct TableauState {
    /// Number of qubits (columns).
    n: usize,
    /// `u64` words per bit-column (`ceil(2n / 64)`).
    words: usize,
    /// X bit-columns, `n × words`, column `c` at `x[c*words..][..words]`;
    /// bit `r` of a column is row `r`'s X component on that wire.
    x: Vec<u64>,
    /// Z bit-columns, same layout.
    z: Vec<u64>,
    /// Phase column over all `2n` rows (bit set = the row carries `−1`).
    phase: Vec<u64>,
    /// `perm[program qubit] = column`. Identity until a SWAP relabels.
    perm: Vec<u8>,
}

/// `i^k` contribution of multiplying single-qubit Paulis `(x1, z1)` (left
/// factor) onto `(x2, z2)` — the Aaronson–Gottesman `g` function under the
/// `(1, 1) ≡ Y` convention. Returns a value in `{-1, 0, 1}`.
#[inline]
fn phase_g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => i32::from(z2) - i32::from(x2),
        (true, false) => {
            if z2 {
                if x2 {
                    1
                } else {
                    -1
                }
            } else {
                0
            }
        }
        (false, true) => {
            if x2 {
                if z2 {
                    -1
                } else {
                    1
                }
            } else {
                0
            }
        }
    }
}

impl TableauState {
    /// A tableau for `n` qubits in the `|0…0⟩` state.
    pub fn new(n: usize) -> Self {
        assert!(n <= 255, "compact qubit indices are u8");
        let words = (2 * n).div_ceil(64).max(1);
        let mut state = TableauState {
            n,
            words,
            x: vec![0; n * words],
            z: vec![0; n * words],
            phase: vec![0; words],
            perm: (0..n).map(|q| q as u8).collect(),
        };
        state.reset();
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets to `|0…0⟩` (destabilizer `i` = `X_i`, stabilizer `n+i` =
    /// `Z_i`, all phases `+`) with an identity wire labeling.
    pub fn reset(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.phase.fill(0);
        for c in 0..self.n {
            self.set_x(c, c, true);
            self.set_z(c, self.n + c, true);
            self.perm[c] = c as u8;
        }
    }

    #[inline]
    fn col(&self, qubit: u8) -> usize {
        usize::from(self.perm[usize::from(qubit)])
    }

    #[inline]
    fn get_x(&self, c: usize, row: usize) -> bool {
        self.x[c * self.words + (row >> 6)] >> (row & 63) & 1 == 1
    }

    #[inline]
    fn get_z(&self, c: usize, row: usize) -> bool {
        self.z[c * self.words + (row >> 6)] >> (row & 63) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, c: usize, row: usize, bit: bool) {
        let w = &mut self.x[c * self.words + (row >> 6)];
        *w = *w & !(1u64 << (row & 63)) | u64::from(bit) << (row & 63);
    }

    #[inline]
    fn set_z(&mut self, c: usize, row: usize, bit: bool) {
        let w = &mut self.z[c * self.words + (row >> 6)];
        *w = *w & !(1u64 << (row & 63)) | u64::from(bit) << (row & 63);
    }

    #[inline]
    fn get_phase(&self, row: usize) -> bool {
        self.phase[row >> 6] >> (row & 63) & 1 == 1
    }

    #[inline]
    fn set_phase(&mut self, row: usize, bit: bool) {
        let w = &mut self.phase[row >> 6];
        *w = *w & !(1u64 << (row & 63)) | u64::from(bit) << (row & 63);
    }

    /// Applies a classified single-qubit Clifford to `qubit` — one
    /// word-parallel pass over the wire's two bit-columns: every row's
    /// `(x, z)` pair maps through the symplectic images, and its phase
    /// flips when the action's sign table says the row's Pauli picks up a
    /// `−1`.
    pub fn apply_clifford1q(&mut self, qubit: u8, action: &Clifford1Q) {
        let c = self.col(qubit);
        let base = c * self.words;
        for k in 0..self.words {
            let xw = self.x[base + k];
            let zw = self.z[base + k];
            let mut flip = 0u64;
            if action.x_sign {
                flip ^= xw & !zw;
            }
            if action.z_sign {
                flip ^= !xw & zw;
            }
            if action.y_sign {
                flip ^= xw & zw;
            }
            self.phase[k] ^= flip;
            let nx =
                (if action.x_image.0 { xw } else { 0 }) ^ (if action.z_image.0 { zw } else { 0 });
            let nz =
                (if action.x_image.1 { xw } else { 0 }) ^ (if action.z_image.1 { zw } else { 0 });
            self.x[base + k] = nx;
            self.z[base + k] = nz;
        }
    }

    /// Applies a CNOT — the standard Aaronson–Gottesman column update with
    /// the phase term `x_c z_t (x_t ⊕ z_c ⊕ 1)`, word-parallel.
    pub fn apply_cnot(&mut self, control: u8, target: u8) {
        let cc = self.col(control) * self.words;
        let ct = self.col(target) * self.words;
        for k in 0..self.words {
            let xc = self.x[cc + k];
            let zc = self.z[cc + k];
            let xt = self.x[ct + k];
            let zt = self.z[ct + k];
            self.phase[k] ^= xc & zt & !(xt ^ zc);
            self.x[ct + k] = xt ^ xc;
            self.z[cc + k] = zc ^ zt;
        }
    }

    /// Applies a Pauli to `qubit`: a pure sign update — every row that
    /// anticommutes with it on that wire flips phase.
    pub fn apply_pauli(&mut self, qubit: u8, pauli: Pauli) {
        let c = self.col(qubit) * self.words;
        for k in 0..self.words {
            let flip = match pauli {
                Pauli::I => return,
                Pauli::X => self.z[c + k],
                Pauli::Z => self.x[c + k],
                Pauli::Y => self.x[c + k] ^ self.z[c + k],
            };
            self.phase[k] ^= flip;
        }
    }

    /// Row multiplication `row_h ← row_i · row_h` with Aaronson–Gottesman
    /// phase arithmetic (the `i^k` exponent of the product must come out
    /// real). `O(n)` column-bit extractions.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut k = 2 * (i32::from(self.get_phase(h)) + i32::from(self.get_phase(i)));
        for c in 0..self.n {
            k += phase_g(
                self.get_x(c, i),
                self.get_z(c, i),
                self.get_x(c, h),
                self.get_z(c, h),
            );
        }
        let k = k.rem_euclid(4);
        debug_assert!(k == 0 || k == 2, "rowsum phase came out imaginary");
        self.set_phase(h, k == 2);
        for c in 0..self.n {
            let x = self.get_x(c, h) ^ self.get_x(c, i);
            let z = self.get_z(c, h) ^ self.get_z(c, i);
            self.set_x(c, h, x);
            self.set_z(c, h, z);
        }
    }

    /// First stabilizer row with an X component on column `c`, if any —
    /// present iff measuring that wire is random.
    fn stabilizer_x_row(&self, c: usize) -> Option<usize> {
        (self.n..2 * self.n).find(|&r| self.get_x(c, r))
    }

    /// The outcome of measuring `qubit` when it is deterministic (`None`
    /// when the outcome is random). Read-only: a deterministic measurement
    /// never changes the state.
    pub fn deterministic_outcome(&self, qubit: u8) -> Option<bool> {
        let c = self.col(qubit);
        if self.stabilizer_x_row(c).is_some() {
            return None;
        }
        // Accumulate the product of the stabilizer partners of every
        // destabilizer with an X component on the wire (the AG scratch-row
        // procedure); the product is ±Z on the wire and its sign is the
        // outcome.
        let mut acc_x = vec![false; self.n];
        let mut acc_z = vec![false; self.n];
        let mut k = 0i32;
        for i in 0..self.n {
            if !self.get_x(c, i) {
                continue;
            }
            let r = self.n + i;
            k += 2 * i32::from(self.get_phase(r));
            for cc in 0..self.n {
                let x1 = self.get_x(cc, r);
                let z1 = self.get_z(cc, r);
                k += phase_g(x1, z1, acc_x[cc], acc_z[cc]);
                acc_x[cc] ^= x1;
                acc_z[cc] ^= z1;
            }
        }
        let k = k.rem_euclid(4);
        debug_assert!(k == 0 || k == 2, "deterministic outcome came out imaginary");
        Some(k == 2)
    }

    /// Measures `qubit` in the computational basis, collapsing the state on
    /// the random branch (one 50/50 draw) and consuming no randomness on
    /// the deterministic branch.
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: u8, rng: &mut R) -> bool {
        let c = self.col(qubit);
        match self.stabilizer_x_row(c) {
            Some(p) => {
                // Random: multiply the anticommuting generator into every
                // other row carrying an X on the wire, then replace it by
                // ±Z with a fresh coin. `rowsum(i, p)` only touches row
                // `i`, so the in-order scan matches the precollected set.
                for i in 0..2 * self.n {
                    if i != p && self.get_x(c, i) {
                        self.rowsum(i, p);
                    }
                }
                let outcome = rng.gen_bool(0.5);
                let d = p - self.n;
                for cc in 0..self.n {
                    let x = self.get_x(cc, p);
                    let z = self.get_z(cc, p);
                    self.set_x(cc, d, x);
                    self.set_z(cc, d, z);
                    self.set_x(cc, p, false);
                    self.set_z(cc, p, false);
                }
                self.set_phase(d, self.get_phase(p));
                self.set_z(c, p, true);
                self.set_phase(p, outcome);
                outcome
            }
            None => self
                .deterministic_outcome(qubit)
                .expect("no stabilizer X component means deterministic"),
        }
    }
}

/// The stabilizer-tableau backend: drives the same generic replay walk as
/// the dense scratch. Only fully-Clifford programs ever reach it, so
/// `fuse_unitary` classifies each (already fused) matrix and applies its
/// symplectic action.
impl SimBackend for TableauState {
    fn fuse_unitary(&mut self, qubit: u8, matrix: &Matrix2) {
        let action =
            classify(matrix).expect("the tableau backend only receives Clifford unitaries");
        self.apply_clifford1q(qubit, &action);
    }

    fn inject_pauli(&mut self, qubit: u8, pauli: Pauli) {
        self.apply_pauli(qubit, pauli);
    }

    fn cnot(&mut self, control: u8, target: u8) {
        self.apply_cnot(control, target);
    }

    fn swap_relabel(&mut self, a: u8, b: u8) {
        self.perm.swap(usize::from(a), usize::from(b));
    }

    fn apply_kraus(&mut self, _qubit: u8, _table: &crate::program::KrausTable, _u: f64) {
        unreachable!("Kraus channels force the dense backend at lowering")
    }

    fn measure<R: Rng + ?Sized>(&mut self, qubit: u8, rng: &mut R) -> bool {
        TableauState::measure(self, qubit, rng)
    }

    fn terminal_sample<R: Rng + ?Sized>(
        &mut self,
        measures: &[(u8, u8, f64)],
        rng: &mut R,
    ) -> u128 {
        // Measuring the wires one at a time is the joint sample, and the
        // state is never used afterwards, so the collapses are free.
        let mut ideal = 0u128;
        for (i, &(qubit, _, _)) in measures.iter().enumerate() {
            if TableauState::measure(self, qubit, rng) {
                ideal |= 1u128 << i;
            }
        }
        ideal
    }
}

/// One extracted stabilizer generator in row-major, program-qubit-indexed
/// form (bit `q` of `x`/`z` is the component on program qubit `q`), used by
/// the affine-sampler Gaussian elimination.
#[derive(Debug, Clone, Copy, Default)]
struct AffineRow {
    x: [u64; ROW_WORDS],
    z: [u64; ROW_WORDS],
    r: bool,
}

impl AffineRow {
    /// `self ← other · self` with phase arithmetic (both operands are
    /// commuting stabilizer-group elements, so the product is real).
    fn mul_by(&mut self, other: &AffineRow) {
        let mut k = 2 * (i32::from(self.r) + i32::from(other.r));
        for w in 0..ROW_WORDS {
            let mut live = other.x[w] | other.z[w];
            while live != 0 {
                let b = live.trailing_zeros();
                live &= live - 1;
                k += phase_g(
                    other.x[w] >> b & 1 == 1,
                    other.z[w] >> b & 1 == 1,
                    self.x[w] >> b & 1 == 1,
                    self.z[w] >> b & 1 == 1,
                );
            }
        }
        let k = k.rem_euclid(4);
        debug_assert!(k == 0 || k == 2, "stabilizer product came out imaginary");
        self.r = k == 2;
        for w in 0..ROW_WORDS {
            self.x[w] ^= other.x[w];
            self.z[w] ^= other.z[w];
        }
    }
}

/// One mid-program measurement of a fully-Clifford program: its outcome on
/// the ideal path is deterministic (that is what makes the fast path
/// possible), so the whole point is precomputed.
#[derive(Debug, Clone, Copy)]
struct MidMeasure {
    /// Classical bit recorded.
    clbit: u8,
    /// Readout flip probability.
    p_flip: f64,
    /// The deterministic ideal outcome.
    outcome: bool,
}

/// The precomputed affine sampler of the terminal state (module docs).
#[derive(Debug, Clone)]
struct TerminalAffine {
    /// Clbit key of the base support point `s0` (flips not applied).
    base_key: u128,
    /// Independent clbit-space direction masks: XOR-ing a uniformly random
    /// subset into `base_key` samples the ideal terminal distribution.
    directions: Vec<u128>,
    /// `(qubit, clbit)` of every folded measure, deduplicated — how an
    /// error trial's X-mask projects onto the clbit key.
    bit_map: Vec<(u8, u8)>,
    /// `(clbit, p_flip)` of every folded measure with readout noise, in
    /// program order.
    flips: Vec<(u8, f64)>,
}

/// Per-noise-site error masks (module docs, "error trials"): the clbit-key
/// perturbation caused by each single-Pauli component a site can inject.
/// One-wire sites use only the `a*` pair; two-wire sites use both.
#[derive(Debug, Clone, Copy, Default)]
struct SiteMask {
    ax: u128,
    az: u128,
    bx: u128,
    bz: u128,
}

/// How the engine serves trials.
#[derive(Debug)]
enum Mode {
    /// Every mid-measure is deterministic (and the terminal clbit map is
    /// XOR-safe): trials are served by precomputed outcomes, the affine
    /// sampler and per-site error masks — no per-trial state at all.
    Fast {
        mids: Vec<MidMeasure>,
        terminal: Option<TerminalAffine>,
        masks: Vec<SiteMask>,
    },
    /// A mid-measure came out random (or the clbit map aliases qubits):
    /// every trial replays in full on a tableau via the generic walker.
    /// Still polynomial, just not constant-time per trial.
    PerTrialReplay,
}

/// A fully-Clifford [`TrialProgram`] analyzed for tableau execution: one
/// ideal tableau pass at construction, then near-constant work per trial.
/// The chunk interface mirrors [`TieredEngine`](crate::TieredEngine) so the
/// simulator drives either engine through the same partition.
#[derive(Debug)]
pub(crate) struct TableauEngine<'p> {
    program: &'p TrialProgram,
    mode: Mode,
}

impl<'p> TableauEngine<'p> {
    /// Analyzes `program` (which must be fully Clifford: its
    /// [`backend_kind`](TrialProgram::backend_kind) is `Tableau`).
    pub fn new(program: &'p TrialProgram) -> Self {
        let ops = program.ops();
        let terminal_op = match ops.last() {
            Some(TrialOp::TerminalSample { .. }) => ops.len() - 1,
            _ => ops.len(),
        };

        let mut tab = TableauState::new(program.num_qubits());
        let mut mids = Vec::new();
        for (i, op) in ops[..terminal_op].iter().enumerate() {
            match *op {
                TrialOp::Unitary { qubit, .. } => {
                    let action = program
                        .clifford_action(i)
                        .expect("tableau programs are fully Clifford");
                    tab.apply_clifford1q(qubit, &action);
                }
                TrialOp::Cnot { control, target } => tab.apply_cnot(control, target),
                TrialOp::Swap { a, b } => tab.swap_relabel(a, b),
                TrialOp::PauliSite { .. } => {}
                TrialOp::KrausChannel { .. } => {
                    unreachable!("Kraus channels force the dense backend at lowering")
                }
                TrialOp::Measure {
                    qubit,
                    clbit,
                    p_flip,
                } => match tab.deterministic_outcome(qubit) {
                    Some(outcome) => mids.push(MidMeasure {
                        clbit,
                        p_flip,
                        outcome,
                    }),
                    None => {
                        return TableauEngine {
                            program,
                            mode: Mode::PerTrialReplay,
                        }
                    }
                },
                TrialOp::TerminalSample { .. } => {
                    unreachable!("a terminal sample is always the last op")
                }
            }
        }

        let terminal = match ops.get(terminal_op) {
            Some(TrialOp::TerminalSample { measures }) => {
                match build_affine(&tab, measures, program.num_qubits()) {
                    Some(affine) => Some(affine),
                    // Aliased clbits (two qubits feeding one bit) make the
                    // projection non-linear; take the exact slow path.
                    None => {
                        return TableauEngine {
                            program,
                            mode: Mode::PerTrialReplay,
                        }
                    }
                }
            }
            _ => None,
        };

        let masks = build_site_masks(program, terminal.as_ref());
        TableauEngine {
            program,
            mode: Mode::Fast {
                mids,
                terminal,
                masks,
            },
        }
    }

    /// Simulates the `trials` of the stream derived from `seed`,
    /// accumulating bit-packed outcome counts and tier occupancy — the
    /// tableau counterpart of [`TieredEngine::run_chunk`](crate::TieredEngine::run_chunk).
    /// Error-free trials count as `error_free`, masked error trials as
    /// `pauli_prop`, and slow-path replays as `full_replay`.
    pub fn run_chunk(
        &self,
        seed: u64,
        trials: Range<u32>,
        counts: &mut FxHashMap<u128, u32>,
        tiers: &mut TierCounts,
    ) {
        tiers.backend = BackendKind::Tableau;
        let program = self.program;
        let mut draw: Vec<TrialEvent> = Vec::with_capacity(program.noise_sites().len());
        match &self.mode {
            Mode::PerTrialReplay => {
                let mut tab = TableauState::new(program.num_qubits());
                for t in trials {
                    let mut rng = TrialRng::new(seed, t);
                    let _ = program.pre_sample(&mut draw, &mut rng);
                    tab.reset();
                    let key = program.replay_from(&mut tab, 0, &draw, &mut rng);
                    *counts.entry(key).or_insert(0) += 1;
                    tiers.full_replay += 1;
                }
            }
            Mode::Fast {
                mids,
                terminal,
                masks,
            } => {
                for t in trials {
                    let mut rng = TrialRng::new(seed, t);
                    let key = match program.pre_sample(&mut draw, &mut rng) {
                        None => {
                            tiers.error_free += 1;
                            self.error_free_trial(mids, terminal.as_ref(), &mut rng)
                        }
                        Some((s, _)) => {
                            tiers.pauli_prop += 1;
                            let delta = error_delta(s as usize, &draw, masks);
                            self.error_free_trial(mids, terminal.as_ref(), &mut rng) ^ delta
                        }
                    };
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
    }

    /// An error-free trial: precomputed mid-measure outcomes (plus their
    /// readout-flip draws, in op order) and one affine terminal sample.
    fn error_free_trial<R: Rng + ?Sized>(
        &self,
        mids: &[MidMeasure],
        terminal: Option<&TerminalAffine>,
        rng: &mut R,
    ) -> u128 {
        let mut clbits = 0u128;
        for m in mids {
            let mut bit = m.outcome;
            if m.p_flip > 0.0 && rng.gen_bool(m.p_flip) {
                bit = !bit;
            }
            if bit {
                clbits |= 1u128 << m.clbit;
            }
        }
        if let Some(t) = terminal {
            clbits |= sample_affine(t, rng);
        }
        clbits
    }
}

/// The key perturbation of one error draw: XOR of the fired Pauli
/// components' precomputed site masks. Consumes no randomness, so an error
/// trial is draw-for-draw identical to an error-free one — `error_delta`
/// then shifts its key.
fn error_delta(first_site: usize, events: &[TrialEvent], masks: &[SiteMask]) -> u128 {
    let mut delta = 0u128;
    for (&event, mask) in events[first_site..].iter().zip(&masks[first_site..]) {
        if event == TrialEvent::CLEAN {
            continue;
        }
        let TrialEvent(pa, pb) = event;
        for (pauli, x_mask, z_mask) in [(pa, mask.ax, mask.az), (pb, mask.bx, mask.bz)] {
            let (x, z) = pauli.symplectic();
            if x {
                delta ^= x_mask;
            }
            if z {
                delta ^= z_mask;
            }
        }
    }
    delta
}

/// Tabulates every noise site's [`SiteMask`] with one backward pass over
/// the ops, maintaining per wire the final-key image of an `X` / `Z`
/// inserted at the current program point (module docs, "error trials").
fn build_site_masks(program: &TrialProgram, terminal: Option<&TerminalAffine>) -> Vec<SiteMask> {
    let n = program.num_qubits();
    let mut mask_x = vec![0u128; n];
    let mut mask_z = vec![0u128; n];
    let mut masks = vec![SiteMask::default(); program.noise_sites().len()];
    let mut site = masks.len();
    for (i, op) in program.ops().iter().enumerate().rev() {
        match *op {
            TrialOp::TerminalSample { .. } => {
                let t = terminal.expect("terminal plan built from the terminal op");
                // An X on wire `q` translates the support, flipping the
                // sampled bit on q's (deduplicated) clbit; a Z is phase.
                for &(q, c) in &t.bit_map {
                    mask_x[usize::from(q)] ^= 1u128 << c;
                }
            }
            TrialOp::Measure { qubit, clbit, .. } => {
                // An X crossing the measurement flips its clbit and
                // persists onto the post-measure state; a Z dies there.
                let q = usize::from(qubit);
                mask_x[q] ^= 1u128 << clbit;
                mask_z[q] = 0;
            }
            TrialOp::Unitary { qubit, .. } => {
                let action = program
                    .clifford_action(i)
                    .expect("tableau programs are fully Clifford");
                // P before U equals (U P U†) after U; signs don't matter.
                let q = usize::from(qubit);
                let (xx, xz) = action.conjugate(true, false);
                let (zx, zz) = action.conjugate(false, true);
                let nx = (if xx { mask_x[q] } else { 0 }) ^ (if xz { mask_z[q] } else { 0 });
                let nz = (if zx { mask_x[q] } else { 0 }) ^ (if zz { mask_z[q] } else { 0 });
                mask_x[q] = nx;
                mask_z[q] = nz;
            }
            TrialOp::Cnot { control, target } => {
                // X_c ↦ X_c X_t and Z_t ↦ Z_c Z_t; X_t, Z_c are fixed.
                mask_x[usize::from(control)] ^= mask_x[usize::from(target)];
                mask_z[usize::from(target)] ^= mask_z[usize::from(control)];
            }
            TrialOp::Swap { a, b } => {
                mask_x.swap(usize::from(a), usize::from(b));
                mask_z.swap(usize::from(a), usize::from(b));
            }
            TrialOp::PauliSite { a, b } => {
                site -= 1;
                let (bx, bz) =
                    b.map_or((0, 0), |b| (mask_x[usize::from(b)], mask_z[usize::from(b)]));
                masks[site] = SiteMask {
                    ax: mask_x[usize::from(a)],
                    az: mask_z[usize::from(a)],
                    bx,
                    bz,
                };
            }
            TrialOp::KrausChannel { .. } => {
                unreachable!("Kraus channels force the dense backend at lowering")
            }
        }
    }
    debug_assert_eq!(site, 0, "every noise site visited");
    masks
}

/// Draws one terminal outcome key: `base ⊕ (random subset of the
/// direction basis)`, then the readout-flip gates in program order.
fn sample_affine<R: Rng + ?Sized>(t: &TerminalAffine, rng: &mut R) -> u128 {
    let mut key = t.base_key;
    for &d in &t.directions {
        if rng.gen_bool(0.5) {
            key ^= d;
        }
    }
    for &(clbit, p_flip) in &t.flips {
        if rng.gen_bool(p_flip) {
            key ^= 1u128 << clbit;
        }
    }
    key
}

/// Projects a program-qubit-space bit mask onto the clbit key through a
/// deduplicated `(qubit, clbit)` map.
fn project(mask: &[u64; ROW_WORDS], bit_map: &[(u8, u8)]) -> u128 {
    let mut key = 0u128;
    for &(q, c) in bit_map {
        if wide_get(mask, q) {
            key ^= 1u128 << c;
        }
    }
    key
}

/// Reduces the terminal state to the affine sampler (module docs). Returns
/// `None` when the clbit map aliases two qubits onto one bit — the XOR
/// projection would be unsound, so the engine falls back to per-trial
/// replay.
fn build_affine(
    tab: &TableauState,
    measures: &[(u8, u8, f64)],
    n: usize,
) -> Option<TerminalAffine> {
    // Deduplicate the measure map: a re-measured wire contributes one
    // projection term (XOR of a duplicate would cancel it), and two
    // *different* wires feeding one clbit break linearity entirely.
    let mut owner = [u8::MAX; 128];
    let mut bit_map: Vec<(u8, u8)> = Vec::with_capacity(measures.len());
    for &(q, c, _) in measures {
        let slot = &mut owner[usize::from(c)];
        if *slot == u8::MAX {
            *slot = q;
            bit_map.push((q, c));
        } else if *slot != q {
            return None;
        }
    }

    // Extract the stabilizer generators into row-major, program-qubit-
    // indexed form (undoing the relabeling permutation).
    let mut rows: Vec<AffineRow> = (n..2 * n)
        .map(|r| {
            let mut row = AffineRow {
                r: tab.get_phase(r),
                ..AffineRow::default()
            };
            for q in 0..n {
                let c = tab.col(q as u8);
                if tab.get_x(c, r) {
                    wide_toggle(&mut row.x, q as u8);
                }
                if tab.get_z(c, r) {
                    wide_toggle(&mut row.z, q as u8);
                }
            }
            row
        })
        .collect();

    // Gaussian elimination on the X-parts: pivot rows become the support
    // directions, the rest degenerate to pure-Z parity constraints.
    let mut pivot_rows = 0usize;
    for q in 0..n {
        let q8 = q as u8;
        let Some(j) = (pivot_rows..rows.len()).find(|&j| wide_get(&rows[j].x, q8)) else {
            continue;
        };
        rows.swap(pivot_rows, j);
        let pivot = rows[pivot_rows];
        for (k, row) in rows.iter_mut().enumerate() {
            if k != pivot_rows && wide_get(&row.x, q8) {
                row.mul_by(&pivot);
            }
        }
        pivot_rows += 1;
    }

    // Solve the pure-Z constraints `v · s = r` for a base support point,
    // free bits at zero. Run the RREF to completion *before* reading any
    // phase: a row's `r` keeps changing while later pivot columns are being
    // eliminated from it.
    let constraints = &mut rows[pivot_rows..];
    let mut pivot_col = vec![u8::MAX; constraints.len()];
    let mut crow = 0usize;
    for q in 0..n {
        let q8 = q as u8;
        let Some(j) = (crow..constraints.len()).find(|&j| wide_get(&constraints[j].z, q8)) else {
            continue;
        };
        constraints.swap(crow, j);
        let pivot_z = constraints[crow].z;
        let pivot_r = constraints[crow].r;
        for (k, row) in constraints.iter_mut().enumerate() {
            if k != crow && wide_get(&row.z, q8) {
                for (zw, &pw) in row.z.iter_mut().zip(pivot_z.iter()) {
                    *zw ^= pw;
                }
                row.r ^= pivot_r;
            }
        }
        pivot_col[crow] = q8;
        crow += 1;
    }
    let mut s0 = [0u64; ROW_WORDS];
    for (j, row) in constraints[..crow].iter().enumerate() {
        if row.r {
            wide_toggle(&mut s0, pivot_col[j]);
        }
    }
    debug_assert!(
        constraints[crow..].iter().all(|row| !row.r),
        "inconsistent stabilizer constraints"
    );

    // Project the directions onto clbit space and reduce them to an
    // independent GF(2) basis (uniform over the span is preserved for any
    // generating set, so coin-per-basis-vector sampling stays uniform).
    let mut slots = [0u128; 128];
    for row in &rows[..pivot_rows] {
        let mut d = project(&row.x, &bit_map);
        while d != 0 {
            let lead = 127 - d.leading_zeros() as usize;
            if slots[lead] == 0 {
                slots[lead] = d;
                break;
            }
            d ^= slots[lead];
        }
    }
    let directions: Vec<u128> = slots.iter().copied().filter(|&m| m != 0).collect();

    let flips = measures
        .iter()
        .filter(|&&(_, _, p_flip)| p_flip > 0.0)
        .map(|&(_, clbit, p_flip)| (clbit, p_flip))
        .collect();

    Some(TerminalAffine {
        base_key: project(&s0, &bit_map),
        directions,
        bit_map,
        flips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::single_qubit_matrix;
    use nisq_ir::GateKind;

    fn action_of(kind: GateKind) -> Clifford1Q {
        classify(&single_qubit_matrix(kind)).expect("Clifford gate")
    }

    #[test]
    fn fresh_state_measures_all_zeros_deterministically() {
        let tab = TableauState::new(5);
        for q in 0..5 {
            assert_eq!(tab.deterministic_outcome(q), Some(false));
        }
    }

    #[test]
    fn x_flips_a_deterministic_outcome() {
        let mut tab = TableauState::new(3);
        tab.apply_clifford1q(1, &action_of(GateKind::X));
        assert_eq!(tab.deterministic_outcome(0), Some(false));
        assert_eq!(tab.deterministic_outcome(1), Some(true));
        assert_eq!(tab.deterministic_outcome(2), Some(false));
    }

    #[test]
    fn hadamard_makes_the_outcome_random_and_collapse_sticks() {
        let mut tab = TableauState::new(2);
        tab.apply_clifford1q(0, &action_of(GateKind::H));
        assert_eq!(tab.deterministic_outcome(0), None);
        let mut rng = TrialRng::new(7, 0);
        let outcome = tab.measure(0, &mut rng);
        // After the collapse the wire is classical again.
        assert_eq!(tab.deterministic_outcome(0), Some(outcome));
    }

    #[test]
    fn ghz_outcomes_are_perfectly_correlated() {
        // H(0); CNOT(0,1); CNOT(1,2): terminal outcomes are 000 or 111.
        for trial in 0..32 {
            let mut tab = TableauState::new(3);
            tab.apply_clifford1q(0, &action_of(GateKind::H));
            tab.apply_cnot(0, 1);
            tab.apply_cnot(1, 2);
            let mut rng = TrialRng::new(11, trial);
            let measures = [(0u8, 0u8, 0.0), (1, 1, 0.0), (2, 2, 0.0)];
            let ideal = SimBackend::terminal_sample(&mut tab, &measures, &mut rng);
            assert!(ideal == 0 || ideal == 0b111, "got {ideal:b}");
        }
    }

    #[test]
    fn s_gate_phase_tracking_matches_y_convention() {
        // S X S† = Y, S Y S† = −X: prepare |+⟩, apply S twice (= Z), and
        // the wire must measure deterministically in X-basis terms — here
        // verified through the stabilizer phases: Z|+⟩ = |−⟩, so H then Z
        // then H equals X, flipping the outcome.
        let mut tab = TableauState::new(1);
        let h = action_of(GateKind::H);
        let s = action_of(GateKind::S);
        tab.apply_clifford1q(0, &h);
        tab.apply_clifford1q(0, &s);
        tab.apply_clifford1q(0, &s);
        tab.apply_clifford1q(0, &h);
        assert_eq!(tab.deterministic_outcome(0), Some(true));
    }

    #[test]
    fn pauli_injection_flips_support() {
        let mut tab = TableauState::new(2);
        tab.apply_pauli(0, Pauli::X);
        assert_eq!(tab.deterministic_outcome(0), Some(true));
        tab.apply_pauli(0, Pauli::Y);
        assert_eq!(tab.deterministic_outcome(0), Some(false));
        // Z never moves the support.
        tab.apply_pauli(1, Pauli::Z);
        assert_eq!(tab.deterministic_outcome(1), Some(false));
    }

    #[test]
    fn relabeling_swap_moves_the_wire() {
        let mut tab = TableauState::new(2);
        tab.apply_clifford1q(0, &action_of(GateKind::X));
        tab.swap_relabel(0, 1);
        assert_eq!(tab.deterministic_outcome(0), Some(false));
        assert_eq!(tab.deterministic_outcome(1), Some(true));
    }

    #[test]
    fn checkpoint_roundtrip_preserves_state() {
        let mut tab = TableauState::new(4);
        tab.apply_clifford1q(0, &action_of(GateKind::H));
        tab.apply_cnot(0, 2);
        tab.swap_relabel(1, 3);
        let saved = tab.clone();
        let mut rng = TrialRng::new(3, 1);
        let outcome = tab.measure(0, &mut rng);
        assert_eq!(tab.deterministic_outcome(2), Some(outcome));
        tab = saved;
        assert_eq!(tab.deterministic_outcome(2), None);
    }

    #[test]
    fn tableau_scales_past_the_dense_wall() {
        // 132 qubits — far beyond any 2^n representation. A GHZ ladder
        // across all wires still samples in microseconds.
        let n = 132;
        let mut tab = TableauState::new(n);
        tab.apply_clifford1q(0, &classify(&single_qubit_matrix(GateKind::H)).unwrap());
        for q in 0..(n - 1) as u8 {
            tab.apply_cnot(q, q + 1);
        }
        // Classical keys cap at 128 bits; measure a 120-wire subset.
        let measures: Vec<(u8, u8, f64)> = (0..120u8).map(|q| (q, q, 0.0)).collect();
        let mut rng = TrialRng::new(5, 0);
        let ideal = SimBackend::terminal_sample(&mut tab, &measures, &mut rng);
        let all_ones = (1u128 << 120) - 1;
        assert!(ideal == 0 || ideal == all_ones, "got {ideal:b}");
    }
}
