//! Compile-once, replay-many trial programs.
//!
//! The figures of the paper are driven by 8192 noisy trials per executable,
//! and the naive per-trial loop pays for work that never changes between
//! trials: re-expanding SWAPs, re-compacting qubit indices, hashing
//! `EdgeId`s into calibration `BTreeMap`s for every gate, and re-deriving
//! dephasing probabilities from T2 times. [`TrialProgram::lower`] performs
//! all of that exactly once, producing a flat [`TrialOp`] array with
//! pre-resolved compact qubit indices and pre-fetched error probabilities —
//! the per-trial replay does zero hashing, zero calibration lookups and
//! zero allocation.
//!
//! Lowering also *fuses* consecutive single-qubit gates on a qubit into one
//! 2×2 matrix whenever no noise-injection point separates them (always in
//! ideal mode; between CNOTs under the paper's CNOT+readout-only model), so
//! a run of `h, t, h, s` costs one strided pass instead of four.
//!
//! # Two-phase trials: pre-sampled error patterns
//!
//! A trial splits into two phases that consume one RNG stream in a fixed
//! order:
//!
//! 1. **Pre-sampling** ([`TrialProgram::pre_sample`]): every Pauli noise
//!    site of the program ([`TrialOp::PauliSite`]) draws its Pauli pair
//!    from the fixed distribution lowering computed for it — built-in
//!    depolarizing composed with dephasing, a bound spec channel, or one of
//!    a SWAP's three internal CNOTs — *without touching the state*, in
//!    program order, into a flat [`TrialEvent`] buffer. The index of the
//!    first site that fired (if any) is returned.
//! 2. **Replay** ([`TrialProgram::replay_from`]): the state evolution
//!    replays the ops, injecting the pre-drawn events instead of drawing,
//!    and only then consumes measurement/readout draws.
//!
//! Because phase 1 never touches the state, the tiered engine
//! ([`crate::engine`]) can classify trials by their first error site before
//! doing any state work: error-free trials skip evolution entirely, and
//! trials whose first error occurs deep in the program resume from a shared
//! ideal-prefix checkpoint. Each of those shortcuts makes the same draws and
//! floating-point operations as [`TrialProgram::run_trial`], so the dense
//! engine's outcomes equal that reference trial for trial.
//!
//! Determinism contract: a trial's outcome is a pure function of
//! `(program, base_seed, trial_index)`. Replay order inside a trial is the
//! op order fixed at lowering time, every random draw comes from the
//! trial's own seeded RNG stream, and terminal sampling traverses basis
//! states in *canonical* (program-qubit) order so relabeling SWAPs cannot
//! perturb draws — so results are bit-for-bit reproducible for a seed and
//! invariant under how trials are distributed over threads.

use crate::backend::{BackendKind, SimBackend};
use crate::clifford::{self, Clifford1Q};
use crate::complex::Complex;
use crate::gates::{single_qubit_matrix, Matrix2};
use crate::noise::{NoiseModel, Pauli};
use crate::rng::TrialRng;
use crate::state::StateVector;
use nisq_ir::{Circuit, GateKind};
use nisq_machine::{Calibration, HwQubit, Machine};
use nisq_noise::{Binding, ChannelShape, GateSel, NoiseSpec};
use rand::Rng;

/// Default CNOT duration (timeslots) when an edge has no calibration entry,
/// matching the fallback of the pre-program simulator.
const DEFAULT_CNOT_SLOTS: u32 = 4;

/// One instruction of a lowered trial program. Qubit operands are compact
/// indices into the trial's [`StateVector`]; probabilities are pre-fetched
/// from calibration data at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOp {
    /// A (possibly fused) single-qubit unitary.
    Unitary {
        /// Compact qubit index.
        qubit: u8,
        /// The 2×2 matrix, product of every fused gate.
        matrix: Matrix2,
    },
    /// A CNOT between two compact qubits.
    Cnot {
        /// Compact control index.
        control: u8,
        /// Compact target index.
        target: u8,
    },
    /// A SWAP between two compact qubits, physically three back-to-back
    /// CNOTs on the edge. Its unitary part is a basis permutation, so the
    /// replay realizes it by relabeling qubit indices — zero state passes.
    /// A noisy SWAP is followed by three [`TrialOp::PauliSite`]s on
    /// `(a, b)`, one per internal CNOT, whose pairs are pre-conjugated onto
    /// the SWAP's output wires.
    Swap {
        /// First compact qubit.
        a: u8,
        /// Second compact qubit.
        b: u8,
    },
    /// A Pauli noise site: with the site's firing probability, one
    /// non-identity Pauli pair drawn from its fixed distribution is
    /// injected on `a` (and `b`). Every Pauli-diagonal channel lowers to
    /// these sites — the built-in calibration noise after each gate
    /// (depolarizing composed with dephasing over the gate's duration) and
    /// a [`NoiseSpec`]'s Pauli bindings alike — so they are pre-sampled,
    /// keep the fast tiers and keep the tableau backend. The distribution
    /// lives in the program's site table, parallel to
    /// [`TrialProgram::noise_sites`].
    PauliSite {
        /// Compact qubit receiving the pair's first Pauli.
        a: u8,
        /// Compact qubit receiving the second Pauli; `None` for one-wire
        /// sites, whose second Pauli is always the identity.
        b: Option<u8>,
    },
    /// A state-dependent (non-Pauli) channel bound by a [`NoiseSpec`]:
    /// amplitude damping or a general Kraus channel. Branch probabilities
    /// depend on the live amplitudes, so the op cannot be pre-sampled — the
    /// program is forced onto the dense backend and every trial replays in
    /// full. `table` indexes [`TrialProgram::kraus_tables`]; when the
    /// channel follows a single-qubit gate, the gate's fused unitary is
    /// baked into the table's branch operators and no separate `Unitary`
    /// op is emitted for it.
    KrausChannel {
        /// Compact qubit index.
        qubit: u8,
        /// Index into the program's deduplicated Kraus tables.
        table: u16,
    },
    /// Measurement of a qubit into a classical bit, with a pre-fetched
    /// readout flip probability (zero when readout noise is disabled).
    Measure {
        /// Compact qubit index.
        qubit: u8,
        /// Classical bit index (bit position in the packed outcome).
        clbit: u8,
        /// Probability the classical result is flipped.
        p_flip: f64,
    },
    /// The trailing run of measurements of the program (no further gates
    /// act on any qubit). The joint outcome of all of them is sampled from
    /// the uncollapsed state in one cumulative pass — equivalent in
    /// distribution to measuring one qubit at a time, at a fraction of the
    /// cost.
    TerminalSample {
        /// `(qubit, clbit, p_flip)` of each folded measurement, in program
        /// order.
        measures: Vec<(u8, u8, f64)>,
    },
}

/// The precomputed operators of one [`TrialOp::KrausChannel`] site: the
/// branch operators `A_k` (the channel's Kraus operators, with the
/// preceding fused gate unitary baked in when the channel follows a gate)
/// plus the entries of each Gram matrix `G_k = A_k† A_k` needed to evaluate
/// the branch probability `p_k = ⟨ψ|G_k|ψ⟩` from the qubit's reduced
/// density matrix. Tables are deduplicated at lowering: sites with
/// bit-identical operator lists — same gate, same channel, same resolved
/// rate — share one table.
#[derive(Debug, Clone, PartialEq)]
pub struct KrausTable {
    /// Branch operators `A_k` (row-major 2×2, not individually unitary).
    pub ops: Vec<Matrix2>,
    /// Per-branch Gram entries `(g00, g01, g11)` of `G_k = A_k† A_k`
    /// (the diagonal is real; `g10 = conj(g01)`).
    pub grams: Vec<(f64, Complex, f64)>,
}

impl KrausTable {
    fn new(ops: Vec<Matrix2>) -> Self {
        let grams = ops
            .iter()
            .map(|a| {
                // G = A†A with row-major a: g_ij = Σ_m conj(a[2m+i]) a[2m+j].
                let g00 = (a[0].conj() * a[0] + a[2].conj() * a[2]).re;
                let g01 = a[0].conj() * a[1] + a[2].conj() * a[3];
                let g11 = (a[1].conj() * a[1] + a[3].conj() * a[3]).re;
                (g00, g01, g11)
            })
            .collect();
        KrausTable { ops, grams }
    }
}

/// One pre-sampled outcome of a [`TrialOp::PauliSite`]: the Paulis it
/// injects on the site's wires `a` and `b` (the second is `I` on one-wire
/// sites). Produced by [`TrialProgram::pre_sample`] and consumed by
/// [`TrialProgram::replay_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEvent(pub Pauli, pub Pauli);

impl TrialEvent {
    /// The outcome of a site that did not fire.
    pub const CLEAN: TrialEvent = TrialEvent(Pauli::I, Pauli::I);

    /// The pair with index `4·a + b` (Paulis ordered I, X, Y, Z).
    fn from_pair(pair: u8) -> Self {
        TrialEvent(
            Pauli::from_index(usize::from(pair >> 2)),
            Pauli::from_index(usize::from(pair & 3)),
        )
    }

    /// The pair index `4·a + b` of the event (inverse of `from_pair`): 0
    /// for [`TrialEvent::CLEAN`], 1..=15 for an error.
    pub(crate) fn pair(self) -> u8 {
        (self.0 as u8) << 2 | self.1 as u8
    }

    /// Whether the event perturbs the state.
    pub fn is_error(&self) -> bool {
        *self != TrialEvent::CLEAN
    }
}

/// The fixed Pauli-pair distribution of one [`TrialOp::PauliSite`],
/// computed once at lowering.
///
/// Pairs are indexed `4·a + b` with Paulis ordered I, X, Y, Z. In that
/// order the XOR of two indices is the index of the pair product up to
/// phase, so independent channels on a site compose by XOR convolution of
/// their 16-entry distributions (index 0 is the identity).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SiteDist {
    /// Probability the site injects a non-identity pair.
    p_fire: f64,
    /// `cdf[k]` = P(slot ≤ k | fired). Slot `k` is pair `k + 1` of the
    /// frame the distribution was drawn in; every slot from the last one
    /// with positive probability on holds exactly 1.
    cdf: [f64; 15],
    /// The pair index each slot injects on the site's wires `(a, b)`: the
    /// slot's own pair, or for a SWAP's CNOT sites that pair conjugated
    /// through the SWAP's later CNOTs ([`SWAP_MAPS`]).
    pairs: [u8; 15],
}

impl SiteDist {
    /// The site drawing from the 16-entry pair distribution `dist`, or
    /// `None` when it can never fire.
    fn new(dist: &[f64; 16]) -> Option<Self> {
        let p_fire: f64 = dist[1..].iter().sum();
        let last = (1..16).rev().find(|&k| dist[k] > 0.0)?;
        let mut cdf = [1.0; 15];
        let mut acc = 0.0;
        for k in 1..last {
            acc += dist[k];
            cdf[k - 1] = acc / p_fire;
        }
        Some(SiteDist {
            p_fire: p_fire.min(1.0),
            cdf,
            pairs: std::array::from_fn(|k| k as u8 + 1),
        })
    }

    /// The same distribution with every slot's pair sent through `map`.
    fn mapped(mut self, map: &[u8; 16]) -> Self {
        for pair in &mut self.pairs {
            *pair = map[usize::from(*pair)];
        }
        self
    }

    /// Draws the pair of a site known to have fired: one uniform against
    /// the CDF.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> TrialEvent {
        let u: f64 = rng.gen();
        TrialEvent::from_pair(self.pairs[self.cdf.partition_point(|&c| c <= u)])
    }
}

/// Single-qubit depolarizing with probability `p` on wire `a`.
fn one_qubit_depolarizing(p: f64) -> [f64; 16] {
    let mut dist = [0.0; 16];
    dist[0] = 1.0 - p;
    for pauli in 1..4 {
        dist[4 * pauli] = p / 3.0;
    }
    dist
}

/// Two-qubit depolarizing with probability `p`: uniform over the 15
/// non-identity pairs.
fn two_qubit_depolarizing(p: f64) -> [f64; 16] {
    let mut dist = [p / 15.0; 16];
    dist[0] = 1.0 - p;
    dist
}

/// Pair index of a Z on wire `a` and of a Z on wire `b`.
const Z_ON_A: usize = 12;
const Z_ON_B: usize = 3;

/// Composes `dist` with an independent Z (pair index `z`) of probability
/// `q`: the XOR convolution with the two-point distribution `{I: 1-q, z: q}`.
fn dephase(dist: &mut [f64; 16], z: usize, q: f64) {
    if q > 0.0 {
        let d = *dist;
        for (k, slot) in dist.iter_mut().enumerate() {
            *slot = (1.0 - q) * d[k] + q * d[k ^ z];
        }
    }
}

/// The pair index `4·a + b` conjugated through a CNOT whose control is
/// wire `a` (`a_controls`) or wire `b`: X spreads from control to target,
/// Z from target to control.
const fn conjugate_cnot(pair: usize, a_controls: bool) -> usize {
    let (mut xa, mut za) = Pauli::from_index(pair >> 2).symplectic();
    let (mut xb, mut zb) = Pauli::from_index(pair & 3).symplectic();
    if a_controls {
        xb ^= xa;
        za ^= zb;
    } else {
        xa ^= xb;
        zb ^= za;
    }
    4 * Pauli::from_symplectic(xa, za) as usize + Pauli::from_symplectic(xb, zb) as usize
}

/// `SWAP_MAPS[k][pair]`: where a `pair` drawn after internal CNOT `k` of a
/// SWAP, in that CNOT's own (control, target) frame, lands on the SWAP's
/// wires `(a, b)` after the whole `cnot(a,b) cnot(b,a) cnot(a,b)`
/// sequence. The last CNOT's frame is `(a, b)` with nothing after it, so it
/// needs no map.
const SWAP_MAPS: [[u8; 16]; 2] = {
    let mut maps = [[0u8; 16]; 2];
    let mut pair = 0;
    while pair < 16 {
        // CNOT 0 is cnot(a, b): through cnot(b, a), then cnot(a, b).
        maps[0][pair] = conjugate_cnot(conjugate_cnot(pair, false), true) as u8;
        // CNOT 1 is cnot(b, a), drawn as (b, a): reorder to (a, b), then
        // through cnot(a, b).
        maps[1][pair] = conjugate_cnot((pair & 3) << 2 | pair >> 2, true) as u8;
        pair += 1;
    }
    maps
};

/// Most classical bits a simulated program may write: trial outcomes are
/// bit-packed in a `u128`.
pub const MAX_CLBITS: usize = 128;

/// A physical circuit lowered against one machine snapshot and noise model,
/// ready for cheap repeated trials. See the module docs for what lowering
/// precomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialProgram {
    ops: Vec<TrialOp>,
    /// Op index of every [`TrialOp::PauliSite`], in program order — the
    /// coordinate system of pre-sampled [`TrialEvent`]s.
    noise_sites: Vec<u32>,
    /// The distribution of each site, parallel to `noise_sites` (identical
    /// for a native-SWAP program and its 3-CNOT expansion).
    sites: Vec<SiteDist>,
    /// `survival[i]` = probability that no site at index `<= i` fires —
    /// the inversion-sampling table that lets [`TrialProgram::pre_sample`]
    /// jump straight to the next firing site with one uniform.
    survival: Vec<f64>,
    /// Hardware qubit of each compact index (sorted ascending).
    touched: Vec<usize>,
    /// Deduplicated branch-operator tables of the program's
    /// [`TrialOp::KrausChannel`] sites (empty for Pauli-only programs).
    kraus_tables: Vec<KrausTable>,
    num_clbits: usize,
    /// The symplectic action of each op's fused 2×2 unitary when it matched
    /// one of the 24 single-qubit Cliffords (up to phase); `None` for
    /// non-Clifford unitaries and for every non-`Unitary` op. Parallel to
    /// `ops`.
    clifford_actions: Vec<Option<Clifford1Q>>,
    /// The simulation backend serving this program's trials, selected
    /// automatically at lowering time: the bit-packed stabilizer tableau
    /// when every single-qubit unitary classified as Clifford and no
    /// Kraus channel is bound, the dense state vector otherwise.
    backend: BackendKind,
}

impl TrialProgram {
    /// Lowers a physical circuit for `machine` under `noise`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references qubits outside the machine, uses
    /// more than [`MAX_CLBITS`] classical bits, or touches more qubits than
    /// its backend supports: 24 for the dense state vector (any program),
    /// 255 for the stabilizer tableau (fully-Clifford programs).
    pub fn lower(physical: &Circuit, machine: &Machine, noise: &NoiseModel) -> Self {
        Self::lower_with_spec(physical, machine, noise, None)
    }

    /// Like [`TrialProgram::lower`], additionally lowering the channel
    /// bindings of a declarative [`NoiseSpec`] (validated; binding filters
    /// name *hardware* qubit indices). Pauli-diagonal channels lower to
    /// pre-sampled [`TrialOp::PauliSite`]s like the built-in channels, so a
    /// Pauli-only spec keeps every fast tier and the tableau backend; amplitude
    /// damping and general Kraus channels become state-dependent
    /// [`TrialOp::KrausChannel`] sites, which force the dense backend and
    /// full per-trial replay. `spec = None` is bit-identical to
    /// [`TrialProgram::lower`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrialProgram::lower`]; a
    /// non-Pauli spec additionally panics when the circuit touches more
    /// than 24 qubits (the forced dense backend would not fit).
    pub fn lower_with_spec(
        physical: &Circuit,
        machine: &Machine,
        noise: &NoiseModel,
        spec: Option<&NoiseSpec>,
    ) -> Self {
        assert!(
            physical
                .iter()
                .all(|g| g.qubits().iter().all(|q| q.0 < machine.num_qubits())),
            "circuit uses qubits outside the machine"
        );
        assert!(
            physical.num_clbits() <= MAX_CLBITS,
            "trial outcomes are bit-packed; at most {MAX_CLBITS} classical bits are supported"
        );

        // Compact the circuit onto the qubits it actually touches. The
        // dense 24-qubit limit is enforced *after* Clifford classification,
        // because fully-Clifford programs select the tableau backend and
        // carry no 2^n memory term.
        let mut touched: Vec<usize> = physical
            .iter()
            .flat_map(|g| g.qubits().iter().map(|q| q.0))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        assert!(
            touched.len() <= 255,
            "circuit touches more than 255 qubits; compact indices are u8"
        );
        let mut compact = vec![u8::MAX; machine.num_qubits()];
        for (i, &hw) in touched.iter().enumerate() {
            compact[hw] = i as u8;
        }

        let calibration = machine.calibration();
        let mean_cnot_error = calibration.mean_cnot_error();
        let single_slots = calibration.durations.single_qubit_slots;

        // The built-in site after a single-qubit gate on each qubit:
        // depolarizing composed with dephasing over the gate's duration.
        let gate_sites: Vec<Option<SiteDist>> = touched
            .iter()
            .map(|&hw| {
                let p_depol = if noise.single_qubit_noise {
                    calibration.single_qubit_error(HwQubit(hw))
                } else {
                    0.0
                };
                let mut dist = one_qubit_depolarizing(p_depol.clamp(0.0, 1.0));
                if noise.decoherence {
                    let q = calibration.dephasing_probability(HwQubit(hw), single_slots);
                    dephase(&mut dist, Z_ON_A, q);
                }
                SiteDist::new(&dist)
            })
            .collect();
        let p_readout: Vec<f64> = touched
            .iter()
            .map(|&hw| {
                if noise.readout_noise {
                    calibration.readout_error(HwQubit(hw)).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect();

        let mut lowering = Lowering {
            ops: Vec::with_capacity(physical.len()),
            pending: vec![None; touched.len()],
            sites: Vec::new(),
        };

        // The built-in site after one physical CNOT on the edge
        // `(hw_c, hw_t)`, in the CNOT's (control, target) frame: two-qubit
        // depolarizing composed with dephasing of each endpoint over the
        // edge's calibrated duration. Shared by the CNOT and SWAP arms, so
        // a native SWAP draws exactly what its 3-CNOT expansion draws.
        let cnot_site = |hw_c: usize, hw_t: usize| -> Option<SiteDist> {
            if !noise.cnot_noise && !noise.decoherence {
                return None;
            }
            let params = calibration.edge_params(HwQubit(hw_c), HwQubit(hw_t));
            let p_depol = if noise.cnot_noise {
                params.map_or(mean_cnot_error, |p| p.cnot_error)
            } else {
                0.0
            };
            let mut dist = two_qubit_depolarizing(p_depol.clamp(0.0, 1.0));
            if noise.decoherence {
                let slots = params
                    .and_then(|p| p.cnot_slots)
                    .unwrap_or(DEFAULT_CNOT_SLOTS);
                for (hw, z) in [(hw_c, Z_ON_A), (hw_t, Z_ON_B)] {
                    dephase(
                        &mut dist,
                        z,
                        calibration.dephasing_probability(HwQubit(hw), slots),
                    );
                }
            }
            SiteDist::new(&dist)
        };

        // Declarative spec bindings. Filters name hardware qubit indices;
        // calibration-referencing rates resolve against the same tables the
        // built-in model reads, independent of the `NoiseModel` toggles
        // (bound channels are additive, not gated by them).
        let bindings: &[Binding] = spec.map_or(&[][..], |s| s.bindings());
        let mut kraus_tables: Vec<KrausTable> = Vec::new();
        // The calibrated rate a cnot/swap binding's `{"calibration": f}`
        // scales: the edge's CNOT error, mean fallback as in `cnot_site`.
        let edge_calibrated = |hw_a: usize, hw_b: usize| -> f64 {
            calibration
                .edge_params(HwQubit(hw_a), HwQubit(hw_b))
                .map_or(mean_cnot_error, |p| p.cnot_error)
        };

        for gate in physical.iter() {
            match gate.kind() {
                GateKind::Cnot => {
                    let hw_c = gate.qubits()[0].0;
                    let hw_t = gate.qubits()[1].0;
                    let (c, t) = (compact[hw_c], compact[hw_t]);
                    lowering.flush(c);
                    lowering.flush(t);
                    lowering.ops.push(TrialOp::Cnot {
                        control: c,
                        target: t,
                    });
                    if let Some(site) = cnot_site(hw_c, hw_t) {
                        lowering.push_site(c, Some(t), site);
                    }
                    for binding in bindings {
                        if binding.on == GateSel::Cnot
                            && binding.applies_to_edge(hw_c as u32, hw_t as u32)
                        {
                            emit_2q_channel(
                                &mut lowering,
                                binding,
                                c,
                                t,
                                edge_calibrated(hw_c, hw_t),
                            );
                        }
                    }
                }
                GateKind::Swap => {
                    let hw_a = gate.qubits()[0].0;
                    let hw_b = gate.qubits()[1].0;
                    let (a, b) = (compact[hw_a], compact[hw_b]);
                    // Flush so the emitted op order matches program order;
                    // at *runtime* unitaries still cross relabeling swaps
                    // cheaply, because TrialScratch's pending matrices
                    // travel with the relabeling.
                    lowering.flush(a);
                    lowering.flush(b);
                    lowering.ops.push(TrialOp::Swap { a, b });
                    // One site per internal CNOT of `cnot(a,b) cnot(b,a)
                    // cnot(a,b)`, drawn in that CNOT's frame and mapped onto
                    // the SWAP's output wires.
                    let ab = cnot_site(hw_a, hw_b);
                    let ba = cnot_site(hw_b, hw_a);
                    let swap_sites = [
                        ab.map(|s| s.mapped(&SWAP_MAPS[0])),
                        ba.map(|s| s.mapped(&SWAP_MAPS[1])),
                        ab,
                    ];
                    for site in swap_sites.into_iter().flatten() {
                        lowering.push_site(a, Some(b), site);
                    }
                    for binding in bindings {
                        if binding.on == GateSel::Swap
                            && binding.applies_to_edge(hw_a as u32, hw_b as u32)
                        {
                            emit_2q_channel(
                                &mut lowering,
                                binding,
                                a,
                                b,
                                edge_calibrated(hw_a, hw_b),
                            );
                        }
                    }
                }
                GateKind::Measure => {
                    let hw = gate.qubits()[0].0;
                    let q = compact[hw];
                    lowering.flush(q);
                    // Measure-bound channels model noise in the measurement
                    // process itself, so they fire just before the readout.
                    for binding in bindings {
                        if binding.on == GateSel::Measure && binding.applies_to_qubit(hw as u32) {
                            emit_1q_channel(
                                &mut lowering,
                                &mut kraus_tables,
                                binding,
                                q,
                                measure_calibrated(calibration, hw),
                            );
                        }
                    }
                    lowering.ops.push(TrialOp::Measure {
                        qubit: q,
                        clbit: gate.clbits()[0].0 as u8,
                        p_flip: p_readout[usize::from(q)],
                    });
                }
                GateKind::Barrier => {}
                kind => {
                    let hw = gate.qubits()[0].0;
                    let q = compact[hw];
                    lowering.fuse(q, &single_qubit_matrix(kind));
                    if let Some(site) = gate_sites[usize::from(q)] {
                        lowering.flush(q);
                        lowering.push_site(q, None, site);
                    }
                    for binding in bindings {
                        if binding.on == GateSel::SingleQubit && binding.applies_to_qubit(hw as u32)
                        {
                            emit_1q_channel(
                                &mut lowering,
                                &mut kraus_tables,
                                binding,
                                q,
                                calibration.single_qubit_error(HwQubit(hw)),
                            );
                        }
                    }
                }
            }
        }
        // Unflushed trailing unitaries act on qubits that are never measured
        // or entangled again, so they cannot influence any recorded outcome
        // and are dropped (dead-gate elimination).

        let Lowering { mut ops, sites, .. } = lowering;
        sink_measures(&mut ops);

        // Sinking moves only measurements, so the sites keep their emission
        // order and `sites` stays parallel to `noise_sites`.
        let noise_sites: Vec<u32> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, TrialOp::PauliSite { .. }))
            .map(|(i, _)| i as u32)
            .collect();
        debug_assert_eq!(noise_sites.len(), sites.len());
        let mut alive = 1.0f64;
        let survival: Vec<f64> = sites
            .iter()
            .map(|site| {
                alive *= 1.0 - site.p_fire;
                alive
            })
            .collect();

        // Clifford classification: match every fused unitary against the
        // 24 single-qubit Cliffords (two-qubit gates are Clifford by
        // construction: CNOT exactly, SWAP as a relabeling).
        let clifford_actions: Vec<Option<Clifford1Q>> = ops
            .iter()
            .map(|op| match op {
                TrialOp::Unitary { matrix, .. } => clifford::classify(matrix),
                _ => None,
            })
            .collect();
        let all_clifford = ops
            .iter()
            .zip(&clifford_actions)
            .all(|(op, action)| !matches!(op, TrialOp::Unitary { .. }) || action.is_some());

        // Backend selection: a program that is Clifford end to end (every
        // fused unitary classified; CNOT/SWAP/Pauli noise/measurement are
        // Clifford by construction) runs on the stabilizer tableau. Any
        // non-Clifford gate — or any state-dependent Kraus channel, whose
        // branch probabilities no tableau can evaluate — selects the dense
        // state vector.
        let backend = if all_clifford && kraus_tables.is_empty() {
            BackendKind::Tableau
        } else {
            BackendKind::Dense
        };
        assert!(
            backend == BackendKind::Tableau || touched.len() <= 24,
            "circuit touches more than 24 qubits and needs the dense state vector \
             (non-Clifford gates or a non-Pauli noise channel), which would not fit in memory"
        );

        TrialProgram {
            ops,
            noise_sites,
            sites,
            survival,
            touched,
            kraus_tables,
            num_clbits: physical.num_clbits(),
            clifford_actions,
            backend,
        }
    }

    /// The lowered instruction stream.
    pub fn ops(&self) -> &[TrialOp] {
        &self.ops
    }

    /// Op index of every noise site ([`TrialOp::PauliSite`]), in program
    /// order. Pre-sampled [`TrialEvent`]s use positions in this list as
    /// their coordinates.
    pub fn noise_sites(&self) -> &[u32] {
        &self.noise_sites
    }

    /// Number of compacted qubits a trial state needs.
    pub fn num_qubits(&self) -> usize {
        self.touched.len()
    }

    /// Number of classical bits in an outcome.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Hardware qubit index of each compact qubit, ascending.
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// The simulation backend selected for this program at lowering time.
    /// Selection is automatic: [`BackendKind::Tableau`] for fully-Clifford
    /// programs, [`BackendKind::Dense`] otherwise. The simulator always
    /// runs the program on this backend.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The deduplicated branch-operator tables of the program's
    /// [`TrialOp::KrausChannel`] sites (empty for Pauli-only programs).
    pub fn kraus_tables(&self) -> &[KrausTable] {
        &self.kraus_tables
    }

    /// Whether the program contains state-dependent Kraus channel sites.
    /// When true the backend is always dense and every trial replays in
    /// full: branch probabilities depend on the live amplitudes, so no
    /// shared prefix or checkpoint applies.
    pub fn has_kraus(&self) -> bool {
        !self.kraus_tables.is_empty()
    }

    /// The symplectic action of the unitary at `op`, when it matched a
    /// Clifford (`None` for non-Clifford unitaries and non-unitary ops).
    pub fn clifford_action(&self, op: usize) -> Option<Clifford1Q> {
        self.clifford_actions[op]
    }

    /// Allocates the reusable per-worker scratch for [`Self::run_trial`].
    pub fn make_scratch(&self) -> TrialScratch {
        TrialScratch {
            state: StateVector::new(self.num_qubits()),
            pending: vec![None; self.num_qubits()],
            perm: (0..self.num_qubits() as u8).collect(),
            events: Vec::with_capacity(self.noise_sites.len()),
        }
    }

    /// Phase 1 of a trial: samples the trial's full error pattern — without
    /// touching any state — into `events` (cleared first; one entry per
    /// noise site). Returns the indices of the first and the last error
    /// event (equal when exactly one site fired), or `None` for an
    /// error-free trial.
    ///
    /// Instead of one Bernoulli draw per site, the position of the next
    /// *firing* site is inversion-sampled from the precomputed survival
    /// table with a single uniform; a second uniform picks the fired
    /// site's pair from its CDF, and sampling resumes past it. A fired
    /// site never injects the identity, so the first firing site is the
    /// first error. An error-free trial — the overwhelmingly common case
    /// at calibrated error rates — costs exactly one uniform draw,
    /// independent of program length.
    ///
    /// The draws consumed here are a prefix of the trial's RNG stream; the
    /// replay phase continues from the same `rng`. A native-SWAP program
    /// and its 3-CNOT expansion have identical site distributions (up to
    /// the pair each slot injects), so they draw identical sequences and
    /// remain bit-for-bit interchangeable.
    pub fn pre_sample<R: Rng + ?Sized>(
        &self,
        events: &mut Vec<TrialEvent>,
        rng: &mut R,
    ) -> Option<(u32, u32)> {
        events.clear();
        events.resize(self.sites.len(), TrialEvent::CLEAN);
        let mut fired: Option<(u32, u32)> = None;
        let mut cursor = 0usize; // next site to consider
        while cursor < self.sites.len() {
            // Inversion step: P(next fire at j | survived past cursor-1) has
            // CDF 1 - survival[j]/prev, so u maps to the first j whose
            // survival drops below prev * (1 - u). No such j: no more fires.
            let prev = if cursor == 0 {
                1.0
            } else {
                self.survival[cursor - 1]
            };
            let j = if prev > 0.0 {
                let u: f64 = rng.gen();
                let threshold = prev * (1.0 - u);
                cursor + self.survival[cursor..].partition_point(|&s| s >= threshold)
            } else {
                // The survival product collapsed to zero (a certain-fire
                // site, or underflow on an extreme program): the
                // conditional distribution is no longer resolvable from
                // the products, so fall back to one Bernoulli per
                // remaining site.
                let mut j = cursor;
                while j < self.sites.len() && !rng.gen_bool(self.sites[j].p_fire) {
                    j += 1;
                }
                j
            };
            if j >= self.sites.len() {
                break;
            }
            let first = fired.map_or(j as u32, |(first, _)| first);
            fired = Some((first, j as u32));
            events[j] = self.sites[j].draw(rng);
            cursor = j + 1;
        }
        fired
    }

    /// Phase 2 of a trial: replays `self.ops[start_op..]` against `backend`
    /// (whose state must already hold the evolution of `ops[..start_op]` —
    /// a reset backend for `start_op == 0`, or a restored checkpoint),
    /// injecting pre-drawn `events` (the first event consumed is
    /// `events[0]`, i.e. the slice is positioned at the first noise site at
    /// or after `start_op`). Returns the measured classical bits packed
    /// into a `u128` (bit `i` = clbit `i`).
    ///
    /// The walk is generic over [`SimBackend`]: the dense
    /// [`TrialScratch`] instantiation is the tiered engine's replay path
    /// and is bit-identical to the pre-trait monolithic walker (each trait
    /// hook contains exactly the code that used to be inline); the tableau
    /// instantiation is the stabilizer engine's full-replay fallback.
    ///
    /// Beyond the compile-time fusion done at lowering, the dense backend
    /// fuses at *runtime* across noise-injection points: a sampled Pauli is
    /// itself a 2×2 matrix, so single-qubit unitaries and (rare) sampled
    /// errors accumulate into one pending matrix per qubit, and a state
    /// pass only happens when a CNOT or measurement forces materialization.
    pub fn replay_from<B: SimBackend, R: Rng + ?Sized>(
        &self,
        backend: &mut B,
        start_op: usize,
        events: &[TrialEvent],
        rng: &mut R,
    ) -> u128 {
        self.replay_range(backend, start_op, self.ops.len(), events, rng)
    }

    /// [`Self::replay_from`] stopped before `end_op`: replays
    /// `self.ops[start_op..end_op]` and returns the classical bits those
    /// ops measured. The tiered engine's terminal memo replays a trial up
    /// to its [`TrialOp::TerminalSample`] this way, then samples the
    /// flushed state itself.
    pub(crate) fn replay_range<B: SimBackend, R: Rng + ?Sized>(
        &self,
        backend: &mut B,
        start_op: usize,
        end_op: usize,
        events: &[TrialEvent],
        rng: &mut R,
    ) -> u128 {
        let mut site = 0usize;
        let mut clbits = 0u128;
        for op in &self.ops[start_op..end_op] {
            match *op {
                TrialOp::Unitary { qubit, ref matrix } => {
                    backend.fuse_unitary(qubit, matrix);
                }
                TrialOp::Cnot { control, target } => {
                    backend.cnot(control, target);
                }
                TrialOp::Swap { a, b } => backend.swap_relabel(a, b),
                TrialOp::PauliSite { a, b } => {
                    let TrialEvent(pa, pb) = events[site];
                    site += 1;
                    backend.inject_pauli(a, pa);
                    if let Some(b) = b {
                        backend.inject_pauli(b, pb);
                    }
                }
                TrialOp::KrausChannel { qubit, table } => {
                    // State-dependent branch selection: one uniform per
                    // trial per channel, resolved against the current
                    // state's branch probabilities.
                    let u: f64 = rng.gen();
                    backend.apply_kraus(qubit, &self.kraus_tables[usize::from(table)], u);
                }
                TrialOp::Measure {
                    qubit,
                    clbit,
                    p_flip,
                } => {
                    let mut outcome = backend.measure(qubit, rng);
                    if p_flip > 0.0 && rng.gen_bool(p_flip) {
                        outcome = !outcome;
                    }
                    if outcome {
                        clbits |= 1u128 << clbit;
                    }
                }
                TrialOp::TerminalSample { ref measures } => {
                    let ideal = backend.terminal_sample(measures, rng);
                    for (i, &(_, clbit, p_flip)) in measures.iter().enumerate() {
                        let mut outcome = ideal >> i & 1 == 1;
                        if p_flip > 0.0 && rng.gen_bool(p_flip) {
                            outcome = !outcome;
                        }
                        if outcome {
                            clbits |= 1u128 << clbit;
                        }
                    }
                }
            }
        }
        clbits
    }

    /// Advances `scratch` ideally over `self.ops[from_op..to_op]`: unitary
    /// fusion, CNOTs and relabeling SWAPs are applied, noise sites are
    /// skipped (an error-free trial's evolution). This is the shared
    /// ideal-prefix walk of the tiered engine; it applies exactly the same
    /// state operations as an error-free [`TrialProgram::replay_from`] over
    /// the same range, so resuming a replay from the advanced scratch is
    /// bit-identical to replaying from the start.
    ///
    /// # Panics
    ///
    /// Panics if the range contains a measurement (prefixes never extend
    /// past the first measurement: its outcome is per-trial randomness).
    pub fn advance_ideal<B: SimBackend>(&self, backend: &mut B, from_op: usize, to_op: usize) {
        for op in &self.ops[from_op..to_op] {
            match *op {
                TrialOp::Unitary { qubit, ref matrix } => backend.fuse_unitary(qubit, matrix),
                TrialOp::Cnot { control, target } => backend.cnot(control, target),
                TrialOp::Swap { a, b } => backend.swap_relabel(a, b),
                TrialOp::PauliSite { .. } => {}
                TrialOp::KrausChannel { .. } => {
                    unreachable!("Kraus programs replay every trial in full")
                }
                TrialOp::Measure { .. } | TrialOp::TerminalSample { .. } => {
                    unreachable!("ideal prefixes never cross a measurement")
                }
            }
        }
    }

    /// Replays the program once against `scratch` (which is reset first),
    /// returning the measured classical bits packed into a `u128` (bit `i`
    /// = clbit `i`).
    ///
    /// This is the single-trial reference path: phase 1 pre-samples the
    /// trial's full error pattern, phase 2 replays with the events
    /// injected. The tiered engine produces bit-identical outcomes for
    /// every trial while skipping most of the replay work.
    pub fn run_trial<R: Rng + ?Sized>(&self, scratch: &mut TrialScratch, rng: &mut R) -> u128 {
        scratch.reset();
        let mut events = std::mem::take(&mut scratch.events);
        let _ = self.pre_sample(&mut events, rng);
        let key = self.replay_from(scratch, 0, &events, rng);
        scratch.events = events;
        key
    }

    /// Derives the deterministic per-trial RNG for `(base_seed, trial)` —
    /// a counter-based [`TrialRng`] stream with no per-trial seeding work.
    /// Exposed so tests and tools can reproduce a single trial exactly.
    pub fn trial_rng(base_seed: u64, trial: u32) -> TrialRng {
        TrialRng::new(base_seed, trial)
    }
}

/// Reusable per-worker trial state: the scratch [`StateVector`], the
/// runtime-fusion accumulator (one pending 2×2 matrix per program qubit),
/// the program-qubit → state-slot permutation maintained by relabeling
/// SWAPs, and the pre-sampled event buffer. Allocate once via
/// [`TrialProgram::make_scratch`], replay many trials through it.
#[derive(Debug, Clone)]
pub struct TrialScratch {
    state: StateVector,
    pending: Vec<Option<Matrix2>>,
    /// `perm[program qubit] = state slot`. Identity until a SWAP relabels.
    perm: Vec<u8>,
    /// Pre-sampled error events of the current trial (reference path).
    events: Vec<TrialEvent>,
}

impl TrialScratch {
    /// The state vector after the last replay. Pending (unmaterialized)
    /// unitaries act only on qubits whose state is never observed again, so
    /// the amplitudes reflect every measurement-relevant operation. Note
    /// that relabeling SWAPs permute which *slot* holds which program
    /// qubit; [`Self::slot_of`] exposes the mapping.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// The state-vector slot currently holding `program_qubit`.
    pub fn slot_of(&self, program_qubit: usize) -> usize {
        usize::from(self.perm[program_qubit])
    }

    /// The full program-qubit → state-slot permutation.
    pub fn perm(&self) -> &[u8] {
        &self.perm
    }

    /// Resets to the `|0...0>` state with an identity permutation and no
    /// pending matrices.
    pub fn reset(&mut self) {
        self.state.reset();
        self.pending.fill(None);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i as u8;
        }
    }

    /// Restores this scratch from a checkpoint of the same width without
    /// allocating.
    pub fn copy_from(&mut self, checkpoint: &TrialScratch) {
        self.state.copy_from(&checkpoint.state);
        self.pending.clone_from_slice(&checkpoint.pending);
        self.perm.copy_from_slice(&checkpoint.perm);
    }

    /// Composes `m` onto the pending matrix of `qubit` (applied after it).
    fn fuse(&mut self, qubit: u8, m: &Matrix2) {
        let slot = &mut self.pending[usize::from(qubit)];
        *slot = Some(match slot.take() {
            Some(old) => matmul(m, &old),
            None => *m,
        });
    }

    /// Composes a sampled Pauli error onto the pending matrix (identity is
    /// free: no work at all).
    pub(crate) fn fuse_pauli(&mut self, qubit: u8, pauli: Pauli) {
        match pauli {
            Pauli::I => {}
            Pauli::X => self.fuse(qubit, &PAULI_X_MATRIX),
            Pauli::Y => self.fuse(qubit, &PAULI_Y_MATRIX),
            Pauli::Z => self.fuse(qubit, &PAULI_Z_MATRIX),
        }
    }

    /// Materializes the pending matrix of `qubit` into its current slot.
    pub(crate) fn flush(&mut self, qubit: u8) {
        if let Some(matrix) = self.pending[usize::from(qubit)].take() {
            self.state
                .apply_matrix(usize::from(self.perm[usize::from(qubit)]), &matrix);
        }
    }

    /// Materializes the pending matrices of a terminal run of measurements,
    /// one wire at a time in measure order.
    pub(crate) fn flush_terminal(&mut self, measures: &[(u8, u8, f64)]) {
        for &(qubit, _, _) in measures {
            self.flush(qubit);
        }
    }

    /// Materializes the pending matrix of `qubit` and returns the
    /// probability of measuring it as 1.
    pub(crate) fn flush_and_p1(&mut self, qubit: u8) -> f64 {
        self.flush(qubit);
        self.state
            .probability_one(usize::from(self.perm[usize::from(qubit)]))
    }

    /// Applies a CNOT between the current slots of two program qubits.
    fn apply_cnot(&mut self, control: u8, target: u8) {
        self.state.apply_cnot(
            usize::from(self.perm[usize::from(control)]),
            usize::from(self.perm[usize::from(target)]),
        );
    }

    /// Realizes a noiseless SWAP by exchanging the two program qubits'
    /// slots — no state pass at all. Pending matrices are attached to the
    /// content they transform, so they travel with the relabeling.
    fn relabel_swap(&mut self, a: u8, b: u8) {
        self.perm.swap(usize::from(a), usize::from(b));
        self.pending.swap(usize::from(a), usize::from(b));
    }

    /// Projects `qubit` onto a known measurement `outcome` given the
    /// pre-computed probability `p1` of measuring 1 — exactly the collapse
    /// half of [`StateVector::measure`], for replaying a measurement whose
    /// outcome was drawn elsewhere (the engine's dominant-path walker and
    /// its divergence fallback).
    pub(crate) fn collapse_measured(&mut self, qubit: u8, outcome: bool, p1: f64) {
        let slot = usize::from(self.perm[usize::from(qubit)]);
        let norm = if outcome { p1 } else { 1.0 - p1 };
        self.state.collapse_with_norm(slot, outcome, norm);
    }

    /// Applies a general Kraus channel to `qubit`: selects one branch `k`
    /// with the state-dependent probability `p_k = tr(A_k ρ A_k†)`
    /// (computed from the cached Gram matrices `G_k = A_k† A_k` and the
    /// qubit's reduced density matrix), applies its fused operator `A_k`,
    /// and renormalizes by `1/√p_k`. Uses the caller's single uniform `u`
    /// so the draw count per trial is fixed.
    pub(crate) fn apply_kraus_channel(&mut self, qubit: u8, table: &KrausTable, u: f64) {
        // The fused A_k = K_k · U already bakes in the pending unitary
        // taken at lowering, but runtime-fused Paulis from *other* sampled
        // channels may still be pending on this wire — flush them first so
        // the reduced density matrix describes the pre-channel state.
        self.flush(qubit);
        let slot = usize::from(self.perm[usize::from(qubit)]);
        let (p0, cross, p1) = self.state.reduced_density(slot);
        // p_k = g00·ρ00 + g11·ρ11 + 2·Re(g01·ρ10), clamped against
        // rounding (each p_k is a trace of a PSD product, so ≥ 0 exactly).
        let branch_p =
            |g: &(f64, Complex, f64)| (g.0 * p0 + g.2 * p1 + 2.0 * (g.1 * cross).re).max(0.0);
        let total: f64 = table.grams.iter().map(&branch_p).sum();
        let target = u * total;
        let mut chosen = table.grams.len() - 1;
        let mut acc = 0.0;
        for (k, g) in table.grams.iter().enumerate() {
            acc += branch_p(g);
            if acc > target {
                chosen = k;
                break;
            }
        }
        let p = branch_p(&table.grams[chosen]);
        self.state.apply_matrix(slot, &table.ops[chosen]);
        if p > 0.0 {
            self.state.scale(1.0 / p.sqrt());
        }
    }
}

/// The dense state-vector backend. Every hook body is exactly the code the
/// replay walkers used to inline, so the monomorphized generic walk is
/// bit-identical to the pre-trait dense path.
impl SimBackend for TrialScratch {
    fn fuse_unitary(&mut self, qubit: u8, matrix: &Matrix2) {
        self.fuse(qubit, matrix);
    }

    fn inject_pauli(&mut self, qubit: u8, pauli: Pauli) {
        self.fuse_pauli(qubit, pauli);
    }

    fn cnot(&mut self, control: u8, target: u8) {
        self.flush(control);
        self.flush(target);
        self.apply_cnot(control, target);
    }

    fn swap_relabel(&mut self, a: u8, b: u8) {
        self.relabel_swap(a, b);
    }

    fn apply_kraus(&mut self, qubit: u8, table: &KrausTable, u: f64) {
        self.apply_kraus_channel(qubit, table, u);
    }

    fn measure<R: Rng + ?Sized>(&mut self, qubit: u8, rng: &mut R) -> bool {
        let p1 = self.flush_and_p1(qubit).clamp(0.0, 1.0);
        let outcome = rng.gen_bool(p1);
        self.collapse_measured(qubit, outcome, p1);
        outcome
    }

    fn terminal_sample<R: Rng + ?Sized>(
        &mut self,
        measures: &[(u8, u8, f64)],
        rng: &mut R,
    ) -> u128 {
        self.flush_terminal(measures);
        // Canonical traversal: basis states are visited in program-qubit
        // bit order regardless of how relabeling SWAPs permuted the
        // physical layout, so the same uniform draw picks the same logical
        // outcome in every layout (and in the tiered engine's precomputed
        // CDF).
        let canonical = self.state.sample_canonical(&self.perm, rng);
        let mut ideal = 0u128;
        for (i, &(qubit, _, _)) in measures.iter().enumerate() {
            if canonical >> qubit & 1 == 1 {
                ideal |= 1u128 << i;
            }
        }
        ideal
    }
}

const PAULI_X_MATRIX: Matrix2 = [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO];
const PAULI_Y_MATRIX: Matrix2 = [
    Complex::ZERO,
    Complex { re: 0.0, im: -1.0 },
    Complex::I,
    Complex::ZERO,
];
const PAULI_Z_MATRIX: Matrix2 = [
    Complex::ONE,
    Complex::ZERO,
    Complex::ZERO,
    Complex { re: -1.0, im: 0.0 },
];

/// Accumulates ops while fusing runs of single-qubit unitaries per qubit,
/// and the distribution of every emitted noise site.
struct Lowering {
    ops: Vec<TrialOp>,
    pending: Vec<Option<Matrix2>>,
    sites: Vec<SiteDist>,
}

impl Lowering {
    /// Composes `m` onto the pending unitary of `qubit` (applied after it).
    fn fuse(&mut self, qubit: u8, m: &Matrix2) {
        let slot = &mut self.pending[usize::from(qubit)];
        *slot = Some(match slot.take() {
            Some(old) => matmul(m, &old),
            None => *m,
        });
    }

    /// Emits the pending unitary of `qubit`, if any.
    fn flush(&mut self, qubit: u8) {
        if let Some(matrix) = self.pending[usize::from(qubit)].take() {
            self.ops.push(TrialOp::Unitary { qubit, matrix });
        }
    }

    /// Emits a noise site on `a` (and `b`) drawing from `site`.
    fn push_site(&mut self, a: u8, b: Option<u8>, site: SiteDist) {
        self.ops.push(TrialOp::PauliSite { a, b });
        self.sites.push(site);
    }
}

/// Row-major 2×2 product `a * b` (apply `b`, then `a`).
fn matmul(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// The calibrated rate a measure binding's `{"calibration": f}` scales:
/// the qubit's readout error.
fn measure_calibrated(calibration: &Calibration, hw: usize) -> f64 {
    calibration.readout_error(HwQubit(hw)).clamp(0.0, 1.0)
}

/// Interns a fused Kraus operator list, deduplicating bit-identical
/// tables (a binding covering many sites with the same fused unitary —
/// e.g. every measure — shares one table).
fn intern_kraus(tables: &mut Vec<KrausTable>, ops: Vec<Matrix2>) -> u16 {
    if let Some(i) = tables.iter().position(|t| t.ops == ops) {
        return i as u16;
    }
    assert!(
        tables.len() < usize::from(u16::MAX),
        "program exceeds {} distinct Kraus tables",
        u16::MAX
    );
    tables.push(KrausTable::new(ops));
    (tables.len() - 1) as u16
}

/// Emits the trial op realizing one single-qubit binding at a site whose
/// calibrated error rate is `calibrated`, straight from the binding's shape
/// and resolved rate. The Pauli kinds become a pre-samplable
/// [`TrialOp::PauliSite`] (the fast tiers keep working), with the firing
/// probability clamped to 1 where rounding of the weighted split overshoots
/// it; amplitude damping and explicit Kraus operators take the wire's
/// pending unitary with them (`A_k = K_k · U`, one fused pass) and become a
/// state-dependent [`TrialOp::KrausChannel`].
fn emit_1q_channel(
    lowering: &mut Lowering,
    kraus_tables: &mut Vec<KrausTable>,
    binding: &Binding,
    qubit: u8,
    calibrated: f64,
) {
    let theta = binding.rate.map_or(0.0, |r| r.resolve(calibrated));
    // The firing probability and P(X), P(Y), P(Z) given a firing.
    let (p_fire, weights) = match &binding.shape {
        ChannelShape::Depolarizing1q => (theta, [1.0 / 3.0; 3]),
        ChannelShape::BitFlip => (theta, [1.0, 0.0, 0.0]),
        ChannelShape::PhaseFlip => (theta, [0.0, 0.0, 1.0]),
        ChannelShape::PauliWeighted { wx, wy, wz } => {
            let sum = wx + wy + wz;
            let p = [theta * wx / sum, theta * wy / sum, theta * wz / sum];
            let p_fire = p[0] + p[1] + p[2];
            if p_fire > 0.0 {
                (p_fire, p.map(|pk| pk / p_fire))
            } else {
                (p_fire, [1.0, 0.0, 0.0])
            }
        }
        ChannelShape::AmplitudeDamping => {
            let s = (1.0 - theta).max(0.0).sqrt();
            let g = theta.max(0.0).sqrt();
            let kraus = [
                [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (s, 0.0)],
                [(0.0, 0.0), (g, 0.0), (0.0, 0.0), (0.0, 0.0)],
            ];
            return emit_kraus(lowering, kraus_tables, qubit, &kraus);
        }
        ChannelShape::Kraus { ops } => return emit_kraus(lowering, kraus_tables, qubit, ops),
        ChannelShape::Depolarizing2q => {
            unreachable!("spec validation restricts two-qubit shapes to cnot/swap bindings")
        }
    };
    let p = p_fire.clamp(0.0, 1.0);
    let mut dist = [0.0; 16];
    dist[0] = 1.0 - p;
    for (pauli, w) in weights.into_iter().enumerate() {
        dist[4 * (pauli + 1)] = p * w;
    }
    if let Some(site) = SiteDist::new(&dist) {
        // Flush so the error lands *after* the gate it is bound to
        // (pending unitaries would otherwise materialize later in the op
        // stream, inverting the order).
        lowering.flush(qubit);
        lowering.push_site(qubit, None, site);
    }
}

/// Emits the [`TrialOp::KrausChannel`] applying the Kraus operators `kraus`
/// to `qubit`, fused with the wire's pending unitary.
fn emit_kraus(
    lowering: &mut Lowering,
    kraus_tables: &mut Vec<KrausTable>,
    qubit: u8,
    kraus: &[nisq_noise::Matrix2],
) {
    let fused = lowering.pending[usize::from(qubit)].take();
    let ops: Vec<Matrix2> = kraus
        .iter()
        .map(|k| {
            let m = k.map(|(re, im)| Complex::new(re, im));
            match &fused {
                Some(u) => matmul(&m, u),
                None => m,
            }
        })
        .collect();
    let table = intern_kraus(kraus_tables, ops);
    lowering.ops.push(TrialOp::KrausChannel { qubit, table });
}

/// Emits the noise site realizing one cnot/swap binding on the (compact)
/// wire pair. Spec validation guarantees the bound shape is two-qubit
/// depolarizing — always pre-samplable.
fn emit_2q_channel(lowering: &mut Lowering, binding: &Binding, a: u8, b: u8, calibrated: f64) {
    let ChannelShape::Depolarizing2q = binding.shape else {
        unreachable!("spec validation restricts cnot/swap bindings to depolarizing-2q")
    };
    let p = binding.rate.map_or(0.0, |r| r.resolve(calibrated));
    if let Some(site) = SiteDist::new(&two_qubit_depolarizing(p.clamp(0.0, 1.0))) {
        lowering.push_site(a, Some(b), site);
    }
}

/// Sinks every measurement whose qubit is never referenced afterwards to
/// the end of the program, folding two or more of them into one
/// [`TrialOp::TerminalSample`].
///
/// A measurement commutes with every later op that does not reference its
/// qubit (gates and noise on other qubits, and other sinkable
/// measurements), so its measure-and-collapse pass can be replaced by one
/// joint cumulative sample at the end. Any later reference blocks sinking:
/// gates and noise would see the wrong (uncollapsed) state, and a SWAP
/// relabels which content the qubit names. Qiskit-style executables that
/// measure each logical qubit as soon as it is done benefit the most —
/// every one of their measurements typically sinks.
fn sink_measures(ops: &mut Vec<TrialOp>) {
    // 256-bit qubit set (compact indices are u8, so 256 bits cover every
    // possible wire — wide tableau programs exceed a single machine word).
    let mut used_later = [0u64; 4];
    let mark = |set: &mut [u64; 4], q: u8| set[usize::from(q >> 6)] |= 1u64 << (q & 63);
    let test = |set: &[u64; 4], q: u8| set[usize::from(q >> 6)] >> (q & 63) & 1 == 1;
    // Reverse program order: `used_later` holds the qubits referenced by
    // ops later than the one being examined.
    let mut kept_rev: Vec<TrialOp> = Vec::with_capacity(ops.len());
    let mut sunk_rev: Vec<(u8, u8, f64)> = Vec::new();
    for op in ops.drain(..).rev() {
        if let TrialOp::Measure {
            qubit,
            clbit,
            p_flip,
        } = op
        {
            if !test(&used_later, qubit) {
                // Note: the qubit is deliberately NOT marked as used — an
                // earlier measurement of the same qubit may sink too, and
                // joint sampling then assigns both clbits the same bit,
                // exactly as measure-then-remeasure would.
                sunk_rev.push((qubit, clbit, p_flip));
                continue;
            }
        }
        match op {
            TrialOp::Unitary { qubit, .. }
            | TrialOp::KrausChannel { qubit, .. }
            | TrialOp::Measure { qubit, .. } => {
                mark(&mut used_later, qubit);
            }
            TrialOp::Cnot {
                control: a,
                target: b,
            }
            | TrialOp::Swap { a, b } => {
                mark(&mut used_later, a);
                mark(&mut used_later, b);
            }
            TrialOp::PauliSite { a, b } => {
                mark(&mut used_later, a);
                if let Some(b) = b {
                    mark(&mut used_later, b);
                }
            }
            TrialOp::TerminalSample { .. } => {
                unreachable!("sinking runs before any terminal sample exists")
            }
        }
        kept_rev.push(op);
    }
    kept_rev.reverse();
    *ops = kept_rev;
    sunk_rev.reverse();
    match sunk_rev.len() {
        0 => {}
        1 => {
            let (qubit, clbit, p_flip) = sunk_rev[0];
            ops.push(TrialOp::Measure {
                qubit,
                clbit,
                p_flip,
            });
        }
        _ => ops.push(TrialOp::TerminalSample { measures: sunk_rev }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clifford::SymplecticPauli;
    use nisq_ir::{Circuit, Qubit};

    fn machine() -> Machine {
        Machine::ibmq16_on_day(2, 0)
    }

    #[test]
    fn ideal_lowering_fuses_single_qubit_runs() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).t(Qubit(0)).s(Qubit(0)).h(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        let program = TrialProgram::lower(&c, &machine(), &NoiseModel::ideal());
        // h/t/s on qubit 0 fuse to one unitary; h on qubit 1 is another; the
        // CNOT and the terminal sample (both measures folded) follow: 4 ops
        // total, and no noise ops.
        let unitaries = program
            .ops()
            .iter()
            .filter(|op| matches!(op, TrialOp::Unitary { .. }))
            .count();
        assert_eq!(unitaries, 2, "ops: {:?}", program.ops());
        assert_eq!(program.ops().len(), 4);
        assert!(matches!(
            program.ops().last(),
            Some(TrialOp::TerminalSample { measures }) if measures.len() == 2
        ));
        assert!(!program
            .ops()
            .iter()
            .any(|op| matches!(op, TrialOp::PauliSite { .. })));
        assert!(program.noise_sites().is_empty());
    }

    #[test]
    fn cnot_readout_model_fuses_between_cnots() {
        // Under the paper's first-order model there is no per-single-qubit
        // noise, so runs of single-qubit gates between CNOTs fuse.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).t(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.h(Qubit(0)).s(Qubit(0)).h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        let program = TrialProgram::lower(&c, &machine(), &NoiseModel::cnot_and_readout_only());
        let unitaries = program
            .ops()
            .iter()
            .filter(|op| matches!(op, TrialOp::Unitary { .. }))
            .count();
        assert_eq!(unitaries, 2, "ops: {:?}", program.ops());
        assert!(program
            .ops()
            .iter()
            .any(|op| matches!(op, TrialOp::PauliSite { b: Some(_), .. })));
        assert!(matches!(
            program.ops().last(),
            Some(TrialOp::TerminalSample { measures })
                if measures.iter().all(|&(_, _, p_flip)| p_flip > 0.0)
        ));
    }

    #[test]
    fn full_noise_lowering_prefetches_probabilities() {
        let m = machine();
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        let program = TrialProgram::lower(&c, &m, &NoiseModel::full());
        assert_eq!(program.sites.len(), 2);
        for site in &program.sites {
            assert!(site.p_fire > 0.0 && site.p_fire < 1.0);
        }
        for op in program.ops() {
            match op {
                TrialOp::Measure { p_flip, .. } => {
                    assert!(*p_flip > 0.0 && *p_flip < 1.0);
                }
                TrialOp::TerminalSample { measures } => {
                    for &(_, _, p_flip) in measures {
                        assert!(p_flip > 0.0 && p_flip < 1.0);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn noise_sites_index_every_stochastic_op() {
        let m = machine();
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.push(nisq_ir::Gate::swap(Qubit(1), Qubit(2)));
        c.measure_all();
        let program = TrialProgram::lower(&c, &m, &NoiseModel::full());
        for &site in program.noise_sites() {
            assert!(matches!(
                program.ops()[site as usize],
                TrialOp::PauliSite { .. }
            ));
        }
        let stochastic = program
            .ops()
            .iter()
            .filter(|op| matches!(op, TrialOp::PauliSite { .. }))
            .count();
        assert_eq!(program.noise_sites().len(), stochastic);
        assert!(stochastic >= 3, "ops: {:?}", program.ops());
    }

    /// The pair distribution a site should draw, by brute-force enumeration
    /// of independent per-channel draws: `channels` lists each channel's
    /// outcomes as `(probability, pair on the frame's wires)`, and every
    /// combination composes Pauli by Pauli.
    fn enumerate(channels: &[Vec<(f64, (Pauli, Pauli))>]) -> Vec<(f64, (Pauli, Pauli))> {
        channels
            .iter()
            .fold(vec![(1.0, (Pauli::I, Pauli::I))], |acc, channel| {
                acc.iter()
                    .flat_map(|&(p, (a, b))| {
                        channel
                            .iter()
                            .map(move |&(q, (ca, cb))| (p * q, (a.compose(ca), b.compose(cb))))
                    })
                    .collect()
            })
    }

    #[test]
    fn site_distributions_match_the_per_channel_draws() {
        use nisq_ir::Gate;
        use Pauli::{I, X, Y, Z};
        const PAULIS: [Pauli; 4] = [I, X, Y, Z];
        let m = machine();
        let cal = m.calibration();
        // Hardware qubits 0-1-2 are a chain on the 8x2 grid.
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.push(Gate::swap(Qubit(1), Qubit(2)));
        c.measure_all();
        let spec = NoiseSpec::from_json(
            r#"{"name": "exact", "bindings": [
                {"on": "sq", "rate": 0.2,
                 "channel": {"kind": "pauli-weighted", "wx": 1, "wy": 1, "wz": 2}},
                {"on": "cnot", "rate": {"calibration": 2.0},
                 "channel": {"kind": "depolarizing-2q"}},
                {"on": "measure", "qubits": [0], "rate": 0.03,
                 "channel": {"kind": "depolarizing-1q"}},
                {"on": "measure", "qubits": [0], "rate": {"calibration": 2.0},
                 "channel": {"kind": "bit-flip"}},
                {"on": "measure", "qubits": [0], "rate": 0.07,
                 "channel": {"kind": "phase-flip"}}]}"#,
        )
        .unwrap();
        let program = TrialProgram::lower_with_spec(&c, &m, &NoiseModel::full(), Some(&spec));

        // The channels of the parent's per-channel sampling.
        let depol_1q = |p: f64| {
            let mut outcomes = vec![(1.0 - p, (I, I))];
            outcomes.extend([X, Y, Z].map(|e| (p / 3.0, (e, I))));
            outcomes
        };
        let depol_2q = |p: f64| {
            let mut outcomes = vec![(1.0 - p, (I, I))];
            for k in 1..16 {
                outcomes.push((p / 15.0, (PAULIS[k / 4], PAULIS[k % 4])));
            }
            outcomes
        };
        let dephase = |q: f64, on_b: bool| {
            let z = if on_b { (I, Z) } else { (Z, I) };
            vec![(1.0 - q, (I, I)), (q, z)]
        };
        let cnot_draws = |hw_c: usize, hw_t: usize| {
            let params = cal.edge_params(HwQubit(hw_c), HwQubit(hw_t)).unwrap();
            let slots = params.cnot_slots.unwrap_or(DEFAULT_CNOT_SLOTS);
            enumerate(&[
                depol_2q(params.cnot_error),
                dephase(cal.dephasing_probability(HwQubit(hw_c), slots), false),
                dephase(cal.dephasing_probability(HwQubit(hw_t), slots), true),
            ])
        };
        // A SWAP group's pair, drawn in its CNOT's frame, stepped through
        // the SWAP's remaining CNOTs (wire a is qubit 0, wire b qubit 1).
        let swap_group = |k: usize, draws: Vec<(f64, (Pauli, Pauli))>| {
            draws
                .into_iter()
                .map(|(p, (control, target))| {
                    let mut residual = SymplecticPauli::IDENTITY;
                    if k == 1 {
                        residual.compose(0, target);
                        residual.compose(1, control);
                        residual.conjugate_cnot(0, 1);
                    } else {
                        residual.compose(0, control);
                        residual.compose(1, target);
                        if k == 0 {
                            residual.conjugate_cnot(1, 0);
                            residual.conjugate_cnot(0, 1);
                        }
                    }
                    (p, (residual.pauli_on(0), residual.pauli_on(1)))
                })
                .collect::<Vec<_>>()
        };
        let single_slots = cal.durations.single_qubit_slots;
        let expected = [
            enumerate(&[
                depol_1q(cal.single_qubit_error(HwQubit(0))),
                dephase(cal.dephasing_probability(HwQubit(0), single_slots), false),
            ]),
            vec![(0.8, (I, I)), (0.05, (X, I)), (0.05, (Y, I)), (0.1, (Z, I))],
            cnot_draws(0, 1),
            depol_2q(2.0 * cal.edge_params(HwQubit(0), HwQubit(1)).unwrap().cnot_error),
            swap_group(0, cnot_draws(1, 2)),
            swap_group(1, cnot_draws(2, 1)),
            swap_group(2, cnot_draws(1, 2)),
            // The measure of hardware qubit 0, after the SWAP.
            depol_1q(0.03),
            {
                let p = 2.0 * cal.readout_error(HwQubit(0));
                vec![(1.0 - p, (I, I)), (p, (X, I))]
            },
            vec![(0.93, (I, I)), (0.07, (Z, I))],
        ];
        assert_eq!(program.sites.len(), expected.len());

        let index = |(a, b): (Pauli, Pauli)| 4 * a as usize + b as usize;
        for (i, (site, draws)) in program.sites.iter().zip(&expected).enumerate() {
            let mut want = [0.0; 16];
            for &(p, pair) in draws {
                want[index(pair)] += p;
            }
            let mut got = [0.0; 16];
            let mut below = 0.0;
            for (&cum, &pair) in site.cdf.iter().zip(&site.pairs) {
                got[usize::from(pair)] += site.p_fire * (cum - below);
                below = cum;
            }
            let want_fire: f64 = want[1..].iter().sum();
            assert!((site.p_fire - want_fire).abs() < 1e-12, "site {i}: p_fire");
            for pair in 1..16 {
                assert!(
                    (got[pair] - want[pair]).abs() < 1e-12,
                    "site {i} pair {pair}: {} vs {}",
                    got[pair],
                    want[pair]
                );
            }
        }
    }

    /// A 3-qubit circuit on the hardware chain 0-1-2: single-qubit gates on
    /// every wire, a CNOT, a SWAP and a measure of each qubit.
    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).t(Qubit(1)).h(Qubit(2));
        c.cnot(Qubit(0), Qubit(1));
        c.push(nisq_ir::Gate::swap(Qubit(1), Qubit(2)));
        c.measure_all();
        c
    }

    fn lower_spec(json: &str) -> TrialProgram {
        let spec = NoiseSpec::from_json(json).unwrap();
        TrialProgram::lower_with_spec(
            &chain_circuit(),
            &machine(),
            &NoiseModel::ideal(),
            Some(&spec),
        )
    }

    #[test]
    fn spec_lowering_is_pinned_bit_for_bit() {
        // Every lowered number of bindings of all seven kinds, compared by
        // bit pattern, so a 1-ulp change in any formula fails.
        let pauli = lower_spec(
            r#"{"name": "pin-pauli", "bindings": [
            {"on": "sq", "qubits": [0], "rate": 0.01, "channel": {"kind": "depolarizing-1q"}},
            {"on": "sq", "qubits": [0], "rate": {"calibration": 3.0},
             "channel": {"kind": "pauli-weighted", "wx": 1, "wy": 2, "wz": 4}},
            {"on": "sq", "qubits": [1], "rate": {"calibration": 3.0}, "channel": {"kind": "bit-flip"}},
            {"on": "sq", "qubits": [1], "rate": 0.02, "channel": {"kind": "phase-flip"}},
            {"on": "cnot", "rate": {"calibration": 2.0}, "channel": {"kind": "depolarizing-2q"}},
            {"on": "swap", "rate": 0.01, "channel": {"kind": "depolarizing-2q"}},
            {"on": "measure", "qubits": [2], "rate": {"calibration": 4.0},
             "channel": {"kind": "pauli-weighted", "wx": 3, "wy": 0, "wz": 1}}]}"#,
        );
        const THIRD: f64 = 0.33333333333333337;
        const TWO_THIRDS: f64 = 0.6666666666666667;
        const SEVENTH: f64 = 0.14285714285714288;
        const THREE_SEVENTHS: f64 = 0.4285714285714286;
        #[rustfmt::skip]
        let sites: [(f64, [f64; 15]); 7] = [
            // depolarizing-1q, then pauli-weighted 1:2:4, on qubit 0.
            (0.009999999999999998, [0.0, 0.0, 0.0, THIRD, THIRD, THIRD, THIRD,
                TWO_THIRDS, TWO_THIRDS, TWO_THIRDS, TWO_THIRDS, 1.0, 1.0, 1.0, 1.0]),
            (0.004022075509216879, [0.0, 0.0, 0.0, SEVENTH, SEVENTH, SEVENTH, SEVENTH,
                THREE_SEVENTHS, THREE_SEVENTHS, THREE_SEVENTHS, THREE_SEVENTHS,
                1.0, 1.0, 1.0, 1.0]),
            // bit-flip, then phase-flip, on qubit 1.
            (0.006690964034270346, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                1.0, 1.0, 1.0, 1.0]),
            (0.02, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
            // depolarizing-2q on the CNOT, then on the SWAP.
            (0.23314306770712553, [0.06666666666666667, 0.13333333333333333,
                0.19999999999999996, 0.26666666666666666, 0.3333333333333333,
                0.39999999999999997, 0.4666666666666667, 0.5333333333333333, 0.6,
                0.6666666666666666, 0.7333333333333333, 0.7999999999999999,
                0.8666666666666667, 0.9333333333333333, 1.0]),
            (0.01, [0.06666666666666667, 0.13333333333333333, 0.2, 0.26666666666666666,
                0.3333333333333333, 0.4, 0.4666666666666667, 0.5333333333333334,
                0.6000000000000001, 0.6666666666666667, 0.7333333333333335,
                0.8000000000000002, 0.8666666666666668, 0.9333333333333333, 1.0]),
            // pauli-weighted 3:0:1 on the measure of qubit 2.
            (0.154807144832685, [0.0, 0.0, 0.0, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75,
                0.75, 1.0, 1.0, 1.0, 1.0]),
        ];
        assert!(pauli.kraus_tables.is_empty());
        assert_eq!(pauli.sites.len(), sites.len());
        let own_pairs: [u8; 15] = std::array::from_fn(|k| k as u8 + 1);
        for (i, (site, (p_fire, cdf))) in pauli.sites.iter().zip(&sites).enumerate() {
            assert_eq!(site.p_fire.to_bits(), p_fire.to_bits(), "site {i}: p_fire");
            assert_eq!(
                site.cdf.map(f64::to_bits),
                cdf.map(f64::to_bits),
                "site {i}: cdf"
            );
            assert_eq!(site.pairs, own_pairs, "site {i}: pairs");
        }

        let kraus = lower_spec(
            r#"{"name": "pin-kraus", "bindings": [
            {"on": "measure", "rate": 0.05, "channel": {"kind": "amplitude-damping"}},
            {"on": "sq", "qubits": [2], "rate": {"calibration": 5.0},
             "channel": {"kind": "amplitude-damping"}},
            {"on": "sq", "qubits": [1], "channel": {"kind": "kraus", "ops": [
                [[0.99498743710662, 0], [0, 0], [0, 0], [0.99498743710662, 0]],
                [[0, 0.1], [0, 0], [0, 0], [0, -0.1]]]}}]}"#,
        );
        // Per table: each operator's (re, im) entries in row-major order,
        // then each Gram's (g00, g01.re, g01.im, g11).
        use std::f64::consts::FRAC_1_SQRT_2;
        #[rustfmt::skip]
        let tables: [(&[f64], &[f64]); 3] = [
            // The explicit operators fused with T on qubit 1.
            (&[0.99498743710662, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7035623639735145,
                0.7035623639735143, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.07071067811865475,
                -0.07071067811865477],
             &[0.99, 0.0, 0.0, 0.99, 0.010000000000000002, 0.0, 0.0, 0.010000000000000002]),
            // Calibration-scaled damping fused with H on qubit 2.
            (&[FRAC_1_SQRT_2, 0.0, FRAC_1_SQRT_2, 0.0, 0.7043733839167396, 0.0,
                -0.7043733839167396, 0.0, 0.06211389562474252, 0.0, -0.06211389562474252,
                0.0, 0.0, 0.0, 0.0, 0.0],
             &[0.9961418639703188, 0.0038581360296813805, 0.0, 0.9961418639703188,
                0.003858136029681408, -0.003858136029681408, 0.0, 0.003858136029681408]),
            // Damping at 0.05 before each measure, shared by all three.
            (&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9746794344808963, 0.0, 0.0, 0.0,
                0.22360679774997896, 0.0, 0.0, 0.0, 0.0, 0.0],
             &[1.0, 0.0, 0.0, 0.9499999999999998, 0.0, 0.0, 0.0, 0.049999999999999996]),
        ];
        assert!(kraus.sites.is_empty());
        assert_eq!(kraus.kraus_tables.len(), tables.len());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (table, (ops, grams))) in kraus.kraus_tables.iter().zip(&tables).enumerate() {
            let got_ops: Vec<f64> = table
                .ops
                .iter()
                .flatten()
                .flat_map(|z| [z.re, z.im])
                .collect();
            let got_grams: Vec<f64> = table
                .grams
                .iter()
                .flat_map(|&(g00, g01, g11)| [g00, g01.re, g01.im, g11])
                .collect();
            assert_eq!(bits(&got_ops), bits(ops), "table {i}: operators");
            assert_eq!(bits(&got_grams), bits(grams), "table {i}: Gram entries");
        }
    }

    #[test]
    fn amplitude_damping_kraus_ops_are_complete() {
        // Bare (measure-bound) and fused with H (gate-bound): Σ_k A_k†A_k
        // is the identity either way.
        for gamma in [0.0, 0.25, 1.0] {
            for on in ["measure", "sq"] {
                let program = lower_spec(&format!(
                    r#"{{"name": "ad", "bindings": [{{"on": "{on}", "qubits": [0],
                    "rate": {gamma:?}, "channel": {{"kind": "amplitude-damping"}}}}]}}"#
                ));
                assert_eq!(program.kraus_tables.len(), 1, "{on} at {gamma}");
                let grams = &program.kraus_tables[0].grams;
                let g00: f64 = grams.iter().map(|g| g.0).sum();
                let g01 = grams.iter().fold(Complex::ZERO, |acc, g| acc + g.1);
                let g11: f64 = grams.iter().map(|g| g.2).sum();
                for defect in [g00 - 1.0, g01.re, g01.im, g11 - 1.0] {
                    assert!(
                        defect.abs() <= nisq_noise::CPTP_TOLERANCE,
                        "{on} at {gamma}: {grams:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pre_sample_reports_first_error_site() {
        let m = machine();
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure_all();
        let program = TrialProgram::lower(&c, &m, &NoiseModel::full());
        let mut events = Vec::new();
        let mut clean = 0u32;
        let mut with_error = 0u32;
        for trial in 0..512u32 {
            let mut rng = TrialProgram::trial_rng(3, trial);
            match program.pre_sample(&mut events, &mut rng) {
                None => {
                    clean += 1;
                    assert!(events.iter().all(|e| !e.is_error()));
                }
                Some((first, last)) => {
                    with_error += 1;
                    let (first, last) = (first as usize, last as usize);
                    assert!(first <= last);
                    assert!(events[first].is_error() && events[last].is_error());
                    assert!(events[..first].iter().all(|e| !e.is_error()));
                    assert!(events[last + 1..].iter().all(|e| !e.is_error()));
                }
            }
            assert_eq!(events.len(), program.noise_sites().len());
        }
        // At the paper's calibration-derived error rates, both kinds occur.
        assert!(clean > 0, "no error-free trials in 512");
        assert!(with_error > 0, "no error trials in 512");
    }

    #[test]
    fn lowering_compacts_onto_touched_qubits() {
        let mut c = Circuit::with_clbits(16, 16);
        c.h(Qubit(3));
        c.cnot(Qubit(3), Qubit(7));
        c.measure(Qubit(7), nisq_ir::Clbit(0));
        let program = TrialProgram::lower(&c, &machine(), &NoiseModel::ideal());
        assert_eq!(program.num_qubits(), 2);
        assert_eq!(program.touched(), &[3, 7]);
    }

    #[test]
    fn trailing_unmeasured_unitaries_are_dropped() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.measure(Qubit(0), nisq_ir::Clbit(0));
        c.h(Qubit(1)); // dead: qubit 1 is never measured or entangled
        let program = TrialProgram::lower(&c, &machine(), &NoiseModel::ideal());
        assert!(
            !program
                .ops()
                .iter()
                .any(|op| matches!(op, TrialOp::Unitary { qubit, .. } if *qubit == 1)),
            "ops: {:?}",
            program.ops()
        );
    }

    #[test]
    fn fused_replay_matches_gate_by_gate_amplitudes() {
        // The heart of the fusion correctness argument: replaying the fused
        // ideal program produces the same amplitudes as applying every gate
        // of the expanded circuit one by one.
        let m = machine();
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).t(Qubit(0)).s(Qubit(1)).h(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.tdg(Qubit(1)).h(Qubit(2)).rz(Qubit(2), 0.4);
        c.cnot(Qubit(1), Qubit(2));
        c.h(Qubit(0)).h(Qubit(1)).h(Qubit(2));
        // Trailing CNOTs flush every pending fused unitary (unflushed
        // trailing unitaries are dead-gate-eliminated by design).
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        let program = TrialProgram::lower(&c, &m, &NoiseModel::ideal());

        let mut scratch = program.make_scratch();
        let mut rng = TrialProgram::trial_rng(0, 0);
        // No measurements: replay applies only unitaries.
        let _ = program.run_trial(&mut scratch, &mut rng);
        let fused = scratch.state();

        let mut naive = StateVector::new(3);
        for gate in c.iter() {
            match gate.kind() {
                GateKind::Cnot => naive.apply_cnot(gate.qubits()[0].0, gate.qubits()[1].0),
                kind => naive.apply_single(gate.qubits()[0].0, kind),
            }
        }
        for i in 0..naive.len() {
            let (a, b) = (fused.amplitude(i), naive.amplitude(i));
            assert!((a - b).norm_sqr() < 1e-20, "{a} vs {b}");
        }
    }

    #[test]
    fn replay_from_checkpoint_matches_full_replay() {
        // Resuming from an ideally-advanced prefix must be bit-identical to
        // replaying from op 0 with the same pre-sampled events.
        let m = machine();
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).t(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.h(Qubit(2));
        c.cnot(Qubit(1), Qubit(2));
        c.measure_all();
        let program = TrialProgram::lower(&c, &m, &NoiseModel::full());
        let sites = program.noise_sites();
        assert!(!sites.is_empty());

        for trial in 0..256u32 {
            let mut rng = TrialProgram::trial_rng(11, trial);
            let mut events = Vec::new();
            let fired = program.pre_sample(&mut events, &mut rng);
            let Some((first, _)) = fired else { continue };
            let resume_op = sites[first as usize] as usize;

            // Full replay.
            let mut full = program.make_scratch();
            full.reset();
            let mut rng_full = rng.clone();
            let key_full = program.replay_from(&mut full, 0, &events, &mut rng_full);

            // Checkpointed replay: advance ideally to the first error site,
            // then replay the suffix with the events positioned there.
            let mut prefix = program.make_scratch();
            prefix.reset();
            program.advance_ideal(&mut prefix, 0, resume_op);
            let mut rng_ckpt = rng.clone();
            let key_ckpt = program.replay_from(
                &mut prefix,
                resume_op,
                &events[first as usize..],
                &mut rng_ckpt,
            );
            assert_eq!(key_full, key_ckpt, "trial {trial}");
            assert_eq!(rng_full, rng_ckpt, "trial {trial}: draw counts diverged");
        }
    }

    #[test]
    fn trial_rng_is_deterministic_per_trial() {
        use rand::RngCore;
        let mut a = TrialProgram::trial_rng(9, 3);
        let mut b = TrialProgram::trial_rng(9, 3);
        let mut c = TrialProgram::trial_rng(9, 4);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "outside the machine")]
    fn rejects_out_of_machine_qubits() {
        let mut c = Circuit::new(32);
        c.h(Qubit(31));
        let _ = TrialProgram::lower(&c, &machine(), &NoiseModel::ideal());
    }
}
