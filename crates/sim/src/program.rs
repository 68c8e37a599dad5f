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
//! 1. **Pre-sampling** ([`TrialProgram::pre_sample`]): every stochastic
//!    error of the program — depolarizing draws, dephasing draws, the three
//!    CNOT error groups of each SWAP — is drawn *without touching the
//!    state*, in program order, into a flat [`TrialEvent`] buffer. The
//!    index of the first non-identity event (if any) is returned.
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
use crate::clifford::{self, Clifford1Q, SymplecticPauli};
use crate::complex::Complex;
use crate::gates::{single_qubit_matrix, Matrix2};
use crate::noise::{self, NoiseModel, Pauli};
use crate::rng::TrialRng;
use crate::state::StateVector;
use nisq_ir::{Circuit, GateKind};
use nisq_machine::{Calibration, HwQubit, Machine};
use nisq_noise::{Binding, GateSel, NoiseSpec, PauliForm};
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
    /// replay realizes it by relabeling qubit indices — zero state passes —
    /// unless one of the three CNOTs' error draws fires, in which case the
    /// exact interleaved CNOT+error sequence is materialized.
    Swap {
        /// First compact qubit.
        a: u8,
        /// Second compact qubit.
        b: u8,
        /// Noise of the 3-CNOT decomposition; `None` when every channel
        /// relevant to this edge is disabled.
        noise: Option<SwapNoise>,
    },
    /// Stochastic error injection after a single-qubit gate: depolarizing
    /// with probability `p_depol`, then dephasing with `p_dephase`; the two
    /// sampled Paulis are composed (up to global phase) and applied with at
    /// most one kernel pass.
    GateNoise {
        /// Compact qubit index.
        qubit: u8,
        /// Pre-fetched single-qubit depolarizing probability.
        p_depol: f64,
        /// Pre-computed dephasing probability over the gate's duration.
        p_dephase: f64,
    },
    /// Stochastic error injection after a CNOT: two-qubit depolarizing with
    /// probability `p_depol`, then per-qubit dephasing over the CNOT's
    /// calibrated duration.
    CnotNoise {
        /// Compact control index.
        control: u8,
        /// Compact target index.
        target: u8,
        /// Pre-fetched per-edge CNOT depolarizing probability.
        p_depol: f64,
        /// Pre-computed control-qubit dephasing probability.
        p_dephase_control: f64,
        /// Pre-computed target-qubit dephasing probability.
        p_dephase_target: f64,
    },
    /// A Pauli-diagonal channel bound by a [`NoiseSpec`] to a single-qubit
    /// gate (emitted after it) or a measurement (emitted before it): with
    /// probability `p_fire`, one non-identity Pauli drawn from the
    /// cumulative severity weights. Pre-sampled exactly like the built-in
    /// channels, so bound Pauli channels keep the fast tiers and the
    /// tableau backend.
    ChannelNoise {
        /// Compact qubit index.
        qubit: u8,
        /// Probability any error fires at this site.
        p_fire: f64,
        /// P(X | fired).
        cum_x: f64,
        /// P(X or Y | fired); the remainder is Z.
        cum_xy: f64,
    },
    /// A two-qubit depolarizing channel bound by a [`NoiseSpec`] to a CNOT
    /// or SWAP edge (emitted after the gate): with probability `p_fire`, a
    /// uniformly random non-identity Pauli pair.
    ChannelNoise2 {
        /// First compact qubit (CNOT control / SWAP `a`).
        a: u8,
        /// Second compact qubit (CNOT target / SWAP `b`).
        b: u8,
        /// Probability any error fires at this site.
        p_fire: f64,
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

/// Pre-fetched error probabilities for one SWAP's 3-CNOT decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapNoise {
    /// Per-CNOT depolarizing probability on the edge.
    pub p_depol: f64,
    /// Per-CNOT dephasing probability of qubit `a`.
    pub p_dephase_a: f64,
    /// Per-CNOT dephasing probability of qubit `b`.
    pub p_dephase_b: f64,
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

/// One pre-sampled stochastic outcome of a noise site, produced by
/// [`TrialProgram::pre_sample`] and consumed by
/// [`TrialProgram::replay_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEvent {
    /// Every draw of the site came up identity: the site is a no-op on the
    /// state.
    Clean,
    /// Composed (depolarizing ∘ dephasing) Pauli after a single-qubit gate.
    Gate(Pauli),
    /// Composed per-qubit Paulis after a CNOT (control, target).
    Cnot(Pauli, Pauli),
    /// The residual Pauli pair of a noisy SWAP, in program-qubit `(a, b)`
    /// order, to be applied *after* the relabeling.
    ///
    /// The three per-CNOT error pairs of the SWAP's 3-CNOT decomposition
    /// are conjugated through the remaining internal CNOTs at sampling
    /// time (Paulis are closed under CNOT conjugation up to global phase,
    /// which never affects measurement statistics), so even an erroneous
    /// SWAP replays as a zero-pass relabeling plus at most one fused Pauli
    /// per wire — never as three materialized CNOT passes.
    Swap(Pauli, Pauli),
}

impl TrialEvent {
    /// Whether the event perturbs the state.
    pub fn is_error(&self) -> bool {
        !matches!(
            self,
            TrialEvent::Clean
                | TrialEvent::Gate(Pauli::I)
                | TrialEvent::Cnot(Pauli::I, Pauli::I)
                | TrialEvent::Swap(Pauli::I, Pauli::I)
        )
    }
}

/// One Bernoulli gate of the program's flattened error-draw sequence: which
/// noise site (and, for SWAP sites, which internal CNOT group) it belongs
/// to, which channel it gates, and where the site group's draws end.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GatingEntry {
    /// Noise-site index the draw belongs to.
    site: u32,
    /// Internal CNOT group for SWAP sites (0 otherwise).
    swap_k: u8,
    /// Channel: 0 = depolarizing, 1 = first dephasing, 2 = second
    /// dephasing (in the group's draw order).
    sub: u8,
    /// Gating index just past this draw's group — where inversion sampling
    /// resumes after the group is resolved.
    group_end: u32,
    /// The draw's firing probability — used by the sequential fallback
    /// when the survival product has collapsed to zero (a certain-fire
    /// channel earlier in the program).
    prob: f64,
}

/// A physical circuit lowered against one machine snapshot and noise model,
/// ready for cheap repeated trials. See the module docs for what lowering
/// precomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialProgram {
    ops: Vec<TrialOp>,
    /// Op index of every noise site (op that consumes error draws), in
    /// program order — the coordinate system of pre-sampled
    /// [`TrialEvent`]s.
    noise_sites: Vec<u32>,
    /// The flattened Bernoulli-gate sequence of one trial's error pattern,
    /// in draw order (identical for a native-SWAP program and its 3-CNOT
    /// expansion).
    gating: Vec<GatingEntry>,
    /// `survival[i]` = probability that no gate at index `<= i` fires —
    /// the inversion-sampling table that lets [`TrialProgram::pre_sample`]
    /// jump straight to the next firing draw with one uniform.
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
    /// more than 128 classical bits (outcomes are bit-packed in a `u128`),
    /// or touches more qubits than its backend supports: 24 for the dense
    /// state vector (any program), 255 for the stabilizer tableau
    /// (fully-Clifford programs).
    pub fn lower(physical: &Circuit, machine: &Machine, noise: &NoiseModel) -> Self {
        Self::lower_with_spec(physical, machine, noise, None)
    }

    /// Like [`TrialProgram::lower`], additionally lowering the channel
    /// bindings of a declarative [`NoiseSpec`] (validated; binding filters
    /// name *hardware* qubit indices). Pauli-diagonal channels join the
    /// built-in channels in the pre-sampled gating table, so a Pauli-only
    /// spec keeps every fast tier and the tableau backend; amplitude
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
            physical.num_clbits() <= 128,
            "trial outcomes are bit-packed; at most 128 classical bits are supported"
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

        // Per-qubit noise parameters, fetched once.
        let p_depol_1q: Vec<f64> = touched
            .iter()
            .map(|&hw| {
                if noise.single_qubit_noise {
                    calibration.single_qubit_error(HwQubit(hw))
                } else {
                    0.0
                }
            })
            .collect();
        let p_dephase_1q: Vec<f64> = touched
            .iter()
            .map(|&hw| {
                if noise.decoherence {
                    calibration.dephasing_probability(HwQubit(hw), single_slots)
                } else {
                    0.0
                }
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
        };

        // Pre-fetched noise of one physical CNOT on the edge `(hw_a, hw_b)`:
        // depolarizing probability plus per-endpoint dephasing over the
        // edge's calibrated duration. Shared by the CNOT and SWAP arms so
        // their fallbacks can never diverge. Returns `None` when every
        // probability is zero (no noise op needs emitting).
        let edge_noise = |hw_a: usize, hw_b: usize| -> Option<(f64, f64, f64)> {
            if !noise.cnot_noise && !noise.decoherence {
                return None;
            }
            let params = calibration.edge_params(HwQubit(hw_a), HwQubit(hw_b));
            let p_depol = if noise.cnot_noise {
                params.map_or(mean_cnot_error, |p| p.cnot_error)
            } else {
                0.0
            };
            let slots = params
                .and_then(|p| p.cnot_slots)
                .unwrap_or(DEFAULT_CNOT_SLOTS);
            let (p_da, p_db) = if noise.decoherence {
                (
                    calibration.dephasing_probability(HwQubit(hw_a), slots),
                    calibration.dephasing_probability(HwQubit(hw_b), slots),
                )
            } else {
                (0.0, 0.0)
            };
            (p_depol > 0.0 || p_da > 0.0 || p_db > 0.0).then_some((p_depol, p_da, p_db))
        };

        // Declarative spec bindings. Filters name hardware qubit indices;
        // calibration-referencing rates resolve against the same tables the
        // built-in model reads, independent of the `NoiseModel` toggles
        // (bound channels are additive, not gated by them).
        let bindings: &[Binding] = spec.map_or(&[][..], |s| s.bindings());
        let mut kraus_tables: Vec<KrausTable> = Vec::new();
        // The calibrated rate a cnot/swap binding's `{"calibration": f}`
        // scales: the edge's CNOT error, mean fallback as in `edge_noise`.
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
                    if let Some((p_depol, p_dc, p_dt)) = edge_noise(hw_c, hw_t) {
                        lowering.ops.push(TrialOp::CnotNoise {
                            control: c,
                            target: t,
                            p_depol,
                            p_dephase_control: p_dc,
                            p_dephase_target: p_dt,
                        });
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
                    let swap_noise =
                        edge_noise(hw_a, hw_b).map(|(p_depol, p_da, p_db)| SwapNoise {
                            p_depol,
                            p_dephase_a: p_da,
                            p_dephase_b: p_db,
                        });
                    // Flush so the emitted op order matches program order;
                    // at *runtime* unitaries still cross relabeling swaps
                    // cheaply, because TrialScratch's pending matrices
                    // travel with the relabeling.
                    lowering.flush(a);
                    lowering.flush(b);
                    lowering.ops.push(TrialOp::Swap {
                        a,
                        b,
                        noise: swap_noise,
                    });
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
                    let p_depol = p_depol_1q[usize::from(q)];
                    let p_dephase = p_dephase_1q[usize::from(q)];
                    if p_depol > 0.0 || p_dephase > 0.0 {
                        lowering.flush(q);
                        lowering.ops.push(TrialOp::GateNoise {
                            qubit: q,
                            p_depol,
                            p_dephase,
                        });
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

        let mut ops = lowering.ops;
        sink_measures(&mut ops);

        let noise_sites: Vec<u32> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                matches!(
                    op,
                    TrialOp::GateNoise { .. }
                        | TrialOp::CnotNoise { .. }
                        | TrialOp::Swap { noise: Some(_), .. }
                        | TrialOp::ChannelNoise { .. }
                        | TrialOp::ChannelNoise2 { .. }
                )
            })
            .map(|(i, _)| i as u32)
            .collect();

        // Flatten every stochastic channel into the trial's Bernoulli-gate
        // sequence and its running survival product. Draw order matches the
        // sequential sampling of one trial exactly (per group: depolarizing
        // gate, then each non-zero dephasing gate), so a native-SWAP
        // program and its 3-CNOT expansion produce identical tables.
        let mut gating: Vec<GatingEntry> = Vec::new();
        let mut survival: Vec<f64> = Vec::new();
        let mut alive = 1.0f64;
        for (site, &op_index) in noise_sites.iter().enumerate() {
            let mut push_group = |gating: &mut Vec<GatingEntry>,
                                  survival: &mut Vec<f64>,
                                  swap_k: u8,
                                  probs: [f64; 3]| {
                let start = gating.len();
                for (sub, &p) in probs.iter().enumerate() {
                    if p > 0.0 {
                        let prob = p.clamp(0.0, 1.0);
                        gating.push(GatingEntry {
                            site: site as u32,
                            swap_k,
                            sub: sub as u8,
                            group_end: 0,
                            prob,
                        });
                        alive *= 1.0 - prob;
                        survival.push(alive);
                    }
                }
                let end = gating.len() as u32;
                for entry in &mut gating[start..] {
                    entry.group_end = end;
                }
            };
            match ops[op_index as usize] {
                TrialOp::GateNoise {
                    p_depol, p_dephase, ..
                } => push_group(&mut gating, &mut survival, 0, [p_depol, p_dephase, 0.0]),
                TrialOp::CnotNoise {
                    p_depol,
                    p_dephase_control,
                    p_dephase_target,
                    ..
                } => push_group(
                    &mut gating,
                    &mut survival,
                    0,
                    [p_depol, p_dephase_control, p_dephase_target],
                ),
                TrialOp::ChannelNoise { p_fire, .. } => {
                    push_group(&mut gating, &mut survival, 0, [p_fire, 0.0, 0.0])
                }
                TrialOp::ChannelNoise2 { p_fire, .. } => {
                    push_group(&mut gating, &mut survival, 0, [p_fire, 0.0, 0.0])
                }
                TrialOp::Swap {
                    noise: Some(ref n), ..
                } => {
                    for k in 0..3u8 {
                        // The middle CNOT runs reversed, so its dephasing
                        // draws come in (b, a) order.
                        let (p_first, p_second) = if k == 1 {
                            (n.p_dephase_b, n.p_dephase_a)
                        } else {
                            (n.p_dephase_a, n.p_dephase_b)
                        };
                        push_group(
                            &mut gating,
                            &mut survival,
                            k,
                            [n.p_depol, p_first, p_second],
                        );
                    }
                }
                _ => unreachable!("noise_sites point at stochastic ops"),
            }
        }

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
            gating,
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

    /// Op index of every noise site (op that consumes error draws), in
    /// program order. Pre-sampled [`TrialEvent`]s use positions in this
    /// list as their coordinates.
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
    /// noise site). Returns the index of the first error event, or `None`
    /// for an error-free trial.
    ///
    /// Instead of one Bernoulli draw per stochastic channel, the position
    /// of the next *firing* draw is inversion-sampled from the precomputed
    /// survival table with a single uniform (then the firing group is
    /// resolved with its severity draws, and sampling resumes past it).
    /// An error-free trial — the overwhelmingly common case at calibrated
    /// error rates — costs exactly one uniform draw, independent of
    /// program length.
    ///
    /// The draws consumed here are a prefix of the trial's RNG stream; the
    /// replay phase continues from the same `rng`. A native-SWAP program
    /// and its 3-CNOT expansion share identical gating tables and resolve
    /// groups with identical draw sequences, so the two remain bit-for-bit
    /// interchangeable.
    pub fn pre_sample<R: Rng + ?Sized>(
        &self,
        events: &mut Vec<TrialEvent>,
        rng: &mut R,
    ) -> Option<u32> {
        events.clear();
        events.resize(self.noise_sites.len(), TrialEvent::Clean);
        let mut fired_any = false;
        let mut cursor = 0usize; // next gating index to consider
        while cursor < self.gating.len() {
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
                // channel, or underflow on an extreme program): the
                // conditional distribution is no longer resolvable from
                // the products, so fall back to one Bernoulli per
                // remaining gate.
                let mut j = cursor;
                while j < self.gating.len() && !rng.gen_bool(self.gating[j].prob) {
                    j += 1;
                }
                j
            };
            if j >= self.gating.len() {
                break;
            }
            fired_any = true;
            let entry = self.gating[j];
            self.resolve_fire(events, entry, rng);
            cursor = entry.group_end as usize;
        }
        if !fired_any {
            return None;
        }
        // A fired draw is never the identity, but a SWAP residual can
        // cancel across the site's groups — scan for the first event that
        // actually perturbs the state.
        events
            .iter()
            .position(TrialEvent::is_error)
            .map(|i| i as u32)
    }

    /// Resolves the group of a fired gating draw: draws its severity (the
    /// depolarizing Pauli choice) and the group's remaining dephasing
    /// gates sequentially — the exact draws sequential sampling would make
    /// past the firing point — and writes the group's contribution into
    /// `events`.
    fn resolve_fire<R: Rng + ?Sized>(
        &self,
        events: &mut [TrialEvent],
        entry: GatingEntry,
        rng: &mut R,
    ) {
        let site = entry.site as usize;
        match self.ops[self.noise_sites[site] as usize] {
            TrialOp::GateNoise { p_dephase, .. } => {
                let composed = if entry.sub == 0 {
                    noise::fired_depol_1q(rng).compose(sample_dephase(p_dephase, rng))
                } else {
                    Pauli::Z
                };
                events[site] = TrialEvent::Gate(composed);
            }
            TrialOp::CnotNoise {
                p_dephase_control,
                p_dephase_target,
                ..
            } => {
                let (ec, et) = resolve_group(entry.sub, p_dephase_control, p_dephase_target, rng);
                events[site] = TrialEvent::Cnot(ec, et);
            }
            TrialOp::ChannelNoise { cum_x, cum_xy, .. } => {
                // One severity uniform against the cumulative X/Y/Z weights
                // (drawn even for degenerate single-Pauli channels, keeping
                // the draw count independent of the weights).
                let u: f64 = rng.gen();
                let pauli = if u < cum_x {
                    Pauli::X
                } else if u < cum_xy {
                    Pauli::Y
                } else {
                    Pauli::Z
                };
                events[site] = TrialEvent::Gate(pauli);
            }
            TrialOp::ChannelNoise2 { .. } => {
                let (pa, pb) = noise::fired_depol_2q(rng);
                events[site] = TrialEvent::Cnot(pa, pb);
            }
            TrialOp::Swap {
                noise: Some(ref n), ..
            } => {
                let k = entry.swap_k;
                // The middle CNOT runs reversed: control is wire `b`.
                let (p_first, p_second) = if k == 1 {
                    (n.p_dephase_b, n.p_dephase_a)
                } else {
                    (n.p_dephase_a, n.p_dephase_b)
                };
                let (e_control, e_target) = resolve_group(entry.sub, p_first, p_second, rng);
                let (e_a, e_b) = if k == 1 {
                    (e_target, e_control)
                } else {
                    (e_control, e_target)
                };
                // Conjugate the group's pair through the SWAP's remaining
                // internal CNOTs (U_2 = cnot(b,a), U_3 = cnot(a,b)), then
                // compose onto the site's residual — Pauli composition is
                // XOR in symplectic bits, so per-group contributions
                // combine independently of firing order. Wire `a` is
                // tableau qubit 0, wire `b` qubit 1.
                let mut contribution = SymplecticPauli::IDENTITY;
                contribution.compose(0, e_a);
                contribution.compose(1, e_b);
                if k == 0 {
                    contribution.conjugate_cnot(1, 0);
                    contribution.conjugate_cnot(0, 1);
                } else if k == 1 {
                    contribution.conjugate_cnot(0, 1);
                }
                if let TrialEvent::Swap(ra, rb) = events[site] {
                    contribution.compose(0, ra);
                    contribution.compose(1, rb);
                }
                events[site] = TrialEvent::Swap(contribution.pauli_on(0), contribution.pauli_on(1));
            }
            _ => unreachable!("noise_sites point at stochastic ops"),
        }
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
        let mut site = 0usize;
        let mut clbits = 0u128;
        for op in &self.ops[start_op..] {
            match *op {
                TrialOp::Unitary { qubit, ref matrix } => {
                    backend.fuse_unitary(qubit, matrix);
                }
                TrialOp::Cnot { control, target } => {
                    backend.cnot(control, target);
                }
                TrialOp::Swap { a, b, ref noise } => {
                    let event = if noise.is_some() {
                        let e = events[site];
                        site += 1;
                        e
                    } else {
                        TrialEvent::Clean
                    };
                    // Every SWAP — noisy or not — is a zero-pass
                    // relabeling; a sampled error only injects the residual
                    // (pre-conjugated) Pauli pair onto the relabeled wires.
                    backend.swap_relabel(a, b);
                    match event {
                        TrialEvent::Clean => {}
                        TrialEvent::Swap(ra, rb) => {
                            backend.inject_pauli(a, ra);
                            backend.inject_pauli(b, rb);
                        }
                        other => unreachable!("swap site pre-sampled {other:?}"),
                    }
                }
                TrialOp::GateNoise { qubit, .. } => {
                    let event = events[site];
                    site += 1;
                    if let TrialEvent::Gate(pauli) = event {
                        backend.inject_pauli(qubit, pauli);
                    }
                }
                TrialOp::CnotNoise {
                    control, target, ..
                } => {
                    let event = events[site];
                    site += 1;
                    if let TrialEvent::Cnot(pc, pt) = event {
                        backend.inject_pauli(control, pc);
                        backend.inject_pauli(target, pt);
                    }
                }
                TrialOp::ChannelNoise { qubit, .. } => {
                    let event = events[site];
                    site += 1;
                    if let TrialEvent::Gate(pauli) = event {
                        backend.inject_pauli(qubit, pauli);
                    }
                }
                TrialOp::ChannelNoise2 { a, b, .. } => {
                    let event = events[site];
                    site += 1;
                    if let TrialEvent::Cnot(pa, pb) = event {
                        backend.inject_pauli(a, pa);
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
                TrialOp::Swap { a, b, .. } => backend.swap_relabel(a, b),
                TrialOp::GateNoise { .. }
                | TrialOp::CnotNoise { .. }
                | TrialOp::ChannelNoise { .. }
                | TrialOp::ChannelNoise2 { .. } => {}
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

    /// Resizes the scratch for a program of `num_qubits` qubits (growing
    /// buffers only when needed) and resets it — so one pooled scratch
    /// serves programs of different widths without reallocation.
    pub fn ensure(&mut self, num_qubits: usize) {
        if self.state.num_qubits() != num_qubits {
            self.state.resize_for(num_qubits);
            self.pending.resize(num_qubits, None);
            self.perm.resize(num_qubits, 0);
        }
        self.reset();
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

    /// Materializes the pending matrices of two distinct qubits — `a`'s
    /// first — in one state traversal when both are pending and
    /// general-shaped, halving the memory traffic of the back-to-back
    /// flushes in front of every two-qubit gate. Falls back to sequential
    /// flushes otherwise (diagonal/anti-diagonal matrices have their own
    /// specialized single-wire kernels). Bitwise identical to
    /// `flush(a); flush(b)`: the fused kernel evaluates the same two pair
    /// updates, in the same order, on the same intermediate values — they
    /// just stay in registers instead of round-tripping through memory.
    pub(crate) fn flush_two(&mut self, a: u8, b: u8) {
        let (ia, ib) = (usize::from(a), usize::from(b));
        if let (Some(ma), Some(mb)) = (self.pending[ia], self.pending[ib]) {
            if crate::state::is_general_shape(&ma) && crate::state::is_general_shape(&mb) {
                self.pending[ia] = None;
                self.pending[ib] = None;
                self.state.apply_two_matrices(
                    usize::from(self.perm[ia]),
                    &ma,
                    usize::from(self.perm[ib]),
                    &mb,
                );
                return;
            }
        }
        self.flush(a);
        self.flush(b);
    }

    /// Materializes the pending matrices of a terminal run of measurements,
    /// pairing consecutive pending wires into fused two-wire passes (same
    /// kernel and same guarantees as [`Self::flush_two`]; flush order is
    /// the measure order, so the result is bitwise identical to flushing
    /// one wire at a time).
    pub(crate) fn flush_terminal(&mut self, measures: &[(u8, u8, f64)]) {
        let mut carry: Option<u8> = None;
        for &(qubit, _, _) in measures {
            let iq = usize::from(qubit);
            let Some(matrix) = self.pending[iq] else {
                continue;
            };
            match carry {
                None if crate::state::is_general_shape(&matrix) => carry = Some(qubit),
                None => self.flush(qubit),
                // A re-measured qubit meets its own delayed flush: one
                // flush, exactly what the sequential order would have done.
                Some(held) if held == qubit => {
                    self.flush(held);
                    carry = None;
                }
                Some(held) => {
                    self.flush_two(held, qubit);
                    carry = None;
                }
            }
        }
        if let Some(held) = carry {
            self.flush(held);
        }
    }

    /// Materializes the pending matrix of `qubit` and returns the
    /// probability of measuring it as 1, fusing the flush pass with the
    /// probability read (bit-identical to `flush` + `probability_one`).
    pub(crate) fn flush_and_p1(&mut self, qubit: u8) -> f64 {
        let slot = usize::from(self.perm[usize::from(qubit)]);
        match self.pending[usize::from(qubit)].take() {
            Some(matrix) => self.state.apply_matrix_measure(slot, &matrix),
            None => self.state.probability_one(slot),
        }
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
    fn reset_state(&mut self) {
        self.reset();
    }

    fn fuse_unitary(&mut self, qubit: u8, matrix: &Matrix2) {
        self.fuse(qubit, matrix);
    }

    fn inject_pauli(&mut self, qubit: u8, pauli: Pauli) {
        self.fuse_pauli(qubit, pauli);
    }

    fn cnot(&mut self, control: u8, target: u8) {
        self.flush_two(control, target);
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

    fn save_into(&self, checkpoint: &mut Self) {
        checkpoint.copy_from(self);
    }

    fn restore_from(&mut self, checkpoint: &Self) {
        self.copy_from(checkpoint);
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

/// Accumulates ops while fusing runs of single-qubit unitaries per qubit.
struct Lowering {
    ops: Vec<TrialOp>,
    pending: Vec<Option<Matrix2>>,
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
/// calibrated error rate is `calibrated`. Pauli-diagonalizable channels
/// become a pre-samplable [`TrialOp::ChannelNoise`] gate (the fast tiers
/// keep working); amplitude damping and general Kraus channels take the
/// wire's pending unitary with them (`A_k = K_k · U`, one fused pass) and
/// become a state-dependent [`TrialOp::KrausChannel`].
fn emit_1q_channel(
    lowering: &mut Lowering,
    kraus_tables: &mut Vec<KrausTable>,
    binding: &Binding,
    qubit: u8,
    calibrated: f64,
) {
    let channel = binding.channel_at(calibrated);
    match channel.pauli_form() {
        Some(PauliForm::One { p_fire, wx, wy, .. }) => {
            if p_fire > 0.0 {
                // Flush so the error lands *after* the gate it is bound to
                // (pending unitaries would otherwise materialize later in
                // the op stream, inverting the order).
                lowering.flush(qubit);
                lowering.ops.push(TrialOp::ChannelNoise {
                    qubit,
                    p_fire: p_fire.clamp(0.0, 1.0),
                    cum_x: wx,
                    cum_xy: wx + wy,
                });
            }
        }
        Some(PauliForm::TwoUniform { .. }) => {
            unreachable!("spec validation restricts two-qubit shapes to cnot/swap bindings")
        }
        None => {
            let kraus = channel
                .kraus_ops()
                .expect("non-Pauli channels expose Kraus operators");
            let fused = lowering.pending[usize::from(qubit)].take();
            let ops: Vec<Matrix2> = kraus
                .iter()
                .map(|k| {
                    let m = [
                        Complex::new(k[0].0, k[0].1),
                        Complex::new(k[1].0, k[1].1),
                        Complex::new(k[2].0, k[2].1),
                        Complex::new(k[3].0, k[3].1),
                    ];
                    match &fused {
                        Some(u) => matmul(&m, u),
                        None => m,
                    }
                })
                .collect();
            let table = intern_kraus(kraus_tables, ops);
            lowering.ops.push(TrialOp::KrausChannel { qubit, table });
        }
    }
}

/// Emits the trial op realizing one cnot/swap binding on the (compact)
/// wire pair. Spec validation guarantees the bound shape is two-qubit
/// depolarizing — always pre-samplable.
fn emit_2q_channel(lowering: &mut Lowering, binding: &Binding, a: u8, b: u8, calibrated: f64) {
    match binding.channel_at(calibrated).pauli_form() {
        Some(PauliForm::TwoUniform { p_fire }) => {
            if p_fire > 0.0 {
                lowering.ops.push(TrialOp::ChannelNoise2 {
                    a,
                    b,
                    p_fire: p_fire.clamp(0.0, 1.0),
                });
            }
        }
        _ => unreachable!("spec validation restricts cnot/swap bindings to depolarizing-2q"),
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
            | TrialOp::GateNoise { qubit, .. }
            | TrialOp::ChannelNoise { qubit, .. }
            | TrialOp::KrausChannel { qubit, .. } => {
                mark(&mut used_later, qubit);
            }
            TrialOp::Measure { qubit, .. } => {
                mark(&mut used_later, qubit);
            }
            TrialOp::Cnot { control, target }
            | TrialOp::CnotNoise {
                control, target, ..
            } => {
                mark(&mut used_later, control);
                mark(&mut used_later, target);
            }
            TrialOp::Swap { a, b, .. } | TrialOp::ChannelNoise2 { a, b, .. } => {
                mark(&mut used_later, a);
                mark(&mut used_later, b);
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

pub(crate) fn sample_dephase<R: Rng + ?Sized>(p: f64, rng: &mut R) -> Pauli {
    if p > 0.0 && rng.gen_bool(p) {
        Pauli::Z
    } else {
        Pauli::I
    }
}

/// Resolves one two-qubit noise group — a depolarizing gate followed by a
/// control and a target dephasing gate — given which of the three fired
/// first: the fired gate's severity plus the group's remaining gates are
/// drawn sequentially, gates before the fired one are known identity.
fn resolve_group<R: Rng + ?Sized>(
    sub: u8,
    p_dephase_control: f64,
    p_dephase_target: f64,
    rng: &mut R,
) -> (Pauli, Pauli) {
    match sub {
        0 => {
            let (pc, pt) = noise::fired_depol_2q(rng);
            let dc = sample_dephase(p_dephase_control, rng);
            let dt = sample_dephase(p_dephase_target, rng);
            (pc.compose(dc), pt.compose(dt))
        }
        1 => (Pauli::Z, sample_dephase(p_dephase_target, rng)),
        _ => (Pauli::I, Pauli::Z),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .any(|op| matches!(op, TrialOp::GateNoise { .. } | TrialOp::CnotNoise { .. })));
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
            .any(|op| matches!(op, TrialOp::CnotNoise { .. })));
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
        for op in program.ops() {
            match op {
                TrialOp::GateNoise {
                    p_depol, p_dephase, ..
                } => {
                    assert!(*p_depol > 0.0 && *p_depol < 1.0);
                    assert!(*p_dephase > 0.0 && *p_dephase < 0.5);
                }
                TrialOp::CnotNoise { p_depol, .. } => {
                    assert!(*p_depol > 0.0 && *p_depol < 1.0);
                }
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
                TrialOp::GateNoise { .. }
                    | TrialOp::CnotNoise { .. }
                    | TrialOp::Swap { noise: Some(_), .. }
            ));
        }
        let stochastic = program
            .ops()
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    TrialOp::GateNoise { .. }
                        | TrialOp::CnotNoise { .. }
                        | TrialOp::Swap { noise: Some(_), .. }
                )
            })
            .count();
        assert_eq!(program.noise_sites().len(), stochastic);
        assert!(stochastic >= 3, "ops: {:?}", program.ops());
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
                Some(first) => {
                    with_error += 1;
                    assert!(events[first as usize].is_error());
                    assert!(events[..first as usize].iter().all(|e| !e.is_error()));
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
            let first = program.pre_sample(&mut events, &mut rng);
            let Some(first) = first else { continue };
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
