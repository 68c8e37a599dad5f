//! Synthetic calibration generation.
//!
//! The paper drives its compiler with IBM's daily calibration logs. Those
//! logs are not available offline, so this module generates statistically
//! matched snapshots: the published averages (T2 ≈ 70 µs, CNOT error ≈ 0.04,
//! readout error ≈ 0.07, single-qubit error ≈ 0.002), their spatial spread
//! across qubits/edges (up to ~9× for T2 and CNOT error, ~6× for readout)
//! and day-to-day drift (Figure 1), including the occasional very unreliable
//! edge visible in Figure 1b.
//!
//! Each hardware element gets a persistent "quality" factor (so good qubits
//! stay good across days, as on the real machine) multiplied by a daily
//! fluctuation, both derived deterministically from the generator seed.

use crate::calibration::{Calibration, EdgeId, GateDurations};
use crate::topology::Topology;
use crate::TIMESLOT_NS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

// Target statistics of generated calibration data: the IBMQ16 values
// reported in Section 2 of the paper.

/// Mean qubit coherence time T2 in microseconds.
const MEAN_T2_US: f64 = 70.0;
/// Mean CNOT gate error rate.
const MEAN_CNOT_ERROR: f64 = 0.04;
/// Mean readout error rate.
const MEAN_READOUT_ERROR: f64 = 0.07;
/// Mean single-qubit gate error rate.
const MEAN_SINGLE_QUBIT_ERROR: f64 = 0.002;
/// Baseline CNOT duration in timeslots (durations vary ~1.8x per edge).
const BASE_CNOT_SLOTS: f64 = 4.4;
/// Probability that an edge has an outlier "bad day" with a very high CNOT
/// error rate (the spikes of Figure 1b).
const BAD_EDGE_PROBABILITY: f64 = 0.04;

/// Deterministic generator of daily [`Calibration`] snapshots for a given
/// topology and seed. Works for **any** [`Topology`] (grids, rings,
/// heavy-hex lattices): the statistics are per-qubit and per-edge, so the
/// coupling graph alone determines the snapshot's shape.
///
/// # Example
///
/// ```
/// use nisq_machine::{CalibrationGenerator, Topology};
///
/// let generator = CalibrationGenerator::new(Topology::ibmq16(), 7);
/// let monday = generator.day(0);
/// let tuesday = generator.day(1);
/// assert_ne!(monday, tuesday);
/// // Calling again for the same day gives the identical snapshot.
/// assert_eq!(monday, generator.day(0));
///
/// // Any topology works, e.g. a 12-qubit ring:
/// let ring = CalibrationGenerator::new(Topology::ring(12), 7).day(0);
/// assert_eq!(ring.num_qubits(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct CalibrationGenerator {
    topology: Topology,
    seed: u64,
}

/// Domain separators for the per-element random streams.
const STREAM_SPATIAL: u64 = 0x51;
const STREAM_TEMPORAL: u64 = 0x7e;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn mix(seed: u64, stream: u64, day: u64, element: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ stream) ^ day.wrapping_mul(0x9e37)) ^ element)
}

/// Samples a log-normal factor with median 1 and the given log-space sigma,
/// clamped to `[lo, hi]`.
fn lognormal_factor(rng: &mut StdRng, sigma: f64, lo: f64, hi: f64) -> f64 {
    // Box-Muller transform from two uniforms.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * normal).exp().clamp(lo, hi)
}

impl CalibrationGenerator {
    /// Creates a generator with the paper's default statistics.
    pub fn new(topology: impl Into<Topology>, seed: u64) -> Self {
        CalibrationGenerator {
            topology: topology.into(),
            seed,
        }
    }

    /// The topology this generator produces calibrations for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn spatial_rng(&self, element: u64) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, STREAM_SPATIAL, 0, element))
    }

    fn temporal_rng(&self, day: usize, element: u64) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, STREAM_TEMPORAL, day as u64, element))
    }

    /// Generates the calibration snapshot for a given day index.
    pub fn day(&self, day: usize) -> Calibration {
        let n = self.topology.num_qubits();
        let mut t1_us = Vec::with_capacity(n);
        let mut t2_us = Vec::with_capacity(n);
        let mut readout_error = Vec::with_capacity(n);
        let mut single_qubit_error = Vec::with_capacity(n);

        for q in 0..n {
            let mut spatial = self.spatial_rng(q as u64);
            let mut temporal = self.temporal_rng(day, q as u64);

            // T2: persistent quality times daily drift, clamped to the range
            // observed in Figure 1a (roughly 15-130 us).
            let t2 = (MEAN_T2_US
                * lognormal_factor(&mut spatial, 0.45, 0.3, 1.7)
                * lognormal_factor(&mut temporal, 0.25, 0.55, 1.7))
            .clamp(14.0, 135.0);
            t2_us.push(t2);
            // T1 is loosely correlated with T2 and not used by the mapper;
            // keep it in the snapshot for completeness.
            t1_us.push(t2 * spatial.gen_range(0.9..1.6));

            let ro = (MEAN_READOUT_ERROR
                * lognormal_factor(&mut spatial, 0.40, 0.3, 2.6)
                * lognormal_factor(&mut temporal, 0.25, 0.55, 1.8))
            .clamp(0.015, 0.35);
            readout_error.push(ro);

            let sq = (MEAN_SINGLE_QUBIT_ERROR
                * lognormal_factor(&mut spatial, 0.30, 0.4, 2.0)
                * lognormal_factor(&mut temporal, 0.20, 0.6, 1.6))
            .clamp(5e-4, 1e-2);
            single_qubit_error.push(sq);
        }

        let mut cnot_error = BTreeMap::new();
        let mut cnot_slots = BTreeMap::new();
        for (i, &(a, b)) in self.topology.edges().iter().enumerate() {
            let edge = EdgeId::new(a, b);
            let element = 1_000 + i as u64;
            let mut spatial = self.spatial_rng(element);
            let mut temporal = self.temporal_rng(day, element);

            let mut err = MEAN_CNOT_ERROR
                * lognormal_factor(&mut spatial, 0.50, 0.28, 2.6)
                * lognormal_factor(&mut temporal, 0.30, 0.5, 2.0);
            // Occasional very unreliable edge (Figure 1b shows spikes with
            // error rates of 0.15-0.35).
            if temporal.gen_bool(BAD_EDGE_PROBABILITY) {
                err *= temporal.gen_range(3.0..6.0);
            }
            cnot_error.insert(edge, err.clamp(0.008, 0.35));

            // CNOT durations vary ~1.8x across edges but are stable in time.
            let slots = (BASE_CNOT_SLOTS * spatial.gen_range(0.72..1.32)).round() as u32;
            cnot_slots.insert(edge, slots.max(2));
        }

        Calibration {
            day,
            t1_us,
            t2_us,
            readout_error,
            single_qubit_error,
            cnot_error,
            durations: GateDurations {
                single_qubit_slots: 1,
                readout_slots: 4,
                cnot_slots,
            },
            timeslot_ns: TIMESLOT_NS,
        }
    }

    /// Generates the first `n` daily snapshots.
    pub fn days(&self, n: usize) -> Vec<Calibration> {
        (0..n).map(|d| self.day(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> CalibrationGenerator {
        CalibrationGenerator::new(Topology::ibmq16(), 2024)
    }

    #[test]
    fn snapshots_are_deterministic() {
        let g = generator();
        assert_eq!(g.day(3), g.day(3));
        assert_eq!(g.days(2), g.days(2));
    }

    #[test]
    fn different_days_differ() {
        let g = generator();
        assert_ne!(g.day(0), g.day(1));
    }

    #[test]
    fn different_seeds_differ() {
        let t = Topology::ibmq16();
        let a = CalibrationGenerator::new(t.clone(), 1).day(0);
        let b = CalibrationGenerator::new(t, 2).day(0);
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_validates_against_topology() {
        let g = generator();
        let c = g.day(0);
        assert!(c.validate(g.topology()).is_ok());
    }

    #[test]
    fn long_run_averages_match_paper_statistics() {
        let g = generator();
        let days = g.days(30);
        let mean_t2: f64 = days.iter().map(|c| c.mean_t2_us()).sum::<f64>() / 30.0;
        let mean_cnot: f64 = days.iter().map(|c| c.mean_cnot_error()).sum::<f64>() / 30.0;
        let mean_ro: f64 = days.iter().map(|c| c.mean_readout_error()).sum::<f64>() / 30.0;
        assert!((50.0..95.0).contains(&mean_t2), "mean T2 was {mean_t2}");
        assert!(
            (0.025..0.065).contains(&mean_cnot),
            "mean CNOT error was {mean_cnot}"
        );
        assert!(
            (0.045..0.105).contains(&mean_ro),
            "mean readout error was {mean_ro}"
        );
    }

    #[test]
    fn spatial_and_temporal_variation_is_large() {
        let g = generator();
        let days = g.days(30);
        let mut min_cnot = f64::INFINITY;
        let mut max_cnot: f64 = 0.0;
        let mut min_t2 = f64::INFINITY;
        let mut max_t2: f64 = 0.0;
        for c in &days {
            for &e in c.cnot_error.values() {
                min_cnot = min_cnot.min(e);
                max_cnot = max_cnot.max(e);
            }
            for &t in &c.t2_us {
                min_t2 = min_t2.min(t);
                max_t2 = max_t2.max(t);
            }
        }
        // The paper reports up to 9x variation for both quantities.
        assert!(
            max_cnot / min_cnot > 3.0,
            "cnot ratio {}",
            max_cnot / min_cnot
        );
        assert!(max_t2 / min_t2 > 3.0, "t2 ratio {}", max_t2 / min_t2);
    }

    #[test]
    fn qubit_quality_persists_across_days() {
        // Spatial factors are persistent: the best qubit on day 0 should
        // still be above-average on day 1 most of the time. We check a rank
        // correlation proxy: the qubit with max T2 on day 0 stays in the top
        // half on day 1.
        let g = generator();
        let d0 = g.day(0);
        let d1 = g.day(1);
        let best0 = (0..16)
            .max_by(|&a, &b| d0.t2_us[a].partial_cmp(&d0.t2_us[b]).unwrap())
            .unwrap();
        let mut ranked: Vec<usize> = (0..16).collect();
        ranked.sort_by(|&a, &b| d1.t2_us[b].partial_cmp(&d1.t2_us[a]).unwrap());
        let rank = ranked.iter().position(|&q| q == best0).unwrap();
        assert!(rank < 8, "best qubit fell to rank {rank}");
    }

    #[test]
    fn cnot_durations_vary_across_edges_but_not_days() {
        let g = generator();
        let d0 = g.day(0);
        let d5 = g.day(5);
        assert_eq!(d0.durations.cnot_slots, d5.durations.cnot_slots);
        let min = d0.durations.cnot_slots.values().min().unwrap();
        let max = d0.durations.cnot_slots.values().max().unwrap();
        assert!(max > min, "expected some variation in CNOT durations");
    }

    #[test]
    fn coherence_window_fits_nisq_benchmarks() {
        // The paper notes the worst qubit still has > 300 timeslots of
        // coherence, comfortably above benchmark durations (~150 slots).
        let g = generator();
        for c in g.days(10) {
            assert!(c.worst_t2_slots() > 150, "worst T2 {}", c.worst_t2_slots());
        }
    }

    #[test]
    fn error_rates_stay_in_unit_interval() {
        let g = generator();
        for c in g.days(20) {
            for &e in c.cnot_error.values() {
                assert!(e > 0.0 && e < 0.5);
            }
            for &e in &c.readout_error {
                assert!(e > 0.0 && e < 0.5);
            }
            for &e in &c.single_qubit_error {
                assert!(e > 0.0 && e < 0.05);
            }
        }
    }
}
