use crate::calibration::Calibration;
use crate::error::MachineError;
use crate::generator::CalibrationGenerator;
use crate::reliability::ReliabilityModel;
use crate::topology::{Topology, TopologySpec};
use std::fmt;

/// A target machine: a topology plus the calibration snapshot the compiler
/// adapts to, bundled with the derived reliability model.
///
/// # Example
///
/// ```
/// use nisq_machine::Machine;
///
/// let machine = Machine::ibmq16_on_day(42, 0);
/// assert_eq!(machine.topology().num_qubits(), 16);
/// assert!(machine.calibration().mean_cnot_error() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    topology: Topology,
    calibration: Calibration,
    reliability: ReliabilityModel,
}

impl Machine {
    /// Creates a machine from a topology and calibration snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the calibration does not cover the topology; use
    /// [`Machine::try_new`] to handle that case as an error.
    pub fn new(name: impl Into<String>, topology: Topology, calibration: Calibration) -> Self {
        Machine::try_new(name, topology, calibration).expect("calibration must cover the topology")
    }

    /// Creates a machine, validating that the calibration covers the
    /// topology.
    ///
    /// # Errors
    ///
    /// Returns an error if the calibration and topology disagree.
    pub fn try_new(
        name: impl Into<String>,
        topology: Topology,
        calibration: Calibration,
    ) -> Result<Self, MachineError> {
        if !topology.is_connected() {
            return Err(MachineError::DisconnectedTopology {
                reachable: topology.connected_count(),
                total: topology.num_qubits(),
            });
        }
        calibration.validate(&topology)?;
        let reliability = ReliabilityModel::new(&topology, &calibration);
        Ok(Machine {
            name: name.into(),
            topology,
            calibration,
            reliability,
        })
    }

    /// Convenience constructor: the IBMQ16 layout with a synthetic
    /// calibration snapshot for the given seed and day.
    pub fn ibmq16_on_day(seed: u64, day: usize) -> Self {
        Machine::from_spec(TopologySpec::Ibmq16, seed, day)
    }

    /// Builds a machine for **any** topology spec with a synthetic
    /// calibration snapshot for the given seed and day — the entry point
    /// for multi-backend scenarios (grids, rings, heavy-hex lattices).
    ///
    /// # Example
    ///
    /// ```
    /// use nisq_machine::{Machine, TopologySpec};
    ///
    /// let ring = Machine::from_spec(TopologySpec::Ring { n: 12 }, 7, 0);
    /// assert_eq!(ring.num_qubits(), 12);
    /// assert_eq!(ring.name(), "ring-12");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec; [`Machine::try_from_spec`] returns the
    /// error instead.
    pub fn from_spec(spec: TopologySpec, seed: u64, day: usize) -> Self {
        Machine::try_from_spec(spec, seed, day).expect("degenerate topology spec")
    }

    /// Like [`Machine::from_spec`], but validating the spec first so
    /// degenerate parameters (a `ring-2`, a `grid-0x5`) surface as a typed
    /// error instead of a panic — the entry point for untrusted input (the
    /// CLI, the serve daemon).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::DegenerateTopology`] for invalid spec
    /// parameters, or any error [`Machine::try_new`] reports.
    pub fn try_from_spec(spec: TopologySpec, seed: u64, day: usize) -> Result<Self, MachineError> {
        spec.validate()?;
        let topology = spec.build();
        let calibration = CalibrationGenerator::new(topology.clone(), seed).day(day);
        Machine::try_new(spec.name(), topology, calibration)
    }

    /// Machine name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A deterministic 64-bit fingerprint of this machine snapshot: the
    /// coupling graph plus the full calibration data. Two `Machine` values
    /// built from the same spec, seed and day fingerprint identically, and
    /// any change to topology or calibration changes the fingerprint — the
    /// "machine-day" component of compile-cache keys.
    pub fn fingerprint(&self) -> u64 {
        self.topology
            .fingerprint()
            .rotate_left(17)
            .wrapping_mul(0x9e3779b97f4a7c15)
            ^ self.calibration.fingerprint()
    }

    /// The hardware topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration snapshot.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The derived reliability/duration model.
    pub fn reliability(&self) -> &ReliabilityModel {
        &self.reliability
    }

    /// Number of hardware qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, day {})",
            self.name, self.topology, self.calibration.day
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibmq16_machine_builds() {
        let m = Machine::ibmq16_on_day(0, 0);
        assert_eq!(m.num_qubits(), 16);
        assert_eq!(m.name(), "IBMQ16");
        assert!(m.to_string().contains("8x2 grid"));
    }

    #[test]
    fn try_new_rejects_mismatched_calibration() {
        let small = Topology::grid(2, 2);
        let cal = CalibrationGenerator::new(Topology::ibmq16(), 0).day(0);
        assert!(Machine::try_new("bad", small, cal).is_err());
    }

    #[test]
    fn from_spec_builds_non_grid_machines() {
        for spec in [
            TopologySpec::Ring { n: 10 },
            TopologySpec::HeavyHex { rows: 2, cols: 5 },
            TopologySpec::Grid { mx: 4, my: 4 },
        ] {
            let m = Machine::from_spec(spec, 3, 1);
            assert_eq!(m.num_qubits(), spec.build().num_qubits());
            assert_eq!(m.calibration().day, 1);
            assert!(m.calibration().mean_cnot_error() > 0.0);
        }
    }

    #[test]
    fn reliability_model_matches_calibration() {
        let m = Machine::ibmq16_on_day(9, 2);
        assert_eq!(m.reliability().calibration(), m.calibration());
    }

    #[test]
    fn try_from_spec_rejects_degenerate_specs() {
        for spec in [
            TopologySpec::Ring { n: 2 },
            TopologySpec::Grid { mx: 0, my: 5 },
            TopologySpec::Grid { mx: 4, my: 0 },
            TopologySpec::HeavyHex { rows: 1, cols: 9 },
            TopologySpec::HeavyHex { rows: 3, cols: 2 },
        ] {
            assert!(
                matches!(
                    Machine::try_from_spec(spec, 1, 0),
                    Err(MachineError::DegenerateTopology { .. })
                ),
                "{spec:?} should be rejected"
            );
        }
        assert!(Machine::try_from_spec(TopologySpec::Ring { n: 3 }, 1, 0).is_ok());
    }

    #[test]
    fn try_new_rejects_degenerate_calibration_values() {
        let base = Machine::ibmq16_on_day(7, 0);
        let topology = base.topology().clone();
        let edge = {
            let (a, b) = topology.edges()[0];
            crate::calibration::EdgeId::new(a, b)
        };
        type Poison = Box<dyn Fn(&mut Calibration)>;
        let cases: Vec<(&str, Poison)> = vec![
            (
                "nan cnot",
                Box::new(move |c| {
                    c.cnot_error.insert(edge, f64::NAN);
                }),
            ),
            (
                "zero-reliability cnot",
                Box::new(move |c| {
                    c.cnot_error.insert(edge, 1.0);
                }),
            ),
            (
                "cnot above 1",
                Box::new(move |c| {
                    c.cnot_error.insert(edge, 1.5);
                }),
            ),
            ("negative readout", Box::new(|c| c.readout_error[3] = -0.01)),
            ("readout of 1", Box::new(|c| c.readout_error[3] = 1.0)),
            (
                "nan single-qubit",
                Box::new(|c| c.single_qubit_error[0] = f64::NAN),
            ),
            ("zero t2", Box::new(|c| c.t2_us[5] = 0.0)),
            ("infinite t2", Box::new(|c| c.t2_us[5] = f64::INFINITY)),
            ("zero timeslot", Box::new(|c| c.timeslot_ns = 0.0)),
        ];
        for (what, poison) in cases {
            let mut cal = base.calibration().clone();
            poison(&mut cal);
            let err = Machine::try_new("bad", topology.clone(), cal)
                .expect_err(&format!("{what} should be rejected"));
            assert!(
                matches!(err, MachineError::InvalidCalibration { .. }),
                "{what}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn try_new_rejects_disconnected_topologies() {
        // Two disjoint 2-qubit chains: qubits {0,1} and {2,3}.
        let topology = Topology::custom_for_tests(
            TopologySpec::Grid { mx: 2, my: 2 },
            4,
            vec![
                (crate::HwQubit(0), crate::HwQubit(1)),
                (crate::HwQubit(2), crate::HwQubit(3)),
            ],
        );
        assert!(!topology.is_connected());
        let cal = CalibrationGenerator::new(topology.clone(), 0).day(0);
        let err = Machine::try_new("split", topology, cal).unwrap_err();
        assert!(matches!(
            err,
            MachineError::DisconnectedTopology {
                reachable: 2,
                total: 4
            }
        ));
    }
}
