//! # nisq-noise — declarative noise specs
//!
//! The simulator's built-in error model is calibration-driven (Pauli gate
//! errors + duration dephasing). This crate describes noise beyond it:
//!
//! * a declarative [`NoiseSpec`] — named, per-gate-kind / per-edge /
//!   per-qubit bindings of a channel kind ([`ChannelShape`]: depolarizing
//!   (1q/2q), bit-flip, phase-flip, Pauli-weighted, amplitude damping, or
//!   explicit Kraus operators) to a calibration-scaled or fixed [`Rate`],
//!   parseable from JSON with strict unknown-field rejection and checked
//!   rate, weight, arity and filter rules (explicit Kraus operators must
//!   also satisfy `Σ K†K = I`);
//! * the minimal [`json`] module shared by the spec parser, the sweep
//!   report format and the serve protocol (re-exported by `nisq-exp`).
//!
//! The crate is deliberately backend-agnostic: `nisq-sim` lowers each
//! binding straight from its shape and resolved rate (the Pauli kinds into
//! its pre-sampled noise sites, amplitude damping and explicit Kraus
//! operators into dense state-dependent sites), and `nisq-exp` carries
//! specs as a sweep axis.
//!
//! ```
//! use nisq_noise::{ChannelShape, GateSel, NoiseSpec};
//!
//! let spec = NoiseSpec::from_json(r#"{
//!     "name": "depol-example",
//!     "bindings": [
//!         {"on": "cnot", "rate": {"calibration": 1.0},
//!          "channel": {"kind": "depolarizing-2q"}}
//!     ]
//! }"#).unwrap();
//! let binding = &spec.bindings()[0];
//! assert_eq!(binding.on, GateSel::Cnot);
//! assert_eq!(binding.shape, ChannelShape::Depolarizing2q);
//! assert_eq!(binding.rate.unwrap().resolve(0.02), 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod spec;

pub use spec::{
    Binding, ChannelShape, GateSel, Matrix2, NoiseError, NoiseSpec, Rate, CPTP_TOLERANCE,
    MAX_KRAUS_OPS, MAX_SPEC_QUBIT,
};
