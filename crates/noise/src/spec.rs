//! Declarative noise specifications: named sets of channel bindings,
//! parseable from JSON with the same strict unknown-field rejection the
//! serve protocol uses.
//!
//! A spec is a list of *bindings*. Each binding selects a class of program
//! sites (`"on"`: single-qubit gates, CNOTs, SWAPs or measurements,
//! optionally narrowed to listed qubits or edges), names a channel *shape*,
//! and gives the channel's strength as either a fixed probability or a
//! multiple of the site's calibrated error rate:
//!
//! ```json
//! {
//!   "name": "depol-cnot+ad-measure",
//!   "bindings": [
//!     {"on": "cnot", "rate": {"calibration": 1.0},
//!      "channel": {"kind": "depolarizing-2q"}},
//!     {"on": "measure", "rate": 0.03,
//!      "channel": {"kind": "amplitude-damping"}},
//!     {"on": "sq", "qubits": [0, 5], "rate": 0.001,
//!      "channel": {"kind": "pauli-weighted", "wx": 1, "wy": 1, "wz": 2}}
//!   ]
//! }
//! ```
//!
//! General Kraus channels are fully explicit (their operators already fix
//! the strength), so a `"kraus"` binding must *omit* `"rate"`; every other
//! shape requires one.
//!
//! The rate, weight, arity and filter rules make every other shape a valid
//! channel at any rate it can resolve to, so the completeness check
//! `Σ K†K = I` runs on explicit Kraus operators only, the one kind where it
//! can fail.

use crate::json::{self, Value};
use std::fmt;

/// A 2×2 complex matrix in row-major order (`[m00, m01, m10, m11]`);
/// each entry is `(re, im)`.
pub type Matrix2 = [(f64, f64); 4];

/// Largest number of operators a general Kraus channel may carry.
pub const MAX_KRAUS_OPS: usize = 8;

/// Tolerance for the CPTP completeness check `Σ K†K = I`.
pub const CPTP_TOLERANCE: f64 = 1e-9;

/// Why a spec was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// The document is not well-formed JSON.
    Parse(String),
    /// The document is well-formed JSON but violates the spec schema
    /// (unknown field, wrong type, bad selector, out-of-range rate...).
    Invalid(String),
    /// Explicit Kraus operators do not describe a CPTP map.
    NotCptp(String),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::Parse(m) => write!(f, "noise spec is not valid JSON: {m}"),
            NoiseError::Invalid(m) => write!(f, "invalid noise spec: {m}"),
            NoiseError::NotCptp(m) => write!(f, "channel is not CPTP: {m}"),
        }
    }
}

impl std::error::Error for NoiseError {}

/// Largest qubit index a binding filter may name.
pub const MAX_SPEC_QUBIT: u32 = 4096;

/// Which program sites a binding attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSel {
    /// Every single-qubit gate (spelled `"sq"`).
    SingleQubit,
    /// Every hardware CNOT (spelled `"cnot"`).
    Cnot,
    /// Every hardware SWAP (spelled `"swap"`).
    Swap,
    /// Every measurement (spelled `"measure"`).
    Measure,
}

impl GateSel {
    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            GateSel::SingleQubit => "sq",
            GateSel::Cnot => "cnot",
            GateSel::Swap => "swap",
            GateSel::Measure => "measure",
        }
    }

    fn parse(text: &str) -> Result<Self, NoiseError> {
        match text {
            "sq" => Ok(GateSel::SingleQubit),
            "cnot" => Ok(GateSel::Cnot),
            "swap" => Ok(GateSel::Swap),
            "measure" => Ok(GateSel::Measure),
            other => Err(NoiseError::Invalid(format!(
                "unknown binding selector {other:?} (expected sq, cnot, swap or measure)"
            ))),
        }
    }

    /// Whether the selected sites act on two qubits.
    pub fn is_two_qubit(self) -> bool {
        matches!(self, GateSel::Cnot | GateSel::Swap)
    }
}

/// How a binding's channel strength is determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// A fixed probability in `[0, 1]`.
    Fixed(f64),
    /// `factor ×` the site's calibrated error rate, clamped to `[0, 1]`.
    Calibration {
        /// Non-negative multiplier on the calibrated rate.
        factor: f64,
    },
}

impl Rate {
    /// Resolves the strength parameter at a site whose calibrated error
    /// rate is `calibrated`.
    pub fn resolve(self, calibrated: f64) -> f64 {
        match self {
            Rate::Fixed(p) => p,
            Rate::Calibration { factor } => (factor * calibrated).clamp(0.0, 1.0),
        }
    }
}

/// A channel kind, minus its strength parameter (which the binding's
/// [`Rate`] supplies per site).
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelShape {
    /// Single-qubit depolarizing at the resolved rate.
    Depolarizing1q,
    /// Two-qubit depolarizing at the resolved rate.
    Depolarizing2q,
    /// X with the resolved rate.
    BitFlip,
    /// Z with the resolved rate.
    PhaseFlip,
    /// X/Y/Z with the resolved rate split by relative weights.
    PauliWeighted {
        /// Relative X weight.
        wx: f64,
        /// Relative Y weight.
        wy: f64,
        /// Relative Z weight.
        wz: f64,
    },
    /// Amplitude damping with `γ =` the resolved rate.
    AmplitudeDamping,
    /// Explicit Kraus operators (no rate; the operators are the channel).
    Kraus {
        /// The operator list, checked for completeness (`Σ K†K = I`).
        ops: Vec<Matrix2>,
    },
}

impl ChannelShape {
    fn kind_name(&self) -> &'static str {
        match self {
            ChannelShape::Depolarizing1q => "depolarizing-1q",
            ChannelShape::Depolarizing2q => "depolarizing-2q",
            ChannelShape::BitFlip => "bit-flip",
            ChannelShape::PhaseFlip => "phase-flip",
            ChannelShape::PauliWeighted { .. } => "pauli-weighted",
            ChannelShape::AmplitudeDamping => "amplitude-damping",
            ChannelShape::Kraus { .. } => "kraus",
        }
    }
}

/// One site-class → channel binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Which sites the binding attaches to.
    pub on: GateSel,
    /// For `sq`/`measure`: restrict to these qubits (`None` = all).
    pub qubits: Option<Vec<u32>>,
    /// For `cnot`/`swap`: restrict to these (unordered) edges (`None` = all).
    pub edges: Option<Vec<(u32, u32)>>,
    /// The channel strength; `None` only for `kraus` shapes.
    pub rate: Option<Rate>,
    /// The channel shape.
    pub shape: ChannelShape,
}

impl Binding {
    /// Whether this binding covers single qubit `q` (for `sq`/`measure`).
    pub fn applies_to_qubit(&self, q: u32) -> bool {
        match &self.qubits {
            Some(list) => list.contains(&q),
            None => true,
        }
    }

    /// Whether this binding covers the unordered edge `(a, b)`.
    pub fn applies_to_edge(&self, a: u32, b: u32) -> bool {
        match &self.edges {
            Some(list) => list
                .iter()
                .any(|&(x, y)| (x == a && y == b) || (x == b && y == a)),
            None => true,
        }
    }

    fn validate(&self, index: usize) -> Result<(), NoiseError> {
        let ctx = format!(
            "binding {index} ({} → {})",
            self.on.name(),
            self.shape.kind_name()
        );
        let two_qubit_shape = matches!(self.shape, ChannelShape::Depolarizing2q);
        if two_qubit_shape != self.on.is_two_qubit() {
            return Err(NoiseError::Invalid(format!(
                "{ctx}: {} channels bind to {} sites only",
                self.shape.kind_name(),
                if two_qubit_shape {
                    "cnot/swap"
                } else {
                    "sq/measure"
                }
            )));
        }
        if self.qubits.is_some() && self.on.is_two_qubit() {
            return Err(NoiseError::Invalid(format!(
                "{ctx}: use \"edges\" (not \"qubits\") with cnot/swap selectors"
            )));
        }
        if self.edges.is_some() && !self.on.is_two_qubit() {
            return Err(NoiseError::Invalid(format!(
                "{ctx}: use \"qubits\" (not \"edges\") with sq/measure selectors"
            )));
        }
        if let Some(qubits) = &self.qubits {
            if qubits.is_empty() {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: empty \"qubits\" filter"
                )));
            }
            if let Some(&q) = qubits.iter().find(|&&q| q > MAX_SPEC_QUBIT) {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: qubit index {q} exceeds the {MAX_SPEC_QUBIT} cap"
                )));
            }
        }
        if let Some(edges) = &self.edges {
            if edges.is_empty() {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: empty \"edges\" filter"
                )));
            }
            for &(a, b) in edges {
                if a == b {
                    return Err(NoiseError::Invalid(format!(
                        "{ctx}: degenerate edge [{a}, {b}]"
                    )));
                }
                if a.max(b) > MAX_SPEC_QUBIT {
                    return Err(NoiseError::Invalid(format!(
                        "{ctx}: qubit index {} exceeds the {MAX_SPEC_QUBIT} cap",
                        a.max(b)
                    )));
                }
            }
        }
        match (&self.rate, &self.shape) {
            (Some(_), ChannelShape::Kraus { .. }) => {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: kraus channels are fully explicit — omit \"rate\""
                )));
            }
            (None, ChannelShape::Kraus { .. }) => {}
            (None, _) => {
                return Err(NoiseError::Invalid(format!("{ctx}: missing \"rate\"")));
            }
            (Some(Rate::Fixed(p)), _) => {
                if !p.is_finite() || !(0.0..=1.0).contains(p) {
                    return Err(NoiseError::Invalid(format!(
                        "{ctx}: fixed rate must be a probability in [0, 1], got {p}"
                    )));
                }
            }
            (Some(Rate::Calibration { factor }), _) => {
                if !factor.is_finite() || *factor < 0.0 {
                    return Err(NoiseError::Invalid(format!(
                        "{ctx}: calibration factor must be finite and non-negative, got {factor}"
                    )));
                }
            }
        }
        if let ChannelShape::PauliWeighted { wx, wy, wz } = self.shape {
            for (w, name) in [(wx, "wx"), (wy, "wy"), (wz, "wz")] {
                if !w.is_finite() || w < 0.0 {
                    return Err(NoiseError::Invalid(format!(
                        "{ctx}: weight {name} must be finite and non-negative, got {w}"
                    )));
                }
            }
            if wx + wy + wz <= 0.0 {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: pauli-weighted weights must sum to a positive value"
                )));
            }
        }
        if let ChannelShape::Kraus { ops } = &self.shape {
            check_completeness(ops, &ctx)?;
        }
        Ok(())
    }
}

/// Checks explicit Kraus operators for completeness `Σ K†K = I` (which
/// also implies trace preservation).
fn check_completeness(ops: &[Matrix2], ctx: &str) -> Result<(), NoiseError> {
    if ops.is_empty() || ops.len() > MAX_KRAUS_OPS {
        return Err(NoiseError::NotCptp(format!(
            "{ctx}: a Kraus channel needs 1..={MAX_KRAUS_OPS} operators, got {}",
            ops.len()
        )));
    }
    if let Some(k) = ops
        .iter()
        .position(|op| op.iter().any(|(re, im)| !re.is_finite() || !im.is_finite()))
    {
        return Err(NoiseError::NotCptp(format!(
            "{ctx}: Kraus operator {k} has a non-finite entry"
        )));
    }
    // (Σ_k K†K)_{ij} = Σ_k Σ_m conj(K_mi) · K_mj, row-major index 2m+i.
    let mut sum = [(0.0f64, 0.0f64); 4];
    for op in ops {
        for i in 0..2 {
            for j in 0..2 {
                for m in 0..2 {
                    let (ar, ai) = op[2 * m + i];
                    let (br, bi) = op[2 * m + j];
                    // conj(a) * b
                    sum[2 * i + j].0 += ar * br + ai * bi;
                    sum[2 * i + j].1 += ar * bi - ai * br;
                }
            }
        }
    }
    let identity = [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)];
    let mut defect = 0.0f64;
    for (s, id) in sum.iter().zip(identity.iter()) {
        defect = defect.max((s.0 - id.0).abs()).max((s.1 - id.1).abs());
    }
    if defect > CPTP_TOLERANCE {
        return Err(NoiseError::NotCptp(format!(
            "{ctx}: Kraus completeness sum deviates from identity by {defect:.3e} \
             (tolerance {CPTP_TOLERANCE:.0e})"
        )));
    }
    Ok(())
}

/// A named, validated set of channel bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSpec {
    name: String,
    bindings: Vec<Binding>,
}

impl NoiseSpec {
    /// Builds a spec programmatically, running the same validation the JSON
    /// path uses.
    ///
    /// # Errors
    ///
    /// See [`NoiseSpec::from_json`].
    pub fn new(name: impl Into<String>, bindings: Vec<Binding>) -> Result<Self, NoiseError> {
        let spec = NoiseSpec {
            name: name.into(),
            bindings,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The spec's label, recorded per cell in sweep reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bindings in declaration order.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Parses a complete JSON document into a validated spec.
    ///
    /// # Errors
    ///
    /// [`NoiseError::Parse`] for malformed JSON, [`NoiseError::Invalid`]
    /// for schema violations (including any unknown field, anywhere), and
    /// [`NoiseError::NotCptp`] for explicit Kraus operators that fail the
    /// completeness check.
    pub fn from_json(text: &str) -> Result<Self, NoiseError> {
        let value = json::parse(text).map_err(|e| NoiseError::Parse(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Parses an already-decoded JSON value (the serve protocol embeds
    /// specs inside its request envelope).
    ///
    /// # Errors
    ///
    /// As [`NoiseSpec::from_json`], minus the JSON-syntax class.
    pub fn from_value(value: &Value) -> Result<Self, NoiseError> {
        let fields = object_fields(value, "noise spec")?;
        reject_unknown(fields, &["name", "bindings"], "noise spec")?;
        let name = req_str(value, "name", "noise spec")?.to_string();
        let bindings_value = value
            .get("bindings")
            .ok_or_else(|| NoiseError::Invalid("noise spec: missing \"bindings\"".into()))?;
        let items = bindings_value.as_array().ok_or_else(|| {
            NoiseError::Invalid("noise spec: \"bindings\" must be an array".into())
        })?;
        let bindings = items
            .iter()
            .enumerate()
            .map(|(i, item)| parse_binding(item, i))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(name, bindings)
    }

    fn validate(&self) -> Result<(), NoiseError> {
        if self.name.is_empty() || self.name.len() > 64 {
            return Err(NoiseError::Invalid(
                "spec name must be 1..=64 characters".into(),
            ));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '+'))
        {
            return Err(NoiseError::Invalid(format!(
                "spec name {:?} may only contain ASCII alphanumerics and - _ . +",
                self.name
            )));
        }
        if self.bindings.is_empty() {
            return Err(NoiseError::Invalid("spec has no bindings".into()));
        }
        for (i, binding) in self.bindings.iter().enumerate() {
            binding.validate(i)?;
        }
        Ok(())
    }
}

fn object_fields<'v>(value: &'v Value, ctx: &str) -> Result<&'v [(String, Value)], NoiseError> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(NoiseError::Invalid(format!("{ctx} must be a JSON object"))),
    }
}

fn reject_unknown(
    fields: &[(String, Value)],
    allowed: &[&str],
    ctx: &str,
) -> Result<(), NoiseError> {
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(NoiseError::Invalid(format!(
                "{ctx}: unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req_str<'v>(value: &'v Value, key: &str, ctx: &str) -> Result<&'v str, NoiseError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| NoiseError::Invalid(format!("{ctx}: missing string field {key:?}")))
}

fn number(value: &Value, ctx: &str) -> Result<f64, NoiseError> {
    value
        .as_f64()
        .ok_or_else(|| NoiseError::Invalid(format!("{ctx} must be a number")))
}

fn parse_binding(value: &Value, index: usize) -> Result<Binding, NoiseError> {
    let ctx = format!("binding {index}");
    let fields = object_fields(value, &ctx)?;
    reject_unknown(fields, &["on", "qubits", "edges", "rate", "channel"], &ctx)?;

    let on = GateSel::parse(req_str(value, "on", &ctx)?)?;
    let qubits = match value.get("qubits") {
        None => None,
        Some(v) => Some(parse_u32_list(v, &format!("{ctx}: \"qubits\""))?),
    };
    let edges = match value.get("edges") {
        None => None,
        Some(v) => Some(parse_edge_list(v, &format!("{ctx}: \"edges\""))?),
    };
    let rate = match value.get("rate") {
        None => None,
        Some(v) => Some(parse_rate(v, &ctx)?),
    };
    let channel = value
        .get("channel")
        .ok_or_else(|| NoiseError::Invalid(format!("{ctx}: missing \"channel\"")))?;
    let shape = parse_shape(channel, &ctx)?;
    Ok(Binding {
        on,
        qubits,
        edges,
        rate,
        shape,
    })
}

fn parse_u32_list(value: &Value, ctx: &str) -> Result<Vec<u32>, NoiseError> {
    let items = value
        .as_array()
        .ok_or_else(|| NoiseError::Invalid(format!("{ctx} must be an array of qubit indices")))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| NoiseError::Invalid(format!("{ctx} entries must be qubit indices")))
        })
        .collect()
}

fn parse_edge_list(value: &Value, ctx: &str) -> Result<Vec<(u32, u32)>, NoiseError> {
    let items = value
        .as_array()
        .ok_or_else(|| NoiseError::Invalid(format!("{ctx} must be an array of [a, b] pairs")))?;
    items
        .iter()
        .map(|v| {
            let pair = v.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                NoiseError::Invalid(format!("{ctx} entries must be [a, b] pairs"))
            })?;
            let a = pair[0].as_u64().and_then(|n| u32::try_from(n).ok());
            let b = pair[1].as_u64().and_then(|n| u32::try_from(n).ok());
            match (a, b) {
                (Some(a), Some(b)) => Ok((a, b)),
                _ => Err(NoiseError::Invalid(format!(
                    "{ctx} entries must be qubit-index pairs"
                ))),
            }
        })
        .collect()
}

fn parse_rate(value: &Value, ctx: &str) -> Result<Rate, NoiseError> {
    match value {
        Value::Integer(_) | Value::Number(_) => Ok(Rate::Fixed(value.as_f64().expect("number"))),
        Value::Object(fields) => {
            reject_unknown(fields, &["calibration"], &format!("{ctx}: \"rate\""))?;
            let factor = value.get("calibration").ok_or_else(|| {
                NoiseError::Invalid(format!("{ctx}: rate object needs a \"calibration\" field"))
            })?;
            Ok(Rate::Calibration {
                factor: number(factor, &format!("{ctx}: \"calibration\""))?,
            })
        }
        _ => Err(NoiseError::Invalid(format!(
            "{ctx}: \"rate\" must be a number or {{\"calibration\": factor}}"
        ))),
    }
}

fn parse_shape(value: &Value, ctx: &str) -> Result<ChannelShape, NoiseError> {
    let fields = object_fields(value, &format!("{ctx}: \"channel\""))?;
    let kind = req_str(value, "kind", &format!("{ctx}: \"channel\""))?;
    match kind {
        "depolarizing-1q" | "depolarizing-2q" | "bit-flip" | "phase-flip" | "amplitude-damping" => {
            reject_unknown(fields, &["kind"], &format!("{ctx}: {kind} channel"))?;
            Ok(match kind {
                "depolarizing-1q" => ChannelShape::Depolarizing1q,
                "depolarizing-2q" => ChannelShape::Depolarizing2q,
                "bit-flip" => ChannelShape::BitFlip,
                "phase-flip" => ChannelShape::PhaseFlip,
                _ => ChannelShape::AmplitudeDamping,
            })
        }
        "pauli-weighted" => {
            reject_unknown(
                fields,
                &["kind", "wx", "wy", "wz"],
                &format!("{ctx}: pauli-weighted channel"),
            )?;
            let weight = |key: &str| -> Result<f64, NoiseError> {
                match value.get(key) {
                    None => Ok(0.0),
                    Some(v) => number(v, &format!("{ctx}: pauli-weighted {key}")),
                }
            };
            Ok(ChannelShape::PauliWeighted {
                wx: weight("wx")?,
                wy: weight("wy")?,
                wz: weight("wz")?,
            })
        }
        "kraus" => {
            reject_unknown(fields, &["kind", "ops"], &format!("{ctx}: kraus channel"))?;
            let ops_value = value.get("ops").and_then(Value::as_array).ok_or_else(|| {
                NoiseError::Invalid(format!("{ctx}: kraus channel needs an \"ops\" array"))
            })?;
            if ops_value.is_empty() || ops_value.len() > MAX_KRAUS_OPS {
                return Err(NoiseError::Invalid(format!(
                    "{ctx}: kraus channel needs 1..={MAX_KRAUS_OPS} operators"
                )));
            }
            let ops = ops_value
                .iter()
                .map(|op| parse_matrix(op, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ChannelShape::Kraus { ops })
        }
        other => Err(NoiseError::Invalid(format!(
            "{ctx}: unknown channel kind {other:?}"
        ))),
    }
}

/// A Kraus operator in JSON: four `[re, im]` entries, row-major
/// `[m00, m01, m10, m11]`.
fn parse_matrix(value: &Value, ctx: &str) -> Result<Matrix2, NoiseError> {
    let entries = value.as_array().filter(|e| e.len() == 4).ok_or_else(|| {
        NoiseError::Invalid(format!(
            "{ctx}: a Kraus operator is 4 row-major [re, im] entries"
        ))
    })?;
    let mut out = [(0.0, 0.0); 4];
    for (slot, entry) in out.iter_mut().zip(entries) {
        let pair = entry.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
            NoiseError::Invalid(format!("{ctx}: Kraus entries must be [re, im] pairs"))
        })?;
        let re = number(&pair[0], &format!("{ctx}: Kraus re"))?;
        let im = number(&pair[1], &format!("{ctx}: Kraus im"))?;
        *slot = (re, im);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "name": "depol-cnot_ad-measure",
        "bindings": [
            {"on": "cnot", "rate": {"calibration": 1.0},
             "channel": {"kind": "depolarizing-2q"}},
            {"on": "measure", "rate": 0.03,
             "channel": {"kind": "amplitude-damping"}},
            {"on": "sq", "qubits": [0, 5], "rate": 0.001,
             "channel": {"kind": "pauli-weighted", "wx": 1, "wy": 1, "wz": 2}}
        ]
    }"#;

    #[test]
    fn parses_a_valid_spec() {
        let spec = NoiseSpec::from_json(GOOD).unwrap();
        assert_eq!(spec.name(), "depol-cnot_ad-measure");
        assert_eq!(spec.bindings().len(), 3);
        assert!(spec.bindings()[0].applies_to_edge(3, 7));
        assert!(spec.bindings()[2].applies_to_qubit(5));
        assert!(!spec.bindings()[2].applies_to_qubit(3));

        let shapes: Vec<&ChannelShape> = spec.bindings().iter().map(|b| &b.shape).collect();
        assert_eq!(
            shapes,
            [
                &ChannelShape::Depolarizing2q,
                &ChannelShape::AmplitudeDamping,
                &ChannelShape::PauliWeighted {
                    wx: 1.0,
                    wy: 1.0,
                    wz: 2.0
                }
            ]
        );
        let rate_at =
            |i: usize, calibrated: f64| spec.bindings()[i].rate.unwrap().resolve(calibrated);
        assert_eq!(rate_at(0, 0.02), 0.02);
        assert_eq!(rate_at(1, 0.9), 0.03);
        assert_eq!(rate_at(2, 0.0), 0.001);
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let top = GOOD.replacen("\"name\"", "\"Name\"", 1);
        assert!(matches!(
            NoiseSpec::from_json(&top),
            Err(NoiseError::Invalid(_))
        ));
        let binding = GOOD.replacen("\"on\": \"cnot\"", "\"on\": \"cnot\", \"x\": 1", 1);
        assert!(NoiseSpec::from_json(&binding).is_err());
        let channel = GOOD.replacen(
            "{\"kind\": \"depolarizing-2q\"}",
            "{\"kind\": \"depolarizing-2q\", \"p\": 0.1}",
            1,
        );
        assert!(NoiseSpec::from_json(&channel).is_err());
        let rate = GOOD.replacen("{\"calibration\": 1.0}", "{\"scale\": 1.0}", 1);
        assert!(NoiseSpec::from_json(&rate).is_err());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            NoiseSpec::from_json("{not json"),
            Err(NoiseError::Parse(_))
        ));
    }

    #[test]
    fn arity_and_filter_mismatches_are_rejected() {
        let sq_2q = r#"{"name": "x", "bindings": [
            {"on": "sq", "rate": 0.1, "channel": {"kind": "depolarizing-2q"}}]}"#;
        assert!(NoiseSpec::from_json(sq_2q).is_err());
        let cnot_1q = r#"{"name": "x", "bindings": [
            {"on": "cnot", "rate": 0.1, "channel": {"kind": "bit-flip"}}]}"#;
        assert!(NoiseSpec::from_json(cnot_1q).is_err());
        let qubits_on_cnot = r#"{"name": "x", "bindings": [
            {"on": "cnot", "qubits": [1], "rate": 0.1,
             "channel": {"kind": "depolarizing-2q"}}]}"#;
        assert!(NoiseSpec::from_json(qubits_on_cnot).is_err());
        let bad_edge = r#"{"name": "x", "bindings": [
            {"on": "cnot", "edges": [[2, 2]], "rate": 0.1,
             "channel": {"kind": "depolarizing-2q"}}]}"#;
        assert!(NoiseSpec::from_json(bad_edge).is_err());
    }

    #[test]
    fn rate_rules_are_enforced() {
        let over = r#"{"name": "x", "bindings": [
            {"on": "sq", "rate": 1.5, "channel": {"kind": "bit-flip"}}]}"#;
        assert!(NoiseSpec::from_json(over).is_err());
        let missing = r#"{"name": "x", "bindings": [
            {"on": "sq", "channel": {"kind": "bit-flip"}}]}"#;
        assert!(NoiseSpec::from_json(missing).is_err());
        let negative_factor = r#"{"name": "x", "bindings": [
            {"on": "sq", "rate": {"calibration": -2}, "channel": {"kind": "bit-flip"}}]}"#;
        assert!(NoiseSpec::from_json(negative_factor).is_err());
        // JSON has no NaN; a programmatic one is refused all the same.
        let nan = Binding {
            on: GateSel::SingleQubit,
            qubits: None,
            edges: None,
            rate: Some(Rate::Fixed(f64::NAN)),
            shape: ChannelShape::BitFlip,
        };
        assert!(matches!(
            NoiseSpec::new("x", vec![nan]),
            Err(NoiseError::Invalid(_))
        ));
        // Calibration scaling saturates at 1.
        let spec = NoiseSpec::from_json(
            r#"{"name": "x", "bindings": [
            {"on": "sq", "rate": {"calibration": 3.0}, "channel": {"kind": "bit-flip"}}]}"#,
        )
        .unwrap();
        assert_eq!(spec.bindings()[0].rate.unwrap().resolve(0.9), 1.0);
    }

    #[test]
    fn kraus_bindings_parse_and_reject_non_cptp() {
        let good = r#"{"name": "k", "bindings": [
            {"on": "sq", "channel": {"kind": "kraus", "ops": [
                [[0.99498743710662, 0], [0, 0], [0, 0], [0.99498743710662, 0]],
                [[0.1, 0], [0, 0], [0, 0], [-0.1, 0]]
            ]}}]}"#;
        let spec = NoiseSpec::from_json(good).unwrap();
        assert!(matches!(
            spec.bindings()[0].shape,
            ChannelShape::Kraus { .. }
        ));

        let rated = good.replacen("\"channel\"", "\"rate\": 0.5, \"channel\"", 1);
        assert!(NoiseSpec::from_json(&rated).is_err());

        let non_cptp = r#"{"name": "k", "bindings": [
            {"on": "sq", "channel": {"kind": "kraus", "ops": [
                [[0.9, 0], [0, 0], [0, 0], [0.9, 0]]
            ]}}]}"#;
        assert!(matches!(
            NoiseSpec::from_json(non_cptp),
            Err(NoiseError::NotCptp(_))
        ));
    }

    #[test]
    fn spec_names_are_constrained() {
        let renamed = GOOD.replacen("depol-cnot_ad-measure", "bad name!", 1);
        assert!(NoiseSpec::from_json(&renamed).is_err());
        let empty = GOOD.replacen("depol-cnot_ad-measure", "", 1);
        assert!(NoiseSpec::from_json(&empty).is_err());
    }

    #[test]
    fn kraus_completeness_is_enforced() {
        let kraus = |ops: Vec<Matrix2>| {
            NoiseSpec::new(
                "k",
                vec![Binding {
                    on: GateSel::SingleQubit,
                    qubits: None,
                    edges: None,
                    rate: None,
                    shape: ChannelShape::Kraus { ops },
                }],
            )
        };
        // A valid dephasing-style pair...
        let p: f64 = 0.1;
        kraus(vec![
            [
                ((1.0 - p).sqrt(), 0.0),
                (0.0, 0.0),
                (0.0, 0.0),
                ((1.0 - p).sqrt(), 0.0),
            ],
            [(p.sqrt(), 0.0), (0.0, 0.0), (0.0, 0.0), (-p.sqrt(), 0.0)],
        ])
        .unwrap();

        // ...and the same pair scaled is no longer trace preserving.
        let bad = kraus(vec![[(0.9, 0.0), (0.0, 0.0), (0.0, 0.0), (0.9, 0.0)]]);
        assert!(matches!(bad, Err(NoiseError::NotCptp(_))));

        assert!(matches!(kraus(vec![]), Err(NoiseError::NotCptp(_))));
        let infinite = [(f64::INFINITY, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)];
        assert!(matches!(kraus(vec![infinite]), Err(NoiseError::NotCptp(_))));
    }
}
