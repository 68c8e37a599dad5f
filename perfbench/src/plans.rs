//! The workloads' inputs: sweep plans, noise specs, the hand-written
//! expected outputs, and the seeded serve request generator.

use nisq_core::CompilerConfig;
use nisq_exp::{NoiseSpec, SweepPlan};
use nisq_ir::Benchmark;

/// Trials per cell of the table1-week sweep (the paper's IBMQ16 setting).
pub const TABLE1_TRIALS: u32 = 8192;
/// Trials per cell of the noise-study sweep.
pub const NOISE_TRIALS: u32 = 65536;
/// Trials per cell of a serve-mixed request.
pub const SERVE_TRIALS: u32 = 4096;
/// Calibration days of the table1-week sweep and of the serve traffic.
pub const DAYS: std::ops::Range<usize> = 0..7;

/// CNOT depolarizing at twice the calibrated rate: a Pauli channel, so the
/// pre-sampler tiers and the tableau still apply. Serve's noisy requests
/// carry this spec inline.
pub const DEPOL_CNOT_X2: &str = r#"{"name": "depol-cnot-x2", "bindings": [{"on": "cnot", "rate": {"calibration": 2.0}, "channel": {"kind": "depolarizing-2q"}}]}"#;
/// Single-qubit bit flips at 0.01: Pauli.
pub const BITFLIP_SQ: &str = r#"{"name": "bitflip-sq-0.01", "bindings": [{"on": "sq", "rate": 0.01, "channel": {"kind": "bit-flip"}}]}"#;
/// Amplitude damping at 0.05 on measurement: a non-Pauli Kraus channel,
/// which forces a dense full replay of every trial.
pub const AD_MEASURE: &str = r#"{"name": "ad-measure-0.05", "bindings": [{"on": "measure", "rate": 0.05, "channel": {"kind": "amplitude-damping"}}]}"#;

/// The noise axis of the noise-study sweep, in plan order.
pub const NOISE_AXIS: [&str; 3] = [DEPOL_CNOT_X2, BITFLIP_SQ, AD_MEASURE];

/// Each benchmark's correct output, written out by hand from the circuit
/// definitions (bit `i` is the measurement of qubit `i`), so that the
/// output check does not trust the library's own expectation table.
pub const EXPECTED: [(&str, &str); 12] = [
    ("BV4", "1111"),
    ("BV6", "111001"),
    ("BV8", "10101001"),
    ("HS2", "11"),
    ("HS4", "1111"),
    ("HS6", "111111"),
    ("Fredkin", "101"),
    ("Or", "101"),
    ("Peres", "101"),
    ("Toffoli", "111"),
    ("Adder", "1111"),
    ("QFT", "00"),
];

/// The hand-written expected output of the benchmark named `name`.
pub fn expected_bits(name: &str) -> Option<Vec<bool>> {
    EXPECTED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, bits)| bits.chars().map(|c| c == '1').collect())
}

pub fn noise_spec(text: &str) -> NoiseSpec {
    NoiseSpec::from_json(text).expect("the built-in noise specs are valid")
}

/// The label the Table-1 plans give GreedyE*.
pub fn greedy_e_label() -> String {
    CompilerConfig::greedy_e().algorithm.name().to_string()
}

/// 12 Table-2 benchmarks x 6 Table-1 configs x days 0-6 on IBMQ16.
pub fn table1_week(seed: u64, trials: u32) -> SweepPlan {
    SweepPlan::new()
        .benchmarks(Benchmark::all())
        .table1_configs()
        .days(DAYS)
        .with_trials(trials)
        .per_cell_sim_seed(seed)
}

/// 12 benchmarks x GreedyE* x day 0 x the three-point noise axis.
pub fn noise_study(seed: u64, trials: u32) -> SweepPlan {
    NOISE_AXIS.iter().fold(
        SweepPlan::new()
            .benchmarks(Benchmark::all())
            .config(greedy_e_label(), CompilerConfig::greedy_e())
            .with_trials(trials)
            .per_cell_sim_seed(seed),
        |plan, text| {
            let spec = noise_spec(text);
            plan.with_noise(spec.name().to_string(), spec)
        },
    )
}

/// SplitMix64: a small, seedable generator for the request sequence.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a serve request asks for besides its benchmark and day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Plain,
    Noise,
    Journal,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Plain, Kind::Noise, Kind::Journal];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Noise => "noise",
            Kind::Journal => "journal",
        }
    }
}

/// One serve-mixed request: one benchmark x the Table-1 mappers x one day.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub benchmark: Benchmark,
    pub day: usize,
    pub sim_seed: u64,
    /// The request line, without its newline.
    pub line: String,
}

/// Request `index` of the sequence drawn from `seed`: a pure function of
/// both, so each connection can generate its own share. Journaled requests
/// get the resume key `<key_prefix><index>`, which is fresh within a
/// daemon's journal directory as long as prefixes differ between phases.
pub fn request(seed: u64, index: u64, key_prefix: &str) -> Request {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let benchmark = Benchmark::all()[rng.below(12) as usize];
    let day = rng.below(DAYS.end as u64) as usize;
    // Seeds stay below 2^53 so every JSON reader keeps them exact.
    let sim_seed = rng.next_u64() >> 11;
    // Half plain, a quarter with an inline Pauli noise spec, a quarter
    // journaled.
    let kind = match rng.below(4) {
        0 | 1 => Kind::Plain,
        2 => Kind::Noise,
        _ => Kind::Journal,
    };
    let mut plan = format!(
        "{{\"benchmarks\": \"{}\", \"mappers\": \"table1\", \"days\": [{day}], \"trials\": {SERVE_TRIALS}, \"sim_seed\": {sim_seed}",
        benchmark.name()
    );
    let mut envelope = format!("{{\"op\": \"run\", \"id\": \"{index}\"");
    match kind {
        Kind::Plain => {}
        Kind::Noise => plan.push_str(&format!(", \"noise\": {DEPOL_CNOT_X2}")),
        Kind::Journal => {
            plan.push_str(", \"journal\": true");
            envelope.push_str(&format!(", \"resume_key\": \"{key_prefix}{index}\""));
        }
    }
    Request {
        kind,
        benchmark,
        day,
        sim_seed,
        line: format!("{envelope}, \"plan\": {plan}}}}}"),
    }
}

/// The compile-only request that warms a daemon's caches with every
/// (benchmark, day) pair the traffic can draw, under the Table-1 mappers.
pub fn warmup_request() -> String {
    let days: Vec<String> = DAYS.map(|d| d.to_string()).collect();
    format!(
        "{{\"op\": \"run\", \"id\": \"warmup\", \"plan\": {{\"benchmarks\": \"all\", \"mappers\": \"table1\", \"days\": [{}], \"trials\": 0}}}}",
        days.join(", ")
    )
}

/// Cells a warm-up response must hold.
pub fn warmup_cells() -> usize {
    Benchmark::all().len() * CompilerConfig::table1().len() * DAYS.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_written_outputs_match_the_library() {
        for b in Benchmark::all() {
            assert_eq!(expected_bits(b.name()), Some(b.expected_output()), "{b}");
        }
    }

    #[test]
    fn requests_are_pure_functions_of_seed_and_index() {
        let a = request(7, 3, "k");
        let b = request(7, 3, "k");
        assert_eq!(a.line, b.line);
        assert_ne!(request(7, 4, "k").line, a.line);
        for i in 0..64 {
            let r = request(11, i, "k");
            nisq_exp::json::parse(&r.line).expect("request lines are JSON");
        }
    }
}
