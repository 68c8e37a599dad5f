use rustc_hash::FxHashMap;
use std::fmt;

/// Aggregated outcomes of a multi-trial simulation: how many times each
/// classical bit-string was observed, keyed by the engine's bit-packed
/// outcome (bit `i` of a key is classical bit `i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    counts: FxHashMap<u128, u32>,
    num_clbits: usize,
    trials: u32,
}

impl SimulationResult {
    /// Creates a result from `u128`-bit-packed outcome counts over
    /// `num_clbits` classical bits, the aggregation format of the
    /// simulator's hot loop. The keys are kept as they are.
    pub fn from_bitpacked(counts: FxHashMap<u128, u32>, num_clbits: usize) -> Self {
        assert!(
            num_clbits <= 128,
            "bit-packed outcomes hold at most 128 bits"
        );
        let trials = counts.values().sum();
        SimulationResult {
            counts,
            num_clbits,
            trials,
        }
    }

    /// Total number of trials.
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// The raw counts, keyed by bit-packed outcome (bit `i` = classical
    /// bit `i`).
    pub fn counts(&self) -> &FxHashMap<u128, u32> {
        &self.counts
    }

    /// Fraction of trials that produced exactly `bits` (index = classical
    /// bit) — the paper's success-rate metric when `bits` is the known
    /// correct answer. A query of the wrong length matches no trial.
    pub fn probability_of(&self, bits: &[bool]) -> f64 {
        if self.trials == 0 || bits.len() != self.num_clbits {
            return 0.0;
        }
        let key = bits
            .iter()
            .enumerate()
            .fold(0u128, |key, (i, &b)| key | u128::from(b) << i);
        f64::from(self.counts.get(&key).copied().unwrap_or(0)) / f64::from(self.trials)
    }
}

impl fmt::Display for SimulationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} trials, {} distinct outcomes",
            self.trials,
            self.counts.len()
        )?;
        let mut rows: Vec<(String, u32)> = self
            .counts
            .iter()
            .map(|(&key, &count)| {
                let bits = (0..self.num_clbits)
                    .map(|i| if key >> i & 1 == 1 { '1' } else { '0' })
                    .collect();
                (bits, count)
            })
            .collect();
        rows.sort_unstable();
        for (bits, count) in rows {
            writeln!(f, "  {bits}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimulationResult {
        // Keys 0b11 = [true, true], 0b10 = [false, true], 0b00.
        let counts = [(0b11u128, 60u32), (0b10, 30), (0b00, 10)]
            .into_iter()
            .collect();
        SimulationResult::from_bitpacked(counts, 2)
    }

    #[test]
    fn probabilities_sum_from_counts() {
        let r = sample();
        assert_eq!(r.trials(), 100);
        assert!((r.probability_of(&[true, true]) - 0.6).abs() < 1e-12);
        assert_eq!(r.probability_of(&[true, false]), 0.0);
        assert_eq!(r.probability_of(&[true, true, false]), 0.0);
    }

    #[test]
    fn bitpacked_counts_unpack_little_endian() {
        // 0b01 -> [true, false], 0b10 -> [false, true].
        let counts = [(0b01u128, 3u32), (0b10, 7)].into_iter().collect();
        let r = SimulationResult::from_bitpacked(counts, 2);
        assert_eq!(r.trials(), 10);
        assert!((r.probability_of(&[true, false]) - 0.3).abs() < 1e-12);
        assert!((r.probability_of(&[false, true]) - 0.7).abs() < 1e-12);
        assert_eq!(r.counts().get(&0b01), Some(&3));
    }

    #[test]
    fn empty_result_behaves() {
        let r = SimulationResult::from_bitpacked(FxHashMap::default(), 1);
        assert_eq!(r.trials(), 0);
        assert_eq!(r.probability_of(&[true]), 0.0);
    }

    #[test]
    fn display_renders_bitstrings() {
        let text = sample().to_string();
        assert!(text.contains("11: 60"));
        assert!(text.contains("01: 30"));
        assert!(text.contains("100 trials"));
    }
}
