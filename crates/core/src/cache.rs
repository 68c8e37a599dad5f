//! Placement caching for the place step of
//! [`Compiler::compile`](crate::Compiler::compile).
//!
//! Placement is the most expensive compile step (a Table-1 compile on
//! IBMQ16 takes the exact solver up to ~10^5 search nodes, and larger
//! circuits far more), yet daily figure sweeps recompile
//! many identical `(circuit, machine-day, config)` triples. A
//! [`PlacementCache`] shared across [`crate::Compiler`] instances memoizes
//! the [`Placement`] an algorithm produced for such a triple, keyed on
//! content fingerprints so any change to the circuit, the calibration data
//! or the configuration invalidates the entry.
//!
//! Calibration-unaware algorithms (Qiskit, T-SMT) place from the coupling
//! graph alone, so their entries are keyed on the *topology* fingerprint
//! instead of the full machine fingerprint — a week-long day sweep reuses
//! one placement per `(circuit, config)` pair, making daily-variation
//! figures largely placement-free.

use crate::config::CompilerConfig;
use nisq_ir::Circuit;
use nisq_machine::Machine;
use nisq_opt::Placement;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: circuit fingerprint, machine-or-topology fingerprint, and
/// config fingerprint.
type Key = (u64, u64, u64);

/// Hit/miss counters of a [`PlacementCache`] (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementCacheStats {
    /// Lookups answered from the cache (placement algorithm not run).
    pub hits: u64,
    /// Lookups that ran the placement algorithm and populated the cache.
    pub misses: u64,
}

impl PlacementCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A thread-safe, shareable memo of placement results, consulted by the
/// place step of every compiler it is installed in with
/// [`Compiler::with_placement_cache`](crate::Compiler::with_placement_cache).
///
/// # Example
///
/// ```
/// use nisq_core::{Compiler, CompilerConfig, PlacementCache};
/// use nisq_ir::Benchmark;
/// use nisq_machine::Machine;
/// use std::sync::Arc;
///
/// let cache = Arc::new(PlacementCache::new());
/// let machine = Machine::ibmq16_on_day(1, 0);
/// let compiler =
///     Compiler::new(&machine, CompilerConfig::greedy_e()).with_placement_cache(cache.clone());
/// let first = compiler.compile(&Benchmark::Bv4.circuit()).unwrap();
/// let second = compiler.compile(&Benchmark::Bv4.circuit()).unwrap();
/// assert_eq!(first.placement(), second.placement());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct PlacementCache {
    entries: Mutex<FxHashMap<Key, Placement>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlacementCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlacementCache::default()
    }

    /// The cache key for compiling `circuit` on `machine` under `config`:
    /// calibration-aware configs key on the full machine fingerprint
    /// (placement tracks the day's error rates), calibration-unaware ones
    /// on the topology fingerprint alone.
    fn key(circuit: &Circuit, machine: &Machine, config: &CompilerConfig) -> Key {
        let machine_part = if config.calibration_aware() {
            machine.fingerprint()
        } else {
            machine.topology().fingerprint()
        };
        (circuit.fingerprint(), machine_part, config.fingerprint())
    }

    /// Looks up the placement for a triple, counting a hit or miss.
    pub(crate) fn lookup(
        &self,
        circuit: &Circuit,
        machine: &Machine,
        config: &CompilerConfig,
    ) -> Option<Placement> {
        let key = PlacementCache::key(circuit, machine, config);
        let found = self
            .entries
            .lock()
            .expect("placement cache lock poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(placement) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(placement)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the placement computed for a triple.
    pub(crate) fn insert(
        &self,
        circuit: &Circuit,
        machine: &Machine,
        config: &CompilerConfig,
        placement: Placement,
    ) {
        let key = PlacementCache::key(circuit, machine, config);
        self.entries
            .lock()
            .expect("placement cache lock poisoned")
            .insert(key, placement);
    }

    /// Number of cached placements.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("placement cache lock poisoned")
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a panic while holding the cache lock has poisoned it. A
    /// poisoned cache makes every later compile through it panic too, so
    /// long-lived owners (the serve daemon) check this after catching a
    /// request panic and rebuild their session instead of reusing it.
    pub fn is_poisoned(&self) -> bool {
        self.entries.is_poisoned()
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> PlacementCacheStats {
        PlacementCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::Benchmark;

    #[test]
    fn aware_configs_key_on_the_day_unaware_on_topology() {
        let day0 = Machine::ibmq16_on_day(5, 0);
        let day3 = Machine::ibmq16_on_day(5, 3);
        let circuit = Benchmark::Bv4.circuit();

        let aware = CompilerConfig::greedy_e();
        assert_ne!(
            PlacementCache::key(&circuit, &day0, &aware),
            PlacementCache::key(&circuit, &day3, &aware),
        );

        let unaware = CompilerConfig::qiskit();
        assert_eq!(
            PlacementCache::key(&circuit, &day0, &unaware),
            PlacementCache::key(&circuit, &day3, &unaware),
        );
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = PlacementCache::new();
        let m = Machine::ibmq16_on_day(5, 0);
        let circuit = Benchmark::Bv4.circuit();
        let config = CompilerConfig::qiskit();

        assert!(cache.lookup(&circuit, &m, &config).is_none());
        cache.insert(
            &circuit,
            &m,
            &config,
            Placement::new(vec![nisq_machine::HwQubit(0); circuit.num_qubits()]),
        );
        assert!(cache.lookup(&circuit, &m, &config).is_some());
        assert_eq!(cache.stats(), PlacementCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }
}
