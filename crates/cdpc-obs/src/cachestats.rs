//! Counters for the sweep memoization layer.
//!
//! The sweep executor (`cdpc-machine::sweep`) can satisfy a job three
//! ways: run it, reuse another identical job's result from the same sweep
//! (*dedup*), or load a prior run's report from the persistent result
//! cache (*hit*). [`SweepCacheStats`] tallies which path each job took so
//! every sweep can report — and CI can assert — how much simulation work
//! memoization actually removed.

/// Per-sweep memoization counters.
///
/// Every job increments exactly one of `hits`, `misses`, `bypassed`, or
/// `deduped` (a deduped job's representative carries the hit/miss/bypass
/// outcome; the duplicate itself counts only in `deduped`), so
/// `hits + misses + bypassed + deduped` equals the number of jobs
/// submitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCacheStats {
    /// Jobs answered from the persistent result cache without simulating.
    pub hits: u64,
    /// Cacheable jobs that had to simulate (and then populated the cache,
    /// if one was attached).
    pub misses: u64,
    /// Jobs that never consulted the cache: observation side-effects
    /// (trace/series/attribution/sanitizer) make their execution itself
    /// the product, or caching was disabled.
    pub bypassed: u64,
    /// Jobs that were byte-identical to an earlier job in the same sweep
    /// and reused its in-process result.
    pub deduped: u64,
}

impl SweepCacheStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total jobs submitted to the sweep.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.bypassed + self.deduped
    }

    /// Jobs whose simulation was skipped entirely (cache hits + dedups).
    pub fn avoided(&self) -> u64 {
        self.hits + self.deduped
    }

    /// Folds another counter set into this one (for aggregating multiple
    /// sweeps).
    pub fn merge(&mut self, other: &SweepCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypassed += other.bypassed;
        self.deduped += other.deduped;
    }

    /// The one-line summary printed to stderr after each sweep, e.g.
    /// `hits=12 misses=3 bypassed=0 deduped=5 (3/20 simulated)`.
    ///
    /// Stable format: CI greps it (`misses=0` asserts a fully warm cache),
    /// so field order and spelling are load-bearing.
    pub fn summary_line(&self) -> String {
        format!(
            "hits={} misses={} bypassed={} deduped={} ({}/{} simulated)",
            self.hits,
            self.misses,
            self.bypassed,
            self.deduped,
            self.misses + self.bypassed,
            self.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_partition_the_job_count() {
        let s = SweepCacheStats {
            hits: 12,
            misses: 3,
            bypassed: 1,
            deduped: 5,
        };
        assert_eq!(s.total(), 21);
        assert_eq!(s.avoided(), 17);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SweepCacheStats {
            hits: 1,
            misses: 2,
            bypassed: 3,
            deduped: 4,
        };
        let b = SweepCacheStats {
            hits: 10,
            misses: 20,
            bypassed: 30,
            deduped: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SweepCacheStats {
                hits: 11,
                misses: 22,
                bypassed: 33,
                deduped: 44,
            }
        );
    }

    #[test]
    fn summary_line_format_is_stable() {
        // CI greps `misses=0` out of this line; a format change must be
        // deliberate.
        let s = SweepCacheStats {
            hits: 12,
            misses: 0,
            bypassed: 1,
            deduped: 5,
        };
        assert_eq!(
            s.summary_line(),
            "hits=12 misses=0 bypassed=1 deduped=5 (1/18 simulated)"
        );
    }

    #[test]
    fn fresh_stats_are_zero() {
        let s = SweepCacheStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s, SweepCacheStats::default());
    }
}
