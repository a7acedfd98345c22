//! Parallel sweep executor: fan a batch of independent simulation jobs
//! across OS threads with deterministic, input-ordered result collection.
//!
//! The paper's evaluation is a cross-product — policies × workloads × CPU
//! counts — and every cell is a *pure function* of its
//! `(CompiledProgram, RunConfig)` pair: the simulator shares no mutable
//! state between runs and uses no ambient randomness. That makes the sweep
//! embarrassingly parallel, and it is the level at which this reproduction
//! parallelizes (the simulated CPUs inside one run are cycle-interleaved
//! and stay sequential).
//!
//! Work is distributed by an atomic cursor over the job list, so long jobs
//! do not convoy behind short ones; results are stitched back in input
//! order, which keeps every report and rendered table **bit-identical**
//! regardless of thread count — `--threads 1` and `--threads N` must
//! produce the same bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cdpc_compiler::CompiledProgram;
use cdpc_obs::SweepCacheStats;

use crate::memo::{run_key, ResultCache, RunKey};
use crate::report::RunReport;
use crate::run::{run, RunConfig};

/// One cell of a sweep: a compiled program and the machine configuration
/// to run it under.
///
/// The program is held by `Arc` so one compilation can be shared across
/// every sweep point that runs it (the cross-product re-runs each
/// workload under many policies and machine shapes): cloning a job costs
/// a refcount bump, not a deep copy of the reference streams.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The program to simulate (shared across sweep points).
    pub compiled: Arc<CompiledProgram>,
    /// The machine/policy configuration.
    pub cfg: RunConfig,
}

impl SweepJob {
    /// Bundles a compiled program with a run configuration. Accepts either
    /// an owned [`CompiledProgram`] or an already-shared `Arc`.
    pub fn new(compiled: impl Into<Arc<CompiledProgram>>, cfg: RunConfig) -> Self {
        Self {
            compiled: compiled.into(),
            cfg,
        }
    }
}

/// The host's available parallelism (the default for `--threads`).
///
/// Asked of the OS once per process: the query reads the affinity mask
/// and cgroup files, tens of microseconds per call.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` over every job on up to `threads` worker threads and returns
/// the results **in input order**.
///
/// `threads <= 1` (or a single job) degenerates to a plain sequential map
/// on the calling thread — no threads are spawned, so `--threads 1` is
/// byte-for-byte the old sequential behaviour. Worker threads pull jobs
/// from an atomic cursor (dynamic scheduling) and tag each result with its
/// input index; the tags, not completion order, decide placement.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn sweep_map<J, T, F>(jobs: &[J], threads: usize, f: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let threads = threads.max(1).min(jobs.len());
    if threads <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("atomic cursor covers every job"))
        .collect()
}

/// Runs a batch of simulation jobs on up to `threads` threads, returning
/// one [`RunReport`] per job in input order.
pub fn run_sweep(jobs: &[SweepJob], threads: usize) -> Vec<RunReport> {
    sweep_map(jobs, threads, |job| run(&job.compiled, &job.cfg))
}

/// [`run_sweep`] with content-addressed memoization layered on top,
/// returning the reports (input-ordered, bit-identical to [`run_sweep`])
/// plus the [`SweepCacheStats`] describing how each job was satisfied.
///
/// Two mechanisms remove redundant simulation, applied in order:
///
/// 1. **In-sweep dedup** — jobs with equal [`RunKey`]s are the same pure
///    function call; only the first (the *representative*) resolves, the
///    rest reuse its report.
/// 2. **Persistent cache** — if `cache` is `Some`, each representative
///    first tries [`ResultCache::load`]; hits skip simulation entirely and
///    misses [`ResultCache::store`] their fresh report afterwards.
///
/// Every path is bit-identical to a fresh [`run`]: dedup is keyed on a
/// content fingerprint over everything the simulation can observe, and
/// the cache codec is lossless. With `cache = None`, simulated jobs count
/// as `bypassed` rather than `misses`.
pub fn run_sweep_memo(
    jobs: &[SweepJob],
    threads: usize,
    cache: Option<&ResultCache>,
) -> (Vec<RunReport>, SweepCacheStats) {
    let mut stats = SweepCacheStats::new();
    let keys: Vec<RunKey> = jobs.iter().map(|j| run_key(&j.compiled, &j.cfg)).collect();

    // In-sweep dedup: the first job with each key represents all of them.
    let mut rep_of: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut first_with: HashMap<RunKey, usize> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        let rep = *first_with.entry(*key).or_insert(i);
        rep_of.push(rep);
        if rep != i {
            stats.deduped += 1;
        }
    }

    // Probe the persistent cache for each representative.
    let mut slots: Vec<Option<RunReport>> = vec![None; jobs.len()];
    let mut to_run: Vec<usize> = Vec::new();
    for i in 0..jobs.len() {
        if rep_of[i] != i {
            continue;
        }
        if let Some(cache) = cache {
            if let Some(report) = cache.load(&keys[i]) {
                stats.hits += 1;
                slots[i] = Some(report);
                continue;
            }
        }
        to_run.push(i);
    }
    if cache.is_some() {
        stats.misses = to_run.len() as u64;
    } else {
        stats.bypassed = to_run.len() as u64;
    }

    // Simulate the rest; results land by input index, so the output order
    // (and bytes) match the unmemoized sweep exactly.
    let ran = sweep_map(&to_run, threads, |&i| run(&jobs[i].compiled, &jobs[i].cfg));
    for (i, report) in to_run.into_iter().zip(ran) {
        if let Some(cache) = cache {
            // A failed store costs a future cache miss, nothing more.
            let _ = cache.store(&keys[i], &report);
        }
        slots[i] = Some(report);
    }

    let results = (0..jobs.len())
        .map(|i| {
            slots[rep_of[i]]
                .clone()
                .expect("every representative was resolved above")
        })
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_map_preserves_input_order() {
        let jobs: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let out = sweep_map(&jobs, threads, |&j| j * j);
            let want: Vec<u64> = jobs.iter().map(|&j| j * j).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn sweep_map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(sweep_map(&empty, 4, |&j: &u64| j).is_empty());
        assert_eq!(sweep_map(&[7u64], 4, |&j| j + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
