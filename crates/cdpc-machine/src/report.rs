//! Run reports: the numbers behind every figure of the paper.
//!
//! A [`RunReport`] carries the four views of Figure 2 — combined execution
//! time, overhead breakdown, memory system behavior (MCPI by miss class),
//! and bus utilization — plus the raw memory statistics for deeper
//! analysis.

use cdpc_memsim::{CpuStats, MemStats, MissClass};
use cdpc_vm::FaultStats;

/// Parallelization overheads (Figure 2, second graph), in CPU cycles
/// summed over all processors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Operating-system time: TLB-fault servicing and page faults.
    pub kernel: u64,
    /// Waiting at barriers for slower processors.
    pub load_imbalance: u64,
    /// Slaves spinning while the master runs inherently sequential code.
    pub sequential: u64,
    /// Slaves spinning while the master runs a *suppressed* parallelizable
    /// loop.
    pub suppressed: u64,
    /// Barrier/lock implementation cost.
    pub synchronization: u64,
}

impl OverheadBreakdown {
    /// Total overhead cycles.
    pub fn total(&self) -> u64 {
        self.kernel + self.load_imbalance + self.sequential + self.suppressed + self.synchronization
    }
}

/// Memory stall cycles by cause (Figure 2, third graph), summed over
/// processors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// L1 misses that hit in the external cache ("on-chip" stall in the
    /// paper's classification).
    pub l2_hit: u64,
    /// External-cache conflict misses.
    pub conflict: u64,
    /// External-cache capacity misses.
    pub capacity: u64,
    /// True-sharing communication misses.
    pub true_sharing: u64,
    /// False-sharing communication misses.
    pub false_sharing: u64,
    /// Cold misses (mostly discarded with warm-up, residual may remain).
    pub cold: u64,
    /// Waiting on in-flight prefetches and on free prefetch slots.
    pub prefetch: u64,
    /// Ownership upgrades.
    pub upgrade: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.l2_hit
            + self.conflict
            + self.capacity
            + self.true_sharing
            + self.false_sharing
            + self.cold
            + self.prefetch
            + self.upgrade
    }

    /// Replacement stall (the paper's conflict + capacity).
    pub fn replacement(&self) -> u64 {
        self.conflict + self.capacity
    }

    /// Builds the breakdown from raw memory statistics.
    pub fn from_mem_stats(stats: &MemStats) -> Self {
        Self::from_cpu_stats(&stats.aggregate())
    }

    /// Builds the breakdown from one CPU's (or the aggregate's) counters:
    /// the one mapping from memory-system counters to stall classes, shared
    /// by the report and the interval sampler.
    pub fn from_cpu_stats(agg: &CpuStats) -> Self {
        StallBreakdown {
            l2_hit: agg.l2_hit_stall_cycles,
            conflict: agg.miss_stall_cycles.get(MissClass::Conflict),
            capacity: agg.miss_stall_cycles.get(MissClass::Capacity),
            true_sharing: agg.miss_stall_cycles.get(MissClass::TrueSharing),
            false_sharing: agg.miss_stall_cycles.get(MissClass::FalseSharing),
            cold: agg.miss_stall_cycles.get(MissClass::Cold),
            prefetch: agg.prefetch_wait_cycles + agg.prefetch_slot_stall_cycles,
            upgrade: agg.upgrade_stall_cycles,
        }
    }
}

/// Shared-bus occupancy (Figure 2, fourth graph).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusReport {
    /// Cycles carrying demand/prefetch data.
    pub data_cycles: u64,
    /// Cycles carrying write-backs.
    pub writeback_cycles: u64,
    /// Cycles carrying upgrades.
    pub upgrade_cycles: u64,
    /// Occupied fraction of the measured interval, 0–1.
    pub utilization: f64,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub name: String,
    /// Processors.
    pub num_cpus: usize,
    /// Page-mapping policy label.
    pub policy: String,
    /// Instructions executed, summed over processors.
    pub instructions: u64,
    /// Pure execution cycles (1 cycle/instruction), summed over processors.
    pub exec_cycles: u64,
    /// Memory stalls by cause, summed over processors.
    pub stalls: StallBreakdown,
    /// Parallelization overheads, summed over processors.
    pub overheads: OverheadBreakdown,
    /// Wall-clock cycles of the measured steady state (max over CPUs).
    pub elapsed_cycles: u64,
    /// `elapsed * num_cpus`: the paper's combined execution time metric.
    pub combined_cycles: u64,
    /// Bus view.
    pub bus: BusReport,
    /// Raw memory statistics.
    pub mem_stats: MemStats,
    /// Page-fault statistics (hint honor rate).
    pub fault_stats: FaultStats,
    /// Pages moved by the dynamic-recoloring policy (zero for static
    /// policies).
    pub recolorings: u64,
    /// Memory references simulated over the whole run (warm-up included,
    /// demand accesses plus issued prefetches) — the simulator-throughput
    /// numerator behind wall-clock refs/sec self-profiling.
    pub simulated_refs: u64,
}

impl RunReport {
    /// Memory cycles per instruction (the paper's MCPI): total stall
    /// cycles summed over processors, divided by total instructions summed
    /// over processors (not a per-processor average).
    pub fn mcpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.stalls.total() as f64 / self.instructions as f64
    }

    /// External-cache miss rate over demand references.
    pub fn l2_miss_rate(&self) -> f64 {
        self.mem_stats.aggregate().l2_miss_rate()
    }

    /// Speedup of this run relative to `baseline` in wall-clock time.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.elapsed_cycles as f64 / self.elapsed_cycles.max(1) as f64
    }

    /// SPEC-style ratio: `reference_cycles / elapsed_cycles`.
    pub fn ratio(&self, reference_cycles: u64) -> f64 {
        reference_cycles as f64 / self.elapsed_cycles.max(1) as f64
    }
}

/// Geometric mean of a set of ratios (the SPEC95fp aggregate).
///
/// Returns 0.0 for an empty slice.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_total_sums_categories() {
        let o = OverheadBreakdown {
            kernel: 1,
            load_imbalance: 2,
            sequential: 3,
            suppressed: 4,
            synchronization: 5,
        };
        assert_eq!(o.total(), 15);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn stall_breakdown_from_stats() {
        let mut stats = MemStats::default();
        let mut cpu = cdpc_memsim::CpuStats::default();
        cpu.l2_hit_stall_cycles = 10;
        cpu.miss_stall_cycles.add(MissClass::Conflict, 20);
        cpu.miss_stall_cycles.add(MissClass::Capacity, 30);
        cpu.prefetch_wait_cycles = 5;
        stats.cpus.push(cpu);
        let s = StallBreakdown::from_mem_stats(&stats);
        assert_eq!(s.l2_hit, 10);
        assert_eq!(s.replacement(), 50);
        assert_eq!(s.total(), 65);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    fn dummy_report(elapsed: u64) -> RunReport {
        RunReport {
            name: "t".into(),
            num_cpus: 2,
            policy: "page-coloring".into(),
            instructions: 100,
            exec_cycles: 100,
            stalls: StallBreakdown {
                conflict: 50,
                ..Default::default()
            },
            overheads: OverheadBreakdown::default(),
            elapsed_cycles: elapsed,
            combined_cycles: elapsed * 2,
            bus: BusReport::default(),
            mem_stats: MemStats::default(),
            fault_stats: FaultStats::default(),
            recolorings: 0,
            simulated_refs: 0,
        }
    }

    #[test]
    fn mcpi_and_speedup() {
        let a = dummy_report(1000);
        let b = dummy_report(500);
        assert!((a.mcpi() - 0.5).abs() < 1e-12);
        assert!((b.speedup_over(&a) - 2.0).abs() < 1e-12);
        assert!((a.ratio(2000) - 2.0).abs() < 1e-12);
    }
}
