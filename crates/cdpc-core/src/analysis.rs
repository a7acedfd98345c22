//! Static analysis of a coloring: predict cache behavior before running
//! anything.
//!
//! Given the hints (or any vpn→color assignment) and the access summary,
//! this module computes the quantities the paper reasons about
//! qualitatively:
//!
//! * the **per-processor color load** — how many of each CPU's pages share
//!   each color. The paper's objective 1 ("spread the load out evenly
//!   across the cache") means this histogram should be flat;
//! * the **overload** — pages beyond one per color per processor, a static
//!   proxy for conflict misses in a direct-mapped cache;
//! * the **cache utilization** — the fraction of colors a processor's
//!   pages touch at all (the under-utilization of Figure 3 shows up as a
//!   low value here).
//!
//! The `reproduce` experiments use this to explain *why* a mapping
//! performs the way it does without re-running the simulator.

use std::collections::BTreeMap;

use cdpc_vm::addr::{Color, Vpn};

use crate::machine::MachineParams;
use crate::procset::ProcSet;
use crate::segments::build_segments;
use crate::summary::AccessSummary;
use crate::CdpcError;

/// Per-processor view of one coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuColorProfile {
    /// The processor.
    pub cpu: usize,
    /// Pages this processor accesses, per color.
    pub load: Vec<u32>,
}

impl CpuColorProfile {
    /// Total pages accessed by this processor.
    pub fn total_pages(&self) -> u32 {
        self.load.iter().sum()
    }

    /// Pages beyond one per color: a static proxy for direct-mapped
    /// conflict pressure.
    pub fn overload(&self) -> u32 {
        self.load.iter().map(|&l| l.saturating_sub(1)).sum()
    }

    /// Fraction of colors with at least one page (the cache-utilization
    /// measure behind Figure 3/5).
    pub fn utilization(&self) -> f64 {
        if self.load.is_empty() {
            return 0.0;
        }
        self.load.iter().filter(|&&l| l > 0).count() as f64 / self.load.len() as f64
    }

    /// Maximum pages on any single color (the hottest spot).
    pub fn peak(&self) -> u32 {
        self.load.iter().copied().max().unwrap_or(0)
    }
}

/// The full static profile of one coloring against one summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringProfile {
    /// One profile per processor.
    pub cpus: Vec<CpuColorProfile>,
}

impl ColoringProfile {
    /// Sum of per-processor overloads — the headline static conflict
    /// metric.
    pub fn total_overload(&self) -> u32 {
        self.cpus.iter().map(|c| c.overload()).sum()
    }

    /// Mean per-processor cache utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.cpus.is_empty() {
            return 0.0;
        }
        self.cpus.iter().map(|c| c.utilization()).sum::<f64>() / self.cpus.len() as f64
    }
}

/// Computes the per-processor color profile of an arbitrary coloring
/// function over the summary's pages.
///
/// `color_of` is consulted for every page of every analyzable array;
/// pages it declines to color (returns `None`) are skipped — matching how
/// unhinted pages are invisible to a static analysis (their color depends
/// on the fallback policy).
///
/// # Errors
///
/// Returns a [`CdpcError`] if the summary fails validation.
pub fn profile_coloring<F>(
    summary: &AccessSummary,
    machine: &MachineParams,
    mut color_of: F,
) -> Result<ColoringProfile, CdpcError>
where
    F: FnMut(Vpn) -> Option<Color>,
{
    let segments = build_segments(summary, machine)?;
    let geometry = machine.geometry();
    let num_colors = machine.colors().num_colors() as usize;
    let p = machine.num_cpus();

    // Page → union of accessing processors (pages straddling segments are
    // touched by both sides).
    let mut page_procs: BTreeMap<u64, ProcSet> = BTreeMap::new();
    for seg in &segments {
        let first = geometry.vpn_of(seg.start).0;
        let last = geometry
            .vpn_of(cdpc_vm::addr::VirtAddr(seg.start.0 + seg.bytes - 1))
            .0;
        for page in first..=last {
            let entry = page_procs.entry(page).or_insert(ProcSet::EMPTY);
            *entry = entry.union(seg.procs);
        }
    }

    let mut cpus: Vec<CpuColorProfile> = (0..p)
        .map(|cpu| CpuColorProfile {
            cpu,
            load: vec![0; num_colors],
        })
        .collect();
    for (&page, &procs) in &page_procs {
        let Some(color) = color_of(Vpn(page)) else {
            continue;
        };
        for cpu in procs.iter() {
            cpus[cpu].load[color.0 as usize] += 1;
        }
    }
    Ok(ColoringProfile { cpus })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::generate_hints;
    use crate::summary::{
        ArrayId, ArrayInfo, ArrayPartitioning, PartitionDirection, PartitionPolicy,
    };
    use cdpc_vm::addr::VirtAddr;

    const PAGE: u64 = 4096;

    fn two_array_summary() -> AccessSummary {
        let a = ArrayId(0);
        let b = ArrayId(1);
        AccessSummary {
            arrays: vec![
                ArrayInfo::new(a, "A", VirtAddr(0), 8 * PAGE),
                ArrayInfo::new(b, "B", VirtAddr(8 * PAGE), 8 * PAGE),
            ],
            partitionings: vec![
                ArrayPartitioning::new(
                    a,
                    PAGE,
                    8,
                    PartitionPolicy::Blocked,
                    PartitionDirection::Forward,
                ),
                ArrayPartitioning::new(
                    b,
                    PAGE,
                    8,
                    PartitionPolicy::Blocked,
                    PartitionDirection::Forward,
                ),
            ],
            ..Default::default()
        }
    }

    fn machine() -> MachineParams {
        MachineParams::new(2, PAGE as usize, 8 * PAGE as usize, 1) // 8 colors
    }

    #[test]
    fn page_coloring_profile_shows_the_pathology() {
        // Arrays exactly one cache apart: page coloring stacks A[i] and
        // B[i] on the same color → overload 8, half the colors idle per
        // CPU... here 8 colors, each CPU has 4+4 pages on 4 colors.
        let summary = two_array_summary();
        let colors = machine().colors();
        let profile =
            profile_coloring(&summary, &machine(), |vpn| Some(colors.color_of_vpn(vpn))).unwrap();
        assert_eq!(profile.total_overload(), 8, "every page pairs up");
        assert!((profile.mean_utilization() - 0.5).abs() < 1e-9);
        assert_eq!(profile.cpus[0].peak(), 2);
    }

    #[test]
    fn cdpc_profile_is_flat() {
        let summary = two_array_summary();
        let hints = generate_hints(&summary, &machine()).unwrap();
        let profile = profile_coloring(&summary, &machine(), |vpn| hints.color_of(vpn)).unwrap();
        assert_eq!(profile.total_overload(), 0, "one page per color per CPU");
        assert!((profile.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unhinted_pages_are_skipped() {
        let summary = two_array_summary();
        let profile = profile_coloring(&summary, &machine(), |_| None).unwrap();
        assert_eq!(profile.total_overload(), 0);
        assert_eq!(profile.mean_utilization(), 0.0);
        assert_eq!(profile.cpus.len(), 2);
    }

    #[test]
    fn profile_counts_each_cpu_page_once() {
        let summary = two_array_summary();
        let colors = machine().colors();
        let profile =
            profile_coloring(&summary, &machine(), |vpn| Some(colors.color_of_vpn(vpn))).unwrap();
        // Each CPU touches 8 pages (half of each array).
        for c in &profile.cpus {
            assert_eq!(c.total_pages(), 8);
        }
    }
}
