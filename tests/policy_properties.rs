//! Property-based tests over the CDPC algorithm and the VM substrate:
//! randomized program shapes and machine geometries must always satisfy
//! the paper's structural invariants.
//!
//! Summaries and machine geometries are drawn from a seeded
//! [`SplitMix64`], one seed per case, so failures reproduce exactly by
//! seed number.

use cdpc::core::summary::{
    AccessSummary, ArrayId, ArrayInfo, ArrayPartitioning, CommunicationPattern,
    CommunicationSummary, GroupAccess, PartitionDirection, PartitionPolicy,
};
use cdpc::core::{generate_hints, MachineParams};
use cdpc::obs::SplitMix64;
use cdpc::vm::addr::{ColorSpace, PageGeometry, Vpn};
use cdpc::vm::policy::{BinHopping, MappingPolicy, PageColoring};
use cdpc::vm::touch::realizable;
use cdpc::vm::AddressSpace;

const PAGE: u64 = 4096;

/// A random but well-formed access summary: 1–6 arrays of 1–32 pages,
/// block/even × forward/reverse partitionings, optional stencil
/// communication, and random groupings.
fn random_summary(rng: &mut SplitMix64) -> AccessSummary {
    let num_arrays = rng.range(1, 6) as usize;
    let sizes: Vec<u64> = (0..num_arrays).map(|_| rng.range(1, 32)).collect();
    let seed = rng.next_u64();
    let mut arrays = Vec::new();
    let mut partitionings = Vec::new();
    let mut communications = Vec::new();
    let mut cursor = 0x10000u64;
    for (i, pages) in sizes.iter().enumerate() {
        let id = ArrayId(i);
        let bytes = pages * PAGE;
        arrays.push(ArrayInfo::new(
            id,
            format!("a{i}"),
            cdpc::vm::addr::VirtAddr(cursor),
            bytes,
        ));
        cursor += bytes;
        let h = seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32);
        let policy = if h & 1 == 0 {
            PartitionPolicy::Blocked
        } else {
            PartitionPolicy::Even
        };
        let direction = if h & 2 == 0 {
            PartitionDirection::Forward
        } else {
            PartitionDirection::Reverse
        };
        // Unit: one quarter page, so units divide the array exactly.
        let unit = PAGE / 4;
        partitionings.push(ArrayPartitioning::new(
            id,
            unit,
            pages * 4,
            policy,
            direction,
        ));
        if h & 4 == 0 {
            communications.push(CommunicationSummary {
                array: id,
                pattern: if h & 8 == 0 {
                    CommunicationPattern::Shift
                } else {
                    CommunicationPattern::Rotate
                },
                width_units: 1 + (h >> 4) % 3,
            });
        }
    }
    let groups = if arrays.len() >= 2 {
        vec![GroupAccess::new(vec![ArrayId(0), ArrayId(1)])]
    } else {
        vec![]
    };
    AccessSummary {
        arrays,
        partitionings,
        communications,
        groups,
        shared_arrays: vec![],
    }
}

/// Every page of every analyzable array is hinted exactly once, and
/// colors follow the round-robin law.
#[test]
fn hints_cover_each_page_once() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let summary = random_summary(&mut rng);
        let cpus = rng.range(1, 16) as usize;
        let colors_pow = rng.range(2, 6) as u32;
        let cache = (1u64 << colors_pow) * PAGE;
        let machine = MachineParams::new(cpus, PAGE as usize, cache as usize, 1);
        let hints = generate_hints(&summary, &machine).expect("random summaries are valid");

        // Uniqueness.
        let mut seen = std::collections::HashSet::new();
        for &v in hints.order() {
            assert!(seen.insert(v), "seed {seed}: page {v} hinted twice");
        }
        // Coverage: count pages of analyzable arrays (deduplicated across
        // straddling boundaries).
        let mut pages = std::collections::HashSet::new();
        for a in summary.analyzable_arrays() {
            let first = a.start.0 / PAGE;
            let last = (a.start.0 + a.size_bytes - 1) / PAGE;
            for p in first..=last {
                pages.insert(p);
            }
        }
        assert_eq!(
            hints.len(),
            pages.len(),
            "seed {seed}: every page hinted exactly once"
        );
        // Round-robin colors.
        for (i, (_, c)) in hints.assignments().iter().enumerate() {
            assert_eq!(c.0, i as u32 % hints.colors().num_colors(), "seed {seed}");
        }
    }
}

/// CDPC orders are always realizable by page touching on a bin-hopping
/// kernel — the property the paper's Digital UNIX implementation
/// depends on.
#[test]
fn hints_always_realizable_under_bin_hopping() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let summary = random_summary(&mut rng);
        let cpus = rng.range(1, 8) as usize;
        let machine = MachineParams::new(cpus, PAGE as usize, (8 * PAGE) as usize, 1);
        let hints = generate_hints(&summary, &machine).expect("valid");
        assert!(
            realizable(&hints.assignments(), hints.colors()).is_ok(),
            "seed {seed}"
        );
    }
}

/// Every color's global load differs by at most one: round-robin hint
/// assignment balances colors regardless of summary shape.
#[test]
fn global_color_load_is_balanced() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let summary = random_summary(&mut rng);
        let colors_pow = rng.range(2, 6) as u32;
        let machine =
            MachineParams::new(4, PAGE as usize, ((1u64 << colors_pow) * PAGE) as usize, 1);
        let hints = generate_hints(&summary, &machine).expect("valid");
        let n = hints.colors().num_colors() as usize;
        let mut load = vec![0u64; n];
        for (_, c) in hints.assignments() {
            load[c.0 as usize] += 1;
        }
        let (lo, hi) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "seed {seed}: round-robin must balance colors: {load:?}"
        );
    }
}

/// The address space honors every hint when memory is ample, for any
/// fault order.
#[test]
fn faults_honor_hints_with_ample_memory() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let pages = rng.range(1, 64) as usize;
        let colors = ColorSpace::with_colors(8);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), pages * 8, colors);
        let mut policy = PageColoring::new(colors);
        // Shuffle fault order deterministically.
        let mut order: Vec<u64> = (0..pages as u64).collect();
        rng.shuffle(&mut order);
        for vpn in order {
            vm.fault(Vpn(vpn), &mut policy).unwrap();
        }
        assert_eq!(vm.stats().fallback, 0, "seed {seed}");
        assert_eq!(vm.stats().honor_rate(), 1.0, "seed {seed}");
        // And the colors actually match the policy's intent.
        for vpn in 0..pages as u64 {
            assert_eq!(
                vm.color_of(Vpn(vpn)).unwrap(),
                colors.color_of_vpn(Vpn(vpn)),
                "seed {seed}"
            );
        }
    }
}

/// Bin hopping distributes any N faults over colors with imbalance at
/// most one (without race perturbation).
#[test]
fn bin_hopping_balances_any_fault_count() {
    let mut rng = SplitMix64::new(0xB1D);
    for _ in 0..64 {
        let faults = rng.range(1, 512);
        let colors = ColorSpace::with_colors(16);
        let mut policy = BinHopping::new(colors);
        let mut load = [0u64; 16];
        for i in 0..faults {
            let c = policy.preferred_color(Vpn(i * 7919)).color.unwrap();
            load[c.0 as usize] += 1;
        }
        let (lo, hi) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(hi - lo <= 1, "faults {faults}");
    }
}
