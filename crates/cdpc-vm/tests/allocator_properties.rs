//! Property tests over the physical allocator and the address space:
//! conservation, uniqueness, and color arithmetic under arbitrary
//! alloc/free interleavings.
//!
//! Interleavings are drawn from a seeded [`SplitMix64`], one seed per
//! case, so failures reproduce exactly by seed number.

use std::collections::HashSet;

use cdpc_obs::SplitMix64;
use cdpc_vm::addr::{Color, ColorSpace, PageGeometry, Vpn};
use cdpc_vm::phys::PhysicalMemory;
use cdpc_vm::policy::{BinHopping, MappingPolicy, PageColoring};
use cdpc_vm::AddressSpace;

#[derive(Debug, Clone, Copy)]
enum AllocOp {
    Exact(u32),
    Preferring(u32),
    Any,
    FreeOldest,
}

fn random_op(rng: &mut SplitMix64) -> AllocOp {
    match rng.below(4) {
        0 => AllocOp::Exact(rng.below(64) as u32),
        1 => AllocOp::Preferring(rng.below(64) as u32),
        2 => AllocOp::Any,
        _ => AllocOp::FreeOldest,
    }
}

/// Pages are never handed out twice, never lost, and colors always
/// match `ppn mod num_colors`.
#[test]
fn allocator_conserves_pages() {
    for seed in 0..96u64 {
        let mut rng = SplitMix64::new(seed);
        let pages = rng.range(1, 199) as usize;
        let colors_pow = rng.range(0, 6) as u32;
        let num_ops = rng.range(1, 199);
        let colors = ColorSpace::with_colors(1 << colors_pow);
        let mut pool = PhysicalMemory::new(pages, colors);
        let mut held: Vec<cdpc_vm::addr::Ppn> = Vec::new();
        let mut held_set = HashSet::new();
        for _ in 0..num_ops {
            match random_op(&mut rng) {
                AllocOp::Exact(c) => {
                    let color = Color(c % colors.num_colors());
                    if let Ok(ppn) = pool.alloc_exact(color) {
                        assert_eq!(colors.color_of_ppn(ppn), color, "seed {seed}: exact color");
                        assert!(held_set.insert(ppn), "seed {seed}: double allocation");
                        held.push(ppn);
                    }
                }
                AllocOp::Preferring(c) => {
                    let color = Color(c % colors.num_colors());
                    if let Ok(ppn) = pool.alloc_preferring(color) {
                        assert!(held_set.insert(ppn), "seed {seed}: double allocation");
                        held.push(ppn);
                    } else {
                        assert_eq!(
                            pool.free_pages(),
                            0,
                            "seed {seed}: preferring fails only when empty"
                        );
                    }
                }
                AllocOp::Any => {
                    if let Ok(ppn) = pool.alloc_any() {
                        assert!(held_set.insert(ppn), "seed {seed}: double allocation");
                        held.push(ppn);
                    } else {
                        assert_eq!(pool.free_pages(), 0, "seed {seed}");
                    }
                }
                AllocOp::FreeOldest => {
                    if let Some(ppn) = (!held.is_empty()).then(|| held.remove(0)) {
                        held_set.remove(&ppn);
                        pool.free(ppn);
                    }
                }
            }
            assert_eq!(
                pool.free_pages() + held.len(),
                pool.total_pages(),
                "seed {seed}: conservation violated"
            );
        }
    }
}

/// Under a page-coloring policy, an address space's mappings always
/// satisfy `color(ppn) == vpn mod num_colors` when memory is ample,
/// regardless of fault order.
#[test]
fn page_coloring_invariant_any_order() {
    for seed in 0..96u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.range(1, 31);
        let order: Vec<u64> = (0..len).map(|_| rng.below(32)).collect();
        let colors = ColorSpace::with_colors(8);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 256, colors);
        let mut policy = PageColoring::new(colors);
        let mut faulted = HashSet::new();
        for vpn in order {
            if faulted.insert(vpn) {
                vm.fault(Vpn(vpn), &mut policy).unwrap();
            }
        }
        for (vpn, ppn) in vm.mappings() {
            assert_eq!(
                colors.color_of_ppn(ppn),
                colors.color_of_vpn(vpn),
                "seed {seed}"
            );
        }
    }
}

/// Bin hopping's colors depend only on fault *order*, never on the
/// virtual page numbers involved.
#[test]
fn bin_hopping_is_address_blind() {
    for seed in 0..96u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.range(1, 39);
        let vpns_a: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let salt = rng.range(1, 999);
        let colors = ColorSpace::with_colors(16);
        let unique_a: Vec<u64> = {
            let mut seen = HashSet::new();
            vpns_a.into_iter().filter(|v| seen.insert(*v)).collect()
        };
        let vpns_b: Vec<u64> = unique_a.iter().map(|v| v + salt * 1000).collect();
        let colors_of = |vpns: &[u64]| {
            let mut p = BinHopping::new(colors);
            vpns.iter()
                .map(|&v| p.preferred_color(Vpn(v)).color.unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(colors_of(&unique_a), colors_of(&vpns_b), "seed {seed}");
    }
}
