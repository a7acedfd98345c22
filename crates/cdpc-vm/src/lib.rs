//! Virtual-memory substrate for the compiler-directed page coloring stack.
//!
//! This crate models the part of an operating system that the ASPLOS '96
//! paper *Compiler-Directed Page Coloring for Multiprocessors* interacts
//! with: the physical page allocator, the virtual-to-physical page tables,
//! and — most importantly — the **page mapping policy** that picks the
//! *color* of the physical page backing each virtual page.
//!
//! Two pages have the same color when they map to the same location in a
//! physically-indexed cache; cache conflicts can only occur between pages of
//! the same color. The number of colors is
//! `cache_size / (page_size * associativity)`.
//!
//! The crate provides the two static policies used by 1990s commercial
//! operating systems, plus the paper's hint-driven extension:
//!
//! * [`policy::PageColoring`] — consecutive virtual pages get consecutive
//!   colors (IRIX, Windows NT).
//! * [`policy::BinHopping`] — colors are assigned in fault order, cycling
//!   through all colors (Digital UNIX).
//! * [`policy::CdpcPolicy`] — an `madvise`-style hint table consulted first,
//!   falling back to a base policy when no hint exists or memory pressure
//!   prevents honoring the hint.
//!
//! It also implements the *user-level* realization of CDPC used on Digital
//! UNIX in the paper ([`touch`]): selectively touching pages in a computed
//! order so that the kernel's own bin-hopping policy produces the desired
//! coloring without any kernel modification.
//!
//! # Example
//!
//! ```
//! use cdpc_vm::addr::{ColorSpace, PageGeometry, Vpn};
//! use cdpc_vm::policy::PageColoring;
//! use cdpc_vm::{AddressSpace, FaultOutcome};
//!
//! // 1 MB direct-mapped cache, 4 KB pages => 256 colors.
//! let colors = ColorSpace::new(1 << 20, 4096, 1);
//! assert_eq!(colors.num_colors(), 256);
//!
//! let mut vm = AddressSpace::new(PageGeometry::new(4096), 1024, colors);
//! let fault = vm.fault(Vpn(7), &mut PageColoring::new(colors))?;
//! assert_eq!(fault.color, colors.color_of_vpn(Vpn(7)));
//! assert_eq!(fault.outcome, FaultOutcome::Honored);
//! # Ok::<(), cdpc_vm::VmError>(())
//! ```

pub mod addr;
pub mod hint_table;
pub mod pagetable;
pub mod phys;
pub mod policy;
pub mod region;
pub mod touch;

mod error;

pub use error::VmError;
pub use region::{Region, RegionMap};

use addr::{Color, ColorSpace, PageGeometry, PhysAddr, Ppn, VirtAddr, Vpn};
use pagetable::PageTable;
use phys::PhysicalMemory;
use policy::MappingPolicy;

/// A single application's virtual address space together with the physical
/// memory that backs it.
///
/// This is the integration point used by the machine simulator: every
/// first-touch of a virtual page raises a fault, the fault consults the
/// mapping policy for a preferred color, and the physical allocator tries to
/// honor that color.
#[derive(Debug)]
pub struct AddressSpace {
    geometry: PageGeometry,
    colors: ColorSpace,
    page_table: PageTable,
    phys: PhysicalMemory,
    stats: FaultStats,
}

/// Counters describing how page faults were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total page faults served.
    pub faults: u64,
    /// Faults for which the policy expressed a color preference.
    pub preferred: u64,
    /// Faults where the preferred color was honored exactly.
    pub honored: u64,
    /// Faults that fell back to a different color (memory pressure).
    pub fallback: u64,
}

impl FaultStats {
    fn record(&mut self, outcome: FaultOutcome) {
        self.faults += 1;
        match outcome {
            FaultOutcome::NoPreference => {}
            FaultOutcome::Honored => {
                self.preferred += 1;
                self.honored += 1;
            }
            FaultOutcome::Fallback => {
                self.preferred += 1;
                self.fallback += 1;
            }
        }
    }

    /// Fraction of color-preferring faults that were honored, or 1.0 when no
    /// fault expressed a preference.
    pub fn honor_rate(&self) -> f64 {
        if self.preferred == 0 {
            1.0
        } else {
            self.honored as f64 / self.preferred as f64
        }
    }
}

/// How a fault's color preference fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The policy expressed no color preference.
    NoPreference,
    /// The preferred color was honored exactly.
    Honored,
    /// Memory pressure forced a different color.
    Fallback,
}

/// What one page fault did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The physical page now backing the faulting virtual page.
    pub ppn: Ppn,
    /// That page's color.
    pub color: Color,
    /// Whether the policy's preferred color was honored, fell back to
    /// another color under memory pressure, or was absent.
    pub outcome: FaultOutcome,
    /// For a hint-table policy, whether the table held a color for the
    /// page; `None` for policies without a table.
    pub hint_hit: Option<bool>,
}

impl AddressSpace {
    /// Creates an address space backed by `phys_pages` physical pages.
    ///
    /// # Panics
    ///
    /// Panics if `phys_pages` is zero.
    pub fn new(geometry: PageGeometry, phys_pages: usize, colors: ColorSpace) -> Self {
        assert!(
            phys_pages > 0,
            "physical memory must hold at least one page"
        );
        Self {
            geometry,
            colors,
            page_table: PageTable::new(),
            phys: PhysicalMemory::new(phys_pages, colors),
            stats: FaultStats::default(),
        }
    }

    /// The page geometry (page size) of this address space.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// The color space used to classify physical pages.
    pub fn colors(&self) -> ColorSpace {
        self.colors
    }

    /// Translates a virtual address, returning `None` if the page is unmapped.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let vpn = self.geometry.vpn_of(va);
        let offset = self.geometry.offset_of(va);
        self.page_table
            .lookup(vpn)
            .map(|ppn| self.geometry.phys_addr(ppn, offset))
    }

    /// Translates a virtual page number, returning `None` if unmapped.
    #[inline]
    pub fn translate_page(&self, vpn: Vpn) -> Option<Ppn> {
        self.page_table.lookup(vpn)
    }

    /// Returns `true` if the virtual page is currently mapped.
    pub fn is_mapped(&self, vpn: Vpn) -> bool {
        self.page_table.lookup(vpn).is_some()
    }

    /// Serves a page fault on `vpn` using `policy` to pick the preferred
    /// color, and reports what it did.
    ///
    /// The preference is a *hint*: when no page of that color is free the
    /// allocator falls back to the nearest color with free pages, exactly as
    /// an OS under memory pressure would.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when no physical page is free at all
    /// and [`VmError::AlreadyMapped`] when the page is already mapped.
    pub fn fault<P: MappingPolicy + ?Sized>(
        &mut self,
        vpn: Vpn,
        policy: &mut P,
    ) -> Result<Fault, VmError> {
        if self.page_table.lookup(vpn).is_some() {
            return Err(VmError::AlreadyMapped(vpn));
        }
        let preference = policy.preferred_color(vpn);
        let ppn = match preference.color {
            Some(color) => self.phys.alloc_preferring(color)?,
            None => self.phys.alloc_any()?,
        };
        self.page_table.map(vpn, ppn)?;
        let color = self.colors.color_of_ppn(ppn);
        let outcome = match preference.color {
            None => FaultOutcome::NoPreference,
            Some(wanted) if wanted == color => FaultOutcome::Honored,
            Some(_) => FaultOutcome::Fallback,
        };
        self.stats.record(outcome);
        Ok(Fault {
            ppn,
            color,
            outcome,
            hint_hit: preference.hint_hit,
        })
    }

    /// Recolors a mapped page: allocates a new physical page preferring
    /// `color`, moves the mapping, and frees the old page. This is the
    /// mechanism behind *dynamic* page-coloring policies (paper §2.1):
    /// the OS copies the page contents and atomically swaps the
    /// virtual-to-physical mapping. The caller is responsible for the
    /// machine-level consequences (cache invalidation, TLB shootdown,
    /// copy cost).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if `vpn` has no mapping, or
    /// [`VmError::OutOfMemory`] when no replacement page exists (the
    /// original mapping is left untouched in that case).
    pub fn recolor(&mut self, vpn: Vpn, color: Color) -> Result<(Ppn, Ppn), VmError> {
        let old = self.page_table.lookup(vpn).ok_or(VmError::NotMapped(vpn))?;
        let new = self.phys.alloc_preferring(color)?;
        self.page_table.unmap(vpn).expect("checked above");
        self.page_table.map(vpn, new).expect("just unmapped");
        self.phys.free(old);
        Ok((old, new))
    }

    /// Fault statistics accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Zeroes the fault statistics, so that [`stats`](Self::stats) counts
    /// only later faults (mappings stay as they are).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Number of physical pages still free.
    pub fn free_pages(&self) -> usize {
        self.phys.free_pages()
    }

    /// Total number of physical pages.
    pub fn total_pages(&self) -> usize {
        self.phys.total_pages()
    }

    /// Iterates over all current `(vpn, ppn)` mappings in ascending `vpn`
    /// order.
    pub fn mappings(&self) -> impl Iterator<Item = (Vpn, Ppn)> + '_ {
        self.page_table.iter()
    }

    /// The color of the physical page backing `vpn`, if mapped.
    pub fn color_of(&self, vpn: Vpn) -> Option<Color> {
        self.page_table
            .lookup(vpn)
            .map(|ppn| self.colors.color_of_ppn(ppn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::PageColoring;

    fn space() -> (AddressSpace, PageColoring) {
        let colors = ColorSpace::new(1 << 16, 4096, 1); // 16 colors
        let vm = AddressSpace::new(PageGeometry::new(4096), 64, colors);
        let policy = PageColoring::new(colors);
        (vm, policy)
    }

    #[test]
    fn fault_maps_page_and_honors_color() {
        let (mut vm, mut policy) = space();
        let ppn = vm.fault(Vpn(3), &mut policy).unwrap().ppn;
        assert_eq!(vm.translate_page(Vpn(3)), Some(ppn));
        assert_eq!(vm.color_of(Vpn(3)).unwrap().0, 3);
        assert_eq!(vm.stats().honored, 1);
    }

    #[test]
    fn double_fault_is_rejected() {
        let (mut vm, mut policy) = space();
        vm.fault(Vpn(0), &mut policy).unwrap();
        assert_eq!(
            vm.fault(Vpn(0), &mut policy),
            Err(VmError::AlreadyMapped(Vpn(0)))
        );
    }

    #[test]
    fn translate_combines_page_and_offset() {
        let (mut vm, mut policy) = space();
        let ppn = vm.fault(Vpn(2), &mut policy).unwrap().ppn;
        let va = VirtAddr(2 * 4096 + 123);
        assert_eq!(vm.translate(va), Some(PhysAddr(ppn.0 * 4096 + 123)));
    }

    #[test]
    fn memory_pressure_falls_back_to_other_colors() {
        // 4 pages, 2 colors: after exhausting color 0, faults preferring
        // color 0 must fall back to color 1.
        let colors = ColorSpace::new(2 * 4096, 4096, 1);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 4, colors);
        let mut policy = policy::FixedColor::new(Color(0));
        for i in 0..4 {
            vm.fault(Vpn(i), &mut policy).unwrap();
        }
        let stats = vm.stats();
        assert_eq!(stats.faults, 4);
        assert_eq!(stats.honored, 2);
        assert_eq!(stats.fallback, 2);
        assert_eq!(vm.fault(Vpn(99), &mut policy), Err(VmError::OutOfMemory));
    }

    /// Each fault's returned outcome is the change it made to
    /// [`FaultStats`], and a hint-table policy reports the lookup's hit.
    #[test]
    fn fault_outcome_matches_the_stats_delta() {
        // 6 pages, 2 colors. Pages 0..4 are hinted color 0, so the fourth
        // of them finds color 0 exhausted and falls back.
        let colors = ColorSpace::new(2 * 4096, 4096, 1);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 6, colors);
        let hints = (0..4).map(|v| (Vpn(v), Color(0))).collect();
        let mut cdpc = policy::CdpcPolicy::new(hints, PageColoring::new(colors));
        let mut check = |vpn, policy: &mut dyn MappingPolicy| {
            let before = vm.stats();
            let fault = vm.fault(Vpn(vpn), policy).unwrap();
            let after = vm.stats();
            assert_eq!(vm.translate_page(Vpn(vpn)), Some(fault.ppn));
            assert_eq!(colors.color_of_ppn(fault.ppn), fault.color);
            assert_eq!(after.faults - before.faults, 1);
            let honored = after.honored - before.honored;
            let fallback = after.fallback - before.fallback;
            assert_eq!(after.preferred - before.preferred, honored + fallback);
            let expected = match (honored, fallback) {
                (1, 0) => FaultOutcome::Honored,
                (0, 1) => FaultOutcome::Fallback,
                (0, 0) => FaultOutcome::NoPreference,
                other => panic!("one fault moved (honored, fallback) by {other:?}"),
            };
            assert_eq!(fault.outcome, expected);
            fault
        };
        let f = check(0, &mut cdpc);
        assert_eq!((f.outcome, f.hint_hit), (FaultOutcome::Honored, Some(true)));
        check(1, &mut cdpc);
        check(2, &mut cdpc);
        let f = check(3, &mut cdpc);
        assert_eq!(
            (f.outcome, f.hint_hit),
            (FaultOutcome::Fallback, Some(true))
        );
        assert_eq!(f.color, Color(1));
        // Page 5 has no hint: page coloring wants color 1, still free.
        let f = check(5, &mut cdpc);
        assert_eq!(
            (f.outcome, f.hint_hit),
            (FaultOutcome::Honored, Some(false))
        );
        let f = check(9, &mut policy::NoPreference);
        assert_eq!((f.outcome, f.hint_hit), (FaultOutcome::NoPreference, None));
    }

    #[test]
    fn honor_rate_reflects_fallbacks() {
        let mut s = FaultStats::default();
        assert_eq!(s.honor_rate(), 1.0);
        s.preferred = 4;
        s.honored = 3;
        assert_eq!(s.honor_rate(), 0.75);
    }

    #[test]
    fn recolor_moves_page_to_new_color() {
        let (mut vm, mut policy) = space();
        vm.fault(Vpn(3), &mut policy).unwrap(); // color 3 under page coloring
        let (old, new) = vm.recolor(Vpn(3), Color(9)).unwrap();
        assert_ne!(old, new);
        assert_eq!(vm.color_of(Vpn(3)), Some(Color(9)));
        // The old frame is reusable.
        let free_before = vm.free_pages();
        vm.fault(Vpn(40), &mut policy).unwrap();
        assert_eq!(vm.free_pages(), free_before - 1);
    }

    #[test]
    fn recolor_of_unmapped_page_fails() {
        let (mut vm, _) = space();
        assert_eq!(
            vm.recolor(Vpn(5), Color(1)),
            Err(VmError::NotMapped(Vpn(5)))
        );
    }

    #[test]
    fn recolor_under_pressure_keeps_old_mapping() {
        // Fill memory completely; recolor must fail without corrupting the
        // page table.
        let colors = ColorSpace::with_colors(2);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 2, colors);
        let mut policy = policy::NoPreference;
        vm.fault(Vpn(0), &mut policy).unwrap();
        vm.fault(Vpn(1), &mut policy).unwrap();
        let before = vm.translate_page(Vpn(0)).unwrap();
        assert_eq!(vm.recolor(Vpn(0), Color(1)), Err(VmError::OutOfMemory));
        assert_eq!(vm.translate_page(Vpn(0)), Some(before));
    }
}
