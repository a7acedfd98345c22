//! Page mapping policies.
//!
//! A mapping policy answers one question at each page fault: *which color
//! should the physical page backing this virtual page have?* The answer is a
//! preference — the allocator may fall back under memory pressure.
//!
//! Three policies from the paper are provided:
//!
//! * [`PageColoring`] — consecutive virtual pages → consecutive colors
//!   (IRIX 5.3, Windows NT). Exploits spatial locality: conflicts only occur
//!   between pages whose virtual addresses differ by a multiple of the cache
//!   set size.
//! * [`BinHopping`] — colors assigned in fault order, cycling through all
//!   colors (Digital UNIX). Exploits temporal locality: pages first touched
//!   close in time never conflict. On a multiprocessor, concurrent faults
//!   race for the fault-order counter, making the resulting coloring
//!   non-deterministic; [`BinHopping::with_race_perturbation`] models that.
//! * [`CdpcPolicy`] — consults a compiler-generated
//!   [`hint_table::HintTable`](crate::hint_table::HintTable) first and falls back to a
//!   base policy for unhinted pages.

use crate::addr::{Color, ColorSpace, Vpn};
use crate::hint_table::HintTable;

/// A page-mapping policy: maps page-fault events to preferred page colors.
///
/// Implementations may keep internal state (bin hopping's cursor) which is
/// why `preferred_color` takes `&mut self`.
pub trait MappingPolicy {
    /// The color this policy would like the page backing `vpn` to have, or
    /// `None` to let the allocator pick freely.
    fn preferred_color(&mut self, vpn: Vpn) -> Option<Color>;

    /// Invoked by the address space after the fault completes with the color
    /// that was actually obtained. The default implementation ignores it.
    fn note_mapped(&mut self, vpn: Vpn, actual: Color) {
        let _ = (vpn, actual);
    }

    /// A short human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// `(lookups, hits)` of the policy's hint table, if it has one.
    /// Policies without a hint table (everything except [`CdpcPolicy`])
    /// return `None`. Lets observers meter hint-table traffic through a
    /// `dyn MappingPolicy` without downcasting.
    fn hint_lookup_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

/// IRIX-style page coloring: `color = vpn mod num_colors`.
#[derive(Debug, Clone, Copy)]
pub struct PageColoring {
    colors: ColorSpace,
}

impl PageColoring {
    /// Creates a page-coloring policy over the given color space.
    pub fn new(colors: ColorSpace) -> Self {
        Self { colors }
    }
}

impl MappingPolicy for PageColoring {
    fn preferred_color(&mut self, vpn: Vpn) -> Option<Color> {
        Some(self.colors.color_of_vpn(vpn))
    }

    fn name(&self) -> &'static str {
        "page-coloring"
    }
}

/// Digital UNIX-style bin hopping: the `i`-th fault gets color
/// `(start + i) mod num_colors`, regardless of which page faulted.
///
/// With `race_window > 0`, each fault's position in the global fault order
/// is perturbed by a deterministic pseudo-random skip of up to
/// `race_window` slots, modelling the kernel race between processors that
/// fault concurrently (the paper notes this "can lead to unpredictable
/// performance").
#[derive(Debug, Clone)]
pub struct BinHopping {
    colors: ColorSpace,
    next: Color,
    race_window: u32,
    rng_state: u64,
}

impl BinHopping {
    /// Creates a deterministic bin-hopping policy starting at color 0.
    pub fn new(colors: ColorSpace) -> Self {
        Self {
            colors,
            next: Color(0),
            race_window: 0,
            rng_state: 0,
        }
    }

    /// Creates a bin-hopping policy whose fault order is perturbed by up to
    /// `race_window` slots per fault, seeded deterministically.
    pub fn with_race_perturbation(colors: ColorSpace, race_window: u32, seed: u64) -> Self {
        Self {
            colors,
            next: Color(0),
            race_window,
            rng_state: seed | 1,
        }
    }

    /// The color the *next* fault will be offered (before perturbation).
    pub fn cursor(&self) -> Color {
        self.next
    }

    fn next_perturbation(&mut self) -> u32 {
        if self.race_window == 0 {
            return 0;
        }
        // xorshift64*: cheap, deterministic, good enough for a jitter model.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32 % (self.race_window + 1)
    }
}

impl MappingPolicy for BinHopping {
    fn preferred_color(&mut self, _vpn: Vpn) -> Option<Color> {
        let skip = self.next_perturbation();
        let offered = self.colors.advance(self.next, skip);
        self.next = self.colors.advance(self.next, 1);
        Some(offered)
    }

    fn name(&self) -> &'static str {
        "bin-hopping"
    }
}

/// Compiler-directed page coloring: hints first, base policy otherwise.
///
/// This is the kernel-side half of CDPC — the paper's IRIX implementation
/// stores the `madvise`-provided color table and consults it during page
/// faults, deferring to the native policy for unhinted pages.
#[derive(Debug, Clone)]
pub struct CdpcPolicy<P> {
    hints: HintTable,
    base: P,
}

impl<P: MappingPolicy> CdpcPolicy<P> {
    /// Wraps `base` with a hint table.
    pub fn new(hints: HintTable, base: P) -> Self {
        Self { hints, base }
    }

    /// Read access to the installed hints.
    pub fn hints(&self) -> &HintTable {
        &self.hints
    }

    /// The fallback policy.
    pub fn base(&self) -> &P {
        &self.base
    }
}

impl<P: MappingPolicy> MappingPolicy for CdpcPolicy<P> {
    fn preferred_color(&mut self, vpn: Vpn) -> Option<Color> {
        match self.hints.lookup(vpn) {
            Some(color) => Some(color),
            None => self.base.preferred_color(vpn),
        }
    }

    fn name(&self) -> &'static str {
        "cdpc"
    }

    fn hint_lookup_stats(&self) -> Option<(u64, u64)> {
        Some(self.hints.lookup_stats())
    }
}

/// A policy with no color preference: the allocator's balanced `alloc_any`
/// path decides. Useful as a neutral baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPreference;

impl MappingPolicy for NoPreference {
    fn preferred_color(&mut self, _vpn: Vpn) -> Option<Color> {
        None
    }

    fn name(&self) -> &'static str {
        "no-preference"
    }
}

/// Always prefers one fixed color. A pathological policy used in tests and
/// as a worst-case baseline (everything conflicts).
#[derive(Debug, Clone, Copy)]
pub struct FixedColor {
    color: Color,
}

impl FixedColor {
    /// Creates a policy that always asks for `color`.
    pub fn new(color: Color) -> Self {
        Self { color }
    }
}

impl MappingPolicy for FixedColor {
    fn preferred_color(&mut self, _vpn: Vpn) -> Option<Color> {
        Some(self.color)
    }

    fn name(&self) -> &'static str {
        "fixed-color"
    }
}

impl<P: MappingPolicy + ?Sized> MappingPolicy for Box<P> {
    fn preferred_color(&mut self, vpn: Vpn) -> Option<Color> {
        (**self).preferred_color(vpn)
    }

    fn note_mapped(&mut self, vpn: Vpn, actual: Color) {
        (**self).note_mapped(vpn, actual);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn hint_lookup_stats(&self) -> Option<(u64, u64)> {
        (**self).hint_lookup_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colors() -> ColorSpace {
        ColorSpace::with_colors(8)
    }

    #[test]
    fn page_coloring_follows_vpn() {
        let mut p = PageColoring::new(colors());
        assert_eq!(p.preferred_color(Vpn(0)), Some(Color(0)));
        assert_eq!(p.preferred_color(Vpn(9)), Some(Color(1)));
        assert_eq!(p.preferred_color(Vpn(15)), Some(Color(7)));
    }

    #[test]
    fn bin_hopping_cycles_in_fault_order() {
        let mut p = BinHopping::new(colors());
        // The virtual page number is irrelevant; only fault order matters.
        let seq: Vec<u32> = (0..10)
            .map(|i| p.preferred_color(Vpn(100 - i)).unwrap().0)
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
    }

    #[test]
    fn bin_hopping_race_perturbs_but_stays_in_range() {
        let mut p = BinHopping::with_race_perturbation(colors(), 3, 42);
        let mut deviated = false;
        for i in 0..64u32 {
            let offered = p.preferred_color(Vpn(i as u64)).unwrap();
            let base = Color(i % 8);
            let skip = colors().distance(base, offered);
            assert!(skip <= 3, "perturbation {skip} exceeds window");
            deviated |= skip != 0;
        }
        assert!(deviated, "race perturbation never fired");
    }

    #[test]
    fn bin_hopping_race_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = BinHopping::with_race_perturbation(colors(), 3, seed);
            (0..32)
                .map(|i| p.preferred_color(Vpn(i)).unwrap().0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cdpc_prefers_hints_and_falls_back() {
        let mut hints = HintTable::new();
        hints.advise(Vpn(5), Color(3));
        let mut p = CdpcPolicy::new(hints, PageColoring::new(colors()));
        assert_eq!(p.preferred_color(Vpn(5)), Some(Color(3)));
        // Unhinted page: defer to page coloring.
        assert_eq!(p.preferred_color(Vpn(9)), Some(Color(1)));
        assert_eq!(p.name(), "cdpc");
    }

    #[test]
    fn boxed_policy_is_usable_as_trait_object() {
        let mut p: Box<dyn MappingPolicy> = Box::new(PageColoring::new(colors()));
        assert_eq!(p.preferred_color(Vpn(2)), Some(Color(2)));
        assert_eq!(p.name(), "page-coloring");
    }

    #[test]
    fn no_preference_declines() {
        assert_eq!(NoPreference.preferred_color(Vpn(1)), None);
    }
}
