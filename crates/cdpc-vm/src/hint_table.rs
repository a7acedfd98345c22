//! The `madvise`-style page-coloring hint interface.
//!
//! The paper's IRIX implementation extends `madvise` so an application can
//! hand the kernel a sequence of virtual pages with associated preferred
//! colors in a *single system call*; the kernel stores them in a table that
//! the VM subsystem consults during page faults. This module is that table.

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::addr::{Color, Vpn};

/// A table of per-virtual-page color preferences.
///
/// Hints are advisory: pages without hints use the OS's native policy, and
/// hinted colors may be overridden by the allocator under memory pressure.
///
/// The table keeps lookup statistics (total lookups and hits) in interior-
/// mutable counters so [`lookup`](Self::lookup) can stay `&self`; equality
/// and hashing consider only the hints themselves.
#[derive(Debug, Clone, Default)]
pub struct HintTable {
    hints: BTreeMap<Vpn, Color>,
    lookups: Cell<u64>,
    hits: Cell<u64>,
}

impl PartialEq for HintTable {
    fn eq(&self, other: &Self) -> bool {
        self.hints == other.hints
    }
}

impl Eq for HintTable {}

impl HintTable {
    /// Creates an empty hint table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the hint for one page.
    pub fn advise(&mut self, vpn: Vpn, color: Color) {
        self.hints.insert(vpn, color);
    }

    /// Installs hints for a contiguous range of pages starting at `start`,
    /// one color per page. This is the paper's single-system-call bulk
    /// interface.
    pub fn advise_range(&mut self, start: Vpn, colors: &[Color]) {
        for (i, &c) in colors.iter().enumerate() {
            self.hints.insert(start.offset(i as u64), c);
        }
    }

    /// Removes the hint for a page, returning it if present.
    pub fn retract(&mut self, vpn: Vpn) -> Option<Color> {
        self.hints.remove(&vpn)
    }

    /// The hint for `vpn`, if any. Counted in
    /// [`lookup_stats`](Self::lookup_stats).
    pub fn lookup(&self, vpn: Vpn) -> Option<Color> {
        self.lookups.set(self.lookups.get() + 1);
        let hint = self.hints.get(&vpn).copied();
        if hint.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        hint
    }

    /// `(lookups, hits)` performed so far. A miss means the fault fell back
    /// to the base mapping policy.
    pub fn lookup_stats(&self) -> (u64, u64) {
        (self.lookups.get(), self.hits.get())
    }

    /// Clears the lookup counters (hints are untouched).
    pub fn reset_lookup_stats(&self) {
        self.lookups.set(0);
        self.hits.set(0);
    }

    /// Number of hinted pages.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Returns `true` if no hints are installed.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }

    /// Iterates over hints in ascending virtual-page order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Color)> + '_ {
        self.hints.iter().map(|(&v, &c)| (v, c))
    }
}

impl FromIterator<(Vpn, Color)> for HintTable {
    fn from_iter<I: IntoIterator<Item = (Vpn, Color)>>(iter: I) -> Self {
        Self {
            hints: iter.into_iter().collect(),
            lookups: Cell::new(0),
            hits: Cell::new(0),
        }
    }
}

impl Extend<(Vpn, Color)> for HintTable {
    fn extend<I: IntoIterator<Item = (Vpn, Color)>>(&mut self, iter: I) {
        self.hints.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advise_and_lookup() {
        let mut t = HintTable::new();
        assert!(t.is_empty());
        t.advise(Vpn(4), Color(2));
        assert_eq!(t.lookup(Vpn(4)), Some(Color(2)));
        assert_eq!(t.lookup(Vpn(5)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn advise_range_assigns_consecutive_pages() {
        let mut t = HintTable::new();
        t.advise_range(Vpn(10), &[Color(0), Color(3), Color(1)]);
        assert_eq!(t.lookup(Vpn(10)), Some(Color(0)));
        assert_eq!(t.lookup(Vpn(11)), Some(Color(3)));
        assert_eq!(t.lookup(Vpn(12)), Some(Color(1)));
    }

    #[test]
    fn re_advising_replaces() {
        let mut t = HintTable::new();
        t.advise(Vpn(1), Color(0));
        t.advise(Vpn(1), Color(7));
        assert_eq!(t.lookup(Vpn(1)), Some(Color(7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn retract_removes() {
        let mut t = HintTable::new();
        t.advise(Vpn(1), Color(0));
        assert_eq!(t.retract(Vpn(1)), Some(Color(0)));
        assert_eq!(t.retract(Vpn(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn lookup_stats_count_hits_and_misses() {
        let mut t = HintTable::new();
        t.advise(Vpn(4), Color(2));
        t.lookup(Vpn(4));
        t.lookup(Vpn(5));
        t.lookup(Vpn(4));
        assert_eq!(t.lookup_stats(), (3, 2));
        t.reset_lookup_stats();
        assert_eq!(t.lookup_stats(), (0, 0));
    }

    #[test]
    fn equality_ignores_lookup_counters() {
        let mut a = HintTable::new();
        let mut b = HintTable::new();
        a.advise(Vpn(1), Color(0));
        b.advise(Vpn(1), Color(0));
        a.lookup(Vpn(1));
        assert_eq!(a, b, "counters must not affect equality");
    }

    #[test]
    fn collect_and_extend() {
        let t: HintTable = vec![(Vpn(2), Color(1)), (Vpn(1), Color(0))]
            .into_iter()
            .collect();
        let order: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![1, 2]);
        let mut t2 = t.clone();
        t2.extend([(Vpn(3), Color(2))]);
        assert_eq!(t2.len(), 3);
    }
}
