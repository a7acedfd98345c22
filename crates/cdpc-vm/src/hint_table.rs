//! The `madvise`-style page-coloring hint interface.
//!
//! The paper's IRIX implementation extends `madvise` so an application can
//! hand the kernel a sequence of virtual pages with associated preferred
//! colors in a *single system call*; the kernel stores them in a table that
//! the VM subsystem consults during page faults. This module is that table.

use std::collections::BTreeMap;

use crate::addr::{Color, Vpn};

/// A table of per-virtual-page color preferences.
///
/// Hints are advisory: pages without hints use the OS's native policy, and
/// hinted colors may be overridden by the allocator under memory pressure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintTable {
    hints: BTreeMap<Vpn, Color>,
}

impl HintTable {
    /// Creates an empty hint table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the hint for one page.
    pub fn advise(&mut self, vpn: Vpn, color: Color) {
        self.hints.insert(vpn, color);
    }

    /// The hint for `vpn`, if any.
    pub fn lookup(&self, vpn: Vpn) -> Option<Color> {
        self.hints.get(&vpn).copied()
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
    fn re_advising_replaces() {
        let mut t = HintTable::new();
        t.advise(Vpn(1), Color(0));
        t.advise(Vpn(1), Color(7));
        assert_eq!(t.lookup(Vpn(1)), Some(Color(7)));
        assert_eq!(t.len(), 1);
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
