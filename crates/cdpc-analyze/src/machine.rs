//! The machine parameters the static lints reason about.
//!
//! A [`MachineModel`] is the analyzer's view of the target: enough cache
//! and page geometry to predict line sharing and color pressure, nothing
//! more. It can be built from the simulator's full
//! [`MemConfig`](cdpc_memsim::MemConfig) so a `--lint` bench run analyzes
//! exactly the machine it simulates.

use cdpc_memsim::MemConfig;

/// Cache/page geometry for the static analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Processor count.
    pub num_cpus: usize,
    /// Page size, bytes.
    pub page_bytes: u64,
    /// External (L2) cache size per CPU, bytes.
    pub l2_bytes: u64,
    /// External-cache line size, bytes.
    pub l2_line_bytes: u64,
    /// External-cache associativity.
    pub l2_assoc: u64,
}

impl MachineModel {
    /// The paper's base machine: 4 KB pages, 1 MB direct-mapped external
    /// cache with 128 B lines.
    pub fn paper_base(num_cpus: usize) -> Self {
        MachineModel {
            num_cpus,
            page_bytes: 4096,
            l2_bytes: 1 << 20,
            l2_line_bytes: 128,
            l2_assoc: 1,
        }
    }

    /// The analyzer view of a simulator configuration.
    pub fn from_mem(cfg: &MemConfig) -> Self {
        MachineModel {
            num_cpus: cfg.num_cpus,
            page_bytes: cfg.page_size as u64,
            l2_bytes: cfg.l2.size_bytes() as u64,
            l2_line_bytes: cfg.l2.line_bytes() as u64,
            l2_assoc: cfg.l2.associativity() as u64,
        }
    }

    /// Number of page colors: pages that map to disjoint cache sets.
    /// 1 means the cache cannot page-conflict (e.g. cache no larger than
    /// `associativity` pages).
    pub fn num_colors(&self) -> u64 {
        (self.l2_bytes / (self.page_bytes * self.l2_assoc)).max(1)
    }

    /// Pages of one CPU's cache (`colors × associativity`).
    pub fn cache_pages(&self) -> u64 {
        self.num_colors() * self.l2_assoc
    }

    /// Number of L2 cache sets (`size / (line × ways)`).
    pub fn l2_sets(&self) -> u64 {
        (self.l2_bytes / (self.l2_line_bytes * self.l2_assoc)).max(1)
    }

    /// Cache sets one page spans (`page / line`). Every page covers a
    /// contiguous, page-aligned block of this many sets, so two pages of
    /// the same color contend on *every* line index, and pages of
    /// different colors contend on none — the fact the interference
    /// equations rest on.
    pub fn sets_per_page(&self) -> u64 {
        (self.page_bytes / self.l2_line_bytes).max(1)
    }

    /// The L2 set range `[lo, hi)` that pages of `color` map to. Colors
    /// tile the set-index space in page-sized blocks:
    /// `num_colors × sets_per_page = l2_sets`.
    pub fn color_set_range(&self, color: u64) -> (u64, u64) {
        let spp = self.sets_per_page();
        let c = color % self.num_colors();
        (c * spp, (c + 1) * spp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_math_matches_paper() {
        let m = MachineModel::paper_base(8);
        assert_eq!(m.num_colors(), 256); // 1 MB / 4 KB pages, direct-mapped
        assert_eq!(m.cache_pages(), 256);
    }

    #[test]
    fn associativity_divides_colors() {
        let mut m = MachineModel::paper_base(4);
        m.l2_assoc = 2;
        assert_eq!(m.num_colors(), 128);
        assert_eq!(m.cache_pages(), 256);
    }

    #[test]
    fn set_geometry_tiles_the_cache() {
        let m = MachineModel::paper_base(8);
        // 1 MB / (128 B lines × 1 way) = 8192 sets; 4 KB / 128 B = 32
        // sets per page; 256 colors × 32 = 8192.
        assert_eq!(m.l2_sets(), 8192);
        assert_eq!(m.sets_per_page(), 32);
        assert_eq!(m.num_colors() * m.sets_per_page(), m.l2_sets());
        assert_eq!(m.color_set_range(0), (0, 32));
        assert_eq!(m.color_set_range(255), (255 * 32, 8192));
        // Colors wrap modulo the color count.
        assert_eq!(m.color_set_range(256), (0, 32));
        // Associativity shrinks the set count, not the per-page span.
        let mut w2 = m;
        w2.l2_assoc = 2;
        assert_eq!(w2.l2_sets(), 4096);
        assert_eq!(w2.sets_per_page(), 32);
        assert_eq!(w2.num_colors() * w2.sets_per_page(), w2.l2_sets());
    }

    #[test]
    fn interval_straddling_the_last_color_wraps_to_color_zero() {
        // 8-color machine: consecutive pages cycle colors 0..7, so an
        // interval spanning pages 7..=8 crosses from the LAST color back
        // to color 0 — its L2 set ranges are the two ends of the cache.
        let m = MachineModel {
            num_cpus: 2,
            page_bytes: 4096,
            l2_bytes: 32 << 10,
            l2_line_bytes: 128,
            l2_assoc: 1,
        };
        assert_eq!(m.num_colors(), 8);
        let (lo, hi) = (7 * 4096 - 100, 8 * 4096 + 100);
        let colors: Vec<u64> = (lo / 4096..=(hi - 1) / 4096)
            .map(|vpn| vpn % m.num_colors())
            .collect();
        assert_eq!(colors, vec![6, 7, 0]);
        // The straddled colors' set ranges are disjoint: the wrap is a
        // page-number artifact, not a cache-set overlap.
        let last = m.color_set_range(7);
        let first = m.color_set_range(0);
        assert_eq!(last.1, m.l2_sets());
        assert_eq!(first.0, 0);
        assert!(first.1 <= last.0);
    }

    #[test]
    fn from_mem_mirrors_config() {
        let cfg = MemConfig::paper_base(4);
        let m = MachineModel::from_mem(&cfg);
        assert_eq!(m.num_cpus, 4);
        assert_eq!(m.l2_bytes, 1 << 20);
        assert_eq!(m.l2_line_bytes, 128);
        assert_eq!(m.l2_assoc, 1);
        assert_eq!(m.page_bytes, 4096);
    }
}
