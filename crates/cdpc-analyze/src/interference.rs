//! Cache-set interference equations over compiled footprints.
//!
//! This is the prover's middle layer: it maps every region a processor
//! touches — array footprints from [`OpSpec::access_footprints`], plus the
//! code segment — to virtual pages, pushes the pages through a model of
//! the run-time coloring ([`ColoringModel`]), and counts how many distinct
//! pages of each processor land on each color. Because pages of one color
//! cover exactly the same L2 set range ([`MachineModel::color_set_range`])
//! and different colors cover disjoint ranges, the per-(cpu, color) page
//! count *is* the interference equation: at most `associativity` pages per
//! color can coexist, so `pages ≤ assoc` for every equation proves the
//! execution free of conflict misses, and any overloaded equation names
//! the colliding regions, the color, and the excess.
//!
//! [`OpSpec::access_footprints`]: cdpc_compiler::trace::OpSpec::access_footprints

use std::collections::{BTreeMap, BTreeSet};

use cdpc_compiler::trace::OpSpec;
use cdpc_compiler::{CompiledProgram, CompiledStmt};
use cdpc_core::{generate_hints_with, HintOptions, MachineParams};
use cdpc_vm::addr::{Color, ColorSpace, PageGeometry};

use crate::machine::MachineModel;

/// What a page is used for: an array (by index into
/// [`CompiledProgram::arrays`]) or the code segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegionId {
    /// Data array, by region index.
    Array(usize),
    /// Instruction fetches.
    Code,
}

impl RegionId {
    /// The attribution-tensor row this region occupies: arrays keep their
    /// index, code lands on the trailing `"(other)"` row — the same layout
    /// [`AttributionProbe`](cdpc_obs::AttributionProbe) uses.
    pub fn row(&self, num_arrays: usize) -> usize {
        match self {
            RegionId::Array(i) => *i,
            RegionId::Code => num_arrays,
        }
    }

    /// Human name for diagnostics.
    pub fn name(&self, compiled: &CompiledProgram) -> String {
        match self {
            RegionId::Array(i) => compiled
                .arrays
                .get(*i)
                .map_or_else(|| format!("array#{i}"), |a| a.name.clone()),
            RegionId::Code => "(code)".to_string(),
        }
    }
}

/// A static model of the color each virtual page will receive at run time.
///
/// The OS honors color preferences when physical pages are free (the
/// bench's `phys_slack` guarantees they are), so the preference function
/// *is* the placement: `vpn % colors` for the native page-coloring policy,
/// the hint table (with the run-time library's code-page round-robin) for
/// CDPC — mirroring `build_policy` in `cdpc-machine` exactly.
#[derive(Debug, Clone)]
pub enum ColoringModel {
    /// Native page coloring: `color = vpn % num_colors`.
    VpnMod {
        /// Color count of the modeled machine.
        num_colors: u64,
    },
    /// Compiler-directed hints with modulo fallback for unhinted pages.
    Hinted {
        /// Explicit page → color assignments.
        map: BTreeMap<u64, u64>,
        /// Color count of the modeled machine.
        num_colors: u64,
    },
}

impl ColoringModel {
    /// The native sequential policy (`PolicyKind::PageColoring`).
    pub fn page_coloring(machine: &MachineModel) -> Self {
        ColoringModel::VpnMod {
            num_colors: machine.num_colors(),
        }
    }

    /// The CDPC policy: compiler hints from the program's access summary,
    /// the code segment round-robined after the data pages, and modulo
    /// fallback for anything unhinted — step for step what
    /// `cdpc-machine`'s `build_policy` installs.
    pub fn cdpc(compiled: &CompiledProgram, machine: &MachineModel) -> Self {
        let params = MachineParams::new(
            machine.num_cpus,
            machine.page_bytes as usize,
            machine.l2_bytes as usize,
            machine.l2_assoc as usize,
        );
        let hints = generate_hints_with(&compiled.summary, &params, HintOptions::FULL)
            .expect("compiler-produced summaries are always valid");
        let colors = ColorSpace::new(
            machine.l2_bytes as usize,
            machine.page_bytes as usize,
            machine.l2_assoc as usize,
        );
        let mut map: BTreeMap<u64, u64> = hints
            .assignments()
            .into_iter()
            .map(|(vpn, color)| (vpn.0, u64::from(color.0)))
            .collect();
        if !hints.is_empty() {
            let mut color = Color(hints.len() as u32 % colors.num_colors());
            for vpn in compiled.code_vpns(machine.page_bytes) {
                if let std::collections::btree_map::Entry::Vacant(e) = map.entry(vpn) {
                    e.insert(u64::from(color.0));
                    color = colors.advance(color, 1);
                }
            }
        }
        ColoringModel::Hinted {
            map,
            num_colors: machine.num_colors(),
        }
    }

    /// The color `vpn`'s physical page will have.
    pub fn color_of(&self, vpn: u64) -> u64 {
        match self {
            ColoringModel::VpnMod { num_colors } => vpn % num_colors,
            ColoringModel::Hinted { map, num_colors } => {
                map.get(&vpn).copied().unwrap_or(vpn % num_colors)
            }
        }
    }

    /// Stable policy label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ColoringModel::VpnMod { .. } => "page-coloring",
            ColoringModel::Hinted { .. } => "cdpc",
        }
    }
}

/// How one processor uses one virtual page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageUse {
    /// Regions with bytes on the page.
    pub regions: BTreeSet<RegionId>,
    /// `false` when only an over-approximated (irregular) footprint put
    /// the page here.
    pub exact: bool,
}

/// One interference equation: the pages processor `cpu` drives through
/// `color`'s set range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorLoad {
    /// Processor.
    pub cpu: usize,
    /// Page color.
    pub color: u64,
    /// Distinct virtual pages of this CPU with this color.
    pub pages: u64,
    /// Regions owning those pages.
    pub regions: BTreeSet<RegionId>,
    /// `true` when every contributing page came from an exact footprint.
    pub exact: bool,
}

impl ColorLoad {
    /// Pages beyond what the set range can hold (`pages − assoc`, floored
    /// at zero).
    pub fn excess(&self, assoc: u64) -> u64 {
        self.pages.saturating_sub(assoc)
    }
}

/// The statements an [`InterferenceMap`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every statement: the sound domain for conflict prediction, since
    /// cached pages survive phase boundaries (and the warm-up pass touches
    /// everything before measurement begins).
    Program,
    /// The statements of phase `i`, for sharper per-phase proofs.
    Phase(usize),
    /// Statement `j` of phase `i` alone.
    Stmt(usize, usize),
}

impl Scope {
    fn covers(self, phase: usize, stmt: usize) -> bool {
        match self {
            Scope::Program => true,
            Scope::Phase(i) => i == phase,
            Scope::Stmt(i, j) => (i, j) == (phase, stmt),
        }
    }
}

/// Per-CPU page-use maps for the statements of one [`Scope`], ready to be
/// pushed through a [`ColoringModel`].
#[derive(Debug, Clone)]
pub struct InterferenceMap {
    /// Processor count.
    pub num_cpus: usize,
    /// `pages[cpu][vpn]` = how the CPU uses the page.
    pub pages: Vec<BTreeMap<u64, PageUse>>,
}

impl InterferenceMap {
    /// Collects every page each processor touches in the statements of
    /// `scope`.
    pub fn build(compiled: &CompiledProgram, machine: &MachineModel, scope: Scope) -> Self {
        let geometry = PageGeometry::new(machine.page_bytes as usize);
        let mut pages: Vec<BTreeMap<u64, PageUse>> = vec![BTreeMap::new(); machine.num_cpus];
        let mut add = |cpu: usize, region: RegionId, lo: u64, hi: u64, exact: bool| {
            if lo >= hi || cpu >= pages.len() {
                return;
            }
            let first = geometry.vpn_of(cdpc_vm::addr::VirtAddr(lo)).0;
            let last = geometry.vpn_of(cdpc_vm::addr::VirtAddr(hi - 1)).0;
            for vpn in first..=last {
                let page = pages[cpu].entry(vpn).or_insert(PageUse {
                    regions: BTreeSet::new(),
                    exact: true,
                });
                page.regions.insert(region);
                page.exact &= exact;
            }
        };
        let mut visit = |spec: &OpSpec, cpu: usize| {
            for fp in spec.access_footprints() {
                for &(lo, hi) in &fp.intervals {
                    add(cpu, region_of(compiled, fp.base), lo, hi, fp.exact);
                }
            }
            if spec.lo < spec.hi {
                // Instruction fetches cycle through the body's code lines.
                let code_lines = spec.code_bytes.div_ceil(spec.granularity).max(1);
                add(
                    cpu,
                    RegionId::Code,
                    spec.code_base,
                    spec.code_base + code_lines * spec.granularity,
                    true,
                );
            }
        };
        for (i, ph) in compiled.phases.iter().enumerate() {
            for (j, stmt) in ph.stmts.iter().enumerate() {
                if !scope.covers(i, j) {
                    continue;
                }
                match stmt {
                    CompiledStmt::Parallel { specs } => {
                        for (cpu, spec) in specs.iter().enumerate() {
                            visit(spec, cpu);
                        }
                    }
                    // Master work (suppressed or not) executes on CPU 0.
                    CompiledStmt::Master { spec, .. } => visit(spec, 0),
                }
            }
        }
        InterferenceMap {
            num_cpus: machine.num_cpus,
            pages,
        }
    }

    /// Evaluates the equations under `coloring`: every (cpu, color) with at
    /// least one page, sorted by (cpu, color).
    pub fn color_loads(&self, coloring: &ColoringModel) -> Vec<ColorLoad> {
        let mut out = Vec::new();
        for (cpu, pages) in self.pages.iter().enumerate() {
            let mut per_color: BTreeMap<u64, ColorLoad> = BTreeMap::new();
            for (&vpn, usage) in pages {
                let color = coloring.color_of(vpn);
                let load = per_color.entry(color).or_insert(ColorLoad {
                    cpu,
                    color,
                    pages: 0,
                    regions: BTreeSet::new(),
                    exact: true,
                });
                load.pages += 1;
                load.regions.extend(usage.regions.iter().copied());
                load.exact &= usage.exact;
            }
            out.extend(per_color.into_values());
        }
        out
    }

    /// The overloaded equations only: more pages than the set range has
    /// ways. An empty result is the conflict-freedom proof.
    pub fn overloads(&self, coloring: &ColoringModel, assoc: u64) -> Vec<ColorLoad> {
        self.color_loads(coloring)
            .into_iter()
            .filter(|l| l.pages > assoc)
            .collect()
    }

    /// Distinct pages a processor touches (its whole working set).
    pub fn pages_of(&self, cpu: usize) -> u64 {
        self.pages.get(cpu).map_or(0, |m| m.len() as u64)
    }
}

/// The region an access base address belongs to (code has no array).
fn region_of(compiled: &CompiledProgram, base: u64) -> RegionId {
    compiled
        .array_of_addr(base)
        .map_or(RegionId::Code, RegionId::Array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
    use cdpc_compiler::{compile, CompileOptions};

    /// 2 CPUs, 8-color 32 KB direct-mapped machine (4 KB pages).
    fn machine() -> MachineModel {
        MachineModel {
            num_cpus: 2,
            page_bytes: 4096,
            l2_bytes: 32 << 10,
            l2_line_bytes: 128,
            l2_assoc: 1,
        }
    }

    fn partitioned_program(arrays: usize, bytes: u64) -> CompiledProgram {
        let mut p = Program::new("interf");
        let mut stmts = Vec::new();
        for i in 0..arrays {
            let a = p.array(format!("A{i}"), bytes);
            stmts.push(Stmt {
                kind: StmtKind::Parallel,
                // Work per iteration high enough that parallelize never
                // suppresses the sweep to a master statement.
                nest: LoopNest::new(format!("sweep{i}"), bytes / 1024, 500).with_access(
                    Access::write(a, AccessPattern::Partitioned { unit_bytes: 1024 }),
                ),
            });
        }
        p.phase(Phase {
            name: "steady".into(),
            stmts,
            count: 1,
        });
        compile(&p, &CompileOptions::new(2)).expect("compiles")
    }

    #[test]
    fn pages_match_per_cpu_footprints() {
        let m = machine();
        let compiled = partitioned_program(1, 16 << 10); // 4 pages
        let map = InterferenceMap::build(&compiled, &m, Scope::Program);
        // Each CPU owns half the array (2 pages) plus one code page.
        for cpu in 0..2 {
            let data = map.pages[cpu]
                .values()
                .filter(|u| u.regions.contains(&RegionId::Array(0)))
                .count();
            assert_eq!(data, 2, "cpu {cpu} owns half the 4-page array");
            assert!(map.pages[cpu]
                .values()
                .any(|u| u.regions.contains(&RegionId::Code)));
            assert!(map.pages[cpu].values().all(|u| u.exact));
        }
    }

    #[test]
    fn color_loads_prove_a_small_program_clean() {
        let m = machine();
        let compiled = partitioned_program(1, 16 << 10);
        let map = InterferenceMap::build(&compiled, &m, Scope::Program);
        let coloring = ColoringModel::page_coloring(&m);
        assert!(
            map.overloads(&coloring, m.l2_assoc).is_empty(),
            "3 pages over 8 colors cannot overload a direct-mapped cache"
        );
    }

    #[test]
    fn overload_appears_when_pages_share_a_color() {
        let m = machine();
        // Five 32 KB arrays: each CPU touches 4 pages per array, 20 data
        // pages + code over 8 colors — some color must exceed 1 way; and
        // with the aligned layout the bases all collide mod cache size.
        let compiled = partitioned_program(5, 32 << 10);
        let map = InterferenceMap::build(&compiled, &m, Scope::Program);
        let coloring = ColoringModel::page_coloring(&m);
        let overloads = map.overloads(&coloring, m.l2_assoc);
        assert!(!overloads.is_empty(), "20 pages over 8 colors must collide");
        let worst = overloads.iter().max_by_key(|l| l.pages).unwrap();
        assert!(worst.regions.len() >= 2, "collisions name multiple regions");
        assert!(worst.exact);
    }

    #[test]
    fn phase_restriction_shrinks_the_map() {
        let mut p = Program::new("two-phase");
        let a = p.array("A", 16 << 10);
        let b = p.array("B", 16 << 10);
        for (name, arr) in [("first", a), ("second", b)] {
            p.phase(Phase {
                name: name.into(),
                stmts: vec![Stmt {
                    kind: StmtKind::Parallel,
                    nest: LoopNest::new(format!("{name}-sweep"), 16, 100).with_access(
                        Access::write(arr, AccessPattern::Partitioned { unit_bytes: 1024 }),
                    ),
                }],
                count: 1,
            });
        }
        let compiled = compile(&p, &CompileOptions::new(2)).expect("compiles");
        let m = machine();
        let whole = InterferenceMap::build(&compiled, &m, Scope::Program);
        let first = InterferenceMap::build(&compiled, &m, Scope::Phase(0));
        assert!(first.pages_of(0) < whole.pages_of(0));
        assert!(first.pages[0]
            .values()
            .all(|u| !u.regions.contains(&RegionId::Array(1))));
    }

    #[test]
    fn stmt_maps_union_to_their_phase_map() {
        let mut rng = cdpc_obs::SplitMix64::new(0x5EED_5C0E);
        for round in 0..40 {
            let mut p = Program::new("seeded");
            // (array, unit): every array is exactly eight units long.
            let arrays: Vec<_> = (0..1 + rng.below(3))
                .map(|i| {
                    let unit = 512 * (1 + rng.below(8));
                    (p.array(format!("A{i}"), 8 * unit), unit)
                })
                .collect();
            for ph in 0..1 + rng.below(3) {
                let stmts = (0..1 + rng.below(3))
                    .map(|si| {
                        let mut nest = LoopNest::new(format!("l{ph}.{si}"), 8, 500);
                        for _ in 0..1 + rng.below(2) {
                            let (a, unit) = arrays[rng.below(arrays.len() as u64) as usize];
                            let pattern = match rng.below(4) {
                                0 => AccessPattern::Partitioned { unit_bytes: unit },
                                1 => AccessPattern::Stencil {
                                    unit_bytes: unit,
                                    halo_units: 1,
                                    wraparound: rng.below(2) == 0,
                                },
                                2 => AccessPattern::WholeArray,
                                _ => AccessPattern::Irregular {
                                    touches_per_iter: 2,
                                },
                            };
                            nest = nest.with_access(if rng.below(2) == 0 {
                                Access::read(a, pattern)
                            } else {
                                Access::write(a, pattern)
                            });
                        }
                        let kind = [
                            StmtKind::Parallel,
                            StmtKind::Sequential,
                            StmtKind::FineGrain,
                        ][rng.below(3) as usize];
                        Stmt { kind, nest }
                    })
                    .collect();
                p.phase(Phase {
                    name: format!("p{ph}"),
                    stmts,
                    count: 1,
                });
            }
            let cpus = [2, 4][rng.below(2) as usize];
            let m = MachineModel {
                num_cpus: cpus,
                ..machine()
            };
            let compiled = compile(&p, &CompileOptions::new(cpus)).expect("compiles");
            for (i, ph) in compiled.phases.iter().enumerate() {
                let mut union: Vec<BTreeMap<u64, PageUse>> = vec![BTreeMap::new(); cpus];
                for j in 0..ph.stmts.len() {
                    let stmt = InterferenceMap::build(&compiled, &m, Scope::Stmt(i, j));
                    for (cpu, pages) in stmt.pages.into_iter().enumerate() {
                        for (vpn, page) in pages {
                            let u = union[cpu].entry(vpn).or_insert(PageUse {
                                regions: BTreeSet::new(),
                                exact: true,
                            });
                            u.regions.extend(page.regions);
                            u.exact &= page.exact;
                        }
                    }
                }
                let phase = InterferenceMap::build(&compiled, &m, Scope::Phase(i));
                assert_eq!(union, phase.pages, "round {round}, phase {i}");
            }
        }
    }

    #[test]
    fn cdpc_model_matches_hint_table_semantics() {
        let m = machine();
        let compiled = partitioned_program(5, 32 << 10);
        let model = ColoringModel::cdpc(&compiled, &m);
        let ColoringModel::Hinted { map, num_colors } = &model else {
            panic!("cdpc model is hinted");
        };
        assert_eq!(*num_colors, 8);
        assert!(!map.is_empty(), "partitioned arrays produce hints");
        // Hinted colors are in range; unhinted pages fall back to modulo.
        for (&vpn, &color) in map.iter() {
            assert!(color < 8, "vpn {vpn} got color {color}");
        }
        assert_eq!(model.color_of(u64::MAX - 7), (u64::MAX - 7) % 8);
        // The CDPC plan spreads each CPU's pages strictly better than (or
        // equal to) modulo coloring on this colliding program.
        let imap = InterferenceMap::build(&compiled, &m, Scope::Program);
        let worst = |c: &ColoringModel| {
            imap.color_loads(c)
                .iter()
                .map(|l| l.pages)
                .max()
                .unwrap_or(0)
        };
        assert!(worst(&model) <= worst(&ColoringModel::page_coloring(&m)));
    }
}
