//! The static conflict-miss prover.
//!
//! The paper's central claim is that the compiler can *predict* cache
//! conflicts from per-processor footprints and choose page colors that
//! avoid them. This module closes the loop statically: it evaluates the
//! interference equations of [`crate::interference`] over a program's
//! compiled footprints and either **proves** each phase (and the whole
//! execution) conflict-free, or emits ranked `predict/conflict-cell`
//! diagnostics naming the arrays, the color, and the estimated miss
//! magnitude — each with machine-applicable fix-its that have been
//! round-tripped through the compiler (pad the array, recolor with CDPC
//! hints, split the phase).
//!
//! Soundness contract: a conflict miss requires some processor to drive
//! more pages through one color's set range than the cache has ways.
//! Pages stay cached across statement and phase boundaries (and the
//! bench's warm-up pass touches everything first), so the *predicted cell
//! set* is computed from the whole-program per-CPU page union — every
//! simulated conflict cell must land inside it (zero false negatives).
//! Per-phase equations are evaluated separately for the sharper proofs
//! and for ranking. Irregular accesses degrade to a bounded
//! over-approximation and lower the `confidence` field instead of going
//! silent.
//!
//! The same equations, restricted to one distributed statement, are the
//! `conflict/color-pressure` lint that
//! [`analyze_program`](crate::analyze_program) runs.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use cdpc_compiler::ir::Program;
use cdpc_compiler::{compile, CompileOptions, CompiledProgram};

use crate::diag::{Diagnostic, FixIt, Location, Report, Severity};
use crate::interference::{ColorLoad, ColoringModel, InterferenceMap, RegionId, Scope};
use crate::machine::MachineModel;

/// Rule id: a predicted conflict on one (color, region-set) equation.
pub const RULE_CONFLICT_CELL: &str = "predict/conflict-cell";
/// Rule id: a phase (or the whole program) proven conflict-free.
pub const RULE_CONFLICT_FREE: &str = "predict/conflict-free";
/// Rule id: per-statement footprints fit but the phase union does not.
pub const RULE_PHASE_PRESSURE: &str = "predict/phase-pressure";
/// Rule id: one statement's cache-fitting data pages load a color beyond
/// the ways under native page coloring.
pub const RULE_COLOR_PRESSURE: &str = "conflict/color-pressure";

/// Confidence (percent) of an equation whose pages all come from exact
/// affine footprints.
const CONF_EXACT: u8 = 100;
/// Confidence when an irregular (over-approximated) footprint contributes.
const CONF_BOUNDED: u8 = 60;

/// Which run-time coloring policy the prover models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProverPolicy {
    /// Native sequential coloring (`vpn % colors`).
    PageColoring,
    /// Compiler-directed hints (the CDPC policy).
    Cdpc,
}

impl ProverPolicy {
    fn model(self, compiled: &CompiledProgram, machine: &MachineModel) -> ColoringModel {
        match self {
            ProverPolicy::PageColoring => ColoringModel::page_coloring(machine),
            ProverPolicy::Cdpc => ColoringModel::cdpc(compiled, machine),
        }
    }
}

/// Verdict for one phase.
#[derive(Debug, Clone)]
pub struct PhaseVerdict {
    /// Phase name.
    pub phase: String,
    /// `true` when every per-(cpu, color) equation of the phase fits in
    /// the cache's ways.
    pub proven_free: bool,
    /// The overloaded equations (empty iff `proven_free`).
    pub overloads: Vec<ColorLoad>,
}

/// The prover's complete output for one program × machine × policy.
#[derive(Debug, Clone)]
pub struct ConflictPrediction {
    /// Program name.
    pub program: String,
    /// Modeled policy label (`"page-coloring"` / `"cdpc"`).
    pub policy: String,
    /// Color count of the modeled machine.
    pub num_colors: u64,
    /// Predicted hot cells as (attribution row, color): every region on an
    /// overloaded whole-program equation, on every color it overloads.
    /// Rows follow the attribution tensor: array index, or `arrays.len()`
    /// for code. This is the set the zero-false-negative guarantee is
    /// stated over.
    pub cells: BTreeSet<(usize, u64)>,
    /// `true` when `cells` is empty: a proof of conflict-freedom.
    pub proven_free: bool,
    /// Percent confidence: [`CONF_EXACT`] when every equation is exact,
    /// degraded when irregular footprints forced over-approximation.
    pub confidence: u8,
    /// Estimated conflict-miss magnitude per steady-state pass (excess
    /// pages × lines per page × phase trip counts, summed).
    pub est_misses: u64,
    /// Per-phase proofs/overloads.
    pub phases: Vec<PhaseVerdict>,
}

/// Runs the prover: compiles `program`, evaluates the interference
/// equations under `policy`, and returns the prediction plus a ranked
/// diagnostic [`Report`] with round-tripped fix-its.
///
/// # Panics
///
/// Panics if `program` does not compile — run
/// [`analyze_program`](crate::analyze_program) first; the prover is for
/// structurally valid programs.
pub fn predict_program(
    program: &Program,
    opts: &CompileOptions,
    machine: &MachineModel,
    policy: ProverPolicy,
) -> (ConflictPrediction, Report) {
    let compiled = compile(program, opts).expect("prover input compiles");
    let coloring = policy.model(&compiled, machine);
    let assoc = machine.l2_assoc;
    let num_arrays = compiled.arrays.len();

    // Whole-program equations: the sound predicted-cell set.
    let whole = InterferenceMap::build(&compiled, machine, Scope::Program);
    let whole_overloads = whole.overloads(&coloring, assoc);
    let mut cells = BTreeSet::new();
    let mut confidence = CONF_EXACT;
    for load in &whole_overloads {
        for region in &load.regions {
            cells.insert((region.row(num_arrays), load.color));
        }
        if !load.exact {
            confidence = confidence.min(CONF_BOUNDED);
        }
    }

    // Per-phase equations: sharper proofs and the ranking signal.
    let mut phases = Vec::new();
    for (i, ph) in compiled.phases.iter().enumerate() {
        let map = InterferenceMap::build(&compiled, machine, Scope::Phase(i));
        let overloads = map.overloads(&coloring, assoc);
        phases.push(PhaseVerdict {
            phase: ph.name.clone(),
            proven_free: overloads.is_empty(),
            overloads,
        });
    }

    let mut report = Report::new(&program.name, machine.num_cpus, &program.lint_allows);
    let est_misses = push_diagnostics(
        program,
        opts,
        &compiled,
        machine,
        policy,
        &coloring,
        &phases,
        &mut report,
    );

    let prediction = ConflictPrediction {
        program: program.name.clone(),
        policy: coloring.name().to_string(),
        num_colors: machine.num_colors(),
        proven_free: cells.is_empty(),
        cells,
        confidence,
        est_misses,
        phases,
    };
    (prediction, report)
}

/// Emits ranked diagnostics (worst first) and returns the summed miss
/// estimate.
#[allow(clippy::too_many_arguments)]
fn push_diagnostics(
    program: &Program,
    opts: &CompileOptions,
    compiled: &CompiledProgram,
    machine: &MachineModel,
    policy: ProverPolicy,
    coloring: &ColoringModel,
    phases: &[PhaseVerdict],
    report: &mut Report,
) -> u64 {
    // One candidate per (phase, color): the worst CPU's equation, weighted
    // by the phase trip count.
    struct Candidate {
        phase: String,
        count: u64,
        load: ColorLoad,
        est: u64,
    }
    let lines_per_page = machine.page_bytes / machine.l2_line_bytes.max(1);
    let mut candidates: Vec<Candidate> = Vec::new();
    for (verdict, ph) in phases.iter().zip(&compiled.phases) {
        let mut per_color: std::collections::BTreeMap<u64, &ColorLoad> =
            std::collections::BTreeMap::new();
        for load in &verdict.overloads {
            let slot = per_color.entry(load.color).or_insert(load);
            if load.pages > slot.pages {
                *slot = load;
            }
        }
        for &load in per_color.values() {
            // Each excess page re-fights for every line index of the
            // color's set range once per pass of the phase.
            let est = load.excess(machine.l2_assoc) * lines_per_page * ph.count.max(1);
            candidates.push(Candidate {
                phase: verdict.phase.clone(),
                count: ph.count,
                load: load.clone(),
                est,
            });
        }
    }
    candidates.sort_by(|a, b| {
        b.est
            .cmp(&a.est)
            .then_with(|| a.phase.cmp(&b.phase))
            .then(a.load.color.cmp(&b.load.color))
            .then(a.load.cpu.cmp(&b.load.cpu))
    });
    let est_total: u64 = candidates.iter().map(|c| c.est).sum();

    // Fix-it search budget: round-tripping pads through the compiler is
    // O(pads × compile), so only the worst finding gets the full search.
    let mut searched_pad = false;
    for cand in &candidates {
        let names: Vec<String> = cand.load.regions.iter().map(|r| r.name(compiled)).collect();
        let primary = names.first().cloned().unwrap_or_default();
        let confidence = if cand.load.exact {
            CONF_EXACT
        } else {
            CONF_BOUNDED
        };
        let mut d = Diagnostic::new(
            RULE_CONFLICT_CELL,
            Severity::Warn,
            Location::at(cand.phase.clone(), "-", primary),
            format!(
                "cpu {} drives {} pages of {{{}}} through color {} ({}-way set \
                 range): ~{} conflict misses per pass (×{} passes)",
                cand.load.cpu,
                cand.load.pages,
                names.join(", "),
                cand.load.color,
                machine.l2_assoc,
                cand.est,
                cand.count.max(1),
            ),
        )
        .with_confidence(confidence);
        for fixit in find_fixits(
            program,
            opts,
            compiled,
            machine,
            policy,
            &cand.load,
            &mut searched_pad,
        ) {
            d = d.with_fixit(fixit);
        }
        report.push(d);
    }

    // Proof diagnostics for clean phases; phase-pressure advisory when a
    // phase overloads but each statement alone would fit.
    for (i, verdict) in phases.iter().enumerate() {
        if verdict.proven_free {
            report.push(
                Diagnostic::new(
                    RULE_CONFLICT_FREE,
                    Severity::Info,
                    Location {
                        phase: Some(verdict.phase.clone()),
                        ..Location::default()
                    },
                    format!(
                        "proven conflict-free under {} ({} colors, {}-way)",
                        coloring.name(),
                        machine.num_colors(),
                        machine.l2_assoc
                    ),
                )
                .with_confidence(CONF_EXACT),
            );
        } else if (0..compiled.phases[i].stmts.len()).all(|j| {
            InterferenceMap::build(compiled, machine, Scope::Stmt(i, j))
                .overloads(coloring, machine.l2_assoc)
                .is_empty()
        }) {
            report.push(
                Diagnostic::new(
                    RULE_PHASE_PRESSURE,
                    Severity::Warn,
                    Location {
                        phase: Some(verdict.phase.clone()),
                        ..Location::default()
                    },
                    "each statement's footprint fits the cache alone, but the \
                     phase union overloads: splitting the phase removes the \
                     predicted conflicts"
                        .to_string(),
                )
                .with_fixit(FixIt::SplitPhase {
                    phase: verdict.phase.clone(),
                }),
            );
        }
    }
    est_total
}

/// Fix-its for one overloaded equation, each verified by re-running the
/// prover on the transformed input (the simulator half of the round-trip
/// lives in the `predict` bench tests).
fn find_fixits(
    program: &Program,
    opts: &CompileOptions,
    compiled: &CompiledProgram,
    machine: &MachineModel,
    policy: ProverPolicy,
    load: &ColorLoad,
    searched_pad: &mut bool,
) -> Vec<FixIt> {
    let mut fixits = Vec::new();
    let primary = load
        .regions
        .iter()
        .find_map(|r| match r {
            RegionId::Array(i) => Some(*i),
            RegionId::Code => None,
        })
        .map(|i| compiled.arrays[i].name.clone());

    // Recolor: does the CDPC plan prove the whole program clean?
    if policy == ProverPolicy::PageColoring {
        let cdpc = ColoringModel::cdpc(compiled, machine);
        let map = InterferenceMap::build(compiled, machine, Scope::Program);
        if map.overloads(&cdpc, machine.l2_assoc).is_empty() {
            if let Some(name) = &primary {
                fixits.push(FixIt::RecolorRegion {
                    array: name.clone(),
                });
            }
        }
    }

    // Pad: grow one involved array so the layout shifts later arrays to
    // other colors; accept the first pad the prover verifies removes every
    // overload. Only the top-ranked finding pays for this search.
    if !*searched_pad {
        *searched_pad = true;
        'outer: for region in &load.regions {
            let RegionId::Array(idx) = region else {
                continue;
            };
            for pad in 1..=machine.num_colors().min(16) {
                let mut padded = program.clone();
                padded.arrays[*idx].bytes += pad * machine.page_bytes;
                let Ok(recompiled) = compile(&padded, opts) else {
                    continue;
                };
                let coloring = policy.model(&recompiled, machine);
                let map = InterferenceMap::build(&recompiled, machine, Scope::Program);
                if map.overloads(&coloring, machine.l2_assoc).is_empty() {
                    fixits.push(FixIt::PadArray {
                        array: compiled.arrays[*idx].name.clone(),
                        pad_pages: pad,
                    });
                    break 'outer;
                }
            }
        }
    }
    fixits
}

/// The `conflict/color-pressure` lint: per distributed statement, the
/// worst interference equation under native page coloring, counting only
/// CPUs whose data pages fit the cache. A footprint larger than the cache
/// misses for capacity however its pages are colored, and code pages are
/// left out because the advice, staggering array bases, cannot move them.
pub(crate) fn check_color_pressure(
    program: &Program,
    compiled: &CompiledProgram,
    machine: &MachineModel,
    report: &mut Report,
) {
    let coloring = ColoringModel::page_coloring(machine);
    for ((pi, si), phase, nest, _) in crate::parallel_stmts(program, compiled) {
        let mut map = InterferenceMap::build(compiled, machine, Scope::Stmt(pi, si));
        for pages in &mut map.pages {
            pages.retain(|_, page| page.regions.iter().any(|r| *r != RegionId::Code));
        }
        let Some(worst) = map
            .overloads(&coloring, machine.l2_assoc)
            .into_iter()
            .filter(|load| map.pages_of(load.cpu) <= machine.cache_pages())
            .max_by_key(|load| (load.pages, Reverse(load.cpu), load.color))
        else {
            continue;
        };
        let arrays: BTreeSet<&str> = nest
            .accesses
            .iter()
            .map(|a| program.arrays[a.array.0].name.as_str())
            .collect();
        report.push(Diagnostic::new(
            RULE_COLOR_PRESSURE,
            Severity::Warn,
            Location {
                phase: Some(phase.name.clone()),
                loop_name: Some(nest.name.clone()),
                array: None,
            },
            format!(
                "CPU {} touches {} pages that fit the cache, but {} of \
                 them share color {} against {}-way sets ({} colors): naive page \
                 placement will conflict-thrash arrays [{}]. Color pages explicitly \
                 (compiler hints) or stagger the array bases.",
                worst.cpu,
                map.pages_of(worst.cpu),
                worst.pages,
                worst.color,
                machine.l2_assoc,
                machine.num_colors(),
                arrays.into_iter().collect::<Vec<_>>().join(", ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Stmt, StmtKind};

    /// 2 CPUs, 8-color 32 KB direct-mapped machine.
    fn machine() -> MachineModel {
        MachineModel {
            num_cpus: 2,
            page_bytes: 4096,
            l2_bytes: 32 << 10,
            l2_line_bytes: 128,
            l2_assoc: 1,
        }
    }

    /// Compile options for [`machine`].
    fn opts() -> CompileOptions {
        CompileOptions::new(2).with_l2_cache(32 << 10)
    }

    fn sweep(name: &str, arr: cdpc_compiler::ir::ArrayRef, iters: u64) -> Stmt {
        Stmt {
            kind: StmtKind::Parallel,
            // Work per iteration high enough that parallelize never
            // suppresses the sweep (threshold 2000, smallest sweep 8 iters).
            nest: LoopNest::new(name, iters, 500).with_access(Access::write(
                arr,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            )),
        }
    }

    /// The `conflict/color-pressure` findings for `program` on `machine`.
    /// The unaligned layout packs arrays back to back, so untouched filler
    /// arrays place the bases.
    fn color_pressure(program: &Program, machine: &MachineModel) -> Report {
        let opts = CompileOptions {
            suppress_threshold: 0,
            ..opts().unaligned()
        };
        let compiled = compile(program, &opts).expect("compiles");
        let mut report = Report::new(&program.name, machine.num_cpus, &[]);
        check_color_pressure(program, &compiled, machine, &mut report);
        report
    }

    /// One statement reading A through `a_pattern` and writing B, 16 KB
    /// each, so each CPU touches two pages of B; B starts `gap` bytes
    /// after A ends.
    fn two_arrays(a_pattern: AccessPattern, gap: u64) -> Program {
        let mut p = Program::new("conflict-test");
        let a = p.array("A", 16 << 10);
        p.array("gap", gap);
        let b = p.array("B", 16 << 10);
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest: LoopNest::new("sweep", 4, 100)
                    .with_access(Access::read(a, a_pattern))
                    .with_access(Access::write(
                        b,
                        AccessPattern::Partitioned { unit_bytes: 4096 },
                    )),
            }],
            count: 1,
        });
        p
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    const PAGES: AccessPattern = AccessPattern::Partitioned { unit_bytes: 4096 };

    #[test]
    fn cache_distance_bases_conflict() {
        // B exactly one cache size after A: every page of B shares its
        // color with the corresponding page of A.
        let r = color_pressure(&two_arrays(PAGES, 16 << 10), &machine());
        assert_eq!(rules(&r), vec![RULE_COLOR_PRESSURE]);
        assert!(r.diagnostics[0].message.contains("share color"));
    }

    #[test]
    fn multiple_of_cache_size_also_conflicts() {
        let r = color_pressure(&two_arrays(PAGES, 80 << 10), &machine());
        assert_eq!(rules(&r), vec![RULE_COLOR_PRESSURE]);
    }

    #[test]
    fn higher_associativity_absorbs_two_way_pressure() {
        // Two cache sizes apart, but a 2-way cache holds both pages.
        let m = MachineModel {
            l2_assoc: 2,
            ..machine()
        };
        let r = color_pressure(&two_arrays(PAGES, 48 << 10), &m);
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn staggered_bases_are_clean() {
        // B half the cache after A: A's and B's pages use distinct colors.
        let r = color_pressure(&two_arrays(PAGES, 32 << 10), &machine());
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn capacity_sized_footprints_are_not_conflicts() {
        // One array far larger than the cache: every color is loaded, but
        // that is a capacity problem, not a placement problem.
        let mut p = Program::new("capacity");
        let a = p.array("A", 256 << 10);
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest: LoopNest::new("sweep", 64, 100).with_access(Access::write(a, PAGES)),
            }],
            count: 1,
        });
        let r = color_pressure(&p, &machine());
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn irregular_accesses_count_their_bounded_footprint() {
        // A's irregular read is bounded by all four of its pages on each
        // CPU, and B's pages share their colors.
        let irregular = AccessPattern::Irregular {
            touches_per_iter: 4,
        };
        let r = color_pressure(&two_arrays(irregular, 16 << 10), &machine());
        assert_eq!(rules(&r), vec![RULE_COLOR_PRESSURE]);
    }

    #[test]
    fn statements_that_collide_only_together_get_split_advice() {
        // A and B one cache size apart, each swept by its own statement:
        // each statement fits alone, the phase union overloads.
        let mut p = Program::new("split-me");
        let a = p.array("A", 16 << 10);
        p.array("gap", 16 << 10);
        let b = p.array("B", 16 << 10);
        p.phase(Phase {
            name: "steady".into(),
            stmts: vec![sweep("sa", a, 16), sweep("sb", b, 16)],
            count: 1,
        });
        let m = machine();
        let lint = color_pressure(&p, &m);
        assert!(lint.diagnostics.is_empty(), "{}", lint.render());
        let (pred, report) =
            predict_program(&p, &opts().unaligned(), &m, ProverPolicy::PageColoring);
        assert!(!pred.phases[0].proven_free);
        assert!(report.with_rule(RULE_PHASE_PRESSURE).next().is_some());
    }

    #[test]
    fn small_program_is_proven_free() {
        let mut p = Program::new("clean");
        let a = p.array("A", 8 << 10);
        p.phase(Phase {
            name: "steady".into(),
            stmts: vec![sweep("s", a, 8)],
            count: 1,
        });
        let (pred, report) = predict_program(&p, &opts(), &machine(), ProverPolicy::PageColoring);
        assert!(pred.proven_free, "2 pages over 8 colors cannot conflict");
        assert!(pred.cells.is_empty());
        assert_eq!(pred.confidence, 100);
        assert!(report.with_rule(RULE_CONFLICT_FREE).next().is_some());
        assert!(report.with_rule(RULE_CONFLICT_CELL).next().is_none());
    }

    #[test]
    fn oversubscribed_colors_predict_ranked_cells() {
        // Five 32 KB arrays: 20 data pages per CPU over 8 direct-mapped
        // colors must overload; the prover names cells and repairs.
        let mut p = Program::new("conflicted");
        let arrays: Vec<_> = (0..5).map(|i| p.array(format!("A{i}"), 32 << 10)).collect();
        p.phase(Phase {
            name: "steady".into(),
            stmts: arrays
                .iter()
                .enumerate()
                .map(|(i, &a)| sweep(&format!("s{i}"), a, 32))
                .collect(),
            count: 2,
        });
        let m = machine();
        let (pred, report) = predict_program(&p, &opts(), &m, ProverPolicy::PageColoring);
        assert!(!pred.proven_free);
        assert!(!pred.cells.is_empty());
        assert!(pred.est_misses > 0);
        let first = report.with_rule(RULE_CONFLICT_CELL).next().expect("cells");
        assert_eq!(first.confidence, Some(100));
        // Diagnostics are ranked worst-first.
        let ests: Vec<u64> = report
            .with_rule(RULE_CONFLICT_CELL)
            .map(|d| {
                d.message
                    .split('~')
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            })
            .collect();
        assert!(ests.windows(2).all(|w| w[0] >= w[1]), "ranked: {ests:?}");
    }

    #[test]
    fn pad_fixit_round_trips_through_the_prover() {
        // Two 16 KB arrays on the 8-color machine. The layout is fully
        // deterministic (separate sweeps → no grouping pads): A covers
        // colors {0..3}, B {4..7}, and the code page lands on color 1 —
        // colliding with A's second page on CPU 0. Padding A relocates B
        // and the code page together; the prover must find a pad that
        // proves the whole program clean.
        let mut p = Program::new("pad-me");
        let a = p.array("A", 16 << 10);
        let b = p.array("B", 16 << 10);
        p.phase(Phase {
            name: "steady".into(),
            stmts: vec![sweep("sa", a, 16), sweep("sb", b, 16)],
            count: 1,
        });
        let m = machine();
        let (pred, report) = predict_program(&p, &opts(), &m, ProverPolicy::PageColoring);
        assert!(!pred.proven_free, "code page collides with A on cpu 0");
        let pad = report
            .diagnostics
            .iter()
            .flat_map(|d| d.fixits.iter())
            .find_map(|f| match f {
                FixIt::PadArray { array, pad_pages } => Some((array.clone(), *pad_pages)),
                _ => None,
            })
            .expect("prover finds a verified pad");
        // Re-apply the fix and re-prove: the conflict must be gone.
        let mut fixed = p.clone();
        let idx = fixed.arrays.iter().position(|ad| ad.name == pad.0).unwrap();
        fixed.arrays[idx].bytes += pad.1 * m.page_bytes;
        let (pred2, _) = predict_program(&fixed, &opts(), &m, ProverPolicy::PageColoring);
        assert!(pred2.proven_free, "applied fix-it removes the conflict");
    }

    #[test]
    fn pad_fixit_is_verified_with_the_callers_compile_options() {
        // Three grouped 8 KB arrays. The aligned layout pads grouped
        // arrays apart in the on-chip cache, so a 2 KB L1 lays them out
        // differently from the default 32 KB one: a pad verified against
        // the default layout does not clear this one.
        let mut p = Program::new("small-l1");
        let arrays: Vec<_> = ["A", "B", "C"].map(|n| p.array(n, 8 << 10)).into();
        let mut nest = LoopNest::new("abc", 8, 500);
        for (i, &a) in arrays.iter().enumerate() {
            let pattern = AccessPattern::Partitioned { unit_bytes: 1024 };
            nest = nest.with_access(if i == 2 {
                Access::write(a, pattern)
            } else {
                Access::read(a, pattern)
            });
        }
        p.phase(Phase {
            name: "steady".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest,
            }],
            count: 1,
        });
        let m = machine();
        let opts = CompileOptions {
            l1_cache_bytes: 2 << 10,
            ..opts()
        };
        let (pred, report) = predict_program(&p, &opts, &m, ProverPolicy::PageColoring);
        assert!(!pred.proven_free);
        let (array, pad_pages) = report
            .diagnostics
            .iter()
            .flat_map(|d| d.fixits.iter())
            .find_map(|f| match f {
                FixIt::PadArray { array, pad_pages } => Some((array.clone(), *pad_pages)),
                _ => None,
            })
            .expect("prover finds a verified pad");
        let mut fixed = p.clone();
        let idx = fixed.arrays.iter().position(|a| a.name == array).unwrap();
        fixed.arrays[idx].bytes += pad_pages * m.page_bytes;
        let (pred2, _) = predict_program(&fixed, &opts, &m, ProverPolicy::PageColoring);
        assert!(pred2.proven_free, "pad {array} by {pad_pages} must hold");
    }

    #[test]
    fn irregular_access_degrades_confidence_not_silence() {
        let mut p = Program::new("irregular");
        // 64 KB of irregularly-touched data bounds to 16 pages per CPU —
        // every color of the 8-color machine holds two of them.
        let a = p.array("L", 64 << 10);
        let b = p.array("M", 32 << 10);
        p.allow_lint("race/irregular-write");
        p.phase(Phase {
            name: "steady".into(),
            stmts: vec![
                Stmt {
                    kind: StmtKind::Parallel,
                    nest: LoopNest::new("scatter", 64, 100).with_access(Access::write(
                        a,
                        AccessPattern::Irregular {
                            touches_per_iter: 4,
                        },
                    )),
                },
                sweep("sm", b, 32),
            ],
            count: 1,
        });
        let m = machine();
        let (pred, report) = predict_program(&p, &opts(), &m, ProverPolicy::PageColoring);
        assert!(!pred.proven_free, "the bound itself oversubscribes");
        assert_eq!(pred.confidence, CONF_BOUNDED);
        assert!(report
            .with_rule(RULE_CONFLICT_CELL)
            .any(|d| d.confidence == Some(CONF_BOUNDED)));
    }
}
