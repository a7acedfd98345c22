//! The static race detector.
//!
//! A distributed loop runs its iterations concurrently on all processors
//! with a barrier at the end, so the race domain is *one statement*: two
//! processors' footprints of the same array may not overlap unless the
//! overlap is boundary communication the compiler summarized (a stencil
//! halo read of a neighbor's units — the paper's shift/rotate patterns).
//!
//! Rules:
//!
//! * `race/write-write` — two processors' write footprints intersect
//!   (mismatched partition units, or a whole-array write in a distributed
//!   loop).
//! * `race/read-write` — a processor reads bytes another writes, and the
//!   overlap is not a stencil-halo exchange between neighbors.
//! * `race/irregular-write` — an irregular (gather/scatter) write in a
//!   distributed loop: no static footprint exists, so disjointness cannot
//!   be established. Programs that synchronize such writes by other means
//!   annotate `allow_lint("race/irregular-write")`.
//!
//! Footprints here are the exact byte intervals of each CPU's units, not
//! the compiler's [`AccessFootprint`]s: those round each start down to
//! the demand or prefetch line, so two CPUs writing neighboring units
//! that share a line would overlap there. That is false sharing (the
//! [`sharing`](crate::sharing) lint's business), not a race.
//!
//! [`AccessFootprint`]: cdpc_compiler::trace::AccessFootprint

use cdpc_compiler::ir::{AccessPattern, Program};
use cdpc_compiler::trace::{OpSpec, ResolvedAccess};
use cdpc_compiler::CompiledProgram;

use crate::diag::{Diagnostic, Location, Report, Severity};

/// Rule id: overlapping write footprints.
pub const RULE_WRITE_WRITE: &str = "race/write-write";
/// Rule id: read/write overlap not explained by communication.
pub const RULE_READ_WRITE: &str = "race/read-write";
/// Rule id: statically unboundable write in a distributed loop.
pub const RULE_IRREGULAR_WRITE: &str = "race/irregular-write";

/// Byte interval `[start, end)` relative to the array's first byte.
type Interval = (u64, u64);

/// Runs the race lints over every distributed statement.
pub fn check(program: &Program, compiled: &CompiledProgram, report: &mut Report) {
    for (_, phase, nest, specs) in crate::parallel_stmts(program, compiled) {
        let p = specs.len();
        let loc = |array: usize| {
            Location::at(
                phase.name.clone(),
                nest.name.clone(),
                program.arrays[array].name.clone(),
            )
        };
        // Rules already reported for an array in this statement (one
        // finding per array per rule, not one per CPU pair).
        let mut reported: Vec<(usize, &str)> = Vec::new();
        let mut emit = |report: &mut Report, array: usize, rule: &'static str, msg: String| {
            if !reported.contains(&(array, rule)) {
                reported.push((array, rule));
                report.push(Diagnostic::new(rule, Severity::Error, loc(array), msg));
            }
        };
        // Every CPU's stream carries the same resolved accesses, in the
        // source order of `nest.accesses`.
        let resolved = &specs[0].accesses;

        for (acc, res) in nest.accesses.iter().zip(resolved) {
            if !res.is_write {
                continue;
            }
            match res.pattern {
                AccessPattern::Irregular { .. } => emit(
                    report,
                    acc.array.0,
                    RULE_IRREGULAR_WRITE,
                    format!(
                        "irregular write in distributed loop `{}`: the footprint has no \
                         static bound, so cross-processor disjointness cannot be \
                         established",
                        nest.name
                    ),
                ),
                AccessPattern::WholeArray => emit(
                    report,
                    acc.array.0,
                    RULE_WRITE_WRITE,
                    format!(
                        "whole-array write in distributed loop `{}`: all {p} processors \
                         write every byte concurrently",
                        nest.name
                    ),
                ),
                _ => {}
            }
        }

        for (i, (acc_a, a)) in nest.accesses.iter().zip(resolved).enumerate() {
            for (acc_b, b) in nest.accesses[i..].iter().zip(&resolved[i..]) {
                if acc_a.array != acc_b.array
                    || (!a.is_write && !b.is_write)
                    || is_unbounded_or_covered(a)
                    || is_unbounded_or_covered(b)
                {
                    continue;
                }
                if let Some((rule, msg)) = first_overlap(a, b, specs) {
                    emit(report, acc_a.array.0, rule, msg);
                }
            }
        }
    }
}

/// Accesses the pairwise footprint check skips: irregular (no footprint)
/// and whole-array writes (already reported as `race/write-write`).
fn is_unbounded_or_covered(a: &ResolvedAccess) -> bool {
    matches!(a.pattern, AccessPattern::Irregular { .. })
        || (a.is_write && matches!(a.pattern, AccessPattern::WholeArray))
}

/// Searches CPU pairs for an unexplained overlap between two accesses,
/// returning the rule and message of the first one found.
fn first_overlap(
    a: &ResolvedAccess,
    b: &ResolvedAccess,
    specs: &[OpSpec],
) -> Option<(&'static str, String)> {
    for (c1, s1) in specs.iter().enumerate() {
        let fa = cpu_intervals(a, s1, a.is_write)?;
        for (c2, s2) in specs.iter().enumerate() {
            if c1 == c2 {
                continue;
            }
            let fb = cpu_intervals(b, s2, b.is_write)?;
            let overlap = intersect(&fa, &fb);
            if overlap.is_empty() {
                continue;
            }
            if a.is_write && b.is_write {
                return Some((
                    RULE_WRITE_WRITE,
                    format!(
                        "CPU {c1} and CPU {c2} write footprints overlap at bytes {}; \
                         partition units {} vs {} tile the array differently",
                        fmt_intervals(&overlap),
                        unit_str(a),
                        unit_str(b),
                    ),
                ));
            }
            let (reader, writer, rc, wc) = if a.is_write {
                (b, a, c2, c1)
            } else {
                (a, b, c1, c2)
            };
            if halo_explains(reader, writer, &specs[rc], rc, wc, specs.len(), &overlap) {
                continue;
            }
            return Some((
                RULE_READ_WRITE,
                format!(
                    "CPU {rc} reads bytes {} that CPU {wc} writes concurrently, and the overlap \
                     is not a neighbor halo exchange the communication summary covers",
                    fmt_intervals(&overlap),
                ),
            ));
        }
    }
    None
}

/// `true` when an R/W overlap is exactly the boundary communication the
/// compiler would summarize: the reader is a stencil, the overlap lies
/// entirely in its halo extension (outside its own core units), the unit
/// sizes agree, and the two CPUs are neighbors (or the wraparound pair).
fn halo_explains(
    reader: &ResolvedAccess,
    writer: &ResolvedAccess,
    reader_spec: &OpSpec,
    rc: usize,
    wc: usize,
    p: usize,
    overlap: &[Interval],
) -> bool {
    let AccessPattern::Stencil {
        unit_bytes,
        halo_units,
        wraparound,
    } = reader.pattern
    else {
        return false;
    };
    if halo_units == 0 || unit_of(writer) != Some(unit_bytes) {
        return false;
    }
    let adjacent = rc.abs_diff(wc) == 1 || (wraparound && rc.min(wc) == 0 && rc.max(wc) == p - 1);
    if !adjacent {
        return false;
    }
    // Core footprint: what the reader *owns* (its write region). A stencil
    // is affine, so `cpu_intervals` cannot return `None` here.
    let Some(core) = cpu_intervals(reader, reader_spec, true) else {
        return false;
    };
    intersect(overlap, &core).is_empty()
}

/// The byte intervals of its array that one CPU's stream `spec` touches
/// through `acc`, relative to the array's first byte.
///
/// * `writes_only` restricts a stencil to its core (stencils write the
///   owned units; the halo is read-only).
/// * Returns `None` for [`AccessPattern::Irregular`] — no static bound.
/// * Stencil halos are clamped to the loop's units; a stencil with
///   periodic boundaries (`wraparound`) may return two intervals.
fn cpu_intervals(acc: &ResolvedAccess, spec: &OpSpec, writes_only: bool) -> Option<Vec<Interval>> {
    let (lo, hi, iterations) = (spec.lo, spec.hi, spec.total_iters);
    match acc.pattern {
        AccessPattern::Partitioned { unit_bytes } => Some(byte_intervals(lo, hi, unit_bytes)),
        AccessPattern::Stencil {
            unit_bytes,
            halo_units,
            wraparound,
        } => {
            if lo == hi {
                return Some(Vec::new());
            }
            if writes_only {
                return Some(byte_intervals(lo, hi, unit_bytes));
            }
            let mut out = byte_intervals(
                lo.saturating_sub(halo_units),
                (hi + halo_units).min(iterations),
                unit_bytes,
            );
            if wraparound {
                // Periodic boundary: the first owner also reads the last
                // units and vice versa.
                if lo < halo_units {
                    let wrap_lo = iterations.saturating_sub(halo_units - lo);
                    out.extend(byte_intervals(wrap_lo, iterations, unit_bytes));
                }
                if hi + halo_units > iterations {
                    let wrap_hi = (hi + halo_units - iterations).min(iterations);
                    out.extend(byte_intervals(0, wrap_hi, unit_bytes));
                }
            }
            Some(normalize(out))
        }
        AccessPattern::WholeArray => Some(if acc.bytes > 0 {
            vec![(0, acc.bytes)]
        } else {
            Vec::new()
        }),
        AccessPattern::Irregular { .. } => None,
    }
}

fn byte_intervals(lo_unit: u64, hi_unit: u64, unit_bytes: u64) -> Vec<Interval> {
    if lo_unit >= hi_unit {
        Vec::new()
    } else {
        vec![(lo_unit * unit_bytes, hi_unit * unit_bytes)]
    }
}

/// Sorts and merges touching/overlapping intervals.
fn normalize(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|&(a, b)| a < b);
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// The intersection of two interval lists (both need not be normalized).
fn intersect(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    for &(a0, a1) in a {
        for &(b0, b1) in b {
            let lo = a0.max(b0);
            let hi = a1.min(b1);
            if lo < hi {
                out.push((lo, hi));
            }
        }
    }
    normalize(out)
}

fn unit_of(a: &ResolvedAccess) -> Option<u64> {
    match a.pattern {
        AccessPattern::Partitioned { unit_bytes } | AccessPattern::Stencil { unit_bytes, .. } => {
            Some(unit_bytes)
        }
        _ => None,
    }
}

fn unit_str(a: &ResolvedAccess) -> String {
    match unit_of(a) {
        Some(u) => format!("{u} B"),
        None => "whole-array".to_string(),
    }
}

fn fmt_intervals(iv: &[Interval]) -> String {
    iv.iter()
        .map(|(a, b)| format!("[{a:#x}, {b:#x})"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern as P, LoopNest, Phase, Stmt, StmtKind};
    use cdpc_compiler::{compile, CompileOptions, CompiledStmt};

    fn one_stmt_program(kind: StmtKind, bytes: u64, accesses: Vec<Access>) -> Program {
        let mut p = Program::new("race-test");
        let a = p.array("A", bytes);
        let mut nest = LoopNest::new("sweep", 8, 100);
        for acc in accesses {
            let mut acc = acc;
            acc.array = a;
            nest = nest.with_access(acc);
        }
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt { kind, nest }],
            count: 1,
        });
        p
    }

    /// No suppression threshold, so every parallel loop is distributed
    /// however little work it does.
    fn distributed(cpus: usize) -> CompileOptions {
        CompileOptions {
            suppress_threshold: 0,
            ..CompileOptions::new(cpus)
        }
    }

    fn lint(program: &Program, cpus: usize) -> Report {
        let compiled = compile(program, &distributed(cpus)).expect("compiles");
        let mut report = Report::new(&program.name, cpus, &program.lint_allows);
        check(program, &compiled, &mut report);
        report
    }

    /// Every CPU's intervals of a loop of `iters` units, compiled with
    /// `opts`, that reads an array of `bytes` through `pattern`.
    fn footprints(
        pattern: P,
        iters: u64,
        bytes: u64,
        opts: &CompileOptions,
        writes_only: bool,
    ) -> Vec<Option<Vec<Interval>>> {
        let mut p = Program::new("footprint");
        let a = p.array("A", bytes);
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest: LoopNest::new("l", iters, 100).with_access(Access::read(a, pattern)),
            }],
            count: 1,
        });
        let compiled = compile(&p, opts).expect("compiles");
        let CompiledStmt::Parallel { specs } = &compiled.phases[0].stmts[0] else {
            panic!("expected a distributed statement");
        };
        specs
            .iter()
            .map(|s| cpu_intervals(&s.accesses[0], s, writes_only))
            .collect()
    }

    fn assert_disjoint(fps: &[Option<Vec<Interval>>]) {
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                let (a, b) = (fps[i].as_ref().unwrap(), fps[j].as_ref().unwrap());
                assert!(intersect(a, b).is_empty(), "CPUs {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn partitioned_footprints_tile_disjointly() {
        let fps = footprints(
            P::Partitioned { unit_bytes: 100 },
            8,
            800,
            &distributed(4),
            false,
        );
        assert_eq!(fps[0], Some(vec![(0, 200)]));
        assert_eq!(fps[3], Some(vec![(600, 800)]));
        assert_disjoint(&fps);
    }

    #[test]
    fn stencil_reads_extend_writes_do_not() {
        let pat = P::Stencil {
            unit_bytes: 100,
            halo_units: 1,
            wraparound: false,
        };
        // Units 2..4 plus one halo unit each side.
        let reads = footprints(pat, 8, 800, &distributed(4), false);
        let writes = footprints(pat, 8, 800, &distributed(4), true);
        assert_eq!(reads[1], Some(vec![(100, 500)]));
        assert_eq!(writes[1], Some(vec![(200, 400)]));
    }

    #[test]
    fn wraparound_stencil_wraps_both_ends() {
        let pat = P::Stencil {
            unit_bytes: 10,
            halo_units: 1,
            wraparound: true,
        };
        let fps = footprints(pat, 8, 80, &distributed(4), false);
        assert_eq!(fps[0], Some(vec![(0, 30), (70, 80)]));
        assert_eq!(fps[3], Some(vec![(0, 10), (50, 80)]));
    }

    #[test]
    fn irregular_has_no_static_footprint() {
        let irregular = P::Irregular {
            touches_per_iter: 4,
        };
        let fps = footprints(irregular, 8, 800, &distributed(4), false);
        assert_eq!(fps[0], None);
    }

    #[test]
    fn normalize_merges_and_intersect_clips() {
        assert_eq!(
            normalize(vec![(5, 10), (0, 5), (20, 30)]),
            vec![(0, 10), (20, 30)]
        );
        assert_eq!(intersect(&[(0, 10)], &[(5, 20)]), vec![(5, 10)]);
        assert_eq!(intersect(&[(0, 5)], &[(5, 20)]), Vec::<Interval>::new());
    }

    #[test]
    fn reverse_direction_mirrors_forward_ownership() {
        let reverse = CompileOptions {
            partition_direction: cdpc_core::summary::PartitionDirection::Reverse,
            ..distributed(4)
        };
        let unit = P::Partitioned { unit_bytes: 100 };
        // Blocked, 10 units over 4 CPUs: per = 3, forward ranges
        // (0,3)(3,6)(6,9)(9,10). Reverse hands them out back to front.
        let fps = footprints(unit, 10, 1000, &reverse, false);
        assert_eq!(fps[0], Some(vec![(900, 1000)]));
        assert_eq!(fps[3], Some(vec![(0, 300)]));
        // Reverse footprints still tile the array disjointly and cover it.
        assert_disjoint(&fps);
        let union = normalize(fps.into_iter().flatten().flatten().collect());
        assert_eq!(union, vec![(0, 1000)]);
        // 9 units: the forward-trailing empty range lands on the FIRST
        // reverse CPU.
        let fps = footprints(unit, 9, 900, &reverse, false);
        assert_eq!(fps[0], Some(Vec::new()));
        assert_eq!(fps[1], Some(vec![(600, 900)]));
    }

    fn rules(report: &Report) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn mismatched_write_units_race() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            1600,
            vec![
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 100 },
                ),
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 150 },
                ),
            ],
        );
        let r = lint(&p, 2);
        assert_eq!(rules(&r), vec![RULE_WRITE_WRITE]);
        assert!(r.has_errors());
    }

    #[test]
    fn irregular_write_flagged() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![Access::write(
                cdpc_compiler::ir::ArrayRef(0),
                P::Irregular {
                    touches_per_iter: 4,
                },
            )],
        );
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_IRREGULAR_WRITE]);
    }

    #[test]
    fn whole_array_write_flagged() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![Access::write(cdpc_compiler::ir::ArrayRef(0), P::WholeArray)],
        );
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_WRITE_WRITE]);
        assert!(r.diagnostics[0].message.contains("whole-array write"));
    }

    #[test]
    fn whole_array_read_of_partitioned_writes_races() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![
                Access::read(cdpc_compiler::ir::ArrayRef(0), P::WholeArray),
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 100 },
                ),
            ],
        );
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_READ_WRITE]);
    }

    #[test]
    fn disjoint_partitioned_writes_are_clean() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![
                Access::read(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 100 },
                ),
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 100 },
                ),
            ],
        );
        for cpus in [2, 4, 8] {
            assert!(rules(&lint(&p, cpus)).is_empty(), "cpus={cpus}");
        }
    }

    #[test]
    fn stencil_halo_reads_are_explained() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![
                Access::read(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Stencil {
                        unit_bytes: 100,
                        halo_units: 1,
                        wraparound: true,
                    },
                ),
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 100 },
                ),
            ],
        );
        let r = lint(&p, 4);
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn stencil_with_mismatched_write_unit_races() {
        // Same shape as the clean case above, but the writer's tiling does
        // not match the stencil's units, so the overlap is not a halo.
        let p = one_stmt_program(
            StmtKind::Parallel,
            1600,
            vec![
                Access::read(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Stencil {
                        unit_bytes: 100,
                        halo_units: 1,
                        wraparound: false,
                    },
                ),
                Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Partitioned { unit_bytes: 150 },
                ),
            ],
        );
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_READ_WRITE]);
    }

    #[test]
    fn non_distributed_statements_are_not_checked() {
        for kind in [StmtKind::Sequential, StmtKind::FineGrain] {
            let p = one_stmt_program(
                kind,
                800,
                vec![Access::write(
                    cdpc_compiler::ir::ArrayRef(0),
                    P::Irregular {
                        touches_per_iter: 4,
                    },
                )],
            );
            assert!(rules(&lint(&p, 4)).is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn single_cpu_has_no_races() {
        let p = one_stmt_program(
            StmtKind::Parallel,
            800,
            vec![Access::write(cdpc_compiler::ir::ArrayRef(0), P::WholeArray)],
        );
        assert!(rules(&lint(&p, 1)).is_empty());
    }
}
