//! Structural consistency checks.
//!
//! Two families. [`check_program`] subsumes `Program::validate` — shape
//! errors in the IR itself (unknown arrays, degenerate loops, accesses
//! that run off the end of their array). [`check_summary`] audits a
//! derived [`AccessSummary`] against itself: partitionings that overlap
//! across processors, summaries larger than their array, communication
//! for arrays nobody partitioned, overlapping virtual address ranges.
//! The summary checks are what the seed-loop mutation tests drive: a
//! valid plan passes, a corrupted one names the corruption.

use cdpc_compiler::ir::{AccessPattern, Program, StmtKind};
use cdpc_core::summary::AccessSummary;

use crate::diag::{Diagnostic, Location, Report, Severity};

/// Rule id: access to an array the program never declared.
pub const RULE_UNKNOWN_ARRAY: &str = "struct/unknown-array";
/// Rule id: loop with zero iterations.
pub const RULE_ZERO_TRIP: &str = "struct/zero-trip-loop";
/// Rule id: affine access with a zero-byte unit.
pub const RULE_ZERO_UNIT: &str = "struct/zero-unit";
/// Rule id: affine access touching bytes past the array's end.
pub const RULE_ACCESS_EXCEEDS: &str = "struct/access-exceeds-array";
/// Rule id: nothing to analyze.
pub const RULE_EMPTY_PROGRAM: &str = "struct/empty-program";
/// Rule id: a partitioning summary covering more bytes than its array.
pub const RULE_SUMMARY_EXCEEDS: &str = "struct/summary-exceeds-array";
/// Rule id: two partitionings of one array give different processors
/// overlapping bytes.
pub const RULE_PARTITION_OVERLAP: &str = "struct/partition-overlap";
/// Rule id: a partitioning's per-CPU ranges do not cover its units.
pub const RULE_PARTITION_COVERAGE: &str = "struct/partition-coverage";
/// Rule id: communication summarized for an array with no partitioning.
pub const RULE_ORPHAN_COMM: &str = "struct/orphan-communication";
/// Rule id: two arrays' virtual ranges overlap.
pub const RULE_ARRAY_OVERLAP: &str = "struct/array-overlap";
/// Rule id: a group references an array the summary does not know.
pub const RULE_UNKNOWN_GROUP_MEMBER: &str = "struct/unknown-group-member";
/// Rule id: a processor owns no units of a partitioning.
pub const RULE_STARVED_CPU: &str = "struct/starved-cpu";
/// Rule id: an array neither partitioned nor marked shared.
pub const RULE_UNANALYZABLE: &str = "struct/unanalyzable-array";

/// Lints the IR itself. Returns `true` when a *fatal* shape error was
/// found — one that [`compile`](cdpc_compiler::compile) rejects or that
/// makes partitioning arithmetic undefined, so analysis must stop here.
pub fn check_program(program: &Program, report: &mut Report) -> bool {
    let mut fatal = false;
    if program.phases.iter().all(|ph| ph.stmts.is_empty()) {
        report.push(Diagnostic::new(
            RULE_EMPTY_PROGRAM,
            Severity::Info,
            Location::default(),
            "program has no statements; nothing to analyze",
        ));
    }
    for phase in &program.phases {
        for stmt in &phase.stmts {
            let nest = &stmt.nest;
            let loc = |array: Option<&str>| Location {
                phase: Some(phase.name.clone()),
                loop_name: Some(nest.name.clone()),
                array: array.map(String::from),
            };
            if nest.iterations == 0 && stmt.kind != StmtKind::Sequential {
                fatal = true;
                report.push(Diagnostic::new(
                    RULE_ZERO_TRIP,
                    Severity::Error,
                    loc(None),
                    "loop has zero iterations; partitioning arithmetic is undefined",
                ));
            }
            for acc in &nest.accesses {
                let Some(decl) = program.arrays.get(acc.array.0) else {
                    fatal = true;
                    report.push(Diagnostic::new(
                        RULE_UNKNOWN_ARRAY,
                        Severity::Error,
                        loc(None),
                        format!(
                            "access names array #{} but only {} are declared",
                            acc.array.0,
                            program.arrays.len()
                        ),
                    ));
                    continue;
                };
                let unit = match acc.pattern {
                    AccessPattern::Partitioned { unit_bytes }
                    | AccessPattern::Stencil { unit_bytes, .. } => unit_bytes,
                    _ => continue,
                };
                if unit == 0 {
                    fatal = true;
                    report.push(Diagnostic::new(
                        RULE_ZERO_UNIT,
                        Severity::Error,
                        loc(Some(&decl.name)),
                        "affine access with a zero-byte unit",
                    ));
                } else if unit.saturating_mul(nest.iterations) > decl.bytes {
                    fatal = true;
                    report.push(Diagnostic::new(
                        RULE_ACCESS_EXCEEDS,
                        Severity::Error,
                        loc(Some(&decl.name)),
                        format!(
                            "access touches {} B but `{}` holds only {} B",
                            unit * nest.iterations,
                            decl.name,
                            decl.bytes
                        ),
                    ));
                }
            }
        }
    }
    fatal
}

/// Audits a derived summary for internal consistency at `num_cpus`.
pub fn check_summary(summary: &AccessSummary, num_cpus: usize, report: &mut Report) {
    let name_of = |id: cdpc_core::summary::ArrayId| {
        summary
            .array(id)
            .map_or_else(|| format!("#{}", id.0), |a| a.name.clone())
    };

    for part in &summary.partitionings {
        let loc = Location::array(name_of(part.array));
        match summary.array(part.array) {
            None => report.push(Diagnostic::new(
                RULE_UNKNOWN_GROUP_MEMBER,
                Severity::Error,
                loc.clone(),
                "partitioning references an array the summary does not describe",
            )),
            Some(info) => {
                if part.unit_bytes.saturating_mul(part.num_units) > info.size_bytes {
                    report.push(Diagnostic::new(
                        RULE_SUMMARY_EXCEEDS,
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "partitioning covers {} B ({} x {} B units) but `{}` holds {} B",
                            part.unit_bytes * part.num_units,
                            part.num_units,
                            part.unit_bytes,
                            info.name,
                            info.size_bytes
                        ),
                    ));
                }
            }
        }
        let mut covered = 0;
        let mut starved = Vec::new();
        for cpu in 0..num_cpus {
            let (lo, hi) = part.unit_range(cpu, num_cpus);
            covered += hi - lo;
            if lo == hi {
                starved.push(cpu);
            }
        }
        if covered != part.num_units {
            report.push(Diagnostic::new(
                RULE_PARTITION_COVERAGE,
                Severity::Error,
                loc.clone(),
                format!(
                    "per-CPU ranges cover {covered} of {} units at {num_cpus} CPUs",
                    part.num_units
                ),
            ));
        }
        if !starved.is_empty() {
            report.push(Diagnostic::new(
                RULE_STARVED_CPU,
                Severity::Info,
                loc,
                format!(
                    "{} of {num_cpus} CPUs own no units (blocked distribution of {} units); \
                     their caches idle while others sweep",
                    starved.len(),
                    part.num_units
                ),
            ));
        }
    }

    // Two different partitionings of one array handing different CPUs the
    // same bytes: the cross-loop version of a write-write race and the
    // "overlapping partitions" corruption the mutation tests inject.
    let mut overlap_flagged: Vec<cdpc_core::summary::ArrayId> = Vec::new();
    for (i, p1) in summary.partitionings.iter().enumerate() {
        for p2 in &summary.partitionings[i + 1..] {
            if p1.array != p2.array
                || (p1.unit_bytes, p1.num_units) == (p2.unit_bytes, p2.num_units)
                || overlap_flagged.contains(&p1.array)
            {
                continue;
            }
            'pairs: for c1 in 0..num_cpus {
                let (l1, h1) = p1.unit_range(c1, num_cpus);
                let (b1, e1) = (l1 * p1.unit_bytes, h1 * p1.unit_bytes);
                for c2 in 0..num_cpus {
                    if c1 == c2 {
                        continue;
                    }
                    let (l2, h2) = p2.unit_range(c2, num_cpus);
                    let (b2, e2) = (l2 * p2.unit_bytes, h2 * p2.unit_bytes);
                    if b1.max(b2) < e1.min(e2) {
                        overlap_flagged.push(p1.array);
                        report.push(Diagnostic::new(
                            RULE_PARTITION_OVERLAP,
                            Severity::Error,
                            Location::array(name_of(p1.array)),
                            format!(
                                "partitionings ({} B x {}) and ({} B x {}) give CPU {c1} and \
                                 CPU {c2} overlapping bytes [{:#x}, {:#x})",
                                p1.unit_bytes,
                                p1.num_units,
                                p2.unit_bytes,
                                p2.num_units,
                                b1.max(b2),
                                e1.min(e2)
                            ),
                        ));
                        break 'pairs;
                    }
                }
            }
        }
    }

    for comm in &summary.communications {
        if summary.partitionings_of(comm.array).next().is_none() {
            report.push(Diagnostic::new(
                RULE_ORPHAN_COMM,
                Severity::Error,
                Location::array(name_of(comm.array)),
                format!(
                    "communication of {} boundary units summarized for an array with no \
                     partitioning",
                    comm.width_units
                ),
            ));
        }
    }

    let mut by_start: Vec<_> = summary.arrays.iter().collect();
    by_start.sort_by_key(|a| a.start.0);
    for w in by_start.windows(2) {
        if w[1].start.0 < w[0].end().0 {
            report.push(Diagnostic::new(
                RULE_ARRAY_OVERLAP,
                Severity::Error,
                Location::array(w[0].name.clone()),
                format!(
                    "`{}` [{:#x}, {:#x}) overlaps `{}` starting at {:#x}",
                    w[0].name,
                    w[0].start.0,
                    w[0].end().0,
                    w[1].name,
                    w[1].start.0
                ),
            ));
        }
    }

    for group in &summary.groups {
        for &id in group.arrays() {
            if summary.array(id).is_none() {
                report.push(Diagnostic::new(
                    RULE_UNKNOWN_GROUP_MEMBER,
                    Severity::Error,
                    Location::array(format!("#{}", id.0)),
                    "group references an array the summary does not describe",
                ));
            }
        }
    }

    for info in &summary.arrays {
        if summary.partitionings_of(info.id).next().is_none()
            && !summary.shared_arrays.contains(&info.id)
        {
            report.push(Diagnostic::new(
                RULE_UNANALYZABLE,
                Severity::Info,
                Location::array(info.name.clone()),
                "array is neither partitioned nor read-shared; the compiler cannot color it",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{
        Access, AccessPattern as P, ArrayRef, LoopNest, Phase, Program, Stmt, StmtKind,
    };
    use cdpc_core::summary::{
        ArrayId, ArrayInfo, ArrayPartitioning, CommunicationPattern, CommunicationSummary,
        PartitionDirection, PartitionPolicy,
    };
    use cdpc_vm::addr::VirtAddr;

    fn report() -> Report {
        Report::new("struct-test", 4, &[])
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    fn valid_program() -> Program {
        let mut p = Program::new("ok");
        let a = p.array("A", 64 * 1024);
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest: LoopNest::new("l", 64, 100)
                    .with_access(Access::write(a, P::Partitioned { unit_bytes: 1024 })),
            }],
            count: 1,
        });
        p
    }

    fn part(array: usize, unit: u64, units: u64) -> ArrayPartitioning {
        ArrayPartitioning::new(
            ArrayId(array),
            unit,
            units,
            PartitionPolicy::Blocked,
            PartitionDirection::Forward,
        )
    }

    fn valid_summary() -> AccessSummary {
        AccessSummary {
            arrays: vec![
                ArrayInfo::new(ArrayId(0), "A", VirtAddr(0x1_0000), 64 * 1024),
                ArrayInfo::new(ArrayId(1), "B", VirtAddr(0x2_0000), 64 * 1024),
            ],
            partitionings: vec![part(0, 1024, 64), part(1, 1024, 64)],
            communications: vec![CommunicationSummary {
                array: ArrayId(0),
                pattern: CommunicationPattern::Shift,
                width_units: 1,
            }],
            groups: Vec::new(),
            shared_arrays: Vec::new(),
        }
    }

    #[test]
    fn valid_program_and_summary_are_clean() {
        let mut r = report();
        assert!(!check_program(&valid_program(), &mut r));
        check_summary(&valid_summary(), 4, &mut r);
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn unknown_array_is_fatal() {
        let mut p = valid_program();
        p.phases[0].stmts[0].nest.accesses[0].array = ArrayRef(7);
        let mut r = report();
        assert!(check_program(&p, &mut r));
        assert_eq!(rules(&r), vec![RULE_UNKNOWN_ARRAY]);
    }

    #[test]
    fn zero_unit_and_zero_trip_are_fatal() {
        let mut p = valid_program();
        p.phases[0].stmts[0].nest.accesses[0].pattern = P::Partitioned { unit_bytes: 0 };
        let mut r = report();
        assert!(check_program(&p, &mut r));
        assert_eq!(rules(&r), vec![RULE_ZERO_UNIT]);

        let mut p = valid_program();
        p.phases[0].stmts[0].nest.iterations = 0;
        let mut r = report();
        assert!(check_program(&p, &mut r));
        assert!(rules(&r).contains(&RULE_ZERO_TRIP));
    }

    #[test]
    fn oversized_access_is_fatal() {
        let mut p = valid_program();
        p.phases[0].stmts[0].nest.accesses[0].pattern = P::Partitioned { unit_bytes: 2048 };
        let mut r = report();
        assert!(check_program(&p, &mut r));
        assert_eq!(rules(&r), vec![RULE_ACCESS_EXCEEDS]);
    }

    #[test]
    fn empty_program_is_informational() {
        let mut r = report();
        assert!(!check_program(&Program::new("empty"), &mut r));
        assert_eq!(rules(&r), vec![RULE_EMPTY_PROGRAM]);
        assert_eq!(r.counts(), (0, 0, 1));
    }

    #[test]
    fn shrunken_array_trips_summary_exceeds() {
        let mut s = valid_summary();
        s.arrays[0].size_bytes = 16 * 1024; // summary still claims 64 KB
        let mut r = report();
        check_summary(&s, 4, &mut r);
        assert!(rules(&r).contains(&RULE_SUMMARY_EXCEEDS));
    }

    #[test]
    fn mismatched_partitionings_trip_overlap() {
        let mut s = valid_summary();
        s.partitionings.push(part(0, 1536, 32)); // different tiling of A
        let mut r = report();
        check_summary(&s, 4, &mut r);
        assert!(rules(&r).contains(&RULE_PARTITION_OVERLAP));
    }

    #[test]
    fn orphan_communication_flagged() {
        let mut s = valid_summary();
        s.partitionings.remove(0); // A keeps its comm but loses its partitioning
        let mut r = report();
        check_summary(&s, 4, &mut r);
        assert!(rules(&r).contains(&RULE_ORPHAN_COMM));
        // And B's partitioning alone raises nothing.
        assert!(!rules(&r).contains(&RULE_PARTITION_OVERLAP));
    }

    #[test]
    fn overlapping_virtual_ranges_flagged() {
        let mut s = valid_summary();
        s.arrays[1].start = VirtAddr(0x1_8000); // inside A's 64 KB
        let mut r = report();
        check_summary(&s, 4, &mut r);
        assert!(rules(&r).contains(&RULE_ARRAY_OVERLAP));
    }

    #[test]
    fn starvation_and_unanalyzable_are_info_only() {
        let mut s = valid_summary();
        s.partitionings[0] = part(0, 1024, 2); // 2 units across 4 CPUs starves 2
        s.arrays
            .push(ArrayInfo::new(ArrayId(2), "C", VirtAddr(0x3_0000), 4096));
        let mut r = report();
        check_summary(&s, 4, &mut r);
        assert!(rules(&r).contains(&RULE_STARVED_CPU));
        assert!(rules(&r).contains(&RULE_UNANALYZABLE));
        let (e, _, _) = r.counts();
        assert_eq!(e, 0);
    }
}
