//! The false-sharing lint.
//!
//! When a partition boundary falls in the middle of an external-cache
//! line, the two neighboring processors write disjoint bytes of the
//! *same* line and ping-pong its ownership — the paper's false-sharing
//! stall component, paid on every sweep without any true communication.
//! The boundary addresses are fully static (array base + boundary unit x
//! unit size), so the lint predicts exactly which boundaries do this.
//!
//! Rules (both `Warn`: performance, not correctness):
//!
//! * `sharing/false-boundary` — a partition boundary of a written array
//!   is not line-aligned.
//! * `sharing/array-straddle` — a written array's base itself is not
//!   line-aligned, so even perfectly sized units straddle lines.

use cdpc_compiler::ir::{AccessPattern, Program};
use cdpc_compiler::CompiledProgram;

use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::machine::MachineModel;

/// Rule id: partition boundary inside an L2 line.
pub const RULE_FALSE_BOUNDARY: &str = "sharing/false-boundary";
/// Rule id: written array whose base is not line-aligned.
pub const RULE_ARRAY_STRADDLE: &str = "sharing/array-straddle";

/// Runs the false-sharing lints over every distributed statement.
pub fn check(
    program: &Program,
    compiled: &CompiledProgram,
    machine: &MachineModel,
    report: &mut Report,
) {
    let line = machine.l2_line_bytes;
    if line == 0 {
        return;
    }
    let mut straddle_flagged: Vec<usize> = Vec::new();
    for (_, phase, nest, specs) in crate::parallel_stmts(program, compiled) {
        let mut boundary_flagged: Vec<usize> = Vec::new();
        for (acc, res) in nest.accesses.iter().zip(&specs[0].accesses) {
            if !res.is_write {
                continue;
            }
            let unit = match res.pattern {
                AccessPattern::Partitioned { unit_bytes }
                | AccessPattern::Stencil { unit_bytes, .. } => unit_bytes,
                _ => continue,
            };
            let name = &program.arrays[acc.array.0].name;
            let base = res.base;
            let loc = Location::at(phase.name.clone(), nest.name.clone(), name.clone());

            if !base.is_multiple_of(line) && !straddle_flagged.contains(&acc.array.0) {
                straddle_flagged.push(acc.array.0);
                report.push(Diagnostic::new(
                    RULE_ARRAY_STRADDLE,
                    Severity::Warn,
                    loc.clone(),
                    format!(
                        "written array `{name}` starts at {base:#x}, not a multiple of the \
                         {line} B L2 line; every partition boundary straddles a line \
                         (use the aligned layout)"
                    ),
                ));
            }

            if boundary_flagged.contains(&acc.array.0) {
                continue;
            }
            // Interior partition boundaries: a unit index `b` where
            // one CPU's range ends and a neighbor's begins.
            let mut boundaries: Vec<u64> = Vec::new();
            for spec in specs {
                for b in [spec.lo, spec.hi] {
                    if b > 0 && b < nest.iterations && !boundaries.contains(&b) {
                        boundaries.push(b);
                    }
                }
            }
            let bad: Vec<u64> = boundaries
                .iter()
                .map(|b| base + b * unit)
                .filter(|addr| addr % line != 0)
                .collect();
            if let Some(&first) = bad.first() {
                boundary_flagged.push(acc.array.0);
                report.push(Diagnostic::new(
                    RULE_FALSE_BOUNDARY,
                    Severity::Warn,
                    loc,
                    format!(
                        "{} of {} partition boundaries of `{name}` fall inside a {line} B L2 \
                         line (first at {first:#x}); neighboring processors will false-share \
                         those lines every sweep. Pad the {unit} B unit to a line multiple \
                         or enable the aligned layout.",
                        bad.len(),
                        boundaries.len(),
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern as P, LoopNest, Phase, Stmt, StmtKind};
    use cdpc_compiler::{compile, CompileOptions, CompiledStmt};

    fn program(unit: u64, is_write: bool, stencil: bool) -> Program {
        let mut p = Program::new("sharing-test");
        let a = p.array("A", unit * 64);
        let pattern = if stencil {
            P::Stencil {
                unit_bytes: unit,
                halo_units: 1,
                wraparound: false,
            }
        } else {
            P::Partitioned { unit_bytes: unit }
        };
        let acc = if is_write {
            Access::write(a, pattern)
        } else {
            Access::read(a, pattern)
        };
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest: LoopNest::new("sweep", 64, 100).with_access(acc),
            }],
            count: 1,
        });
        p
    }

    /// Compiles with the aligned layout and no suppression threshold.
    fn compile_distributed(program: &Program, cpus: usize) -> CompiledProgram {
        let opts = CompileOptions {
            suppress_threshold: 0,
            ..CompileOptions::new(cpus)
        };
        compile(program, &opts).expect("compiles")
    }

    fn lint(program: &Program, cpus: usize) -> Report {
        let compiled = compile_distributed(program, cpus);
        let mut report = Report::new(&program.name, cpus, &program.lint_allows);
        check(
            program,
            &compiled,
            &MachineModel::paper_base(cpus),
            &mut report,
        );
        report
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn odd_units_false_share_boundaries() {
        // 100 B units: boundaries at multiples of 100 B, never multiples
        // of the 128 B line.
        let p = program(100, true, false);
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_FALSE_BOUNDARY]);
        assert_eq!(r.counts(), (0, 1, 0));
    }

    #[test]
    fn stencil_writes_also_checked() {
        let p = program(100, true, true);
        let r = lint(&p, 4);
        assert_eq!(rules(&r), vec![RULE_FALSE_BOUNDARY]);
    }

    #[test]
    fn misaligned_base_straddles() {
        // Give the array a base that is not a line multiple by hand.
        let p = program(1024, true, false);
        let mut compiled = compile_distributed(&p, 4);
        let CompiledStmt::Parallel { specs } = &mut compiled.phases[0].stmts[0] else {
            panic!("expected a distributed statement");
        };
        for spec in specs {
            spec.accesses[0].base += 32;
        }
        let mut r = Report::new("t", 4, &[]);
        check(&p, &compiled, &MachineModel::paper_base(4), &mut r);
        assert!(rules(&r).contains(&RULE_ARRAY_STRADDLE));
        assert!(rules(&r).contains(&RULE_FALSE_BOUNDARY));
    }

    #[test]
    fn line_multiple_units_are_clean() {
        let p = program(1024, true, false);
        let r = lint(&p, 4);
        assert!(rules(&r).is_empty(), "got {:?}", rules(&r));
    }

    #[test]
    fn read_only_accesses_are_clean() {
        let p = program(100, false, false);
        let r = lint(&p, 4);
        assert!(rules(&r).is_empty());
    }

    #[test]
    fn single_cpu_cannot_false_share() {
        let p = program(100, true, false);
        let r = lint(&p, 1);
        assert!(rules(&r).is_empty());
    }
}
