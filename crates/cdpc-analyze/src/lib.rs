//! Static analysis and runtime sanitizing for the CDPC stack.
//!
//! The compiler's summaries (partitionings, communication patterns,
//! layouts) make strong claims about a program: processors write
//! disjoint data, boundary overlap is stencil communication, page
//! placement decides cache conflicts. This crate *checks* those claims,
//! from two sides:
//!
//! * **Static lints** ([`analyze_program`]) over the IR and the program
//!   as [`compile`](cdpc_compiler::compile) lowers it: a race detector
//!   ([`races`]), a false-sharing lint ([`sharing`]), the per-statement
//!   color-pressure rule of the conflict prover ([`predict`]), and
//!   structural audits ([`structure`]). Findings are [`Diagnostic`]s
//!   collected in a [`Report`], rendered as text or JSON.
//! * **A runtime sanitizer** ([`SanitizerProbe`]): a
//!   [`Probe`](cdpc_obs::Probe) shadowing the simulator's MESI protocol
//!   online and failing fast on invariant violations.
//!
//! A program that deliberately triggers a rule (e.g. su2cor's irregular
//! gauge-field update) carries
//! [`allow_lint`](cdpc_compiler::ir::Program::allow_lint) annotations;
//! allowed Errors are reported but do not fail runs.

pub mod diag;
pub mod interference;
pub mod machine;
pub mod predict;
pub mod races;
pub mod sanitize;
pub mod sarif;
pub mod sharing;
pub mod structure;

pub use diag::{Diagnostic, FixIt, Location, Report, Severity};
pub use interference::{ColoringModel, InterferenceMap, RegionId, Scope};
pub use machine::MachineModel;
pub use predict::{predict_program, ConflictPrediction, ProverPolicy};
pub use sanitize::SanitizerProbe;
pub use sarif::reports_to_sarif;

use cdpc_compiler::ir::{LoopNest, Phase, Program};
use cdpc_compiler::trace::OpSpec;
use cdpc_compiler::{CompileOptions, CompiledProgram, CompiledStmt};

/// Runs every static lint over `program` as `opts` would compile it for
/// the `machine` geometry.
///
/// Structural IR errors that would make compilation fail (unknown arrays,
/// zero-byte units, accesses past the end of their array, zero-trip
/// loops) end the analysis early.
pub fn analyze_program(program: &Program, opts: &CompileOptions, machine: &MachineModel) -> Report {
    let mut report = Report::new(&program.name, opts.num_cpus, &program.lint_allows);
    if structure::check_program(program, &mut report) {
        return report;
    }
    let compiled = cdpc_compiler::compile(program, opts)
        .expect("check_program rejects every program compile rejects");
    analyze_parts(program, &compiled, machine, &mut report);
    report.sort_stable();
    report
}

/// The lints over a program and its compiled form: what
/// [`analyze_program`] runs after compiling, public so tests (and tools
/// holding a [`CompiledProgram`]) can lint mutated parts.
pub fn analyze_parts(
    program: &Program,
    compiled: &CompiledProgram,
    machine: &MachineModel,
    report: &mut Report,
) {
    structure::check_summary(&compiled.summary, compiled.num_cpus, report);
    races::check(program, compiled, report);
    sharing::check(program, compiled, machine, report);
    predict::check_color_pressure(program, compiled, machine, report);
}

/// Every distributed statement of `compiled` as `((phase, stmt), source
/// phase, source loop nest, one lowered stream per CPU)`. The source
/// carries the names and array ids; the streams carry each CPU's
/// iteration range and the laid-out accesses.
fn parallel_stmts<'a>(
    program: &'a Program,
    compiled: &'a CompiledProgram,
) -> impl Iterator<Item = ((usize, usize), &'a Phase, &'a LoopNest, &'a [OpSpec])> {
    program
        .phases
        .iter()
        .zip(&compiled.phases)
        .enumerate()
        .flat_map(|(pi, (phase, lowered))| {
            phase
                .stmts
                .iter()
                .zip(&lowered.stmts)
                .enumerate()
                .filter_map(move |(si, (stmt, lowered))| match lowered {
                    CompiledStmt::Parallel { specs } => {
                        Some(((pi, si), phase, &stmt.nest, specs.as_slice()))
                    }
                    CompiledStmt::Master { .. } => None,
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Stmt, StmtKind};
    use cdpc_obs::SplitMix64;

    /// A random *valid* program: consistent units per array, arrays
    /// exactly as large as their sweeps, stencil halos for communication.
    fn random_valid_program(rng: &mut SplitMix64) -> Program {
        let mut p = Program::new("seeded");
        let narrays = 1 + rng.below(3) as usize;
        let mut decls = Vec::new();
        for i in 0..narrays {
            let unit = 128 * (1 + rng.below(8));
            let iters = 8 * (1 + rng.below(8));
            let a = p.array(format!("A{i}"), unit * iters);
            decls.push((a, unit, iters));
        }
        let mut stmts = Vec::new();
        for (si, &(a, unit, iters)) in decls.iter().enumerate() {
            // Enough work per iteration to clear the suppression
            // threshold at every drawn trip count.
            let mut nest = LoopNest::new(format!("sweep{si}"), iters, 500).with_access(
                Access::write(a, AccessPattern::Partitioned { unit_bytes: unit }),
            );
            if rng.below(2) == 0 {
                nest = nest.with_access(Access::read(
                    a,
                    AccessPattern::Stencil {
                        unit_bytes: unit,
                        halo_units: 1,
                        wraparound: rng.below(2) == 0,
                    },
                ));
            }
            stmts.push(Stmt {
                kind: StmtKind::Parallel,
                nest,
            });
        }
        p.phase(Phase {
            name: "steady".into(),
            stmts,
            count: 1,
        });
        p
    }

    #[test]
    fn seeded_valid_programs_have_no_errors() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for round in 0..50 {
            let program = random_valid_program(&mut rng);
            let cpus = [2, 4, 8][rng.below(3) as usize];
            let opts = CompileOptions::new(cpus);
            let report = analyze_program(&program, &opts, &MachineModel::paper_base(cpus));
            assert!(
                !report.has_errors(),
                "round {round} (cpus {cpus}) errored:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn seeded_mutations_trip_the_expected_rules() {
        let mut rng = SplitMix64::new(0xBADC0DE);
        for round in 0..25 {
            let program = random_valid_program(&mut rng);
            let cpus = 4;
            let mut compiled =
                cdpc_compiler::compile(&program, &CompileOptions::new(cpus)).expect("compiles");
            let summary = &mut compiled.summary;
            let machine = MachineModel::paper_base(cpus);

            let expected = if round % 2 == 0 && !summary.partitionings.is_empty() {
                // Overlapping partitions: re-tile the first partitioned
                // array with a clashing unit size.
                let p0 = summary.partitionings[0];
                summary
                    .partitionings
                    .push(cdpc_core::summary::ArrayPartitioning::new(
                        p0.array,
                        p0.unit_bytes + 64,
                        p0.num_units.div_ceil(2).max(1),
                        p0.policy,
                        p0.direction,
                    ));
                structure::RULE_PARTITION_OVERLAP
            } else {
                // Shrunken array: the summary claims more bytes than exist.
                summary.arrays[0].size_bytes /= 2;
                structure::RULE_SUMMARY_EXCEEDS
            };

            let mut report = Report::new(&program.name, cpus, &[]);
            analyze_parts(&program, &compiled, &machine, &mut report);
            assert!(
                report.with_rule(expected).next().is_some(),
                "round {round}: expected {expected}, got:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn empty_program_analysis_is_quiet() {
        let report = analyze_program(
            &Program::new("nothing"),
            &CompileOptions::new(4),
            &MachineModel::paper_base(4),
        );
        assert!(!report.has_errors());
        assert_eq!(report.counts(), (0, 0, 1)); // struct/empty-program info
    }
}

#[cfg(test)]
mod crosscheck {
    //! The color-pressure lint against the simulator: statements it flags
    //! must correspond to simulated external-cache conflict misses.

    use super::*;
    use cdpc_machine::{run, PolicyKind, RunConfig};
    use cdpc_memsim::MemConfig;
    use cdpc_workloads::spec::Scale;

    /// A machine with the paper's geometry but a 64 KB external cache, so
    /// scaled workloads both fit (conflict, not capacity) and collide.
    fn scaled_mem(cpus: usize) -> MemConfig {
        let mut m = MemConfig::paper_base(cpus);
        m.l2 = m.l2.scaled_down(16); // 1 MB -> 64 KB, 16 colors
        m
    }

    fn check_workload(name: &str) {
        let cpus = 4;
        let mem = scaled_mem(cpus);
        let bench = cdpc_workloads::by_name(name).expect("workload exists");
        let program = (bench.build)(Scale::new(64));
        let opts = CompileOptions::new(cpus).with_l2_cache(mem.l2.size_bytes() as u64);

        let report = analyze_program(&program, &opts, &MachineModel::from_mem(&mem));
        let predicted = report
            .with_rule(predict::RULE_COLOR_PRESSURE)
            .next()
            .is_some();

        let compiled = cdpc_compiler::compile(&program, &opts).expect("compiles");
        let sim = run(&compiled, &RunConfig::new(mem, PolicyKind::PageColoring));
        let simulated = sim.stalls.conflict;

        assert!(
            predicted,
            "{name}: predictor found no color pressure:\n{}",
            report.render()
        );
        assert!(
            simulated > 0,
            "{name}: predictor flags color pressure but the simulation saw \
             no conflict misses"
        );
    }

    #[test]
    fn tomcatv_prediction_matches_simulation() {
        check_workload("tomcatv");
    }

    #[test]
    fn swim_prediction_matches_simulation() {
        check_workload("swim");
    }
}
