//! The parallelizing-compiler substrate for compiler-directed page
//! coloring.
//!
//! This crate stands in for the SUIF compiler of the ASPLOS '96 paper. It
//! accepts programs in a dense loop-nest IR ([`ir`]), schedules them across
//! processors ([`parallelize`]), lays out their data ([`layout`]), derives
//! the access-pattern summaries CDPC consumes ([`summarize`]), plans
//! compiler-inserted prefetching ([`locality`]), and lowers everything to
//! per-processor reference streams for the machine simulator ([`trace`]).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
//! use cdpc_compiler::{compile, CompileOptions};
//!
//! let mut prog = Program::new("example");
//! let a = prog.array("A", 64 << 10);
//! prog.phase(Phase {
//!     name: "sweep".into(),
//!     stmts: vec![Stmt {
//!         kind: StmtKind::Parallel,
//!         nest: LoopNest::new("l1", 64, 200)
//!             .with_access(Access::write(a, AccessPattern::Partitioned { unit_bytes: 1024 })),
//!     }],
//!     count: 10,
//! });
//! let compiled = compile(&prog, &CompileOptions::new(4))?;
//! assert_eq!(compiled.num_cpus, 4);
//! assert_eq!(compiled.summary.partitionings.len(), 1);
//! # Ok::<(), cdpc_compiler::CompileError>(())
//! ```

pub mod ir;
pub mod layout;
pub mod locality;
pub mod parallelize;
pub mod summarize;
pub mod trace;

mod error;

pub use error::CompileError;

use std::ops::RangeInclusive;

use cdpc_core::summary::{AccessSummary, ArrayPartitioning, PartitionDirection, PartitionPolicy};

use ir::Program;
use layout::{DataLayout, LayoutMode, LayoutOptions};
use locality::{PrefetchOptions, PrefetchPlan};
use parallelize::{ParallelPlan, ParallelizeOptions, StmtSchedule};
use trace::{OpSpec, ResolvedAccess};

/// Compiler flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Target processor count.
    pub num_cpus: usize,
    /// Align and pad data structures (paper §5.4). Off reproduces the
    /// "unaligned" baseline of Figure 9.
    pub aligned: bool,
    /// Insert software prefetches (paper §6.2).
    pub prefetch: bool,
    /// Minimum `iterations * work` for distribution (suppression
    /// threshold).
    pub suppress_threshold: u64,
    /// Iteration distribution policy.
    pub partition_policy: PartitionPolicy,
    /// Iteration distribution direction.
    pub partition_direction: PartitionDirection,
    /// Demand-reference granularity: the L1 line size.
    pub granularity: u64,
    /// External-cache line size (prefetch granularity, alignment quantum).
    pub l2_line_bytes: u64,
    /// On-chip cache size (padding target).
    pub l1_cache_bytes: u64,
    /// External-cache size (locality-analysis threshold).
    pub l2_cache_bytes: u64,
    /// Prefetch software-pipeline depth, iterations.
    pub pipeline_depth: u64,
    /// Explicit layout-mode override; when set it wins over `aligned`
    /// (used by the padding experiments to select
    /// [`LayoutMode::Padded`]).
    pub layout_override: Option<LayoutMode>,
}

impl CompileOptions {
    /// Defaults matching the paper's base machine, for `num_cpus`
    /// processors.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            num_cpus,
            aligned: true,
            prefetch: false,
            suppress_threshold: 2_000,
            partition_policy: PartitionPolicy::Blocked,
            partition_direction: PartitionDirection::Forward,
            granularity: 32,
            l2_line_bytes: 128,
            l1_cache_bytes: 32 << 10,
            l2_cache_bytes: 1 << 20,
            pipeline_depth: 2,
            layout_override: None,
        }
    }

    /// The parallelizer settings these flags imply.
    fn parallelize_options(&self) -> ParallelizeOptions {
        ParallelizeOptions {
            num_cpus: self.num_cpus,
            suppress_threshold: self.suppress_threshold,
            policy: self.partition_policy,
            direction: self.partition_direction,
        }
    }

    /// The layout settings these flags imply.
    fn layout_options(&self) -> LayoutOptions {
        LayoutOptions {
            mode: self.layout_override.unwrap_or(if self.aligned {
                LayoutMode::Aligned
            } else {
                LayoutMode::Unaligned
            }),
            line_bytes: self.l2_line_bytes,
            l1_cache_bytes: self.l1_cache_bytes,
            ..Default::default()
        }
    }

    /// Builder-style: disable alignment and padding.
    #[must_use]
    pub fn unaligned(mut self) -> Self {
        self.aligned = false;
        self
    }

    /// Builder-style: enable prefetch insertion.
    #[must_use]
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Builder-style: set the external cache assumed by locality analysis.
    #[must_use]
    pub fn with_l2_cache(mut self, bytes: u64) -> Self {
        self.l2_cache_bytes = bytes;
        self
    }
}

/// One statement, lowered: who executes what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledStmt {
    /// All processors run their slice, then meet at a barrier.
    Parallel {
        /// One reference stream per processor.
        specs: Vec<OpSpec>,
    },
    /// Only the master runs; slaves idle.
    Master {
        /// The master's stream.
        spec: OpSpec,
        /// `true` when the loop was parallelizable but suppressed (the
        /// paper charges this to *suppressed* rather than *sequential*
        /// overhead).
        suppressed: bool,
    },
}

/// One phase, lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPhase {
    /// Phase name.
    pub name: String,
    /// Steady-state occurrence count (statistics weight).
    pub count: u64,
    /// Statements in program order.
    pub stmts: Vec<CompiledStmt>,
}

/// Identity of one laid-out array: the source-level name together with
/// the virtual range the layout pass assigned it. This is what miss
/// attribution threads down the stack — the memory system tags every
/// classified miss with the index of the array whose range the faulting
/// address falls in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Source-level array name.
    pub name: String,
    /// First byte of the array's virtual range.
    pub base: cdpc_vm::addr::VirtAddr,
    /// Size in bytes.
    pub bytes: u64,
}

/// The compiler's full output for one (program, machine) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Program name.
    pub name: String,
    /// Processors compiled for.
    pub num_cpus: usize,
    /// Data layout (array base addresses, code segment).
    pub layout: DataLayout,
    /// Array identities in declaration order (index = region tag).
    pub arrays: Vec<ArrayInfo>,
    /// CDPC access summary (stage 1 of the paper's pipeline).
    pub summary: AccessSummary,
    /// Lowered phases.
    pub phases: Vec<CompiledPhase>,
    /// Total data-set size in bytes.
    pub data_bytes: u64,
}

impl CompiledProgram {
    /// Instructions one full pass over all phases executes on `cpu`
    /// (the master also executes sequential and suppressed work).
    pub fn instr_count(&self, cpu: usize) -> u64 {
        let mut total = 0;
        for phase in &self.phases {
            for stmt in &phase.stmts {
                total += phase.count
                    * match stmt {
                        CompiledStmt::Parallel { specs } => specs[cpu].instr_count(),
                        CompiledStmt::Master { spec, .. } => {
                            if cpu == 0 {
                                spec.instr_count()
                            } else {
                                0
                            }
                        }
                    };
            }
        }
        total
    }

    /// The virtual-range → array-index map the memory system uses to
    /// attribute misses (region `id` = position in [`Self::arrays`]).
    pub fn region_map(&self) -> cdpc_vm::RegionMap {
        cdpc_vm::RegionMap::new(
            self.arrays
                .iter()
                .enumerate()
                .map(|(i, a)| cdpc_vm::Region {
                    start: a.base.0,
                    end: a.base.0 + a.bytes,
                    id: i as u32,
                })
                .collect(),
        )
    }

    /// The array names, in region-id order (report labels).
    pub fn array_names(&self) -> Vec<String> {
        self.arrays.iter().map(|a| a.name.clone()).collect()
    }

    /// The array (index into [`Self::arrays`]) whose laid-out range contains
    /// `va`, if any. Code and guard pages belong to no array.
    pub fn array_of_addr(&self, va: u64) -> Option<usize> {
        self.arrays
            .iter()
            .position(|a| (a.base.0..a.base.0 + a.bytes).contains(&va))
    }

    /// The largest loop body of any statement, in bytes: the size of the
    /// code segment mapped from [`DataLayout::code_base`].
    pub fn max_code_bytes(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|ph| &ph.stmts)
            .map(|s| match s {
                CompiledStmt::Parallel { specs } => specs.first().map_or(0, |x| x.code_bytes),
                CompiledStmt::Master { spec, .. } => spec.code_bytes,
            })
            .max()
            .unwrap_or(0)
    }

    /// The virtual page numbers of the code segment for `page_bytes`
    /// pages (at least one page, even for empty loop bodies).
    pub fn code_vpns(&self, page_bytes: u64) -> RangeInclusive<u64> {
        let base = self.layout.code_base.0;
        base / page_bytes..=(base + self.max_code_bytes().max(1) - 1) / page_bytes
    }
}

/// Runs the whole pipeline: validate → parallelize → layout → summarize →
/// prefetch-plan → lower.
///
/// # Errors
///
/// Returns a [`CompileError`] when the program is internally inconsistent.
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    program.validate()?;

    let plan = parallelize::parallelize(program, &opts.parallelize_options());
    let data_layout = layout::layout(program, &opts.layout_options());
    let summary = summarize::summarize(program, &plan, &data_layout);
    let prefetch = locality::plan_prefetches(
        program,
        &plan,
        &PrefetchOptions {
            enabled: opts.prefetch,
            cache_bytes: opts.l2_cache_bytes,
            pipeline_depth: opts.pipeline_depth,
        },
    );

    let phases = lower(program, &plan, &data_layout, &prefetch, opts);

    let arrays = program
        .arrays
        .iter()
        .zip(&data_layout.bases)
        .map(|(decl, &base)| ArrayInfo {
            name: decl.name.clone(),
            base,
            bytes: decl.bytes,
        })
        .collect();

    Ok(CompiledProgram {
        name: program.name.clone(),
        num_cpus: opts.num_cpus,
        layout: data_layout,
        arrays,
        summary,
        phases,
        data_bytes: program.data_set_bytes(),
    })
}

fn lower(
    program: &Program,
    plan: &ParallelPlan,
    data_layout: &DataLayout,
    prefetch: &PrefetchPlan,
    opts: &CompileOptions,
) -> Vec<CompiledPhase> {
    let p = opts.num_cpus;
    program
        .phases
        .iter()
        .enumerate()
        .map(|(pi, phase)| CompiledPhase {
            name: phase.name.clone(),
            count: phase.count,
            stmts: phase
                .stmts
                .iter()
                .enumerate()
                .map(|(si, stmt)| {
                    let accesses: Vec<ResolvedAccess> = stmt
                        .nest
                        .accesses
                        .iter()
                        .enumerate()
                        .map(|(ai, acc)| ResolvedAccess {
                            base: data_layout.bases[acc.array.0].0,
                            bytes: program.arrays[acc.array.0].bytes,
                            pattern: acc.pattern,
                            is_write: acc.is_write,
                            prefetch: prefetch.decision(pi, si, ai),
                        })
                        .collect();
                    let spec_for = |lo: u64, hi: u64, cpu_salt: u64| OpSpec {
                        lo,
                        hi,
                        total_iters: stmt.nest.iterations,
                        accesses: accesses.clone(),
                        work_per_iter: stmt.nest.work_per_iter,
                        code_base: data_layout.code_base.0,
                        code_bytes: stmt.nest.code_bytes,
                        granularity: opts.granularity,
                        l2_line: opts.l2_line_bytes,
                        seed: ((pi as u64) << 32) | ((si as u64) << 16) | cpu_salt,
                    };
                    match plan.schedule(pi, si) {
                        StmtSchedule::Distributed { policy, direction } => {
                            // Reuse the cdpc-core partition arithmetic so the
                            // summary and the generated code agree exactly.
                            let part = ArrayPartitioning::new(
                                cdpc_core::summary::ArrayId(0),
                                1,
                                stmt.nest.iterations,
                                policy,
                                direction,
                            );
                            let specs = (0..p)
                                .map(|cpu| {
                                    let (lo, hi) = part.unit_range(cpu, p);
                                    spec_for(lo, hi, cpu as u64)
                                })
                                .collect();
                            CompiledStmt::Parallel { specs }
                        }
                        StmtSchedule::Master => CompiledStmt::Master {
                            spec: spec_for(0, stmt.nest.iterations, 0),
                            suppressed: false,
                        },
                        StmtSchedule::Suppressed => CompiledStmt::Master {
                            spec: spec_for(0, stmt.nest.iterations, 0),
                            suppressed: true,
                        },
                    }
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Access, AccessPattern, LoopNest, Phase, Stmt, StmtKind};

    fn stencil_program() -> Program {
        let mut p = Program::new("stencil");
        let a = p.array("A", 256 << 10);
        let b = p.array("B", 256 << 10);
        let nest = LoopNest::new("sweep", 256, 400)
            .with_access(Access::read(
                a,
                AccessPattern::Stencil {
                    unit_bytes: 1024,
                    halo_units: 1,
                    wraparound: false,
                },
            ))
            .with_access(Access::write(
                b,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ));
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest,
            }],
            count: 5,
        });
        p
    }

    #[test]
    fn compile_produces_one_spec_per_cpu() {
        let c = compile(&stencil_program(), &CompileOptions::new(4)).unwrap();
        let CompiledStmt::Parallel { specs } = &c.phases[0].stmts[0] else {
            panic!("expected a distributed stmt");
        };
        assert_eq!(specs.len(), 4);
        // Iteration ranges tile 0..256 exactly.
        let mut cursor = 0;
        for s in specs {
            assert_eq!(s.lo, cursor);
            cursor = s.hi;
        }
        assert_eq!(cursor, 256);
    }

    #[test]
    fn compiled_ranges_match_summary_partitioning() {
        // The generated code and the summary must describe the same
        // partitioning, or CDPC would color for the wrong access pattern.
        let c = compile(&stencil_program(), &CompileOptions::new(4)).unwrap();
        let CompiledStmt::Parallel { specs } = &c.phases[0].stmts[0] else {
            panic!();
        };
        let part = &c.summary.partitionings[0];
        for (cpu, spec) in specs.iter().enumerate() {
            assert_eq!(part.unit_range(cpu, 4), (spec.lo, spec.hi));
        }
    }

    #[test]
    fn uniprocessor_compiles_to_master_stmts() {
        let c = compile(&stencil_program(), &CompileOptions::new(1)).unwrap();
        assert!(matches!(
            c.phases[0].stmts[0],
            CompiledStmt::Master {
                suppressed: false,
                ..
            }
        ));
        // On 1 CPU no loop is distributed, so the summary has no
        // partitionings and CDPC falls back to the OS policy everywhere.
        assert!(c.summary.partitionings.is_empty());
    }

    #[test]
    fn instr_count_weights_phase_occurrences() {
        let c = compile(&stencil_program(), &CompileOptions::new(2)).unwrap();
        // 256 iterations × 400 instr × 5 occurrences, split over 2 CPUs.
        assert_eq!(c.instr_count(0) + c.instr_count(1), 256 * 400 * 5);
    }

    #[test]
    fn prefetch_flag_annotates_streaming_accesses() {
        let opts = CompileOptions::new(2)
            .with_prefetch()
            .with_l2_cache(64 << 10);
        let c = compile(&stencil_program(), &opts).unwrap();
        let CompiledStmt::Parallel { specs } = &c.phases[0].stmts[0] else {
            panic!();
        };
        assert!(specs[0].accesses.iter().any(|a| a.prefetch.enabled));
        let has_pf = specs[0]
            .ops()
            .any(|o| matches!(o, trace::TraceOp::Prefetch { .. }));
        assert!(has_pf);
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = stencil_program();
        p.phases[0].stmts[0].nest.iterations = 10_000; // exceeds arrays
        assert!(matches!(
            compile(&p, &CompileOptions::new(2)),
            Err(CompileError::AccessExceedsArray { .. })
        ));
    }

    #[test]
    fn alignment_flag_switches_layout_mode() {
        let aligned = compile(&stencil_program(), &CompileOptions::new(2)).unwrap();
        let unaligned = compile(&stencil_program(), &CompileOptions::new(2).unaligned()).unwrap();
        assert_eq!(aligned.layout.bases[0].0 % 128, 0);
        // Same arrays, different packing.
        assert!(unaligned.layout.total_data_bytes <= aligned.layout.total_data_bytes);
    }

    #[test]
    fn suppressed_stmt_lowered_to_master_with_flag() {
        let mut p = stencil_program();
        p.phases[0].stmts[0].kind = StmtKind::FineGrain;
        let c = compile(&p, &CompileOptions::new(4)).unwrap();
        assert!(matches!(
            c.phases[0].stmts[0],
            CompiledStmt::Master {
                suppressed: true,
                ..
            }
        ));
    }
}
