//! Whole-machine composition: CPUs, caches, bus, operating system, and the
//! run loop that executes compiled programs and produces reports.
//!
//! This crate plays the role of SimOS in the paper's methodology: it wires
//! the memory-hierarchy simulator (`cdpc-memsim`), the virtual-memory
//! substrate (`cdpc-vm`), and the compiler's reference streams
//! (`cdpc-compiler`) into one machine, runs the paper's
//! representative-execution-window methodology (warm-up pass + weighted
//! per-phase measurement), and reports the four views of Figure 2.
//!
//! # Example
//!
//! ```
//! use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
//! use cdpc_compiler::{compile, CompileOptions};
//! use cdpc_machine::{run, PolicyKind, RunConfig};
//! use cdpc_memsim::MemConfig;
//!
//! let mut prog = Program::new("demo");
//! let a = prog.array("A", 64 << 10);
//! prog.phase(Phase {
//!     name: "sweep".into(),
//!     stmts: vec![Stmt {
//!         kind: StmtKind::Parallel,
//!         nest: LoopNest::new("l", 64, 100)
//!             .with_access(Access::write(a, AccessPattern::Partitioned { unit_bytes: 1024 })),
//!     }],
//!     count: 2,
//! });
//! let compiled = compile(&prog, &CompileOptions::new(2))?;
//! let mut mem = MemConfig::paper_base(2);
//! mem.l2 = cdpc_memsim::CacheConfig::new(32 << 10, 128, 1); // scaled machine
//! let report = run(&compiled, &RunConfig::new(mem, PolicyKind::Cdpc));
//! assert!(report.instructions > 0);
//! # Ok::<(), cdpc_compiler::CompileError>(())
//! ```

pub mod export;
pub mod format;
pub mod htmlreport;
pub mod memo;
pub mod report;
pub mod run;
pub mod sweep;
pub mod validate;

pub use export::{attribution_to_json, report_to_json};
pub use format::{render_attribution_top, render_report, summary_line};
pub use htmlreport::attribution_to_html;
pub use memo::{run_key, ResultCache, RunKey, CACHE_FORMAT_VERSION};
pub use report::{geometric_mean, BusReport, OverheadBreakdown, RunReport, StallBreakdown};
pub use run::{
    attribution_probe, run, run_attributed, run_observed, PolicyKind, RunConfig, SchedulerKind,
};
pub use sweep::{default_threads, run_sweep, run_sweep_memo, sweep_map, SweepJob};
pub use validate::{diff_prediction, PredictionDiff};
