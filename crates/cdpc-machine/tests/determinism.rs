//! Determinism guarantees for the sweep executor: every execution path —
//! the plain run loop, the observed run loop with a probe attached, and a
//! multi-threaded sweep — must produce byte-identical reports for the same
//! `(CompiledProgram, RunConfig)` input. The `reproduce` experiments rely
//! on this to make `--threads N` output indistinguishable from
//! `--threads 1`.

use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
use cdpc_compiler::{compile, CompileOptions};
use cdpc_machine::{report_to_json, run, run_observed, run_sweep, PolicyKind, RunConfig, SweepJob};
use cdpc_memsim::MemConfig;
use cdpc_obs::{CountingProbe, Probe};

/// A small machine: 32 KB direct-mapped L2 (8 colors), tiny L1s.
fn small_mem(cpus: usize) -> MemConfig {
    let mut m = MemConfig::paper_base(cpus);
    m.l1d = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
    m.l1i = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
    m.l2 = cdpc_memsim::CacheConfig::new(32 << 10, 128, 1);
    m
}

/// A stencil + partitioned-write workload with prefetching — enough
/// traffic to exercise misses, coherence, and the prefetch engine, where
/// iteration-order bugs would show up.
fn program(cpus: usize) -> cdpc_compiler::CompiledProgram {
    let mut p = Program::new("determinism");
    let a = p.array("A", 12 << 10);
    let b = p.array("B", 12 << 10);
    let nest = LoopNest::new("sweep", 12, 400)
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
        count: 3,
    });
    compile(&p, &CompileOptions::new(cpus).with_l2_cache(32 << 10)).unwrap()
}

fn sweep_configs() -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &(cpus, policy) in &[
        (1, PolicyKind::PageColoring),
        (2, PolicyKind::PageColoring),
        (2, PolicyKind::Cdpc),
        (4, PolicyKind::Cdpc),
    ] {
        jobs.push(SweepJob::new(
            program(cpus),
            RunConfig::new(small_mem(cpus), policy),
        ));
    }
    jobs
}

#[test]
fn run_and_observed_run_agree() {
    let jobs = sweep_configs();
    for job in &jobs {
        let plain = run(&job.compiled, &job.cfg);
        let mut probe = CountingProbe::new();
        let (observed, _) = run_observed(&job.compiled, &job.cfg, &mut probe, None);
        assert_eq!(
            report_to_json(&plain).to_string_compact(),
            report_to_json(&observed).to_string_compact(),
            "probe attachment changed the simulation for {}",
            job.compiled.name
        );
        assert!(probe.event_count() > 0, "the probe did see events");
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let jobs = sweep_configs();
    let sequential: Vec<String> = run_sweep(&jobs, 1)
        .iter()
        .map(|r| report_to_json(r).to_string_compact())
        .collect();
    let parallel: Vec<String> = run_sweep(&jobs, 4)
        .iter()
        .map(|r| report_to_json(r).to_string_compact())
        .collect();
    assert_eq!(
        sequential, parallel,
        "reports must not depend on thread count"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let jobs = sweep_configs();
    let first: Vec<String> = run_sweep(&jobs, 4)
        .iter()
        .map(|r| report_to_json(r).to_string_compact())
        .collect();
    let second: Vec<String> = run_sweep(&jobs, 4)
        .iter()
        .map(|r| report_to_json(r).to_string_compact())
        .collect();
    assert_eq!(first, second, "the simulator must be a pure function");
}
