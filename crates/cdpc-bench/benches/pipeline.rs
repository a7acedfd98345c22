//! End-to-end pipeline benchmarks: compile (parallelize + layout +
//! summarize + prefetch-plan + lower) and full machine simulation of one
//! workload, per policy. These are the costs a user of the library pays.
//!
//! Run with `cargo bench -p cdpc-bench --bench pipeline`. The simulation
//! section also reports the probes-on cost next to probes-off, which is
//! the observability overhead budget (kept under 2% when disabled — the
//! disabled path is `run`, whose probe hooks compile to nothing).

use std::hint::black_box;

use cdpc_bench::{Preset, Setup};
use cdpc_machine::{run, run_observed, run_sweep_memo, PolicyKind, ResultCache, RunConfig};
use cdpc_obs::selfprof::{fmt_duration, time_iters};
use cdpc_obs::CountingProbe;

fn bench_compile() {
    let setup = Setup::with_scale(8);
    for name in ["tomcatv", "su2cor", "turb3d"] {
        let bench = cdpc_workloads::by_name(name).expect("exists");
        // The uncached path: `compile_bench` itself memoizes per setup,
        // which would reduce this loop to a map lookup.
        let t = time_iters(2, 20, || {
            black_box(setup.compile_bench_uncached(&bench, Preset::Base1MbDm, 8, true, true));
        });
        println!(
            "pipeline/compile/{name:<10} {:>12}",
            fmt_duration(t.secs_per_iter())
        );
    }
}

fn bench_simulation() {
    // Scale 64 keeps each full simulation to a few milliseconds.
    let setup = Setup::with_scale(64);
    let bench = cdpc_workloads::by_name("hydro2d").expect("exists");
    let compiled = setup.compile_bench(&bench, Preset::Base1MbDm, 4, false, true);
    for policy in [
        PolicyKind::PageColoring,
        PolicyKind::BinHopping,
        PolicyKind::Cdpc,
        PolicyKind::CdpcTouch,
    ] {
        let t = time_iters(2, 20, || {
            let cfg = RunConfig::new(setup.scaled_mem(Preset::Base1MbDm, 4), policy);
            black_box(run(&compiled, &cfg));
        });
        println!(
            "pipeline/simulate_hydro2d_4p/{:<14} {:>12}",
            policy.label(),
            fmt_duration(t.secs_per_iter())
        );
    }
    // Probes-on variant: the instrumented run with a counting probe.
    let t = time_iters(2, 20, || {
        let cfg = RunConfig::new(setup.scaled_mem(Preset::Base1MbDm, 4), PolicyKind::Cdpc);
        let mut probe = CountingProbe::default();
        black_box(run_observed(&compiled, &cfg, &mut probe, None));
    });
    println!(
        "pipeline/simulate_hydro2d_4p/{:<14} {:>12}",
        "cdpc+probes",
        fmt_duration(t.secs_per_iter())
    );
}

fn bench_cached_sweep() {
    // A Figure-6-shaped sweep through the persistent result cache: the
    // cold pass simulates all 18 points and stores them, the warm pass
    // answers every point from disk. The reports are bit-identical; only
    // the wall clock changes (DESIGN.md section 6i).
    let setup = Setup::with_scale(64);
    let mut jobs = Vec::new();
    for name in ["tomcatv", "swim", "hydro2d"] {
        let bench = cdpc_workloads::by_name(name).expect("exists");
        for cpus in [4usize, 8] {
            for policy in [
                PolicyKind::PageColoring,
                PolicyKind::BinHopping,
                PolicyKind::Cdpc,
            ] {
                jobs.push(setup.job(&bench, Preset::Base1MbDm, cpus, policy, false, true));
            }
        }
    }
    let dir = std::env::temp_dir().join(format!("cdpc-pipeline-cache-{}", std::process::id()));
    // Cold: fresh cache every iteration (delete, simulate, store).
    let t = time_iters(1, 5, || {
        std::fs::remove_dir_all(&dir).ok();
        let cache = ResultCache::new(&dir);
        black_box(run_sweep_memo(&jobs, 1, Some(&cache)));
    });
    println!(
        "pipeline/sweep_fig6/cold-cache   {:>12}",
        fmt_duration(t.secs_per_iter())
    );
    let cold = t.secs_per_iter();
    // Warm: the cache left by the last cold iteration hits on every point.
    let t = time_iters(2, 10, || {
        let cache = ResultCache::new(&dir);
        let (_, stats) = black_box(run_sweep_memo(&jobs, 1, Some(&cache)));
        assert_eq!(stats.misses, 0, "warm pass must hit on every point");
    });
    println!(
        "pipeline/sweep_fig6/warm-cache   {:>12}",
        fmt_duration(t.secs_per_iter())
    );
    println!(
        "pipeline/sweep_fig6/speedup      {:>11.1}x",
        cold / t.secs_per_iter().max(1e-9)
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    bench_compile();
    bench_simulation();
    bench_cached_sweep();
}
