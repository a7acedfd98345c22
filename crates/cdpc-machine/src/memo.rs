//! Content-addressed memoization of simulation runs.
//!
//! A simulation is a pure function: `(CompiledProgram, RunConfig)` fully
//! determines the [`RunReport`], bit for bit (the determinism suite proves
//! this across thread counts and probe families). That purity makes runs
//! memoizable at two levels:
//!
//! 1. **In-process** — [`run_key`] canonicalizes the config (knobs the run
//!    never reads are normalized away) and fingerprints it together with
//!    the program, so the sweep executor can deduplicate identical jobs
//!    (see `sweep::run_sweep_memo`).
//! 2. **Persistent** — [`ResultCache`] stores reports on disk keyed by the
//!    same fingerprint plus [`CACHE_FORMAT_VERSION`], so a repeated sweep
//!    (`fig6 --cache ...`) reloads unchanged points instead of
//!    re-simulating them.
//!
//! The on-disk codec ([`report_to_cache_json`]/[`report_from_cache_json`])
//! is **lossless**, unlike the human-facing `export::report_to_json`: every
//! per-CPU counter is kept and the one float in a report (bus utilization)
//! is stored as its IEEE-754 bit pattern, so a cache round trip satisfies
//! `RunReport == RunReport` exactly and cached sweeps stay byte-identical
//! to fresh ones. Entries that fail *any* structural, version, or key
//! check load as `None` — a poisoned or stale cache degrades to a
//! recompute, never to a wrong result or a crash.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cdpc_compiler::CompiledProgram;
use cdpc_core::fingerprint::{Fingerprint, FpHasher};
use cdpc_core::hints::HintOptions;
use cdpc_memsim::{CpuStats, MemStats, MissClass};
use cdpc_obs::JsonValue;
use cdpc_vm::FaultStats;

use crate::report::{BusReport, OverheadBreakdown, RunReport, StallBreakdown};
use crate::run::{PolicyKind, RunConfig};

/// Version of the on-disk cache entry format **and** of the semantics
/// behind the fingerprint. Bump it when the codec layout, the fingerprint
/// construction, the canonicalization rules, or the simulator's observable
/// behavior changes — entries under other versions live in sibling
/// directories and are simply never read.
pub const CACHE_FORMAT_VERSION: u32 = 4;

/// The content identity of one simulation run: program content, program
/// name, and canonical config. Equal keys mean equal reports; the key is
/// also the persistent cache's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey(Fingerprint);

impl RunKey {
    /// The cache-file stem (32 hex chars of the key).
    pub fn hex(&self) -> String {
        self.0.to_hex()
    }
}

/// The config with every knob that provably cannot change the report
/// normalized to its default, so two configs that must produce identical
/// results fingerprint identically.
///
/// Safe to normalize by construction:
/// * `validate_coherence` — an audit that panics or does nothing; it never
///   alters state.
/// * `race_window`/`seed` — consumed only by [`PolicyKind::BinHopping`] on
///   multiprocessors (`build_policy`); elsewhere the RNG is never built.
/// * `hint_options` — consumed only when hints are generated
///   ([`PolicyKind::Cdpc`]/[`PolicyKind::CdpcTouch`]).
/// * `recolor_threshold` — consumed only by
///   [`PolicyKind::DynamicRecolor`].
fn canonical_cfg(cfg: &RunConfig) -> RunConfig {
    let mut c = cfg.clone();
    c.validate_coherence = false;
    if c.policy != PolicyKind::BinHopping || c.mem.num_cpus <= 1 {
        c.race_window = 0;
    }
    if c.race_window == 0 {
        c.seed = 0;
    }
    if !matches!(c.policy, PolicyKind::Cdpc | PolicyKind::CdpcTouch) {
        c.hint_options = HintOptions::FULL;
    }
    if c.policy != PolicyKind::DynamicRecolor {
        c.recolor_threshold = 0;
    }
    c
}

/// Computes the [`RunKey`] for one `(program, config)` sweep point.
///
/// The walk hashes the `Debug` rendering of the canonical config and of
/// every program field — derived `Debug` is a deterministic, complete
/// rendering of the value, which makes it the cheapest exhaustive content
/// walk that needs no per-field maintenance when structs grow (a new field
/// changes the rendering and therefore, correctly, the key).
pub fn run_key(compiled: &CompiledProgram, cfg: &RunConfig) -> RunKey {
    let mut h = FpHasher::new();
    let canon = canonical_cfg(cfg);
    write!(h, "{canon:?}").expect("fingerprint writer is infallible");
    h.write_u64(compiled.num_cpus as u64);
    h.write_u64(compiled.data_bytes);
    write!(
        h,
        "{:?}{:?}{:?}{:?}",
        compiled.layout, compiled.arrays, compiled.summary, compiled.phases
    )
    .expect("fingerprint writer is infallible");
    // The name labels the report (`RunReport::name`), so it is part of the
    // result's identity even though it cannot influence the simulation.
    h.write_str_framed(&compiled.name);
    RunKey(h.finish())
}

// ---------------------------------------------------------------------------
// Lossless report codec
// ---------------------------------------------------------------------------

/// Stall categories in codec order. An array, not named fields, so the
/// entry stays compact; the order is part of the format and never changes
/// within a [`CACHE_FORMAT_VERSION`].
const MISS_CLASSES: [MissClass; 5] = [
    MissClass::Cold,
    MissClass::Capacity,
    MissClass::Conflict,
    MissClass::TrueSharing,
    MissClass::FalseSharing,
];

/// Values per CPU in the flat `cpus` rows: 5 scalar hit/ref counters,
/// 5 miss counts, 1 + 5 stall counters, and 9 remaining scalars.
const CPU_ROW_LEN: usize = 25;

fn u64s(vals: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Array(vals.into_iter().map(JsonValue::UInt).collect())
}

fn cpu_row(c: &CpuStats) -> JsonValue {
    let mut row = Vec::with_capacity(CPU_ROW_LEN);
    row.extend([
        c.data_refs,
        c.ifetch_refs,
        c.l1_hits,
        c.l2_hits,
        c.prefetch_hits,
    ]);
    row.extend(MISS_CLASSES.iter().map(|&m| c.misses.get(m)));
    row.push(c.l2_hit_stall_cycles);
    row.extend(MISS_CLASSES.iter().map(|&m| c.miss_stall_cycles.get(m)));
    row.extend([
        c.prefetch_wait_cycles,
        c.prefetch_slot_stall_cycles,
        c.upgrade_stall_cycles,
        c.tlb_misses,
        c.tlb_stall_cycles,
        c.prefetches_issued,
        c.prefetches_dropped_tlb,
        c.prefetches_dropped_resident,
        c.victim_hits,
    ]);
    debug_assert_eq!(row.len(), CPU_ROW_LEN);
    u64s(row)
}

fn cpu_from_row(row: &JsonValue) -> Option<CpuStats> {
    let vals: Vec<u64> = row
        .as_array()?
        .iter()
        .map(|v| v.as_u64())
        .collect::<Option<_>>()?;
    if vals.len() != CPU_ROW_LEN {
        return None;
    }
    let mut c = CpuStats {
        data_refs: vals[0],
        ifetch_refs: vals[1],
        l1_hits: vals[2],
        l2_hits: vals[3],
        prefetch_hits: vals[4],
        l2_hit_stall_cycles: vals[10],
        prefetch_wait_cycles: vals[16],
        prefetch_slot_stall_cycles: vals[17],
        upgrade_stall_cycles: vals[18],
        tlb_misses: vals[19],
        tlb_stall_cycles: vals[20],
        prefetches_issued: vals[21],
        prefetches_dropped_tlb: vals[22],
        prefetches_dropped_resident: vals[23],
        victim_hits: vals[24],
        ..CpuStats::default()
    };
    for (i, &m) in MISS_CLASSES.iter().enumerate() {
        c.misses.add(m, vals[5 + i]);
        c.miss_stall_cycles.add(m, vals[11 + i]);
    }
    Some(c)
}

/// Serializes a report without losing a single bit.
///
/// `bus.utilization` — the report's only float — travels as
/// `f64::to_bits`, so equality after a round trip is exact, not
/// approximate. See [`report_from_cache_json`].
pub fn report_to_cache_json(report: &RunReport) -> JsonValue {
    let mut bus = JsonValue::object();
    bus.push("data_cycles", JsonValue::UInt(report.bus.data_cycles));
    bus.push(
        "writeback_cycles",
        JsonValue::UInt(report.bus.writeback_cycles),
    );
    bus.push("upgrade_cycles", JsonValue::UInt(report.bus.upgrade_cycles));
    bus.push(
        "utilization_bits",
        JsonValue::UInt(report.bus.utilization.to_bits()),
    );

    let mut mem = JsonValue::object();
    mem.push(
        "cpus",
        JsonValue::Array(report.mem_stats.cpus.iter().map(cpu_row).collect()),
    );
    let occ = report.mem_stats.bus_occupancy;
    mem.push("bus_occupancy", u64s([occ.0, occ.1, occ.2]));
    mem.push(
        "bus_transactions",
        JsonValue::UInt(report.mem_stats.bus_transactions),
    );

    let s = &report.stalls;
    let o = &report.overheads;
    let f = &report.fault_stats;
    let mut r = JsonValue::object();
    r.push("name", JsonValue::Str(report.name.clone()));
    r.push("num_cpus", JsonValue::UInt(report.num_cpus as u64));
    r.push("policy", JsonValue::Str(report.policy.clone()));
    r.push("instructions", JsonValue::UInt(report.instructions));
    r.push("exec_cycles", JsonValue::UInt(report.exec_cycles));
    r.push(
        "stalls",
        u64s([
            s.l2_hit,
            s.conflict,
            s.capacity,
            s.true_sharing,
            s.false_sharing,
            s.cold,
            s.prefetch,
            s.upgrade,
        ]),
    );
    r.push(
        "overheads",
        u64s([
            o.kernel,
            o.load_imbalance,
            o.sequential,
            o.suppressed,
            o.synchronization,
        ]),
    );
    r.push("elapsed_cycles", JsonValue::UInt(report.elapsed_cycles));
    r.push("combined_cycles", JsonValue::UInt(report.combined_cycles));
    r.push("bus", bus);
    r.push("mem_stats", mem);
    r.push(
        "fault_stats",
        u64s([f.faults, f.preferred, f.honored, f.fallback]),
    );
    r.push("recolorings", JsonValue::UInt(report.recolorings));
    r.push("simulated_refs", JsonValue::UInt(report.simulated_refs));
    r
}

fn u64_field(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn u64_array<const N: usize>(v: &JsonValue, key: &str) -> Option<[u64; N]> {
    let arr = v.get(key)?.as_array()?;
    if arr.len() != N {
        return None;
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item.as_u64()?;
    }
    Some(out)
}

/// Rebuilds a report serialized by [`report_to_cache_json`]. Returns
/// `None` on any structural mismatch — wrong types, missing fields, wrong
/// array lengths — so corrupted entries fall back to a recompute.
pub fn report_from_cache_json(v: &JsonValue) -> Option<RunReport> {
    let [l2_hit, conflict, capacity, true_sharing, false_sharing, cold, prefetch, upgrade] =
        u64_array::<8>(v, "stalls")?;
    let [kernel, load_imbalance, sequential, suppressed, synchronization] =
        u64_array::<5>(v, "overheads")?;
    let bus = v.get("bus")?;
    let mem = v.get("mem_stats")?;
    let cpus = mem
        .get("cpus")?
        .as_array()?
        .iter()
        .map(cpu_from_row)
        .collect::<Option<Vec<_>>>()?;
    let [occ_d, occ_w, occ_u] = u64_array::<3>(mem, "bus_occupancy")?;
    let [faults, preferred, honored, fallback] = u64_array::<4>(v, "fault_stats")?;
    Some(RunReport {
        name: v.get("name")?.as_str()?.to_string(),
        num_cpus: u64_field(v, "num_cpus")? as usize,
        policy: v.get("policy")?.as_str()?.to_string(),
        instructions: u64_field(v, "instructions")?,
        exec_cycles: u64_field(v, "exec_cycles")?,
        stalls: StallBreakdown {
            l2_hit,
            conflict,
            capacity,
            true_sharing,
            false_sharing,
            cold,
            prefetch,
            upgrade,
        },
        overheads: OverheadBreakdown {
            kernel,
            load_imbalance,
            sequential,
            suppressed,
            synchronization,
        },
        elapsed_cycles: u64_field(v, "elapsed_cycles")?,
        combined_cycles: u64_field(v, "combined_cycles")?,
        bus: BusReport {
            data_cycles: u64_field(bus, "data_cycles")?,
            writeback_cycles: u64_field(bus, "writeback_cycles")?,
            upgrade_cycles: u64_field(bus, "upgrade_cycles")?,
            utilization: f64::from_bits(u64_field(bus, "utilization_bits")?),
        },
        mem_stats: MemStats {
            cpus,
            bus_occupancy: (occ_d, occ_w, occ_u),
            bus_transactions: u64_field(mem, "bus_transactions")?,
        },
        fault_stats: FaultStats {
            faults,
            preferred,
            honored,
            fallback,
        },
        recolorings: u64_field(v, "recolorings")?,
        simulated_refs: u64_field(v, "simulated_refs")?,
    })
}

// ---------------------------------------------------------------------------
// Persistent cache
// ---------------------------------------------------------------------------

/// A content-addressed on-disk store of [`RunReport`]s.
///
/// Layout: `<root>/v<CACHE_FORMAT_VERSION>/<32-hex-full-key>.json`. The
/// version appears both in the path (so incompatible generations never
/// collide) and inside each entry (so a file moved across version
/// directories is still rejected). Writes go through a temp file plus
/// `rename`, so concurrent sweeps sharing one cache directory only ever
/// observe complete entries.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The version-scoped directory entries live in.
    pub fn versioned_dir(&self) -> PathBuf {
        self.root.join(format!("v{CACHE_FORMAT_VERSION}"))
    }

    fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.versioned_dir().join(format!("{}.json", key.hex()))
    }

    /// Loads the report stored under `key`, or `None` if absent, corrupt,
    /// truncated, version-mismatched, or stored under a different key
    /// (i.e. a renamed or tampered file). Never panics on cache contents.
    pub fn load(&self, key: &RunKey) -> Option<RunReport> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let v = JsonValue::parse(&text).ok()?;
        if u64_field(&v, "format_version")? != u64::from(CACHE_FORMAT_VERSION) {
            return None;
        }
        if v.get("key")?.as_str()? != key.hex() {
            return None;
        }
        report_from_cache_json(v.get("report")?)
    }

    /// Stores `report` under `key`, atomically. IO failure is returned to
    /// the caller, who should treat the cache as best-effort (a sweep that
    /// cannot write its cache still produced correct results).
    pub fn store(&self, key: &RunKey, report: &RunReport) -> io::Result<()> {
        let dir = self.versioned_dir();
        fs::create_dir_all(&dir)?;
        let mut entry = JsonValue::object();
        entry.push(
            "format_version",
            JsonValue::UInt(CACHE_FORMAT_VERSION.into()),
        );
        entry.push("key", JsonValue::Str(key.hex()));
        entry.push("report", report_to_cache_json(report));
        let tmp = dir.join(format!(".{}.{}.tmp", key.hex(), std::process::id()));
        fs::write(&tmp, entry.to_string_compact())?;
        let path = self.entry_path(key);
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// The cache's root directory (as configured, version dir excluded).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run;
    use cdpc_compiler::{compile, CompileOptions};
    use cdpc_memsim::MemConfig;
    use cdpc_workloads::spec::Scale;

    const SCALE: u64 = 32;

    fn small_cfg(cpus: usize) -> RunConfig {
        let mut m = MemConfig::paper_base(cpus);
        m.l2 = cdpc_memsim::CacheConfig::new((1 << 20) / SCALE as usize, 128, 1);
        m.l1d = cdpc_memsim::CacheConfig::new(512, 32, 2);
        m.l1i = cdpc_memsim::CacheConfig::new(512, 32, 2);
        m.tlb_entries = 8;
        RunConfig::new(m, PolicyKind::PageColoring)
    }

    fn compile_suite(name: &str, cpus: usize) -> CompiledProgram {
        let bench = cdpc_workloads::by_name(name).expect("suite workload exists");
        let program = (bench.build)(Scale::new(SCALE));
        let l2 = small_cfg(cpus).mem.l2.size_bytes() as u64;
        compile(&program, &CompileOptions::new(cpus).with_l2_cache(l2)).expect("models compile")
    }

    fn compiled(cpus: usize) -> CompiledProgram {
        compile_suite("tomcatv", cpus)
    }

    #[test]
    fn canonicalization_merges_execution_strategies() {
        let c = compiled(2);
        let base = small_cfg(2);
        let mut variant = base.clone();
        variant.validate_coherence = true;
        // Page coloring never reads these:
        variant.seed = 99;
        variant.race_window = 7;
        variant.recolor_threshold = 1;
        variant.hint_options = HintOptions {
            order_sets: false,
            order_segments: true,
            cyclic_layout: false,
        };
        assert_eq!(run_key(&c, &base), run_key(&c, &variant));
    }

    #[test]
    fn semantic_fields_change_the_key() {
        let c = compiled(2);
        let base = small_cfg(2);
        let key = run_key(&c, &base);
        let mut other = base.clone();
        other.policy = PolicyKind::Cdpc;
        assert_ne!(key, run_key(&c, &other));
        let mut other = base.clone();
        other.barrier_cycles += 1;
        assert_ne!(key, run_key(&c, &other));
        let mut other = base.clone();
        other.hog_fraction = 0.25;
        assert_ne!(key, run_key(&c, &other));
        // Bin hopping on a multiprocessor really consumes the seed.
        let mut bh_a = base.clone();
        bh_a.policy = PolicyKind::BinHopping;
        let mut bh_b = bh_a.clone();
        bh_b.seed += 1;
        assert_ne!(run_key(&c, &bh_a), run_key(&c, &bh_b));
    }

    #[test]
    fn program_name_and_content_change_the_key() {
        let cfg = small_cfg(2);
        let a = compiled(2);
        let mut b = a.clone();
        b.name = "tomcatv-relabeled".to_string();
        let ka = run_key(&a, &cfg);
        assert_ne!(ka, run_key(&b, &cfg), "name labels the report");
        let c = compile_suite("swim", 2);
        assert_ne!(ka, run_key(&c, &cfg), "program content");
    }

    #[test]
    fn codec_round_trip_is_exact() {
        let c = compiled(2);
        let mut cfg = small_cfg(2);
        cfg.hog_fraction = 0.2; // exercise fault fallbacks
        let report = run(&c, &cfg);
        assert!(report.bus.utilization > 0.0, "want a nontrivial float");
        let json = report_to_cache_json(&report);
        let text = json.to_string_compact();
        let parsed = JsonValue::parse(&text).expect("codec output parses");
        let back = report_from_cache_json(&parsed).expect("codec output decodes");
        assert_eq!(report, back, "cache codec must be lossless");
        assert_eq!(
            report.bus.utilization.to_bits(),
            back.bus.utilization.to_bits(),
            "float must survive bit-exactly"
        );
    }

    #[test]
    fn cache_store_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("cdpc-memo-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let c = compiled(2);
        let cfg = small_cfg(2);
        let key = run_key(&c, &cfg);
        assert!(cache.load(&key).is_none(), "cold cache misses");
        let report = run(&c, &cfg);
        cache.store(&key, &report).expect("store succeeds");
        assert_eq!(cache.load(&key), Some(report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_and_mismatched_entries_load_as_none() {
        let dir = std::env::temp_dir().join(format!("cdpc-memo-poison-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let c = compiled(2);
        let cfg = small_cfg(2);
        let key = run_key(&c, &cfg);
        let report = run(&c, &cfg);
        cache.store(&key, &report).expect("store succeeds");
        let path = cache.versioned_dir().join(format!("{}.json", key.hex()));

        // Truncated file → recompute, not crash.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.load(&key), None, "truncated entry must be rejected");

        // Valid JSON, wrong embedded key (renamed/tampered entry).
        let other_key = {
            let mut c2 = c.clone();
            c2.name = "imposter".into();
            run_key(&c2, &cfg)
        };
        cache.store(&other_key, &report).expect("store succeeds");
        let other_path = cache
            .versioned_dir()
            .join(format!("{}.json", other_key.hex()));
        fs::rename(&other_path, &path).unwrap();
        assert_eq!(cache.load(&key), None, "foreign key must be rejected");

        // Version mismatch inside an otherwise-valid entry.
        cache.store(&key, &report).expect("store succeeds");
        let bumped = fs::read_to_string(&path).unwrap().replace(
            &format!("\"format_version\":{CACHE_FORMAT_VERSION}"),
            &format!("\"format_version\":{}", CACHE_FORMAT_VERSION + 1),
        );
        fs::write(&path, bumped).unwrap();
        assert_eq!(cache.load(&key), None, "future version must be rejected");

        // Structural damage deep in the report (cpu row too short).
        cache.store(&key, &report).expect("store succeeds");
        let damaged =
            fs::read_to_string(&path)
                .unwrap()
                .replacen("\"cpus\":[[", "\"cpus\":[[1],[", 1);
        fs::write(&path, damaged).unwrap();
        assert_eq!(cache.load(&key), None, "short cpu row must be rejected");

        let _ = fs::remove_dir_all(&dir);
    }
}
