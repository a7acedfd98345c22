//! Trace-driven multiprocessor memory-hierarchy simulator.
//!
//! This crate stands in for the SimOS memory system used by the ASPLOS '96
//! paper *Compiler-Directed Page Coloring for Multiprocessors*. It models,
//! per processor:
//!
//! * a split, virtually-indexed L1 instruction/data cache pair (32 KB 2-way
//!   in the paper's configuration) — page mapping is invisible here;
//! * a large **physically-indexed** external (L2) cache — 1 MB direct-mapped
//!   in the base configuration — where page colors decide conflicts;
//! * a TLB whose misses cost kernel time and cause prefetches to be dropped;
//! * a MIPS R10000-style prefetch unit: up to four outstanding prefetches,
//!   a fifth stalls the processor, prefetched lines fill the L2 only.
//!
//! Shared across processors:
//!
//! * a split-transaction bus with finite bandwidth (1.2 GB/s in the paper)
//!   whose occupancy is accounted per transaction type (data, writeback,
//!   upgrade) and whose contention delays misses;
//! * MESI invalidation coherence over L2 lines, with cache-to-cache
//!   transfers at the paper's 750 ns versus 500 ns from memory.
//!
//! Every L2 miss is classified as **cold**, **capacity**, **conflict**,
//! **true sharing**, or **false sharing** ([`classify::MissClass`]) —
//! conflict vs. capacity by comparing against a same-capacity
//! fully-associative shadow cache, and true vs. false sharing by word-level
//! write tracking in the spirit of Dubois et al. (see [`classify`] for the
//! exact rule and its one documented approximation).
//!
//! The crate is deliberately independent of *why* addresses are what they
//! are: the compiler, workload models, and page-mapping policies live in
//! sibling crates, and the whole-machine run loop lives in `cdpc-machine`.
//!
//! # Example
//!
//! ```
//! use cdpc_memsim::{AccessKind, MemConfig, MemorySystem};
//! use cdpc_vm::addr::{PhysAddr, VirtAddr};
//!
//! let mut mem = MemorySystem::new(MemConfig::paper_base(2));
//! // CPU 0 reads a line: cold miss, serviced from memory.
//! let out = mem.access(0, 0, VirtAddr(0x1000), PhysAddr(0x1000), AccessKind::Read);
//! assert!(out.latency_cycles >= mem.config().mem_latency_cycles());
//! ```

pub mod bus;
pub mod cache;
pub mod classify;
pub mod config;
pub mod lru;
mod prefetch;
pub mod stats;
pub mod system;
pub mod tlb;
pub mod victim;

pub use classify::MissClass;
pub use config::{CacheConfig, MemConfig};
pub use stats::{CpuStats, MemStats};
pub use system::{
    AccessKind, AccessOutcome, CpuId, MemorySystem, PrefetchOutcome, ServicedBy, MAX_CPUS,
};
