//! Compiler-directed page coloring (CDPC) — the core algorithm of the
//! ASPLOS '96 paper.
//!
//! CDPC reduces external-cache conflict misses in compiler-parallelized
//! programs by letting the compiler direct the operating system's page
//! mapping. The compiler summarizes each array's access pattern (who
//! touches what, and with whom); at start-up, a run-time library combines
//! those summaries with machine parameters (processor count, cache and page
//! geometry) and produces a **preferred color for every virtual page**,
//! passed to the OS as a hint.
//!
//! The hint-generation algorithm (paper §5.2) has five steps, implemented
//! by this crate:
//!
//! 1. **Create the uniform access segments** — split the address space at
//!    array boundaries and wherever the set of accessing processors
//!    changes ([`segments`]).
//! 2. **Order the uniform access sets** — a greedy path heuristic over the
//!    graph whose nodes are processor-set-equivalence classes and whose
//!    edges connect intersecting processor sets ([`ordering`]).
//! 3. **Order the segments within each set** — a second greedy path walk,
//!    over the compiler's group-access graph ([`ordering`]).
//! 4. **Order the pages within a segment cyclically** — rotate each
//!    segment's pages so the starting locations of conflicting arrays land
//!    on different colors ([`cyclic`]).
//! 5. **Assign colors round-robin** over the resulting page order
//!    ([`hints`]).
//!
//! The two objectives (paper §5.2): map each processor's data as
//! contiguously in *physical* address space as possible — eliminating all
//! conflicts whenever one processor's data fits in the cache — and give
//! different colors to the starting locations of arrays used together.
//!
//! # Example
//!
//! ```
//! use cdpc_core::machine::MachineParams;
//! use cdpc_core::summary::{
//!     AccessSummary, ArrayId, ArrayInfo, ArrayPartitioning, GroupAccess,
//!     PartitionDirection, PartitionPolicy,
//! };
//! use cdpc_core::hints::generate_hints;
//! use cdpc_vm::addr::VirtAddr;
//!
//! // Two arrays of 8 pages each, block-partitioned across 2 CPUs and used
//! // in the same loops.
//! let page = 4096u64;
//! let a = ArrayId(0);
//! let b = ArrayId(1);
//! let summary = AccessSummary {
//!     arrays: vec![
//!         ArrayInfo::new(a, "A", VirtAddr(0), 8 * page),
//!         ArrayInfo::new(b, "B", VirtAddr(8 * page), 8 * page),
//!     ],
//!     partitionings: vec![
//!         ArrayPartitioning::new(a, page, 8, PartitionPolicy::Blocked, PartitionDirection::Forward),
//!         ArrayPartitioning::new(b, page, 8, PartitionPolicy::Blocked, PartitionDirection::Forward),
//!     ],
//!     communications: vec![],
//!     groups: vec![GroupAccess::new(vec![a, b])],
//!     shared_arrays: vec![],
//! };
//! let machine = MachineParams::new(2, 4096, 4 * 4096, 1); // 4 colors
//! let hints = generate_hints(&summary, &machine)?;
//! // Every page got a hint, and the two arrays' starting pages differ in
//! // color even though they are 8 pages (= 2 cache sizes) apart.
//! assert_eq!(hints.len(), 16);
//! let table = hints.to_hint_table();
//! assert_ne!(
//!     table.lookup(cdpc_vm::addr::Vpn(0)),
//!     table.lookup(cdpc_vm::addr::Vpn(8)),
//! );
//! # Ok::<(), cdpc_core::CdpcError>(())
//! ```

pub mod analysis;
pub mod cyclic;
pub mod fastmap;
pub mod fingerprint;
pub mod hints;
pub mod machine;
pub mod ordering;
pub mod procset;
pub mod segments;
pub mod summary;

mod error;

pub use error::CdpcError;
pub use fastmap::{DenseMap64, DenseSet64, FxBuildHasher};
pub use fingerprint::{Fingerprint, FpHasher};
pub use hints::{generate_hints, generate_hints_with, ColorHints, HintOptions};
pub use machine::MachineParams;
pub use procset::ProcSet;
