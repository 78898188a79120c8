//! # cfd-core — the cycle-level out-of-order core with Control-Flow Decoupling
//!
//! This crate is the paper's evaluation substrate *and* its primary
//! microarchitectural contribution in one place:
//!
//! * a Sandy-Bridge-class out-of-order pipeline ([`Core`], [`CoreConfig`]):
//!   4-wide fetch/rename/retire, 168-entry ROB, checkpointed misprediction
//!   recovery (confidence-guided, OoO reclamation), ISL-TAGE-lite front
//!   end, three-level cache hierarchy with MSHRs;
//! * the **CFD microarchitecture**: the Branch Queue and Trip-count Queue
//!   live in the fetch unit and resolve `Branch_on_BQ`/`Branch_on_TCR`
//!   non-speculatively at fetch; BQ misses speculate (verified by the late
//!   push, §III-C) or stall; `Mark`/`Forward` bulk-pops; the VQ renamer
//!   maps the architectural Value Queue onto the physical register file
//!   (§IV-B);
//! * instrumentation for every figure in the paper: per-branch MPKI,
//!   misprediction breakdown by feeding memory level (dataflow taint),
//!   MSHR occupancy histograms, wrong-path activity and an energy event
//!   stream ([`RunReport`]).
//!
//! # Example
//!
//! ```
//! use cfd_core::{Core, CoreConfig};
//! use cfd_isa::{Assembler, MemImage, Reg};
//!
//! // A loop with a data-dependent branch.
//! let (i, n, p, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
//! let mut a = Assembler::new();
//! a.li(n, 200);
//! a.label("top");
//! a.xor(p, i, 5i64);
//! a.and(p, p, 1i64);
//! a.beqz(p, "skip");
//! a.addi(acc, acc, 1);
//! a.label("skip");
//! a.addi(i, i, 1);
//! a.blt(i, n, "top");
//! a.halt();
//!
//! let report = Core::new(CoreConfig::default(), a.finish()?, MemImage::new())?
//!     .run(1_000_000)?;
//! assert!(report.stats.retired > 1000);
//! assert!(report.ipc() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cfd_queues;
mod checkpoint;
mod commit;
mod config;
#[allow(clippy::module_inception)]
mod core;
mod dispatch;
pub mod fault;
mod frontend;
mod host;
mod kernel;
mod lsq;
mod pipeline;
mod rename;
mod sampled;
mod scheduler;
mod seq_list;
#[cfg(feature = "stage-profile")]
pub mod stage_profile;
mod stats;
mod trace;
mod window;

pub use crate::core::{CancelToken, Core, CoreError};
pub use cfd_queues::{BqSnapshot, FetchBq, FetchTq, SpecPop, TqSnapshot};
pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use config::{BqMissPolicy, CheckpointPolicy, CoreConfig, PerfectMode};
pub use fault::{FailureReport, FaultKind, FaultSite, FaultSpec, InjectionRecord};
pub use kernel::{KernelEvent, YieldPolicy};
pub use rename::{join_taint, PhysReg, RenameState, Taint, VqRenamer, VqSnapshot};
pub use sampled::{run_sampled, SampleConfig, SampledReport};
#[cfg(feature = "stage-profile")]
pub use stage_profile::{Stage, StageProfile, STAGE_COUNT, STAGE_NAMES};
pub use stats::{level_index, BranchStat, CoreStats, RunReport};
pub use trace::{CycleSnap, PipeEvent, PipeTrace, SnapRing};

// Observability vocabulary, re-exported so downstream crates can arm
// telemetry and read CPI stacks without depending on cfd-obs directly.
pub use cfd_obs::{CpiComponent, CpiStack, TelemetryConfig, TelemetryReport, CPI_COMPONENTS};
