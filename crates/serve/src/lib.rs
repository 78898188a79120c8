//! # cfd-serve — the design-space-exploration sweep library
//!
//! The paper's design-space questions — how deep the BQ, VQ and TQ must
//! be, and how the core's widths and L1 interact with them — are answered
//! by one in-process sweep behind `experiments dse`. This crate holds it:
//!
//! * [`sweep`] — **declarative sweeps**: a config grid (predictor ×
//!   BQ/VQ/TQ × widths × L1) expanded deterministically into
//!   fingerprinted `SimJob`s;
//! * [`pareto`] + [`dse`] — **evaluation**: per-point IPC/MPKI/EDP on a
//!   `cfd-exec` engine and a non-dominated frontier decided at table
//!   precision, rendered byte-stably;
//! * [`logcheck`] — the schema gate for the engine's JSONL event log,
//!   behind `experiments logcheck`.
//!
//! Everything is dependency-free `std`, like the rest of the repo.

pub mod dse;
pub mod logcheck;
pub mod pareto;
pub mod sweep;

pub use dse::run_sweep;
pub use logcheck::check_log;
pub use pareto::{frontier, render_report, DseRow};
pub use sweep::{DsePoint, SweepConfig, DSE_CYCLE_LIMIT};
