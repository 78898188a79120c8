//! # cfd-exec — deterministic parallel campaign execution
//!
//! Every driver in this repo — the figure experiments, the lint sweep,
//! the fault-injection campaigns — has the same shape: enumerate a few
//! dozen to a few hundred independent simulations, run them, and fold the
//! results into a report whose bytes must be reproducible. This crate
//! factors that shape out into one engine with three guarantees:
//!
//! 1. **Determinism** — [`Engine::run_all`] returns results in submission
//!    order, filled purely by input index. A sweep at `--jobs 4` emits
//!    byte-identical reports to the same sweep at `--jobs 1` (locked by
//!    tests in this crate and in the drivers).
//! 2. **Content-addressed caching** — each job carries a 128-bit
//!    [`Fingerprint`] over everything its execution reads (program bytes,
//!    memory image, core configuration, limits). Results are cached at
//!    `target/cfd-cache/<fingerprint>.json`; re-running a sweep only
//!    simulates jobs whose inputs changed, and any input change changes
//!    the fingerprint, so the cache needs no manual invalidation. All
//!    cached values are exact integer counters, so warm-cache reports are
//!    byte-identical to cold ones.
//! 3. **Isolation** — a job that panics becomes a failed row
//!    ([`JobError::Panicked`]), not a dead campaign, and is never cached.
//!
//! Work is described by the [`CampaignJob`] trait; this crate ships the
//! common jobs ([`SimJob`], [`FuncJob`], [`ProfileJob`]) and the driver
//! crates define their own (lint rows in `cfd-bench`, fault trials in
//! `cfd-harden`). Worker count comes from `--jobs N` / `CFD_JOBS` via
//! [`ExecConfig::from_env`]; `--no-cache` / [`ExecConfig::use_cache`]
//! bypasses the cache, and [`Engine::stats_line`] reports
//! submitted/hit/executed/failed/deduped counts for the driver to print.
//!
//! Everything here is dependency-free `std` (threads, `Mutex`/`Condvar`,
//! plain files): the repo builds offline by design.

mod cache;
pub mod chaos;
mod engine;
mod fingerprint;
pub mod journal;
pub mod json;
pub mod policy;
mod pool;
mod sim;

pub use cache::{CacheEntryInfo, CacheError, CacheLoad, DiskCache, CACHE_VERSION};
pub use chaos::{InjectedIoFault, IoFaultKind, IoFaultShim};
pub use engine::{CampaignJob, Engine, ExecConfig, ExecStats, JobError};
pub use fingerprint::{campaign_fingerprint, Fingerprint, Hasher};
pub use journal::{Journal, JournalRecord, Replay};
pub use json::Json;
pub use policy::RetryPolicy;
pub use pool::{run_indexed, BoundedQueue};
pub use sim::{fault_kind_by_name, run_report_from_json, run_report_to_json, FuncJob, ProfileJob, SimJob};

// The cancellation token jobs thread into the sim loop, re-exported so
// drivers can build budgets without depending on cfd-core directly.
pub use cfd_core::CancelToken;
