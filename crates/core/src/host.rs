//! The kernel/host boundary: every doorway from the pure execution kernel
//! to the outside world.
//!
//! The pipeline stages ([`frontend`](crate::frontend),
//! [`dispatch`](crate::dispatch), [`scheduler`](crate::scheduler),
//! [`lsq`](crate::lsq), [`commit`](crate::commit)) never touch the cache
//! hierarchy, cfd-obs telemetry, fault injection, or cancellation tokens
//! directly. Each capability sits behind a *port* struct —
//! [`MemoryPort`], [`TelemetryPort`], [`FaultPort`], [`ControlPort`] —
//! whose fields are private to this module, so the only operations a
//! stage can perform are the port's `pub(crate)` methods. That makes the
//! kernel's external surface auditable by reading this one file, and it
//! is what lets the kernel be checkpointed, resumed, and re-hosted
//! (sampled simulation) without touching stage code.
//!
//! Every port has a **null state** (telemetry unarmed, no fault armed, no
//! cancel token) whose methods reduce to an `Option` check — the
//! same cost the pre-refactor field tests paid, so a run with null hosts
//! is as fast as the old direct-field code. `scripts/verify.sh` holds this
//! to a hard simperf KIPS floor.

use crate::core::{CancelToken, CoreError};
use crate::fault::{FaultKind, FaultSite, FaultSpec, FaultState, InjectionRecord};
use cfd_mem::{AccessResult, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig};
use cfd_obs::{ArgValue, MetricsRegistry, TelemetryConfig, TelemetryReport, TimeSeries, TraceLog};

// ----------------------------------------------------------------------
// Memory
// ----------------------------------------------------------------------

/// The kernel's only route to the memory system: a three-level data
/// hierarchy plus L1I tags.
///
/// Simulated data and instruction accesses, end-of-run drain, and the
/// read-only statistics views the report builder needs.
#[derive(Debug, Clone)]
pub(crate) struct MemoryPort {
    hier: Hierarchy,
    /// L1 instruction cache (tags only; instruction "addresses" are
    /// `pc * 4`).
    icache: Cache,
}

impl MemoryPort {
    pub(crate) fn new(cfg: HierarchyConfig) -> MemoryPort {
        MemoryPort {
            hier: Hierarchy::new(cfg),
            icache: Cache::new(CacheConfig { size_bytes: 32 * 1024, ways: 8, block_bits: 6 }),
        }
    }

    /// Data-side access (loads, prefetches, retiring stores) at `addr`,
    /// attributed to the instruction at byte-PC `pc`.
    #[inline]
    pub(crate) fn data_access(&mut self, pc: u64, addr: u64, write: bool, now: u64) -> AccessResult {
        self.hier.access(pc, addr, write, now)
    }

    /// Instruction-side probe at byte-PC `pc`: true on an L1I hit. A miss
    /// fills the line (the bubble cost is the caller's to model).
    #[inline]
    pub(crate) fn fetch_probe(&mut self, pc: u64) -> bool {
        if self.icache.access(pc, false) {
            true
        } else {
            self.icache.fill(pc, false);
            false
        }
    }

    /// Drains in-flight miss state up to `now` (end of run).
    pub(crate) fn advance(&mut self, now: u64) {
        self.hier.advance(now);
    }

    /// Per-level (L1D, L2, L3) access/hit counters.
    pub(crate) fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        self.hier.cache_stats()
    }

    /// MSHR occupancy histogram (index = occupancy at allocation time).
    pub(crate) fn mshr_histogram(&self) -> &[u64] {
        self.hier.mshr_histogram()
    }

    /// Demand accesses that reached each level (L1, L2, L3, DRAM).
    pub(crate) fn level_counts(&self) -> [u64; 4] {
        self.hier.level_counts
    }
}

// ----------------------------------------------------------------------
// Telemetry
// ----------------------------------------------------------------------

/// Time-series schema: cumulative counters sampled every N cycles.
/// `cycle` stamps the row; everything else is cumulative-so-far, so rates
/// (IPC, miss ratios, predictor accuracy) are derived by differencing
/// adjacent rows.
pub(crate) const SERIES_COLUMNS: [&str; 27] = [
    "cycle",
    "retired",
    "fetched",
    "mispredictions",
    "retired_branches",
    "rob",
    "iq",
    "lsq",
    "front_q",
    "bq",
    "vq",
    "tq",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "l3_accesses",
    "l3_hits",
    "cpi_base",
    "cpi_frontend",
    "cpi_mispredict",
    "cpi_cfd_stall",
    "cpi_mem_l1",
    "cpi_mem_l2",
    "cpi_mem_l3",
    "cpi_mem_dram",
    "cpi_backend",
];

/// Live telemetry attached to a run via
/// [`Core::with_telemetry`](crate::Core::with_telemetry).
#[derive(Debug, Clone)]
struct TelemetryState {
    cfg: TelemetryConfig,
    registry: MetricsRegistry,
    series: TimeSeries,
    trace: TraceLog,
    /// Next cycle stamp at which to push a series row.
    next_sample: u64,
}

impl TelemetryState {
    fn new(cfg: TelemetryConfig) -> TelemetryState {
        TelemetryState {
            registry: MetricsRegistry::enabled(),
            series: TimeSeries::new(cfg.sample_interval, SERIES_COLUMNS.to_vec()),
            trace: if cfg.trace { TraceLog::enabled() } else { TraceLog::disabled() },
            next_sample: if cfg.sample_interval > 0 { cfg.sample_interval } else { u64::MAX },
            cfg,
        }
    }
}

/// The kernel's only route to cfd-obs: metrics, interval time-series
/// sampling, and the pipeline event trace. Null until armed.
///
/// Telemetry only observes microarchitectural state — no method feeds back
/// into simulated timing, so every report field outside
/// [`RunReport::telemetry`](crate::RunReport::telemetry) is byte-identical
/// whether or not the port is armed.
#[derive(Debug, Clone, Default)]
pub(crate) struct TelemetryPort {
    state: Option<Box<TelemetryState>>,
}

impl TelemetryPort {
    pub(crate) fn unarmed() -> TelemetryPort {
        TelemetryPort::default()
    }

    pub(crate) fn armed_with(cfg: TelemetryConfig) -> TelemetryPort {
        TelemetryPort { state: Some(Box::new(TelemetryState::new(cfg))) }
    }

    /// Whether telemetry is armed at all (the null port answers false).
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.state.is_some()
    }

    /// Adds `n` to a named monotonic counter.
    pub(crate) fn counter_add(&mut self, name: &'static str, n: u64) {
        if let Some(t) = &mut self.state {
            t.registry.counter_add(name, n);
        }
    }

    /// Sets a named gauge (its high-water mark is tracked).
    pub(crate) fn gauge_set(&mut self, name: &'static str, v: u64) {
        if let Some(t) = &mut self.state {
            t.registry.gauge_set(name, v);
        }
    }

    /// Records one observation into a named histogram.
    pub(crate) fn histogram_record(&mut self, name: &'static str, v: u64) {
        if let Some(t) = &mut self.state {
            t.registry.histogram_record(name, v);
        }
    }

    /// Emits an instant event into the pipeline trace.
    pub(crate) fn trace_instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(t) = &mut self.state {
            t.trace.instant(name, cat, ts, 0, 0, args);
        }
    }

    /// Emits a counter sample into the pipeline trace.
    pub(crate) fn trace_counter(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(t) = &mut self.state {
            t.trace.counter(name, cat, ts, 0, args);
        }
    }

    /// Whether the event trace is collecting (cheaper than building args).
    pub(crate) fn trace_enabled(&self) -> bool {
        self.state.as_ref().is_some_and(|t| t.trace.is_enabled())
    }

    /// Whether a time-series row is due at `cycle` (or `force`d).
    #[inline]
    pub(crate) fn sample_due(&self, cycle: u64, force: bool) -> bool {
        match &self.state {
            Some(t) => t.cfg.sample_interval > 0 && (force || cycle >= t.next_sample),
            None => false,
        }
    }

    /// Pushes one time-series row stamped `cycle` and advances the
    /// sampling clock past it.
    pub(crate) fn record_sample(&mut self, cycle: u64, row: Vec<u64>) {
        let Some(t) = &mut self.state else { return };
        t.series.push_row(row);
        let step = t.cfg.sample_interval.max(1);
        while t.next_sample <= cycle {
            t.next_sample += step;
        }
    }

    /// Whether the end-of-run row at `cycle` still needs to be pushed.
    pub(crate) fn needs_final_sample(&self, cycle: u64) -> bool {
        match &self.state {
            Some(t) => t.cfg.sample_interval > 0 && t.series.rows.last().is_none_or(|r| r[0] != cycle),
            None => false,
        }
    }

    /// Detaches the collected artifacts (report finalization); the port
    /// reverts to null.
    pub(crate) fn take_report(&mut self) -> Option<TelemetryReport> {
        self.state.take().map(|t| TelemetryReport { registry: t.registry, series: t.series, trace: t.trace })
    }
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

/// The kernel's only route to the deterministic fault injector
/// (see [`crate::fault`]); null until armed.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultPort {
    state: Option<FaultState>,
}

impl FaultPort {
    pub(crate) fn unarmed() -> FaultPort {
        FaultPort::default()
    }

    pub(crate) fn armed_with(spec: FaultSpec) -> FaultPort {
        FaultPort { state: Some(FaultState::new(spec)) }
    }

    /// Visits an injection site on cycle `now`; returns the armed fault's
    /// kind exactly once, at its `nth` visit.
    #[inline]
    pub(crate) fn visit(&mut self, site: FaultSite, now: u64) -> Option<FaultKind> {
        self.state.as_mut()?.visit(site, now)
    }

    /// Whether the armed fault has fired by now (recovery attribution).
    pub(crate) fn has_fired(&self) -> bool {
        self.state.as_ref().is_some_and(|f| f.fired().is_some())
    }

    /// The injection record, once fired.
    pub(crate) fn fired_record(&self) -> Option<InjectionRecord> {
        self.state.as_ref().and_then(|f| f.fired().cloned())
    }

    /// Whether a fault is armed at all (the null port answers false).
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.state.is_some()
    }
}

// ----------------------------------------------------------------------
// Control
// ----------------------------------------------------------------------

/// The kernel's only route to its supervisor: the per-cycle progress
/// heartbeat and cooperative cancellation. Null (free) until a token is
/// engaged.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlPort {
    token: Option<CancelToken>,
}

impl ControlPort {
    pub(crate) fn disengaged() -> ControlPort {
        ControlPort::default()
    }

    pub(crate) fn engaged(token: CancelToken) -> ControlPort {
        ControlPort { token: Some(token) }
    }

    /// Called once per cycle before the stages run: publishes `cycle` as
    /// the progress heartbeat, then trips [`CoreError::Cancelled`] when
    /// the cycle budget is exhausted or an external cancel was requested.
    #[inline]
    pub(crate) fn poll(&mut self, cycle: u64) -> Result<(), CoreError> {
        let Some(tok) = &self.token else { return Ok(()) };
        // Publish progress before checking: a supervisor that sees a stale
        // heartbeat knows the loop itself stopped turning.
        tok.note(cycle);
        if let Some(b) = tok.budget() {
            if cycle >= b {
                return Err(CoreError::Cancelled { cycle, budget: Some(b) });
            }
        }
        if tok.is_cancelled() {
            return Err(CoreError::Cancelled { cycle, budget: None });
        }
        Ok(())
    }
}
