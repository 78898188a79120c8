//! Shared pipeline state and cross-stage plumbing.
//!
//! [`Pipeline`] owns every piece of simulated state — front end, rename,
//! ROB, scheduler wheels, hierarchy, statistics, telemetry — and each stage
//! module ([`frontend`](crate::frontend), [`dispatch`](crate::dispatch),
//! [`scheduler`](crate::scheduler), [`lsq`](crate::lsq),
//! [`commit`](crate::commit)) contributes an `impl Pipeline` block with its
//! stage function plus that stage's private helpers. `core.rs` wraps the
//! struct in the public [`Core`](crate::Core) API and owns only the
//! cycle-step conductor.
//!
//! What lives *here* is the state struct itself and everything more than
//! one stage touches: the PRF-write wakeup hook, fault-site visiting,
//! CPI-stack accounting and telemetry sampling, and the post-mortem
//! renderers. The in-flight instructions live in one ring,
//! [`Window`](crate::window::Window): the ROB and the front pipe are two
//! ranges of it, and an instruction's ROB ordinal is its position there.

use crate::cfd_queues::{FetchBq, FetchTq};
use crate::config::CoreConfig;
use crate::core::CoreError;
use crate::fault::{FaultKind, FaultSite};
use crate::host::{ControlPort, FaultPort, MemoryPort, TelemetryPort};
use crate::kernel::{KernelEvent, YieldPolicy};
use crate::rename::{PhysReg, RenameState, Taint, VqRenamer};
use crate::scheduler::{EventRing, ReadySet};
use crate::stats::CoreStats;
use crate::trace::{CycleSnap, PipeEvent, PipeTrace, SnapRing};
use crate::window::Window;
use cfd_energy::EventCounts;
use cfd_isa::{Instr, Machine, MemImage, MemWidth, Program, QueueConfig};
use cfd_mem::MemLevel;
use cfd_obs::CpiComponent;
use cfd_predictor::{predictor_by_name, Btb, ConfidenceEstimator, DirectionPredictor, Ras};
use std::collections::VecDeque;

/// All simulated state, shared by the stage modules.
///
/// `Clone` is the checkpoint mechanism (see [`crate::checkpoint`]): every
/// field is either simulated state that deep-copies, or a host port whose
/// clone semantics are documented on the port (the control port's
/// [`CancelToken`](crate::CancelToken) clone intentionally *shares* the
/// supervisor's token).
#[derive(Clone)]
pub(crate) struct Pipeline {
    pub(crate) cfg: CoreConfig,
    pub(crate) program: Program,
    /// Retire-side oracle; its memory is the committed data memory.
    pub(crate) oracle: Machine,
    /// Fetch-side oracle (perfect prediction + divergence detection).
    pub(crate) fetch_oracle: Machine,
    /// Sequence number of the instruction where fetch diverged.
    pub(crate) diverged_at: Option<u64>,
    // Front end.
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_resume_at: u64,
    pub(crate) fetch_halted: bool,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) predictor: Box<dyn DirectionPredictor>,
    pub(crate) confidence: ConfidenceEstimator,
    pub(crate) bq: FetchBq,
    pub(crate) tq: FetchTq,
    pub(crate) vq: VqRenamer,
    /// Every in-flight instruction, fetch to retirement: the ROB is
    /// `win.rob()`, the front pipe `win.front()`, and a position is the
    /// instruction's ROB ordinal (`rob_seq`).
    pub(crate) win: Window,
    // Back end.
    pub(crate) rename: RenameState,
    /// The scheduler's ready queue: a bitset over ROB slots holding the
    /// ordinals of dispatched instructions whose sources are all computed,
    /// scanned oldest-first from the ROB head. Entries are re-validated at
    /// issue; stale ordinals (re-blocked by a corrupted remap) are dropped
    /// or re-registered there, and recovery clears the squashed range.
    pub(crate) ready: ReadySet,
    /// Wakeup wheel: a cycle-indexed ring of ROB ordinals whose blocking
    /// source becomes ready that cycle. Drained into `ready` at the head of
    /// `issue`.
    pub(crate) wakeup_wheel: EventRing,
    /// Completion wheel: a cycle-indexed ring of ROB ordinals of issued
    /// instructions whose `ready_at` lands there. Replaces an every-cycle
    /// `exec_list` rescan.
    pub(crate) completion_wheel: EventRing,
    /// Scratch lists reused by every cycle's wakeup drain, issue select and
    /// completion drain (always empty between stages). Each starts with
    /// room for a full window's worth of ordinals, so a burst of events
    /// does not grow it mid-run.
    pub(crate) wake_batch: Vec<u64>,
    pub(crate) reregister: Vec<u64>,
    pub(crate) completions: Vec<u64>,
    /// Sequence numbers of in-flight stores, in age order.
    pub(crate) store_list: VecDeque<u64>,
    pub(crate) iq_count: usize,
    pub(crate) lsq_count: usize,
    pub(crate) checkpoints_free: usize,
    /// Memory host: the data hierarchy and L1I tags, behind
    /// [`MemoryPort`].
    pub(crate) mem: MemoryPort,
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    /// Event tracing enabled (CFD_TRACE env var, cached).
    pub(crate) trace: bool,
    pub(crate) halted: bool,
    pub(crate) stats: CoreStats,
    pub(crate) events: EventCounts,
    pub(crate) pipe_trace: Option<PipeTrace>,
    /// Fault host: the deterministic injector, behind [`FaultPort`]; null
    /// unless armed (see [`crate::fault`]).
    pub(crate) fault: FaultPort,
    /// Control host: progress heartbeat + cooperative cancellation, behind
    /// [`ControlPort`]; polled once per cycle by the step loop.
    pub(crate) control: ControlPort,
    /// Post-mortem snapshot ring (empty unless `post_mortem_depth > 0`).
    pub(crate) snap_ring: SnapRing,
    /// Why fetch most recently failed to supply instructions: CPI-stack
    /// attribution for empty-ROB cycles outside misprediction refill.
    pub(crate) front_block: CpiComponent,
    /// A recovery squashed the ROB and the corrected path has not reached
    /// dispatch yet: empty-ROB cycles are misprediction penalty.
    pub(crate) refill_after_recovery: bool,
    /// Telemetry host: registry/series/trace, behind [`TelemetryPort`];
    /// null unless armed.
    pub(crate) telem: TelemetryPort,
    // Host-side scheduler-efficiency counters (never affect simulation).
    /// Ready-queue entries examined by `issue` across the run.
    pub(crate) sched_ready_checks: u64,
    /// Wakeup-wheel events processed across the run.
    pub(crate) sched_wakeup_events: u64,
    /// IQ entries a per-cycle polling scheduler would have scanned
    /// (`iq_count` summed over cycles): the baseline the event-driven
    /// counters are compared against.
    pub(crate) sched_poll_equiv: u64,
    // Kernel stepping state (see [`crate::kernel`]). Lives on the pipeline
    // rather than in a loop frame so a run is resumable mid-flight.
    /// Which [`KernelEvent`]s the step loop yields (default: none).
    pub(crate) yield_policy: YieldPolicy,
    /// Events produced but not yet yielded to the driver.
    pub(crate) pending_events: VecDeque<KernelEvent>,
    /// Instructions retired since the last `RetireBatch` yield.
    pub(crate) retire_acc: u64,
    /// Retirement-watchdog state: cycle and count of the last observed
    /// forward progress.
    pub(crate) last_retired: (u64, u64),
}

impl Pipeline {
    pub(crate) fn new(cfg: CoreConfig, program: Program, mem: MemImage) -> Result<Pipeline, CoreError> {
        if cfg.bq_size == 0 || cfg.vq_size == 0 || cfg.tq_size == 0 {
            return Err(CoreError::Config("queue sizes must be non-zero".into()));
        }
        let qc = QueueConfig {
            bq_size: cfg.bq_size,
            vq_size: cfg.vq_size,
            tq_size: cfg.tq_size,
            tq_trip_bits: cfg.tq_trip_bits,
        };
        let oracle = Machine::with_queues(program.clone(), mem, qc);
        let fetch_oracle = oracle.clone();
        let predictor = predictor_by_name(&cfg.predictor)
            .ok_or_else(|| CoreError::Config(format!("unknown predictor `{}`", cfg.predictor)))?;
        let window = (cfg.rob_size + cfg.front_cap()).next_power_of_two();
        Ok(Pipeline {
            program,
            oracle,
            fetch_oracle,
            diverged_at: None,
            fetch_pc: 0,
            fetch_resume_at: 0,
            fetch_halted: false,
            btb: Btb::new(10, 4),
            ras: Ras::new(16),
            predictor,
            confidence: ConfidenceEstimator::new(12, 15),
            bq: FetchBq::new(cfg.bq_size),
            tq: FetchTq::new(cfg.tq_size, cfg.tq_trip_bits),
            vq: VqRenamer::new(cfg.vq_size),
            win: Window::new(window),
            rename: RenameState::new(cfg.prf_size),
            ready: ReadySet::new(cfg.rob_size),
            wakeup_wheel: EventRing::new(),
            completion_wheel: EventRing::new(),
            wake_batch: Vec::with_capacity(window),
            reregister: Vec::with_capacity(window),
            completions: Vec::with_capacity(window),
            store_list: VecDeque::new(),
            iq_count: 0,
            lsq_count: 0,
            checkpoints_free: cfg.n_checkpoints,
            mem: MemoryPort::new(cfg.hierarchy.clone()),
            now: 0,
            next_seq: 0,
            trace: std::env::var_os("CFD_TRACE").is_some(),
            halted: false,
            stats: CoreStats::default(),
            events: EventCounts::default(),
            pipe_trace: None,
            fault: FaultPort::unarmed(),
            control: ControlPort::disengaged(),
            snap_ring: SnapRing::new(cfg.post_mortem_depth),
            front_block: CpiComponent::Frontend,
            refill_after_recovery: false,
            telem: TelemetryPort::unarmed(),
            sched_ready_checks: 0,
            sched_wakeup_events: 0,
            sched_poll_equiv: 0,
            yield_policy: YieldPolicy::default(),
            pending_events: VecDeque::new(),
            retire_acc: 0,
            last_retired: (0, 0),
            cfg,
        })
    }

    // ------------------------------------------------------------------
    // CPI-stack accounting + telemetry sampling
    // ------------------------------------------------------------------

    /// Attributes this cycle's `width` retire slots: one Base slot per
    /// instruction retired this cycle, all remaining slots to the single
    /// blocking cause [`Pipeline::idle_cause`] identifies. Runs at the end
    /// of every counted cycle (the halting cycle is neither counted in
    /// `cycles` nor accounted here), so the components sum to exactly
    /// `cycles × width`.
    pub(crate) fn account_cycle(&mut self, retired_before: u64) {
        let width = self.cfg.width as u64;
        let r = (self.stats.retired - retired_before).min(width);
        self.stats.cpi_slots[CpiComponent::Base.index()] += r;
        let idle = width - r;
        if idle > 0 {
            let cause = self.idle_cause();
            self.stats.cpi_slots[cause.index()] += idle;
        }
        if self.telem.armed() {
            self.sample_telemetry(self.now + 1, false);
        }
    }

    /// The single component charged for this cycle's idle retire slots,
    /// classified from the end-of-cycle ROB head (or its absence).
    fn idle_cause(&self) -> CpiComponent {
        if let Some(pos) = self.win.rob_head() {
            let head = &self.win[pos];
            // A resolved speculative BQ pop waiting for its late push.
            if head.done && !head.verified {
                return CpiComponent::CfdStall;
            }
            // A load in (or just out of) flight: charge the furthest
            // memory level feeding it.
            if matches!(head.instr, Instr::Load { .. }) && head.issued {
                match head.taint {
                    Some(MemLevel::L1) => return CpiComponent::MemL1,
                    Some(MemLevel::L2) => return CpiComponent::MemL2,
                    Some(MemLevel::L3) => return CpiComponent::MemL3,
                    Some(MemLevel::Mem) => return CpiComponent::MemDram,
                    None => {}
                }
            }
            CpiComponent::Backend
        } else if self.refill_after_recovery {
            CpiComponent::Mispredict
        } else {
            // Pipeline fill: whatever last blocked fetch (a CFD queue
            // stall or a plain front-end bubble).
            self.front_block
        }
    }

    /// Pushes one time-series row stamped `cycle` when due (or `force`d).
    pub(crate) fn sample_telemetry(&mut self, cycle: u64, force: bool) {
        if !self.telem.sample_due(cycle, force) {
            return;
        }
        let (l1, l2, l3) = self.mem.cache_stats();
        let bq = self.bq.length();
        let vq = self.vq.length();
        let tq = self.tq.length();
        let rob = self.win.rob_len() as u64;
        let mut row = vec![
            cycle,
            self.stats.retired,
            self.stats.fetched,
            self.stats.mispredictions,
            self.stats.retired_branches,
            rob,
            self.iq_count as u64,
            self.lsq_count as u64,
            self.win.front_len() as u64,
            bq,
            vq,
            tq,
            l1.accesses,
            l1.hits,
            l2.accesses,
            l2.hits,
            l3.accesses,
            l3.hits,
        ];
        row.extend_from_slice(&self.stats.cpi_slots);
        self.telem.record_sample(cycle, row);
        if self.telem.trace_enabled() {
            self.telem.trace_counter(
                "occupancy",
                "pipe",
                cycle,
                vec![("bq", bq.into()), ("vq", vq.into()), ("tq", tq.into()), ("rob", rob.into())],
            );
        }
    }

    /// Final series row at end of run, skipped if sampling already landed
    /// exactly there.
    pub(crate) fn final_sample(&mut self) {
        if self.telem.needs_final_sample(self.now) {
            self.sample_telemetry(self.now, true);
        }
    }

    // ------------------------------------------------------------------
    // Shared plumbing
    // ------------------------------------------------------------------

    /// One post-mortem ring entry for the current cycle.
    pub(crate) fn cycle_snap(&self) -> CycleSnap {
        CycleSnap {
            cycle: self.now,
            fetch_pc: self.fetch_pc,
            retired: self.stats.retired,
            rob: self.win.rob_len(),
            iq: self.iq_count,
            lsq: self.lsq_count,
            front_q: self.win.front_len(),
            bq_len: self.bq.length(),
            tq_len: self.tq.length(),
            tcr: self.tq.tcr,
            free_regs: self.rename.free_regs(),
            ckpt_free: self.checkpoints_free,
        }
    }

    /// Visits a fault-injection site: returns the armed fault's kind when
    /// it fires at this visit (see [`crate::fault`]).
    pub(crate) fn fault_at(&mut self, site: FaultSite) -> Option<FaultKind> {
        if !self.fault.armed() {
            return None;
        }
        let fired = self.fault.visit(site, self.now);
        if let Some(kind) = fired {
            self.stats.faults_injected += 1;
            if self.telem.armed() {
                self.telem.trace_instant(
                    "fault",
                    "fault",
                    self.now,
                    vec![("site", format!("{site:?}").into()), ("kind", format!("{kind:?}").into())],
                );
            }
            if self.yield_policy.on_fault {
                if let Some(record) = self.fault.fired_record() {
                    self.pending_events.push_back(KernelEvent::FaultDetected { record });
                }
            }
        }
        fired
    }

    /// Whether the armed fault has fired by now (recovery attribution).
    pub(crate) fn fault_has_fired(&self) -> bool {
        self.fault.has_fired()
    }

    /// Branch PC as presented to predictor structures: instruction indices
    /// are word-granular, but the predictor/confidence hash functions expect
    /// byte-granular PCs (`pc >> 2` etc.), so scale by 4 to avoid aliasing
    /// adjacent branches.
    #[inline]
    pub(crate) fn bpc(pc: u32) -> u64 {
        (pc as u64) << 2
    }

    /// Writes a physical register and moves its waiters to the wakeup
    /// wheel at the value's ready cycle. Every producer-side PRF write goes
    /// through here so no registered consumer can miss its wakeup.
    pub(crate) fn prf_write(&mut self, p: PhysReg, value: i64, ready_at: u64, taint: Taint) {
        self.rename.write(p, value, ready_at, taint);
        if self.rename.has_waiters(p) {
            self.wakeup_wheel.extend(ready_at, self.rename.drain_waiters(p));
        }
    }

    /// Records the finished (retired or squashed) instruction at window
    /// position `pos` into the trace.
    pub(crate) fn trace_record(&mut self, pos: u64, retired: Option<u64>) {
        if let Some(t) = &mut self.pipe_trace {
            let e = &self.win[pos];
            if t.accepting() && e.seq < u64::MAX {
                t.record(PipeEvent {
                    seq: e.seq,
                    pc: e.pc,
                    disasm: e.instr.to_string(),
                    fetch: e.t_fetch,
                    dispatch: e.dispatched.then_some(e.t_dispatch),
                    issue: e.issued.then_some(e.t_issue),
                    complete: e.done.then_some(e.t_complete),
                    retire: retired,
                    squashed: retired.is_none(),
                });
            }
        }
    }

    /// One-line pipeline state summary for deadlock diagnostics.
    pub(crate) fn dump_state(&self) -> String {
        let head = self.win.rob_head().map(|pos| {
            let e = &self.win[pos];
            format!(
                "head seq={} pc={} `{}` disp={} issued={} done={} verified={} spec_pop={} bq_abs={:?}",
                e.seq, e.pc, e.instr, e.dispatched, e.issued, e.done, e.verified, e.spec_pop, e.bq_abs
            )
        });
        format!(
            "rob={} iq={} lsq={} front_q={} fetch_pc={} fetch_halted={} resume_at={} diverged={:?} bq[h={} t={} net={} pend={}] tq[h={} t={} tcr={}] vq[h={} t={}] free_regs={} | {:?}",
            self.win.rob_len(),
            self.iq_count,
            self.lsq_count,
            self.win.front_len(),
            self.fetch_pc,
            self.fetch_halted,
            self.fetch_resume_at,
            self.diverged_at,
            self.bq.head,
            self.bq.tail,
            self.bq.net_push_ctr,
            self.bq.pending_push_ctr,
            self.tq.head,
            self.tq.tail,
            self.tq.tcr,
            self.vq.head,
            self.vq.tail,
            self.rename.free_regs(),
            head
        ) + &format!(
            " | front_head: {:?} vq_net={} vq_pend={} bq_len={} ckpt_free={}",
            self.win.front_head().map(|pos| {
                let e = &self.win[pos];
                format!("seq={} pc={} `{}` disp_at={}", e.seq, e.pc, e.instr, e.dispatch_at)
            }),
            self.vq.net_ctr,
            self.vq.pending_ctr,
            self.bq.length(),
            self.checkpoints_free
        )
    }
}

/// Inverse of [`level_index`](crate::stats::level_index): reconstructs a
/// taint from its code.
pub(crate) fn taint_from_index(code: u8) -> Taint {
    match code {
        1 => Some(MemLevel::L1),
        2 => Some(MemLevel::L2),
        3 => Some(MemLevel::L3),
        4 => Some(MemLevel::Mem),
        _ => None,
    }
}

/// Narrows a stored 64-bit value to `width` with sign/zero extension.
pub(crate) fn extract(stored: i64, width: MemWidth, signed: bool) -> i64 {
    let n = width.bytes() as u32;
    if n == 8 {
        return stored;
    }
    let shift = 64 - 8 * n;
    if signed {
        (stored << shift) >> shift
    } else {
        ((stored as u64) << shift >> shift) as i64
    }
}
