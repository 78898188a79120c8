//! The yield-based stepping kernel: one step loop for every entry point.
//!
//! Historically `run`, `run_diag` and `run_profiled` each owned a copy of
//! the per-cycle loop body, and the cfd-exec engine could only consume a
//! whole run at once. This module inverts the control: the kernel advances
//! cycle by cycle ([`Pipeline::step_cycle`]) and *yields* structured
//! [`KernelEvent`]s ([`Pipeline::pump`]) whenever the armed
//! [`YieldPolicy`] says something interesting happened. All public entry
//! points — [`Core::run`](crate::Core::run),
//! [`Core::run_diag`](crate::Core::run_diag),
//! [`Core::run_profiled`](crate::Core::run_profiled), the engine's
//! cancellable jobs, checkpointed stepping and sampled simulation — drive
//! this one loop, so the per-cycle guard logic ([`Pipeline::cycle_gate`])
//! exists in exactly one place.
//!
//! The default policy yields nothing until [`KernelEvent::Halted`]: the
//! event plumbing then costs two branch tests per cycle, which is what
//! keeps the plain-`run` KIPS floor intact (`scripts/verify.sh` gates on
//! it).
//!
//! Stage wall-time attribution is a compile-time choice through
//! [`StageClock`]: the null clock inlines to nothing; the profiling clock
//! (`stage-profile` feature) reads one `Instant` per stage group exactly
//! as the old dedicated profiled loop did.

use crate::core::{Core, CoreError};
use crate::fault::InjectionRecord;
use crate::pipeline::Pipeline;

/// A structured event yielded by the kernel's step loop.
///
/// Events are *observations*, not control transfers: the kernel's state is
/// whatever the last step left it as, and the caller resumes it by pumping
/// again. `Halted` is terminal — pumping after it returns it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// At least [`YieldPolicy::retire_batch`] instructions retired since
    /// the previous `RetireBatch` yield.
    RetireBatch {
        /// Cycle after which the batch threshold was crossed.
        cycle: u64,
        /// Total instructions retired so far.
        retired: u64,
    },
    /// A misprediction recovery squashed the pipeline.
    Recovery {
        /// Cycle the recovery ran.
        cycle: u64,
        /// PC of the recovering instruction.
        pc: u32,
        /// Fetch sequence number of the recovering instruction.
        seq: u64,
        /// Corrected fetch target.
        target: u32,
        /// Instructions squashed (ROB + front pipe).
        squashed: u64,
    },
    /// The armed fault injection fired.
    FaultDetected {
        /// Proof of injection: kind, cycle, and site.
        record: InjectionRecord,
    },
    /// [`YieldPolicy::heartbeat_interval`] cycles elapsed.
    Heartbeat {
        /// Current cycle.
        cycle: u64,
        /// Total instructions retired so far.
        retired: u64,
    },
    /// `Halt` retired: the run is architecturally complete. Terminal.
    Halted {
        /// Final cycle count (the halting cycle is not counted).
        cycle: u64,
        /// Total instructions retired.
        retired: u64,
    },
}

/// What the kernel yields besides the terminal [`KernelEvent::Halted`].
///
/// The default is everything off: the pump then runs straight to halt and
/// the per-cycle event overhead is two always-false branch tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct YieldPolicy {
    /// Yield [`KernelEvent::RetireBatch`] each time this many instructions
    /// have retired since the last batch yield (0 = off).
    pub retire_batch: u64,
    /// Yield [`KernelEvent::Recovery`] on every misprediction recovery.
    pub on_recovery: bool,
    /// Yield [`KernelEvent::FaultDetected`] when the armed fault fires.
    pub on_fault: bool,
    /// Yield [`KernelEvent::Heartbeat`] every this many cycles (0 = off).
    pub heartbeat_interval: u64,
}

impl YieldPolicy {
    /// The silent policy: only [`KernelEvent::Halted`] is ever yielded.
    pub fn silent() -> YieldPolicy {
        YieldPolicy::default()
    }
}

// Stage indices for [`StageClock::lap`], matching
// `stage_profile::STAGE_NAMES` order (frontend first, commit last) so the
// profiling clock can index the profile arrays directly.
pub(crate) const STAGE_FRONTEND: usize = 0;
pub(crate) const STAGE_DISPATCH: usize = 1;
pub(crate) const STAGE_SCHEDULER: usize = 2;
pub(crate) const STAGE_LSQ: usize = 3;
pub(crate) const STAGE_COMMIT: usize = 4;

/// Compile-time switch for per-stage wall-time attribution in the step
/// loop. The null implementation inlines away; the profiling one reads an
/// `Instant` per lap.
pub(crate) trait StageClock {
    /// Marks the start of a cycle's stage sequence.
    #[inline]
    fn start(&mut self) {}
    /// Charges the time since the previous mark to `stage`.
    #[inline]
    fn lap(&mut self, _stage: usize) {}
}

/// The zero-cost clock for unprofiled runs.
pub(crate) struct NullClock;

impl StageClock for NullClock {}

/// The profiling clock: one `Instant` read per stage group, accumulated
/// into a [`StageProfile`](crate::stage_profile::StageProfile) exactly as
/// the old dedicated profiled loop did.
#[cfg(feature = "stage-profile")]
pub(crate) struct ProfClock<'a> {
    profile: &'a mut crate::stage_profile::StageProfile,
    last: std::time::Instant,
}

#[cfg(feature = "stage-profile")]
impl<'a> ProfClock<'a> {
    pub(crate) fn new(profile: &'a mut crate::stage_profile::StageProfile) -> ProfClock<'a> {
        ProfClock { profile, last: std::time::Instant::now() }
    }
}

#[cfg(feature = "stage-profile")]
impl StageClock for ProfClock<'_> {
    #[inline]
    fn start(&mut self) {
        self.last = std::time::Instant::now();
    }

    #[inline]
    fn lap(&mut self, stage: usize) {
        let now = std::time::Instant::now();
        self.profile.ns[stage] += u64::try_from((now - self.last).as_nanos()).unwrap_or(u64::MAX);
        self.profile.calls[stage] += 1;
        self.last = now;
    }
}

impl Pipeline {
    /// Per-cycle guards, in one place for every entry point: cycle limit,
    /// the control host (budget/cancel/heartbeat), the retirement
    /// watchdog, and the post-mortem snapshot ring.
    fn cycle_gate(&mut self, cycle_limit: u64) -> Result<(), CoreError> {
        if self.now >= cycle_limit {
            return Err(CoreError::CycleLimit(cycle_limit));
        }
        self.control.poll(self.now)?;
        if self.stats.retired != self.last_retired.1 {
            self.last_retired = (self.now, self.stats.retired);
        } else if self.now - self.last_retired.0 > self.cfg.watchdog_cycles {
            return Err(CoreError::Deadlock { cycle: self.now, state: self.dump_state() });
        }
        if self.cfg.post_mortem_depth > 0 {
            self.snap_ring.push(self.cycle_snap());
        }
        Ok(())
    }

    /// Advances the pipeline by one cycle: the guard gate, then the stages
    /// in reverse pipeline order so each stage observes the state the
    /// younger stages left at the end of the previous cycle. On the
    /// halting cycle, commit runs alone and the cycle is neither counted
    /// nor accounted (matching the architectural definition of `cycles`).
    pub(crate) fn step_cycle<C: StageClock>(&mut self, cycle_limit: u64, clock: &mut C) -> Result<(), CoreError> {
        self.cycle_gate(cycle_limit)?;
        let retired_before = self.stats.retired;
        clock.start();
        self.commit()?;
        clock.lap(STAGE_COMMIT);
        if self.halted {
            return Ok(());
        }
        self.complete();
        clock.lap(STAGE_LSQ);
        self.issue();
        clock.lap(STAGE_SCHEDULER);
        self.dispatch();
        clock.lap(STAGE_DISPATCH);
        self.fetch()?;
        clock.lap(STAGE_FRONTEND);
        self.account_cycle(retired_before);
        self.now += 1;
        // Periodic yields. With the default (silent) policy these are two
        // always-false tests — the step loop's only event overhead.
        if self.yield_policy.retire_batch > 0 {
            self.retire_acc += self.stats.retired - retired_before;
            if self.retire_acc >= self.yield_policy.retire_batch {
                self.retire_acc = 0;
                self.pending_events
                    .push_back(KernelEvent::RetireBatch { cycle: self.now, retired: self.stats.retired });
            }
        }
        if self.yield_policy.heartbeat_interval > 0 && self.now.is_multiple_of(self.yield_policy.heartbeat_interval) {
            self.pending_events.push_back(KernelEvent::Heartbeat { cycle: self.now, retired: self.stats.retired });
        }
        Ok(())
    }

    /// Steps until the next yield: drains pending events first, then runs
    /// cycles until an event is produced or the pipeline halts.
    pub(crate) fn pump<C: StageClock>(&mut self, cycle_limit: u64, clock: &mut C) -> Result<KernelEvent, CoreError> {
        loop {
            if let Some(ev) = self.pending_events.pop_front() {
                return Ok(ev);
            }
            if self.halted {
                return Ok(KernelEvent::Halted { cycle: self.now, retired: self.stats.retired });
            }
            self.step_cycle(cycle_limit, clock)?;
        }
    }
}

impl Core {
    /// Arms the kernel's yield policy: [`Core::next_event`] returns the
    /// selected [`KernelEvent`]s as the run progresses. The default policy
    /// is silent (only `Halted`), which is also what keeps
    /// [`Core::run`](crate::Core::run) at full speed.
    #[must_use]
    pub fn with_yield_policy(mut self, policy: YieldPolicy) -> Self {
        self.p.yield_policy = policy;
        self
    }

    /// Advances the kernel until it yields the next [`KernelEvent`] (per
    /// the armed [`YieldPolicy`]) or halts. The kernel is resumable: call
    /// again to continue from exactly where the last event was yielded.
    /// After [`KernelEvent::Halted`], call [`Core::finish`] for the
    /// [`RunReport`](crate::RunReport) — further `next_event` calls just
    /// repeat `Halted`.
    ///
    /// # Errors
    ///
    /// The same [`CoreError`]s as [`Core::run`](crate::Core::run); the
    /// kernel is dead after an error.
    pub fn next_event(&mut self, cycle_limit: u64) -> Result<KernelEvent, CoreError> {
        self.p.pump(cycle_limit, &mut NullClock)
    }

    /// Finalizes counters and packages the [`RunReport`](crate::RunReport)
    /// after the kernel halted (the event-driven twin of the tail of
    /// [`Core::run`](crate::Core::run)).
    pub fn finish(self) -> crate::stats::RunReport {
        self.into_report()
    }
}
