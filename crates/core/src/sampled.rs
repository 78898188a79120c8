//! Sampled simulation: functional fast-forward + detailed intervals.
//!
//! A SMARTS-style estimator over the stepping kernel: the instruction
//! stream is divided into periods; each period is mostly executed on the
//! functional [`Machine`] (fast), then a short stretch runs on the full
//! timing pipeline — first a *warmup* slice whose cycles are discarded
//! while caches, predictors and queues fill, then a *measured* slice
//! whose retired-instructions/cycles ratio contributes to the IPC
//! estimate.
//!
//! The bridge from functional to detailed state is
//! [`Pipeline::from_machine`]: a drained pipeline whose oracles, PC,
//! architectural registers and committed CFD-queue contents (BQ/TQ/TCR/VQ)
//! are rebuilt from the machine, using the same reconstruction idiom as
//! the `Restore_*` context-switch macro-ops.
//!
//! Microarchitectural state the machine does not model — caches, BTB,
//! predictor tables — is *functionally warmed* during fast-forward (the
//! SMARTS recipe): every functional retirement probes the warm L1I,
//! replays its data access through a warm hierarchy, trains a warm
//! direction predictor with immediate update (the same replay idiom as
//! `cfd-profile`) and fills a warm BTB; each detailed slice starts from
//! clones of these warm structures. The warmup slice then only has to
//! refill short-lived pipeline state, and the residual warming error is
//! the dominant error term. `cfd-bench`'s `simperf --sampled`
//! cross-checks the estimate against full-detail IPC per catalog workload
//! and enforces the error bound stated there.

use crate::config::CoreConfig;
use crate::core::CoreError;
use crate::host::MemoryPort;
use crate::kernel::NullClock;
use crate::pipeline::Pipeline;
use cfd_isa::{Machine, MemImage, Program, QueueConfig, Reg, RetireEvent};
use cfd_predictor::{predictor_by_name, BranchKind, Btb, BtbEntry, DirectionPredictor};

/// Shape of one sampling period, in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Instructions executed functionally (no timing) per period.
    pub ff_instructions: u64,
    /// Detailed instructions whose cycles are discarded (cold-start
    /// warmup for caches/predictors) at the head of each detailed slice.
    pub warmup_instructions: u64,
    /// Detailed instructions measured per period.
    pub detail_instructions: u64,
}

impl Default for SampleConfig {
    /// Defaults tuned for the catalog's ~0.2–0.5M-instruction workloads:
    /// ~25% of the stream runs detailed, split over 6–15 periods.
    fn default() -> SampleConfig {
        SampleConfig { ff_instructions: 25_000, warmup_instructions: 4_000, detail_instructions: 6_000 }
    }
}

/// Result of a sampled run. All stored quantities are integer counters;
/// the estimates are derived at read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledReport {
    /// Instructions retired inside measured detail slices.
    pub measured_instructions: u64,
    /// Cycles spent inside measured detail slices.
    pub measured_cycles: u64,
    /// Instructions executed functionally (fast-forward only).
    pub ff_instructions: u64,
    /// Detailed instructions whose cycles were discarded as warmup.
    pub warmup_instructions: u64,
    /// Total instructions in the workload (functional ground truth).
    pub total_instructions: u64,
    /// Measured detail slices contributing to the estimate.
    pub intervals: u64,
}

impl SampledReport {
    /// The IPC estimate: measured instructions over measured cycles.
    pub fn ipc_estimate(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.measured_instructions as f64 / self.measured_cycles as f64
    }

    /// Projected cycle count for the whole workload at the estimated IPC.
    pub fn estimated_cycles(&self) -> u64 {
        if self.measured_instructions == 0 {
            return 0;
        }
        // total * cycles / instructions, in u128 to dodge overflow.
        u64::try_from(
            u128::from(self.total_instructions) * u128::from(self.measured_cycles)
                / u128::from(self.measured_instructions),
        )
        .unwrap_or(u64::MAX)
    }
}

impl Pipeline {
    /// Builds a drained pipeline mid-program from a functional machine:
    /// both oracles resume from clones of `m`, fetch starts at the
    /// machine's PC, the architectural registers seed the freshly-mapped
    /// physical registers, and the committed CFD-queue state (BQ contents,
    /// TQ contents + TCR, VQ values) is reconstructed exactly as the
    /// `Restore_*` context-switch macro-ops do it.
    pub(crate) fn from_machine(cfg: CoreConfig, m: &Machine) -> Result<Pipeline, CoreError> {
        let mut p = Pipeline::new(cfg, m.program().clone(), MemImage::new())?;
        p.oracle = m.clone();
        p.fetch_oracle = m.clone();
        p.fetch_pc = m.pc();
        for r in Reg::all() {
            let phys = p.rename.map(r);
            p.prf_write(phys, m.regs.read(r), 0, None);
        }
        for (k, taken) in m.bq.contents().iter().enumerate() {
            let abs = p.bq.fetch_push();
            debug_assert_eq!(abs, k as u64);
            p.bq.execute_push(abs, *taken);
            p.bq.retire_push();
        }
        let tcr = m.tq.tcr();
        for entry in m.tq.contents() {
            let abs = p.tq.fetch_push();
            let v = if entry.overflow { (p.tq.size() as i64) << 33 } else { entry.trip_count as i64 };
            p.tq.execute_push(abs, v);
            p.tq.retire_push();
        }
        p.tq.tcr = tcr;
        p.tq.committed_tcr = tcr;
        for v in m.vq.contents() {
            let phys = p
                .rename
                .alloc_phys()
                .expect("PRF exhausted during sampled reconstruction; prf_size must exceed 32 + vq_size");
            p.prf_write(phys, v, 0, None);
            p.vq.rename_push(phys);
            p.vq.retire_push();
        }
        Ok(p)
    }

    /// Steps the kernel until `target` instructions have retired (or the
    /// pipeline halts), through the same single step loop as every other
    /// entry point.
    fn run_detail_until(&mut self, target: u64, cycle_limit: u64) -> Result<(), CoreError> {
        while self.stats.retired < target && !self.halted {
            self.step_cycle(cycle_limit, &mut NullClock)?;
        }
        Ok(())
    }
}

/// Long-lived microarchitectural state warmed functionally during
/// fast-forward, so detailed slices start from realistic caches and
/// predictors instead of cold ones. The warm clock counts functional
/// instructions; it only orders hierarchy events, and each detailed slice
/// continues time from it so in-flight warm MSHRs drain naturally.
struct Warmer {
    mem: MemoryPort,
    predictor: Box<dyn DirectionPredictor>,
    btb: Btb,
    clock: u64,
}

impl Warmer {
    fn new(cfg: &CoreConfig) -> Result<Warmer, CoreError> {
        let predictor = predictor_by_name(&cfg.predictor)
            .ok_or_else(|| CoreError::Config(format!("unknown predictor `{}`", cfg.predictor)))?;
        Ok(Warmer { mem: MemoryPort::new(cfg.hierarchy.clone()), predictor, btb: Btb::new(10, 4), clock: 0 })
    }

    /// Observes one functional retirement: L1I probe, data-hierarchy
    /// replay, BTB fill, and immediate-update predictor training (the
    /// same `observe` the profiler replays).
    fn observe(&mut self, ev: &RetireEvent) {
        self.clock += 1;
        let now = self.clock;
        self.mem.fetch_probe(u64::from(ev.pc) * 4);
        if let Some(a) = &ev.mem {
            self.mem.data_access(u64::from(ev.pc) * 4, a.addr, a.is_store, now);
            self.mem.advance(now);
        }
        if ev.instr.is_control() && self.btb.lookup(u64::from(ev.pc)).is_none() {
            self.btb.insert(
                u64::from(ev.pc),
                BtbEntry {
                    target: ev.instr.direct_target().unwrap_or(ev.next_pc),
                    kind: match ev.instr {
                        cfd_isa::Instr::Branch { .. } => BranchKind::Conditional,
                        cfd_isa::Instr::BranchOnBq { .. } => BranchKind::CfdPop,
                        cfd_isa::Instr::BranchOnTcr { .. } | cfd_isa::Instr::PopTqBrOvf { .. } => BranchKind::CfdTcr,
                        cfd_isa::Instr::Jr { .. } => BranchKind::Indirect,
                        _ => BranchKind::Unconditional,
                    },
                },
            );
        }
        if ev.instr.is_plain_conditional() {
            if let Some(taken) = ev.taken {
                self.predictor.observe(Pipeline::bpc(ev.pc), taken);
            }
        }
    }

    /// Seeds a freshly reconstructed pipeline with the warm structures and
    /// resumes its clock from the warm clock (keeping hierarchy time
    /// monotonic across the functional/detailed boundary).
    fn seed(&self, p: &mut Pipeline) {
        p.mem = self.mem.clone();
        p.predictor = self.predictor.clone();
        p.btb = self.btb.clone();
        p.now = self.clock;
        p.last_retired = (p.now, 0);
    }
}

/// Runs `program` in sampled mode and returns the estimator's counters.
///
/// `cycle_limit` bounds each detailed slice individually (slices start
/// their own cycle clocks); the functional portions are bounded by the
/// program's own termination.
///
/// # Errors
///
/// [`CoreError::Config`] for invalid configurations,
/// [`CoreError::Program`] if the functional machine faults, and any
/// [`CoreError`] a detailed slice can produce.
pub fn run_sampled(
    cfg: CoreConfig,
    program: Program,
    mem: MemImage,
    sample: SampleConfig,
    cycle_limit: u64,
) -> Result<SampledReport, CoreError> {
    if sample.ff_instructions == 0 || sample.detail_instructions == 0 {
        return Err(CoreError::Config("sampled mode needs non-zero ff and detail intervals".into()));
    }
    let qc = QueueConfig {
        bq_size: cfg.bq_size,
        vq_size: cfg.vq_size,
        tq_size: cfg.tq_size,
        tq_trip_bits: cfg.tq_trip_bits,
    };
    let mut m = Machine::with_queues(program, mem, qc);
    let mut report = SampledReport {
        measured_instructions: 0,
        measured_cycles: 0,
        ff_instructions: 0,
        warmup_instructions: 0,
        total_instructions: 0,
        intervals: 0,
    };
    let err = |e: cfd_isa::SimError| CoreError::Program(e.to_string());
    let mut warm = Warmer::new(&cfg)?;
    loop {
        // Functional fast-forward through the period's untimed stretch,
        // warming caches/BTB/predictor as it goes.
        let mut skipped = 0u64;
        while skipped < sample.ff_instructions && !m.halted() {
            m.step(&mut |ev: &RetireEvent| warm.observe(ev)).map_err(err)?;
            skipped += 1;
        }
        report.ff_instructions += skipped;
        if m.halted() {
            break;
        }
        // Detailed slice from warm structures: warmup (discarded) then
        // measurement.
        let mut p = Pipeline::from_machine(cfg.clone(), &m)?;
        warm.seed(&mut p);
        let slice_limit = p.now.saturating_add(cycle_limit);
        p.run_detail_until(sample.warmup_instructions, slice_limit)?;
        let (c0, r0) = (p.now, p.stats.retired);
        report.warmup_instructions += r0;
        p.run_detail_until(sample.warmup_instructions + sample.detail_instructions, slice_limit)?;
        if p.stats.retired > r0 {
            report.measured_instructions += p.stats.retired - r0;
            report.measured_cycles += p.now - c0;
            report.intervals += 1;
        }
        // The machine re-executes the detailed slice's instructions (still
        // warming) so the next period resumes where detailed timing
        // stopped.
        let consumed = p.stats.retired;
        let mut advanced = 0u64;
        while advanced < consumed && !m.halted() {
            m.step(&mut |ev: &RetireEvent| warm.observe(ev)).map_err(err)?;
            advanced += 1;
        }
        if m.halted() {
            break;
        }
    }
    report.total_instructions = m.retired();
    Ok(report)
}
