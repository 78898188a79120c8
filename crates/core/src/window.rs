//! The instruction window: one fixed-capacity ring that holds every
//! in-flight instruction from fetch to retirement without moving it.
//!
//! Each instruction lives at an absolute *position*; its slot is
//! `position & mask`. Three cursors split the live positions into two
//! ranges:
//!
//! ```text
//!   head          disp          tail
//!    |---- ROB ----|-- front --|
//! ```
//!
//! * `[head, disp)` is the reorder buffer, oldest first;
//! * `[disp, tail)` is the front pipe (fetched, not yet dispatched).
//!
//! Fetch writes the record into the slot at `tail`; dispatch renames it in
//! place and advances `disp`; commit advances `head`; recovery truncates
//! `disp` and `tail` back to the position after the recovering branch.
//! Every front-pipe instruction is younger than every ROB instruction, so
//! one truncation squashes the whole front pipe and the ROB tail at once.
//!
//! A position is the instruction's `rob_seq`: positions are dense and are
//! reused after a squash, so the scheduler's ready bitset, its event
//! wheels, `store_list` and the LSQ index ROB entries by position
//! directly, and a stale position is told apart by the entry's fetch `seq`.
//!
//! Recovery snapshots and predictor metadata are large and held only by
//! branches, so they live in two side arrays indexed by the same slot
//! instead of in [`DynInst`]. Fetch writes them once; nothing allocates
//! per instruction. The arrays grow up to the capacity as positions are
//! first used, so building a pipeline (sampled mode builds one per detailed
//! slice) allocates nothing for them.

use crate::cfd_queues::{BqSnapshot, TqSnapshot};
use crate::rename::{PhysReg, Taint};
use cfd_isa::Instr;
use cfd_predictor::{PredMeta, RasSnapshot};
use std::ops::{Index, IndexMut, Range};

/// Recovery snapshot taken at fetch for instructions that can mispredict.
/// (The VQ renamer is a rename-stage structure repaired by the squash walk,
/// so no VQ pointers are snapshotted here.)
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    pub(crate) bq: BqSnapshot,
    pub(crate) tq: TqSnapshot,
    pub(crate) ras: RasSnapshot,
}

/// One in-flight instruction. Its ROB ordinal is its window position.
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    pub(crate) seq: u64,
    pub(crate) pc: u32,
    pub(crate) instr: Instr,
    /// Cycle at which the instruction may dispatch (front-pipe delay).
    pub(crate) dispatch_at: u64,
    /// Fetched while fetch was known to be on the wrong path.
    pub(crate) on_wrong_path: bool,
    /// Direction chosen at fetch for conditional control.
    pub(crate) fetch_taken: Option<bool>,
    /// Predicted target for indirect jumps.
    pub(crate) fetch_target: u32,
    /// This `Branch_on_BQ` was resolved speculatively (BQ miss).
    pub(crate) spec_pop: bool,
    /// Speculative pop verified by its push.
    pub(crate) verified: bool,
    /// BQ absolute index (pushes and pops).
    pub(crate) bq_abs: Option<u64>,
    /// TQ absolute index (pushes and pops).
    pub(crate) tq_abs: Option<u64>,
    /// TCR value loaded by a `Pop_TQ` at fetch.
    pub(crate) tq_loaded_tcr: u32,
    pub(crate) has_checkpoint: bool,
    // Rename results.
    pub(crate) pdest: Option<PhysReg>,
    /// Previous mapping of the destination (RMT-updating instructions).
    pub(crate) prev_phys: Option<PhysReg>,
    pub(crate) psrc1: Option<PhysReg>,
    pub(crate) psrc2: Option<PhysReg>,
    /// The VQ mapping a `Pop_VQ` frees at retirement. Normally equals
    /// `psrc1`; kept separate so the free list stays consistent when
    /// fault injection corrupts the operand mapping.
    pub(crate) vq_free: Option<PhysReg>,
    /// Occupies an IQ slot until issued.
    pub(crate) in_iq: bool,
    pub(crate) in_lsq: bool,
    pub(crate) dispatched: bool,
    pub(crate) issued: bool,
    pub(crate) done: bool,
    pub(crate) ready_at: u64,
    // Memory.
    pub(crate) eff_addr: Option<u64>,
    // Stage timestamps (pipeline tracing).
    pub(crate) t_fetch: u64,
    pub(crate) t_dispatch: u64,
    pub(crate) t_issue: u64,
    pub(crate) t_complete: u64,
    // Resolution.
    pub(crate) resolved_taken: Option<bool>,
    pub(crate) mispredict: bool,
    pub(crate) recover_at_retire: bool,
    pub(crate) taint: Taint,
}

impl DynInst {
    pub(crate) fn new(seq: u64, pc: u32, instr: Instr, dispatch_at: u64, on_wrong_path: bool) -> DynInst {
        DynInst {
            seq,
            pc,
            instr,
            dispatch_at,
            on_wrong_path,
            fetch_taken: None,
            fetch_target: 0,
            spec_pop: false,
            verified: true,
            bq_abs: None,
            tq_abs: None,
            tq_loaded_tcr: 0,
            has_checkpoint: false,
            pdest: None,
            prev_phys: None,
            psrc1: None,
            psrc2: None,
            vq_free: None,
            in_iq: false,
            in_lsq: false,
            dispatched: false,
            issued: false,
            done: false,
            ready_at: u64::MAX,
            eff_addr: None,
            t_fetch: 0,
            t_dispatch: 0,
            t_issue: 0,
            t_complete: 0,
            resolved_taken: None,
            mispredict: false,
            recover_at_retire: false,
            taint: None,
        }
    }

    /// Executes in the backend (needs an IQ slot and a function unit).
    pub(crate) fn needs_backend(&self) -> bool {
        match self.instr {
            Instr::Alu { .. }
            | Instr::Li { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Prefetch { .. }
            | Instr::Branch { .. }
            | Instr::Jr { .. }
            | Instr::PushBq { .. }
            | Instr::PushVq { .. }
            | Instr::PopVq { .. }
            | Instr::PushTq { .. } => true,
            Instr::Jump { .. }
            | Instr::Jal { .. }
            | Instr::BranchOnBq { .. }
            | Instr::MarkBq
            | Instr::ForwardBq
            | Instr::PopTq
            | Instr::BranchOnTcr { .. }
            | Instr::PopTqBrOvf { .. }
            | Instr::Nop
            | Instr::Halt
            | Instr::SaveBq { .. }
            | Instr::RestoreBq { .. }
            | Instr::SaveVq { .. }
            | Instr::RestoreVq { .. }
            | Instr::SaveTq { .. }
            | Instr::RestoreTq { .. } => false,
        }
    }

    pub(crate) fn is_mem_op(&self) -> bool {
        matches!(self.instr, Instr::Load { .. } | Instr::Store { .. } | Instr::Prefetch { .. })
    }
}

/// The ring of in-flight instructions (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Window {
    slots: Vec<DynInst>,
    snapshots: Vec<Option<Snapshot>>,
    metas: Vec<Option<PredMeta>>,
    mask: u64,
    /// Oldest ROB position.
    head: u64,
    /// Oldest front-pipe position: the next one to dispatch.
    disp: u64,
    /// Next position fetch writes.
    tail: u64,
}

impl Window {
    /// A window holding at least `capacity` instructions (rounded up to a
    /// power of two).
    pub(crate) fn new(capacity: usize) -> Window {
        let cap = capacity.next_power_of_two();
        Window {
            slots: Vec::new(),
            snapshots: Vec::new(),
            metas: Vec::new(),
            mask: cap as u64 - 1,
            head: 0,
            disp: 0,
            tail: 0,
        }
    }

    #[inline]
    fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    /// Positions of the ROB, oldest first.
    pub(crate) fn rob(&self) -> Range<u64> {
        self.head..self.disp
    }

    /// Positions of the front pipe, oldest first.
    pub(crate) fn front(&self) -> Range<u64> {
        self.disp..self.tail
    }

    pub(crate) fn rob_len(&self) -> usize {
        (self.disp - self.head) as usize
    }

    pub(crate) fn front_len(&self) -> usize {
        (self.tail - self.disp) as usize
    }

    /// No instruction in flight (ROB and front pipe both empty).
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether `pos` names a live ROB entry.
    #[inline]
    pub(crate) fn in_rob(&self, pos: u64) -> bool {
        self.head <= pos && pos < self.disp
    }

    /// The oldest ROB entry's position.
    pub(crate) fn rob_head(&self) -> Option<u64> {
        (self.head < self.disp).then_some(self.head)
    }

    /// The oldest front-pipe entry's position.
    pub(crate) fn front_head(&self) -> Option<u64> {
        (self.disp < self.tail).then_some(self.disp)
    }

    /// Fetch: writes `e` into the slot at the tail of the front pipe, with
    /// no snapshot or predictor metadata yet, and returns its position.
    #[inline]
    pub(crate) fn push(&mut self, e: DynInst) -> u64 {
        let pos = self.tail;
        assert!(pos - self.head <= self.mask, "instruction window overflow");
        let slot = self.slot(pos);
        if slot < self.slots.len() {
            self.slots[slot] = e;
            self.snapshots[slot] = None;
            self.metas[slot] = None;
        } else {
            self.slots.push(e);
            self.snapshots.push(None);
            self.metas.push(None);
        }
        self.tail += 1;
        pos
    }

    /// Dispatch: moves the front pipe's oldest entry into the ROB and
    /// returns its position (its `rob_seq`).
    #[inline]
    pub(crate) fn dispatch(&mut self) -> u64 {
        debug_assert!(self.disp < self.tail, "dispatch from an empty front pipe");
        self.disp += 1;
        self.disp - 1
    }

    /// Commit: retires the ROB head and returns its position. The slot
    /// keeps its contents until fetch reuses it.
    #[inline]
    pub(crate) fn retire(&mut self) -> u64 {
        debug_assert!(self.head < self.disp, "retire from an empty ROB");
        self.head += 1;
        self.head - 1
    }

    /// Recovery: squashes every position from `end` on, ROB and front pipe
    /// alike. `end` must lie inside the ROB (the recovering instruction
    /// survives).
    pub(crate) fn truncate(&mut self, end: u64) {
        debug_assert!(self.head < end && end <= self.disp, "truncation outside the ROB");
        self.disp = end;
        self.tail = end;
    }

    pub(crate) fn set_snapshot(&mut self, pos: u64, snap: Snapshot) {
        let slot = self.slot(pos);
        self.snapshots[slot] = Some(snap);
    }

    pub(crate) fn snapshot(&self, pos: u64) -> Option<&Snapshot> {
        self.snapshots[self.slot(pos)].as_ref()
    }

    pub(crate) fn set_meta(&mut self, pos: u64, meta: PredMeta) {
        let slot = self.slot(pos);
        self.metas[slot] = Some(meta);
    }

    pub(crate) fn meta(&self, pos: u64) -> Option<&PredMeta> {
        self.metas[self.slot(pos)].as_ref()
    }
}

impl Index<u64> for Window {
    type Output = DynInst;

    /// The entry at `pos`: live, or retired and not yet overwritten.
    #[inline]
    fn index(&self, pos: u64) -> &DynInst {
        debug_assert!(pos < self.tail && self.tail - pos <= self.mask + 1, "position {pos} not resident");
        &self.slots[self.slot(pos)]
    }
}

impl IndexMut<u64> for Window {
    #[inline]
    fn index_mut(&mut self, pos: u64) -> &mut DynInst {
        debug_assert!(pos < self.tail && self.tail - pos <= self.mask + 1, "position {pos} not resident");
        let slot = self.slot(pos);
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::kernel::NullClock;
    use crate::pipeline::Pipeline;
    use cfd_isa::{Assembler, Machine, MemImage, Program, Reg};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn inst(seq: u64) -> DynInst {
        DynInst::new(seq, seq as u32, Instr::Nop, 0, false)
    }

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn positions_keep_counting_across_wraparound() {
        let mut w = Window::new(8);
        let mut seq = 0;
        // Run round the ring many times with the window mostly full.
        for round in 0..200 {
            while w.rob_len() + w.front_len() < 7 {
                assert_eq!(w.push(inst(seq)), seq, "without squashes a position is its fetch order");
                seq += 1;
            }
            for _ in 0..1 + round % 3 {
                if w.front_len() > 0 {
                    w.dispatch();
                }
            }
            for _ in 0..round % 3 {
                if w.rob_len() > 0 {
                    let pos = w.retire();
                    assert_eq!(w[pos].seq, pos, "a retired record stays readable until its slot is reused");
                }
            }
            for pos in w.rob().chain(w.front()) {
                assert_eq!(w[pos].seq, pos);
            }
            assert_eq!(w.rob().end, w.front().start);
        }
        assert!(seq > 8 * 20, "the ring wrapped many times");
    }

    #[test]
    fn rob_and_front_pipe_fill_the_ring_exactly() {
        let (rob, front) = (5usize, 3usize);
        let mut w = Window::new(rob + front);
        for s in 0..(rob + front) as u64 {
            w.push(inst(s));
        }
        for _ in 0..rob {
            w.dispatch();
        }
        assert_eq!((w.rob_len(), w.front_len()), (rob, front));
        for pos in w.rob().chain(w.front()) {
            assert_eq!(w[pos].seq, pos, "no entry overwrote another");
        }
        // A ninth instruction would overwrite the ROB head.
        let mut full = w.clone();
        assert!(catch_unwind(AssertUnwindSafe(|| full.push(inst(99)))).is_err());
        // Retiring the head frees exactly its slot for the next fetch.
        let head = w.retire();
        let pos = w.push(inst(100));
        assert_eq!(pos & 7, head & 7);
        assert_eq!(w[pos].seq, 100);
        assert_eq!(w[w.rob().start].seq, 1);
    }

    #[test]
    fn truncation_squashes_the_front_pipe_and_reuses_positions() {
        let mut w = Window::new(16);
        for s in 0..10 {
            w.push(inst(s));
        }
        for _ in 0..6 {
            w.dispatch();
        }
        w.set_meta(5, cfd_predictor::PredMeta::Static);
        w.set_meta(2, cfd_predictor::PredMeta::Bimodal);
        // Recover at position 3: ROB entries 4 and 5 and the whole front
        // pipe (6..10) are squashed.
        w.truncate(4);
        assert_eq!((w.rob(), w.front()), (0..4, 4..4));
        // The next fetches take the squashed positions again, with fresh
        // side entries; a survivor keeps its own.
        assert_eq!(w.push(inst(100)), 4);
        assert_eq!(w.push(inst(101)), 5);
        assert_eq!(w[5].seq, 101);
        assert!(w.meta(5).is_none());
        assert!(matches!(w.meta(2), Some(cfd_predictor::PredMeta::Bimodal)));
        assert_eq!(w.dispatch(), 4);
        assert_eq!((w.rob(), w.front()), (0..5, 5..6));
    }

    /// Steps `p` to halt, calling `check` after every cycle, and returns
    /// the retired count.
    fn step_to_halt(p: &mut Pipeline, mut check: impl FnMut(&Pipeline)) -> u64 {
        while !p.halted {
            p.step_cycle(10_000_000, &mut NullClock).expect("simulation completes");
            check(p);
        }
        p.stats.retired
    }

    fn functional_count(program: &Program, mem: &MemImage) -> u64 {
        let mut m = Machine::new(program.clone(), mem.clone());
        m.run_to_halt().expect("program halts");
        m.retired()
    }

    /// A ROB whose size plus the front-pipe capacity is exactly the ring
    /// capacity fills both ranges at once behind a missing load.
    #[test]
    fn pipeline_fills_rob_and_front_pipe_to_the_ring_capacity() {
        let mut cfg = CoreConfig::default();
        cfg.rob_size = 256 - cfg.front_cap();
        let mut a = Assembler::new();
        a.li(r(1), 0x10_0000);
        a.li(r(4), 6);
        a.label("top");
        a.ld(r(2), 0, r(1));
        for _ in 0..300 {
            a.nop();
        }
        a.addi(r(1), r(1), 4096);
        a.addi(r(4), r(4), -1);
        a.bnez(r(4), "top");
        a.halt();
        let program = a.finish().expect("assembles");
        let mem = MemImage::new();
        let want = functional_count(&program, &mem);
        let mut p = Pipeline::new(cfg.clone(), program, mem).expect("valid config");
        let mut full_cycles = 0;
        let retired = step_to_halt(&mut p, |p| {
            assert!(p.win.rob_len() <= cfg.rob_size && p.win.front_len() <= cfg.front_cap());
            if p.win.rob_len() == cfg.rob_size && p.win.front_len() == cfg.front_cap() {
                full_cycles += 1;
                // Every slot holds its own instruction: fetch order rises
                // strictly from the ROB head to the front-pipe tail.
                let seqs: Vec<u64> = p.win.rob().chain(p.win.front()).map(|pos| p.win[pos].seq).collect();
                assert!(seqs.windows(2).all(|w| w[0] < w[1]), "a full ring overwrote an entry");
            }
        });
        assert!(full_cycles > 0, "ROB and front pipe never filled the ring together");
        assert_eq!(retired, want);
    }

    /// A recovery squashes the front pipe together with the younger ROB
    /// entries, and fetch restarts at the position after the branch.
    #[test]
    fn recovery_truncates_a_non_empty_front_pipe() {
        let mut a = Assembler::new();
        a.li(r(2), 400);
        a.li(r(5), 12345);
        a.label("top");
        a.mul(r(5), r(5), 1103515245i64);
        a.addi(r(5), r(5), 12345);
        a.srl(r(3), r(5), 16i64);
        a.and(r(3), r(3), 1i64);
        a.beqz(r(3), "skip");
        a.addi(r(6), r(6), 1);
        a.label("skip");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "top");
        a.halt();
        let program = a.finish().expect("assembles");
        let mem = MemImage::new();
        let want = functional_count(&program, &mem);
        let mut p = Pipeline::new(CoreConfig::default(), program, mem).expect("valid config");
        let mut before = (0u64, 0usize, 0u64);
        let mut with_front = 0;
        let retired = step_to_halt(&mut p, |p| {
            let recoveries = p.stats.immediate_recoveries + p.stats.retire_recoveries;
            if recoveries > before.0 && before.1 > 0 {
                with_front += 1;
                // Fetch resumes next cycle, so the squashed front pipe is
                // still empty and the tail sits right after the branch.
                assert_eq!(p.win.front_len(), 0);
                assert!(p.win.rob().end <= before.2, "truncation left a squashed position live");
            }
            before = (recoveries, p.win.front_len(), p.win.front().end);
        });
        assert!(with_front > 10, "only {with_front} recoveries met a non-empty front pipe");
        assert_eq!(retired, want);
    }

    /// A late push that executes while its speculative pop is still in the
    /// front pipe leaves the pop unverified there; dispatch verifies it.
    #[test]
    fn speculative_pop_in_the_front_pipe_is_verified_at_dispatch() {
        let mut a = Assembler::new();
        a.li(r(2), 300);
        a.li(r(5), 777);
        a.label("top");
        a.mul(r(5), r(5), 1103515245i64);
        a.addi(r(5), r(5), 12345);
        a.srl(r(3), r(5), 16i64);
        a.and(r(3), r(3), 1i64);
        a.push_bq(r(3));
        // Fetch reaches the pop a few cycles after the push: before the
        // push executes (a BQ miss), but close enough that the push
        // executes while the pop waits in the front pipe.
        for _ in 0..44 {
            a.nop();
        }
        a.branch_on_bq("skip");
        a.addi(r(6), r(6), 1);
        a.label("skip");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "top");
        a.halt();
        let program = a.finish().expect("assembles");
        let mem = MemImage::new();
        let want = functional_count(&program, &mem);
        let mut p = Pipeline::new(CoreConfig::default(), program, mem).expect("valid config");
        // Fetch seqs of pops seen pushed-but-unverified in the front pipe.
        let mut waiting: Vec<u64> = Vec::new();
        let mut verified_at_dispatch = 0;
        let retired = step_to_halt(&mut p, |p| {
            waiting.retain(|&seq| {
                let Some(pos) = p.win.rob().find(|&pos| p.win[pos].seq == seq) else {
                    // Still in the front pipe, or squashed.
                    return p.win.front().any(|pos| p.win[pos].seq == seq);
                };
                assert!(p.win[pos].verified, "a dispatched pop stayed unverified");
                verified_at_dispatch += 1;
                false
            });
            for pos in p.win.front() {
                let e = &p.win[pos];
                let abs = e.bq_abs.unwrap_or(0);
                if e.spec_pop && !e.verified && p.bq.peek_entry(abs).is_some() && !waiting.contains(&e.seq) {
                    waiting.push(e.seq);
                }
            }
        });
        assert!(verified_at_dispatch > 10, "only {verified_at_dispatch} pops were verified at dispatch");
        // Random predicates: some of those verifications found a wrong
        // speculation and recovered from dispatch.
        assert!(p.stats.bq_spec_recoveries > 10, "{} speculative-pop recoveries", p.stats.bq_spec_recoveries);
        assert_eq!(retired, want);
    }
}
