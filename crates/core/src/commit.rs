//! Commit stage: in-order retirement against the functional oracle,
//! predictor training, branch resolution, and misprediction recovery.
//!
//! Branch resolution (`resolve_branch`, `execute_push_bq`) lives here with
//! recovery rather than in the scheduler because its only side effects are
//! commit-side: verdicts, checkpoint reclamation, and the squash walk.
//! `recover_at` restores fetch-side queue snapshots, rewinds the predictor,
//! prunes the scheduler's ready queue, and repairs the rename state by
//! walking squashed instructions youngest-first.

use crate::core::CoreError;
use crate::fault::{FaultKind, FaultSite};
use crate::pipeline::Pipeline;
use crate::rename::join_taint;
use crate::stats::level_index;
use cfd_isa::{eval_branch, Instr, NullSink};

impl Pipeline {
    pub(crate) fn commit(&mut self) -> Result<(), CoreError> {
        for _ in 0..self.cfg.width {
            let Some(pos) = self.win.rob_head() else { return Ok(()) };
            let head = &self.win[pos];
            if !head.dispatched || !head.done || !head.verified {
                return Ok(());
            }
            // Deferred (retirement-time) misprediction recovery.
            if head.mispredict && head.recover_at_retire {
                self.stats.retire_recoveries += 1;
                self.recover_at(pos);
            }
            // Leave the ROB; the slot keeps the record until fetch reuses
            // it, which cannot happen before the next cycle's fetch.
            self.win.retire();
            debug_assert!(!self.ready.contains(pos), "retired instruction left in the ready set");
            self.trace_record(pos, Some(self.now));
            let e = &self.win[pos];

            // Oracle cross-check: the retired stream must match functional
            // execution exactly.
            if self.cfg.verify_retirement {
                let opc = self.oracle.pc();
                if opc != e.pc {
                    return Err(CoreError::OracleMismatch { seq: e.seq, core_pc: e.pc, oracle_pc: opc });
                }
            }
            self.oracle.step(&mut NullSink).map_err(|err| CoreError::Program(err.to_string()))?;

            // Architectural queue high-water marks, sampled on the committed
            // (oracle) state so speculation never inflates them. cfd-harden
            // checks these against the static bounds from cfd-lint.
            self.stats.max_bq_occupancy = self.stats.max_bq_occupancy.max(self.oracle.bq.len() as u64);
            self.stats.max_vq_occupancy = self.stats.max_vq_occupancy.max(self.oracle.vq.len() as u64);
            self.stats.max_tq_occupancy = self.stats.max_tq_occupancy.max(self.oracle.tq.len() as u64);
            // The registry gauges sample the same committed state at the
            // same point, so each gauge's high-water mark equals the
            // `max_*_occupancy` counter above by construction.
            if self.telem.armed() {
                self.telem.gauge_set("core.bq_occupancy", self.oracle.bq.len() as u64);
                self.telem.gauge_set("core.vq_occupancy", self.oracle.vq.len() as u64);
                self.telem.gauge_set("core.tq_occupancy", self.oracle.tq.len() as u64);
            }

            self.stats.retired += 1;
            self.events.rob_ops += 1;
            if e.in_lsq {
                self.lsq_count -= 1;
            }
            if let Some(prev) = e.prev_phys {
                self.rename.free_phys(prev);
            }
            match e.instr {
                Instr::PushBq { .. } => self.bq.retire_push(),
                Instr::BranchOnBq { .. } => {
                    self.bq.retire_pop();
                    self.events.bq_ops += 1;
                }
                Instr::MarkBq => self.bq.retire_mark(),
                Instr::ForwardBq => self.bq.retire_forward(),
                Instr::PushVq { .. } => self.vq.retire_push(),
                Instr::PopVq { .. } => {
                    self.vq.retire_pop();
                    // The push's physical register is freed when the pop
                    // that references it retires (§IV-B).
                    if let Some(p) = e.vq_free {
                        self.rename.free_phys(p);
                    }
                }
                Instr::PushTq { .. } => self.tq.retire_push(),
                Instr::PopTq | Instr::PopTqBrOvf { .. } => self.tq.retire_pop(e.tq_loaded_tcr),
                Instr::BranchOnTcr { .. } => {
                    if e.fetch_taken == Some(true) {
                        self.tq.retire_tcr_decrement();
                    }
                    self.events.tq_ops += 1;
                }
                Instr::Store { .. } => {
                    // The oracle step above performed the store on committed
                    // memory; charge the cache access here (store buffer
                    // drains at retirement). Under MSHR saturation the fill
                    // is dropped rather than retried — a deliberate
                    // store-buffer simplification: correctness lives in the
                    // oracle memory, and retirement never stalls on stores.
                    if let Some(addr) = e.eff_addr {
                        self.mem.data_access(e.pc as u64 * 4, addr, true, self.now);
                    }
                    debug_assert_eq!(self.store_list.front(), Some(&pos));
                    self.store_list.pop_front();
                }
                Instr::Halt => {
                    self.halted = true;
                }
                _ => {}
            }

            // Branch bookkeeping + predictor training.
            let has_checkpoint = e.has_checkpoint;
            if e.fetch_taken.is_some() || matches!(e.instr, Instr::Jr { .. }) {
                self.retire_branch(pos);
            }
            if has_checkpoint {
                self.checkpoints_free += 1;
            }
            if self.halted {
                return Ok(());
            }
        }
        Ok(())
    }

    fn retire_branch(&mut self, pos: u64) {
        let e = &self.win[pos];
        let taken = e.resolved_taken.or(e.fetch_taken).unwrap_or(false);
        if e.instr.is_conditional() {
            self.stats.retired_branches += 1;
        }
        let stat = self.stats.branches.entry(e.pc).or_default();
        stat.executed += 1;
        if taken {
            stat.taken += 1;
        }
        if e.mispredict {
            stat.mispredicted += 1;
            stat.mispredicted_by_level[level_index(e.taint)] += 1;
            self.stats.mispredictions += 1;
        }
        if let Some(meta) = self.win.meta(pos) {
            self.predictor.train(Self::bpc(e.pc), taken, meta);
            self.events.bpred_ops += 1;
        }
        if e.instr.is_plain_conditional() {
            self.confidence.update(Self::bpc(e.pc), !e.mispredict);
        }
    }

    /// Resolves a plain branch or indirect jump at window position `pos`.
    /// Returns true if an immediate recovery truncated the ROB.
    pub(crate) fn resolve_branch(&mut self, pos: u64) -> bool {
        let e = &self.win[pos];
        let (actual_taken, actual_target) = match e.instr {
            Instr::Branch { cond, target, .. } => {
                let a = self.rename.read(e.psrc1.expect("branch src1"));
                let b = self.rename.read(e.psrc2.expect("branch src2"));
                let t = eval_branch(cond, a, b);
                (t, if t { target } else { e.pc + 1 })
            }
            Instr::Jr { .. } => {
                let t = self.rename.read(e.psrc1.expect("jr src")) as u32;
                (true, t)
            }
            _ => unreachable!("resolve_branch on non-branch"),
        };
        let taint = {
            let mut t = None;
            if let Some(p) = e.psrc1 {
                t = join_taint(t, self.rename.taint(p));
            }
            if let Some(p) = e.psrc2 {
                t = join_taint(t, self.rename.taint(p));
            }
            t
        };
        let predicted_target = e.fetch_target;
        let mispredicted = match e.instr {
            // A branch targeting its own fall-through has a single successor:
            // a wrong direction cannot take fetch down a wrong path, and the
            // fetch oracle (which tracks the *path*) never diverges on it.
            Instr::Branch { target, .. } => e.fetch_taken != Some(actual_taken) && target != e.pc + 1,
            _ => predicted_target != actual_target,
        };
        let e = &mut self.win[pos];
        e.resolved_taken = Some(actual_taken);
        e.taint = taint;
        if mispredicted {
            e.mispredict = true;
            let truncated = self.begin_recovery(pos);
            // OoO checkpoint reclamation: the checkpoint was consumed by the
            // recovery (or was never held); release it now, not at retire.
            self.release_checkpoint(pos);
            truncated
        } else {
            // Correctly-predicted branch: its checkpoint is no longer needed
            // (aggressive OoO reclamation, the paper's best policy, §VI).
            self.release_checkpoint(pos);
            false
        }
    }

    /// Frees the checkpoint held by the ROB entry at `pos`, if any.
    pub(crate) fn release_checkpoint(&mut self, pos: u64) {
        let e = &mut self.win[pos];
        if e.has_checkpoint {
            e.has_checkpoint = false;
            self.checkpoints_free += 1;
        }
    }

    /// Executes a `Push_BQ` at window position `pos`; handles late-push
    /// verification. Returns true if recovery truncated the ROB.
    pub(crate) fn execute_push_bq(&mut self, pos: u64) -> bool {
        let e = &self.win[pos];
        let abs = e.bq_abs.expect("bq push has index");
        let src = e.psrc1.expect("bq push has source");
        let mut predicate = self.rename.read(src) != 0;
        let taint = self.rename.taint(src);
        // Fault injection at the BQ write port: a corrupted predicate
        // steers the pop down the wrong path (oracle mismatch at retire);
        // a dropped write leaves the pop unverifiable (watchdog trip).
        match self.fault_at(FaultSite::BqExecutePush) {
            Some(FaultKind::BqCorrupt) => predicate = !predicate,
            Some(FaultKind::BqDrop) => return false,
            _ => {}
        }
        self.events.bq_ops += 1;
        let r = self.bq.execute_push_tainted(abs, predicate, level_index(taint) as u8);
        if self.trace {
            eprintln!(
                "[{}] EXEC_PUSH seq={} abs={} pred={} result={:?}",
                self.now, self.win[pos].seq, abs, predicate, r
            );
        }
        let Some(pop) = r else {
            return false;
        };
        // Late push: the speculative pop is verified here when it is still
        // in the ROB at its recorded position. A pop still in the front
        // pipe is verified when it dispatches; a squashed one is gone (its
        // position may hold a younger instruction, told apart by `seq`).
        if !(self.win.in_rob(pop.pos) && self.win[pop.pos].seq == pop.seq) {
            return false;
        }
        let pop_pos = pop.pos;
        let e = &mut self.win[pop_pos];
        e.verified = true;
        e.taint = taint;
        if pop.predicate == predicate {
            self.release_checkpoint(pop_pos);
            return false;
        }
        let actual_taken = !predicate;
        let taken_target = match e.instr {
            Instr::BranchOnBq { target } => target,
            _ => unreachable!("spec pop is a Branch_on_BQ"),
        };
        // Degenerate pop (taken target == fall-through): the predicate was
        // wrong but both directions continue at the same PC, so the fetched
        // path is already correct — no squash, and the fetch oracle (which
        // never diverged) must not be rewound.
        if taken_target == e.pc + 1 {
            e.resolved_taken = Some(actual_taken);
            self.release_checkpoint(pop_pos);
            return false;
        }
        // Speculation failed: the pop's direction flips (taken = !predicate).
        self.stats.bq_spec_recoveries += 1;
        e.mispredict = true;
        e.resolved_taken = Some(actual_taken);
        let truncated = self.begin_recovery(pop_pos);
        self.release_checkpoint(pop_pos);
        truncated
    }

    /// Starts recovery for the mispredicted instruction at window position
    /// `pos`: immediately when it holds a checkpoint, else deferred to
    /// retirement. Returns true when the ROB was truncated now.
    pub(crate) fn begin_recovery(&mut self, pos: u64) -> bool {
        if self.fault_has_fired() {
            self.stats.post_fault_recoveries += 1;
        }
        if self.win[pos].has_checkpoint {
            self.stats.immediate_recoveries += 1;
            self.events.checkpoint_ops += 1;
            self.recover_at(pos);
            true
        } else {
            self.win[pos].recover_at_retire = true;
            false
        }
    }

    /// Squashes everything younger than window position `pos` and restores
    /// front-end state from its snapshot; fetch resumes at the corrected
    /// target.
    pub(crate) fn recover_at(&mut self, pos: u64) {
        let end = pos + 1;
        let squashed = self.win.front().end - end;
        // Squash the front pipe entirely (younger than everything in ROB),
        // returning any checkpoints its branches hold.
        for p in self.win.front() {
            if self.win[p].has_checkpoint {
                self.checkpoints_free += 1;
            }
        }
        // Walk the ROB youngest -> oldest undoing renames, then cut both
        // ranges back to the recovering instruction.
        for victim in (end..self.win.rob().end).rev() {
            self.squash_entry(victim);
        }
        // Prune squashed ordinals from the ready set. Wakeup/completion
        // wheels and PRF waiter lists are pruned lazily instead: a stale
        // ordinal there (even one later reused, since positions are reused
        // after the truncation) only triggers a spurious liveness re-check —
        // every issue and completion re-validates against the live ROB
        // entry.
        self.ready.clear_range(end, self.win.rob().end);
        self.win.truncate(end);
        self.store_list.retain(|&s| s < end);
        // Borrow the recovering entry and its snapshot next to the disjoint
        // front-end fields they repair.
        let e = &self.win[pos];
        let (pc, seq, instr, resolved_taken, psrc1) = (e.pc, e.seq, e.instr, e.resolved_taken, e.psrc1);
        let snap = self.win.snapshot(pos).expect("recovering instruction has a snapshot");
        if self.trace {
            eprintln!(
                "[{}] BQ_RECOVER to snap head={} tail={} (was h={} t={})",
                self.now, snap.bq.head, snap.bq.tail, self.bq.head, self.bq.tail
            );
        }
        self.bq.recover(&snap.bq);
        self.tq.recover(&snap.tq);
        // The VQ renamer was already repaired by the squash walk (it is a
        // rename-stage structure; fetch-time snapshots do not apply).
        self.ras.restore(&snap.ras);

        // Predictor history rewinds to this branch and learns the outcome.
        if let Some(meta) = self.win.meta(pos) {
            self.predictor.recover(Self::bpc(pc), resolved_taken.unwrap_or(false), meta);
        }

        // Correct next PC.
        let target = match instr {
            Instr::Branch { target, .. } | Instr::BranchOnBq { target } => {
                if resolved_taken == Some(true) {
                    target
                } else {
                    pc + 1
                }
            }
            Instr::Jr { .. } => self.rename.read(psrc1.expect("jr src")) as u32,
            _ => pc + 1,
        };
        self.fetch_pc = target;
        self.fetch_resume_at = self.now + 1;
        self.fetch_halted = false;
        self.refill_after_recovery = true;
        if self.telem.armed() {
            self.telem.counter_add("core.recoveries", 1);
            self.telem.histogram_record("core.squash_depth", squashed);
            self.telem.trace_instant(
                "recovery",
                "pipe",
                self.now,
                vec![
                    ("pc", (pc as u64).into()),
                    ("seq", seq.into()),
                    ("target", (target as u64).into()),
                    ("squashed", squashed.into()),
                ],
            );
        }
        if self.yield_policy.on_recovery {
            self.pending_events.push_back(crate::kernel::KernelEvent::Recovery {
                cycle: self.now,
                pc,
                seq,
                target,
                squashed,
            });
        }
        if self.trace {
            eprintln!(
                "[{}] RECOVER seq={} pc={} `{}` -> target {} (diverged={:?})",
                self.now, seq, pc, instr, target, self.diverged_at
            );
        }

        // Resynchronize the fetch oracle when the diverging instruction
        // itself recovers.
        if self.diverged_at == Some(seq) {
            self.diverged_at = None;
            debug_assert_eq!(self.fetch_oracle.pc(), target, "fetch oracle resync mismatch");
        } else if self.diverged_at.is_none() && self.fetch_oracle.pc() != target {
            // A "recovery" that leaves the oracle's path can only come from
            // corrupted state (fault injection): an on-path branch resolved
            // with a wrong value. Mark fetch as diverged so the retirement
            // oracle reports the mismatch instead of the fetch-side
            // divergence tracker asserting.
            debug_assert!(self.fault.armed(), "off-oracle recovery without fault injection");
            self.diverged_at = Some(seq);
        }
    }

    /// Undoes the bookkeeping of the squashed ROB entry at `pos`.
    fn squash_entry(&mut self, pos: u64) {
        self.trace_record(pos, None);
        let victim = &self.win[pos];
        if victim.in_iq && !victim.issued {
            self.iq_count -= 1;
        }
        if victim.in_lsq {
            self.lsq_count -= 1;
        }
        if victim.has_checkpoint {
            self.checkpoints_free += 1;
        }
        match victim.instr {
            Instr::PushVq { .. } => {
                // No RMT update; roll the VQ renamer tail back and return
                // the mapping's register.
                self.vq.unrename_push();
                if let Some(p) = victim.pdest {
                    self.rename.free_phys(p);
                }
            }
            Instr::PopVq { .. } => {
                self.vq.unrename_pop();
                if let (Some(rd), Some(p), Some(prev)) = (victim.instr.dest(), victim.pdest, victim.prev_phys) {
                    self.rename.unrename(rd, p, prev);
                }
            }
            _ => {
                if let (Some(rd), Some(p), Some(prev)) = (victim.instr.dest(), victim.pdest, victim.prev_phys) {
                    self.rename.unrename(rd, p, prev);
                }
            }
        }
    }
}
