//! Dispatch stage: decode/rename and ROB/IQ/LSQ allocation.
//!
//! Takes the oldest front-pipe entry of the instruction window once the
//! front-pipe delay elapses, renames its sources and destinations in place
//! through [`RenameState`](crate::rename::RenameState) and the VQ renamer,
//! moves it into the ROB by advancing the window's dispatch cursor (its
//! position is its dense `rob_seq` ordinal), and hands backend
//! instructions to the scheduler by registering them for event-driven
//! wakeup ([`Pipeline::register_or_ready`]). Fetch-resolved instructions
//! complete here. Also re-verifies speculative BQ pops whose push executed
//! while they sat in the front pipe.

use crate::fault::{FaultKind, FaultSite};
use crate::pipeline::{taint_from_index, Pipeline};
use crate::rename::PhysReg;
use cfd_isa::Instr;

impl Pipeline {
    pub(crate) fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(pos) = self.win.front_head() else { return };
            let front = &self.win[pos];
            if front.dispatch_at > self.now {
                return;
            }
            if self.win.rob_len() >= self.cfg.rob_size {
                return;
            }
            let needs_backend = front.needs_backend();
            if needs_backend && self.iq_count >= self.cfg.iq_size {
                return;
            }
            let is_mem = front.is_mem_op();
            if is_mem && self.lsq_count >= self.cfg.lsq_size {
                return;
            }
            // VQ renamer hazards.
            match front.instr {
                Instr::PushVq { .. } if self.vq.push_would_stall() => return,
                Instr::PopVq { .. } if self.vq.pop_would_underflow() => return,
                _ => {}
            }
            // Register renaming: guarantee a free physical register up
            // front so no rename below can fail after mutating queue state.
            if self.rename.free_regs() < 1 {
                return;
            }
            // Rename in place.
            let instr = front.instr;
            let (s1, s2) = instr.sources();
            let psrc1 = s1.map(|r| self.rename.map(r));
            let psrc2 = s2.map(|r| self.rename.map(r));
            let e = &mut self.win[pos];
            e.psrc1 = psrc1;
            e.psrc2 = psrc2;
            match instr {
                Instr::PushVq { .. } => {
                    let Some(p) = self.rename.alloc_phys() else { return };
                    self.win[pos].pdest = Some(p);
                    self.vq.rename_push(p);
                    self.events.vq_ops += 1;
                }
                Instr::PopVq { .. } => {
                    // Source comes from the VQ renamer head (the push's
                    // physical register); the destination renames normally.
                    // `pop_vq r0` is ISA-legal (consume and discard): it
                    // still pops the mapping but writes no register.
                    let mut vq_src = self.vq.rename_pop();
                    self.win[pos].vq_free = Some(vq_src);
                    // Fault injection at the VQ rename map: the pop latches
                    // a different physical register than its push wrote.
                    // The wrong value either reaches control flow (oracle
                    // mismatch), wedges on a never-ready register
                    // (watchdog), or is overwritten downstream (masked —
                    // committed memory comes from the retire oracle). The
                    // free at retirement uses the true mapping (`vq_free`)
                    // either way.
                    if self.fault_at(FaultSite::VqRenamePop) == Some(FaultKind::VqRemapCorrupt) {
                        vq_src = (vq_src ^ 1) % self.cfg.prf_size as PhysReg;
                    }
                    self.win[pos].psrc1 = Some(vq_src);
                    self.events.vq_ops += 1;
                    if let Some(rd) = instr.dest() {
                        let Some((p, prev)) = self.rename.rename_dest(rd) else { return };
                        let e = &mut self.win[pos];
                        e.pdest = Some(p);
                        e.prev_phys = Some(prev);
                    }
                }
                _ => {
                    if let Some(rd) = instr.dest() {
                        let Some((p, prev)) = self.rename.rename_dest(rd) else { return };
                        let e = &mut self.win[pos];
                        e.pdest = Some(p);
                        e.prev_phys = Some(prev);
                    }
                }
            }
            // Join the ROB: the entry's position is its `rob_seq`.
            let rob_seq = self.win.dispatch();
            debug_assert_eq!(rob_seq, pos);
            let e = &mut self.win[pos];
            e.dispatched = true;
            e.t_dispatch = self.now;
            self.events.decoded += 1;
            self.events.renamed += 1;
            if needs_backend {
                e.in_iq = true;
                self.iq_count += 1;
                self.events.iq_writes += 1;
            } else {
                // Fetch-resolved instructions complete at dispatch.
                e.done = true;
                e.ready_at = self.now;
                e.t_complete = self.now;
                if let (Instr::Jal { .. }, Some(p)) = (instr, e.pdest) {
                    // Link value is known statically.
                    let link = (e.pc + 1) as i64;
                    self.prf_write(p, link, self.now, None);
                    self.events.regfile_writes += 1;
                }
            }
            if is_mem {
                self.win[pos].in_lsq = true;
                self.lsq_count += 1;
                if matches!(instr, Instr::Store { .. }) {
                    self.store_list.push_back(rob_seq);
                }
            }
            self.events.rob_ops += 1;
            let spec_pop_unverified = self.win[pos].spec_pop && !self.win[pos].verified;
            if needs_backend {
                // Hand the instruction to the scheduler: straight to the
                // ready queue, or parked on its first blocking source.
                self.register_or_ready(rob_seq);
            }
            // The corrected path reached the ROB: misprediction refill over.
            self.refill_after_recovery = false;
            // A late push may have executed while this speculative pop sat
            // in the front pipe, where the push's verification skipped it;
            // verify against the BQ entry now.
            if spec_pop_unverified && self.verify_spec_pop_at_dispatch(pos) {
                return; // recovery squashed the front pipe
            }
        }
    }

    /// Re-checks a just-dispatched speculative pop at window position `pos`
    /// against its BQ entry. Returns true when a failed verification
    /// triggered immediate recovery.
    fn verify_spec_pop_at_dispatch(&mut self, pos: u64) -> bool {
        let abs = self.win[pos].bq_abs.expect("spec pop has a BQ index");
        let Some((predicate, taint_code)) = self.bq.peek_entry_tainted(abs) else { return false };
        let e = &mut self.win[pos];
        e.verified = true;
        e.taint = taint_from_index(taint_code);
        let spec_taken = e.fetch_taken.expect("spec pop chose a direction");
        let actual_taken = !predicate;
        if spec_taken == actual_taken {
            self.release_checkpoint(pos);
            return false;
        }
        // Degenerate pop: both directions continue at the same PC (see
        // `execute_push_bq`) — the fetched path is already correct.
        if let Instr::BranchOnBq { target } = e.instr {
            if target == e.pc + 1 {
                e.resolved_taken = Some(actual_taken);
                self.release_checkpoint(pos);
                return false;
            }
        }
        self.stats.bq_spec_recoveries += 1;
        e.mispredict = true;
        e.resolved_taken = Some(actual_taken);
        let truncated = self.begin_recovery(pos);
        self.release_checkpoint(pos);
        truncated
    }
}
