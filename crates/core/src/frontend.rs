//! Fetch stage: BTB + RAS + direction predictor, the fetch-resident BQ/TQ
//! (the paper's central mechanism — `Branch_on_BQ` / `Branch_on_TCR`
//! resolve non-speculatively when their producers have executed), BQ-miss
//! speculation, I-cache modeling, fetch-oracle divergence tracking, and the
//! context-switch macro-ops.
//!
//! Reads/writes the front half of [`Pipeline`]: `fetch_pc`,
//! `fetch_resume_at`, `fetch_halted`, `btb`, `ras`, `predictor`,
//! `confidence`, `bq`, `tq`, the tail of the instruction window `win`
//! (with its snapshot and predictor-metadata side arrays), `icache`,
//! `front_block`. The only backend state it touches is via
//! `macro_queue_op` (drained pipeline by construction).

use crate::cfd_queues::{FetchBq, FetchTq};
use crate::config::{BqMissPolicy, CheckpointPolicy};
use crate::core::CoreError;
use crate::pipeline::Pipeline;
use crate::rename::VqRenamer;
use crate::window::{DynInst, Snapshot};
use cfd_isa::Instr;
use cfd_obs::CpiComponent;
use cfd_predictor::{BranchKind, BtbEntry};

/// Result of fetching one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStop {
    Continue,
    BundleEnd,
    Bubble,
    Halt,
}

impl Pipeline {
    pub(crate) fn fetch(&mut self) -> Result<(), CoreError> {
        if self.fetch_halted || self.now < self.fetch_resume_at {
            return Ok(());
        }
        let mut fetched = 0;
        while fetched < self.cfg.width && self.win.front_len() < self.cfg.front_cap() {
            let pc = self.fetch_pc;
            let Some(instr) = self.program.fetch(pc) else {
                // Wrong-path fetch ran off the program: wait for recovery.
                return Ok(());
            };

            // Queue-full stalls (§III-C3).
            match instr {
                Instr::PushBq { .. } if self.bq.push_would_stall() => {
                    self.stats.bq_push_stall_cycles += 1;
                    self.front_block = CpiComponent::CfdStall;
                    return Ok(());
                }
                Instr::PushTq { .. } if self.tq.push_would_stall() => {
                    self.stats.tq_push_stall_cycles += 1;
                    self.front_block = CpiComponent::CfdStall;
                    return Ok(());
                }
                // Context-switch macro-ops drain the pipeline first.
                Instr::SaveBq { .. }
                | Instr::RestoreBq { .. }
                | Instr::SaveVq { .. }
                | Instr::RestoreVq { .. }
                | Instr::SaveTq { .. }
                | Instr::RestoreTq { .. }
                    if !self.win.is_empty() =>
                {
                    self.front_block = CpiComponent::Frontend;
                    return Ok(());
                }
                _ => {}
            }
            // TQ miss stalls fetch (§IV-C3).
            if matches!(instr, Instr::PopTq | Instr::PopTqBrOvf { .. }) && self.tq.pop_would_miss() {
                self.stats.tq_miss_stall_cycles += 1;
                self.front_block = CpiComponent::CfdStall;
                return Ok(());
            }
            // BQ miss stalls fetch under the stall policy (Fig. 21c).
            if self.bq_stall_precheck(&instr) {
                self.stats.bq_miss_stall_cycles += 1;
                self.front_block = CpiComponent::CfdStall;
                return Ok(());
            }

            // L1I probe: a miss bubbles fetch for the L2 latency.
            if self.cfg.model_icache && !self.mem.fetch_probe(pc as u64 * 4) {
                self.stats.icache_misses += 1;
                self.fetch_resume_at = self.now + self.cfg.hierarchy.l2_latency as u64;
                self.front_block = CpiComponent::Frontend;
                return Ok(());
            }
            let seq = self.next_seq;
            let was_diverged = self.diverged_at.is_some();
            let stop = self.fetch_instr(seq, pc, instr)?;
            self.next_seq += 1;
            fetched += 1;
            self.stats.fetched += 1;
            self.events.fetched += 1;
            if was_diverged {
                self.stats.wrong_path_fetched += 1;
            }
            match stop {
                FetchStop::Continue => {}
                FetchStop::BundleEnd => break,
                FetchStop::Bubble => {
                    self.fetch_resume_at = self.now + 2;
                    self.front_block = CpiComponent::Frontend;
                    break;
                }
                FetchStop::Halt => {
                    self.fetch_halted = true;
                    break;
                }
            }
        }
        if fetched > 0 {
            // Fetch supplied instructions this cycle: any subsequent
            // empty-ROB cycles are plain pipeline fill until something
            // blocks again.
            self.front_block = CpiComponent::Frontend;
        }
        Ok(())
    }

    /// Fetches one instruction: steps the fetch oracle, writes the record
    /// into the window's next slot, and resolves/predicts control in place.
    fn fetch_instr(&mut self, seq: u64, pc: u32, instr: Instr) -> Result<FetchStop, CoreError> {
        // Step the fetch oracle along the correct path.
        let oracle_ev = if self.diverged_at.is_none() {
            debug_assert_eq!(self.fetch_oracle.pc(), pc, "fetch oracle out of sync");
            let mut ev = None;
            let mut sink = |r: &cfd_isa::RetireEvent| ev = Some(*r);
            self.fetch_oracle.step(&mut sink).map_err(|err| CoreError::Program(err.to_string()))?;
            ev
        } else {
            None
        };

        let on_wrong_path = self.diverged_at.is_some();
        let pos = self.win.push(DynInst::new(seq, pc, instr, self.now + self.cfg.front_depth as u64, on_wrong_path));
        self.win[pos].t_fetch = self.now;
        let mut next_pc = pc + 1;
        let mut stop = FetchStop::Continue;
        let mut is_taken_control = false;

        match instr {
            Instr::Branch { target, .. } => {
                let dir = if let (true, Some(ev)) = (self.cfg.perfect.covers(pc), oracle_ev.as_ref()) {
                    ev.taken.expect("branch has outcome")
                } else {
                    // Predicted (or on the wrong path, where the oracle
                    // cannot help).
                    self.predict(pos, pc)
                };
                // Fault injection: an inverted prediction must be masked by
                // the normal misprediction-recovery machinery.
                let dir = dir
                    ^ (self.fault_at(crate::fault::FaultSite::PredictorPredict)
                        == Some(crate::fault::FaultKind::PredictorFlip));
                self.events.bpred_ops += 1;
                let e = &mut self.win[pos];
                e.fetch_taken = Some(dir);
                e.fetch_target = target;
                self.take_snapshot(pos);
                self.maybe_checkpoint(pos, pc);
                if dir {
                    next_pc = target;
                    is_taken_control = true;
                }
            }
            Instr::Jump { target } | Instr::Jal { target, .. } => {
                if let Instr::Jal { .. } = instr {
                    self.ras.push(pc + 1);
                }
                next_pc = target;
                is_taken_control = true;
            }
            Instr::Jr { .. } => {
                let predicted = self.ras.pop();
                self.win[pos].fetch_target = predicted;
                self.take_snapshot(pos);
                self.maybe_checkpoint(pos, pc);
                next_pc = predicted;
                is_taken_control = true;
            }
            Instr::PushBq { .. } => {
                let abs = self.bq.fetch_push();
                self.win[pos].bq_abs = Some(abs);
                if self.trace {
                    eprintln!("[{}] FETCH_PUSH seq={} abs={:?}", self.now, seq, Some(abs));
                }
                self.events.bq_ops += 1;
            }
            Instr::BranchOnBq { target } => {
                self.events.bq_ops += 1;
                let (abs, pred) = self.bq.fetch_pop();
                self.win[pos].bq_abs = Some(abs);
                let dir = match pred {
                    Some(p) => {
                        // Early push: timely, non-speculative branching.
                        self.stats.bq_hits += 1;
                        !p
                    }
                    None => {
                        // BQ miss.
                        self.stats.bq_misses += 1;
                        match self.cfg.bq_miss_policy {
                            BqMissPolicy::Stall => {
                                // Pre-checked in fetch(); a miss never
                                // reaches this point under the stall policy.
                                unreachable!("BQ stall is pre-checked in fetch()")
                            }
                            BqMissPolicy::Speculate => {
                                let predicted_pred =
                                    if let (true, Some(ev)) = (self.cfg.perfect.covers(pc), oracle_ev.as_ref()) {
                                        // ev.taken is the pop direction (= !predicate)
                                        !ev.taken.expect("pop outcome")
                                    } else {
                                        // The predictor predicts the pop's *taken
                                        // direction*; the predicate is its
                                        // complement (taken = !predicate under the
                                        // skip-if-false idiom). Training and
                                        // recovery also use the taken domain.
                                        let d = self.predict(pos, pc);
                                        self.events.bpred_ops += 1;
                                        !d
                                    };
                                // Fault injection: a flipped speculative-pop
                                // prediction must be caught by late-push
                                // verification.
                                let predicted_pred = predicted_pred
                                    ^ (self.fault_at(crate::fault::FaultSite::PredictorPredict)
                                        == Some(crate::fault::FaultKind::PredictorFlip));
                                if self.trace {
                                    eprintln!(
                                        "[{}] SPEC_POP seq={} abs={} pred={}",
                                        self.now, seq, abs, predicted_pred
                                    );
                                }
                                self.win[pos].spec_pop = true;
                                if abs < self.bq.tail {
                                    // A push owns this entry: link for late-push
                                    // verification.
                                    self.bq.record_spec_pop(abs, predicted_pred, seq, pos);
                                    self.win[pos].verified = false;
                                } else {
                                    // No push was ever fetched for this pop, so
                                    // the ISA ordering rules place it on the
                                    // wrong path: speculate without recording
                                    // (recording would clobber a live slot).
                                    // It retires only if the program is buggy,
                                    // which the retirement oracle flags.
                                }
                                self.take_snapshot(pos);
                                self.maybe_checkpoint(pos, pc);
                                !predicted_pred
                            }
                        }
                    }
                };
                let e = &mut self.win[pos];
                e.fetch_taken = Some(dir);
                e.fetch_target = target;
                if dir {
                    next_pc = target;
                    is_taken_control = true;
                }
            }
            Instr::MarkBq => {
                self.bq.fetch_mark();
                self.events.bq_ops += 1;
            }
            Instr::ForwardBq => {
                self.bq.fetch_forward();
                self.events.bq_ops += 1;
            }
            Instr::PushTq { .. } => {
                self.win[pos].tq_abs = Some(self.tq.fetch_push());
                self.events.tq_ops += 1;
            }
            Instr::PopTq => {
                let (abs, ovf) = self.tq.fetch_pop();
                debug_assert!(ovf.is_some(), "TQ miss pre-checked in fetch()");
                let e = &mut self.win[pos];
                e.tq_abs = Some(abs);
                e.tq_loaded_tcr = self.tq.tcr;
                self.stats.tq_hits += 1;
                self.events.tq_ops += 1;
            }
            Instr::PopTqBrOvf { target } => {
                let (abs, ovf) = self.tq.fetch_pop();
                let overflow = ovf.expect("TQ miss pre-checked in fetch()");
                let e = &mut self.win[pos];
                e.tq_abs = Some(abs);
                e.tq_loaded_tcr = self.tq.tcr;
                e.fetch_taken = Some(overflow);
                e.fetch_target = target;
                self.stats.tq_hits += 1;
                self.events.tq_ops += 1;
                if overflow {
                    next_pc = target;
                    is_taken_control = true;
                }
            }
            Instr::BranchOnTcr { target } => {
                let cont = self.tq.fetch_branch_on_tcr();
                let e = &mut self.win[pos];
                e.fetch_taken = Some(cont);
                e.fetch_target = target;
                self.events.tq_ops += 1;
                if cont {
                    next_pc = target;
                    is_taken_control = true;
                }
            }
            Instr::Halt => {
                stop = FetchStop::Halt;
            }
            Instr::SaveBq { .. }
            | Instr::RestoreBq { .. }
            | Instr::SaveVq { .. }
            | Instr::RestoreVq { .. }
            | Instr::SaveTq { .. }
            | Instr::RestoreTq { .. } => {
                self.macro_queue_op(pos, &oracle_ev);
            }
            _ => {}
        }

        // Divergence detection against the fetch oracle.
        if let Some(ev) = &oracle_ev {
            let actually_next = ev.next_pc;
            if next_pc != actually_next && self.diverged_at.is_none() {
                self.diverged_at = Some(seq);
                if self.trace {
                    eprintln!(
                        "[{}] DIVERGE seq={} pc={} `{}` chose next={} oracle next={}",
                        self.now, seq, pc, instr, next_pc, actually_next
                    );
                }
            }
        }

        // BTB modeling: taken control instructions missing from the BTB pay
        // a one-cycle misfetch bubble.
        if instr.is_control() {
            let hit = self.btb.lookup(pc as u64).is_some();
            if !hit {
                self.btb.insert(
                    pc as u64,
                    BtbEntry {
                        target: instr.direct_target().unwrap_or(self.win[pos].fetch_target),
                        kind: match instr {
                            Instr::Branch { .. } => BranchKind::Conditional,
                            Instr::BranchOnBq { .. } => BranchKind::CfdPop,
                            Instr::BranchOnTcr { .. } | Instr::PopTqBrOvf { .. } => BranchKind::CfdTcr,
                            Instr::Jr { .. } => BranchKind::Indirect,
                            _ => BranchKind::Unconditional,
                        },
                    },
                );
                if is_taken_control {
                    self.stats.btb_misfetches += 1;
                    stop = FetchStop::Bubble;
                }
            }
        }

        self.fetch_pc = next_pc;
        if is_taken_control && stop == FetchStop::Continue {
            stop = FetchStop::BundleEnd;
        }
        Ok(stop)
    }

    /// Predicts the direction of the branch at window position `pos`,
    /// keeping the predictor's metadata in the window's side array.
    fn predict(&mut self, pos: u64, pc: u32) -> bool {
        let (dir, meta) = self.predictor.predict(Self::bpc(pc));
        self.win.set_meta(pos, meta);
        dir
    }

    /// Pre-checks whether fetching `instr` would stall this cycle under the
    /// BQ-miss stall policy (the oracle must not step for a stalled fetch).
    fn bq_stall_precheck(&self, instr: &Instr) -> bool {
        matches!(instr, Instr::BranchOnBq { .. })
            && self.cfg.bq_miss_policy == BqMissPolicy::Stall
            && self.bq.pop_would_miss()
    }

    /// Records the front end's recovery snapshot for the instruction at
    /// window position `pos`.
    fn take_snapshot(&mut self, pos: u64) {
        let snap = Snapshot { bq: self.bq.snapshot(), tq: self.tq.snapshot(), ras: self.ras.snapshot() };
        self.win.set_snapshot(pos, snap);
    }

    fn maybe_checkpoint(&mut self, pos: u64, pc: u32) {
        let want = match self.cfg.checkpoint_policy {
            CheckpointPolicy::AllBranches => true,
            CheckpointPolicy::ConfidenceGuided => !self.confidence.is_confident(Self::bpc(pc)),
            CheckpointPolicy::None => false,
        };
        if want && self.checkpoints_free > 0 {
            self.checkpoints_free -= 1;
            self.win[pos].has_checkpoint = true;
            self.stats.checkpoints_allocated += 1;
            self.events.checkpoint_ops += 1;
        } else if want {
            self.stats.checkpoints_denied += 1;
        } else {
            self.stats.checkpoints_unwanted += 1;
        }
    }

    /// Context-switch macro-ops (`Save_*`/`Restore_*`): the pipeline is
    /// drained (enforced by the caller); execute the operation through the
    /// fetch oracle and resynchronize the fetch-side queue structures.
    fn macro_queue_op(&mut self, pos: u64, oracle_ev: &Option<cfd_isa::RetireEvent>) {
        let e = &mut self.win[pos];
        e.done = true;
        e.dispatched = true;
        e.ready_at = self.now;
        let instr = e.instr;
        if oracle_ev.is_none() {
            // Wrong path: will be squashed; do nothing microarchitectural.
            return;
        }
        match instr {
            Instr::RestoreBq { .. } => {
                let contents = self.fetch_oracle.bq.contents();
                self.bq = FetchBq::new(self.cfg.bq_size);
                for (k, p) in contents.iter().enumerate() {
                    let abs = self.bq.fetch_push();
                    debug_assert_eq!(abs, k as u64);
                    self.bq.execute_push(abs, *p);
                    self.bq.retire_push();
                }
            }
            Instr::RestoreTq { .. } => {
                let contents = self.fetch_oracle.tq.contents();
                let tcr = self.fetch_oracle.tq.tcr();
                self.tq = FetchTq::new(self.cfg.tq_size, self.cfg.tq_trip_bits);
                for entry in contents {
                    let abs = self.tq.fetch_push();
                    let v = if entry.overflow { (self.tq.size() as i64) << 33 } else { entry.trip_count as i64 };
                    self.tq.execute_push(abs, v);
                    self.tq.retire_push();
                }
                self.tq.tcr = tcr;
                self.tq.committed_tcr = tcr;
            }
            Instr::RestoreVq { .. } => {
                // Free the physical registers still held by the old VQ's
                // live mappings (they are normally freed when their pops
                // retire, which will now never happen).
                while !self.vq.pop_would_underflow() {
                    let p = self.vq.rename_pop();
                    self.rename.free_phys(p);
                }
                let contents = self.fetch_oracle.vq.contents();
                self.vq = VqRenamer::new(self.cfg.vq_size);
                for v in contents {
                    // The pipeline is drained here, so at most vq_size live
                    // registers are needed; the PRF is sized well above that.
                    let p = self
                        .rename
                        .alloc_phys()
                        .expect("PRF exhausted during Restore_VQ; prf_size must exceed 32 + vq_size");
                    self.prf_write(p, v, self.now, None);
                    self.vq.rename_push(p);
                    self.vq.retire_push();
                }
            }
            _ => {}
        }
        // Timing: drained + serialized; charge a latency proportional to
        // the queue length by delaying fetch.
        self.fetch_resume_at = self.now + 4;
    }
}
