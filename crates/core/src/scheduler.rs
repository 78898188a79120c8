//! Issue/execute stage: event-driven wakeup, FU arbitration, and the
//! completion wheel.
//!
//! The scheduler never polls the IQ. Dispatch registers each backend
//! instruction via [`Pipeline::register_or_ready`]: instructions with all
//! sources computed go straight to the ready set (a [`ReadySet`] bitset
//! over ROB positions, scanned oldest-first from the ROB head); the rest park
//! either on a physical register's waiter list (value not computed yet) or
//! on the `wakeup_wheel` bucket of the cycle the value arrives. Producer
//! writes go through [`Pipeline::prf_write`], which drains waiter lists
//! into the wheel, and `issue` drains due wheel buckets before selecting.
//!
//! Both wheels are [`EventRing`]s: cycle-indexed buckets (`cycle & mask`)
//! that grow in place when an event lands beyond the horizon. An event
//! written for a cycle the ring has already drained fires at the next
//! drain, exactly as an ordered map keyed by cycle would deliver it.
//! Buckets and waiter lists link their entries through shared node pools
//! ([`ListPool`]), and the ready bitset and the per-cycle scratch lists
//! keep their capacity across cycles, so once the pipeline has warmed up
//! scheduling allocates nothing.
//!
//! Timing is identical to a per-cycle polling scheduler by construction:
//! `issue` re-validates the full polling predicate (liveness + source
//! readiness) on every candidate it examines, so a stale ordinal — squashed,
//! reused after recovery, or re-blocked because fault injection pointed it
//! at a recycled register — is dropped or re-registered, never issued early.
//! Completion replaces the `exec_list` rescan with `completion_wheel`
//! buckets keyed by each instruction's `ready_at`.

use crate::fault::{FaultKind, FaultSite};
use crate::lsq::ForwardState;
use crate::pipeline::{extract, Pipeline};
use crate::rename::join_taint;
use crate::seq_list::{ListPool, SeqList};
use cfd_isa::{eval_alu, Instr, Src2};

/// Function-unit class an instruction competes for at issue (the paper's
/// Sandy-Bridge-class port model). One classification used for both the
/// availability check and the port-count bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuClass {
    /// Simple ALU ops (including CFD queue pushes/pops executed as ALU ops).
    Simple,
    /// Complex ALU ops (mul/div class).
    Complex,
    /// Load ports (loads and non-binding prefetches).
    Load,
    /// Store (address-generation) ports.
    Store,
    /// Branch-resolution units.
    Branch,
    /// Not port-limited (never reaches the IQ in practice).
    Unbounded,
}

impl FuClass {
    /// Index into the per-cycle port-usage table (`None` = unlimited).
    fn slot(self) -> Option<usize> {
        match self {
            FuClass::Simple => Some(0),
            FuClass::Complex => Some(1),
            FuClass::Load => Some(2),
            FuClass::Store => Some(3),
            FuClass::Branch => Some(4),
            FuClass::Unbounded => None,
        }
    }
}

/// The single FU-classification map (availability check and port bump both
/// go through this).
pub(crate) fn fu_class(instr: &Instr) -> FuClass {
    match instr {
        Instr::Alu { op, .. } if op.is_complex() => FuClass::Complex,
        Instr::Alu { .. }
        | Instr::Li { .. }
        | Instr::PushBq { .. }
        | Instr::PushVq { .. }
        | Instr::PopVq { .. }
        | Instr::PushTq { .. } => FuClass::Simple,
        Instr::Load { .. } | Instr::Prefetch { .. } => FuClass::Load,
        Instr::Store { .. } => FuClass::Store,
        Instr::Branch { .. } | Instr::Jr { .. } => FuClass::Branch,
        _ => FuClass::Unbounded,
    }
}

/// Buckets an [`EventRing`] starts with: twice the default hierarchy's
/// full-miss load latency (≈250 cycles), so a ring grows only under fault
/// injection or a slower configured memory.
const RING_INITIAL_BUCKETS: usize = 512;

/// A cycle-indexed event wheel: the bucket of cycle `c` is
/// `buckets[c & mask]`, valid for cycles in `[next, next + len)`.
///
/// Delivery order matches an ordered map keyed by cycle: [`drain_due`]
/// yields every event due by `now`, earliest cycle first and in push order
/// within a cycle. An event pushed for a cycle before `next` (already
/// drained) lands in the bucket of `next`, the earliest one still pending,
/// so it fires at the next drain. An event beyond the horizon grows the
/// ring in place to the next power of two that holds it.
///
/// Buckets are [`SeqList`]s over one shared node pool, so the ring stops
/// allocating once the number of pending events has reached its peak.
///
/// [`drain_due`]: EventRing::drain_due
#[derive(Debug, Clone)]
pub(crate) struct EventRing {
    buckets: Vec<SeqList>,
    pool: ListPool,
    /// First cycle not yet drained.
    next: u64,
}

impl EventRing {
    pub(crate) fn new() -> EventRing {
        EventRing::with_buckets(RING_INITIAL_BUCKETS)
    }

    fn with_buckets(n: usize) -> EventRing {
        debug_assert!(n.is_power_of_two());
        EventRing { buckets: vec![SeqList::EMPTY; n], pool: ListPool::new(), next: 0 }
    }

    /// The index of the bucket that holds events for `cycle`, growing the
    /// ring when `cycle` lies beyond the horizon.
    fn bucket(&mut self, cycle: u64) -> usize {
        let cycle = cycle.max(self.next);
        let ahead = cycle - self.next;
        if ahead >= self.buckets.len() as u64 {
            self.grow(ahead + 1);
        }
        let mask = self.buckets.len() as u64 - 1;
        (cycle & mask) as usize
    }

    /// Schedules `seq` at `cycle`.
    pub(crate) fn push(&mut self, cycle: u64, seq: u64) {
        let b = self.bucket(cycle);
        self.pool.push(&mut self.buckets[b], seq);
    }

    /// Schedules every ordinal of `seqs` at `cycle`, in order.
    pub(crate) fn extend(&mut self, cycle: u64, seqs: impl IntoIterator<Item = u64>) {
        let b = self.bucket(cycle);
        for seq in seqs {
            self.pool.push(&mut self.buckets[b], seq);
        }
    }

    /// Resizes to at least `span` buckets. The pending window keeps its
    /// cycles: the new length is a multiple of the old one, so each pending
    /// bucket either stays put or moves to a slot past the old end (which
    /// is empty), and one swap per bucket relocates it.
    fn grow(&mut self, span: u64) {
        let old = self.buckets.len();
        let new = (span as usize).next_power_of_two().max(2 * old);
        self.buckets.resize(new, SeqList::EMPTY);
        for k in 0..old as u64 {
            let cycle = self.next + k;
            let (from, to) = ((cycle as usize) & (old - 1), (cycle as usize) & (new - 1));
            if from != to {
                self.buckets.swap(from, to);
            }
        }
    }

    /// Appends every event due by `now` to `out` (earliest cycle first) and
    /// advances the ring past `now`.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<u64>) {
        if now < self.next {
            return;
        }
        let len = self.buckets.len() as u64;
        let span = (now - self.next + 1).min(len);
        for k in 0..span {
            let slot = ((self.next + k) & (len - 1)) as usize;
            self.pool.drain_into(&mut self.buckets[slot], out);
        }
        self.next = now + 1;
    }
}

/// The scheduler's ready queue: one bit per ROB slot (`rob_seq & mask`,
/// over a power-of-two capacity no smaller than the ROB). Live ROB
/// ordinals span at most `rob_size` consecutive values, so they map to
/// distinct bits, and a scan from the ROB head's slot with
/// `trailing_zeros` visits them oldest-first across wrap-around.
#[derive(Debug, Clone)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    mask: u64,
}

impl ReadySet {
    pub(crate) fn new(rob_size: usize) -> ReadySet {
        let cap = rob_size.next_power_of_two().max(64);
        ReadySet { words: vec![0; cap / 64], mask: cap as u64 - 1 }
    }

    #[inline]
    fn locate(&self, seq: u64) -> (usize, u64) {
        let slot = seq & self.mask;
        ((slot >> 6) as usize, 1u64 << (slot & 63))
    }

    pub(crate) fn insert(&mut self, seq: u64) {
        let (w, bit) = self.locate(seq);
        self.words[w] |= bit;
    }

    pub(crate) fn remove(&mut self, seq: u64) {
        let (w, bit) = self.locate(seq);
        self.words[w] &= !bit;
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (w, bit) = self.locate(seq);
        self.words[w] & bit != 0
    }

    /// Removes every ordinal in `[from, to)` (a squashed range).
    pub(crate) fn clear_range(&mut self, from: u64, to: u64) {
        for seq in from..to {
            self.remove(seq);
        }
    }

    /// The oldest member in `[from, end)`, for a window no wider than the
    /// capacity. Slots and ordinals share their low six bits (the capacity
    /// is a multiple of 64), so the scan steps whole words.
    pub(crate) fn next_in(&self, mut from: u64, end: u64) -> Option<u64> {
        while from < end {
            let (w, _) = self.locate(from);
            let bits = self.words[w] >> (from & 63);
            if bits != 0 {
                let seq = from + u64::from(bits.trailing_zeros());
                return (seq < end).then_some(seq);
            }
            from = (from | 63) + 1;
        }
        None
    }
}

impl Pipeline {
    // ------------------------------------------------------------------
    // Wakeup
    // ------------------------------------------------------------------

    /// Places a dispatched backend instruction under scheduler tracking:
    /// into the ready set when every source is computed, otherwise parked on
    /// its first blocking source (waiter list when the value has no
    /// completion time yet, wakeup wheel when it does). The readiness
    /// predicate is exactly the polling scheduler's: stores wait on address
    /// readiness alone.
    pub(crate) fn register_or_ready(&mut self, rob_seq: u64) {
        if !self.win.in_rob(rob_seq) {
            return;
        }
        let (psrc1, psrc2, is_store, live) = {
            let e = &self.win[rob_seq];
            let is_store = matches!(e.instr, Instr::Store { .. });
            (e.psrc1, e.psrc2, is_store, e.dispatched && !e.issued && e.in_iq)
        };
        if !live {
            return;
        }
        let now = self.now;
        let srcs = [psrc1, if is_store { None } else { psrc2 }];
        for p in srcs.into_iter().flatten() {
            if !self.rename.is_ready(p, now) {
                let at = self.rename.ready_at(p);
                if at == u64::MAX {
                    self.rename.add_waiter(p, rob_seq);
                } else {
                    self.wakeup_wheel.push(at, rob_seq);
                }
                return;
            }
        }
        self.ready.insert(rob_seq);
    }

    /// Moves every wakeup event due by now into the ready queue. A
    /// re-registration parks only on cycles after now, so one drain
    /// delivers every due event.
    fn drain_wakeups(&mut self) {
        let mut batch = std::mem::take(&mut self.wake_batch);
        self.wakeup_wheel.drain_due(self.now, &mut batch);
        self.sched_wakeup_events += batch.len() as u64;
        for &rob_seq in &batch {
            self.register_or_ready(rob_seq);
        }
        batch.clear();
        self.wake_batch = batch;
    }

    // ------------------------------------------------------------------
    // Issue (select)
    // ------------------------------------------------------------------

    pub(crate) fn issue(&mut self) {
        self.drain_wakeups();
        // What a polling scheduler would have scanned this cycle.
        self.sched_poll_equiv += self.iq_count as u64;
        let mut issued = 0usize;
        let mut in_use = [0usize; 5];
        let limits = [
            self.cfg.n_alu,
            self.cfg.n_complex,
            self.cfg.n_load_ports,
            self.cfg.n_store_ports,
            self.cfg.n_branch_units,
        ];
        let now = self.now;

        // Oldest-first select over the ready set, scanned in place from the
        // ROB head. Issue never triggers recovery, so the ROB window is
        // fixed for the scan, and nothing inside the loop inserts into the
        // set: a candidate's bit is cleared as it leaves, and re-blocked
        // candidates are re-registered after the scan.
        let rob = self.win.rob();
        let (mut cursor, end) = (rob.start, rob.end);
        let mut reregister = std::mem::take(&mut self.reregister);
        while issued < self.cfg.issue_width {
            let Some(seq) = self.ready.next_in(cursor, end) else { break };
            cursor = seq + 1;
            self.sched_ready_checks += 1;
            // Liveness: recovery prunes the ready set, but a pruned-then-
            // reused ordinal or a lazily-dropped wheel entry can still
            // surface here. The checks below make such entries inert.
            if !self.win.in_rob(seq) {
                self.ready.remove(seq);
                continue;
            }
            {
                let e = &self.win[seq];
                if !(e.dispatched && !e.issued && e.in_iq) {
                    self.ready.remove(seq);
                    continue;
                }
                debug_assert!(e.needs_backend());
            }
            // Source readiness, re-validated with the polling predicate:
            // a register can become un-ready after this entry was enqueued
            // (fault injection can point an operand at a register that a
            // younger instruction re-allocates). Stores issue on address
            // readiness alone (split agen/data, like a real LSQ): the data
            // may arrive later and is checked at forwarding/retire time.
            let e = &self.win[seq];
            let is_store = matches!(e.instr, Instr::Store { .. });
            let ready = e.psrc1.is_none_or(|p| self.rename.is_ready(p, now))
                && (is_store || e.psrc2.is_none_or(|p| self.rename.is_ready(p, now)));
            if !ready {
                self.ready.remove(seq);
                reregister.push(seq);
                continue;
            }
            // FU availability.
            let class = fu_class(&e.instr);
            let fu_ok = class.slot().is_none_or(|k| in_use[k] < limits[k]);
            if !fu_ok {
                continue; // stays in the ready queue for next cycle
            }
            // Loads: conservative disambiguation (all older stores have
            // computed addresses; exact-match forwarding; partial overlap
            // waits for the store to drain). The one store-list probe
            // decides both whether the load issues and where its value
            // comes from.
            let forward = if matches!(e.instr, Instr::Load { .. }) {
                match self.load_forward_state(seq) {
                    ForwardState::MustWait => continue,
                    f => f,
                }
            } else {
                ForwardState::Memory
            };

            // Issue.
            if let Some(k) = class.slot() {
                in_use[k] += 1;
            }
            if !self.execute_at(seq, forward) {
                // Transient structural refusal (e.g. MSHRs full): retry.
                if let Some(k) = class.slot() {
                    in_use[k] -= 1;
                }
                continue;
            }
            issued += 1;
            self.stats.issued += 1;
            self.ready.remove(seq);
            let e = &mut self.win[seq];
            self.completion_wheel.push(e.ready_at, seq);
            if e.on_wrong_path {
                self.stats.wrong_path_issued += 1;
            }
            self.events.iq_wakeups += 1;
            if e.in_iq {
                e.in_iq = false;
                self.iq_count -= 1;
            }
        }
        for &seq in &reregister {
            self.register_or_ready(seq);
        }
        reregister.clear();
        self.reregister = reregister;
    }

    /// Computes the instruction at window position `pos` and schedules its
    /// completion; a load takes its value as `forward` (its store-list
    /// probe this cycle) says. Returns false when a structural resource
    /// (MSHR) refused it this cycle.
    fn execute_at(&mut self, pos: u64, forward: ForwardState) -> bool {
        let now = self.now;
        let (instr, pc, psrc1, psrc2) = {
            let e = &self.win[pos];
            (e.instr, e.pc, e.psrc1, e.psrc2)
        };
        let v1 = psrc1.map(|p| self.rename.read(p)).unwrap_or(0);
        let v2 = psrc2.map(|p| self.rename.read(p)).unwrap_or(0);
        let t1 = psrc1.and_then(|p| self.rename.taint(p));
        let t2 = psrc2.and_then(|p| self.rename.taint(p));
        let in_taint = join_taint(t1, t2);
        self.events.regfile_reads += psrc1.is_some() as u64 + psrc2.is_some() as u64;

        let mut value = 0i64;
        let mut out_taint = in_taint;
        let latency: u64;
        match instr {
            Instr::Alu { op, src2, .. } => {
                let b = match src2 {
                    Src2::Reg(_) => v2,
                    Src2::Imm(imm) => imm,
                };
                value = eval_alu(op, v1, b);
                latency = if op.is_complex() {
                    self.events.alu_complex += 1;
                    if matches!(op, cfd_isa::AluOp::Div | cfd_isa::AluOp::Rem) {
                        20
                    } else {
                        3
                    }
                } else {
                    self.events.alu_simple += 1;
                    1
                };
            }
            Instr::Li { imm, .. } => {
                value = imm;
                out_taint = None;
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::Load { offset, width, signed, .. } => {
                let addr = (v1 as u64).wrapping_add(offset as u64);
                self.events.lsq_ops += 1;
                // Store-to-load forwarding.
                match forward {
                    ForwardState::Forward { data, taint } => {
                        self.stats.lsq_forwards += 1;
                        value = extract(data, width, signed);
                        // The forwarded value carries the store data's taint.
                        out_taint = join_taint(in_taint, taint);
                        latency = 2;
                    }
                    ForwardState::Memory => {
                        let res = self.mem.data_access(pc as u64 * 4, addr, false, now);
                        if res.mshr_full {
                            return false;
                        }
                        value = self.oracle.mem.read(addr, width, signed);
                        out_taint = join_taint(in_taint, Some(res.level));
                        // Fault injection: a delayed memory response is a
                        // timing-only perturbation and must be masked.
                        let extra = match self.fault_at(FaultSite::LoadAccess) {
                            Some(FaultKind::MemDelay(n)) => n,
                            _ => 0,
                        };
                        latency = res.latency as u64 + extra;
                    }
                    ForwardState::MustWait => unreachable!("a waiting load does not issue"),
                }
                self.win[pos].eff_addr = Some(addr);
            }
            Instr::Prefetch { offset, .. } => {
                let addr = (v1 as u64).wrapping_add(offset as u64);
                let res = self.mem.data_access(pc as u64 * 4, addr, false, now);
                if res.mshr_full {
                    return false;
                }
                self.win[pos].eff_addr = Some(addr);
                latency = 1; // non-binding: completes immediately
                self.events.lsq_ops += 1;
            }
            Instr::Store { offset, .. } => {
                // Address generation only; data is read from the PRF when a
                // load forwards from this store (or implicitly at retire via
                // the oracle).
                let addr = (v1 as u64).wrapping_add(offset as u64);
                self.win[pos].eff_addr = Some(addr);
                latency = 1;
                self.events.lsq_ops += 1;
            }
            Instr::Branch { .. } | Instr::Jr { .. } => {
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::PushBq { .. } | Instr::PushTq { .. } => {
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::PushVq { .. } => {
                value = v1;
                latency = 1;
                self.events.alu_simple += 1;
                self.events.vq_ops += 1;
            }
            Instr::PopVq { .. } => {
                value = v1;
                latency = 1;
                self.events.alu_simple += 1;
                self.events.vq_ops += 1;
            }
            _ => unreachable!("execute_at on a fetch-resolved instruction"),
        }

        let pdest = {
            let e = &mut self.win[pos];
            e.issued = true;
            e.t_issue = now;
            e.ready_at = now + latency;
            e.taint = out_taint;
            e.pdest
        };
        if let Some(p) = pdest {
            // The waiter-draining write: consumers parked on `p` move to
            // the wakeup wheel at `ready_at`.
            self.prf_write(p, value, now + latency, out_taint);
            self.events.regfile_writes += 1;
        }
        true
    }

    // ------------------------------------------------------------------
    // Complete (writeback / resolve)
    // ------------------------------------------------------------------

    pub(crate) fn complete(&mut self) {
        // Drain every completion bucket due by now, oldest-first (recovery
        // squashes younger ones). A bucket entry is only a *hint*: the
        // liveness check below drops ordinals that were squashed (and
        // possibly reused) after their instruction issued.
        let mut completions = std::mem::take(&mut self.completions);
        self.completion_wheel.drain_due(self.now, &mut completions);
        completions.sort_unstable();
        for k in 0..completions.len() {
            let pos = completions[k];
            if !self.win.in_rob(pos) {
                continue;
            }
            let e = &mut self.win[pos];
            if !(e.issued && !e.done && e.ready_at <= self.now) {
                continue;
            }
            e.done = true;
            e.t_complete = self.now;
            let instr = e.instr;
            let truncated = match instr {
                Instr::Branch { .. } | Instr::Jr { .. } => self.resolve_branch(pos),
                Instr::PushBq { .. } => self.execute_push_bq(pos),
                Instr::PushTq { .. } => {
                    let abs = e.tq_abs.expect("tq push has index");
                    let src = e.psrc1.expect("tq push has source");
                    let mut v = self.rename.read(src);
                    // Fault injection at the TQ write port: an off-by-one
                    // trip count makes `Branch_on_TCR` run the loop a wrong
                    // number of times (oracle mismatch at retire).
                    if self.fault_at(FaultSite::TqExecutePush) == Some(FaultKind::TqCorrupt) {
                        v = v.wrapping_add(1);
                    }
                    self.tq.execute_push(abs, v);
                    self.events.tq_ops += 1;
                    false
                }
                _ => false,
            };
            if truncated {
                // Immediate recovery truncated the ROB: older survivors
                // (e.g. instructions between a late push and its speculative
                // pop) must be re-examined next cycle, exactly as the old
                // exec_list kept unprocessed entries. Squashed ordinals in
                // the requeued tail are dropped by the liveness check then.
                self.completion_wheel.extend(self.now + 1, completions[k + 1..].iter().copied());
                break;
            }
        }
        completions.clear();
        self.completions = completions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::prop_check;
    use std::collections::{BTreeMap, BTreeSet};

    /// The ordered-map wheel the ring replaces: drains every key `<= now`,
    /// earliest first.
    fn map_drain(map: &mut BTreeMap<u64, Vec<u64>>, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(entry) = map.first_entry() {
            if *entry.key() > now {
                break;
            }
            out.extend(entry.remove());
        }
        out
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn event_beyond_the_horizon_fires_on_its_exact_cycle() {
        for (ahead, start) in [(5, 0), (3, 1000), (1500, 0), (1_000_003, 7)] {
            let mut ring = EventRing::with_buckets(4);
            ring.push(start + 1, 1);
            ring.push(start + ahead, 2);
            ring.push(start + 2, 3);
            let mut out = Vec::new();
            for now in start..=start + ahead {
                ring.drain_due(now, &mut out);
                let want: &[u64] = match now - start {
                    1 => &[1],
                    2 => &[3],
                    a if a == ahead => &[2],
                    _ => &[],
                };
                assert_eq!(out, want, "ahead {ahead}, cycle {now}");
                out.clear();
            }
        }
    }

    #[test]
    fn ring_matches_an_ordered_map_drain_for_drain() {
        // Each simulated cycle mirrors the stage order: events written
        // before `issue` (commit/complete, possibly for cycles already
        // drained), the `issue` drain, then writes after it (dispatch's
        // `Jal` link and `Restore_VQ` write `ready_at = now`; sampled
        // reconstruction writes cycle 0 from a later clock).
        prop_check!(64, |rng| {
            let mut ring = EventRing::with_buckets(1 << rng.range_u64(1, 6));
            let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            let mut now = rng.range_u64(0, 50);
            let mut seq = 0u64;
            let mut out = Vec::new();
            for _ in 0..200 {
                for phase in 0..2 {
                    for _ in 0..rng.range_u64(0, 4) {
                        let at = match rng.range_u64(0, 6) {
                            0 => 0,
                            1 => now.saturating_sub(rng.range_u64(0, 3)),
                            2 => now + rng.range_u64(40, 300),
                            _ => now + rng.range_u64(1, 8),
                        };
                        ring.push(at, seq);
                        map.entry(at).or_default().push(seq);
                        seq += 1;
                    }
                    if phase == 0 {
                        ring.drain_due(now, &mut out);
                        assert_eq!(sorted(std::mem::take(&mut out)), sorted(map_drain(&mut map, now)), "cycle {now}");
                    }
                }
                // Mostly single steps; sometimes a jump (a restored or
                // reconstructed pipeline's clock).
                now += if rng.range_u64(0, 20) == 0 { rng.range_u64(2, 600) } else { 1 };
            }
        });
    }

    #[test]
    fn growth_keeps_pending_cycles() {
        let mut ring = EventRing::with_buckets(8);
        let mut out = Vec::new();
        ring.drain_due(13, &mut out); // window now starts at 14
        for c in 14..22 {
            ring.push(c, c);
        }
        ring.push(14 + 40, 99); // forces growth with every bucket pending
        assert!(ring.buckets.len() >= 64);
        for now in 14..=54 {
            ring.drain_due(now, &mut out);
            let want: &[u64] = match now {
                14..=21 => &[now],
                54 => &[99],
                _ => &[],
            };
            assert_eq!(out, want, "cycle {now}");
            out.clear();
        }
    }

    /// Oldest-first scan of the live window `[head, tail)`.
    fn scan(set: &ReadySet, head: u64, tail: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = head;
        while let Some(seq) = set.next_in(cursor, tail) {
            out.push(seq);
            cursor = seq + 1;
        }
        out
    }

    #[test]
    fn ready_set_scans_oldest_first_across_wraparound() {
        for rob_size in [168usize, 512] {
            prop_check!(32, |rng| {
                let mut set = ReadySet::new(rob_size);
                let mut reference: BTreeSet<u64> = BTreeSet::new();
                // Start near a slot wrap so the window straddles it early.
                let mut head = rng.range_u64(0, 4096);
                let mut tail = head;
                for _ in 0..4000 {
                    // Dispatch outweighs retire and squash, so the window
                    // mostly runs full while its slots wrap several times.
                    match rng.weighted(&[8, 3, 3, 2, 1]) {
                        // Dispatch: the window grows up to the ROB size.
                        0 if tail - head < rob_size as u64 => {
                            if rng.bool() {
                                set.insert(tail);
                                reference.insert(tail);
                            }
                            tail += 1;
                        }
                        // Wakeup of a live ordinal.
                        1 if tail > head => {
                            let s = rng.range_u64(head, tail);
                            set.insert(s);
                            reference.insert(s);
                        }
                        // Issue removes a member.
                        2 => {
                            if let Some(&s) = reference.iter().nth(rng.range_usize(0, reference.len().max(1))) {
                                set.remove(s);
                                reference.remove(&s);
                            }
                        }
                        // Retire: the head leaves (never while ready).
                        3 if tail > head && !reference.contains(&head) => head += 1,
                        // Recovery squashes a youngest range.
                        4 if tail > head => {
                            let keep = rng.range_u64(tail.saturating_sub(8).max(head + 1), tail + 1);
                            set.clear_range(keep, tail);
                            reference.retain(|&s| s < keep);
                            tail = keep;
                        }
                        _ => {}
                    }
                    let want: Vec<u64> = reference.iter().copied().collect();
                    assert_eq!(scan(&set, head, tail), want, "rob {rob_size} window [{head}, {tail})");
                }
            });
        }
    }
}
