//! Register renaming: RMT, freelist, physical register file, VQ renamer.
//!
//! The PRF holds *values* (the simulator is execute-at-execute), readiness
//! cycles, and the memory-level taint used for the paper's "mispredictions
//! fed by L1/L2/L3/MEM" breakdowns (Fig. 2a, 25b).
//!
//! The VQ renamer implements §IV-B: a circular buffer of physical-register
//! mappings that links each `Pop_VQ` to its `Push_VQ` through the existing
//! PRF, leaving the backend untouched.

use crate::seq_list::{ListPool, SeqList};
use cfd_isa::{Reg, NUM_REGS};
use cfd_mem::MemLevel;
use std::collections::VecDeque;

/// A physical register id.
pub type PhysReg = u16;

/// Memory-level taint: `None` = not memory-fed.
pub type Taint = Option<MemLevel>;

/// Joins two taints, keeping the furthest level.
pub fn join_taint(a: Taint, b: Taint) -> Taint {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.max(y)),
    }
}

#[derive(Debug, Clone, Copy)]
struct PhysEntry {
    value: i64,
    /// Cycle at which the value becomes available (u64::MAX = not computed).
    ready_at: u64,
    taint: Taint,
}

/// The physical register file + freelist + rename map table.
///
/// Each physical register also carries a *waiter list*: the ROB ordinals of
/// dispatched instructions blocked on it. The scheduler registers a consumer
/// on its first not-yet-computed source and the producer's write drains the
/// list into the wakeup wheel, so per-cycle scheduling work is proportional
/// to wakeup events rather than IQ occupancy.
#[derive(Debug, Clone)]
pub struct RenameState {
    prf: Vec<PhysEntry>,
    rmt: [PhysReg; NUM_REGS],
    freelist: VecDeque<PhysReg>,
    /// One waiter list per physical register, linked through `waiter_pool`.
    waiters: Vec<SeqList>,
    waiter_pool: ListPool,
}

impl RenameState {
    /// Creates rename state with `prf_size` physical registers; the first
    /// 32 are bound to the architectural registers, value 0, ready.
    pub fn new(prf_size: usize) -> RenameState {
        assert!(prf_size > NUM_REGS + 8, "PRF must exceed the architectural registers");
        let prf = vec![PhysEntry { value: 0, ready_at: 0, taint: None }; prf_size];
        let mut rmt = [0; NUM_REGS];
        for (i, m) in rmt.iter_mut().enumerate() {
            *m = i as PhysReg;
        }
        let freelist = (NUM_REGS as PhysReg..prf_size as PhysReg).collect();
        let waiters = vec![SeqList::EMPTY; prf_size];
        RenameState { prf, rmt, freelist, waiters, waiter_pool: ListPool::new() }
    }

    /// Free physical registers remaining.
    pub fn free_regs(&self) -> usize {
        self.freelist.len()
    }

    /// Current mapping of an architectural register.
    pub fn map(&self, r: Reg) -> PhysReg {
        self.rmt[r.index()]
    }

    /// Renames a destination: allocates a physical register, updates the
    /// RMT, and returns `(new_phys, previous_phys)`. Returns `None` when
    /// the freelist is empty (dispatch must stall).
    pub fn rename_dest(&mut self, r: Reg) -> Option<(PhysReg, PhysReg)> {
        let p = self.freelist.pop_front()?;
        self.prf[p as usize] = PhysEntry { value: 0, ready_at: u64::MAX, taint: None };
        let prev = self.rmt[r.index()];
        self.rmt[r.index()] = p;
        Some((p, prev))
    }

    /// Allocates a physical register without touching the RMT (for VQ
    /// pushes, whose destination is the VQ tail).
    pub fn alloc_phys(&mut self) -> Option<PhysReg> {
        let p = self.freelist.pop_front()?;
        self.prf[p as usize] = PhysEntry { value: 0, ready_at: u64::MAX, taint: None };
        Some(p)
    }

    /// Frees a physical register (at retire of the overwriting instruction,
    /// or during squash).
    pub fn free_phys(&mut self, p: PhysReg) {
        debug_assert!(!self.freelist.contains(&p), "double free of p{p}");
        self.freelist.push_back(p);
    }

    /// Rolls back one rename during a squash walk (youngest first).
    pub fn unrename(&mut self, r: Reg, new_phys: PhysReg, prev_phys: PhysReg) {
        debug_assert_eq!(self.rmt[r.index()], new_phys, "unrename out of order");
        self.rmt[r.index()] = prev_phys;
        self.free_phys(new_phys);
    }

    /// Whether the physical register's value is available at `now`.
    pub fn is_ready(&self, p: PhysReg, now: u64) -> bool {
        self.prf[p as usize].ready_at <= now
    }

    /// The cycle the register becomes ready (`u64::MAX` if not computed).
    pub fn ready_at(&self, p: PhysReg) -> u64 {
        self.prf[p as usize].ready_at
    }

    /// Reads a value (caller must have checked readiness for timing
    /// correctness; values are written eagerly at issue).
    pub fn read(&self, p: PhysReg) -> i64 {
        self.prf[p as usize].value
    }

    /// The taint of a register.
    pub fn taint(&self, p: PhysReg) -> Taint {
        self.prf[p as usize].taint
    }

    /// Writes a value that becomes visible at `ready_at`.
    pub fn write(&mut self, p: PhysReg, value: i64, ready_at: u64, taint: Taint) {
        self.prf[p as usize] = PhysEntry { value, ready_at, taint };
    }

    /// Registers the instruction with ROB ordinal `seq` as blocked on `p`
    /// (whose value has not been computed yet).
    pub fn add_waiter(&mut self, p: PhysReg, seq: u64) {
        self.waiter_pool.push(&mut self.waiters[p as usize], seq);
    }

    /// Whether any instruction is registered as blocked on `p`.
    pub fn has_waiters(&self, p: PhysReg) -> bool {
        !self.waiters[p as usize].is_empty()
    }

    /// Drains the waiter list of `p` in registration order (called by the
    /// producer's write so the scheduler can move the consumers to its
    /// wakeup wheel). Each entry leaves the list as the iterator yields
    /// it; the freed nodes serve later registrations on any register.
    pub fn drain_waiters(&mut self, p: PhysReg) -> impl Iterator<Item = u64> + '_ {
        let (pool, list) = (&mut self.waiter_pool, &mut self.waiters[p as usize]);
        std::iter::from_fn(move || pool.pop(list))
    }

    /// Total instructions parked on waiter lists (diagnostics only).
    pub fn waiting(&self) -> usize {
        self.waiter_pool.len()
    }
}

/// Snapshot of the VQ renamer for branch recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VqSnapshot {
    /// Head (next pop) position.
    pub head: u64,
    /// Tail (next push) position.
    pub tail: u64,
}

/// The VQ renamer (§IV-B): a circular buffer of PRF mappings.
#[derive(Debug, Clone)]
pub struct VqRenamer {
    maps: Vec<PhysReg>,
    size: usize,
    /// Next pop position.
    pub head: u64,
    /// Next push position.
    pub tail: u64,
    /// Retired pushes minus retired pops (architectural occupancy).
    pub net_ctr: u64,
    /// In-flight pushes.
    pub pending_ctr: u64,
}

impl VqRenamer {
    /// Creates a VQ renamer of `size` entries.
    pub fn new(size: usize) -> VqRenamer {
        assert!(size > 0);
        VqRenamer { maps: vec![0; size], size, head: 0, tail: 0, net_ctr: 0, pending_ctr: 0 }
    }

    /// Occupancy.
    pub fn length(&self) -> u64 {
        self.net_ctr + self.pending_ctr
    }

    /// Whether a push renamed now must stall.
    pub fn push_would_stall(&self) -> bool {
        self.length() >= self.size as u64
    }

    /// Whether a pop renamed now would underflow (no in-flight or
    /// architectural value to link to). A correct program never does this.
    pub fn pop_would_underflow(&self) -> bool {
        self.head >= self.tail
    }

    /// Renames a `Push_VQ`: records the push's destination mapping at the
    /// tail.
    pub fn rename_push(&mut self, dest: PhysReg) {
        assert!(!self.push_would_stall(), "VQ push renamed into a full queue");
        let idx = (self.tail % self.size as u64) as usize;
        self.maps[idx] = dest;
        self.tail += 1;
        self.pending_ctr += 1;
    }

    /// Renames a `Pop_VQ`: returns the head mapping as the pop's source.
    pub fn rename_pop(&mut self) -> PhysReg {
        assert!(!self.pop_would_underflow(), "VQ pop renamed from an empty queue");
        let idx = (self.head % self.size as u64) as usize;
        self.head += 1;
        self.maps[idx]
    }

    /// Takes a recovery snapshot.
    ///
    /// Note: the VQ renamer lives in the *rename* stage (§IV-B), so unlike
    /// the fetch-resident BQ/TQ it is repaired by walking squashed
    /// instructions ([`unrename_push`](Self::unrename_push) /
    /// [`unrename_pop`](Self::unrename_pop)) rather than from fetch-time
    /// snapshots; the snapshot is exposed for tests and committed-state
    /// queries.
    pub fn snapshot(&self) -> VqSnapshot {
        VqSnapshot { head: self.head, tail: self.tail }
    }

    /// Restores a snapshot exactly (test/committed-state use only).
    pub fn recover(&mut self, snap: &VqSnapshot) {
        let squashed = self.tail.saturating_sub(snap.tail);
        self.head = snap.head;
        self.tail = snap.tail;
        self.pending_ctr = self.pending_ctr.saturating_sub(squashed);
    }

    /// Undoes the most recent [`rename_push`](Self::rename_push) during a
    /// youngest-first squash walk.
    pub fn unrename_push(&mut self) {
        debug_assert!(self.tail > 0 && self.pending_ctr > 0);
        self.tail -= 1;
        self.pending_ctr -= 1;
    }

    /// Undoes the most recent [`rename_pop`](Self::rename_pop) during a
    /// youngest-first squash walk.
    pub fn unrename_pop(&mut self) {
        debug_assert!(self.head > 0);
        self.head -= 1;
    }

    /// Retirement of a push.
    pub fn retire_push(&mut self) {
        debug_assert!(self.pending_ctr > 0);
        self.pending_ctr -= 1;
        self.net_ctr += 1;
    }

    /// Retirement of a pop.
    pub fn retire_pop(&mut self) {
        debug_assert!(self.net_ctr > 0, "VQ pop retired before its push");
        self.net_ctr -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_links_consumer_to_producer() {
        let mut rs = RenameState::new(64);
        let r5 = Reg::new(5);
        let (p, _prev) = rs.rename_dest(r5).unwrap();
        rs.write(p, 42, 10, None);
        assert_eq!(rs.map(r5), p);
        assert!(!rs.is_ready(p, 9));
        assert!(rs.is_ready(p, 10));
        assert_eq!(rs.read(p), 42);
    }

    #[test]
    fn unrename_restores_previous_mapping() {
        let mut rs = RenameState::new(64);
        let r5 = Reg::new(5);
        let before = rs.map(r5);
        let (p, prev) = rs.rename_dest(r5).unwrap();
        assert_eq!(prev, before);
        rs.unrename(r5, p, prev);
        assert_eq!(rs.map(r5), before);
    }

    #[test]
    fn freelist_exhaustion_returns_none() {
        let mut rs = RenameState::new(42); // 10 free
        let r1 = Reg::new(1);
        for _ in 0..10 {
            assert!(rs.rename_dest(r1).is_some());
        }
        assert!(rs.rename_dest(r1).is_none());
    }

    #[test]
    fn free_then_realloc_roundtrip() {
        let mut rs = RenameState::new(64);
        let (p, prev) = rs.rename_dest(Reg::new(3)).unwrap();
        let _ = prev;
        let before = rs.free_regs();
        rs.free_phys(p);
        assert_eq!(rs.free_regs(), before + 1);
    }

    #[test]
    fn taint_joins_to_furthest() {
        assert_eq!(join_taint(None, None), None);
        assert_eq!(join_taint(Some(MemLevel::L2), None), Some(MemLevel::L2));
        assert_eq!(join_taint(Some(MemLevel::L2), Some(MemLevel::Mem)), Some(MemLevel::Mem));
    }

    #[test]
    fn vq_renamer_fifo_links() {
        let mut vq = VqRenamer::new(4);
        vq.rename_push(10);
        vq.rename_push(11);
        assert_eq!(vq.rename_pop(), 10);
        assert_eq!(vq.rename_pop(), 11);
    }

    #[test]
    fn vq_renamer_interleaved_push_pop() {
        // The paper's Fig. 12 scenario: two pushes then two pops link
        // 1st->1st, 2nd->2nd even with an intervening push.
        let mut vq = VqRenamer::new(8);
        vq.rename_push(2);
        vq.rename_push(7);
        assert_eq!(vq.rename_pop(), 2);
        vq.rename_push(9);
        assert_eq!(vq.rename_pop(), 7);
        assert_eq!(vq.rename_pop(), 9);
    }

    #[test]
    fn vq_recovery_restores_pointers() {
        let mut vq = VqRenamer::new(4);
        vq.rename_push(1);
        let snap = vq.snapshot();
        vq.rename_push(2);
        vq.rename_pop();
        vq.recover(&snap);
        assert_eq!(vq.length(), 1);
        assert_eq!(vq.rename_pop(), 1);
    }

    #[test]
    fn vq_occupancy_tracks_retirement() {
        let mut vq = VqRenamer::new(2);
        vq.rename_push(1);
        vq.rename_push(2);
        assert!(vq.push_would_stall());
        vq.rename_pop();
        vq.retire_push();
        vq.retire_push();
        assert!(vq.push_would_stall(), "pop not retired yet");
        vq.retire_pop();
        assert!(!vq.push_would_stall());
    }

    #[test]
    #[should_panic(expected = "VQ pop renamed from an empty queue")]
    fn vq_underflow_panics() {
        let mut vq = VqRenamer::new(2);
        vq.rename_pop();
    }
}
