//! Dedicated rename-state tests: squash-walk round-trips, free-list
//! conservation, the taint lattice, and the scheduler's waiter lists.
//!
//! The in-module tests in `rename.rs` cover single operations; these
//! exercise the invariants the recovery path depends on across whole
//! sequences (a youngest-first squash walk must restore the RMT exactly
//! and conserve every physical register).

use cfd_core::{join_taint, PhysReg, RenameState, Taint};
use cfd_isa::Reg;
use cfd_mem::MemLevel;

const PRF: usize = 64;

/// All distinct taints, bottom to top.
const TAINTS: [Taint; 5] = [None, Some(MemLevel::L1), Some(MemLevel::L2), Some(MemLevel::L3), Some(MemLevel::Mem)];

#[test]
fn squash_walk_round_trips_the_rmt() {
    let mut rs = RenameState::new(PRF);
    let regs = [Reg::new(3), Reg::new(7), Reg::new(3), Reg::new(11), Reg::new(7)];
    let before: Vec<PhysReg> = regs.iter().map(|&r| rs.map(r)).collect();
    // Rename a straight-line burst (same register renamed twice).
    let mut walk: Vec<(Reg, PhysReg, PhysReg)> = Vec::new();
    for &r in &regs {
        let (p, prev) = rs.rename_dest(r).unwrap();
        walk.push((r, p, prev));
    }
    // Squash youngest-first, exactly like `recover_at`'s walk.
    for &(r, p, prev) in walk.iter().rev() {
        rs.unrename(r, p, prev);
    }
    for (&r, &b) in regs.iter().zip(&before) {
        assert_eq!(rs.map(r), b, "RMT not restored for {r:?}");
    }
}

#[test]
fn free_list_is_conserved_across_rename_and_squash() {
    let mut rs = RenameState::new(PRF);
    let baseline = rs.free_regs();
    let mut walk: Vec<(Reg, PhysReg, PhysReg)> = Vec::new();
    for i in 0..20 {
        let r = Reg::new(1 + (i % 5));
        let (p, prev) = rs.rename_dest(r).unwrap();
        walk.push((r, p, prev));
    }
    assert_eq!(rs.free_regs(), baseline - walk.len());
    for &(r, p, prev) in walk.iter().rev() {
        rs.unrename(r, p, prev);
    }
    // Every allocated register came back; none twice (free_phys
    // debug-asserts double frees).
    assert_eq!(rs.free_regs(), baseline);
}

#[test]
fn free_list_is_conserved_across_retirement() {
    // The retire-side half of conservation: when an overwriting
    // instruction retires, the *previous* mapping is freed. After N
    // renames of one register and N retirements the free count is back at
    // baseline: the newest mapping stays live holding the value, and the
    // originally arch-bound register has moved onto the free list in its
    // place.
    let mut rs = RenameState::new(PRF);
    let baseline = rs.free_regs();
    let r = Reg::new(9);
    let mut prevs = Vec::new();
    for _ in 0..10 {
        let (_, prev) = rs.rename_dest(r).unwrap();
        prevs.push(prev);
    }
    assert_eq!(rs.free_regs(), baseline - 10);
    for prev in prevs {
        rs.free_phys(prev);
    }
    assert_eq!(rs.free_regs(), baseline);
}

#[test]
fn taint_join_is_a_semilattice() {
    for a in TAINTS {
        // Idempotent.
        assert_eq!(join_taint(a, a), a);
        // None is the identity.
        assert_eq!(join_taint(a, None), a);
        assert_eq!(join_taint(None, a), a);
        // Mem is absorbing.
        assert_eq!(join_taint(a, Some(MemLevel::Mem)), Some(MemLevel::Mem));
        for b in TAINTS {
            // Commutative.
            assert_eq!(join_taint(a, b), join_taint(b, a));
            for c in TAINTS {
                // Associative.
                assert_eq!(join_taint(join_taint(a, b), c), join_taint(a, join_taint(b, c)));
            }
        }
    }
}

#[test]
fn waiters_drain_once_and_in_registration_order() {
    let mut rs = RenameState::new(PRF);
    let (p, _) = rs.rename_dest(Reg::new(4)).unwrap();
    let (q, _) = rs.rename_dest(Reg::new(5)).unwrap();
    rs.add_waiter(p, 17);
    rs.add_waiter(q, 23);
    rs.add_waiter(p, 19);
    assert_eq!(rs.waiting(), 3);
    // Producer-side drain returns p's waiters in registration order and
    // leaves q's untouched.
    assert!(rs.has_waiters(p));
    assert_eq!(rs.drain_waiters(p).collect::<Vec<_>>(), vec![17, 19]);
    assert_eq!(rs.waiting(), 1);
    // A second drain is empty: a wakeup is delivered exactly once.
    assert!(!rs.has_waiters(p));
    assert_eq!(rs.drain_waiters(p).count(), 0);
    assert_eq!(rs.drain_waiters(q).collect::<Vec<_>>(), vec![23]);
    assert_eq!(rs.waiting(), 0);
    // The drained list is reused: a later consumer registers and drains
    // exactly as the first ones did.
    rs.add_waiter(p, 31);
    assert_eq!(rs.drain_waiters(p).collect::<Vec<_>>(), vec![31]);
}

#[test]
fn ready_at_distinguishes_unissued_from_in_flight() {
    // The scheduler parks a consumer on the waiter list when the producer
    // has not issued (`ready_at == u64::MAX`) and on the wakeup wheel when
    // it has; this split depends on `ready_at` reporting both states.
    let mut rs = RenameState::new(PRF);
    let (p, _) = rs.rename_dest(Reg::new(6)).unwrap();
    assert_eq!(rs.ready_at(p), u64::MAX);
    assert!(!rs.is_ready(p, u64::MAX - 1));
    rs.write(p, -3, 42, Some(MemLevel::L2));
    assert_eq!(rs.ready_at(p), 42);
    assert!(!rs.is_ready(p, 41));
    assert!(rs.is_ready(p, 42));
    assert_eq!(rs.read(p), -3);
    assert_eq!(rs.taint(p), Some(MemLevel::L2));
}
