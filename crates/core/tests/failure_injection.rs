//! Failure injection: programs that violate the CFD ISA ordering rules
//! (§III-A) must be *detected* — surfaced as simulation errors — never
//! silently mis-executed or hung — and injected microarchitectural
//! faults (see `cfd_core::fault`) must end masked, typed, or
//! watchdog-tripped, never silently divergent.

use cfd_core::{Core, CoreConfig, CoreError, FaultKind, FaultSpec};
use cfd_isa::{Assembler, Machine, MemImage, MemWidth, Reg};

fn r(i: usize) -> Reg {
    Reg::new(i)
}

fn run(a: Assembler) -> Result<cfd_core::RunReport, CoreError> {
    Core::new(CoreConfig::default(), a.finish().unwrap(), MemImage::new()).unwrap().run(2_000_000)
}

#[test]
fn pop_without_push_is_detected() {
    // Violates "a push must precede its corresponding pop".
    let mut a = Assembler::new();
    a.branch_on_bq("skip");
    a.addi(r(1), r(1), 1);
    a.label("skip");
    a.halt();
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_)), "got {err}");
}

#[test]
fn push_overflow_is_detected() {
    // Violates "N cannot exceed the BQ size": 200 pushes, no pops.
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 200);
    a.li(p, 1);
    a.label("top");
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let err = run(a).unwrap_err();
    // The fetch unit stalls the push (its architectural pops never come),
    // while the functional oracle faults at the 129th push — either a
    // deadlock report or an oracle fault is an acceptable *detection*.
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn forward_without_mark_is_detected() {
    let mut a = Assembler::new();
    a.forward_bq();
    a.halt();
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_)), "got {err}");
}

#[test]
fn vq_pop_without_push_is_detected() {
    let mut a = Assembler::new();
    a.pop_vq(r(1));
    a.halt();
    let err = run(a).unwrap_err();
    // The VQ renamer refuses to rename the pop (dispatch stalls) and the
    // deadlock detector reports it, or the oracle faults first.
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn tq_pop_without_push_is_detected() {
    let mut a = Assembler::new();
    a.pop_tq();
    a.halt();
    let err = run(a).unwrap_err();
    // TQ misses stall fetch forever when no push exists.
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn runaway_program_hits_cycle_limit() {
    let mut a = Assembler::new();
    a.label("spin");
    a.j("spin");
    let err = Core::new(CoreConfig::default(), a.finish().unwrap(), MemImage::new()).unwrap().run(10_000).unwrap_err();
    assert!(matches!(err, CoreError::CycleLimit(10_000)), "got {err}");
}

#[test]
fn pc_off_the_end_is_detected() {
    // No halt: the PC runs off the program.
    let mut a = Assembler::new();
    a.addi(r(1), r(1), 1);
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn unknown_predictor_is_a_config_error() {
    let mut a = Assembler::new();
    a.halt();
    let cfg = CoreConfig { predictor: "oracle-of-delphi".to_string(), ..Default::default() };
    let Err(err) = Core::new(cfg, a.finish().unwrap(), MemImage::new()) else {
        panic!("unknown predictor accepted");
    };
    assert!(matches!(err, CoreError::Config(_)), "got {err}");
    assert!(err.to_string().contains("oracle-of-delphi"), "error names the predictor: {err}");
}

#[test]
fn zero_sized_queue_is_a_config_error() {
    let mut a = Assembler::new();
    a.halt();
    let cfg = CoreConfig { bq_size: 0, ..Default::default() };
    let Err(err) = Core::new(cfg, a.finish().unwrap(), MemImage::new()) else {
        panic!("zero-sized queue accepted");
    };
    assert!(matches!(err, CoreError::Config(_)), "got {err}");
}

#[test]
fn bq_overflow_inside_mark_forward_region_is_detected() {
    // A Mark/Forward region whose body pushes more predicates than the BQ
    // holds: the pushes stall at fetch, the Forward that would drain them
    // is never reached, and the watchdog must report the hang.
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 200); // > default bq_size of 128
    a.li(p, 1);
    a.mark_bq();
    a.label("top");
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.forward_bq();
    a.halt();
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn vq_push_with_full_queue_at_rename_is_detected() {
    // More live VQ pushes than the renamer holds and no pops: rename
    // stalls the overflowing push forever.
    let (i, n, v) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 200); // > default vq_size of 128
    a.label("top");
    a.addi(v, v, 7);
    a.push_vq(v);
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn tq_pop_racing_branch_on_tcr_drains_deterministically() {
    // A second Pop_TQ reloads the TCR while the first trip count is still
    // draining. The fetch-resident TQ and the architectural model agree on
    // this race by construction; the retirement oracle verifies it.
    let (c, acc) = (r(1), r(2));
    let mut a = Assembler::new();
    a.li(c, 5);
    a.push_tq(c);
    a.li(c, 3);
    a.push_tq(c);
    a.pop_tq(); // TCR = 5
    a.label("body1");
    a.addi(acc, acc, 1);
    a.branch_on_tcr("midpop"); // first decrement: branch taken while draining
    a.j("done");
    a.label("midpop");
    a.pop_tq(); // TCR = 3, clobbering the remaining trips of the first count
    a.label("body2");
    a.addi(acc, acc, 10);
    a.branch_on_tcr("body2");
    a.label("done");
    a.halt();
    let program = a.finish().unwrap();
    // Functional reference.
    let mut m = Machine::new(program.clone(), MemImage::new());
    m.run_to_halt().unwrap();
    let want_acc = m.regs.read(acc);
    let want_retired = m.retired();
    // The timing core must retire the identical stream.
    let rep = Core::new(CoreConfig::default(), program, MemImage::new())
        .unwrap()
        .run(2_000_000)
        .expect("the race is architecturally well-defined");
    assert_eq!(rep.stats.retired, want_retired);
    assert!(want_acc > 0);
}

#[test]
fn mismatched_push_pop_counts_are_detected() {
    // Two pushes, three pops.
    let p = r(1);
    let mut a = Assembler::new();
    a.li(p, 1);
    a.push_bq(p);
    a.push_bq(p);
    for k in 0..3 {
        let l = format!("s{k}");
        a.branch_on_bq(&l);
        a.label(&l);
    }
    a.halt();
    let err = run(a).unwrap_err();
    assert!(matches!(err, CoreError::Program(_) | CoreError::Deadlock { .. }), "got {err}");
}

// ---------------------------------------------------------------------
// Fault-injection contract: every injected microarchitectural fault ends
// masked (architecturally identical result), detected (typed CoreError),
// or watchdog-tripped — never a silently divergent completed run.
// ---------------------------------------------------------------------

/// A CFD kernel with live BQ, VQ, TQ and loads, so every fault site in
/// `cfd_core::fault` is reachable: a gen loop loads `x`, pushes the
/// predicate and the value; a TCR-counted use loop pops both.
fn cfd_fault_kernel() -> (cfd_isa::Program, MemImage) {
    let (i, n, p, x, acc, base) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let iters = 48i64;
    let mut mem = MemImage::new();
    for k in 0..iters {
        mem.write(0x1000 + 8 * k as u64, (k * 37) % 19, MemWidth::B8);
    }
    let mut a = Assembler::new();
    a.li(n, iters);
    a.li(base, 0x1000);
    a.push_tq(n);
    a.label("gen");
    a.ld(x, 0, base);
    a.addi(base, base, 8);
    a.and(p, x, 1i64);
    a.push_bq(p);
    a.push_vq(x);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    a.pop_tq();
    a.j("test");
    a.label("use");
    a.pop_vq(x);
    a.branch_on_bq("skip");
    a.add(acc, acc, x);
    a.label("skip");
    a.label("test");
    a.branch_on_tcr("use");
    a.sd(acc, 0, base);
    a.halt();
    (a.finish().unwrap(), mem)
}

/// Runs the kernel with `fault` injected at its `nth` site visit and
/// checks the contract. Returns the outcome for the caller to narrow.
fn run_faulted(fault: FaultKind, nth: u64) -> Result<cfd_core::RunReport, CoreError> {
    let (program, mem) = cfd_fault_kernel();
    // Reference result of the *fault-free* program.
    let mut m = Machine::new(program.clone(), mem.clone());
    m.run_to_halt().unwrap();
    let want_retired = m.retired();
    let cfg = CoreConfig { watchdog_cycles: 20_000, post_mortem_depth: 32, ..Default::default() };
    let out = Core::new(cfg, program, mem).unwrap().with_fault(FaultSpec { kind: fault, nth }).run_diag(2_000_000);
    match out {
        Ok(rep) => {
            // Completed runs must be architecturally identical to the
            // reference (the fault was masked) — anything else would be a
            // silent divergence, which the contract forbids.
            assert!(rep.injection.is_some(), "fault never fired: {fault}");
            assert_eq!(rep.stats.retired, want_retired, "silent divergence under {fault}");
            assert_eq!(rep.stats.faults_injected, 1);
            Ok(rep)
        }
        Err(fail) => {
            // Detected: the report must carry the injection record and a
            // usable post-mortem dump.
            assert!(fail.injection.is_some(), "spontaneous failure without a fired fault");
            assert!(fail.post_mortem.contains("fetch_pc"), "post-mortem dump missing");
            Err(fail.error)
        }
    }
}

#[test]
fn predictor_flip_fault_is_masked() {
    // A flipped prediction is ordinary speculation gone wrong: normal
    // mispredict recovery must absorb it with no architectural effect.
    let rep = run_faulted(FaultKind::PredictorFlip, 0).expect("must be masked");
    assert!(rep.injection.is_some());
}

#[test]
fn mem_delay_fault_is_masked() {
    // A delayed memory response is a pure timing fault.
    let rep = run_faulted(FaultKind::MemDelay(400), 2).expect("must be masked");
    assert!(rep.injection.is_some());
}

/// Runs the fault kernel with `MemDelay(delay)` injected at load visit
/// `nth`, with a full pipeline trace. Returns the report and the trace
/// events.
fn delayed_load_run(delay: u64, nth: u64) -> (cfd_core::RunReport, Vec<cfd_core::PipeEvent>) {
    let (program, mem) = cfd_fault_kernel();
    let rep = Core::new(CoreConfig::default(), program, mem)
        .unwrap()
        .with_pipe_trace(1 << 20)
        .with_fault(FaultSpec { kind: FaultKind::MemDelay(delay), nth })
        .run(2_000_000)
        .expect("a memory delay is masked");
    let events = rep.pipe_trace.as_ref().expect("trace armed").events().to_vec();
    (rep, events)
}

#[test]
fn mem_delay_beyond_the_wheel_horizon_fires_on_its_exact_cycle() {
    // The scheduler's completion and wakeup wheels start with 512 buckets;
    // these delays land far beyond that horizon. The load must still
    // complete exactly `delay` cycles later than an undelayed response
    // would, and its consumer (alone in a stalled machine) must issue on
    // that very cycle.
    let nth = 2;
    let (base, base_events) = delayed_load_run(0, nth);
    let fired = base.injection.as_ref().expect("fault fired").cycle;
    // The faulted load: the one load issued on the injection cycle whose
    // retirement follows the fault (the injector fires on its `nth` visit).
    let load = base_events
        .iter()
        .filter(|e| e.disasm.starts_with("l8") && e.issue == Some(fired) && !e.squashed)
        .map(|e| e.seq)
        .min()
        .expect("faulted load retires");
    let find = |events: &[cfd_core::PipeEvent], seq: u64| events.iter().find(|e| e.seq == seq && !e.squashed).cloned();
    let consumer_seq = load + 2; // `ld x` → `addi base` → `and p, x, 1`
    let base_load = find(&base_events, load).unwrap();
    let base_consumer = find(&base_events, consumer_seq).unwrap();
    assert!(base_consumer.disasm.starts_with("And"), "{}", base_consumer.disasm);
    for delay in [600, 2100, 70_000] {
        let (rep, events) = delayed_load_run(delay, nth);
        assert_eq!(rep.injection.as_ref().unwrap().cycle, fired);
        assert_eq!(rep.stats.retired, base.stats.retired);
        let l = find(&events, load).unwrap();
        assert_eq!(l.issue, base_load.issue);
        assert_eq!(l.complete.unwrap(), base_load.complete.unwrap() + delay, "delay {delay}: load completion");
        let c = find(&events, consumer_seq).unwrap();
        assert_eq!(c.issue.unwrap(), l.complete.unwrap(), "delay {delay}: consumer wakes with the value");
    }
}

#[test]
fn bq_corrupt_fault_is_detected() {
    // A flipped predicate in the BQ steers a Branch_on_BQ down the wrong
    // arm; the retirement oracle must catch the divergence.
    let err = run_faulted(FaultKind::BqCorrupt, 5).expect_err("must be detected");
    assert!(matches!(err, CoreError::OracleMismatch { .. }), "got {err}");
}

#[test]
fn bq_drop_fault_trips_the_watchdog() {
    // A dropped BQ entry never verifies its pop: commit stalls and the
    // bounded-latency watchdog must convert the hang into a report.
    let err = run_faulted(FaultKind::BqDrop, 7).expect_err("must be detected");
    assert!(matches!(err, CoreError::Deadlock { .. } | CoreError::OracleMismatch { .. }), "got {err}");
}

#[test]
fn tq_corrupt_fault_is_detected() {
    // A corrupted trip count makes Branch_on_TCR run the loop a wrong
    // number of times — an architectural divergence the oracle sees.
    let err = run_faulted(FaultKind::TqCorrupt, 0).expect_err("must be detected");
    assert!(matches!(err, CoreError::OracleMismatch { .. } | CoreError::Deadlock { .. }), "got {err}");
}

#[test]
fn vq_remap_corrupt_fault_never_diverges_silently() {
    // A corrupted VQ physical mapping reads a stale register. Depending
    // on what lives there it is either detected by the oracle or fully
    // masked — `run_faulted` asserts the completed run is architecturally
    // identical, so silence is impossible either way.
    match run_faulted(FaultKind::VqRemapCorrupt, 3) {
        Ok(rep) => assert!(rep.injection.is_some()),
        Err(err) => assert!(matches!(err, CoreError::OracleMismatch { .. } | CoreError::Deadlock { .. }), "got {err}"),
    }
}

#[test]
fn same_fault_spec_is_deterministic() {
    // Two runs with the same spec produce byte-identical outcomes —
    // the precondition for a reproducible campaign.
    let outcomes: Vec<String> = (0..2)
        .map(|_| match run_faulted(FaultKind::BqCorrupt, 5) {
            Ok(rep) => format!("ok cycles={} retired={}", rep.stats.cycles, rep.stats.retired),
            Err(e) => format!("err {e}"),
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn fault_free_run_reports_no_injection() {
    let (program, mem) = cfd_fault_kernel();
    let rep = Core::new(CoreConfig::default(), program, mem).unwrap().run(2_000_000).unwrap();
    assert!(rep.injection.is_none());
    assert_eq!(rep.stats.faults_injected, 0);
}
