//! The kernels a workload runs, the checks on their outputs, the digest of
//! their simulated statistics, and the traced replays that time the
//! functional, predictor and memory layers on each kernel's own stream.

use crate::trace::Tracer;
use cfd_isa::{Machine, NullSink, RetireEvent};
use cfd_mem::Hierarchy;
use cfd_predictor::{BranchKind, Btb, BtbEntry, IslTage};
use cfd_workloads::{catalog, CatalogEntry, Scale, Variant, Workload};

/// Functional instruction budget per kernel; far above any catalog kernel.
pub const INSTRUCTION_LIMIT: u64 = 4_000_000_000;

/// The CFD forms a kernel may have, most preferred first: the Fig. 18
/// branch-queue form, then the trip-count forms of Figs. 27 and 28.
const CFD_FORMS: [Variant; 3] = [Variant::Cfd, Variant::CfdTq, Variant::CfdBqTq];

/// Which variants of each catalog kernel a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Base and preferred CFD form of every kernel (base only where the
    /// kernel has no CFD form).
    Pairs,
    /// The base variant of every kernel.
    Base,
}

/// The `(entry, variant)` list a selection names, in catalog order.
pub fn select(sel: Selection) -> Vec<(CatalogEntry, Variant)> {
    let mut out = Vec::new();
    for entry in catalog() {
        if entry.variants.contains(&Variant::Base) {
            out.push((entry.clone(), Variant::Base));
        }
        if sel == Selection::Pairs {
            if let Some(&v) = CFD_FORMS.iter().find(|v| entry.variants.contains(v)) {
                out.push((entry.clone(), v));
            }
        }
    }
    out
}

/// True for the CFD forms, false for the base variant.
pub fn is_cfd(v: Variant) -> bool {
    v != Variant::Base
}

/// One built kernel and its functional instruction count.
pub struct Kernel {
    pub name: &'static str,
    pub variant: Variant,
    pub workload: Workload,
    /// Instructions the functional `Machine` retires running it to halt.
    pub instructions: u64,
}

/// Output checks: a failed check is one failed op, never a crash.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// FNV-1a over 64-bit words: the simulated-output digest. Only simulated
/// quantities go in, never host times, so one seed gives one digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Builds every selected kernel at `scale` and counts its instructions on
/// the functional machine. A kernel whose functional run fails is a failed
/// op and is left out.
pub fn build(t: &mut Tracer, tally: &mut Tally, sel: &[(CatalogEntry, Variant)], scale: Scale) -> Vec<Kernel> {
    let mut out = Vec::with_capacity(sel.len());
    for (entry, variant) in sel {
        let workload = t.span("workloads.build", |_| entry.build(*variant, scale));
        let run = t.span("isa.machine_run", |_| {
            Machine::new(workload.program.clone(), workload.mem.clone()).run(INSTRUCTION_LIMIT, &mut NullSink)
        });
        tally.check(run.is_ok(), || format!("{} [{variant}] functional run: {run:?}", entry.name));
        if let Ok(stats) = run {
            out.push(Kernel { name: entry.name, variant: *variant, workload, instructions: stats.retired });
        }
    }
    out
}

/// Counts from the traced layer replays over a kernel set; their host
/// time is in the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub branches: u64,
    pub mispredicts: u64,
    pub btb_ops: u64,
    pub accesses: u64,
    pub misses: [u64; 3],
}

/// One kernel's retired stream, reduced to what the replays consume.
#[derive(Default)]
struct Stream {
    branches: Vec<(u32, bool)>,
    taken_transfers: Vec<(u32, BtbEntry)>,
    accesses: Vec<(u32, u64, bool, u64)>,
}

fn btb_kind(instr: &cfd_isa::Instr) -> BranchKind {
    use cfd_isa::Instr;
    match instr {
        Instr::Branch { .. } => BranchKind::Conditional,
        Instr::BranchOnBq { .. } => BranchKind::CfdPop,
        Instr::BranchOnTcr { .. } | Instr::PopTqBrOvf { .. } => BranchKind::CfdTcr,
        Instr::Jr { .. } => BranchKind::Indirect,
        _ => BranchKind::Unconditional,
    }
}

/// Captures each kernel's retired stream once with a `TraceSink` closure
/// on `Machine::run`, then replays its conditional branches through a
/// fresh `IslTage`, its taken transfers through a fresh `Btb`, and its
/// data accesses through a fresh `Hierarchy` (all start empty). Each
/// replay runs inside one span per kernel, so the span cost stays outside
/// the per-operation times.
pub fn replay(t: &mut Tracer, kernels: &[Kernel], hierarchy: &cfd_mem::HierarchyConfig) -> Replay {
    let mut r = Replay::default();
    for k in kernels {
        let mut s = Stream::default();
        t.span("trace.capture", |_| {
            let mut sink = |ev: &RetireEvent| {
                if ev.instr.is_plain_conditional() {
                    if let Some(taken) = ev.taken {
                        s.branches.push((ev.pc, taken));
                    }
                }
                if ev.instr.is_control() && ev.next_pc != ev.pc + 1 {
                    let target = ev.instr.direct_target().unwrap_or(ev.next_pc);
                    s.taken_transfers.push((ev.pc, BtbEntry { target, kind: btb_kind(&ev.instr) }));
                }
                if let Some(a) = ev.mem {
                    s.accesses.push((ev.pc, a.addr, a.is_store, ev.seq));
                }
            };
            Machine::new(k.workload.program.clone(), k.workload.mem.clone())
                .run(INSTRUCTION_LIMIT, &mut sink)
                .expect("the kernel ran functionally in setup")
        });
        t.span("predictor.isl_tage", |_| {
            let mut tage = IslTage::new();
            for &(pc, taken) in &s.branches {
                let bpc = u64::from(pc) << 2;
                let (pred, meta) = tage.predict(bpc);
                if pred != taken {
                    tage.recover(bpc, taken, &meta);
                    r.mispredicts += 1;
                }
                tage.train(bpc, taken, &meta);
            }
            r.branches += s.branches.len() as u64;
            std::hint::black_box(&tage);
        });
        t.span("predictor.btb", |_| {
            let mut btb = Btb::new(10, 4);
            for &(pc, entry) in &s.taken_transfers {
                if btb.lookup(u64::from(pc)) != Some(entry) {
                    btb.insert(u64::from(pc), entry);
                }
            }
            r.btb_ops += s.taken_transfers.len() as u64;
            std::hint::black_box(&btb);
        });
        t.span("mem.hierarchy", |_| {
            let mut h = Hierarchy::new(hierarchy.clone());
            for &(pc, addr, store, seq) in &s.accesses {
                std::hint::black_box(h.access(u64::from(pc) << 2, addr, store, seq));
            }
            let (l1, l2, l3) = h.cache_stats();
            r.accesses += s.accesses.len() as u64;
            for (m, c) in r.misses.iter_mut().zip([l1, l2, l3]) {
                *m += c.misses();
            }
        });
    }
    r
}
