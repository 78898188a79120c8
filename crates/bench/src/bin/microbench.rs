//! Dependency-free microbenchmarks of the simulator's own building blocks.
//!
//! These measure *simulator* throughput (not simulated performance): the
//! predictor, the fetch-resident queues, the cache hierarchy, the rename
//! structures, the functional simulator, and a small end-to-end pipeline
//! run. Useful for keeping the experiment harness fast.
//!
//! The harness is deliberately simple (the container has no crates.io
//! access, so no criterion): each benchmark runs a warmup batch, then
//! repeats timed batches and reports the best per-iteration time, which
//! is the standard low-noise estimator for micro-kernels.
//!
//! Usage: `microbench [filter]` — runs benchmarks whose name contains
//! the filter substring.

use cfd_core::{Core, CoreConfig, FetchBq, RenameState, VqRenamer};
use cfd_isa::{Assembler, Machine, MemImage, NullSink, Reg};
use cfd_mem::{Hierarchy, HierarchyConfig};
use cfd_predictor::IslTage;
use cfd_workloads::{by_name, Scale, Variant};
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` for `batch` iterations per sample, keeps the best of
/// `samples` samples, and prints ns/iter.
fn bench(filter: &str, name: &str, batch: u64, samples: u32, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Warmup.
    for _ in 0..batch {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let per_iter = t0.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(per_iter);
    }
    if best >= 10_000.0 {
        println!("{name:<32} {:>12.2} us/iter", best / 1000.0);
    } else {
        println!("{name:<32} {best:>12.1} ns/iter");
    }
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let f = filter.as_str();

    bench(f, "isl_tage_predict_train", 100_000, 7, {
        let mut p = IslTage::new();
        let mut k = 0u64;
        move || {
            k = k.wrapping_add(1);
            let pc = 0x40 + (k % 16) * 4;
            let taken = (k * 2654435761) % 100 < 60;
            black_box(p.observe(pc, taken));
        }
    });

    bench(f, "fetch_bq_push_exec_pop", 100_000, 7, {
        let mut bq = FetchBq::new(128);
        move || {
            let abs = bq.fetch_push();
            bq.execute_push(abs, abs.is_multiple_of(3));
            let (_, pred) = bq.fetch_pop();
            bq.retire_push();
            bq.retire_pop();
            black_box(pred);
        }
    });

    bench(f, "hierarchy_access_mixed", 100_000, 7, {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let mut k = 0u64;
        move || {
            k = k.wrapping_add(1);
            let addr = (k.wrapping_mul(2654435761)) % (1 << 22);
            black_box(h.access(0x40, addr, k.is_multiple_of(7), k));
        }
    });

    bench(f, "rename_dest_unrename", 100_000, 7, {
        let mut rs = RenameState::new(224);
        let r5 = Reg::new(5);
        move || {
            let (p, prev) = rs.rename_dest(r5).expect("free regs");
            rs.unrename(r5, p, prev);
        }
    });

    bench(f, "vq_renamer_push_pop", 100_000, 7, {
        let mut vq = VqRenamer::new(128);
        let mut k = 0u16;
        move || {
            k = k.wrapping_add(1);
            vq.rename_push(k % 200);
            black_box(vq.rename_pop());
            vq.retire_push();
            vq.retire_pop();
        }
    });

    bench(f, "functional_sim_kernel", 20, 5, {
        let w = by_name("gromacs_like")
            .expect("gromacs_like is in the catalog")
            .build(Variant::Base, Scale { n: 200, seed: 1 });
        move || {
            let mut m = Machine::new(w.program.clone(), w.mem.clone());
            m.run(10_000_000, &mut NullSink).unwrap_or_else(|e| panic!("gromacs_like [base] failed: {e}"));
            black_box(m.retired());
        }
    });

    bench(f, "timing_core_small_loop", 5, 5, {
        let mut a = Assembler::new();
        let (i, n, s) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(n, 2_000);
        a.label("top");
        a.add(s, s, i);
        a.xor(s, s, 7i64);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().expect("microbench loop assembles");
        move || {
            let rep = Core::new(CoreConfig::default(), program.clone(), MemImage::new())
                .expect("default config is valid")
                .run(10_000_000)
                .unwrap_or_else(|e| panic!("timing_core_small_loop failed: {e}"));
            black_box(rep.stats.cycles);
        }
    });
}
