//! Property tests for the sweep generator, driven by the in-repo seeded
//! harness (`cfd_isa::prop_check`): fingerprints never collide across
//! distinct grid points, and expansion is deterministic and
//! duplicate-free.

use cfd_exec::CampaignJob;
use cfd_isa::prop_check;
use cfd_serve::SweepConfig;
use std::collections::HashSet;

/// A random sweep over valid axis values, with distinct values per axis
/// so the nominal grid size is the axis-length product.
fn random_config(rng: &mut cfd_isa::check::Rng) -> SweepConfig {
    let mut pick_distinct = |pool: &[usize], max: usize| -> Vec<usize> {
        let n = rng.range_usize(1, max.min(pool.len()) + 1);
        let mut vals: Vec<usize> = Vec::new();
        while vals.len() < n {
            let v = pool[rng.range_usize(0, pool.len())];
            if !vals.contains(&v) {
                vals.push(v);
            }
        }
        vals
    };
    // Queue depths at or above the kernel chunk (128) — shallower queues
    // are not runnable chunked-CFD software configurations. Expansion
    // itself never simulates, but keeping the generated grids feasible
    // means this generator can also seed end-to-end tests.
    let bq = pick_distinct(&[128, 160, 192, 256], 3);
    let vq = pick_distinct(&[128, 192, 256], 2);
    let tq = pick_distinct(&[256, 384, 512], 2);
    let l1_kb = pick_distinct(&[4, 8, 16, 32, 64], 3);
    let all_preds = ["isl-tage", "gshare", "perceptron", "bimodal", "always-taken"];
    let n_preds = rng.range_usize(1, 4);
    let mut predictors: Vec<String> = Vec::new();
    while predictors.len() < n_preds {
        let p = all_preds[rng.range_usize(0, all_preds.len())].to_string();
        if !predictors.contains(&p) {
            predictors.push(p);
        }
    }
    let all_widths = [(1, 2), (2, 4), (4, 6), (6, 8), (8, 8)];
    let n_widths = rng.range_usize(1, 4);
    let mut widths: Vec<(usize, usize)> = Vec::new();
    while widths.len() < n_widths {
        let w = all_widths[rng.range_usize(0, all_widths.len())];
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    SweepConfig {
        workload: "soplex_ref_like".to_string(),
        variant: "cfd".to_string(),
        scale_n: rng.range_usize(50, 200),
        predictors,
        bq,
        vq,
        tq,
        widths,
        l1_kb,
    }
}

#[test]
fn distinct_grid_points_never_collide_in_fingerprint() {
    prop_check!(48, |rng| {
        let cfg = random_config(rng);
        let nominal =
            cfg.predictors.len() * cfg.bq.len() * cfg.vq.len() * cfg.tq.len() * cfg.widths.len() * cfg.l1_kb.len();
        let points = cfg.expand().expect("valid config expands");
        // Distinct axis values ⇒ every nominal point is a distinct
        // config ⇒ none may fold together by fingerprint.
        assert_eq!(points.len(), nominal, "a fingerprint collision folded distinct grid points");
        let fps: HashSet<_> = points.iter().map(|p| p.job.fingerprint()).collect();
        assert_eq!(fps.len(), points.len());
        let labels: HashSet<_> = points.iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels.len(), points.len(), "labels are unique per point");
    });
}

#[test]
fn expansion_is_deterministic_and_duplicate_free() {
    prop_check!(24, |rng| {
        let cfg = random_config(rng);
        let a = cfg.expand().expect("valid config expands");
        let b = cfg.expand().expect("valid config expands");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label, "expansion order changed between runs");
            assert_eq!(x.job.fingerprint(), y.job.fingerprint());
        }
        // Repeating axis values must collapse onto the same jobs, in the
        // same order.
        let mut dup = cfg.clone();
        dup.bq = [dup.bq.clone(), dup.bq.clone()].concat();
        dup.predictors = [dup.predictors.clone(), dup.predictors.clone()].concat();
        let c = dup.expand().expect("valid config expands");
        let fps = |points: &[cfd_serve::DsePoint]| -> Vec<_> { points.iter().map(|p| p.job.fingerprint()).collect() };
        assert_eq!(fps(&c), fps(&a));
    });
}
