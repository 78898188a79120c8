//! ISL-TAGE-lite: TAGE + loop predictor + use-alt-on-newly-allocated.
//!
//! This is our stand-in for the CBP3-winning 64 KB ISL-TAGE the paper uses
//! (Seznec 2011). It combines:
//!
//! * the [`Tage`] predictor (geometric history lengths, u-bit aging), which
//!   internally implements the *Statistical-corrector-flavored* UAONA
//!   heuristic,
//! * the [`LoopPredictor`] ("L"), which overrides TAGE on branches with
//!   stable trip counts once confident.
//!
//! The combination reproduces the qualitative property the paper relies on:
//! state-of-the-art accuracy on correlated branches, while data-dependent
//! branches (the CFD targets) remain hard.

use crate::corrector::{CorrectorMeta, StatisticalCorrector};
use crate::history::HistorySnapshot;
use crate::loop_pred::{LoopMeta, LoopPredictor};
use crate::tage::{Tage, TageConfig, TageMeta};

/// Per-prediction metadata for [`IslTage`].
#[derive(Debug, Clone)]
pub struct IslTageMeta {
    tage: TageMeta,
    /// History state before this branch (for recovery).
    snapshot: HistorySnapshot,
    loop_meta: LoopMeta,
    corrector: CorrectorMeta,
    /// Final prediction (after corrector and loop-predictor overrides).
    pub pred: bool,
    /// Whether the loop predictor supplied the prediction.
    pub from_loop: bool,
}

/// The combined predictor.
#[derive(Debug, Clone)]
pub struct IslTage {
    tage: Tage,
    loop_pred: LoopPredictor,
    corrector: StatisticalCorrector,
}

impl IslTage {
    /// Creates the predictor with the default (~64 KB-class) configuration.
    pub fn new() -> IslTage {
        IslTage::with_config(TageConfig::default(), 7)
    }

    /// Creates the predictor with an explicit TAGE configuration and
    /// `2^loop_bits` loop-predictor entries.
    pub fn with_config(cfg: TageConfig, loop_bits: u32) -> IslTage {
        IslTage {
            tage: Tage::new(cfg),
            loop_pred: LoopPredictor::new(loop_bits),
            corrector: StatisticalCorrector::new(12),
        }
    }

    /// Looks up all three components under the current history, advancing
    /// only the loop predictor's speculative counter; returns the final
    /// direction.
    fn lookup(&mut self, pc: u64) -> (bool, TageMeta, LoopMeta, CorrectorMeta) {
        let loop_meta = self.loop_pred.predict(pc);
        let tage = self.tage.lookup(pc);
        // The statistical corrector may invert unconfident TAGE output.
        let (sc_pred, corrector) = self.corrector.filter(pc, tage.pred, tage.provider_confident());
        // Priority: loop predictor (when confident) > corrector > TAGE.
        (loop_meta.pred.unwrap_or(sc_pred), tage, loop_meta, corrector)
    }

    /// Predicts the branch at `pc`, speculatively updating internal history
    /// with the final prediction.
    pub fn predict(&mut self, pc: u64) -> (bool, IslTageMeta) {
        let (pred, tage, loop_meta, corrector) = self.lookup(pc);
        let snapshot = self.tage.snapshot();
        self.tage.push(pred, pc);
        let from_loop = loop_meta.pred.is_some();
        (pred, IslTageMeta { tage, snapshot, loop_meta, corrector, pred, from_loop })
    }

    /// Repairs speculative state after this branch mispredicted and
    /// resolved with direction `taken`.
    pub fn recover(&mut self, pc: u64, taken: bool, meta: &IslTageMeta) {
        self.tage.recover(&meta.snapshot, taken, pc);
        self.loop_pred.recover(&meta.loop_meta, taken);
    }

    /// Discards this branch's speculative state (wrong-path squash).
    pub fn squash(&mut self, meta: &IslTageMeta) {
        self.tage.squash(&meta.snapshot);
        self.loop_pred.squash(&meta.loop_meta);
    }

    /// Trains both components at retirement.
    pub fn train(&mut self, pc: u64, taken: bool, meta: &IslTageMeta) {
        self.train_parts(pc, taken, &meta.tage, &meta.loop_meta, &meta.corrector);
    }

    fn train_parts(&mut self, pc: u64, taken: bool, tage: &TageMeta, loop_meta: &LoopMeta, corrector: &CorrectorMeta) {
        self.tage.train(pc, taken, tage);
        self.corrector.train(taken, corrector);
        let tage_was_wrong = tage.pred != taken;
        self.loop_pred.train(pc, taken, loop_meta, tage_was_wrong);
    }

    /// Immediate update: predicts `pc`, learns that it resolved `taken`, and
    /// reports whether the prediction was wrong. Equal, state and result, to
    /// [`predict`](Self::predict), [`recover`](Self::recover) on a
    /// mispredict, then [`train`](Self::train); it pushes the resolved
    /// direction directly, so it takes no history snapshot.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let (pred, tage, loop_meta, corrector) = self.lookup(pc);
        self.tage.push(taken, pc);
        if pred != taken {
            self.loop_pred.recover(&loop_meta, taken);
        }
        self.train_parts(pc, taken, &tage, &loop_meta, &corrector);
        pred != taken
    }

    /// Total table storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.tage.storage_bytes() + self.loop_pred.storage_bytes() + self.corrector.storage_bytes()
    }
}

impl Default for IslTage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(p: &mut IslTage, pc: u64, taken: bool) -> bool {
        let (pred, meta) = p.predict(pc);
        if pred != taken {
            p.recover(pc, taken, &meta);
        }
        p.train(pc, taken, &meta);
        pred != taken
    }

    #[test]
    fn loop_override_beats_tage_on_long_fixed_loops() {
        // A 33-iteration loop: TAGE's short tables struggle, the loop
        // predictor nails it after warmup.
        let mut p = IslTage::new();
        let mut warm = 0u64;
        for _ in 0..50 {
            for i in 0..=33 {
                warm += observe(&mut p, 0x1000, i < 33) as u64;
            }
        }
        let mut miss = 0u64;
        let mut total = 0u64;
        for _ in 0..100 {
            for i in 0..=33 {
                miss += observe(&mut p, 0x1000, i < 33) as u64;
                total += 1;
            }
        }
        assert!(miss * 100 < total, "steady-state miss {miss}/{total} (warmup {warm})");
    }

    #[test]
    fn random_branches_stay_hard() {
        // The CFD premise: data-dependent branches defeat even ISL-TAGE.
        let mut p = IslTage::new();
        let mut x = 42u64;
        let mut miss = 0u64;
        let n = 20_000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            miss += observe(&mut p, 0x2000, (x >> 62) == 0) as u64; // ~25% taken
        }
        let rate = miss as f64 / n as f64;
        assert!(rate > 0.15, "a random 25%-biased stream must stay hard, rate={rate}");
        assert!(rate < 0.40, "but not worse than the bias, rate={rate}");
    }

    #[test]
    fn correlated_branches_are_easy() {
        // Branch B repeats branch A's outcome: global history captures it.
        let mut p = IslTage::new();
        let mut x = 17u64;
        let mut miss_b = 0u64;
        let n = 30_000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
            let a = (x >> 63) != 0;
            observe(&mut p, 0x3000, a);
            miss_b += observe(&mut p, 0x3010, a) as u64;
        }
        let rate = miss_b as f64 / n as f64;
        assert!(rate < 0.08, "correlated branch should be easy, rate={rate}");
    }

    #[test]
    fn storage_counts_the_configured_tables() {
        let tage = Tage::new(TageConfig::default()).storage_bytes();
        for loop_bits in [5, 7, 9] {
            let p = IslTage::with_config(TageConfig::default(), loop_bits);
            assert_eq!(p.storage_bytes(), tage + (1 << loop_bits) * 8 + 4096, "loop_bits {loop_bits}");
        }
    }

    #[test]
    fn squash_then_repredict_consistent() {
        let mut p = IslTage::new();
        for i in 0..50 {
            observe(&mut p, 0x40, i % 2 == 0);
        }
        let (pred1, meta1) = p.predict(0x99);
        p.squash(&meta1);
        let (pred2, meta2) = p.predict(0x99);
        p.squash(&meta2);
        assert_eq!(pred1, pred2);
    }
}
