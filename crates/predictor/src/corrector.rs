//! Statistical corrector — the "S" of ISL-TAGE (Seznec, CBP3 2011).
//!
//! TAGE occasionally settles on a provider whose prediction is *statistically*
//! wrong for a branch (e.g. a 70%-taken branch captured by a noisy history
//! pattern). The corrector tracks, per (PC, TAGE-confidence) bucket, whether
//! agreeing with TAGE or inverting it has been the better choice, and
//! inverts low-confidence predictions when inversion has a track record.

/// Per-prediction metadata.
#[derive(Debug, Clone, Copy)]
pub struct CorrectorMeta {
    index: usize,
    /// Whether the corrector inverted TAGE's prediction.
    pub inverted: bool,
    /// The final (possibly inverted) prediction.
    pub pred: bool,
    /// TAGE's original prediction.
    pub tage_pred: bool,
}

/// The statistical corrector table: signed counters voting
/// "trust TAGE" (positive) vs "invert TAGE" (negative).
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    ctrs: Vec<i8>,
    index_bits: u32,
    /// Use threshold: only invert when the counter is confidently negative.
    threshold: i8,
}

impl StatisticalCorrector {
    /// Creates a corrector with `2^index_bits` 6-bit counters.
    pub fn new(index_bits: u32) -> StatisticalCorrector {
        StatisticalCorrector { ctrs: vec![0; 1 << index_bits], index_bits, threshold: -8 }
    }

    fn index(&self, pc: u64, tage_pred: bool, provider_confident: bool) -> usize {
        let h = (pc >> 2) ^ (pc >> 9) ^ ((tage_pred as u64) << 1) ^ (provider_confident as u64);
        (h as usize) & ((1 << self.index_bits) - 1)
    }

    /// Filters a TAGE prediction: returns the (possibly inverted) final
    /// prediction and the metadata needed for training.
    ///
    /// `provider_confident` should be false for weak/newly-allocated
    /// providers — the corrector only ever inverts those.
    pub fn filter(&mut self, pc: u64, tage_pred: bool, provider_confident: bool) -> (bool, CorrectorMeta) {
        let index = self.index(pc, tage_pred, provider_confident);
        let inverted = !provider_confident && self.ctrs[index] <= self.threshold;
        let pred = tage_pred ^ inverted;
        (pred, CorrectorMeta { index, inverted, pred, tage_pred })
    }

    /// Table storage in bytes (one counter per byte).
    pub fn storage_bytes(&self) -> usize {
        self.ctrs.len()
    }

    /// Trains at retirement: reward the counter when TAGE was right,
    /// punish it when TAGE was wrong.
    pub fn train(&mut self, taken: bool, meta: &CorrectorMeta) {
        let c = &mut self.ctrs[meta.index];
        if meta.tage_pred == taken {
            *c = (*c + 1).min(31);
        } else {
            *c = (*c - 1).max(-32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_trusting_tage() {
        let mut sc = StatisticalCorrector::new(10);
        let (pred, meta) = sc.filter(0x40, true, false);
        assert!(pred);
        assert!(!meta.inverted);
    }

    #[test]
    fn learns_to_invert_a_consistently_wrong_prediction() {
        let mut sc = StatisticalCorrector::new(10);
        // TAGE keeps predicting taken while the branch is not-taken.
        for _ in 0..20 {
            let (_, meta) = sc.filter(0x40, true, false);
            sc.train(false, &meta);
        }
        let (pred, meta) = sc.filter(0x40, true, false);
        assert!(meta.inverted, "corrector should override after 20 failures");
        assert!(!pred);
    }

    #[test]
    fn never_inverts_confident_providers() {
        let mut sc = StatisticalCorrector::new(10);
        for _ in 0..40 {
            let (_, meta) = sc.filter(0x40, true, true);
            sc.train(false, &meta);
        }
        let (pred, meta) = sc.filter(0x40, true, true);
        assert!(pred && !meta.inverted, "confident providers are left alone");
    }

    #[test]
    fn recovers_trust_when_tage_improves() {
        let mut sc = StatisticalCorrector::new(10);
        for _ in 0..20 {
            let (_, meta) = sc.filter(0x80, true, false);
            sc.train(false, &meta);
        }
        assert!(sc.filter(0x80, true, false).1.inverted);
        for _ in 0..40 {
            let (_, meta) = sc.filter(0x80, true, false);
            sc.train(true, &meta);
        }
        assert!(!sc.filter(0x80, true, false).1.inverted);
    }
}
