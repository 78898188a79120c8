//! A TAGE conditional branch predictor.
//!
//! Follows Seznec's TAGE design: a bimodal base table plus `N` tagged
//! tables indexed with geometrically increasing global-history lengths.
//! The provider is the hitting table with the longest history; `u` (useful)
//! counters arbitrate allocation on mispredictions; a "use alt on newly
//! allocated" (UAONA) counter — one of the ISL-TAGE refinements — decides
//! whether to trust weak newly-allocated entries.
//!
//! A prediction is split in two: [`Tage::lookup`] reads the tables under the
//! current history and returns the [`TageMeta`] that training needs, and
//! [`Tage::push`] shifts a direction into the history. A speculative front
//! end takes a [`snapshot`](Tage::snapshot) between the two and pushes its
//! predicted direction, repairing with [`recover`](Tage::recover) or
//! [`squash`](Tage::squash); an immediate-update replay pushes the resolved
//! direction and needs no snapshot.

use crate::history::{GlobalHistory, HistorySnapshot};

/// Configuration of a [`Tage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_bits: u32,
    /// log2 entries of each tagged table.
    pub tagged_bits: u32,
    /// Tag width of each tagged table.
    pub tag_bits: u32,
    /// History lengths of the tagged tables, shortest first.
    pub history_lengths: Vec<usize>,
    /// Period (in branches) of the graceful `u`-bit reset.
    pub u_reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> Self {
        // ~64 KB class budget, comparable to the paper's CBP3 ISL-TAGE.
        TageConfig {
            base_bits: 14,
            tagged_bits: 10,
            tag_bits: 11,
            history_lengths: vec![4, 7, 12, 21, 36, 62, 107, 185, 319, 550],
            u_reset_period: 256 * 1024,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, taken when >= 0.
    ctr: i8,
    /// 2-bit useful counter.
    u: u8,
}

/// Upper bound on tagged tables (fixed arrays keep metadata heap-free).
pub const MAX_TABLES: usize = 16;

/// Per-prediction metadata: what [`Tage::lookup`] saw, for training.
#[derive(Debug, Clone)]
pub struct TageMeta {
    /// Predicted direction.
    pub pred: bool,
    provider: Option<usize>,
    provider_idx: usize,
    /// The provider entry's own direction at predict time (pre-UAONA).
    provider_dir: bool,
    alt_pred: bool,
    base_idx: usize,
    /// Whether the provider entry was "newly allocated" (weak and not useful).
    provider_new: bool,
    /// Per-table indices/tags computed at predict time.
    indices: [u16; MAX_TABLES],
    tags: [u16; MAX_TABLES],
}

impl TageMeta {
    /// Whether the providing entry was confident (present, not newly
    /// allocated, and with a non-weak counter). The statistical corrector
    /// only considers inverting unconfident predictions.
    pub fn provider_confident(&self) -> bool {
        self.provider.is_some() && !self.provider_new
    }
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<i8>,
    /// All tagged tables in one allocation: table `t`'s entry `i` sits at
    /// `(t << tagged_bits) | i`.
    tables: Vec<TaggedEntry>,
    n_tables: usize,
    hist: GlobalHistory,
    /// Per table: handles of its index fold and its two tag folds.
    folds: [[u8; 3]; MAX_TABLES],
    /// Use-alt-on-newly-allocated counter (4 bits, signed around 0).
    uaona: i8,
    /// Trained branches left until the next graceful `u` reset.
    u_reset_in: u64,
    alloc_seed: u32,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    pub fn new(cfg: TageConfig) -> Tage {
        let n_tables = cfg.history_lengths.len();
        assert!(n_tables <= MAX_TABLES, "too many tagged tables");
        let mut hist = GlobalHistory::new();
        let mut folds = [[0; 3]; MAX_TABLES];
        for (f, &hl) in folds.iter_mut().zip(&cfg.history_lengths) {
            for (h, bits) in f.iter_mut().zip([cfg.tagged_bits, cfg.tag_bits, cfg.tag_bits - 1]) {
                *h = hist.add_fold(hl, bits) as u8;
            }
        }
        Tage {
            base: vec![0; 1 << cfg.base_bits],
            tables: vec![TaggedEntry::default(); n_tables << cfg.tagged_bits],
            n_tables,
            hist,
            folds,
            uaona: 0,
            u_reset_in: cfg.u_reset_period,
            alloc_seed: 0x9e3779b9,
            cfg,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        (pc as usize ^ (pc as usize >> 2)) & ((1 << self.cfg.base_bits) - 1)
    }

    #[inline]
    fn entry(&self, t: usize, idx: u16) -> &TaggedEntry {
        &self.tables[(t << self.cfg.tagged_bits) | idx as usize]
    }

    #[inline]
    fn entry_mut(&mut self, t: usize, idx: usize) -> &mut TaggedEntry {
        &mut self.tables[(t << self.cfg.tagged_bits) | idx]
    }

    /// Predicts the branch at `pc` under the current history, which it
    /// leaves untouched.
    pub fn lookup(&self, pc: u64) -> TageMeta {
        let n = self.n_tables;
        let bits = self.cfg.tagged_bits as usize;
        let idx_mask = (1usize << bits) - 1;
        let tag_mask = (1u32 << self.cfg.tag_bits) - 1;
        let path = self.hist.path() as usize & idx_mask;
        let p = pc as usize;
        let mut indices = [0u16; MAX_TABLES];
        let mut tags = [0u16; MAX_TABLES];
        for (t, ((&[fi, f1, f2], index), tag)) in self.folds[..n].iter().zip(&mut indices).zip(&mut tags).enumerate() {
            let f = self.hist.folded(fi as usize) as usize;
            *index = ((p ^ (p >> (bits - t % 4)) ^ f ^ (path >> (t & 3))) & idx_mask) as u16;
            let (g1, g2) = (self.hist.folded(f1 as usize), self.hist.folded(f2 as usize));
            *tag = ((pc as u32 ^ g1 ^ (g2 << 1)) & tag_mask) as u16;
        }
        let base_idx = self.base_index(pc);
        let base_pred = self.base[base_idx] >= 0;

        let mut provider = None;
        let mut alt_provider = None;
        for t in (0..n).rev() {
            if self.entry(t, indices[t]).tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt_provider = Some(t);
                    break;
                }
            }
        }

        let alt_pred = match alt_provider {
            Some(t) => self.entry(t, indices[t]).ctr >= 0,
            None => base_pred,
        };
        let (pred, provider_idx, provider_new, provider_dir) = match provider {
            Some(t) => {
                let e = self.entry(t, indices[t]);
                let newly = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
                let use_alt = newly && self.uaona >= 0;
                let dir = e.ctr >= 0;
                let p = if use_alt { alt_pred } else { dir };
                (p, indices[t] as usize, newly, dir)
            }
            None => (base_pred, base_idx, false, base_pred),
        };
        TageMeta { pred, provider, provider_idx, provider_dir, alt_pred, base_idx, provider_new, indices, tags }
    }

    /// Shifts the direction of the branch at `pc` into the global history.
    #[inline]
    pub fn push(&mut self, taken: bool, pc: u64) {
        self.hist.insert(taken, pc);
    }

    /// The history state, to be taken before [`push`](Self::push) so that
    /// [`recover`](Self::recover) or [`squash`](Self::squash) can rewind it.
    #[inline]
    pub fn snapshot(&self) -> HistorySnapshot {
        self.hist.snapshot()
    }

    /// Rewinds the history to `snap` and pushes the resolved direction of the
    /// mispredicted branch at `pc`.
    pub fn recover(&mut self, snap: &HistorySnapshot, taken: bool, pc: u64) {
        self.hist.recover(snap, taken, pc);
    }

    /// Rewinds the history to `snap` (squash without re-execution, e.g. a
    /// wrong-path branch being discarded).
    pub fn squash(&mut self, snap: &HistorySnapshot) {
        self.hist.restore(snap);
    }

    fn bump(ctr: &mut i8, up: bool, lo: i8, hi: i8) {
        if up {
            if *ctr < hi {
                *ctr += 1;
            }
        } else if *ctr > lo {
            *ctr -= 1;
        }
    }

    /// Trains the predictor at retirement with the resolved direction.
    pub fn train(&mut self, pc: u64, taken: bool, meta: &TageMeta) {
        let _ = pc;
        // Graceful u-bit aging every `u_reset_period` trained branches (a
        // period of 0 never fires).
        self.u_reset_in = self.u_reset_in.wrapping_sub(1);
        if self.u_reset_in == 0 {
            self.u_reset_in = self.cfg.u_reset_period;
            for e in &mut self.tables {
                e.u >>= 1;
            }
        }

        let mispredicted = meta.pred != taken;

        // UAONA bookkeeping: when the provider was newly allocated and its
        // own prediction differed from the alternate, learn which to trust.
        if meta.provider.is_some() && meta.provider_new && meta.provider_dir != meta.alt_pred {
            Self::bump(&mut self.uaona, meta.alt_pred == taken, -8, 7);
        }

        // Update provider (or base) counter.
        match meta.provider {
            Some(t) => {
                let e = self.entry_mut(t, meta.provider_idx);
                Self::bump(&mut e.ctr, taken, -4, 3);
                // Useful-bit update uses the provider's *predict-time*
                // direction: a provider that mispredicted must not be
                // credited just because the bump moved its counter.
                if meta.provider_dir == taken && meta.alt_pred != taken && e.u < 3 {
                    e.u += 1;
                } else if meta.provider_dir != taken && meta.alt_pred == taken && e.u > 0 {
                    e.u -= 1;
                }
                // Also train the base table when the provider is weak.
                if meta.provider_new {
                    Self::bump(&mut self.base[meta.base_idx], taken, -2, 1);
                }
            }
            None => {
                Self::bump(&mut self.base[meta.base_idx], taken, -2, 1);
            }
        }

        // Allocate on misprediction in a longer-history table.
        if mispredicted {
            let n = self.n_tables;
            let start = meta.provider.map_or(0, |t| t + 1);
            if start < n {
                // Pseudo-random start offset reduces ping-ponging.
                self.alloc_seed = self.alloc_seed.wrapping_mul(1664525).wrapping_add(1013904223);
                let skip = (self.alloc_seed >> 16) as usize % 2;
                let mut allocated = false;
                for t in (start + skip.min(n - 1 - start))..n {
                    let e = self.entry_mut(t, meta.indices[t] as usize);
                    if e.u == 0 {
                        e.tag = meta.tags[t];
                        e.ctr = if taken { 0 } else { -1 };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay u over the candidate range to make room next time.
                    for t in start..n {
                        let e = self.entry_mut(t, meta.indices[t] as usize);
                        if e.u > 0 {
                            e.u -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Storage budget of the tables in bytes (excluding history registers).
    pub fn storage_bytes(&self) -> usize {
        let base = (1usize << self.cfg.base_bits) * 2 / 8;
        let per_entry_bits = self.cfg.tag_bits as usize + 3 + 2;
        base + self.tables.len() * per_entry_bits / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_stream(t: &mut Tage, stream: impl Iterator<Item = (u64, bool)>) -> (u64, u64) {
        let (mut total, mut miss) = (0u64, 0u64);
        for (pc, taken) in stream {
            let meta = t.lookup(pc);
            let pred = meta.pred;
            let snap = t.snapshot();
            t.push(pred, pc);
            if pred != taken {
                miss += 1;
                t.recover(&snap, taken, pc);
            }
            t.train(pc, taken, &meta);
            total += 1;
        }
        (total, miss)
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new(TageConfig::default());
        let (total, miss) = run_stream(&mut t, (0..2000).map(|_| (0x40, true)));
        assert!(miss * 20 < total, "miss={miss}/{total}");
    }

    #[test]
    fn learns_short_pattern_via_history() {
        // Period-7 pattern: bimodal alone cannot learn it, TAGE must.
        let pattern = [true, true, false, true, false, false, true];
        let mut t = Tage::new(TageConfig::default());
        let stream = (0..30_000).map(|i| (0x80u64, pattern[i % pattern.len()]));
        let (_, warm_miss) = run_stream(&mut t, stream);
        // After warmup the steady-state misses should be a tiny fraction.
        let (total, miss) = run_stream(&mut t, (0..5000).map(|i| (0x80u64, pattern[i % pattern.len()])));
        assert!(miss * 50 < total, "steady miss={miss}/{total} (warm={warm_miss})");
    }

    #[test]
    fn random_stream_mispredicts_half() {
        let mut t = Tage::new(TageConfig::default());
        let mut x = 0xdeadbeefu64;
        let stream = (0..20_000).map(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (0x100u64, (x >> 63) != 0)
        });
        // Reconstruct the same stream (same closure semantics need care; use a vec)
        let mut y = 0xdeadbeefu64;
        let v: Vec<(u64, bool)> = (0..20_000)
            .map(|_| {
                y = y.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0x100u64, (y >> 63) != 0)
            })
            .collect();
        drop(stream);
        let (total, miss) = run_stream(&mut t, v.into_iter());
        let rate = miss as f64 / total as f64;
        assert!(rate > 0.35 && rate < 0.65, "rate={rate}");
    }

    #[test]
    fn distinguishes_pcs() {
        let mut t = Tage::new(TageConfig::default());
        let v: Vec<(u64, bool)> = (0..4000).flat_map(|_| [(0x10u64, true), (0x20u64, false)]).collect();
        let (total, miss) = run_stream(&mut t, v.into_iter());
        assert!(miss * 20 < total, "miss={miss}/{total}");
    }

    #[test]
    fn recovery_keeps_history_consistent() {
        // Predict with deliberate wrong-path inserts: outcome correctness of
        // the *final* accuracy implies recovery works; here we check a
        // mechanical invariant instead: recover + same-pc repredict is stable.
        let mut t = Tage::new(TageConfig::default());
        for i in 0..100 {
            let pc = 0x40 + (i % 3) * 8;
            let meta = t.lookup(pc);
            let snap = t.snapshot();
            t.push(meta.pred, pc);
            if meta.pred != (i % 2 == 0) {
                t.recover(&snap, i % 2 == 0, pc);
            }
            t.train(pc, i % 2 == 0, &meta);
        }
        let snap_before = t.snapshot();
        let meta = t.lookup(0x99);
        t.push(meta.pred, 0x99);
        t.squash(&snap_before);
        assert_eq!(t.snapshot(), snap_before);
    }

    #[test]
    fn storage_budget_is_reported() {
        let t = Tage::new(TageConfig::default());
        let kb = t.storage_bytes() / 1024;
        assert!((20..=128).contains(&kb), "storage {kb} KB");
    }
}
