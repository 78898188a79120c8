//! `Tage` against a reference model: the straightforward TAGE this crate
//! used to ship (one `FoldedHistory` struct per fold, a `Vec<Vec<_>>` of
//! tagged tables, the `u` reset as a modulo of a branch counter, and a full
//! history snapshot — fold geometry included — in every prediction's
//! metadata). Random branch streams with wrong-path predictions, squashes,
//! recoveries and delayed training run through both; every prediction must
//! match.
//!
//! Also checks the `DirectionPredictor::observe` contract: for every
//! predictor, `observe` equals predict → recover (on a mispredict) → train,
//! prediction by prediction.

use cfd_predictor::{predictor_by_name, HistorySnapshot, Tage, TageConfig, TageMeta};
use std::collections::VecDeque;

mod reference {
    const BUF_BITS: usize = 4096;
    const MAX_FOLDS: usize = 48;
    const MAX_TABLES: usize = 16;

    #[derive(Debug, Clone, Copy)]
    struct FoldedHistory {
        value: u32,
        hist_len: u16,
        out_bits: u8,
        out_pos: u8,
    }

    impl FoldedHistory {
        const fn empty() -> FoldedHistory {
            FoldedHistory { value: 0, hist_len: 0, out_bits: 1, out_pos: 0 }
        }

        fn new(hist_len: usize, out_bits: u32) -> FoldedHistory {
            FoldedHistory {
                value: 0,
                hist_len: hist_len as u16,
                out_bits: out_bits as u8,
                out_pos: (hist_len % out_bits as usize) as u8,
            }
        }

        fn update(&mut self, new_bit: bool, old_bit: bool) {
            let mask = (1u32 << self.out_bits) - 1;
            self.value = (self.value << 1) | (new_bit as u32);
            self.value ^= self.value >> self.out_bits;
            self.value &= mask;
            self.value ^= (old_bit as u32) << self.out_pos;
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Snapshot {
        pos: u64,
        phist: u32,
        folds: [FoldedHistory; MAX_FOLDS],
    }

    #[derive(Debug, Clone)]
    struct History {
        buf: Vec<u64>,
        pos: u64,
        phist: u32,
        n_folds: usize,
        folds: [FoldedHistory; MAX_FOLDS],
    }

    impl History {
        fn new() -> History {
            History {
                buf: vec![0; BUF_BITS / 64],
                pos: 0,
                phist: 0,
                n_folds: 0,
                folds: [FoldedHistory::empty(); MAX_FOLDS],
            }
        }

        fn add_fold(&mut self, hist_len: usize, out_bits: u32) -> usize {
            self.folds[self.n_folds] = FoldedHistory::new(hist_len, out_bits);
            self.n_folds += 1;
            self.n_folds - 1
        }

        fn insert(&mut self, taken: bool, pc: u64) {
            let pos = self.pos;
            let idx = pos as usize % BUF_BITS;
            if taken {
                self.buf[idx / 64] |= 1 << (idx % 64);
            } else {
                self.buf[idx / 64] &= !(1 << (idx % 64));
            }
            self.pos += 1;
            for f in self.folds[..self.n_folds].iter_mut() {
                let old = if pos >= f.hist_len as u64 {
                    let at = (pos - f.hist_len as u64) as usize % BUF_BITS;
                    self.buf[at / 64] >> (at % 64) & 1 != 0
                } else {
                    false
                };
                f.update(taken, old);
            }
            self.phist = ((self.phist << 1) | ((pc >> 2) & 1) as u32) & 0xffff;
        }

        fn snapshot(&self) -> Snapshot {
            Snapshot { pos: self.pos, phist: self.phist, folds: self.folds }
        }

        fn restore(&mut self, snap: &Snapshot) {
            self.pos = snap.pos;
            self.phist = snap.phist;
            self.folds = snap.folds;
        }
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct Entry {
        tag: u16,
        ctr: i8,
        u: u8,
    }

    #[derive(Debug, Clone)]
    pub struct Meta {
        snapshot: Snapshot,
        pub pred: bool,
        provider: Option<usize>,
        provider_idx: usize,
        provider_dir: bool,
        alt_pred: bool,
        base_idx: usize,
        provider_new: bool,
        indices: [u16; MAX_TABLES],
        tags: [u16; MAX_TABLES],
    }

    impl Meta {
        pub fn provider_confident(&self) -> bool {
            self.provider.is_some() && !self.provider_new
        }
    }

    #[derive(Debug, Clone)]
    pub struct Tage {
        cfg: super::TageConfig,
        base: Vec<i8>,
        tables: Vec<Vec<Entry>>,
        hist: History,
        idx_folds: Vec<usize>,
        tag_folds1: Vec<usize>,
        tag_folds2: Vec<usize>,
        uaona: i8,
        branches_seen: u64,
        alloc_seed: u32,
    }

    impl Tage {
        pub fn new(cfg: super::TageConfig) -> Tage {
            let mut hist = History::new();
            let (mut idx_folds, mut tag_folds1, mut tag_folds2) = (Vec::new(), Vec::new(), Vec::new());
            for &hl in &cfg.history_lengths {
                idx_folds.push(hist.add_fold(hl, cfg.tagged_bits));
                tag_folds1.push(hist.add_fold(hl, cfg.tag_bits));
                tag_folds2.push(hist.add_fold(hl, cfg.tag_bits - 1));
            }
            let tables = cfg.history_lengths.iter().map(|_| vec![Entry::default(); 1 << cfg.tagged_bits]).collect();
            Tage {
                base: vec![0; 1 << cfg.base_bits],
                tables,
                hist,
                idx_folds,
                tag_folds1,
                tag_folds2,
                uaona: 0,
                branches_seen: 0,
                alloc_seed: 0x9e3779b9,
                cfg,
            }
        }

        fn table_index(&self, pc: u64, t: usize) -> usize {
            let mask = (1usize << self.cfg.tagged_bits) - 1;
            let f = self.hist.folds[self.idx_folds[t]].value as usize;
            let p = (self.hist.phist as usize) & mask;
            (pc as usize ^ (pc as usize >> (self.cfg.tagged_bits as usize - t % 4)) ^ f ^ (p >> (t & 3))) & mask
        }

        fn table_tag(&self, pc: u64, t: usize) -> u16 {
            let mask = (1u32 << self.cfg.tag_bits) - 1;
            let (f1, f2) = (self.hist.folds[self.tag_folds1[t]].value, self.hist.folds[self.tag_folds2[t]].value);
            ((pc as u32 ^ f1 ^ (f2 << 1)) & mask) as u16
        }

        pub fn predict(&mut self, pc: u64) -> (bool, Meta) {
            let n = self.tables.len();
            let mut indices = [0u16; MAX_TABLES];
            let mut tags = [0u16; MAX_TABLES];
            for t in 0..n {
                indices[t] = self.table_index(pc, t) as u16;
                tags[t] = self.table_tag(pc, t);
            }
            let base_idx = (pc as usize ^ (pc as usize >> 2)) & ((1 << self.cfg.base_bits) - 1);
            let base_pred = self.base[base_idx] >= 0;
            let mut provider = None;
            let mut alt_provider = None;
            for t in (0..n).rev() {
                if self.tables[t][indices[t] as usize].tag == tags[t] {
                    if provider.is_none() {
                        provider = Some(t);
                    } else {
                        alt_provider = Some(t);
                        break;
                    }
                }
            }
            let alt_pred = match alt_provider {
                Some(t) => self.tables[t][indices[t] as usize].ctr >= 0,
                None => base_pred,
            };
            let (pred, provider_idx, provider_new, provider_dir) = match provider {
                Some(t) => {
                    let e = &self.tables[t][indices[t] as usize];
                    let newly = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
                    let dir = e.ctr >= 0;
                    (if newly && self.uaona >= 0 { alt_pred } else { dir }, indices[t] as usize, newly, dir)
                }
                None => (base_pred, base_idx, false, base_pred),
            };
            let snapshot = self.hist.snapshot();
            self.hist.insert(pred, pc);
            let meta = Meta {
                snapshot,
                pred,
                provider,
                provider_idx,
                provider_dir,
                alt_pred,
                base_idx,
                provider_new,
                indices,
                tags,
            };
            (pred, meta)
        }

        pub fn recover(&mut self, meta: &Meta, taken: bool, pc: u64) {
            self.hist.restore(&meta.snapshot);
            self.hist.insert(taken, pc);
        }

        pub fn squash(&mut self, meta: &Meta) {
            self.hist.restore(&meta.snapshot);
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

        pub fn train(&mut self, taken: bool, meta: &Meta) {
            self.branches_seen += 1;
            if self.branches_seen.is_multiple_of(self.cfg.u_reset_period) {
                for table in &mut self.tables {
                    for e in table.iter_mut() {
                        e.u >>= 1;
                    }
                }
            }
            if meta.provider.is_some() && meta.provider_new && meta.provider_dir != meta.alt_pred {
                Self::bump(&mut self.uaona, meta.alt_pred == taken, -8, 7);
            }
            match meta.provider {
                Some(t) => {
                    let e = &mut self.tables[t][meta.provider_idx];
                    Self::bump(&mut e.ctr, taken, -4, 3);
                    if meta.provider_dir == taken && meta.alt_pred != taken && e.u < 3 {
                        e.u += 1;
                    } else if meta.provider_dir != taken && meta.alt_pred == taken && e.u > 0 {
                        e.u -= 1;
                    }
                    if meta.provider_new {
                        Self::bump(&mut self.base[meta.base_idx], taken, -2, 1);
                    }
                }
                None => Self::bump(&mut self.base[meta.base_idx], taken, -2, 1),
            }
            if meta.pred != taken {
                let start = meta.provider.map_or(0, |t| t + 1);
                if start < self.tables.len() {
                    self.alloc_seed = self.alloc_seed.wrapping_mul(1664525).wrapping_add(1013904223);
                    let skip = (self.alloc_seed >> 16) as usize % 2;
                    let mut allocated = false;
                    for t in (start + skip.min(self.tables.len() - 1 - start))..self.tables.len() {
                        let e = &mut self.tables[t][meta.indices[t] as usize];
                        if e.u == 0 {
                            e.tag = meta.tags[t];
                            e.ctr = if taken { 0 } else { -1 };
                            allocated = true;
                            break;
                        }
                    }
                    if !allocated {
                        for t in start..self.tables.len() {
                            let e = &mut self.tables[t][meta.indices[t] as usize];
                            if e.u > 0 {
                                e.u -= 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Deterministic xorshift generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One in-flight branch on both models.
struct InFlight {
    pc: u64,
    taken: bool,
    meta: TageMeta,
    model: reference::Meta,
}

/// Predicts `pc` on both models (speculative push of the prediction) and
/// checks they agree.
fn predict_both(
    t: &mut Tage,
    r: &mut reference::Tage,
    pc: u64,
    step: usize,
) -> (TageMeta, HistorySnapshot, reference::Meta) {
    let meta = t.lookup(pc);
    let snap = t.snapshot();
    t.push(meta.pred, pc);
    let (pred, model) = r.predict(pc);
    assert_eq!(meta.pred, pred, "step {step}: prediction at pc {pc:#x}");
    assert_eq!(meta.provider_confident(), model.provider_confident(), "step {step}");
    (meta, snap, model)
}

/// Replays `steps` correct-path branches from a mix of biased, patterned
/// and random PCs. Each misprediction first runs a few wrong-path
/// predictions (sometimes squashed youngest-first) before recovering;
/// training retires in program order up to eight branches late.
fn replay(cfg: TageConfig, seed: u64, steps: usize) {
    let mut t = Tage::new(cfg.clone());
    let mut r = reference::Tage::new(cfg);
    let mut rng = Rng(seed);
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let mut pattern = 0u64;
    for step in 0..steps {
        let pc = 0x1000 + rng.below(48) * 4;
        let taken = match pc % 3 {
            0 => rng.below(10) < 7,
            1 => {
                pattern = pattern.wrapping_add(1);
                (pattern * pc) % 5 < 2
            }
            _ => rng.below(2) == 0,
        };
        let (meta, snap, model) = predict_both(&mut t, &mut r, pc, step);
        if meta.pred != taken {
            let mut wrong = Vec::new();
            for _ in 0..rng.below(6) {
                let wpc = 0x8000 + rng.below(32) * 4;
                wrong.push(predict_both(&mut t, &mut r, wpc, step));
            }
            if rng.below(2) == 0 {
                for (_, wsnap, wmodel) in wrong.iter().rev() {
                    t.squash(wsnap);
                    r.squash(wmodel);
                }
            }
            t.recover(&snap, taken, pc);
            r.recover(&model, taken, pc);
        }
        in_flight.push_back(InFlight { pc, taken, meta, model });
        let depth = rng.below(9) as usize;
        while in_flight.len() > depth {
            let b = in_flight.pop_front().expect("non-empty");
            t.train(b.pc, b.taken, &b.meta);
            r.train(b.taken, &b.model);
        }
    }
}

#[test]
fn default_config_matches_the_reference() {
    replay(TageConfig::default(), 0x5eed_0001, 40_000);
}

#[test]
fn frequent_u_aging_matches_the_reference() {
    // A u reset every 64 trained branches, on small tables with short
    // tags so that entries collide, get allocated and age constantly.
    let cfg = TageConfig {
        base_bits: 8,
        tagged_bits: 6,
        tag_bits: 8,
        history_lengths: vec![3, 8, 17, 40, 90],
        u_reset_period: 64,
    };
    for seed in [1, 2, 3] {
        replay(cfg.clone(), seed * 0x9e37_79b9, 30_000);
    }
}

#[test]
fn tag_width_equal_to_index_width_matches_the_reference() {
    // tag_bits - 1 == tagged_bits makes two of a table's three folds share
    // a geometry; tag_bits == tagged_bits keeps all three distinct.
    for tag_bits in [11, 10] {
        let cfg = TageConfig { tag_bits, u_reset_period: 64, ..TageConfig::default() };
        replay(cfg, 0xabc + u64::from(tag_bits), 20_000);
    }
}

#[test]
fn observe_equals_predict_recover_train_for_every_predictor() {
    // Random and biased branches interleaved with runs of a 9-trip loop, so
    // that the loop predictor and the corrector both override TAGE.
    let mut rng = Rng(0x0b5e_77e5);
    let mut stream = Vec::new();
    while stream.len() < 40_000 {
        if rng.below(4) == 0 {
            stream.extend((0..=9).map(|i| (0x2000, i < 9)));
        } else {
            let pc = 0x400 + rng.below(40) * 4;
            stream.push((pc, if pc.is_multiple_of(8) { rng.below(10) < 8 } else { rng.below(2) == 0 }));
        }
    }
    for name in ["always-taken", "bimodal", "gshare", "perceptron", "isl-tage"] {
        let mut fast = predictor_by_name(name).expect("known predictor");
        let mut slow = predictor_by_name(name).expect("known predictor");
        for (step, &(pc, taken)) in stream.iter().enumerate() {
            let (pred, meta) = slow.predict(pc);
            if pred != taken {
                slow.recover(pc, taken, &meta);
            }
            slow.train(pc, taken, &meta);
            assert_eq!(fast.observe(pc, taken), pred != taken, "{name}: step {step}, pc {pc:#x}");
        }
    }
}
