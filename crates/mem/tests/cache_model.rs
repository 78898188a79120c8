//! Black-box test of [`Cache`] against a reference true-LRU model.
//!
//! The reference is the straightforward array-of-lines cache: one struct
//! per line with a tag, an LRU rank and valid/dirty flags. The cache under
//! test stores the same state as flat zero-initialised arrays; replaying
//! random access/fill/write traces through both must produce the same
//! hits, the same evictions (address and dirty bit) and the same
//! statistics, for the default L1/L2/L3 geometries and for a one-set
//! cache, whose tag is 58 bits wide.

use cfd_isa::{prop_check, Rng};
use cfd_mem::{Cache, CacheConfig, CacheStats, Eviction, HierarchyConfig};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    lru: u8,
    valid: bool,
    dirty: bool,
}

/// The reference model: a set-associative, true-LRU, write-back cache.
struct RefCache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache { cfg, sets, lines: vec![Line::default(); sets * cfg.ways], stats: CacheStats::default() }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.cfg.block_bits) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.cfg.block_bits >> self.sets.trailing_zeros()
    }

    fn set_slice(&mut self, set: usize) -> &mut [Line] {
        let w = self.cfg.ways;
        &mut self.lines[set * w..(set + 1) * w]
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, write);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    fn probe_peek(&self, addr: u64) -> bool {
        let (set, tag, w) = (self.set_of(addr), self.tag_of(addr), self.cfg.ways);
        self.lines[set * w..(set + 1) * w].iter().any(|l| l.valid && l.tag == tag)
    }

    fn touch(&mut self, addr: u64, write: bool) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as u8;
        let lines = self.set_slice(set);
        let Some(pos) = lines.iter().position(|l| l.valid && l.tag == tag) else { return false };
        let old = lines[pos].lru;
        for l in lines.iter_mut() {
            if l.valid && l.lru > old {
                l.lru -= 1;
            }
        }
        lines[pos].lru = ways - 1;
        if write {
            lines[pos].dirty = true;
        }
        true
    }

    fn fill(&mut self, addr: u64, write: bool) -> Option<Eviction> {
        if self.touch(addr, write) {
            return None;
        }
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as u8;
        let block_bits = self.cfg.block_bits;
        let set_bits = self.sets.trailing_zeros();
        let lines = self.set_slice(set);
        let pos = lines
            .iter()
            .position(|l| !l.valid)
            .unwrap_or_else(|| lines.iter().enumerate().min_by_key(|(_, l)| l.lru).map(|(i, _)| i).unwrap());
        let evict = lines[pos].valid.then(|| Eviction {
            addr: ((lines[pos].tag << set_bits) | set as u64) << block_bits,
            dirty: lines[pos].dirty,
        });
        let old = if lines[pos].valid { lines[pos].lru } else { 0 };
        for l in lines.iter_mut() {
            if l.valid && l.lru > old {
                l.lru -= 1;
            }
        }
        lines[pos] = Line { tag, lru: ways - 1, valid: true, dirty: write };
        if evict.is_some_and(|e| e.dirty) {
            self.stats.writebacks += 1;
        }
        evict
    }

    fn flush(&mut self) {
        self.lines.fill(Line::default());
    }
}

/// Addresses that collide: a few sets, a few more tags than ways per set
/// (so sets overflow and evict), random block offsets, and occasionally a
/// fully random address (tags up to the top bit).
fn address_pool(rng: &mut Rng, cfg: CacheConfig) -> Vec<u64> {
    let sets = cfg.sets() as u64;
    let set_bits = sets.trailing_zeros();
    let hot_sets: Vec<u64> = (0..3).map(|_| rng.below(sets)).collect();
    let tags: Vec<u64> = (0..cfg.ways as u64 + 3)
        .map(|_| if rng.range_u64(0, 4) == 0 { rng.next_u64() >> (cfg.block_bits + set_bits) } else { rng.below(64) })
        .collect();
    let mut pool = Vec::new();
    for &s in &hot_sets {
        for &t in &tags {
            pool.push(((t << set_bits) | s) << cfg.block_bits);
        }
    }
    pool
}

fn replay(cfg: CacheConfig, rng: &mut Rng, ops: usize) {
    let pool = address_pool(rng, cfg);
    let mut dut = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    for step in 0..ops {
        let addr = if rng.range_u64(0, 16) == 0 {
            rng.next_u64()
        } else {
            pool[rng.range_usize(0, pool.len())] | rng.below(1 << cfg.block_bits)
        };
        let write = rng.bool();
        match rng.weighted(&[8, 6, 2, 2, 1]) {
            0 => assert_eq!(dut.access(addr, write), reference.access(addr, write), "step {step}: access {addr:#x}"),
            1 => assert_eq!(dut.fill(addr, write), reference.fill(addr, write), "step {step}: fill {addr:#x}"),
            2 => assert_eq!(dut.probe_silent(addr), reference.touch(addr, false), "step {step}: probe {addr:#x}"),
            3 => assert_eq!(dut.probe_peek(addr), reference.probe_peek(addr), "step {step}: peek {addr:#x}"),
            _ => {
                if rng.range_u64(0, 50) == 0 {
                    dut.flush();
                    reference.flush();
                }
            }
        }
        assert_eq!(dut.stats, reference.stats, "step {step}");
    }
}

#[test]
fn default_geometries_match_the_reference_lru_model() {
    let h = HierarchyConfig::default();
    for cfg in [h.l1, h.l2, h.l3] {
        prop_check!(24, |rng| {
            replay(cfg, rng, 3000);
        });
    }
}

#[test]
fn one_set_cache_with_58_bit_tags_matches_the_reference() {
    // 64-byte blocks and a single set: the tag is the top 58 address bits.
    for ways in [1, 4, 16] {
        let cfg = CacheConfig { size_bytes: 64 * ways, ways, block_bits: 6 };
        assert_eq!(cfg.sets(), 1);
        prop_check!(24, |rng| {
            replay(cfg, rng, 3000);
        });
    }
    // The largest tag survives the round trip through an eviction.
    let cfg = CacheConfig { size_bytes: 64, ways: 1, block_bits: 6 };
    let mut c = Cache::new(cfg);
    let top = u64::MAX << 6;
    assert_eq!(c.fill(top, true), None);
    assert!(c.probe_peek(u64::MAX));
    assert_eq!(c.fill(0, false), Some(Eviction { addr: top, dirty: true }));
}
