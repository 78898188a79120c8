//! A set-associative cache model (tags + LRU only).
//!
//! Timing simulators need hit/miss decisions and replacement behaviour, not
//! data: data lives in the `cfd-isa` memory image. This keeps caches cheap
//! and makes wrong-path pollution effects come out naturally.
//!
//! Line state is two flat arrays whose all-zero contents mean "every line
//! invalid": a tag array holding `tag + 1` (0 = invalid) and one byte per
//! line with the LRU rank and the dirty bit. Creating a cache is therefore
//! one zeroed allocation, which the allocator satisfies with untouched
//! zero pages, however large the cache.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// log2 of the block size in bytes (6 = 64-byte blocks).
    pub block_bits: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// power-of-two sets).
    pub fn sets(&self) -> usize {
        let block = 1usize << self.block_bits;
        let sets = self.size_bytes / (block * self.ways);
        assert!(sets.is_power_of_two() && sets > 0, "cache sets must be a positive power of two");
        sets
    }
}

/// Dirty bit of a line's state byte; the low seven bits are its LRU rank
/// (`ways - 1` = most recently used).
const DIRTY: u8 = 0x80;
const LRU: u8 = !DIRTY;

/// An eviction produced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (needs write-back).
    pub dirty: bool,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, true-LRU, write-back cache (tags only).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// Per line, set-major: `tag + 1`, or 0 for an invalid line.
    keys: Vec<u64>,
    /// Per line: LRU rank in the low seven bits, [`DIRTY`] on top.
    state: Vec<u8>,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]),
    /// has more than 128 ways, or leaves no index or offset bits (a tag
    /// must leave room for the `tag + 1` encoding).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!((1..=128).contains(&cfg.ways), "cache ways must be in 1..=128");
        assert!(cfg.block_bits + sets.trailing_zeros() > 0, "cache tags must leave an index or offset bit");
        let lines = sets * cfg.ways;
        Cache { cfg, sets, keys: vec![0; lines], state: vec![0; lines], stats: CacheStats::default() }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Block-aligns an address.
    #[inline]
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr >> self.cfg.block_bits << self.cfg.block_bits
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.cfg.block_bits) as usize) & (self.sets - 1)
    }

    /// The stored key of `addr`'s tag (`tag + 1`, never 0).
    #[inline]
    fn key_of(&self, addr: u64) -> u64 {
        (addr >> self.cfg.block_bits >> self.sets.trailing_zeros()) + 1
    }

    /// First line index of `addr`'s set and the way holding its block.
    #[inline]
    fn lookup(&self, addr: u64) -> (usize, Option<usize>) {
        let base = self.set_of(addr) * self.cfg.ways;
        let key = self.key_of(addr);
        (base, self.keys[base..base + self.cfg.ways].iter().position(|&k| k == key))
    }

    /// Makes way `pos` of the set at `base` the most recently used: every
    /// valid line more recent than it ages by one rank.
    fn promote(&mut self, base: usize, pos: usize) {
        let ways = self.cfg.ways;
        let old = self.state[base + pos] & LRU;
        for (k, st) in self.keys[base..base + ways].iter().zip(&mut self.state[base..base + ways]) {
            if *k != 0 && *st & LRU > old {
                *st -= 1;
            }
        }
        let st = &mut self.state[base + pos];
        *st = (*st & DIRTY) | (ways as u8 - 1);
    }

    /// Probes for `addr`; a hit refreshes LRU and optionally marks dirty.
    /// Counts toward demand statistics.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, write);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Like [`access`](Self::access) but does not count statistics
    /// (used for prefetch probes).
    pub fn probe_silent(&mut self, addr: u64) -> bool {
        self.touch(addr, false)
    }

    /// Pure hit test: no statistics, no LRU update (for pre-checks that
    /// may be retried).
    pub fn probe_peek(&self, addr: u64) -> bool {
        self.lookup(addr).1.is_some()
    }

    fn touch(&mut self, addr: u64, write: bool) -> bool {
        let (base, way) = self.lookup(addr);
        let Some(pos) = way else { return false };
        self.promote(base, pos);
        if write {
            self.state[base + pos] |= DIRTY;
        }
        true
    }

    /// Fills the block containing `addr`, evicting LRU if needed. Returns
    /// the eviction, if any. `write` installs the block dirty
    /// (write-allocate).
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<Eviction> {
        if self.touch(addr, write) {
            // Already present (e.g. a racing fill): just refresh.
            return None;
        }
        let ways = self.cfg.ways;
        let base = self.set_of(addr) * ways;
        let keys = &self.keys[base..base + ways];
        // The first invalid way, else the first least-recently-used one.
        let pos = keys.iter().position(|&k| k == 0).unwrap_or_else(|| {
            let ranks = &self.state[base..base + ways];
            (1..ways).fold(0, |best, k| if ranks[k] & LRU < ranks[best] & LRU { k } else { best })
        });
        let victim = self.keys[base + pos];
        let evict = (victim != 0).then(|| {
            let set = (base / ways) as u64;
            let victim_addr = (((victim - 1) << self.sets.trailing_zeros()) | set) << self.cfg.block_bits;
            Eviction { addr: victim_addr, dirty: self.state[base + pos] & DIRTY != 0 }
        });
        self.keys[base + pos] = self.key_of(addr);
        // The new block takes over the victim's rank (0 for an invalid way,
        // whose state byte is never written), so `promote` ages exactly the
        // lines more recent than the victim.
        self.state[base + pos] &= LRU;
        self.promote(base, pos);
        if write {
            self.state[base + pos] |= DIRTY;
        }
        if evict.is_some_and(|e| e.dirty) {
            self.stats.writebacks += 1;
        }
        evict
    }

    /// Invalidates everything (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.keys.fill(0);
        self.state.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B blocks = 256 B
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, block_bits: 6 })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 2);
        assert_eq!(c.block_addr(0x7f), 0x40);
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert!(!c.access(0x100, false));
        c.fill(0x100, false);
        assert!(c.access(0x100, false));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses(), 1);
    }

    #[test]
    fn same_block_hits() {
        let mut c = small();
        c.fill(0x100, false);
        assert!(c.access(0x13f, false)); // same 64B block
        assert!(!c.access(0x140, false)); // next block
    }

    #[test]
    fn lru_replacement() {
        let mut c = small();
        // Set 0 gets blocks 0x000, 0x080, 0x100 (all map to set 0: block/64 % 2 == 0)
        c.fill(0x000, false);
        c.fill(0x080, false);
        c.access(0x000, false); // refresh 0x000
        let ev = c.fill(0x100, false).expect("must evict");
        assert_eq!(ev.addr, 0x080);
        assert!(c.probe_silent(0x000));
        assert!(!c.probe_silent(0x080));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.fill(0x000, true); // dirty install
        c.fill(0x080, false);
        let ev = c.fill(0x100, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(0x000, false);
        c.access(0x000, true);
        c.fill(0x080, false);
        let ev = c.fill(0x100, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x000, false);
        c.flush();
        assert!(!c.probe_silent(0x000));
    }

    #[test]
    fn refill_existing_block_is_no_eviction() {
        let mut c = small();
        c.fill(0x000, false);
        assert_eq!(c.fill(0x000, false), None);
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small();
        c.fill(0xabc0, false);
        c.fill(0xbbc0, false); // hmm, may map to a different set; force set 0 blocks
        let mut c = small();
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        let ev = c.fill(0x0200, false).unwrap();
        assert_eq!(ev.addr, 0x0000);
    }
}
