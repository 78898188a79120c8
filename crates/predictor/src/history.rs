//! Speculative global branch history with O(1) folded views.
//!
//! TAGE-style predictors index their tables with very long global histories
//! (hundreds of bits) folded down to table-index width. We keep the history
//! in a circular bit buffer with an *insertion position* and maintain folded
//! CSRs incrementally.
//!
//! A fold's geometry (history length, output width, and where its outgoing
//! bit lands) is fixed when it is registered and stored once, as arrays;
//! only the fold *values* change per branch, and only they are in a
//! [`HistorySnapshot`]. A geometry registered twice is one fold, and folds
//! that share a history length share one outgoing-bit read (TAGE registers
//! three folds per length): an insert reads each distinct length's outgoing
//! bit once into one word, then updates every fold with the same branch-free
//! arithmetic over the fixed-size arrays.
//!
//! Recovery from a misprediction restores the position, the path history and
//! the fold values from a per-branch [`HistorySnapshot`]; the bits behind the
//! restored position are still intact in the buffer (wrong-path bits ahead
//! of it are overwritten before they can ever be read), so rewinding is
//! O(#folds), not O(history length).

/// Size of the circular history buffer in bits. Must exceed the longest
/// history length plus the maximum number of in-flight branches.
const BUF_BITS: usize = 4096;

/// Maximum number of folded views a [`GlobalHistory`] may carry.
pub const MAX_FOLDS: usize = 48;

/// Maximum number of distinct history lengths among the folded views (one
/// bit each in the per-insert outgoing-bit word).
const MAX_LENS: usize = 32;

/// Snapshot of the history state at a branch, for misprediction recovery.
///
/// Fixed-size (no heap) because one is taken per predicted branch; it holds
/// only the mutable state — fold geometry lives in the [`GlobalHistory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySnapshot {
    pos: u64,
    phist: u32,
    folds: [u32; MAX_FOLDS],
}

/// The speculative global history: a circular bit buffer plus a set of
/// registered folded views and a short path history.
#[derive(Debug, Clone)]
pub struct GlobalHistory {
    buf: [u64; BUF_BITS / 64],
    /// Total bits ever inserted (insertion position).
    pos: u64,
    /// 16-bit path history (low bits of branch PCs).
    phist: u32,
    /// Fold values, one per registered view (unused slots stay 0).
    folds: [u32; MAX_FOLDS],
    n_folds: usize,
    /// Per fold: `2^width - 1`.
    mask: [u32; MAX_FOLDS],
    /// Per fold: `2^width`, the bit a shift carries out of the fold.
    carry: [u32; MAX_FOLDS],
    /// Per fold: `1 << (hist_len % width)`, where the outgoing bit lands.
    out_bit: [u32; MAX_FOLDS],
    /// Per fold: `1 << j`, where `lens[j]` is its history length.
    len_bit: [u32; MAX_FOLDS],
    /// Distinct registered history lengths.
    lens: [u64; MAX_LENS],
    n_lens: usize,
}

impl GlobalHistory {
    /// Creates an empty history with no folded views.
    pub fn new() -> GlobalHistory {
        GlobalHistory {
            buf: [0; BUF_BITS / 64],
            pos: 0,
            phist: 0,
            folds: [0; MAX_FOLDS],
            n_folds: 0,
            mask: [0; MAX_FOLDS],
            carry: [0; MAX_FOLDS],
            out_bit: [0; MAX_FOLDS],
            len_bit: [0; MAX_FOLDS],
            lens: [0; MAX_LENS],
            n_lens: 0,
        }
    }

    /// Registers a view of the last `hist_len` bits folded to `out_bits`
    /// bits and returns its handle for [`folded`](Self::folded). A view of
    /// a geometry already registered returns the existing handle: its value
    /// is the same.
    pub fn add_fold(&mut self, hist_len: usize, out_bits: u32) -> usize {
        assert!(out_bits > 0 && out_bits <= 31);
        assert!(hist_len < BUF_BITS / 2, "history length too large for the buffer");
        let len = hist_len as u64;
        let mask = (1 << out_bits) - 1;
        let registered =
            |f: &usize| self.mask[*f] == mask && self.lens[self.len_bit[*f].trailing_zeros() as usize] == len;
        if let Some(f) = (0..self.n_folds).find(registered) {
            return f;
        }
        assert!(self.n_folds < MAX_FOLDS, "too many folded views");
        let slot = match self.lens[..self.n_lens].iter().position(|&l| l == len) {
            Some(s) => s,
            None => {
                assert!(self.n_lens < MAX_LENS, "too many distinct history lengths");
                self.lens[self.n_lens] = len;
                self.n_lens += 1;
                self.n_lens - 1
            }
        };
        let f = self.n_folds;
        self.mask[f] = mask;
        self.carry[f] = mask + 1;
        self.out_bit[f] = 1 << (hist_len % out_bits as usize);
        self.len_bit[f] = 1 << slot;
        self.n_folds += 1;
        f
    }

    /// The current value of a registered folded view.
    #[inline]
    pub fn folded(&self, handle: usize) -> u32 {
        self.folds[handle]
    }

    /// The 16-bit path history.
    #[inline]
    pub fn path(&self) -> u32 {
        self.phist
    }

    #[inline]
    fn bit(&self, abs: u64) -> bool {
        let idx = (abs as usize) % BUF_BITS;
        (self.buf[idx / 64] >> (idx % 64)) & 1 != 0
    }

    /// Raw history bit `n` positions back (0 = most recent).
    #[inline]
    pub fn recent(&self, n: usize) -> bool {
        if (n as u64) < self.pos {
            self.bit(self.pos - 1 - n as u64)
        } else {
            false
        }
    }

    /// Inserts a branch outcome (speculatively, at predict time).
    #[inline]
    pub fn insert(&mut self, taken: bool, pc: u64) {
        let pos = self.pos;
        let idx = pos as usize % BUF_BITS;
        let word = &mut self.buf[idx / 64];
        *word = (*word & !(1 << (idx % 64))) | (u64::from(taken) << (idx % 64));
        self.pos = pos + 1;
        // Bit `j` of `leaving`: the bit leaving the window of length
        // `lens[j]`. It sits strictly behind the insertion point (or is the
        // bit just written, for length 0), which survives any later rewind
        // (see module docs); before `len` bits exist it is 0.
        let mut leaving = 0u32;
        for (j, &len) in self.lens[..self.n_lens].iter().enumerate() {
            let at = pos.wrapping_sub(len) as usize % BUF_BITS;
            leaving |= ((self.buf[at / 64] >> (at % 64)) as u32 & u32::from(pos >= len)) << j;
        }
        // Rotate-insert the new bit, fold the carried-out top bit back into
        // bit 0, then cancel the outgoing bit at its rotated position. A
        // fold stays below its `carry`, so the shift carries out one bit.
        let n = self.n_folds;
        let new = u32::from(taken);
        let geometry = self.mask[..n].iter().zip(&self.carry[..n]).zip(&self.out_bit[..n]).zip(&self.len_bit[..n]);
        for (v, (((&mask, &carry), &out_bit), &len_bit)) in self.folds[..n].iter_mut().zip(geometry) {
            let x = (*v << 1) | new;
            let out = if leaving & len_bit != 0 { out_bit } else { 0 };
            *v = (x & mask) ^ u32::from(x & carry != 0) ^ out;
        }
        self.phist = ((self.phist << 1) | ((pc >> 2) & 1) as u32) & 0xffff;
    }

    /// Captures the state for later recovery.
    #[inline]
    pub fn snapshot(&self) -> HistorySnapshot {
        HistorySnapshot { pos: self.pos, phist: self.phist, folds: self.folds }
    }

    /// Restores a snapshot (the state *before* the mispredicted branch was
    /// inserted), then re-inserts the resolved outcome.
    pub fn recover(&mut self, snap: &HistorySnapshot, resolved_taken: bool, pc: u64) {
        self.restore(snap);
        self.insert(resolved_taken, pc);
    }

    /// Restores a snapshot exactly (no re-insert). Used when squashing a
    /// wrong-path branch entirely.
    #[inline]
    pub fn restore(&mut self, snap: &HistorySnapshot) {
        self.pos = snap.pos;
        self.phist = snap.phist;
        self.folds = snap.folds;
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference fold: xor together hist_len bits in out_bits chunks.
    fn reference_fold(bits: &[bool], hist_len: usize, out_bits: u32) -> u32 {
        let mut v: u32 = 0;
        // bits[0] is oldest; fold so that the most recent bit lands in bit 0
        // of the first chunk, matching the incremental scheme.
        for (age, b) in bits.iter().rev().take(hist_len).enumerate() {
            let pos = age as u32 % out_bits;
            // Incremental scheme effectively xors bit at (age % out_bits)
            // but with chunks laid out from the recent end.
            if *b {
                v ^= 1 << pos;
            }
        }
        v
    }

    #[test]
    fn folded_matches_reference_after_random_stream() {
        let mut gh = GlobalHistory::new();
        let h = gh.add_fold(13, 7);
        let mut bits = Vec::new();
        let mut x: u64 = 0x12345;
        for i in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = x >> 63 != 0;
            bits.push(b);
            gh.insert(b, i);
        }
        assert_eq!(gh.folded(h), reference_fold(&bits, 13, 7));
    }

    #[test]
    fn folds_sharing_a_length_match_the_reference_at_every_step() {
        // Three widths per length (as TAGE registers them), lengths both
        // shorter and longer than the stream's early prefix, and a length
        // that is a multiple of its width (outgoing bit at position 0).
        let geometry = [(4, 10), (4, 11), (4, 10), (21, 7), (21, 11), (0, 5), (300, 10), (300, 9), (14, 7)];
        let mut gh = GlobalHistory::new();
        let handles: Vec<usize> = geometry.iter().map(|&(l, w)| gh.add_fold(l, w)).collect();
        assert_eq!(handles, [0, 1, 0, 2, 3, 4, 5, 6, 7], "a repeated geometry shares its fold");
        let mut bits = Vec::new();
        let mut x: u64 = 0x9e37;
        for i in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = x >> 61 != 0;
            bits.push(b);
            gh.insert(b, i);
            for (&h, &(l, w)) in handles.iter().zip(&geometry) {
                assert_eq!(gh.folded(h), reference_fold(&bits, l, w), "fold ({l},{w}) after {} bits", i + 1);
            }
        }
    }

    #[test]
    fn snapshot_recover_roundtrip() {
        let mut gh = GlobalHistory::new();
        let h = gh.add_fold(20, 9);
        for i in 0..100 {
            gh.insert(i % 3 == 0, i);
        }
        let snap = gh.snapshot();
        let correct_value_after = {
            let mut copy = gh.clone();
            copy.insert(true, 999);
            copy.folded(h)
        };
        // Wrong path: insert garbage, then recover with the actual outcome.
        gh.insert(false, 999);
        for i in 0..50 {
            gh.insert(i % 2 == 0, 5000 + i);
        }
        gh.recover(&snap, true, 999);
        assert_eq!(gh.folded(h), correct_value_after);
    }

    #[test]
    fn restore_is_exact() {
        let mut gh = GlobalHistory::new();
        gh.add_fold(8, 5);
        for i in 0..10 {
            gh.insert(true, i);
        }
        let snap = gh.snapshot();
        gh.insert(false, 11);
        gh.restore(&snap);
        assert_eq!(gh.snapshot(), snap);
    }

    #[test]
    fn recent_reads_latest_bits() {
        let mut gh = GlobalHistory::new();
        gh.insert(true, 0);
        gh.insert(false, 4);
        assert!(!gh.recent(0));
        assert!(gh.recent(1));
        assert!(!gh.recent(2)); // beyond inserted history
    }

    #[test]
    fn path_history_tracks_pc_bits() {
        let mut gh = GlobalHistory::new();
        gh.insert(true, 0b100); // pc bit (pc>>2)&1 = 1
        gh.insert(true, 0b000); // 0
        assert_eq!(gh.path() & 0b11, 0b10);
    }

    #[test]
    fn snapshot_holds_values_only() {
        assert!(std::mem::size_of::<HistorySnapshot>() <= 208);
    }
}
