//! Sparse byte-addressable data memory image.
//!
//! The machine's data memory is a 64-bit byte-addressable space backed by
//! 4 KiB pages allocated on first write. Reads of unmapped memory return
//! zero without allocating, which keeps wrong-path execution in the timing
//! simulator exception-free (the paper's substrate likewise never faults in
//! the simulated regions).
//!
//! An access that stays inside one page (every aligned access does) takes
//! the word path: one page lookup and one little-endian copy of the whole
//! width. Only an access that crosses a page boundary falls back to one
//! lookup per byte. Pages are found through a fixed multiplicative hash of
//! the page index, so lookups are cheap and a map's layout (and with it the
//! `Debug` rendering) depends only on the sequence of writes, never on a
//! per-process random seed.

use crate::instr::MemWidth;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hashes a page index with one multiply by 2^64 / φ (Fibonacci
/// hashing). Being odd, the multiplier maps consecutive indices to
/// distinct low bits, and the high bits mix every input bit. The keys are
/// addresses the simulated program computes, so a program built to collide
/// them can only slow its own simulation.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type Page = Box<[u8; PAGE_SIZE]>;

/// Sparse, paged data memory.
///
/// # Examples
///
/// ```
/// use cfd_isa::{MemImage, MemWidth};
/// let mut m = MemImage::new();
/// m.write(0x1000, 0x1234_5678, MemWidth::B4);
/// assert_eq!(m.read(0x1000, MemWidth::B4, false), 0x1234_5678);
/// assert_eq!(m.read(0xdead_0000, MemWidth::B8, false), 0); // unmapped
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

impl MemImage {
    /// Creates an empty memory image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        self.pages.get(&(addr >> PAGE_SHIFT))
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    #[inline]
    fn read_byte(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    #[inline]
    fn write_byte(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `width` bytes, little-endian, zero- or sign-extended to `i64`.
    pub fn read(&self, addr: u64, width: MemWidth, signed: bool) -> i64 {
        let n = width.bytes() as usize;
        let off = (addr & PAGE_MASK) as usize;
        let v = if off + n <= PAGE_SIZE {
            self.page(addr).map_or(0, |p| {
                let mut word = [0u8; 8];
                word[..n].copy_from_slice(&p[off..off + n]);
                u64::from_le_bytes(word)
            })
        } else {
            (0..n).fold(0, |v, i| v | u64::from(self.read_byte(addr.wrapping_add(i as u64))) << (8 * i))
        };
        if signed {
            let shift = 64 - 8 * n as u32;
            ((v << shift) as i64) >> shift
        } else {
            v as i64
        }
    }

    /// Writes the low `width` bytes of `val`, little-endian.
    pub fn write(&mut self, addr: u64, val: i64, width: MemWidth) {
        let n = width.bytes() as usize;
        let off = (addr & PAGE_MASK) as usize;
        let bytes = val.to_le_bytes();
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes[..n].iter().enumerate() {
                self.write_byte(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// Reads an unsigned 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, MemWidth::B8, false) as u64
    }

    /// Writes a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write(addr, val as i64, MemWidth::B8);
    }

    /// Reads a signed 32-bit word.
    pub fn read_i32(&self, addr: u64) -> i32 {
        self.read(addr, MemWidth::B4, true) as i32
    }

    /// Writes a 32-bit word.
    pub fn write_i32(&mut self, addr: u64, val: i32) {
        self.write(addr, val as i64, MemWidth::B4);
    }

    /// Whether the page containing `addr` has been written.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr >> PAGE_SHIFT))
    }

    /// Number of mapped 4 KiB pages (the footprint).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_byte(addr + i as u64, *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_byte(addr + i as u64)).collect()
    }

    /// A stable, content-complete byte serialization of the image, for
    /// content-addressed fingerprinting (`cfd-exec`).
    ///
    /// Pages are emitted in ascending page-index order (the backing
    /// `HashMap`'s iteration order never leaks), each as its little-endian
    /// index followed by its 4 KiB payload. Two images with the same
    /// mapped content serialize identically regardless of write order;
    /// note an explicitly written all-zero page *is* content (it differs
    /// from an unmapped page here even though reads cannot tell them
    /// apart).
    pub fn stable_bytes(&self) -> Vec<u8> {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        let mut out = Vec::with_capacity(indices.len() * (PAGE_SIZE + 8));
        for idx in indices {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&self.pages[&idx][..]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero_and_do_not_allocate() {
        let m = MemImage::new();
        assert_eq!(m.read(0x5000, MemWidth::B8, false), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn widths_and_sign_extension() {
        let mut m = MemImage::new();
        m.write(0x100, -1, MemWidth::B1);
        assert_eq!(m.read(0x100, MemWidth::B1, false), 0xff);
        assert_eq!(m.read(0x100, MemWidth::B1, true), -1);
        m.write(0x200, -2, MemWidth::B4);
        assert_eq!(m.read(0x200, MemWidth::B4, true), -2);
        assert_eq!(m.read(0x200, MemWidth::B4, false), 0xffff_fffe);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        m.write(addr, 0x1122_3344_5566_7788, MemWidth::B8);
        assert_eq!(m.read(addr, MemWidth::B8, false), 0x1122_3344_5566_7788);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn byte_slice_roundtrip() {
        let mut m = MemImage::new();
        m.write_bytes(0x3000, b"hello");
        assert_eq!(m.read_bytes(0x3000, 5), b"hello");
    }

    #[test]
    fn stable_bytes_independent_of_write_order() {
        let mut a = MemImage::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        let mut b = MemImage::new();
        b.write_u64(0x9000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(a.stable_bytes(), b.stable_bytes());
        b.write_u64(0x1000, 8);
        assert_ne!(a.stable_bytes(), b.stable_bytes());
        // Two pages: 2 * (8-byte index + 4 KiB payload).
        assert_eq!(a.stable_bytes().len(), 2 * (8 + 4096));
    }

    const WIDTHS: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];

    /// An address near a page boundary (crossing it for wide accesses), or
    /// anywhere, including the top of the address space.
    fn pick_addr(rng: &mut crate::check::Rng) -> u64 {
        let page = rng.range_u64(0, 4);
        match rng.range_u64(0, 4) {
            0 => (page << PAGE_SHIFT) + PAGE_SIZE as u64 - rng.range_u64(1, 9),
            1 => u64::MAX - rng.range_u64(0, 9),
            2 => rng.next_u64(),
            _ => (page << PAGE_SHIFT) + rng.range_u64(0, PAGE_SIZE as u64),
        }
    }

    #[test]
    fn word_path_matches_a_byte_wise_reference() {
        crate::prop_check!(64, |rng| {
            let mut m = MemImage::new();
            let mut bytes: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
            for _ in 0..200 {
                let addr = pick_addr(rng);
                let width = WIDTHS[rng.range_usize(0, 4)];
                let n = width.bytes();
                if rng.bool() {
                    let val = rng.next_u64() as i64;
                    m.write(addr, val, width);
                    for i in 0..n {
                        bytes.insert(addr.wrapping_add(i), (val as u64 >> (8 * i)) as u8);
                    }
                }
                let signed = rng.bool();
                let raw = (0..n).fold(0u64, |v, i| {
                    v | u64::from(bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0)) << (8 * i)
                });
                let shift = 64 - 8 * n as u32;
                let want = if signed { ((raw << shift) as i64) >> shift } else { raw as i64 };
                assert_eq!(m.read(addr, width, signed), want, "{width:?} signed={signed} at {addr:#x}");
            }
            // Footprint: exactly the pages some written byte lives on.
            let pages: std::collections::BTreeSet<u64> = bytes.keys().map(|a| a >> PAGE_SHIFT).collect();
            assert_eq!(m.mapped_pages(), pages.len());
            // Slice reads agree byte for byte, including across pages.
            let start = (1 << PAGE_SHIFT) - 100;
            let want: Vec<u8> = (start..start + 200).map(|a| bytes.get(&a).copied().unwrap_or(0)).collect();
            assert_eq!(m.read_bytes(start, 200), want);
        });
    }

    #[test]
    fn clone_debug_and_stable_bytes_are_deterministic() {
        let build = || {
            let mut m = MemImage::new();
            for k in 0..64u64 {
                m.write_u64(k * 0x1_3000 + 8, k.wrapping_mul(0x9e37));
            }
            m
        };
        let (a, b) = (build(), build());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = a.clone();
        assert_eq!(format!("{a:?}"), format!("{c:?}"));
        assert_eq!(a.stable_bytes(), b.stable_bytes());
        assert_eq!(a.stable_bytes(), c.stable_bytes());
        // Written in reverse order, the same content serializes the same.
        let mut r = MemImage::new();
        for k in (0..64u64).rev() {
            r.write_u64(k * 0x1_3000 + 8, k.wrapping_mul(0x9e37));
        }
        assert_eq!(r.stable_bytes(), a.stable_bytes());
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MemImage::new();
        m.write(0x10, 0x0102_0304, MemWidth::B4);
        assert_eq!(m.read(0x10, MemWidth::B1, false), 0x04);
        assert_eq!(m.read(0x13, MemWidth::B1, false), 0x01);
    }
}
