//! Load/store disambiguation and store-to-load forwarding.
//!
//! Conservative disambiguation over `store_list` (in-flight stores in age
//! order): a load issues only when every older store has a computed
//! address; an exact-match older store with ready data forwards, a partial
//! overlap (or unready data) blocks the load until the store drains.

use crate::pipeline::Pipeline;
use crate::rename::Taint;
use cfd_isa::Instr;

/// What a load sees when probing the older in-flight stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForwardState {
    /// Load can read committed memory.
    Memory,
    /// Load forwards this in-flight store's value (with its data taint).
    Forward { data: i64, taint: Taint },
    /// Load must wait (unknown or partially overlapping older store).
    MustWait,
}

impl Pipeline {
    /// What the load at window position `pos` sees this cycle under
    /// conservative disambiguation: [`ForwardState::MustWait`] while its
    /// base register or an older store is not ready, else where its value
    /// comes from.
    pub(crate) fn load_forward_state(&self, pos: u64) -> ForwardState {
        let load = &self.win[pos];
        let Instr::Load { offset, width, .. } = load.instr else { unreachable!("forwarding probe of a non-load") };
        let base = load.psrc1.expect("load base renamed");
        if !self.rename.is_ready(base, self.now) {
            return ForwardState::MustWait;
        }
        let addr = (self.rename.read(base) as u64).wrapping_add(offset as u64);
        let lw = width.bytes();
        let mut result = ForwardState::Memory;
        for &sseq in &self.store_list {
            if sseq >= pos {
                break;
            }
            if !self.win.in_rob(sseq) {
                continue;
            }
            let s = &self.win[sseq];
            if !s.issued {
                return ForwardState::MustWait; // unknown address
            }
            let saddr = s.eff_addr.expect("issued store has address");
            let sw = match s.instr {
                Instr::Store { width, .. } => width.bytes(),
                _ => unreachable!(),
            };
            // Overlap test.
            if saddr < addr.wrapping_add(lw) && addr < saddr.wrapping_add(sw) {
                if saddr == addr && lw <= sw {
                    // Forward only once the store's data is available.
                    let data_src = s.psrc2.expect("store has a data source");
                    if self.rename.is_ready(data_src, self.now) {
                        result = ForwardState::Forward {
                            data: self.rename.read(data_src),
                            taint: self.rename.taint(data_src),
                        };
                    } else {
                        return ForwardState::MustWait; // data not produced yet
                    }
                } else {
                    return ForwardState::MustWait; // partial overlap
                }
            }
        }
        result
    }
}
