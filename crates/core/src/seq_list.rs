//! FIFO lists of ROB ordinals that share one node pool.
//!
//! The scheduler keeps many short lists whose lengths swing from cycle to
//! cycle: one per event-wheel bucket and one per physical register's
//! waiters. A `Vec` per list keeps each list's own high-water capacity, so
//! a list that meets a longer burst than it ever held reallocates, long
//! after the pipeline has warmed up. Linking the entries of every list
//! through one pool leaves a single high-water mark, the total number of
//! pending entries, which a running pipeline reaches early; from then on
//! pushing and draining allocate nothing.

/// End-of-list marker.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    value: u64,
    next: u32,
}

/// The two ends of one FIFO list kept in a [`ListPool`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqList {
    head: u32,
    tail: u32,
}

impl SeqList {
    pub(crate) const EMPTY: SeqList = SeqList { head: NIL, tail: NIL };

    pub(crate) fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// Node storage shared by a family of [`SeqList`]s. Freed nodes are reused
/// before the pool grows.
#[derive(Debug, Clone)]
pub(crate) struct ListPool {
    nodes: Vec<Node>,
    /// Head of the free-node chain.
    free: u32,
    /// Entries held by all lists together.
    len: usize,
}

impl ListPool {
    pub(crate) fn new() -> ListPool {
        ListPool { nodes: Vec::new(), free: NIL, len: 0 }
    }

    /// Appends `value` to the back of `list`.
    pub(crate) fn push(&mut self, list: &mut SeqList, value: u64) {
        let node = Node { value, next: NIL };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("list pool within u32 indices")
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
        self.len += 1;
    }

    /// Removes and returns the front of `list`.
    pub(crate) fn pop(&mut self, list: &mut SeqList) -> Option<u64> {
        if list.head == NIL {
            return None;
        }
        let idx = list.head;
        let Node { value, next } = self.nodes[idx as usize];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
        Some(value)
    }

    /// Moves every entry of `list` to the back of `out`, in list order.
    pub(crate) fn drain_into(&mut self, list: &mut SeqList, out: &mut Vec<u64>) {
        while let Some(v) = self.pop(list) {
            out.push(v);
        }
    }

    /// Entries held by all lists together.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::prop_check;
    use std::collections::VecDeque;

    #[test]
    fn lists_match_independent_queues_and_reuse_nodes() {
        prop_check!(32, |rng| {
            let mut pool = ListPool::new();
            let mut lists = [SeqList::EMPTY; 4];
            let mut reference: [VecDeque<u64>; 4] = Default::default();
            let mut out = Vec::new();
            let mut peak = 0;
            for step in 0..2_000u64 {
                let k = rng.range_usize(0, 4);
                match rng.range_u64(0, 3) {
                    0 | 1 => {
                        pool.push(&mut lists[k], step);
                        reference[k].push_back(step);
                    }
                    _ => {
                        pool.drain_into(&mut lists[k], &mut out);
                        assert_eq!(out, reference[k].drain(..).collect::<Vec<_>>());
                        out.clear();
                    }
                }
                let live: usize = reference.iter().map(VecDeque::len).sum();
                assert_eq!(pool.len(), live);
                assert_eq!(lists[k].is_empty(), reference[k].is_empty());
                peak = peak.max(live);
                // Freed nodes are reused: the pool never outgrows the peak.
                assert_eq!(pool.nodes.len(), peak);
            }
        });
    }
}
