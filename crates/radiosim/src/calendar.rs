//! The due calendar: a timer wheel that holds sleeping nodes until their
//! wake slot and parked nodes until their due slot, so a slot finds the
//! nodes it releases without a sweep over all n.

use sinr_geometry::NodeId;

/// Buckets of the timer wheel: a node due at slot `s` waits in bucket
/// `s % WHEEL`. At least the engine's draw-ahead horizon, so a node
/// parked on a coin that can succeed is examined at most twice before it
/// is due; an entry due in a later turn of the wheel stays in its bucket
/// and is examined once per turn.
pub(crate) const WHEEL: u64 = 4096;

/// The empty link: an unlinked node, or an empty bucket.
pub(crate) const NIL: u32 = u32::MAX;

/// A node id as a calendar link. The simulator refuses graphs with `NIL`
/// nodes or more, so every id converts.
fn link_of(v: NodeId) -> u32 {
    u32::try_from(v).unwrap_or(NIL)
}

/// The due calendar: a timer wheel of [`WHEEL`] buckets keyed by due
/// slot, each bucket a circular doubly linked list threaded through
/// intrusive per-node links, so linking and unlinking a node cost O(1)
/// and a slot examines only its own bucket. A node parked with no due
/// slot (`u64::MAX`) is never linked.
///
/// New entries go to the tail of their bucket, and a released bucket is
/// walked in order, so entries that the walker links back (those due in a
/// later turn of the wheel) keep their order. Sleeping nodes linked in
/// ascending id order therefore stay, and are released, in that order.
pub(crate) struct Calendar {
    /// Each bucket's first entry, or `NIL`.
    heads: Vec<u32>,
    /// Each node's successor and predecessor in its bucket (`NIL` while
    /// unlinked; a lone entry links to itself).
    next: Vec<u32>,
    prev: Vec<u32>,
}

/// A bucket detached by [`Calendar::release`], walked entry by entry with
/// [`Calendar::next_released`].
pub(crate) struct Released {
    /// The bucket's first entry, which ends the walk when reached again.
    head: u32,
    /// The entry the walk returns next, or `NIL` once it is over.
    at: u32,
}

impl Calendar {
    /// An empty calendar for nodes `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Calendar {
            heads: vec![NIL; WHEEL as usize],
            next: vec![NIL; n],
            prev: vec![NIL; n],
        }
    }

    fn bucket(slot: u64) -> usize {
        (slot % WHEEL) as usize
    }

    /// Appends node `v` to the tail of the bucket of `due`.
    pub(crate) fn link(&mut self, v: NodeId, due: u64) {
        debug_assert_eq!(self.next[v], NIL, "node {v} is linked twice");
        let b = Self::bucket(due);
        let vl = link_of(v);
        let h = self.heads[b];
        if h == NIL {
            self.heads[b] = vl;
            self.next[v] = vl;
            self.prev[v] = vl;
        } else {
            let t = self.prev[h as usize];
            self.next[t as usize] = vl;
            self.prev[v] = t;
            self.next[v] = h;
            self.prev[h as usize] = vl;
        }
    }

    /// Removes node `v` from the bucket of `due`, where it is linked.
    pub(crate) fn unlink(&mut self, v: NodeId, due: u64) {
        debug_assert_ne!(self.next[v], NIL, "node {v} is not linked");
        let b = Self::bucket(due);
        let vl = link_of(v);
        let nx = self.next[v];
        if nx == vl {
            self.heads[b] = NIL;
        } else {
            let p = self.prev[v];
            self.next[p as usize] = nx;
            self.prev[nx as usize] = p;
            if self.heads[b] == vl {
                self.heads[b] = nx;
            }
        }
        self.next[v] = NIL;
        self.prev[v] = NIL;
    }

    /// Detaches the bucket of `slot`, leaving it empty, for a walk with
    /// [`Calendar::next_released`]. Every entry of a turn of the wheel,
    /// due at `slot` or later, is in it.
    pub(crate) fn release(&mut self, slot: u64) -> Released {
        let head = std::mem::replace(&mut self.heads[Self::bucket(slot)], NIL);
        Released { head, at: head }
    }

    /// The next entry of the released bucket `r`, in bucket order and
    /// unlinked, or `None` once every entry has been returned. The caller
    /// may link the returned node again, into any bucket (the emptied one
    /// included), before it asks for the next: the entries not yet
    /// returned keep their links until their turn.
    pub(crate) fn next_released(&mut self, r: &mut Released) -> Option<NodeId> {
        if r.at == NIL {
            return None;
        }
        let v = r.at as usize;
        let nx = self.next[v];
        self.next[v] = NIL;
        self.prev[v] = NIL;
        r.at = if nx == r.head { NIL } else { nx };
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket of `slot` in order, walked from its head by the links,
    /// leaving it linked.
    fn entries(cal: &Calendar, slot: u64) -> Vec<NodeId> {
        let head = cal.heads[Calendar::bucket(slot)];
        let mut out = Vec::new();
        if head == NIL {
            return out;
        }
        let mut e = head;
        loop {
            out.push(e as usize);
            let nx = cal.next[e as usize];
            assert_eq!(cal.prev[nx as usize], e, "links of {e} and {nx} agree");
            if nx == head {
                break;
            }
            e = nx;
        }
        out
    }

    /// Releases the bucket of `slot` and returns every entry, relinking
    /// those `due` places in a later turn, as the engine does.
    fn release_due(cal: &mut Calendar, slot: u64, due: &[u64]) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut r = cal.release(slot);
        while let Some(v) = cal.next_released(&mut r) {
            if due[v] != slot {
                assert!(due[v] > slot, "node {v} was not released when due");
                cal.link(v, due[v]);
            } else {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn link_and_unlink_at_the_head_the_tail_and_of_a_lone_entry() {
        let mut cal = Calendar::new(8);
        for v in [3, 1, 4, 5] {
            cal.link(v, 7);
        }
        assert_eq!(entries(&cal, 7), [3, 1, 4, 5]);
        // The head.
        cal.unlink(3, 7);
        assert_eq!(entries(&cal, 7), [1, 4, 5]);
        // The tail.
        cal.unlink(5, 7);
        assert_eq!(entries(&cal, 7), [1, 4]);
        // A middle entry, then the head again, leaving one entry.
        cal.link(6, 7);
        cal.unlink(4, 7);
        assert_eq!(entries(&cal, 7), [1, 6]);
        cal.unlink(1, 7);
        assert_eq!(entries(&cal, 7), [6]);
        // A lone entry empties its bucket.
        cal.unlink(6, 7);
        assert_eq!(entries(&cal, 7), [] as [NodeId; 0]);
        // Every unlinked node can be linked again, into the same bucket
        // or another turn of it, and goes to the tail.
        cal.link(5, 7 + WHEEL);
        cal.link(3, 7);
        assert_eq!(entries(&cal, 7), [5, 3]);
        // Other buckets were never touched.
        assert!((0..WHEEL)
            .filter(|&s| s != 7)
            .all(|s| entries(&cal, s).is_empty()));
    }

    #[test]
    fn a_released_bucket_keeps_entries_due_in_a_later_turn_in_order() {
        let mut cal = Calendar::new(8);
        let s = 21;
        let mut due = [
            s,
            s + WHEEL,
            s,
            s + 3 * WHEEL,
            s + WHEEL,
            s,
            u64::MAX,
            s + 2 * WHEEL,
        ];
        for v in [5, 1, 0, 3, 7, 4, 2] {
            cal.link(v, due[v]);
        }
        assert_eq!(release_due(&mut cal, s, &due), [5, 0, 2]);
        assert_eq!(entries(&cal, s), [1, 3, 7, 4]);
        // A node released now may be linked into the emptied bucket's
        // next turn while the walk goes on, as a node that parks again
        // is: the walk still returns every entry once, and the entries
        // that stay go behind it in their order.
        let mut r = cal.release(s + WHEEL);
        let mut walked = Vec::new();
        while let Some(v) = cal.next_released(&mut r) {
            walked.push(v);
            if due[v] == s + WHEEL {
                due[v] = s + 2 * WHEEL;
            }
            cal.link(v, due[v]);
        }
        assert_eq!(walked, [1, 3, 7, 4]);
        assert_eq!(entries(&cal, s), [1, 3, 7, 4]);
        assert_eq!(release_due(&mut cal, s + 2 * WHEEL, &due), [1, 7, 4]);
        assert_eq!(release_due(&mut cal, s + 3 * WHEEL, &due), [3]);
        assert_eq!(entries(&cal, s), [] as [NodeId; 0]);
        // An empty bucket releases nothing.
        assert_eq!(
            release_due(&mut cal, s + 4 * WHEEL, &due),
            [] as [NodeId; 0]
        );
    }

    #[test]
    fn sleepers_linked_in_ascending_id_are_released_in_ascending_id() {
        // Odd ids sleep until wake slots that alias across three turns of
        // the wheel. Even ids are parked nodes: linked behind them, parked
        // again when released, and now and then unlinked early and linked
        // at a new due slot, as a heeded reception does.
        let n = 400;
        let end = 3 * WHEEL + 17;
        let sleeper = |v: NodeId| v % 2 == 1;
        let mut due: Vec<u64> = (0..n as u64)
            .map(|v| {
                if v % 2 == 1 {
                    (v * 7_919) % end
                } else {
                    (v * 13) % 500
                }
            })
            .collect();
        let wake = due.clone();
        let mut cal = Calendar::new(n);
        for v in (0..n).filter(|&v| sleeper(v)) {
            cal.link(v, due[v]);
        }
        for v in (0..n).filter(|&v| !sleeper(v)) {
            cal.link(v, due[v]);
        }
        let mut woken = vec![false; n];
        for slot in 0..end {
            let released = release_due(&mut cal, slot, &due);
            let woke: Vec<NodeId> = released.iter().copied().filter(|&v| sleeper(v)).collect();
            assert!(
                woke.windows(2).all(|w| w[0] < w[1]),
                "slot {slot}: {woke:?}"
            );
            for &v in &woke {
                assert_eq!(wake[v], slot, "node {v}");
                assert!(!woken[v], "node {v} woke twice");
                woken[v] = true;
            }
            for v in released.into_iter().filter(|&v| !sleeper(v)) {
                due[v] = slot + 1 + (v as u64 * 37 + slot) % (2 * WHEEL);
                cal.link(v, due[v]);
            }
            if slot % 97 == 0 {
                let v = (slot / 97 * 2) as usize % n;
                cal.unlink(v, due[v]);
                due[v] = slot + 1 + (slot * 11) % WHEEL;
                cal.link(v, due[v]);
            }
        }
        assert!(
            (0..n).filter(|&v| sleeper(v)).all(|v| woken[v]),
            "every sleeper woke"
        );
    }
}
