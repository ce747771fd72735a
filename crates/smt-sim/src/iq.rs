//! The shared issue queue container.
//!
//! Stores the IDs of resident instructions (the slab holds the payload)
//! plus the running hint-bit total the DVM hardware would keep in its
//! ACE-bit counter. Entry order is not maintained here: age-based
//! selection uses the global `seq` carried by each instruction.
//!
//! A per-`InstId` slot index makes `contains`/`remove` O(1). It is
//! derived from `entries`, never serialized, and rebuilt on restore.

use crate::layout;
use crate::types::{InstId, InstSlab};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};

const NO_SLOT: u32 = u32::MAX;

/// The shared issue queue of the SMT processor.
pub struct IssueQueue {
    capacity: usize,
    entries: Vec<InstId>,
    /// `slot_of[id]` is the position of `id` in `entries`, or `NO_SLOT`.
    /// Indexed by slab slot, so it grows to the slab's high-water mark.
    slot_of: Vec<u32>,
    /// Σ over resident instructions of their hint-derived ACE bits —
    /// the online ACE-bit counter of the paper's Section 5.1.
    hint_bits: u64,
    /// Per-thread occupancy (who is hogging the shared queue).
    per_thread: [usize; micro_isa::MAX_THREADS],
}

impl IssueQueue {
    pub fn new(capacity: usize) -> IssueQueue {
        assert!(capacity > 0);
        IssueQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
            slot_of: Vec::new(),
            hint_bits: 0,
            per_thread: [0; micro_isa::MAX_THREADS],
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Current hint-bit ACE total (the hardware counter value).
    pub fn hint_bits_resident(&self) -> u64 {
        self.hint_bits
    }

    /// Occupancy attributable to one thread.
    pub fn thread_occupancy(&self, tid: micro_isa::ThreadId) -> usize {
        self.per_thread[tid as usize]
    }

    /// Allocate an entry. Panics if full (the dispatch stage checks).
    pub fn insert(&mut self, id: InstId, ace_hint: bool, tid: micro_isa::ThreadId) {
        assert!(!self.is_full(), "IQ overflow");
        debug_assert!(!self.contains(id), "duplicate IQ entry");
        if id >= self.slot_of.len() {
            self.slot_of.resize(id + 1, NO_SLOT);
        }
        self.slot_of[id] = self.entries.len() as u32;
        self.entries.push(id);
        self.hint_bits += layout::iq_ace_bits(ace_hint) as u64;
        self.per_thread[tid as usize] += 1;
    }

    /// Free the entry of `id` (at writeback or squash). Panics if absent.
    pub fn remove(&mut self, id: InstId, ace_hint: bool, tid: micro_isa::ThreadId) {
        assert!(self.contains(id), "removing instruction not in IQ");
        let pos = std::mem::replace(&mut self.slot_of[id], NO_SLOT) as usize;
        self.entries.swap_remove(pos);
        if let Some(&moved) = self.entries.get(pos) {
            self.slot_of[moved] = pos as u32;
        }
        self.hint_bits -= layout::iq_ace_bits(ace_hint) as u64;
        self.per_thread[tid as usize] -= 1;
    }

    pub fn contains(&self, id: InstId) -> bool {
        self.slot_of.get(id).is_some_and(|&s| s != NO_SLOT)
    }

    /// Self-check: the slot index names exactly the resident entries,
    /// each at its storage position.
    pub fn check_index(&self) -> Result<(), String> {
        for (pos, &id) in self.entries.iter().enumerate() {
            let indexed = self.slot_of.get(id).copied().unwrap_or(NO_SLOT);
            if indexed as usize != pos {
                return Err(format!(
                    "IQ slot index places entry {id} at {indexed}, storage has it at {pos}"
                ));
            }
        }
        let indexed = self.slot_of.iter().filter(|&&s| s != NO_SLOT).count();
        if indexed != self.entries.len() {
            return Err(format!(
                "IQ slot index holds {indexed} entries, storage holds {}",
                self.entries.len()
            ));
        }
        Ok(())
    }

    /// Testing hook: skew the hardware ACE-bit counter without touching
    /// the entries it mirrors — models a soft error in the counter
    /// itself, which the `--selfcheck` invariant sweep must catch.
    #[doc(hidden)]
    pub fn skew_hint_bits(&mut self, delta: u64) {
        self.hint_bits = self.hint_bits.wrapping_add(delta);
    }

    /// The occupant of physical slot `idx`, if the slot is allocated.
    /// Slot numbering reflects the collapsing-queue storage order
    /// (`swap_remove` compaction): slots `0..len()` are occupied,
    /// `len()..capacity()` are empty. Fault injection samples this
    /// space uniformly.
    pub fn entry_at(&self, idx: usize) -> Option<InstId> {
        assert!(idx < self.capacity, "IQ slot {idx} out of range");
        self.entries.get(idx).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.entries.iter().copied()
    }

    /// Serialize the queue contents. The `entries` vector is written
    /// verbatim: `swap_remove` compaction makes physical slot order
    /// history-dependent, and fault injection samples slots by index,
    /// so order must survive a round-trip for bit-identical resume.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.entries);
        w.put(&self.hint_bits);
        let pt: Vec<u64> = self.per_thread.iter().map(|&n| n as u64).collect();
        w.put(&pt);
    }

    /// Restore state saved by [`IssueQueue::save_state`]; `slab` is the
    /// already-restored instruction slab every entry must live in.
    pub fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        slab: &InstSlab,
    ) -> Result<(), SnapError> {
        let entries: Vec<InstId> = r.get()?;
        let hint_bits = r.get_u64()?;
        let pt: Vec<u64> = r.get()?;
        if entries.len() > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "IQ occupancy {} exceeds capacity {}",
                entries.len(),
                self.capacity
            )));
        }
        if pt.len() != micro_isa::MAX_THREADS {
            return Err(SnapError::Corrupt(format!(
                "IQ per-thread table has {} slots, expected {}",
                pt.len(),
                micro_isa::MAX_THREADS
            )));
        }
        if pt.iter().sum::<u64>() != entries.len() as u64 {
            return Err(SnapError::Corrupt(
                "IQ per-thread occupancy does not sum to entry count".into(),
            ));
        }
        self.slot_of.clear();
        for (pos, &id) in entries.iter().enumerate() {
            if !slab.contains(id) {
                return Err(SnapError::Corrupt(format!(
                    "IQ entry {id} references a dead slab slot"
                )));
            }
            if id >= self.slot_of.len() {
                self.slot_of.resize(id + 1, NO_SLOT);
            }
            if self.slot_of[id] != NO_SLOT {
                return Err(SnapError::Corrupt(format!("IQ entry {id} appears twice")));
            }
            self.slot_of[id] = pos as u32;
        }
        self.entries = entries;
        self.hint_bits = hint_bits;
        for (dst, &src) in self.per_thread.iter_mut().zip(pt.iter()) {
            *dst = src as usize;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ACE_INST_BITS, UNACE_INST_BITS};

    #[test]
    fn insert_remove_tracks_occupancy_and_bits() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, true, 0);
        iq.insert(2, false, 1);
        assert_eq!(iq.len(), 2);
        assert_eq!(
            iq.hint_bits_resident(),
            (ACE_INST_BITS + UNACE_INST_BITS) as u64
        );
        iq.remove(1, true, 0);
        assert_eq!(iq.hint_bits_resident(), UNACE_INST_BITS as u64);
        assert!(!iq.contains(1));
        assert!(iq.contains(2));
    }

    #[test]
    fn capacity_enforced() {
        let mut iq = IssueQueue::new(2);
        iq.insert(1, false, 0);
        iq.insert(2, false, 1);
        assert!(iq.is_full());
    }

    #[test]
    #[should_panic(expected = "IQ overflow")]
    fn overflow_panics() {
        let mut iq = IssueQueue::new(1);
        iq.insert(1, false, 0);
        iq.insert(2, false, 1);
    }

    #[test]
    #[should_panic(expected = "not in IQ")]
    fn removing_absent_panics() {
        let mut iq = IssueQueue::new(2);
        iq.remove(9, false, 0);
    }
}
