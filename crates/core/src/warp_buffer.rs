//! The RT/HSU unit's warp buffer (paper §IV-A, Fig. 4).
//!
//! A dispatched warp instruction is parked in a warp-buffer entry while each
//! active lane's node data is gathered from the L1 through the FIFO memory
//! access queue. The entry tracks an *active mask* (lanes participating in
//! the instruction) and a *valid mask* (lanes whose data has arrived). When
//! `valid == active`, the entry is ready for the single-lane datapath, which
//! drains one lane per cycle; when every active lane has completed, the
//! result buffer writes back to the register file and the entry is freed.
//!
//! Buffering several warps at once is what gives the unit its memory-level
//! parallelism — the Fig. 11 sensitivity study sweeps this capacity.

/// Number of threads per warp.
pub const WARP_WIDTH: usize = 32;

/// Identifier of a warp-buffer entry.
pub type EntryId = usize;

/// State of one buffered warp instruction.
#[derive(Debug, Clone)]
pub struct WarpEntry {
    /// Which warp (scheduler-global id) this instruction belongs to.
    pub warp_id: usize,
    /// Which of the four sub-cores dispatched it.
    pub sub_core: usize,
    /// Lanes participating in the instruction.
    pub active_mask: u32,
    /// Lanes whose node data has been gathered.
    pub valid_mask: u32,
    /// Lanes already issued into the datapath pipeline.
    pub issued_mask: u32,
    /// Lanes whose computation has completed (result buffered).
    pub completed_mask: u32,
}

impl WarpEntry {
    /// Returns `true` once every active lane's operand data has arrived.
    #[inline]
    pub fn operands_ready(&self) -> bool {
        self.valid_mask & self.active_mask == self.active_mask
    }

    /// Returns `true` when all active lanes have been issued to the pipeline.
    #[inline]
    pub fn fully_issued(&self) -> bool {
        self.issued_mask & self.active_mask == self.active_mask
    }

    /// Returns `true` when all active lanes have completed — the result
    /// buffer can write back to the register file.
    #[inline]
    pub fn writeback_ready(&self) -> bool {
        self.completed_mask & self.active_mask == self.active_mask
    }

    /// Lowest-numbered active lane that is ready but not yet issued, skipping
    /// inactive lanes as the datapath scheduler does (§IV-B).
    #[inline]
    pub fn next_issuable_lane(&self) -> Option<usize> {
        let pending = self.active_mask & self.valid_mask & !self.issued_mask;
        if pending == 0 {
            None
        } else {
            Some(pending.trailing_zeros() as usize)
        }
    }
}

/// The warp buffer: a small fully-associative pool of [`WarpEntry`]s. It
/// tracks masks only; the owner keeps each lane's operation itself.
///
/// # Examples
///
/// ```
/// use hsu_core::warp_buffer::WarpBuffer;
///
/// let mut buf = WarpBuffer::new(8);
/// let id = buf.allocate(0, 0, 0b11).expect("space available");
/// buf.mark_valid(id, 0);
/// buf.mark_valid(id, 1);
/// assert!(buf.entry(id).operands_ready());
/// ```
#[derive(Debug)]
pub struct WarpBuffer {
    entries: Vec<Option<WarpEntry>>,
    /// Occupied entries, kept in step with `entries`.
    occupied: usize,
}

impl WarpBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "warp buffer needs at least one entry");
        WarpBuffer {
            entries: (0..capacity).map(|_| None).collect(),
            occupied: 0,
        }
    }

    /// Total number of entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of occupied entries.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Returns `true` if no entry is free.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupied == self.entries.len()
    }

    /// Allocates an entry for a dispatched warp instruction. Returns `None`
    /// when the buffer is full (the dispatching sub-core must stall). Never
    /// allocates memory.
    ///
    /// # Panics
    ///
    /// Panics if `active_mask` is zero.
    pub fn allocate(
        &mut self,
        warp_id: usize,
        sub_core: usize,
        active_mask: u32,
    ) -> Option<EntryId> {
        assert!(
            active_mask != 0,
            "warp instruction needs at least one active lane"
        );
        let slot = self.entries.iter().position(|e| e.is_none())?;
        self.entries[slot] = Some(WarpEntry {
            warp_id,
            sub_core,
            active_mask,
            valid_mask: 0,
            issued_mask: 0,
            completed_mask: 0,
        });
        self.occupied += 1;
        Some(slot)
    }

    /// The entry at `id`, or `None` when it is vacant or out of range.
    #[inline]
    pub fn get(&self, id: EntryId) -> Option<&WarpEntry> {
        self.entries.get(id).and_then(Option::as_ref)
    }

    /// Borrow of an entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant.
    pub fn entry(&self, id: EntryId) -> &WarpEntry {
        self.entries[id].as_ref().expect("vacant warp buffer entry")
    }

    /// Mutable borrow of an entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant.
    fn entry_mut(&mut self, id: EntryId) -> &mut WarpEntry {
        self.entries[id].as_mut().expect("vacant warp buffer entry")
    }

    /// Marks `lane`'s node data as gathered (memory response arrived).
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant or `lane >= 32`.
    pub fn mark_valid(&mut self, id: EntryId, lane: usize) {
        assert!(lane < WARP_WIDTH, "lane {lane} out of range");
        self.entry_mut(id).valid_mask |= 1 << lane;
    }

    /// Marks `lane` as issued into the datapath.
    pub fn mark_issued(&mut self, id: EntryId, lane: usize) {
        assert!(lane < WARP_WIDTH, "lane {lane} out of range");
        self.entry_mut(id).issued_mask |= 1 << lane;
    }

    /// Marks `lane`'s computation complete (result captured in the result
    /// buffer).
    pub fn mark_completed(&mut self, id: EntryId, lane: usize) {
        assert!(lane < WARP_WIDTH, "lane {lane} out of range");
        self.entry_mut(id).completed_mask |= 1 << lane;
    }

    /// Frees an entry after writeback.
    ///
    /// # Panics
    ///
    /// Panics if the entry is vacant or not writeback-ready.
    pub fn release(&mut self, id: EntryId) -> WarpEntry {
        let entry = self.entries[id].take().expect("vacant warp buffer entry");
        assert!(
            entry.writeback_ready(),
            "released entry has incomplete lanes"
        );
        self.occupied -= 1;
        entry
    }

    /// Iterator over occupied `(id, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &WarpEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
    }

    /// Occupied entries that are ready to feed the datapath: operands
    /// gathered and at least one active lane unissued.
    pub fn ready_entries(&self) -> impl Iterator<Item = (EntryId, &WarpEntry)> + '_ {
        self.iter()
            .filter(|(_, e)| e.operands_ready() && !e.fully_issued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut buf = WarpBuffer::new(2);
        assert_eq!(buf.capacity(), 2);
        let a = buf.allocate(0, 0, 1).unwrap();
        let b = buf.allocate(1, 1, 1).unwrap();
        assert_ne!(a, b);
        assert!(buf.is_full());
        assert!(buf.allocate(2, 2, 1).is_none());
        assert_eq!(buf.occupancy(), 2);
    }

    #[test]
    fn lifecycle_sparse_mask() {
        let mut buf = WarpBuffer::new(4);
        // Lanes 3 and 17 active — a sparse active mask.
        let mask = (1 << 3) | (1 << 17);
        let id = buf.allocate(5, 2, mask).unwrap();
        assert!(!buf.entry(id).operands_ready());
        buf.mark_valid(id, 3);
        assert!(!buf.entry(id).operands_ready());
        buf.mark_valid(id, 17);
        assert!(buf.entry(id).operands_ready());
        assert_eq!(buf.ready_entries().count(), 1);

        // Issue skips inactive lanes.
        assert_eq!(buf.entry(id).next_issuable_lane(), Some(3));
        buf.mark_issued(id, 3);
        assert_eq!(buf.entry(id).next_issuable_lane(), Some(17));
        buf.mark_issued(id, 17);
        assert!(buf.entry(id).fully_issued());
        assert_eq!(buf.ready_entries().count(), 0);

        buf.mark_completed(id, 3);
        assert!(!buf.entry(id).writeback_ready());
        buf.mark_completed(id, 17);
        assert!(buf.entry(id).writeback_ready());
        let entry = buf.release(id);
        assert_eq!(entry.warp_id, 5);
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn released_entries_are_vacant_and_reusable() {
        let mut buf = WarpBuffer::new(2);
        let a = buf.allocate(0, 0, 0b101).unwrap();
        let b = buf.allocate(1, 1, 1).unwrap();
        assert!(buf.is_full());
        assert!(buf.allocate(2, 2, 1).is_none());
        for lane in [0, 2] {
            buf.mark_valid(a, lane);
            buf.mark_issued(a, lane);
            buf.mark_completed(a, lane);
        }
        buf.release(a);
        assert_eq!(buf.occupancy(), 1);
        assert!(buf.get(a).is_none());
        assert_eq!(buf.get(b).map(|e| e.warp_id), Some(1));
        assert!(buf.get(7).is_none());
        assert_eq!(buf.allocate(2, 2, 1), Some(a));
    }

    #[test]
    fn partial_validity_allows_partial_issue() {
        // The datapath can only consume lanes whose data arrived; ready
        // requires ALL active lanes valid (valid == active), per the paper.
        let mut buf = WarpBuffer::new(1);
        let id = buf.allocate(0, 0, 0b111).unwrap();
        buf.mark_valid(id, 1);
        assert!(!buf.entry(id).operands_ready());
        assert_eq!(buf.ready_entries().count(), 0);
    }

    #[test]
    #[should_panic(expected = "incomplete lanes")]
    fn early_release_rejected() {
        let mut buf = WarpBuffer::new(1);
        let id = buf.allocate(0, 0, 1).unwrap();
        buf.release(id);
    }

    #[test]
    #[should_panic(expected = "at least one active lane")]
    fn empty_mask_rejected() {
        let mut buf = WarpBuffer::new(1);
        buf.allocate(0, 0, 0);
    }
}
