//! The Allocation Table and Allocation-to-Escape Map (paper §4.2).
//!
//! The runtime's hard-state: every live allocation (static, stack, heap),
//! keyed by start address in a red/black tree, each carrying the list of
//! memory cells that hold a pointer into it (its *escapes*). Escapes are
//! registered in batches, as in the prototype ("we use the first method
//! when tracking allocations, and the second when tracking the escapes").
//!
//! Each allocation holds a stable slab id for its lifetime (freed ids are
//! reused). The tree maps a start address to the id, the slab holds the
//! metadata and an unordered escape list, and the reverse map names each
//! escape cell's owner id and the cell's index in that list. A move thus
//! re-keys one tree node per moved allocation and rewrites each moved
//! cell in place; no escape list is rebuilt.

use crate::fast_hash::FastMap;
use crate::rbtree::RbTree;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Where an allocation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// Global / bss (recorded at load time).
    Static,
    /// Stack slot (alloca) or thread stack.
    Stack,
    /// Heap (`malloc`).
    Heap,
}

/// Metadata for one allocation.
#[derive(Debug, Clone)]
pub struct AllocInfo {
    /// Length in bytes.
    pub len: u64,
    /// Origin.
    pub kind: AllocKind,
    /// Addresses of cells currently holding a pointer into this
    /// allocation — the Allocation-to-Escape Map entry. Unordered: the
    /// reverse map records each cell's index here.
    pub escapes: Vec<u64>,
    /// Escapes ever recorded against this allocation (Figure 5 histogram
    /// counts total escapes over the program run, not just live ones).
    pub escapes_ever: u64,
}

/// Aggregate tracking statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackStats {
    /// Allocations ever registered.
    pub allocs: u64,
    /// Frees processed.
    pub frees: u64,
    /// Escape events enqueued.
    pub escape_events: u64,
    /// Escapes resolved to a live allocation at flush time.
    pub escapes_resolved: u64,
    /// High-water mark of live allocations.
    pub max_live: usize,
    /// Histogram of total escapes per allocation, recorded when an
    /// allocation dies (see [`AllocationTable::finish`] for live ones).
    pub escape_histogram: HashMap<u64, u64>,
}

/// Bytes charged per reverse-map slot by
/// [`AllocationTable::memory_overhead_bytes`]: key, value and one word of
/// hash-table overhead.
const REVERSE_SLOT_BYTES: usize =
    std::mem::size_of::<u64>() + std::mem::size_of::<(u32, u32)>() + std::mem::size_of::<usize>();

/// The allocation table.
#[derive(Debug, Default)]
pub struct AllocationTable {
    /// Start address → slab id.
    tree: RbTree<u64, u32>,
    /// Slab id → metadata. A freed id's slot stays, emptied, until reused.
    slab: Vec<AllocInfo>,
    /// Freed slab ids, reused before the slab grows.
    free_ids: Vec<u32>,
    /// Reverse map: escape cell → (owner's slab id, index in its list).
    escape_owner: FastMap<u64, (u32, u32)>,
    /// Batched escapes not yet resolved.
    pending: Vec<u64>,
    /// Σ capacity bytes of all live escape lists, maintained incrementally
    /// (lists only ever grow or are dropped whole) so the Figure 6 overhead
    /// query is O(1) instead of a walk over every live allocation.
    escape_list_bytes: usize,
    /// Statistics.
    pub stats: TrackStats,
}

fn list_bytes(list: &Vec<u64>) -> usize {
    list.capacity() * std::mem::size_of::<u64>()
}

impl AllocationTable {
    /// Empty table.
    pub fn new() -> AllocationTable {
        AllocationTable::default()
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.tree.len()
    }

    /// Register a new allocation.
    ///
    /// Overlapping registrations indicate a substrate bug; the new entry
    /// replaces any entry at the identical start address, and the
    /// replaced entry's escapes are dropped.
    pub fn track_alloc(&mut self, start: u64, len: u64, kind: AllocKind) {
        self.stats.allocs += 1;
        let info = AllocInfo {
            len,
            kind,
            escapes: Vec::new(),
            escapes_ever: 0,
        };
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.slab[id as usize] = info;
                id
            }
            None => {
                self.slab.push(info);
                (self.slab.len() - 1) as u32
            }
        };
        self.insert_key(start, id);
        self.stats.max_live = self.stats.max_live.max(self.tree.len());
    }

    /// Deregister an allocation; returns its metadata. Records its final
    /// escape count in the lifetime histogram and drops its escape cells
    /// from the reverse map.
    pub fn track_free(&mut self, start: u64) -> Option<AllocInfo> {
        let id = self.tree.remove(&start)?;
        let info = self.release(id);
        self.stats.frees += 1;
        *self
            .stats
            .escape_histogram
            .entry(info.escapes_ever)
            .or_insert(0) += 1;
        Some(info)
    }

    /// Key slab id `id` at `start`; an entry already there is replaced
    /// and released.
    fn insert_key(&mut self, start: u64, id: u32) {
        if let Some(replaced) = self.tree.insert(start, id) {
            self.release(replaced);
        }
    }

    /// Retire slab id `id`, whose tree key is already gone: unmap its
    /// escape cells and queue the id for reuse.
    fn release(&mut self, id: u32) -> AllocInfo {
        let emptied = AllocInfo {
            len: 0,
            kind: AllocKind::Heap,
            escapes: Vec::new(),
            escapes_ever: 0,
        };
        let info = std::mem::replace(&mut self.slab[id as usize], emptied);
        self.escape_list_bytes -= list_bytes(&info.escapes);
        for cell in &info.escapes {
            self.escape_owner.remove(cell);
        }
        self.free_ids.push(id);
        info
    }

    /// Drop index `pos` of slab id `id`'s escape list (the cell's reverse
    /// entry is already gone or re-pointed): swap-remove it and fix the
    /// index of the cell that took its place.
    fn unlist(&mut self, id: u32, pos: u32) {
        let list = &mut self.slab[id as usize].escapes;
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.escape_owner
                .get_mut(&moved)
                .expect("a listed cell is mapped")
                .1 = pos;
        }
    }

    /// Start and slab id of the allocation containing `addr`, if any.
    fn containing(&self, addr: u64) -> Option<(u64, u32)> {
        let (&start, &id) = self.tree.floor(&addr)?;
        (addr < start + self.slab[id as usize].len).then_some((start, id))
    }

    /// The allocation containing `addr`, if any.
    pub fn find_containing(&self, addr: u64) -> Option<(u64, &AllocInfo)> {
        self.containing(addr)
            .map(|(start, id)| (start, &self.slab[id as usize]))
    }

    /// Queue an escape event: a pointer was stored at cell `dst`.
    pub fn track_escape(&mut self, dst: u64) {
        self.stats.escape_events += 1;
        self.pending.push(dst);
    }

    /// Number of queued, unprocessed escapes.
    pub fn pending_escapes(&self) -> usize {
        self.pending.len()
    }

    /// Resolve all queued escapes. `read_ptr(cell)` returns the pointer
    /// value currently stored at `cell` (the VM/kernel reads simulated
    /// memory). Returns the number of escapes resolved.
    ///
    /// Later writes to the same cell override earlier ones — the batch is
    /// processed in order, and a cell is re-pointed to its newest target.
    pub fn flush_escapes(&mut self, mut read_ptr: impl FnMut(u64) -> u64) -> usize {
        let pending = std::mem::take(&mut self.pending);
        let mut resolved = 0;
        for cell in pending {
            let target = self.containing(read_ptr(cell)).map(|(_, id)| id);
            let unbound = match self.escape_owner.entry(cell) {
                Entry::Occupied(mut slot) => {
                    let (prev_id, prev_pos) = *slot.get();
                    if target == Some(prev_id) {
                        // Re-pointed within the same allocation: the
                        // binding stands.
                        self.slab[prev_id as usize].escapes_ever += 1;
                        resolved += 1;
                        continue;
                    }
                    match target {
                        Some(id) => {
                            slot.insert((id, self.slab[id as usize].escapes.len() as u32));
                        }
                        None => {
                            slot.remove();
                        }
                    }
                    Some((prev_id, prev_pos))
                }
                Entry::Vacant(slot) => {
                    if let Some(id) = target {
                        slot.insert((id, self.slab[id as usize].escapes.len() as u32));
                    }
                    None
                }
            };
            if let Some((prev_id, prev_pos)) = unbound {
                self.unlist(prev_id, prev_pos);
            }
            let Some(id) = target else {
                continue; // null or points outside tracked memory
            };
            let info = &mut self.slab[id as usize];
            self.escape_list_bytes -= list_bytes(&info.escapes);
            info.escapes.push(cell);
            self.escape_list_bytes += list_bytes(&info.escapes);
            info.escapes_ever += 1;
            resolved += 1;
        }
        self.stats.escapes_resolved += resolved as u64;
        resolved
    }

    /// Allocations overlapping `[lo, hi)` as `(start, &info)` pairs, in
    /// ascending start order (a straddler from below comes first). The
    /// patch planner and expansion loops iterate this directly; the scan
    /// seeks to `lo` in O(log n).
    pub fn overlapping_infos(
        &self,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = (u64, &AllocInfo)> + '_ {
        // An allocation starting strictly before `lo` may straddle into the
        // range.
        let straddler = if lo > 0 {
            self.tree.floor(&(lo - 1)).and_then(|(&start, &id)| {
                let info = &self.slab[id as usize];
                (start < lo && start + info.len > lo).then_some((start, info))
            })
        } else {
            None
        };
        straddler.into_iter().chain(
            self.tree
                .iter_from(&lo)
                .take_while(move |&(&start, _)| start < hi)
                .map(|(&start, &id)| (start, &self.slab[id as usize])),
        )
    }

    /// Borrow an allocation's metadata by start address.
    pub fn info(&self, start: u64) -> Option<&AllocInfo> {
        self.tree.get(&start).map(|&id| &self.slab[id as usize])
    }

    /// Every live allocation as `(start, &info)`, in no particular order:
    /// one linear pass over the tree's node arena, for scans that fold the
    /// whole table.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (u64, &AllocInfo)> + '_ {
        self.tree
            .iter_arena()
            .map(|(&start, &id)| (start, &self.slab[id as usize]))
    }

    /// Start of the allocation with the most live escapes among those
    /// `keep(start, len)` accepts. Ties go to the highest start — the last
    /// maximum in address order. One allocation-free pass over the arena.
    pub fn most_escaped(&self, mut keep: impl FnMut(u64, u64) -> bool) -> Option<u64> {
        self.iter_unordered()
            .filter(|&(start, info)| keep(start, info.len))
            .map(|(start, info)| (info.escapes.len(), start))
            .max()
            .map(|(_, start)| start)
    }

    /// Relocate allocation `start` to `start + delta`: one tree re-key.
    /// Its escape list and reverse-map entries follow the stable id;
    /// cells that themselves moved are [`Self::move_range`]'s job.
    pub fn relocate(&mut self, start: u64, delta: i64) {
        if let Some(id) = self.tree.remove(&start) {
            self.insert_key(start.wrapping_add(delta as u64), id);
        }
    }

    /// Table maintenance for a move of `[lo, hi)` by `delta`: rebase the
    /// escape cells located in the range, then relocate every allocation
    /// overlapping it. Returns the number of cells rebased.
    pub fn move_range(&mut self, lo: u64, hi: u64, delta: i64) -> usize {
        let cells = self.rebase_escape_cells(lo, hi, delta);
        let starts: Vec<u64> = self.overlapping_infos(lo, hi).map(|(s, _)| s).collect();
        // Lift every key before re-inserting any, so a destination that
        // reuses a moved start cannot collide with it.
        let ids: Vec<u32> = starts
            .iter()
            .map(|s| self.tree.remove(s).expect("listed above"))
            .collect();
        for (start, id) in starts.into_iter().zip(ids) {
            self.insert_key(start.wrapping_add(delta as u64), id);
        }
        cells
    }

    /// Rebase escape cells that themselves live inside `[lo, hi)` by
    /// `delta` (their containing allocation moved, so the cells moved):
    /// one scan of the reverse map, then per moved cell one re-key and
    /// one in-place write of its list slot.
    fn rebase_escape_cells(&mut self, lo: u64, hi: u64, delta: i64) -> usize {
        let moved: Vec<(u64, (u32, u32))> = self
            .escape_owner
            .extract_if(|&cell, _| cell >= lo && cell < hi)
            .collect();
        let mut displaced = Vec::new();
        for &(cell, (id, pos)) in &moved {
            let new_cell = cell.wrapping_add(delta as u64);
            self.slab[id as usize].escapes[pos as usize] = new_cell;
            if let Some(old) = self.escape_owner.insert(new_cell, (id, pos)) {
                displaced.push(old);
            }
        }
        // A moved cell landed on a cell bound elsewhere; the move overwrote
        // that memory, so the old binding goes. Highest index first, so no
        // swap-remove pulls another displaced slot forward.
        displaced.sort_unstable_by(|a, b| b.cmp(a));
        for (id, pos) in displaced {
            self.unlist(id, pos);
        }
        moved.len()
    }

    /// Give allocation `start` the extent `[new_start, new_start +
    /// new_len)` — stack expansion, where the moved stack grows down over
    /// its whole new block. It keeps its id, escape list and reverse-map
    /// entries, and no statistic changes: the allocation lives on.
    /// Returns whether `start` was tracked.
    pub fn extend(&mut self, start: u64, new_start: u64, new_len: u64) -> bool {
        let Some(id) = self.tree.remove(&start) else {
            return false;
        };
        self.slab[id as usize].len = new_len;
        self.insert_key(new_start, id);
        true
    }

    /// Total live escapes across every allocation, read off the reverse
    /// map in O(1). This is the compaction-victim score: the kernel ranks
    /// descheduled tenants by it without walking their allocation trees.
    pub fn live_escapes(&self) -> usize {
        self.escape_owner.len()
    }

    /// All live allocations as `(start, len, escapes_live, escapes_ever)`.
    pub fn snapshot(&self) -> Vec<(u64, u64, usize, u64)> {
        self.tree
            .iter()
            .map(|(&s, &id)| {
                let i = &self.slab[id as usize];
                (s, i.len, i.escapes.len(), i.escapes_ever)
            })
            .collect()
    }

    /// Fold live allocations into the lifetime escape histogram (call at
    /// program end before reading [`TrackStats::escape_histogram`]).
    pub fn finish(&mut self) {
        for (_, &id) in self.tree.iter() {
            let c = self.slab[id as usize].escapes_ever;
            *self.stats.escape_histogram.entry(c).or_insert(0) += 1;
        }
    }

    /// Validate the layout (test support): the tree is a valid red/black
    /// tree keying each live slab id once, every other id is on the free
    /// list, each listed cell maps back to its id and index and nothing
    /// else is mapped, and the incremental list-byte count equals a fold
    /// over the live lists.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()?;
        let mut keyed = vec![false; self.slab.len()];
        let (mut listed, mut bytes) = (0, 0);
        for (&start, &id) in self.tree.iter() {
            if std::mem::replace(&mut keyed[id as usize], true) {
                return Err(format!("slab id {id} keyed twice (at {start:#x})"));
            }
            let info = &self.slab[id as usize];
            bytes += list_bytes(&info.escapes);
            for (pos, cell) in info.escapes.iter().enumerate() {
                if self.escape_owner.get(cell) != Some(&(id, pos as u32)) {
                    return Err(format!(
                        "cell {cell:#x} listed at ({id}, {pos}) maps to {:?}",
                        self.escape_owner.get(cell)
                    ));
                }
                listed += 1;
            }
        }
        if self.free_ids.iter().any(|&id| keyed[id as usize]) {
            return Err("a keyed slab id is on the free list".into());
        }
        if self.tree.len() + self.free_ids.len() != self.slab.len() {
            return Err("a slab id is neither keyed nor free".into());
        }
        if listed != self.escape_owner.len() {
            return Err(format!(
                "{} mapped cells, {listed} listed",
                self.escape_owner.len()
            ));
        }
        if bytes != self.escape_list_bytes {
            return Err(format!(
                "escape lists hold {bytes} bytes, {} counted",
                self.escape_list_bytes
            ));
        }
        Ok(())
    }

    /// Approximate bytes of tracking state — the Figure 6 memory overhead:
    /// tree nodes, the slab, every escape list's capacity, the reverse map
    /// and the pending queue.
    ///
    /// O(1): the escape-list component is maintained incrementally, so the
    /// VM can sample this on every tracking callback without a table walk.
    pub fn memory_overhead_bytes(&self) -> usize {
        self.tree.heap_bytes()
            + self.slab.capacity() * std::mem::size_of::<AllocInfo>()
            + self.free_ids.capacity() * std::mem::size_of::<u32>()
            + self.escape_list_bytes
            + self.escape_owner.capacity() * REVERSE_SLOT_BYTES
            + self.pending.capacity() * std::mem::size_of::<u64>()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_lifecycle() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_alloc(0x2000, 512, AllocKind::Heap);
        assert_eq!(t.live(), 2);
        assert_eq!(t.find_containing(0x10ff).map(|(s, _)| s), Some(0x1000));
        assert!(t.find_containing(0x1100).is_none(), "past the end");
        let info = t.track_free(0x1000).expect("tracked");
        assert_eq!(info.len, 256);
        assert_eq!(t.live(), 1);
        assert_eq!(t.stats.allocs, 2);
        assert_eq!(t.stats.frees, 1);
    }

    #[test]
    fn escapes_resolve_in_batches() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        // Cells 0x5000 and 0x5008 hold pointers into the allocation.
        let mem: HashMap<u64, u64> = [(0x5000, 0x1000), (0x5008, 0x10f0), (0x5010, 0x9999)].into();
        t.track_escape(0x5000);
        t.track_escape(0x5008);
        t.track_escape(0x5010); // dangling target: ignored
        assert_eq!(t.pending_escapes(), 3);
        let n = t.flush_escapes(|c| mem[&c]);
        assert_eq!(n, 2);
        assert_eq!(t.pending_escapes(), 0);
        let info = t.info(0x1000).unwrap();
        assert_eq!(info.escapes.len(), 2);
        assert_eq!(info.escapes_ever, 2);
    }

    #[test]
    fn overwriting_a_cell_rebinds_the_escape() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_alloc(0x2000, 256, AllocKind::Heap);
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x1000);
        assert_eq!(t.info(0x1000).unwrap().escapes.len(), 1);
        // Same cell now stores a pointer to the other allocation.
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x2000);
        assert_eq!(t.info(0x1000).unwrap().escapes.len(), 0);
        assert_eq!(t.info(0x2000).unwrap().escapes.len(), 1);
    }

    #[test]
    fn overlapping_includes_straddlers() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x0f00, 0x200, AllocKind::Heap); // straddles 0x1000
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x3000, 0x100, AllocKind::Heap);
        let hits: Vec<u64> = t
            .overlapping_infos(0x1000, 0x2000)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(hits, vec![0x0f00, 0x1000]);
    }

    #[test]
    fn relocate_moves_key_and_reverse_map() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x1080);
        t.relocate(0x1000, 0x7000);
        assert!(t.info(0x1000).is_none());
        let info = t.info(0x8000).expect("moved");
        assert_eq!(info.escapes.len(), 1);
        // The escape cell still points at the allocation logically.
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x8080);
        assert_eq!(t.info(0x8000).unwrap().escapes.len(), 1);
    }

    #[test]
    fn rebase_escape_cells_moves_cells_within_range() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x2000, 0x100, AllocKind::Heap);
        // A cell at 0x1010 (inside alloc A) points into alloc B.
        t.track_escape(0x1010);
        t.flush_escapes(|_| 0x2050);
        assert!(t.info(0x2000).unwrap().escapes.contains(&0x1010));
        // Alloc A's range moves by +0x7000.
        let n = t.rebase_escape_cells(0x1000, 0x1100, 0x7000);
        assert_eq!(n, 1);
        let esc = &t.info(0x2000).unwrap().escapes;
        assert!(esc.contains(&0x8010));
        assert!(!esc.contains(&0x1010));
    }

    #[test]
    fn histogram_counts_lifetime_escapes() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 64, AllocKind::Heap);
        t.track_escape(0x5000);
        t.track_escape(0x5008);
        t.flush_escapes(|c| if c == 0x5000 { 0x1000 } else { 0x1008 });
        t.track_free(0x1000);
        t.track_alloc(0x2000, 64, AllocKind::Heap); // zero escapes, stays live
        t.finish();
        assert_eq!(t.stats.escape_histogram.get(&2), Some(&1));
        assert_eq!(t.stats.escape_histogram.get(&0), Some(&1));
    }

    #[test]
    fn memory_overhead_grows_with_tracking() {
        let mut t = AllocationTable::new();
        let before = t.memory_overhead_bytes();
        for i in 0..1000 {
            t.track_alloc(0x10000 + i * 64, 64, AllocKind::Heap);
        }
        assert!(t.memory_overhead_bytes() > before);
    }

    /// The incrementally-maintained escape-list byte count must equal a
    /// from-scratch fold over every live allocation (one of the checks in
    /// `check_invariants`).
    #[test]
    fn incremental_escape_bytes_match_full_fold() {
        let mut t = AllocationTable::new();
        for i in 0..64u64 {
            t.track_alloc(0x10000 + i * 0x100, 0x100, AllocKind::Heap);
        }
        // Scatter escapes across allocations, rebind some cells, free a few.
        for c in 0..500u64 {
            t.track_escape(0x90000 + c * 8);
        }
        t.flush_escapes(|cell| 0x10000 + (cell % 64) * 0x100);
        for c in 0..100u64 {
            t.track_escape(0x90000 + c * 8); // rebind to a different target
        }
        t.flush_escapes(|cell| 0x10000 + ((cell + 7) % 64) * 0x100);
        for i in 0..16u64 {
            t.track_free(0x10000 + i * 0x100);
        }
        t.rebase_escape_cells(0x90000, 0x90400, 0x1_0000);
        t.check_invariants().unwrap();
    }

    /// Growing an allocation keeps its identity: its escape cells stay
    /// mapped, so rebinding one later takes it off the list.
    #[test]
    fn extend_keeps_escapes_bound() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 0x100, AllocKind::Stack);
        t.track_alloc(0x8000, 0x100, AllocKind::Heap);
        t.track_escape(0x5000);
        t.track_escape(0x5008);
        t.flush_escapes(|_| 0x1010);
        assert!(t.extend(0x1000, 0x0f00, 0x200));
        assert!(t.info(0x1000).is_none());
        let grown = t.info(0x0f00).expect("re-keyed");
        assert_eq!(
            (grown.len, grown.escapes.len(), grown.escapes_ever),
            (0x200, 2, 2)
        );
        assert_eq!(t.stats.frees, 0, "the allocation lives on");
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x8000);
        assert_eq!(t.info(0x0f00).unwrap().escapes, vec![0x5008]);
        assert_eq!(t.info(0x8000).unwrap().escapes, vec![0x5000]);
    }

    /// `move_range` relocates every overlapping allocation and the cells
    /// inside the range, and leaves the rest alone.
    #[test]
    fn move_range_moves_cells_and_allocations() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x1100, 0x100, AllocKind::Heap);
        t.track_alloc(0x3000, 0x100, AllocKind::Heap);
        // 0x1010 (inside the range) and 0x3010 (outside) both point at 0x1100.
        t.track_escape(0x1010);
        t.track_escape(0x3010);
        t.flush_escapes(|_| 0x1100);
        assert_eq!(t.move_range(0x1000, 0x1200, 0x10_0000), 1);
        let starts: Vec<u64> = t.snapshot().iter().map(|e| e.0).collect();
        assert_eq!(starts, vec![0x3000, 0x10_1000, 0x10_1100]);
        let mut cells = t.info(0x10_1100).unwrap().escapes.clone();
        cells.sort_unstable();
        assert_eq!(cells, vec![0x3010, 0x10_1010]);
    }

    /// Victim choice breaks ties toward the highest start, like
    /// `max_by_key` over the address-ordered snapshot.
    #[test]
    fn most_escaped_breaks_ties_high() {
        let mut t = AllocationTable::new();
        for start in [0x1000, 0x2000, 0x3000] {
            t.track_alloc(start, 0x100, AllocKind::Heap);
        }
        t.track_escape(0x9000);
        t.track_escape(0x9008);
        t.flush_escapes(|c| if c == 0x9000 { 0x1000 } else { 0x2000 });
        assert_eq!(t.most_escaped(|_, _| true), Some(0x2000));
        assert_eq!(t.most_escaped(|s, _| s != 0x2000), Some(0x1000));
        assert_eq!(t.most_escaped(|_, _| false), None);
    }
}
