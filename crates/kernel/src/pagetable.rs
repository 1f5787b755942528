//! Four-level radix page table — the traditional model's mapping structure
//! (paper §2.1: "current systems represent mappings as radix trees").
//!
//! Used only by the *baseline* (paging) configuration; the CARAT
//! configuration has no page table at all.

/// Page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical page number.
    pub ppn: u64,
    /// Writable.
    pub writable: bool,
}

/// x64-style 4-level radix table, 9 bits per level, 4KiB pages.
#[derive(Debug, Default, PartialEq)]
pub struct PageTable {
    root: Node,
    /// Live (valid) mappings.
    pub mapped: u64,
}

#[derive(Debug, Default, PartialEq)]
struct Node {
    children: carat_runtime::FastMap<u16, Box<Node>>,
    entries: carat_runtime::FastMap<u16, Pte>,
}

/// Result of a walk: the PTE plus how many levels were touched (memory
/// accesses a hardware pagewalker would perform).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// The translation, if mapped.
    pub pte: Option<Pte>,
    /// Radix levels visited (≤ 4).
    pub levels: u32,
}

const LEVEL_BITS: u64 = 9;
const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;

fn indices(vpn: u64) -> [u16; 4] {
    [
        ((vpn >> (3 * LEVEL_BITS)) & LEVEL_MASK) as u16,
        ((vpn >> (2 * LEVEL_BITS)) & LEVEL_MASK) as u16,
        ((vpn >> LEVEL_BITS) & LEVEL_MASK) as u16,
        (vpn & LEVEL_MASK) as u16,
    ]
}

impl PageTable {
    /// Empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Map `vpn -> pte`, replacing any prior mapping.
    pub fn map(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        let [i0, i1, i2, i3] = indices(vpn);
        let mut node = &mut self.root;
        for i in [i0, i1, i2] {
            node = node.children.entry(i).or_default();
        }
        let prev = node.entries.insert(i3, pte);
        if prev.is_none() {
            self.mapped += 1;
        }
        prev
    }

    /// Remove the mapping for `vpn`.
    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        let [i0, i1, i2, i3] = indices(vpn);
        let mut node = &mut self.root;
        for i in [i0, i1, i2] {
            node = node.children.get_mut(&i)?;
        }
        let prev = node.entries.remove(&i3);
        if prev.is_some() {
            self.mapped -= 1;
        }
        prev
    }

    /// Walk the radix tree for `vpn`, counting levels touched.
    pub fn walk(&self, vpn: u64) -> Walk {
        let [i0, i1, i2, i3] = indices(vpn);
        let mut node = &self.root;
        let mut levels = 1;
        for i in [i0, i1, i2] {
            match node.children.get(&i) {
                Some(n) => {
                    node = n;
                    levels += 1;
                }
                None => {
                    return Walk { pte: None, levels };
                }
            }
        }
        Walk {
            pte: node.entries.get(&i3).copied(),
            levels,
        }
    }

    /// Convenience: the PTE for `vpn` if mapped.
    pub fn translate(&self, vpn: u64) -> Option<Pte> {
        self.walk(vpn).pte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_walk_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.walk(5).pte, None);
        pt.map(
            5,
            Pte {
                ppn: 1234,
                writable: true,
            },
        );
        assert_eq!(pt.mapped, 1);
        let w = pt.walk(5);
        assert_eq!(w.pte.map(|p| p.ppn), Some(1234));
        assert_eq!(w.levels, 4, "full walk for a mapped page");
        assert!(pt.unmap(5).is_some());
        assert_eq!(pt.mapped, 0);
        assert_eq!(pt.walk(5).pte, None);
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let mut pt = PageTable::new();
        let a = 0u64;
        let b = 1u64 << 27; // differs in the top-level index
        pt.map(
            a,
            Pte {
                ppn: 1,
                writable: false,
            },
        );
        pt.map(
            b,
            Pte {
                ppn: 2,
                writable: false,
            },
        );
        assert_eq!(pt.translate(a).map(|p| p.ppn), Some(1));
        assert_eq!(pt.translate(b).map(|p| p.ppn), Some(2));
        // Unmapped page sharing no prefix aborts the walk early.
        let w = pt.walk(2u64 << 27);
        assert_eq!(w.pte, None);
        assert_eq!(w.levels, 1);
    }

    #[test]
    fn remap_replaces() {
        let mut pt = PageTable::new();
        pt.map(
            7,
            Pte {
                ppn: 1,
                writable: false,
            },
        );
        let prev = pt.map(
            7,
            Pte {
                ppn: 9,
                writable: true,
            },
        );
        assert_eq!(prev.map(|p| p.ppn), Some(1));
        assert_eq!(pt.mapped, 1);
        assert_eq!(pt.translate(7).map(|p| p.ppn), Some(9));
    }

    #[test]
    fn dense_mapping_count() {
        let mut pt = PageTable::new();
        for vpn in 0..1000 {
            pt.map(
                vpn,
                Pte {
                    ppn: vpn + 5000,
                    writable: true,
                },
            );
        }
        assert_eq!(pt.mapped, 1000);
        for vpn in (0..1000).step_by(2) {
            pt.unmap(vpn);
        }
        assert_eq!(pt.mapped, 500);
    }
}
