//! Victim selection against its reference definition.
//!
//! `worst_page`, `worst_pages` and the swap driver's pick
//! (`AllocationTable::most_escaped` over resident allocations) are single
//! passes over the table's node arena. Over random tables — with
//! poison-resident allocations, pinned allocations, tied escape counts
//! and several allocations per page — each must equal the address-ordered
//! `snapshot()` + `max_by_key` definition it replaced, and
//! `worst_pages(t, 1)` must equal `worst_page(t)`.

use carat_kernel::{SimKernel, POISON_BASE, POISON_SLOT_SPAN};
use carat_runtime::{check_unpinned, AllocKind, AllocationTable};
use proptest::prelude::*;

const PAGE: u64 = 4096;
/// Resident allocations fall in `[HEAP, HEAP + 8 pages)`.
const HEAP: u64 = 0x10_0000;
/// Escape cells live here, outside every allocation.
const CELLS: u64 = 0x80_0000;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }
}

/// A random table and a kernel holding random pins over it.
fn fixture(seed: u64) -> (SimKernel, AllocationTable) {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut k = SimKernel::new(1 << 20);
    let mut t = AllocationTable::new();
    let mut starts = Vec::new();
    for _ in 0..1 + rng.below(40) {
        let start = if rng.below(5) == 0 {
            POISON_BASE + rng.below(4) * POISON_SLOT_SPAN + rng.below(64) * 16
        } else {
            HEAP + rng.below(8 * PAGE / 16) * 16
        };
        t.track_alloc(start, 16, AllocKind::Heap);
        starts.push(start);
    }
    // Few escapes per allocation, so counts tie often.
    let mut cell = CELLS;
    let mut targets = Vec::new();
    for &start in &starts {
        for _ in 0..rng.below(4) {
            t.track_escape(cell);
            targets.push((cell, start));
            cell += 8;
        }
    }
    t.flush_escapes(|c| targets.iter().find(|&&(x, _)| x == c).unwrap().1);
    for _ in 0..rng.below(4) {
        let start = HEAP + rng.below(8 * PAGE / 16) * 16;
        let _ = k.pin_region(start, 16 + rng.below(PAGE));
    }
    (k, t)
}

fn movable(k: &SimKernel, start: u64, len: u64) -> bool {
    !SimKernel::is_poison(start) && check_unpinned(start, len, k.pins()).is_ok()
}

fn reference_worst_page(k: &SimKernel, t: &AllocationTable) -> Option<u64> {
    t.snapshot()
        .into_iter()
        .filter(|&(start, len, _, _)| movable(k, start, len))
        .max_by_key(|&(_, _, escapes_live, _)| escapes_live)
        .map(|(start, _, _, _)| start / PAGE * PAGE)
}

fn reference_worst_pages(k: &SimKernel, t: &AllocationTable, max: usize) -> Vec<u64> {
    let mut victims: Vec<(usize, u64)> = t
        .snapshot()
        .into_iter()
        .filter(|&(start, len, _, _)| movable(k, start, len))
        .map(|(start, _, escapes_live, _)| (escapes_live, start))
        .collect();
    victims.sort_unstable_by(|a, b| b.cmp(a));
    let mut out: Vec<u64> = Vec::new();
    for (_, start) in victims {
        let p = start / PAGE * PAGE;
        if !out.contains(&p) {
            out.push(p);
            if out.len() == max {
                break;
            }
        }
    }
    out
}

fn reference_swap_pick(t: &AllocationTable) -> Option<u64> {
    t.snapshot()
        .into_iter()
        .filter(|&(start, _, _, _)| !SimKernel::is_poison(start))
        .max_by_key(|&(_, _, escapes_live, _)| escapes_live)
        .map(|(start, _, _, _)| start)
}

proptest! {
    #[test]
    fn victim_selection_matches_the_snapshot_definition(seed in 0u64..u64::MAX) {
        let (k, t) = fixture(seed);
        prop_assert_eq!(k.cost.page_size, PAGE);
        let worst = k.worst_page(&t);
        prop_assert_eq!(worst, reference_worst_page(&k, &t));
        for max in 1..=10 {
            prop_assert_eq!(k.worst_pages(&t, max), reference_worst_pages(&k, &t, max));
        }
        prop_assert_eq!(k.worst_pages(&t, 1).first().copied(), worst);
        prop_assert_eq!(
            t.most_escaped(|start, _| !SimKernel::is_poison(start)),
            reference_swap_pick(&t)
        );
    }
}
