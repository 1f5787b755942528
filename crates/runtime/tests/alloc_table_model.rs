//! Model-based property test for `AllocationTable`.
//!
//! A naive reference — a `BTreeMap` of allocations, each holding a
//! `BTreeSet` of escape cells, plus a cell → owner map — runs the same
//! seeded sequence of `track_alloc`, `track_free`, `track_escape` +
//! `flush_escapes` (rebinding, repeats within a batch and dangling
//! targets included), `relocate`, `move_range` and `extend`. Allocations
//! may overlap, share a start (replacement) and land on each other when
//! moved. After every step the table must agree with the model on
//! `snapshot()`, each allocation's sorted escape set, `live_escapes()`,
//! `find_containing`, `overlapping_infos` and the statistics, and pass
//! its own `check_invariants` (which also folds the escape-list bytes
//! from scratch against the incremental count).

use carat_runtime::{AllocKind, AllocationTable};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Lowest address the generator uses; moves never take a start below it.
const BASE: u64 = 0x1_0000;
/// Width of the address window allocations, cells and targets fall in.
const SPAN: u64 = 0x1_0000;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// An 8-aligned address in the window.
    fn addr(&mut self) -> u64 {
        BASE + self.below(SPAN / 8) * 8
    }
}

#[derive(Debug, Clone)]
struct ModelAlloc {
    len: u64,
    ever: u64,
    cells: BTreeSet<u64>,
}

/// The naive reference table.
#[derive(Default)]
struct Model {
    allocs: BTreeMap<u64, ModelAlloc>,
    owner: BTreeMap<u64, u64>,
    pending: Vec<u64>,
    allocs_made: u64,
    frees: u64,
    escape_events: u64,
    resolved: u64,
    max_live: usize,
    histogram: HashMap<u64, u64>,
}

impl Model {
    /// Key `a` at `start`; an allocation already there is dropped with its
    /// cells.
    fn place(&mut self, start: u64, a: ModelAlloc) {
        if let Some(old) = self.allocs.remove(&start) {
            for c in &old.cells {
                self.owner.remove(c);
            }
        }
        for &c in &a.cells {
            self.owner.insert(c, start);
        }
        self.allocs.insert(start, a);
    }

    fn containing(&self, addr: u64) -> Option<u64> {
        let (&s, a) = self.allocs.range(..=addr).next_back()?;
        (addr < s + a.len).then_some(s)
    }

    /// The allocation just below `lo` if it reaches past `lo`, then every
    /// start in `[lo, hi)`.
    fn overlapping(&self, lo: u64, hi: u64) -> Vec<u64> {
        let straddler = self
            .allocs
            .range(..lo)
            .next_back()
            .filter(|(&s, a)| s + a.len > lo)
            .map(|(&s, _)| s);
        straddler
            .into_iter()
            .chain(self.allocs.range(lo..hi.max(lo)).map(|(&s, _)| s))
            .collect()
    }

    fn track_alloc(&mut self, start: u64, len: u64) {
        self.allocs_made += 1;
        let fresh = ModelAlloc {
            len,
            ever: 0,
            cells: BTreeSet::new(),
        };
        self.place(start, fresh);
        self.max_live = self.max_live.max(self.allocs.len());
    }

    fn track_free(&mut self, start: u64) -> Option<ModelAlloc> {
        let a = self.allocs.remove(&start)?;
        for c in &a.cells {
            self.owner.remove(c);
        }
        self.frees += 1;
        *self.histogram.entry(a.ever).or_insert(0) += 1;
        Some(a)
    }

    fn flush(&mut self, mem: &HashMap<u64, u64>) -> usize {
        let mut resolved = 0;
        for cell in std::mem::take(&mut self.pending) {
            if let Some(o) = self.owner.remove(&cell) {
                self.allocs.get_mut(&o).unwrap().cells.remove(&cell);
            }
            let Some(t) = self.containing(mem.get(&cell).copied().unwrap_or(0)) else {
                continue;
            };
            let a = self.allocs.get_mut(&t).unwrap();
            a.cells.insert(cell);
            a.ever += 1;
            self.owner.insert(cell, t);
            resolved += 1;
        }
        self.resolved += resolved as u64;
        resolved
    }

    fn relocate(&mut self, start: u64, delta: i64) {
        if let Some(a) = self.allocs.remove(&start) {
            self.place(start.wrapping_add(delta as u64), a);
        }
    }

    fn move_range(&mut self, lo: u64, hi: u64, delta: i64) -> usize {
        // Cells inside the range shift; one landing on a cell still bound
        // elsewhere overwrites that binding.
        let moved: Vec<(u64, u64)> = self.owner.range(lo..hi).map(|(&c, &o)| (c, o)).collect();
        for &(c, o) in &moved {
            self.owner.remove(&c);
            self.allocs.get_mut(&o).unwrap().cells.remove(&c);
        }
        for &(c, o) in &moved {
            let n = c.wrapping_add(delta as u64);
            if let Some(displaced) = self.owner.insert(n, o) {
                self.allocs.get_mut(&displaced).unwrap().cells.remove(&n);
            }
            self.allocs.get_mut(&o).unwrap().cells.insert(n);
        }
        // Every overlapping allocation shifts; lifted first, so only
        // allocations outside the set can be displaced.
        let lifted: Vec<(u64, ModelAlloc)> = self
            .overlapping(lo, hi)
            .into_iter()
            .map(|s| (s, self.allocs.remove(&s).unwrap()))
            .collect();
        for (s, a) in lifted {
            self.place(s.wrapping_add(delta as u64), a);
        }
        moved.len()
    }

    fn extend(&mut self, start: u64, new_start: u64, new_len: u64) -> bool {
        let Some(mut a) = self.allocs.remove(&start) else {
            return false;
        };
        a.len = new_len;
        self.place(new_start, a);
        true
    }
}

/// Everything observable, compared after every step.
fn compare(t: &AllocationTable, m: &Model, rng: &mut Rng, at: &str) {
    t.check_invariants()
        .unwrap_or_else(|e| panic!("{at}: invariant: {e}"));
    let want: Vec<(u64, u64, usize, u64)> = m
        .allocs
        .iter()
        .map(|(&s, a)| (s, a.len, a.cells.len(), a.ever))
        .collect();
    assert_eq!(t.snapshot(), want, "{at}: snapshot");
    for (&s, a) in &m.allocs {
        let mut cells = t.info(s).expect("snapshot agreed").escapes.clone();
        cells.sort_unstable();
        let want: Vec<u64> = a.cells.iter().copied().collect();
        assert_eq!(cells, want, "{at}: escapes of {s:#x}");
    }
    assert_eq!(t.live_escapes(), m.owner.len(), "{at}: live_escapes");
    // Probe every allocation's edges plus random addresses.
    let mut probes: Vec<u64> = (0..8).map(|_| rng.addr()).collect();
    for (&s, a) in &m.allocs {
        probes.extend([s.saturating_sub(1), s, s + a.len - 1, s + a.len]);
    }
    for addr in probes {
        assert_eq!(
            t.find_containing(addr).map(|(s, _)| s),
            m.containing(addr),
            "{at}: find_containing({addr:#x})"
        );
    }
    for _ in 0..4 {
        let lo = rng.addr();
        let hi = lo + rng.below(0x2000);
        let got: Vec<u64> = t.overlapping_infos(lo, hi).map(|(s, _)| s).collect();
        assert_eq!(
            got,
            m.overlapping(lo, hi),
            "{at}: overlapping [{lo:#x},{hi:#x})"
        );
    }
    let st = &t.stats;
    assert_eq!(
        (
            st.allocs,
            st.frees,
            st.escape_events,
            st.escapes_resolved,
            st.max_live
        ),
        (
            m.allocs_made,
            m.frees,
            m.escape_events,
            m.resolved,
            m.max_live
        ),
        "{at}: stats"
    );
    assert_eq!(st.escape_histogram, m.histogram, "{at}: histogram");
}

/// A start of a live allocation, or a random address when there is none.
fn some_start(m: &Model, rng: &mut Rng) -> u64 {
    if m.allocs.is_empty() || rng.below(8) == 0 {
        return rng.addr();
    }
    let i = rng.below(m.allocs.len() as u64) as usize;
    *m.allocs.keys().nth(i).unwrap()
}

/// A delta that takes `lo` to a random destination in the window.
fn delta_to_window(lo: u64, rng: &mut Rng) -> i64 {
    rng.addr().wrapping_sub(lo) as i64
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut t = AllocationTable::new();
    let mut m = Model::default();
    let mut mem: HashMap<u64, u64> = HashMap::new();
    for step in 0..steps {
        let op = rng.below(100);
        let at = format!("seed {seed}, step {step}, op {op}");
        match op {
            0..=19 => {
                // Mostly fresh starts; sometimes an existing one (replacement).
                let start = if rng.below(6) == 0 {
                    some_start(&m, &mut rng)
                } else {
                    rng.addr()
                };
                let len = 8 + rng.below(0x80) * 8;
                t.track_alloc(start, len, AllocKind::Heap);
                m.track_alloc(start, len);
            }
            20..=29 => {
                let start = some_start(&m, &mut rng);
                let got = t.track_free(start).map(|i| {
                    let mut cells = i.escapes;
                    cells.sort_unstable();
                    (i.len, i.escapes_ever, cells)
                });
                let want = m
                    .track_free(start)
                    .map(|a| (a.len, a.ever, a.cells.into_iter().collect::<Vec<_>>()));
                assert_eq!(got, want, "{at}: track_free({start:#x})");
            }
            30..=69 => {
                // A batch of pointer stores: into a live allocation, to a
                // dangling address or null; cells are often re-used.
                for _ in 0..1 + rng.below(6) {
                    let cell = match m.owner.len() {
                        n if n > 0 && rng.below(3) == 0 => {
                            *m.owner.keys().nth(rng.below(n as u64) as usize).unwrap()
                        }
                        _ => rng.addr(),
                    };
                    let val = match rng.below(5) {
                        0 => 0,
                        1 => rng.addr(),
                        _ => {
                            let s = some_start(&m, &mut rng);
                            s + m.allocs.get(&s).map_or(0, |a| rng.below(a.len))
                        }
                    };
                    mem.insert(cell, val);
                    t.track_escape(cell);
                    m.pending.push(cell);
                    m.escape_events += 1;
                }
                if rng.below(3) != 0 {
                    let got = t.flush_escapes(|c| mem.get(&c).copied().unwrap_or(0));
                    assert_eq!(got, m.flush(&mem), "{at}: flush resolved");
                }
            }
            70..=77 => {
                let start = some_start(&m, &mut rng);
                let delta = delta_to_window(start, &mut rng);
                t.relocate(start, delta);
                m.relocate(start, delta);
            }
            78..=93 => {
                let lo = some_start(&m, &mut rng) + rng.below(4) * 8;
                let hi = lo + rng.below(0x800);
                let delta = delta_to_window(lo, &mut rng);
                let got = t.move_range(lo, hi, delta);
                assert_eq!(got, m.move_range(lo, hi, delta), "{at}: cells rebased");
            }
            _ => {
                let start = some_start(&m, &mut rng);
                let new_start = rng.addr();
                let new_len = 8 + rng.below(0x100) * 8;
                assert_eq!(
                    t.extend(start, new_start, new_len),
                    m.extend(start, new_start, new_len),
                    "{at}: extend"
                );
            }
        }
        compare(&t, &m, &mut rng, &at);
    }
}

#[test]
fn table_agrees_with_naive_model() {
    for seed in 0..64 {
        run(seed, 300);
    }
}

/// A table that only grows and rebinds keeps agreeing over a long run,
/// so escape lists reach sizes where swap-removes reorder them heavily.
#[test]
fn long_rebinding_run_agrees_with_naive_model() {
    run(0xca4a7, 3000);
}
