//! Property test for the one move entry point, `perform_moves`.
//!
//! Over seeded fixtures with 1–3 allocation tables (processes sharing the
//! moved memory), 1–4 disjoint requests, and an interrupt that fires at
//! `Expanded`, at `Patched` or never:
//!
//! * a batch leaves memory, registers, every table and every outcome
//!   bit-identical to issuing the same requests one call at a time —
//!   except that the batch pays the register-patch charge once, on its
//!   first outcome;
//! * an interrupted call restores a byte-identical pre-move state;
//! * both agree with an independent oracle: every allocation and register
//!   inside a moved range is relocated by that range's delta in every
//!   table, and nothing else moves.
//!
//! Two fixed inputs ride along: an escape-heavy two-request batch
//! interrupted after patching, and a whole-range move under a modeled
//! 4-worker patch scan.

use carat_runtime::{
    expand_to_allocations, perform_moves, AllocKind, AllocationTable, CostModel, MemAccess,
    MoveOutcome, MovePhase, MoveRequest, PatchPlan,
};

const PAGE: u64 = 0x1000;

/// Flat `Vec<u8>`-backed memory.
struct VecMem {
    bytes: Vec<u8>,
}

impl MemAccess for VecMem {
    fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.bytes[a..a + 8].try_into().unwrap())
    }
    fn write_u64(&mut self, addr: u64, val: u64) {
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&val.to_le_bytes());
    }
    fn copy(&mut self, src: u64, dst: u64, len: u64) {
        self.bytes
            .copy_within(src as usize..(src + len) as usize, dst as usize);
    }
}

/// Everything a move call reads or writes. `AllocationTable` is not
/// `Clone`, so every run rebuilds its fixture — identical by
/// construction.
struct Fixture {
    tables: Vec<AllocationTable>,
    mem: VecMem,
    regs: Vec<u64>,
}

/// The observable machine state, escape sets included.
#[derive(Debug, PartialEq)]
struct State {
    bytes: Vec<u8>,
    regs: Vec<u64>,
    tables: Vec<Vec<(u64, u64, usize, u64)>>,
    escapes: Vec<Vec<Vec<u64>>>,
}

impl Fixture {
    fn state(&self) -> State {
        State {
            bytes: self.mem.bytes.clone(),
            regs: self.regs.clone(),
            tables: self.tables.iter().map(|t| t.snapshot()).collect(),
            escapes: self
                .tables
                .iter()
                .map(|t| {
                    t.snapshot()
                        .iter()
                        .map(|&(start, ..)| {
                            let mut cells = t.info(start).unwrap().escapes.clone();
                            cells.sort_unstable();
                            cells
                        })
                        .collect()
                })
                .collect(),
        }
    }

    fn run(
        &mut self,
        reqs: &[MoveRequest],
        cost: &CostModel,
        interrupt: Option<&mut dyn FnMut(MovePhase) -> bool>,
    ) -> Result<Vec<MoveOutcome>, carat_runtime::MoveInterrupted> {
        let mut refs: Vec<&mut AllocationTable> = self.tables.iter_mut().collect();
        perform_moves(
            &mut refs,
            &mut self.mem,
            &mut self.regs,
            reqs,
            cost,
            interrupt,
        )
    }
}

/// Where the batch call's interrupt hook fires.
#[derive(Debug, Clone, Copy)]
enum Interrupt {
    /// No hook at all: the unjournaled path.
    None,
    /// A hook that never fires: the journaled path, run to completion.
    Never,
    /// A hook that fires at this checkpoint.
    At(MovePhase),
}

const INTERRUPTS: [Interrupt; 4] = [
    Interrupt::None,
    Interrupt::Never,
    Interrupt::At(MovePhase::Expanded),
    Interrupt::At(MovePhase::Patched),
];

/// The whole property for one input: the batch against one call per
/// request, against the pre-move state when interrupted, and against the
/// relocation oracle.
fn check(
    label: &str,
    build: &dyn Fn() -> Fixture,
    reqs: &[MoveRequest],
    cost: &CostModel,
    interrupt: Interrupt,
) -> Vec<MoveOutcome> {
    let pristine = build();
    let before = pristine.state();
    let views: Vec<&AllocationTable> = pristine.tables.iter().collect();
    // (src, len, dst) of every expanded request.
    let ranges: Vec<(u64, u64, u64)> = reqs
        .iter()
        .map(|r| {
            let (src, len) = expand_to_allocations(&views, r.src, r.len, cost.page_size);
            (src, len, r.dst - (r.src - src))
        })
        .collect();

    // One call per request.
    let mut seq = build();
    let seq_outs: Vec<MoveOutcome> = reqs
        .iter()
        .map(|r| {
            let mut outs = seq.run(std::slice::from_ref(r), cost, None).unwrap();
            assert_eq!(outs.len(), 1, "{label}: one request, one outcome");
            outs.remove(0)
        })
        .collect();

    // The batch.
    let mut batch = build();
    let mut hook = |phase: MovePhase| matches!(interrupt, Interrupt::At(p) if p == phase);
    let res = match interrupt {
        Interrupt::None => batch.run(reqs, cost, None),
        _ => batch.run(reqs, cost, Some(&mut hook)),
    };
    let batch_outs = match (interrupt, res) {
        (Interrupt::At(phase), Err(err)) => {
            assert_eq!(err.phase, phase, "{label}");
            let (cells, regs) = match phase {
                MovePhase::Expanded => (0, 0),
                MovePhase::Patched => (
                    seq_outs.iter().map(|o| o.escapes_patched).sum(),
                    seq_outs.iter().map(|o| o.registers_patched).sum(),
                ),
            };
            assert_eq!(err.cells_rolled_back, cells, "{label}: cells rolled back");
            assert_eq!(err.registers_rolled_back, regs, "{label}: regs rolled back");
            assert!(
                batch.state() == before,
                "{label}: rollback not byte-identical"
            );
            return seq_outs;
        }
        (Interrupt::At(_), Ok(_)) => panic!("{label}: interrupt did not fire"),
        (_, Err(err)) => panic!("{label}: spurious interrupt {err}"),
        (_, Ok(outs)) => outs,
    };

    assert!(batch.state() == seq.state(), "{label}: batch state differs");
    assert_eq!(batch_outs.len(), seq_outs.len(), "{label}");
    for (k, (b, s)) in batch_outs.iter().zip(&seq_outs).enumerate() {
        let mut expect = s.clone();
        if k > 0 {
            expect.cost.register_patch = 0;
        }
        assert_eq!(b, &expect, "{label}: outcome {k}");
    }

    // The oracle, independent of the engine: relocate the pristine
    // tables and registers range by range.
    let relocate = |addr: u64| {
        ranges
            .iter()
            .find(|&&(src, len, _)| addr >= src && addr < src + len)
            .map_or(addr, |&(src, _, dst)| addr - src + dst)
    };
    for (k, (o, &(src, len, dst))) in batch_outs.iter().zip(&ranges).enumerate() {
        assert_eq!(
            (o.moved_src, o.moved_len, o.moved_dst),
            (src, len, dst),
            "{label}: range {k}"
        );
    }
    for (i, (t, snap)) in batch.tables.iter().zip(&before.tables).enumerate() {
        let mut expect: Vec<_> = snap
            .iter()
            .map(|&(start, len, n, ever)| (relocate(start), len, n, ever))
            .collect();
        expect.sort_unstable();
        assert_eq!(t.snapshot(), expect, "{label}: table {i} relocation");
    }
    let expect_regs: Vec<u64> = before.regs.iter().map(|&r| relocate(r)).collect();
    assert_eq!(batch.regs, expect_regs, "{label}: registers");
    batch_outs
}

/// Deterministic xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const SRC_BASE: u64 = 0x10000;
const SRC_END: u64 = 0x20000;
const ARENA_BASE: u64 = 0x40000;
const DST_BASE: u64 = 0x80000;

/// A seeded fixture: allocations laid out over `[SRC_BASE, SRC_END)`,
/// each tracked by a non-empty subset of `n_tables` tables, pointer cells
/// in an external arena and inside allocations (each tracked by every
/// table owning its target, so shared cells are deduplicated), and
/// registers holding pointers and junk.
fn seeded_fixture(seed: u64, n_tables: usize) -> Fixture {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut tables: Vec<AllocationTable> = (0..n_tables).map(|_| AllocationTable::new()).collect();
    let mut mem = VecMem {
        bytes: vec![0; 1 << 20],
    };
    let mut allocs: Vec<(u64, u64, u64)> = Vec::new();
    let mut cursor = SRC_BASE;
    loop {
        // Gaps, now and then up to a page boundary, so some boundaries
        // are straddled (expansion grows) and some are not.
        cursor += rng.below(4) * 16;
        if rng.below(4) == 0 {
            cursor = cursor.next_multiple_of(PAGE);
        }
        let len = 16 + rng.below(96) * 16;
        if cursor + len > SRC_END {
            break;
        }
        let owners = 1 + rng.below((1 << n_tables) - 1);
        for (i, t) in tables.iter_mut().enumerate() {
            if owners & (1 << i) != 0 {
                t.track_alloc(cursor, len, AllocKind::Heap);
            }
        }
        for w in 0..len / 8 {
            mem.write_u64(cursor + w * 8, seed << 32 | (cursor + w * 8));
        }
        allocs.push((cursor, len, owners));
        cursor += len;
    }
    let mut arena = ARENA_BASE;
    for _ in 0..3 * allocs.len() {
        let (b, blen, owners) = allocs[rng.below(allocs.len() as u64) as usize];
        let target = b + rng.below(blen / 8) * 8;
        let cell = if rng.below(2) == 0 {
            arena += 8;
            arena
        } else {
            let (a, alen, _) = allocs[rng.below(allocs.len() as u64) as usize];
            a + rng.below(alen / 8) * 8
        };
        mem.write_u64(cell, target);
        for (i, t) in tables.iter_mut().enumerate() {
            if owners & (1 << i) != 0 {
                t.track_escape(cell);
            }
        }
    }
    for t in &mut tables {
        t.flush_escapes(|c| mem.read_u64(c));
    }
    let mut regs = vec![0, 0xdead_beef];
    for _ in 0..4 {
        let (a, alen, _) = allocs[rng.below(allocs.len() as u64) as usize];
        regs.push(a + rng.below(alen));
    }
    Fixture { tables, mem, regs }
}

/// Up to `n` one- or two-page requests over the seeded layout whose
/// expanded ranges are pairwise disjoint, each aimed at its own slot of
/// the destination area (the request's `dst` is chosen so the *expanded*
/// range lands on the slot).
fn seeded_requests(fx: &Fixture, seed: u64, n: usize, cost: &CostModel) -> Vec<MoveRequest> {
    let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03) | 1);
    let views: Vec<&AllocationTable> = fx.tables.iter().collect();
    let mut taken: Vec<(u64, u64)> = Vec::new();
    let mut reqs = Vec::new();
    let mut dst = DST_BASE;
    for _ in 0..n {
        let src = SRC_BASE + rng.below((SRC_END - SRC_BASE) / PAGE) * PAGE;
        let len = (1 + rng.below(2)) * PAGE;
        let (xsrc, xlen) = expand_to_allocations(&views, src, len, cost.page_size);
        if taken.iter().any(|&(s, l)| xsrc < s + l && s < xsrc + xlen) {
            continue;
        }
        taken.push((xsrc, xlen));
        reqs.push(MoveRequest {
            src,
            len,
            dst: dst + (src - xsrc),
        });
        dst += xlen + PAGE;
    }
    reqs
}

#[test]
fn batch_matches_one_call_per_request_and_rolls_back() {
    let cost = CostModel::default();
    let mut multi_request_cases = 0;
    for seed in 0..48u64 {
        let n_tables = 1 + (seed % 3) as usize;
        let n_reqs = 1 + (seed / 3 % 4) as usize;
        let build = || seeded_fixture(seed, n_tables);
        let reqs = seeded_requests(&build(), seed, n_reqs, &cost);
        multi_request_cases += usize::from(reqs.len() > 1);
        for interrupt in INTERRUPTS {
            let label = format!(
                "seed {seed}, {n_tables} table(s), {} request(s), {interrupt:?}",
                reqs.len()
            );
            check(&label, &build, &reqs, &cost, interrupt);
        }
    }
    assert!(
        multi_request_cases >= 16,
        "{multi_request_cases} batches of 2+"
    );
}

// --- Fixed inputs: an escape-heavy fixture -------------------------------

const ALLOC_BASE: u64 = 0x10000;
const ALLOC_SIZE: u64 = 0x400;
const HEAVY_ARENA: u64 = 0x100000;
const MOVE_DST: u64 = 0x200000;

/// `n_allocs` contiguous allocations from `ALLOC_BASE`, `cells_per_alloc`
/// external escape cells per allocation in a dense arena, plus one
/// internal cross-pointer per allocation to the next one. `seed` varies
/// the pointer targets.
fn heavy_fixture(n_allocs: usize, cells_per_alloc: usize, seed: u64) -> Fixture {
    let mut t = AllocationTable::new();
    let mut m = VecMem {
        bytes: vec![0; 4 << 20],
    };
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut arena = HEAVY_ARENA;
    for i in 0..n_allocs {
        let start = ALLOC_BASE + i as u64 * ALLOC_SIZE;
        t.track_alloc(start, ALLOC_SIZE, AllocKind::Heap);
        for w in 0..(ALLOC_SIZE / 8) {
            m.write_u64(start + w * 8, (i as u64) << 32 | w);
        }
        for _ in 0..cells_per_alloc {
            let target = start + rng.below(ALLOC_SIZE / 8) * 8;
            m.write_u64(arena, target);
            t.track_escape(arena);
            arena += 8;
        }
        let cell = start + ALLOC_SIZE - 8;
        let target = ALLOC_BASE + ((i + 1) % n_allocs) as u64 * ALLOC_SIZE + 0x10;
        m.write_u64(cell, target);
        t.track_escape(cell);
    }
    t.flush_escapes(|c| m.read_u64(c));
    let regs = vec![
        ALLOC_BASE + 0x10,
        0xdead_beef,
        ALLOC_BASE + (n_allocs as u64 - 1) * ALLOC_SIZE + 8,
        0x50,
    ];
    Fixture {
        tables: vec![t],
        mem: m,
        regs,
    }
}

/// A fault between the patch and copy phases of a two-request batch (the
/// window the kernel arms with `FaultPoint::MidMove`) rolls back every
/// one of its thousands of patched cells.
#[test]
fn escape_heavy_batch_interrupted_after_patching_rolls_back() {
    let (n_allocs, cells_per_alloc, seed) = (128, 72, 11);
    let half = n_allocs as u64 / 2 * ALLOC_SIZE;
    let reqs = [
        MoveRequest {
            src: ALLOC_BASE,
            len: half,
            dst: MOVE_DST,
        },
        MoveRequest {
            src: ALLOC_BASE + half,
            len: half,
            dst: MOVE_DST + 0x80000,
        },
    ];
    let build = || heavy_fixture(n_allocs, cells_per_alloc, seed);
    let cost = CostModel::default();
    check(
        "escape-heavy batch",
        &build,
        &reqs,
        &cost,
        Interrupt::At(MovePhase::Patched),
    );
    let outs = check("escape-heavy batch", &build, &reqs, &cost, Interrupt::Never);
    let cells: usize = outs.iter().map(|o| o.escapes_patched).sum();
    assert!(cells >= n_allocs * cells_per_alloc, "only {cells} cells");
}

/// Modeled cycles follow the cost model's `patch_workers`: with 4
/// modeled workers the patch term shrinks ≥2× on an escape-heavy plan,
/// while the machine state is the same as at one worker.
#[test]
fn modeled_four_worker_patch_scan() {
    let (n_allocs, cells_per_alloc, seed) = (32, 40, 3);
    let len = (n_allocs as u64 * ALLOC_SIZE).div_ceil(PAGE) * PAGE;
    let reqs = [MoveRequest {
        src: ALLOC_BASE,
        len,
        dst: MOVE_DST,
    }];
    let build = || heavy_fixture(n_allocs, cells_per_alloc, seed);
    let cost4 = CostModel {
        patch_workers: 4,
        ..CostModel::default()
    };
    let out = check("modeled 4 workers", &build, &reqs, &cost4, Interrupt::None).remove(0);
    let escapes = out.escapes_patched as u64;
    let serial = CostModel::default().patch_cost(escapes);
    let parallel = cost4.patch_cost(escapes);
    assert_eq!(out.cost.patch_gen_exec, parallel);
    assert!(
        serial >= 2 * parallel,
        "expected ≥2x modeled patch speedup at 4 workers: serial={serial} parallel={parallel}"
    );
    let mut one = build();
    one.run(&reqs, &CostModel::default(), None).unwrap();
    let mut four = build();
    four.run(&reqs, &cost4, None).unwrap();
    assert!(
        one.state() == four.state(),
        "state depends on modeled workers"
    );
}

/// The plan builder is pure and the fixture is deterministic, so the plan
/// itself — cells, order, values — is identical however often it is
/// rebuilt, which is what lets every check above rebuild its fixture.
#[test]
fn plan_build_is_deterministic() {
    let (src, len) = (ALLOC_BASE, 2 * PAGE);
    let (a, b) = (heavy_fixture(8, 12, 99), heavy_fixture(8, 12, 99));
    let p1 = PatchPlan::build(&[&a.tables[0]], &a.mem, src, len, MOVE_DST);
    let p2 = PatchPlan::build(&[&b.tables[0]], &b.mem, src, len, MOVE_DST);
    assert_eq!(p1, p2);
    assert!(!p1.cells.is_empty());
}
