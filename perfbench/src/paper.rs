//! `paper_suite` and `move_storm`: the paper's programs compiled, signed,
//! loaded and run one at a time, each through the public entry points
//! of every layer (`Workload::module` → `CaratCompiler::compile` →
//! `SimKernel::load` → `Vm::from_parts` → `Vm::run_slice`).

use std::collections::BTreeMap;
use std::time::Instant;

use carat_core::{CaratCompiler, CompileOptions, SigningKey};
use carat_kernel::{FaultPlan, SimKernel};
use carat_runtime::AllocationTable;
use carat_vm::{
    Engine, Mode, MoveDriverConfig, RunResult, SliceExit, SwapDriverConfig, Vm, VmConfig,
};
use carat_workloads::{all_workloads, Scale, Workload};

use crate::stats::{fnv1a, ratio, trim_heap, Book, Rng};
use crate::{Pass, Unit};

/// Problem size of every program.
pub const SCALE: Scale = Scale::Small;

/// Instructions per `run_slice` call: the scheduling slice both
/// workloads time one by one.
const SLICE_BUDGET: u64 = 4096;

/// Simulated physical memory per program (the `Vm::new` default).
const KERNEL_MEM: u64 = 512 * 1024 * 1024;

/// Reference results: `ret` and a digest of the `print_*` lines of every
/// program, produced by the `Reference` engine on the `Baseline` build
/// in the traditional world (`--write-expected` regenerates the file).
const EXPECTED: &str = include_str!("../expected/paper_small.txt");

/// Programs of `move_storm`: the ones whose moves patch the most escapes,
/// so that host time goes to the move path rather than to the guest.
const STORM_PROGRAMS: &[&str] = &["deepsjeng", "lbm", "mcf", "nab", "xalancbmk", "canneal"];

/// Moves and page-outs the drivers may inject into each `move_storm`
/// program. Fixed, so every seed does the same amount of kernel work.
const STORM_MOVES: u64 = 1000;
const STORM_SWAPS: u64 = 200;

/// Modeled cycles between injected moves and between page-outs.
const STORM_MOVE_PERIOD: u64 = 200_000;
const STORM_SWAP_PERIOD: u64 = 600_000;

fn signing_key() -> SigningKey {
    CompileOptions::default()
        .signing
        .expect("the default compile options sign")
}

/// What a program run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub ret: i64,
    pub lines: usize,
    pub digest: u64,
}

impl Expect {
    pub fn of(rr: &RunResult) -> Expect {
        let text = rr.output.join("\n");
        Expect {
            ret: rr.ret,
            lines: rr.output.len(),
            digest: fnv1a(text.as_bytes()),
        }
    }
}

pub fn expected() -> BTreeMap<String, Expect> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [name, ret, lines, digest] = f[..] else {
                return None;
            };
            Some((
                name.to_string(),
                Expect {
                    ret: ret.parse().ok()?,
                    lines: lines.parse().ok()?,
                    digest: u64::from_str_radix(digest, 16).ok()?,
                },
            ))
        })
        .collect()
}

/// Compare one run against its reference; `Err` names the difference.
pub fn compare(name: &str, got: Expect, want: Option<&Expect>) -> Result<(), String> {
    match want {
        None => Err(format!("{name}: no expected result")),
        Some(w) if *w == got => Ok(()),
        Some(w) => Err(format!("{name}: got {got:?}, expected {w:?}")),
    }
}

/// Write the reference file: every program's `Baseline` build on the
/// `Reference` engine in the traditional world.
pub fn write_expected(path: &str) -> Result<(), String> {
    let mut out = String::from(
        "# program ret print_lines fnv1a(print_lines)  (Baseline build, Reference engine, \
         traditional world, Small scale)\n",
    );
    for w in all_workloads() {
        let module = w.module(SCALE).map_err(|e| format!("{}: {e}", w.name))?;
        let compiled = CaratCompiler::new(CompileOptions::baseline())
            .compile(module)
            .map_err(|e| format!("{}: {e}", w.name))?;
        let cfg = VmConfig {
            mode: Mode::Traditional,
            engine: Engine::Reference,
            ..VmConfig::default()
        };
        let rr = Vm::new(compiled.module, cfg)
            .and_then(Vm::run)
            .map_err(|e| format!("{}: {e}", w.name))?;
        let e = Expect::of(&rr);
        out.push_str(&format!(
            "{} {} {} {:016x}\n",
            w.name, e.ret, e.lines, e.digest
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// One program build to run.
struct Job<'a> {
    workload: &'a Workload,
    options: CompileOptions,
    cfg: VmConfig,
}

/// Sums of one pass's modeled counters, split by world.
#[derive(Default)]
struct Totals {
    ir_insts: u64,
    guards_injected: u64,
    guards_eliminated: u64,
    pages_moved: u64,
    carat: RunSums,
    traditional: RunSums,
    /// Host ns and instructions of slices without a world-stop
    /// (the engine's own speed), per world.
    plain_ns: [u64; 2],
    plain_insts: [u64; 2],
    /// Host ns and instructions of the slices that carried one.
    stop_ns: Vec<u64>,
    stop_insts: u64,
}

#[derive(Default)]
struct RunSums {
    insts: u64,
    fused_insts: u64,
    guards: u64,
    guard_cycles: u64,
    track_events: u64,
    track_cycles: u64,
    translation_cycles: u64,
    dtlb_misses: u64,
    pagewalks: u64,
    moves: u64,
    move_cycles: u64,
    swap_outs: u64,
    swap_ins: u64,
    page_expand: u64,
    patch_gen_exec: u64,
    register_patch: u64,
    alloc_and_move: u64,
}

impl RunSums {
    fn add(&mut self, rr: &RunResult) {
        let c = &rr.counters;
        self.insts += c.instructions;
        self.fused_insts += rr.fusion.fused_instructions();
        self.guards += c.guards_executed;
        self.guard_cycles += c.guard_cycles;
        self.track_events += c.track_events;
        self.track_cycles += c.track_cycles;
        self.translation_cycles += c.translation_cycles;
        self.dtlb_misses += rr.dtlb_misses;
        self.pagewalks += rr.pagewalks;
        self.moves += c.moves;
        self.move_cycles += c.move_cycles;
        self.swap_outs += c.swap_outs;
        self.swap_ins += c.swap_ins;
        self.page_expand += c.move_breakdown.page_expand;
        self.patch_gen_exec += c.move_breakdown.patch_gen_exec;
        self.register_patch += c.move_breakdown.register_patch;
        self.alloc_and_move += c.move_breakdown.alloc_and_move;
    }
}

/// World-stop events a run has seen so far.
fn stops(vm: &Vm) -> u64 {
    let c = vm.counters();
    c.moves + c.swap_outs + c.swap_ins + c.stack_expansions
}

/// Set up, run and check one build. Setup and execution are charged to
/// the pass's two end-to-end clocks; the checks run outside both.
fn run_job(
    job: Job<'_>,
    key: &SigningKey,
    expected: &BTreeMap<String, Expect>,
    check_integrity: bool,
    pass: &mut Pass,
    totals: &mut Totals,
    book: &mut Book,
) {
    let name = job.workload.name;
    let world = usize::from(job.cfg.mode == Mode::Traditional);
    let probe = pass.probe.begin();
    let t0 = Instant::now();
    let ledger = &mut pass.ledger;
    let module = match ledger.time("frontend", || job.workload.module(SCALE)) {
        Ok(m) => m,
        Err(e) => return book.check(false, || format!("{name}: frontend: {e}")),
    };
    let ir_insts: u64 = module
        .func_ids()
        .map(|f| module.func(f).insts_in_layout_order().count() as u64)
        .sum();
    let compiled = match ledger.time("core", || CaratCompiler::new(job.options).compile(module)) {
        Ok(c) => c,
        Err(e) => return book.check(false, || format!("{name}: compile: {e}")),
    };
    let Some(signed) = compiled.signed else {
        return book.check(false, || format!("{name}: build is unsigned"));
    };
    let loaded = ledger.time("kernel.load", || {
        let mut kernel = SimKernel::new(KERNEL_MEM);
        kernel.trust(key.clone());
        if let Some(plan) = job.cfg.fault_plan.clone() {
            kernel.install_fault_plan(plan);
        }
        let mut table = AllocationTable::new();
        kernel
            .load(&signed, &mut table, job.cfg.load)
            .map(|image| (kernel, table, image))
    });
    let (kernel, table, image) = match loaded {
        Ok(l) => l,
        Err(e) => return book.check(false, || format!("{name}: load: {e}")),
    };
    let mut vm = ledger.time("vm.decode", || {
        Vm::from_parts(kernel, table, image, job.cfg)
    });
    if let Err(e) = vm.start() {
        return book.check(false, || format!("{name}: start: {e}"));
    }
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let slice_layer = if world == 0 {
        "vm.run_slice.carat"
    } else {
        "vm.run_slice.traditional"
    };
    let first_slice = pass.slices.len();
    let t1 = Instant::now();
    let result = loop {
        let (stops0, insts0) = (stops(&vm), vm.counters().instructions);
        let ts = Instant::now();
        let exit = vm.run_slice(SLICE_BUDGET);
        let ns = ts.elapsed().as_nanos() as u64;
        pass.slices.push(ns);
        pass.ledger.add(slice_layer, ns);
        let insts = vm.counters().instructions - insts0;
        if stops(&vm) != stops0 {
            totals.stop_ns.push(ns);
            totals.stop_insts += insts;
        } else {
            totals.plain_ns[world] += ns;
            totals.plain_insts[world] += insts;
        }
        match exit {
            Ok(SliceExit::Quantum) => {}
            Ok(SliceExit::Finished(v)) => break Ok(vm.finish_run(v)),
            Err(e) => break Err(e),
        }
    };
    let run_ns = t1.elapsed().as_nanos() as u64;
    pass.units.push(Unit {
        probe_ns: pass.probe.end(probe),
        setup_ns,
        run_ns,
        slices: first_slice..pass.slices.len(),
    });

    let rr = match result {
        Ok(rr) => rr,
        Err(e) => return book.check(false, || format!("{name}: run: {e}")),
    };
    let verdict = compare(name, Expect::of(&rr), expected.get(name));
    book.check(verdict.is_ok(), || verdict.err().unwrap_or_default());
    if check_integrity {
        let report = vm.check_integrity();
        book.check(report.ok(), || {
            format!("{name}: integrity: {:?}", report.violations)
        });
    }
    pass.digest
        .add(&(name, world, &rr.counters, vm.kernel.trace.moves));
    totals.ir_insts += ir_insts;
    if world == 0 {
        totals.guards_injected += compiled.census.total as u64;
        totals.guards_eliminated += compiled.census.eliminated as u64;
        totals.carat.add(&rr);
    } else {
        totals.traditional.add(&rr);
    }
    totals.pages_moved += vm.kernel.trace.moves;
    if world == 0 && pass.cost.is_none() {
        pass.cost = Some(vm.kernel.cost);
    }
    drop(vm);
    trim_heap();
}

/// The checker must reject a corrupted reference: flip the `ret` and the
/// line digest of a real result and make sure `compare` notices.
pub fn check_the_checker(expected: &BTreeMap<String, Expect>, book: &mut Book) {
    let Some((name, want)) = expected.iter().next() else {
        return book.check(false, || "no expected results".to_string());
    };
    let bad_ret = Expect {
        ret: want.ret ^ 1,
        ..*want
    };
    let bad_lines = Expect {
        digest: want.digest ^ 1,
        ..*want
    };
    book.check(compare(name, *want, Some(want)).is_ok(), || {
        "checker rejects a matching result".to_string()
    });
    book.check(compare(name, *want, Some(&bad_ret)).is_err(), || {
        "checker accepted a corrupted ret".to_string()
    });
    book.check(compare(name, *want, Some(&bad_lines)).is_err(), || {
        "checker accepted corrupted print lines".to_string()
    });
}

/// One `paper_suite` pass: every program twice, the `Full` build in the
/// CARAT world and the `Baseline` build in the traditional world, in an
/// order drawn from `seed`.
pub fn paper_suite(seed: u64, pass: &mut Pass, book: &mut Book) {
    let suite = all_workloads();
    let mut jobs: Vec<(usize, bool)> = (0..suite.len())
        .flat_map(|i| [(i, true), (i, false)])
        .collect();
    Rng::new(seed).shuffle(&mut jobs);
    let mut totals = Totals::default();
    let key = signing_key();
    let expected = expected();
    for (i, carat) in jobs {
        let (options, mode) = if carat {
            (CompileOptions::default(), Mode::Carat)
        } else {
            (CompileOptions::baseline(), Mode::Traditional)
        };
        let job = Job {
            workload: &suite[i],
            options,
            cfg: VmConfig {
                mode,
                ..VmConfig::default()
            },
        };
        run_job(job, &key, &expected, false, pass, &mut totals, book);
    }
    // Each program's IR was counted once per build.
    totals.ir_insts /= 2;
    fill_layers(pass, &totals);
}

/// One `move_storm` pass: the move-heavy programs' `Full` builds in the
/// CARAT world, in an order drawn from `seed`, with the move and swap
/// drivers at a short period and fixed budgets, the journaled move path
/// on (no faults armed) and one idle extra thread in every world-stop.
pub fn move_storm(seed: u64, pass: &mut Pass, book: &mut Book) {
    let suite = all_workloads();
    let mut picks: Vec<&Workload> = STORM_PROGRAMS
        .iter()
        .filter_map(|n| suite.iter().find(|w| w.name == *n))
        .collect();
    book.check(picks.len() == STORM_PROGRAMS.len(), || {
        "move_storm: a program is missing from the suite".to_string()
    });
    Rng::new(seed).shuffle(&mut picks);
    let mut totals = Totals::default();
    let key = signing_key();
    let expected = expected();
    for w in picks {
        let job = Job {
            workload: w,
            options: CompileOptions::default(),
            cfg: VmConfig {
                mode: Mode::Carat,
                move_driver: Some(MoveDriverConfig {
                    period_cycles: STORM_MOVE_PERIOD,
                    max_moves: STORM_MOVES,
                }),
                swap_driver: Some(SwapDriverConfig {
                    period_cycles: STORM_SWAP_PERIOD,
                    max_swaps: STORM_SWAPS,
                }),
                extra_threads: 1,
                fault_plan: Some(FaultPlan::new()),
                move_workers: 1,
                ..VmConfig::default()
            },
        };
        run_job(job, &key, &expected, true, pass, &mut totals, book);
    }
    fill_layers(pass, &totals);
}

fn fill_layers(pass: &mut Pass, t: &Totals) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let (c, tr) = (&t.carat, &t.traditional);
    let l = &pass.ledger;
    let mut m: Vec<(&'static str, f64)> = vec![
        ("frontend.parse_ms", ms(l.ns("frontend"))),
        ("frontend.ir_insts", t.ir_insts as f64),
        ("core.compile_ms", ms(l.ns("core"))),
        ("core.guards_injected", t.guards_injected as f64),
        (
            "core.guards_remaining",
            (t.guards_injected - t.guards_eliminated) as f64,
        ),
        (
            "core.guard_removal_ratio",
            ratio(t.guards_eliminated as f64, t.guards_injected as f64),
        ),
        ("kernel.load_ms", ms(l.ns("kernel.load"))),
        ("vm.decode_ms", ms(l.ns("vm.decode"))),
        (
            "vm.ns_per_inst.carat",
            ratio(t.plain_ns[0] as f64, t.plain_insts[0] as f64),
        ),
        (
            "vm.ns_per_inst.traditional",
            ratio(t.plain_ns[1] as f64, t.plain_insts[1] as f64),
        ),
        ("vm.insts", (c.insts + tr.insts) as f64),
        (
            "vm.fused_fraction",
            ratio(
                (c.fused_insts + tr.fused_insts) as f64,
                (c.insts + tr.insts) as f64,
            ),
        ),
        ("runtime.guards_executed", c.guards as f64),
        ("runtime.guard_cycles", c.guard_cycles as f64),
        ("runtime.track_events", c.track_events as f64),
        ("runtime.track_cycles", c.track_cycles as f64),
        ("vm.translation_cycles", tr.translation_cycles as f64),
        ("vm.dtlb_misses", tr.dtlb_misses as f64),
        ("vm.pagewalks", tr.pagewalks as f64),
        ("kernel.moves", c.moves as f64),
        ("kernel.pages_moved", t.pages_moved as f64),
        ("kernel.page_outs", c.swap_outs as f64),
        ("kernel.page_ins", c.swap_ins as f64),
        ("kernel.move_cycles", c.move_cycles as f64),
        ("kernel.move_breakdown.page_expand", c.page_expand as f64),
        (
            "kernel.move_breakdown.patch_gen_exec",
            c.patch_gen_exec as f64,
        ),
        (
            "kernel.move_breakdown.register_patch",
            c.register_patch as f64,
        ),
        (
            "kernel.move_breakdown.alloc_and_move",
            c.alloc_and_move as f64,
        ),
    ];
    // The drivers' moves are inside `run_slice`, so their patch counts
    // are read back from the Table 3 columns: at one patch worker the
    // model charges exactly `move_patch_per_escape` per patched cell and
    // `move_register_patch_per_reg` per patched register.
    if let Some(cost) = pass.cost {
        m.push((
            "runtime.escapes_patched",
            ratio(c.patch_gen_exec as f64, cost.move_patch_per_escape as f64),
        ));
        m.push((
            "runtime.registers_patched",
            ratio(
                c.register_patch as f64,
                cost.move_register_patch_per_reg as f64,
            ),
        ));
    }
    // Host time of the world-stop slices minus their guest instructions
    // at the engine's own speed, measured on the other slices.
    let ns_per_inst = ratio(t.plain_ns[0] as f64, t.plain_insts[0] as f64);
    let stop_ns: u64 = t.stop_ns.iter().sum();
    let move_host_ns = (stop_ns as f64 - t.stop_insts as f64 * ns_per_inst).max(0.0);
    let stop_events = c.moves + c.swap_outs + c.swap_ins;
    m.push(("kernel.move_host_us", move_host_ns / 1e3));
    m.push((
        "kernel.move_host_us_per_stop",
        ratio(move_host_ns / 1e3, stop_events as f64),
    ));
    let mut pauses = t.stop_ns.clone();
    m.push((
        "kernel.move_pause_p50_us",
        crate::stats::percentile(&mut pauses, 50.0) as f64 / 1e3,
    ));
    m.push((
        "kernel.move_pause_p99_us",
        crate::stats::percentile(&mut pauses, 99.0) as f64 / 1e3,
    ));
    m.push(("kernel.move_pause_slices", t.stop_ns.len() as f64));
    pass.layers.extend(m);
}
