//! The repository benchmark: three workloads driven from outside the
//! program through the crates' public APIs, timed end to end and, in a
//! separate traced run, layer by layer.
//!
//! ```text
//! carat-perfbench --workload paper_suite|move_storm|fleet --seed N --seconds S --trace 0|1
//! carat-perfbench --write-expected PATH
//! ```
//!
//! A run repeats whole passes (set-up plus execution) until `--seconds`
//! have elapsed. End-to-end times are medians over passes of fixed units
//! of work, each scaled by a host-speed probe (see `end_to_end`); the
//! per-layer values are medians over the traced passes. With `--trace 1` the
//! passes alternate untraced and traced, so the tracing overhead is
//! measured in the same process. The last stdout line is one JSON
//! object; `perfbench/run.py` turns it into the benchmark's result line.

mod fleet;
mod paper;
mod stats;

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use carat_runtime::CostModel;
use stats::{median, percentile, ratio, Book, Digest, Ledger};

/// Per-layer metrics every traced run reports, in output order. A
/// metric the workload does not exercise reads 0.
const PER_LAYER: &[&str] = &[
    "frontend.parse_ms",
    "frontend.ir_insts",
    "core.compile_ms",
    "core.guards_injected",
    "core.guards_remaining",
    "core.guard_removal_ratio",
    "kernel.load_ms",
    "vm.decode_ms",
    "vm.ns_per_inst.carat",
    "vm.ns_per_inst.traditional",
    "vm.insts",
    "vm.fused_fraction",
    "runtime.guards_executed",
    "runtime.guard_cycles",
    "runtime.track_events",
    "runtime.track_cycles",
    "vm.translation_cycles",
    "vm.dtlb_misses",
    "vm.pagewalks",
    "kernel.moves",
    "kernel.pages_moved",
    "kernel.page_outs",
    "kernel.page_ins",
    "runtime.escapes_patched",
    "runtime.registers_patched",
    "kernel.move_cycles",
    "kernel.move_breakdown.page_expand",
    "kernel.move_breakdown.patch_gen_exec",
    "kernel.move_breakdown.register_patch",
    "kernel.move_breakdown.alloc_and_move",
    "kernel.move_host_us",
    "kernel.move_host_us_per_stop",
    "kernel.move_pause_p50_us",
    "kernel.move_pause_p99_us",
    "kernel.move_pause_slices",
    "vm.multi.admit_us_per_tenant",
    "vm.multi.slice_ns.carat",
    "vm.multi.slice_ns.traditional",
    "vm.multi.pressure_slice_ns",
    "vm.multi.scan_slots_per_pass",
    "vm.multi.scan_cycles_per_pass",
    "kernel.ctx_switches",
    "kernel.ctx_switch_cycles",
    "kernel.tlb_flushes",
    "kernel.pressure_moves",
    "kernel.pressure_page_outs",
    "kernel.compaction_cycles",
    "vm.capsule.externalize_us",
    "vm.capsule.rehydrate_us",
    "kernel.arena.high_water_bytes",
    "kernel.arena.reuse_ratio",
    "kernel.dev.dma_service_us",
    "kernel.dev.dma_completed",
    "kernel.dev.dma_failed",
    "kernel.pin.denied_moves",
    "kernel.pin.pinned_bytes",
    "trace.overhead_pct",
    "trace.coverage",
    "harness.error_rate",
];

/// Fewest passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// No pass starts after this much of the run, so every run ends well
/// inside the benchmark's time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// A fixed piece of a pass's work (one program build, or one chunk of
/// fleet slices): the same in every pass of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Host-speed probe time read around the unit.
    pub probe_ns: u64,
    /// Host time before its first guest instruction, and of execution.
    pub setup_ns: u64,
    pub run_ns: u64,
    /// Its scheduling slices, as indices into [`Pass::slices`].
    pub slices: Range<usize>,
}

/// One pass: set up and run the workload once.
#[derive(Default)]
pub struct Pass {
    /// The pass's work, in order.
    pub units: Vec<Unit>,
    /// Host ns of every scheduling slice, in order.
    pub slices: Vec<u64>,
    /// Per-layer values of this pass.
    pub layers: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
    pub probe: stats::Probe,
    /// Modeled state the pass ended in; equal across passes of one seed.
    pub digest: Digest,
    /// The cost model the kernel charged with.
    pub cost: Option<CostModel>,
    wall_ns: u64,
}

impl Pass {
    pub fn setup_ns(&self) -> u64 {
        self.units.iter().map(|u| u.setup_ns).sum()
    }

    pub fn run_ns(&self) -> u64 {
        self.units.iter().map(|u| u.run_ns).sum()
    }
}

enum Workload {
    Paper { storm: bool },
    Fleet(fleet::Fleet),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    };
    if let Some(path) = get("--write-expected") {
        paper::write_expected(path)?;
        println!("wrote {path}");
        std::process::exit(0);
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)
            .ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload").ok_or("missing --workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(x) => return Err(format!("--trace wants 0 or 1, got {x}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("carat-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut book = Book::default();
    let workload = match args.workload.as_str() {
        "paper_suite" | "move_storm" => {
            paper::check_the_checker(&paper::expected(), &mut book);
            Workload::Paper {
                storm: args.workload == "move_storm",
            }
        }
        "fleet" => Workload::Fleet(fleet::Fleet::new(args.seed, &mut book)),
        other => {
            eprintln!("carat-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory of the workload itself: read once the first pass is
    // done, before later passes' slice records pile up.
    let mut peak_rss_mb = 0.0;
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let mut pass = Pass {
            ledger: Ledger::new(traced),
            ..Pass::default()
        };
        stats::trim_heap();
        let t = Instant::now();
        match &workload {
            Workload::Paper { storm: false } => paper::paper_suite(args.seed, &mut pass, &mut book),
            Workload::Paper { storm: true } => paper::move_storm(args.seed, &mut pass, &mut book),
            Workload::Fleet(fleet) => fleet.pass(&mut pass, &mut book),
        }
        pass.wall_ns = t.elapsed().as_nanos() as u64;
        eprintln!(
            "pass {}{}: setup {:.3} ms, run {:.3} ms, probe {:.3} ms, {} slices",
            passes.len(),
            if traced { " (traced)" } else { "" },
            pass.setup_ns() as f64 / 1e6,
            pass.run_ns() as f64 / 1e6,
            pass.units.iter().map(|u| u.probe_ns).sum::<u64>() as f64
                / 1e6
                / pass.units.len().max(1) as f64,
            pass.slices.len()
        );
        passes.push(pass);
        if passes.len() == 1 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        // Stop before a pass that would end past the budget, so a run
        // measures for about `--seconds` and no longer.
        let last = Duration::from_nanos(passes[passes.len() - 1].wall_ns);
        let done = passes.len() >= MIN_PASSES && start.elapsed() + last > budget;
        if done || start.elapsed() >= HARD_STOP {
            break;
        }
    }

    // Modeled counts repeat bit for bit across passes of one seed,
    // traced or not; a mismatch is a failed operation, not noise.
    let first = passes[0].digest.hex();
    for (i, p) in passes.iter().enumerate().skip(1) {
        book.check(p.digest.hex() == first, || {
            format!(
                "pass {i}: modeled-state digest {} != {first}",
                p.digest.hex()
            )
        });
    }

    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.ledger.on);
    let mut end_to_end = end_to_end(&untraced, &mut book);
    end_to_end.insert(2, ("peak_rss_mb", peak_rss_mb));
    let per_layer = per_layer(&traced, &untraced, &mut book);
    if args.trace {
        print_ledger(&traced, &per_layer);
    }
    for f in book.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let slices: Vec<String> = passes.iter().map(|p| p.slices.len().to_string()).collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"scale\": \"{:?}\", \"engine\": \"{}\", \"passes\": {}, \
         \"traced_passes\": {}, \"slices_per_pass\": [{}], \"attempted\": {}, \
         \"failed\": {}, \"digest\": \"{first}\", \"end_to_end\": {}, \"per_layer\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        paper::SCALE,
        carat_vm::Engine::default().name(),
        passes.len(),
        traced.len(),
        slices.join(", "),
        book.attempted,
        book.failures.len(),
        json_map(&end_to_end),
        json_map(&per_layer),
    );
}

/// End-to-end metrics over `passes`, which ran the same units of work.
///
/// Host speed on a shared machine swings by ±15% for tens of seconds at
/// a time and every layer moves with it. Each unit's host times are
/// therefore scaled to the reference host speed by the probe read
/// around that unit (`PROBE_REF_NS / probe_ns`); set-up and execution
/// are the sums over units of the median over passes, and the slice
/// percentiles are read over each slice's median over passes.
fn end_to_end(passes: &[&Pass], book: &mut Book) -> Vec<(&'static str, f64)> {
    let shape = |p: &Pass| p.units.iter().map(|u| u.slices.clone()).collect::<Vec<_>>();
    for p in passes.iter().skip(1) {
        book.check(shape(p) == shape(passes[0]), || {
            "passes of one seed ran different units of work".to_string()
        });
    }
    let scale = |u: &Unit| stats::PROBE_REF_NS / u.probe_ns.max(1) as f64;
    let (mut setup, mut run, mut slices) = (0.0, 0.0, Vec::new());
    for i in 0..passes.first().map_or(0, |p| p.units.len()) {
        let units: Vec<(&Pass, &Unit)> = passes
            .iter()
            .filter_map(|p| Some((*p, p.units.get(i)?)))
            .collect();
        let med = |f: &dyn Fn(&Pass, &Unit) -> Option<f64>| {
            median(
                &units
                    .iter()
                    .filter_map(|&(p, u)| f(p, u))
                    .collect::<Vec<_>>(),
            )
        };
        setup += med(&|_, u| Some(u.setup_ns as f64 * scale(u)));
        run += med(&|_, u| Some(u.run_ns as f64 * scale(u)));
        // Each slice's latency is its median over the passes, so a host
        // hiccup that hits one pass does not reach the tail.
        for j in passes[0].units[i].slices.clone() {
            slices.push(med(&|p, u| Some(*p.slices.get(j)? as f64 * scale(u))) as u64);
        }
    }
    vec![
        ("setup_s", setup / 1e9),
        ("run_s", run / 1e9),
        ("slice_p50_us", percentile(&mut slices, 50.0) as f64 / 1e3),
        ("slice_p99_us", percentile(&mut slices, 99.0) as f64 / 1e3),
        ("slice_p999_us", percentile(&mut slices, 99.9) as f64 / 1e3),
    ]
}

fn per_layer(traced: &[&Pass], untraced: &[&Pass], book: &mut Book) -> Vec<(&'static str, f64)> {
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in traced {
        for &(k, v) in &p.layers {
            values.entry(k).or_default().push(v);
        }
    }
    // Overhead compares like with like: the same estimator over the
    // traced and the untraced passes.
    let mut scratch = Book::default();
    let run = |ps: &[&Pass], b: &mut Book| {
        end_to_end(ps, b)
            .into_iter()
            .find(|(k, _)| *k == "run_s")
            .map_or(0.0, |(_, v)| v)
    };
    let coverage = median(
        &traced
            .iter()
            .map(|p| ratio(p.ledger.total_ns() as f64, p.wall_ns as f64))
            .collect::<Vec<_>>(),
    );
    values.insert(
        "trace.overhead_pct",
        vec![(ratio(run(traced, &mut scratch), run(untraced, &mut scratch)) - 1.0) * 100.0],
    );
    values.insert("trace.coverage", vec![coverage]);
    values.insert(
        "harness.error_rate",
        vec![ratio(book.failures.len() as f64, book.attempted as f64)],
    );
    PER_LAYER
        .iter()
        .map(|&k| (k, values.get(k).map_or(0.0, |v| median(v))))
        .collect()
}

/// The traced run's ledger: host time per layer boundary, summed over
/// the traced passes, beside the wall clock of those passes; then each
/// modeled cost beside the host time of the same work.
fn print_ledger(traced: &[&Pass], per_layer: &[(&str, f64)]) {
    let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let wall: u64 = traced.iter().map(|p| p.wall_ns).sum();
    for p in traced {
        for (k, s) in &p.ledger.spans {
            let e = spans.entry(k).or_default();
            e.0 += s.ns;
            e.1 += s.calls;
        }
    }
    println!("layer span                      calls      host_ms   share");
    for (k, (ns, calls)) in &spans {
        println!(
            "{k:28} {calls:>9} {:>12.3} {:>6.1}%",
            *ns as f64 / 1e6,
            ratio(*ns as f64, wall as f64) * 100.0
        );
    }
    println!(
        "{:28} {:>9} {:>12.3}",
        "wall clock (traced passes)",
        traced.len(),
        wall as f64 / 1e6
    );
    let get = |k: &str| {
        per_layer
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    let span_ms = |k: &str| {
        ratio(
            spans.get(k).map_or(0, |s| s.0) as f64 / 1e6,
            traced.len() as f64,
        )
    };
    println!("modeled beside host, per traced pass");
    let rows: [(&str, f64, &[&str]); 5] = [
        (
            "guards+tracking: carat run_slice ms",
            span_ms("vm.run_slice.carat"),
            &["runtime.guard_cycles", "runtime.track_cycles"],
        ),
        (
            "translation: traditional run_slice ms",
            span_ms("vm.run_slice.traditional"),
            &["vm.translation_cycles"],
        ),
        (
            "moves: world-stop host ms",
            get("kernel.move_host_us") / 1e3,
            &[
                "kernel.move_cycles",
                "kernel.move_breakdown.page_expand",
                "kernel.move_breakdown.patch_gen_exec",
                "kernel.move_breakdown.register_patch",
                "kernel.move_breakdown.alloc_and_move",
            ],
        ),
        (
            "ctx switch: fleet run_batch ms",
            span_ms("vm.multi.run_batch.carat") + span_ms("vm.multi.run_batch.traditional"),
            &["kernel.ctx_switch_cycles"],
        ),
        (
            "compaction+scan: pressure slice ns",
            get("vm.multi.pressure_slice_ns"),
            &["kernel.compaction_cycles", "vm.multi.scan_cycles_per_pass"],
        ),
    ];
    for (what, host, modeled) in rows {
        let cycles: Vec<String> = modeled.iter().map(|k| format!("{k}={}", get(k))).collect();
        println!("  {what:40} {host:>12.3}   {}", cycles.join(" "));
    }
}

fn json_map(m: &[(&str, f64)]) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {v}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
