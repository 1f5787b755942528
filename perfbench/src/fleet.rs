//! `fleet`: the serving scenario. One `fleet_tenant` and one `io_server`
//! module are compiled and signed once, about ten thousand tenants are
//! batch-admitted, and the fleet runs timer-preemptive slices under
//! memory pressure, DMA traffic through pinned buffers, and seeded churn
//! — every `MultiVm::run_batch(1)` timed on its own.

use std::rc::Rc;
use std::time::Instant;

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::Module;
use carat_kernel::{DmaCompletion, DmaDir, LoadConfig, Pid, ProcAccounting, SharedId};
use carat_vm::{
    Mode, MultiVm, MultiVmConfig, ProcOutcome, ProcReport, SchedSource, Vm, VmConfig, VmError,
};
use carat_workloads::{fleet_tenant, io_server};

use crate::paper::SCALE;
use crate::stats::{fnv1a, ratio, Book, Ledger, Rng};
use crate::{Pass, Unit};

/// Tenants per pass: plain CARAT tenants, CARAT I/O servers with a
/// pinned DMA buffer each, and traditional-world tenants run as a phase
/// of their own.
const PLAIN: usize = 8000;
const IO: usize = 500;
const TRADITIONAL: usize = 1500;

/// Microservice-sized tenants (as in the `fleet_scaling` bench); the
/// I/O servers get the heap their request scratch buffers need.
const PLAIN_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 16 * 1024,
    page_size: 4096,
};
const IO_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 32 * 1024,
    page_size: 4096,
};

/// Modeled cycles per timer slice, and the pressure cadence in slices.
const TIMER_INTERVAL: u64 = 1024;
const PRESSURE_EVERY: u64 = 8;

/// Frame utilization at which pressure passes start externalizing the
/// coldest resident tenant.
const EXTERNALIZE_WATERMARK: u64 = 50;

/// One DMA buffer per I/O server. The device reads the server's
/// response words at the buffer's start and writes request payloads
/// into its upper half, which the server never reads, so each server's
/// result stays equal to a solo run.
const DMA_BUF: u64 = 4096;
const DMA_LEN: u64 = 256;
const DMA_IN_OFFSET: u64 = 2048;
/// Slices between DMA rounds.
const DMA_EVERY: u64 = 4;

/// Churn: rounds, spacing in CARAT slices, tenants killed and
/// respawned per round, cold tenants externalized per round, and the
/// slices after which those are explicitly rehydrated.
const CHURN_ROUNDS: u64 = 4;
const CHURN_EVERY: u64 = 40_000;
const CHURN_KILLS: usize = 100;
const CHURN_EXTERNALIZE: usize = 50;
const REHYDRATE_AFTER: u64 = 500;

fn kernel_mem(tenants: usize) -> u64 {
    64 * 1024 * 1024 + tenants as u64 * 128 * 1024
}

fn fleet_config(tenants: usize) -> MultiVmConfig {
    MultiVmConfig {
        sched: SchedSource::Timer,
        timer_interval: TIMER_INTERVAL,
        kernel_mem: kernel_mem(tenants),
        pressure_every: PRESSURE_EVERY,
        pressure_batch: 4,
        externalize_watermark: EXTERNALIZE_WATERMARK,
        move_workers: 1,
        ..MultiVmConfig::default()
    }
}

fn tenant_config(mode: Mode, load: LoadConfig) -> VmConfig {
    VmConfig {
        mode,
        load,
        move_workers: 1,
        ..VmConfig::default()
    }
}

/// The payload the modeled device writes for request `id` at `addr`:
/// the documented xorshift64* stream, recomputed here to check it.
fn device_payload(id: u64, addr: u64, len: u64) -> Vec<u8> {
    let mut x = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(addr | 1);
    let mut buf = vec![0u8; len as usize];
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
    buf
}

/// Whether a completion carries exactly `data` and no error.
fn clean(c: &DmaCompletion, data: &[u8]) -> bool {
    c.ok() && c.checksum == fnv1a(data)
}

/// Per-process inputs of the fleet, built once: the module seed and the
/// solo-run results every finished tenant must reproduce.
pub struct Fleet {
    seed: u64,
    module_seed: i64,
    want_plain: i64,
    want_baseline: i64,
    want_io: i64,
}

fn compile(module: Module, options: CompileOptions) -> Result<Module, String> {
    CaratCompiler::new(options)
        .compile(module)
        .map(|c| c.module)
        .map_err(|e| e.to_string())
}

fn solo(module: Module, mode: Mode, load: LoadConfig) -> Result<i64, String> {
    Vm::new(module, tenant_config(mode, load))
        .and_then(Vm::run)
        .map(|r| r.ret)
        .map_err(|e| e.to_string())
}

/// An I/O server alone on a kernel with its buffer mapped and pinned and
/// no device traffic: what every I/O server in the fleet must return.
fn solo_io(module: Module) -> Result<i64, String> {
    let mut mv = MultiVm::new(Vec::new(), fleet_config(1)).map_err(|e| e.to_string())?;
    let pid = mv
        .spawn_shared("io", Rc::new(module), tenant_config(Mode::Carat, IO_LOAD))
        .map_err(|e| e.to_string())?;
    let id = mv.shared_create(DMA_BUF).map_err(|e| e.to_string())?;
    mv.shared_map(pid, id, 0).map_err(|e| e.to_string())?;
    mv.pin_shared(pid, id).map_err(|e| e.to_string())?;
    match mv.run().pop().map(|r| r.outcome) {
        Some(ProcOutcome::Finished(rr)) => Ok(rr.ret),
        other => Err(format!("solo io_server ended {other:?}")),
    }
}

impl Fleet {
    pub fn new(seed: u64, book: &mut Book) -> Fleet {
        let module_seed = (seed % 1000) as i64;
        let reference = || -> Result<(i64, i64, i64), String> {
            let plain = fleet_tenant(SCALE, module_seed).map_err(|e| e.to_string())?;
            let io = io_server(SCALE, module_seed).map_err(|e| e.to_string())?;
            Ok((
                solo(
                    compile(plain.clone(), CompileOptions::default())?,
                    Mode::Carat,
                    PLAIN_LOAD,
                )?,
                solo(
                    compile(plain, CompileOptions::baseline())?,
                    Mode::Traditional,
                    PLAIN_LOAD,
                )?,
                solo_io(compile(io, CompileOptions::default())?)?,
            ))
        };
        let (want_plain, want_baseline, want_io) = reference().unwrap_or_else(|e| {
            book.check(false, || format!("fleet reference runs: {e}"));
            (0, 0, 0)
        });
        // Check the checkers: a wrong ret and a corrupted DMA payload
        // must both be rejected.
        let good = device_payload(7, 4096, DMA_LEN);
        let c = DmaCompletion {
            id: 7,
            err: None,
            cycles: 0,
            checksum: fnv1a(&good),
        };
        let mut bad = good.clone();
        bad[0] ^= 1;
        book.check(clean(&c, &good) && !clean(&c, &bad), || {
            "DMA checker does not tell a corrupted payload apart".to_string()
        });
        book.check(
            ret_matches(Some(want_plain), want_plain)
                && !ret_matches(Some(want_plain), want_plain ^ 1),
            || "ret checker accepted a corrupted expected value".to_string(),
        );
        Fleet {
            seed,
            module_seed,
            want_plain,
            want_baseline,
            want_io,
        }
    }

    pub fn pass(&self, pass: &mut Pass, book: &mut Book) {
        let mut rng = Rng::new(self.seed);
        let probe = pass.probe.begin();
        let t0 = Instant::now();
        let Some(mut fleet) = self.setup(&mut pass.ledger, book) else {
            return;
        };
        let setup_ns = t0.elapsed().as_nanos() as u64;
        pass.units.push(Unit {
            probe_ns: pass.probe.end(probe),
            setup_ns,
            run_ns: 0,
            slices: 0..0,
        });

        let mut chunk = Chunk::start(pass);
        let mut carat = SliceStats::default();
        let mut churn = Churn::default();
        loop {
            let t = Instant::now();
            let ran = fleet.carat.run_batch(1);
            let ns = t.elapsed().as_nanos() as u64;
            if ran == 0 {
                break;
            }
            pass.slices.push(ns);
            pass.ledger.add("vm.multi.run_batch.carat", ns);
            carat.add(ns, fleet.carat.slices() % PRESSURE_EVERY == 0);
            if carat.slices % DMA_EVERY == 0 {
                fleet.dma_round(&mut rng, &mut pass.ledger, book);
            }
            churn.step(carat.slices, &mut fleet, &mut rng, &mut pass.ledger, book);
            chunk.tick(pass, false);
        }
        churn.rehydrate(&mut fleet, &mut pass.ledger, book);
        chunk.tick(pass, true);
        let mut traditional = SliceStats::default();
        loop {
            let t = Instant::now();
            let ran = fleet.traditional.run_batch(1);
            let ns = t.elapsed().as_nanos() as u64;
            if ran == 0 {
                break;
            }
            pass.slices.push(ns);
            pass.ledger.add("vm.multi.run_batch.traditional", ns);
            traditional.add(ns, fleet.traditional.slices() % PRESSURE_EVERY == 0);
            chunk.tick(pass, false);
        }
        chunk.tick(pass, true);

        self.check_and_count(fleet, &carat, &traditional, &churn, pass, book);
    }

    /// Compile the two modules, admit the fleets, and map and pin one
    /// DMA buffer per I/O server: everything before the first guest
    /// instruction.
    fn setup(&self, ledger: &mut Ledger, book: &mut Book) -> Option<Fleets> {
        let built = (|| -> Result<Fleets, String> {
            let plain = ledger
                .time("frontend", || fleet_tenant(SCALE, self.module_seed))
                .map_err(|e| e.to_string())?;
            let io = ledger
                .time("frontend", || io_server(SCALE, self.module_seed))
                .map_err(|e| e.to_string())?;
            let ir_insts = [&plain, &io]
                .iter()
                .flat_map(|m| {
                    m.func_ids()
                        .map(|f| m.func(f).insts_in_layout_order().count())
                })
                .sum::<usize>() as u64;
            let plain_full =
                ledger.time("core", || compile(plain.clone(), CompileOptions::default()))?;
            let plain_base = ledger.time("core", || compile(plain, CompileOptions::baseline()))?;
            let io_full = ledger.time("core", || compile(io, CompileOptions::default()))?;
            let err = |e: VmError| e.to_string();

            let plain_module = Rc::new(plain_full);
            let mut carat = MultiVm::new(Vec::new(), fleet_config(PLAIN + IO)).map_err(err)?;
            let t = Instant::now();
            let plain_pids = carat
                .spawn_batch(
                    "t",
                    plain_module.clone(),
                    tenant_config(Mode::Carat, PLAIN_LOAD),
                    PLAIN,
                )
                .map_err(err)?;
            let io_pids = carat
                .spawn_batch(
                    "io",
                    Rc::new(io_full),
                    tenant_config(Mode::Carat, IO_LOAD),
                    IO,
                )
                .map_err(err)?;
            let admit_carat = t.elapsed().as_nanos() as u64;
            let mut buffers = Vec::with_capacity(IO);
            for &pid in &io_pids {
                let id = carat.shared_create(DMA_BUF).map_err(err)?;
                carat.shared_map(pid, id, 0).map_err(err)?;
                let (base, len) = ledger
                    .time("kernel.pin", || carat.pin_shared(pid, id))
                    .map_err(err)?;
                buffers.push(Buffer { id, base, len });
            }
            let mut traditional =
                MultiVm::new(Vec::new(), fleet_config(TRADITIONAL)).map_err(err)?;
            let t = Instant::now();
            traditional
                .spawn_batch(
                    "b",
                    Rc::new(plain_base),
                    tenant_config(Mode::Traditional, PLAIN_LOAD),
                    TRADITIONAL,
                )
                .map_err(err)?;
            let admit_ns = admit_carat + t.elapsed().as_nanos() as u64;
            ledger.add("vm.multi.spawn_batch", admit_ns);
            Ok(Fleets {
                carat,
                traditional,
                plain_module,
                plain_pids,
                buffers,
                ir_insts,
                admit_ns,
            })
        })();
        built
            .map_err(|e| book.check(false, || format!("fleet setup: {e}")))
            .ok()
    }

    fn check_and_count(
        &self,
        fleet: Fleets,
        carat: &SliceStats,
        traditional: &SliceStats,
        churn: &Churn,
        pass: &mut Pass,
        book: &mut Book,
    ) {
        let Fleets {
            carat: carat_fleet,
            traditional: trad_fleet,
            buffers,
            ir_insts,
            admit_ns,
            ..
        } = fleet;
        // No pinned cell moved: every buffer still sits where it was
        // pinned, under its pin.
        for b in &buffers {
            let base = carat_fleet.kernel.procs.shared(b.id).map(|s| s.base);
            let pinned = carat_fleet
                .kernel
                .pins()
                .iter()
                .any(|p| p.start == b.base && p.len == b.len);
            book.check(base == Some(b.base) && pinned, || {
                format!("DMA buffer at {:#x} moved or lost its pin", b.base)
            });
        }
        let arena = carat_fleet.arena_stats();
        let pins = carat_fleet.kernel.pin_stats();
        let pinned_bytes = carat_fleet.kernel.pinned_bytes();
        let dma = carat_fleet.kernel.dev.dma.stats();
        let timer = carat_fleet.kernel.dev.timer.stats();
        let scan_slots = carat_fleet.pressure_scan_slots();
        let scan_cycles = carat_fleet.pressure_scan_cycles();
        let admission = (
            carat_fleet.admission_cycles(),
            trad_fleet.admission_cycles(),
        );
        let passes = (carat_fleet.slices() / PRESSURE_EVERY).max(1);

        let reports_c = carat_fleet.run();
        let reports_t = trad_fleet.run();
        book.check(reports_c.len() == PLAIN + IO, || {
            format!(
                "CARAT fleet reported {} tenants, expected {}",
                reports_c.len(),
                PLAIN + IO
            )
        });
        book.check(reports_t.len() == TRADITIONAL, || {
            format!(
                "traditional fleet reported {} tenants, expected {TRADITIONAL}",
                reports_t.len()
            )
        });
        for r in &reports_c {
            let want = if r.name.starts_with("io") {
                self.want_io
            } else {
                self.want_plain
            };
            book.check(ret_ok(r, want), || describe(r, want));
        }
        for r in &reports_t {
            book.check(ret_ok(r, self.want_baseline), || {
                describe(r, self.want_baseline)
            });
        }

        let mut acct = ProcAccounting::default();
        for r in reports_c.iter().chain(&reports_t) {
            let a = &r.accounting;
            acct.ctx_switches += a.ctx_switches;
            acct.ctx_switch_cycles += a.ctx_switch_cycles;
            acct.tlb_flushes += a.tlb_flushes;
            acct.pressure_moves += a.pressure_moves;
            acct.pressure_page_outs += a.pressure_page_outs;
            acct.compaction_cycles += a.compaction_cycles;
            acct.externalizations += a.externalizations;
            acct.rehydrations += a.rehydrations;
        }
        for r in reports_c.iter().chain(&reports_t) {
            let counters = match &r.outcome {
                ProcOutcome::Finished(rr) => Some(&rr.counters),
                _ => None,
            };
            pass.digest.add(&(&r.name, &r.accounting, counters));
        }
        pass.digest
            .add(&(arena, pins, dma, timer, scan_slots, scan_cycles, admission));

        let l = &pass.ledger;
        let us = |layer: &str| ratio(l.ns(layer) as f64 / 1e3, l.calls(layer) as f64);
        pass.layers.extend([
            ("frontend.parse_ms", l.ns("frontend") as f64 / 1e6),
            ("frontend.ir_insts", ir_insts as f64),
            ("core.compile_ms", l.ns("core") as f64 / 1e6),
            (
                "vm.multi.admit_us_per_tenant",
                admit_ns as f64 / 1e3 / (PLAIN + IO + TRADITIONAL) as f64,
            ),
            ("vm.multi.slice_ns.carat", carat.plain_mean()),
            ("vm.multi.slice_ns.traditional", traditional.plain_mean()),
            ("vm.multi.pressure_slice_ns", carat.pressure_mean()),
            (
                "vm.multi.scan_slots_per_pass",
                scan_slots as f64 / passes as f64,
            ),
            (
                "vm.multi.scan_cycles_per_pass",
                scan_cycles as f64 / passes as f64,
            ),
            ("kernel.ctx_switches", acct.ctx_switches as f64),
            ("kernel.ctx_switch_cycles", acct.ctx_switch_cycles as f64),
            ("kernel.tlb_flushes", acct.tlb_flushes as f64),
            ("kernel.pressure_moves", acct.pressure_moves as f64),
            ("kernel.pressure_page_outs", acct.pressure_page_outs as f64),
            ("kernel.compaction_cycles", acct.compaction_cycles as f64),
            ("vm.capsule.externalize_us", us("vm.capsule.externalize")),
            ("vm.capsule.rehydrate_us", us("vm.capsule.rehydrate")),
            (
                "kernel.arena.high_water_bytes",
                arena.high_water_bytes as f64,
            ),
            (
                "kernel.arena.reuse_ratio",
                ratio(arena.reuses as f64, arena.allocs as f64),
            ),
            ("kernel.dev.dma_service_us", us("kernel.dev.dma_service")),
            ("kernel.dev.dma_completed", dma.completed as f64),
            ("kernel.dev.dma_failed", dma.failed as f64),
            ("kernel.pin.denied_moves", pins.denied_moves as f64),
            ("kernel.pin.pinned_bytes", pinned_bytes as f64),
        ]);
        book.check(churn.externalized > 0 && churn.rehydrated > 0, || {
            "churn never externalized and rehydrated a tenant".to_string()
        });
    }
}

fn ret_ok(r: &ProcReport, want: i64) -> bool {
    ret_matches(finished_ret(r), want)
}

fn finished_ret(r: &ProcReport) -> Option<i64> {
    match &r.outcome {
        ProcOutcome::Finished(rr) => Some(rr.ret),
        _ => None,
    }
}

fn ret_matches(ret: Option<i64>, want: i64) -> bool {
    ret == Some(want)
}

fn describe(r: &ProcReport, want: i64) -> String {
    match &r.outcome {
        ProcOutcome::Finished(rr) => format!("{}: ret {} != solo {want}", r.name, rr.ret),
        other => format!("{}: did not finish: {other:?}", r.name),
    }
}

struct Buffer {
    id: SharedId,
    base: u64,
    len: u64,
}

/// The two fleets of a pass and what the run phase needs of the set-up.
struct Fleets {
    carat: MultiVm,
    traditional: MultiVm,
    plain_module: Rc<Module>,
    /// Live plain CARAT tenants, the churn phase's candidates.
    plain_pids: Vec<Pid>,
    buffers: Vec<Buffer>,
    ir_insts: u64,
    admit_ns: u64,
}

impl Fleets {
    /// One DMA round on a seeded I/O server's buffer: a request payload
    /// into the upper half, the response words out of the lower half.
    fn dma_round(&mut self, rng: &mut Rng, ledger: &mut Ledger, book: &mut Book) {
        let b = &self.buffers[rng.below(self.buffers.len() as u64) as usize];
        let (base, in_addr) = (b.base, b.base + DMA_IN_OFFSET);
        let id_in = self.carat.dma_submit(in_addr, DMA_LEN, DmaDir::DeviceToMem);
        let id_out = self.carat.dma_submit(base, DMA_LEN, DmaDir::MemToDevice);
        let done = ledger.time("kernel.dev.dma_service", || self.carat.dma_service(4));
        book.check(done.len() == 2, || {
            format!("DMA round completed {} of 2 requests", done.len())
        });
        let mem = &self.carat.kernel.mem;
        for c in &done {
            let ok = if c.id == id_in {
                let payload = device_payload(id_in, in_addr, DMA_LEN);
                clean(c, &payload) && mem.read_bytes(in_addr, DMA_LEN) == payload.as_slice()
            } else {
                c.id == id_out && clean(c, mem.read_bytes(base, DMA_LEN))
            };
            book.check(ok, || format!("DMA completion {c:?} is not checksum-clean"));
        }
    }
}

/// Slices per unit of the run phase: about 200 ms of work, each scaled
/// by the host-speed probe read around it.
const CHUNK: usize = 20_000;

/// The open unit of the run phase: a fixed run of consecutive slices
/// plus the DMA and churn work between them.
struct Chunk {
    probe: u64,
    start: Instant,
    first: usize,
}

impl Chunk {
    fn start(pass: &mut Pass) -> Chunk {
        Chunk {
            probe: pass.probe.begin(),
            start: Instant::now(),
            first: pass.slices.len(),
        }
    }

    /// Close the unit once it holds `CHUNK` slices, or now if `last`.
    fn tick(&mut self, pass: &mut Pass, last: bool) {
        if last || pass.slices.len() - self.first >= CHUNK {
            let run_ns = self.start.elapsed().as_nanos() as u64;
            pass.units.push(Unit {
                probe_ns: pass.probe.end(self.probe),
                setup_ns: 0,
                run_ns,
                slices: self.first..pass.slices.len(),
            });
            *self = Chunk::start(pass);
        }
    }
}

/// Host time of the slices of one fleet, split by whether a pressure
/// pass ran at the end of the slice.
#[derive(Default)]
struct SliceStats {
    slices: u64,
    plain_ns: u64,
    plain: u64,
    pressure_ns: u64,
    pressure: u64,
}

impl SliceStats {
    fn add(&mut self, ns: u64, pressure: bool) {
        self.slices += 1;
        if pressure {
            self.pressure_ns += ns;
            self.pressure += 1;
        } else {
            self.plain_ns += ns;
            self.plain += 1;
        }
    }

    fn plain_mean(&self) -> f64 {
        ratio(self.plain_ns as f64, self.plain as f64)
    }

    fn pressure_mean(&self) -> f64 {
        ratio(self.pressure_ns as f64, self.pressure as f64)
    }
}

/// The seeded churn phase: every `CHURN_EVERY` CARAT slices, kill and
/// batch-respawn plain tenants and externalize cold ones, rehydrating
/// those explicitly `REHYDRATE_AFTER` slices later.
#[derive(Default)]
struct Churn {
    rounds: u64,
    parked: Vec<Pid>,
    rehydrate_at: u64,
    externalized: u64,
    rehydrated: u64,
}

impl Churn {
    fn step(
        &mut self,
        slice: u64,
        fleet: &mut Fleets,
        rng: &mut Rng,
        ledger: &mut Ledger,
        book: &mut Book,
    ) {
        if slice == self.rehydrate_at {
            self.rehydrate(fleet, ledger, book);
        }
        if self.rounds >= CHURN_ROUNDS || !slice.is_multiple_of(CHURN_EVERY) {
            return;
        }
        self.rounds += 1;
        let mv = &mut fleet.carat;
        for _ in 0..CHURN_KILLS {
            let i = rng.below(fleet.plain_pids.len() as u64) as usize;
            let pid = fleet.plain_pids.swap_remove(i);
            let killed = ledger.time("vm.multi.kill", || mv.kill(pid));
            book.check(killed, || format!("kill {pid} refused"));
        }
        let prefix = format!("r{}_", self.rounds);
        let cfg = tenant_config(Mode::Carat, PLAIN_LOAD);
        let module = fleet.plain_module.clone();
        match ledger.time("vm.multi.respawn_batch", || {
            mv.spawn_batch(&prefix, module, cfg, CHURN_KILLS)
        }) {
            Ok(pids) => {
                book.check(true, String::new);
                fleet.plain_pids.extend(pids);
            }
            Err(e) => book.check(false, || format!("respawn batch: {e}")),
        }
        for _ in 0..CHURN_EXTERNALIZE {
            let pid = fleet.plain_pids[rng.below(fleet.plain_pids.len() as u64) as usize];
            // Skip tenants already externalized by a pressure pass.
            if mv.descheduled_bytes(pid).is_err() || self.parked.contains(&pid) {
                continue;
            }
            let r = ledger.time("vm.capsule.externalize", || mv.externalize_tenant(pid));
            book.check(r.is_ok(), || format!("externalize {pid}: {r:?}"));
            self.parked.push(pid);
            self.externalized += 1;
        }
        self.rehydrate_at = slice + REHYDRATE_AFTER;
    }

    fn rehydrate(&mut self, fleet: &mut Fleets, ledger: &mut Ledger, book: &mut Book) {
        for pid in self.parked.drain(..) {
            let r = ledger.time("vm.capsule.rehydrate", || fleet.carat.rehydrate_tenant(pid));
            book.check(r.is_ok(), || format!("rehydrate {pid}: {r:?}"));
            self.rehydrated += 1;
        }
    }
}
