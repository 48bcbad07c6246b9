//! One workload, start to finish: set-up, warm-up, the timed loop with its
//! output and determinism checks, and the metrics computed from them.
//!
//! Each workload is a closed loop with one client on one thread. A pass
//! runs the workload's guests back-to-back on one `Fpvm` recycled per
//! guest and one reused `Machine`, so every guest starts with cold caches,
//! as a user's run does. The ensemble's pass is one `run_fleet` call
//! instead. Native mirror samples alternate with passes.

use crate::guests::{ensemble_jobs, input_checks, Arith, Guest, Workload, BIGFLOAT_PREC};
use crate::stats::{hist_quantile, percentile, ratio, tail, Band};
use crate::trace::{self_ns, Tracer};
use fpvm_analysis::analyze_and_patch;
use fpvm_arith::{ArithSystem, BigFloatCtx, Vanilla};
use fpvm_core::{run_native, ExitReason, Fpvm, FpvmConfig, SideTableEntry, Stats};
use fpvm_fleet::{run_fleet, FleetJob};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Event, Machine, OutputEvent, Program};
use fpvm_obs::MetricsSnapshot;
use fpvm_workloads::Size;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The end-to-end metrics, in output order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s_p50", "s"),
    ("ns_per_guest_inst", "ns"),
    ("guests_per_s", "1/s"),
    ("slowdown_vs_native", "x"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, in output order, with units.
/// Every workload reports each of them. Notes carry the rest: the fleet's
/// own metrics, which exist only on `ensemble`, and `core.gc_s`, which is
/// zero wherever no GC pass runs.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("ir.compile_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.sinks", "count"),
    ("machine.load_s", "s"),
    ("machine.native_ns_per_inst", "ns"),
    ("machine.block_inst_frac", "ratio"),
    ("machine.blocks_built", "count"),
    ("machine.blocks_invalidated", "count"),
    ("core.frame_s", "s"),
    ("core.decode_s", "s"),
    ("core.bind_s", "s"),
    ("core.commit_s", "s"),
    ("core.frame_residual_s", "s"),
    ("core.trap_ns_p50", "ns"),
    ("core.trap_ns_p99", "ns"),
    ("core.decode_hit_rate", "ratio"),
    ("core.fp_traps", "count"),
    ("core.correctness_traps", "count"),
    ("core.correctness_demote_frac", "ratio"),
    ("core.patch_calls", "count"),
    ("core.patch_fast_frac", "ratio"),
    ("core.outside_frames_s", "s"),
    ("arith.emulate_ns_per_lane", "ns"),
    ("core.emulate_s", "s"),
    ("core.ext_call_s", "s"),
    ("core.gc_passes", "count"),
    ("core.boxes_created", "count"),
    ("obs.trace_overhead", "ratio"),
    ("bench.pass_s_tail", "s"),
    ("bench.pass_s_iqr", "s"),
];

/// Where results and traces go, relative to the working directory.
pub const OUT_DIR: &str = "target/benchmark";
/// Fewest set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 20;
/// Fewest seconds of set-up behind `setup_s`: short set-ups repeat more
/// often, which steadies their median.
const SETUP_SECONDS: f64 = 1.0;
/// Discarded passes before timing starts.
const WARMUP_PASSES: usize = 3;
/// A native mirror sample repeats the mirror set until it lasts this long.
const NATIVE_SAMPLE: Duration = Duration::from_millis(5);
/// Guest instruction budget of a native machine run.
const NATIVE_BUDGET: u64 = 20_000_000_000;
/// Largest relative error a BigFloat `F64` output may show against the
/// IEEE mirror.
const BIGFLOAT_REL_TOL: f64 = 1e-9;
/// Timed rounds of the fleet-only measurements (speed-up, per-job
/// overhead).
const FLEET_ROUNDS: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Guest problem size.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Fewest timed passes, whatever `seconds` says. Eleven leaves ten
    /// samples beyond the tail percentile.
    pub min_passes: usize,
}

/// One reported metric: its median and spread.
#[derive(Debug)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (the median) and quartiles.
    pub band: Band,
    /// Extra human-readable detail.
    pub detail: String,
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Report {
    /// Guest runs and machine runs whose output was checked, and the
    /// input checks of [`input_checks`].
    pub attempted: u64,
    /// Runs that did not halt, mismatched their output, or drifted from
    /// the deterministic view of their first run, and inputs that differ
    /// from the workloads crate's.
    pub failed: u64,
    /// What went wrong, one line per failure (capped).
    pub errors: Vec<String>,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Median seconds of one run of the native mirror set, sampled between
    /// the passes: how fast the host ran.
    pub native_s: f64,
    /// Extra human-readable lines: `metric value unit [detail]`.
    pub notes: Vec<String>,
}

impl Report {
    /// Failed runs as a share of runs attempted.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Run one workload.
pub fn run(w: &'static Workload, opts: Opts) -> Result<Report, String> {
    match w.arith {
        Arith::Vanilla => Bench::new(w, opts, Vanilla).run(),
        Arith::BigFloat => Bench::new(w, opts, BigFloatCtx::new(BIGFLOAT_PREC)).run(),
    }
}

/// A guest image ready to load, with what its runs are checked against.
struct Image {
    guest: Guest,
    program: Program,
    /// The unpatched image, for native machine runs.
    native: Program,
    side_table: Vec<SideTableEntry>,
    sinks: usize,
    reference: Vec<OutputEvent>,
}

/// Per-repetition set-up times, in seconds.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    compile: Vec<f64>,
    analyze: Vec<f64>,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    load_s: f64,
    /// Guest run time: `Fpvm::run` calls, or fleet job walls.
    run_s: f64,
    job_s: Vec<f64>,
    icount: u64,
    stats: Stats,
    snap: Option<MetricsSnapshot>,
    blocks_built: u64,
    block_insts: u64,
    blocks_invalidated: u64,
}

/// Checked-run bookkeeping.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(why);
            }
        }
    }
}

/// A guest's first checked run: every later run must match it.
type Expect = Option<(Stats, u64)>;

struct Bench<A: ArithSystem> {
    w: &'static Workload,
    opts: Opts,
    vm: Fpvm<A>,
    m: Machine,
    guests: Vec<Guest>,
    images: Vec<Image>,
    expect: Vec<Expect>,
    setup: SetupTimes,
    /// Seconds per run of the native mirror set, one sample per pass.
    natives: Vec<f64>,
    tr: Tracer,
    tally: Tally,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl<A: ArithSystem> Bench<A> {
    fn new(w: &'static Workload, opts: Opts, arith: A) -> Self {
        Bench {
            w,
            opts,
            vm: Fpvm::new(arith, w.config()),
            m: Machine::new(CostModel::r815()),
            guests: (w.guests)(opts.size, opts.seed),
            images: Vec::new(),
            expect: Vec::new(),
            setup: SetupTimes::default(),
            natives: Vec::new(),
            tr: Tracer::new(opts.trace),
            tally: Tally::default(),
        }
    }

    fn run(mut self) -> Result<Report, String> {
        for c in input_checks(self.opts.size, self.opts.seed) {
            self.tally.record(c);
        }
        // Every set-up runs first, on a fresh heap: after BigFloat passes,
        // set-up runs at one of two speeds, depending on how the passes
        // left the heap.
        let start = Instant::now();
        while self.setup.total.len() < SETUP_REPS || secs(start) < SETUP_SECONDS {
            self.images = self.setup_rep();
        }
        for img in &mut self.images {
            img.reference = img.guest.reference();
        }
        self.expect = vec![None; self.images.len()];
        let cfg = self.w.config();
        let jobs = self
            .w
            .fleet
            .then(|| ensemble_jobs(self.opts.size, self.opts.seed, cfg));
        // The ensemble's jobs are checked against a direct run of the same
        // guests, whose outputs are checked against the mirrors.
        let validation = self.w.fleet.then(|| self.direct_pass(cfg));
        self.tr.set_on(false);
        for _ in 0..WARMUP_PASSES {
            self.pass(cfg, jobs.as_deref());
        }
        let mut notes = Vec::new();
        let metrics = if self.opts.trace {
            self.traced(cfg, jobs.as_deref(), validation, &mut notes)?
        } else {
            self.untraced(cfg, jobs.as_deref(), &mut notes)?
        };
        Ok(Report {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            errors: self.tally.errors,
            metrics,
            native_s: Band::of(&self.natives).median,
            notes,
        })
    }

    /// One set-up: build every guest image (IR build + compile, then
    /// analyse + patch), timed into `self.setup`.
    fn setup_rep(&mut self) -> Vec<Image> {
        let trace = self.tr.next_trace();
        let (mut compile_s, mut analyze_s) = (0.0, 0.0);
        let start = Instant::now();
        let mut images = Vec::with_capacity(self.guests.len());
        for &guest in &self.guests {
            let sp = self.tr.begin("setup.compile", trace, None);
            let t = Instant::now();
            let c = compile(&guest.build(), CompileMode::Native);
            compile_s += secs(t);
            self.tr.end(sp);
            let sp = self.tr.begin("setup.analyze", trace, None);
            let t = Instant::now();
            let patched = analyze_and_patch(&c.program);
            analyze_s += secs(t);
            self.tr
                .count(sp, &[("sinks", patched.analysis.stats.sinks_found as f64)]);
            self.tr.end(sp);
            images.push(Image {
                guest,
                program: patched.program,
                native: c.program,
                side_table: patched.side_table,
                sinks: patched.analysis.stats.sinks_found,
                reference: Vec::new(),
            });
        }
        self.setup.total.push(secs(start));
        self.setup.compile.push(compile_s);
        self.setup.analyze.push(analyze_s);
        images
    }

    fn pass(&mut self, cfg: FpvmConfig, jobs: Option<&[FleetJob]>) -> Pass {
        match jobs {
            Some(jobs) => self.fleet_pass(jobs, 1),
            None => self.direct_pass(cfg),
        }
    }

    /// Every guest back-to-back on the recycled engine and reused machine.
    fn direct_pass(&mut self, cfg: FpvmConfig) -> Pass {
        let Bench {
            w,
            vm,
            m,
            images,
            expect,
            tr,
            tally,
            ..
        } = self;
        let trace = tr.next_trace();
        let mut p = Pass::default();
        let start = Instant::now();
        let pass = tr.begin("pass", trace, None);
        for (img, expect) in images.iter().zip(expect.iter_mut()) {
            let sp = tr.begin("guest.load", trace, pass);
            let t = Instant::now();
            m.load_program(&img.program);
            vm.recycle(cfg);
            vm.set_side_table(img.side_table.clone());
            p.load_s += secs(t);
            tr.end(sp);
            let before = m.superblock_stats();
            let sp = tr.begin("guest.run", trace, pass);
            let t = Instant::now();
            let r = vm.run(m);
            p.run_s += secs(t);
            let after = m.superblock_stats();
            tr.count(
                sp,
                &[
                    ("icount", r.icount as f64),
                    ("fp_traps", r.stats.fp_traps as f64),
                    ("correctness_traps", r.stats.correctness_traps as f64),
                    (
                        "patch_calls",
                        (r.stats.patch_fast + r.stats.patch_slow) as f64,
                    ),
                    ("emulated_lanes", r.stats.emulated_lanes as f64),
                    ("emulate_ns", r.stats.emulate_ns as f64),
                    ("gc_ns", r.stats.gc_ns as f64),
                    ("blocks_built", (after.built - before.built) as f64),
                    (
                        "block_insts",
                        (after.block_insts - before.block_insts) as f64,
                    ),
                ],
            );
            tr.end(sp);
            p.blocks_built += after.built - before.built;
            p.block_insts += after.block_insts - before.block_insts;
            p.blocks_invalidated += after.invalidated - before.invalidated;
            let sp = tr.begin("guest.check", trace, pass);
            let exact = w.arith == Arith::Vanilla;
            let output = Some((m.output.as_slice(), exact));
            tally.record(check(img, expect, &r.exit, &r.stats, r.icount, output));
            tr.end(sp);
            p.icount += r.icount;
            p.stats.merge(&r.stats);
            if let Some(s) = vm.metrics_snapshot() {
                p.snap.get_or_insert_with(MetricsSnapshot::new).merge(&s);
            }
        }
        tr.end(pass);
        p.wall_s = secs(start);
        p
    }

    /// One `run_fleet` call; each job is checked against the direct run of
    /// the same guest.
    fn fleet_pass(&mut self, jobs: &[FleetJob], workers: usize) -> Pass {
        let trace = self.tr.next_trace();
        let pass = self.tr.begin("pass", trace, None);
        let start = Instant::now();
        let sp = self.tr.begin("fleet.run", trace, pass);
        let report = run_fleet(jobs, workers);
        self.tr.count(
            sp,
            &[
                ("jobs", jobs.len() as f64),
                ("icount", report.icount as f64),
            ],
        );
        self.tr.end(sp);
        let mut p = Pass {
            wall_s: secs(start),
            icount: report.icount,
            ..Pass::default()
        };
        for (o, (img, expect)) in report
            .outcomes
            .iter()
            .zip(self.images.iter().zip(&mut self.expect))
        {
            let failure = match expect {
                None => Some(format!("{}: no checked direct run to compare with", o.name)),
                Some(_) => check(img, expect, &o.exit, &o.stats, o.icount, None),
            };
            self.tally.record(failure);
            p.job_s.push(o.wall_ns as f64 / 1e9);
            p.run_s += o.wall_ns as f64 / 1e9;
            if let Some(s) = &o.metrics {
                p.snap.get_or_insert_with(MetricsSnapshot::new).merge(s);
            }
        }
        p.stats = report.merged;
        self.tr.end(pass);
        p
    }

    /// Seconds per run of the whole mirror set, repeated until a sample
    /// lasts at least [`NATIVE_SAMPLE`]; kept in `self.natives`.
    fn native_reference(&mut self) {
        let trace = self.tr.next_trace();
        let sp = self.tr.begin("native.reference", trace, None);
        let start = Instant::now();
        let mut reps = 0u32;
        loop {
            for img in &self.images {
                black_box(black_box(img.guest).reference());
            }
            reps += 1;
            if start.elapsed() >= NATIVE_SAMPLE {
                break;
            }
        }
        self.natives.push(secs(start) / f64::from(reps));
        self.tr.count(sp, &[("reps", f64::from(reps))]);
        self.tr.end(sp);
    }

    /// Every unpatched guest run natively on the machine, no traps:
    /// `(seconds, guest instructions)`.
    fn native_machine(&mut self) -> (f64, u64) {
        let trace = self.tr.next_trace();
        let (mut s, mut icount) = (0.0, 0);
        for img in &self.images {
            let sp = self.tr.begin("native.machine", trace, None);
            let t = Instant::now();
            let ev = run_native(&mut self.m, &img.native, NATIVE_BUDGET);
            s += secs(t);
            icount += self.m.icount;
            self.tr.count(sp, &[("icount", self.m.icount as f64)]);
            self.tr.end(sp);
            let failure = if ev != Event::Halted {
                Some(format!("{} native: {ev:?}", img.guest.name()))
            } else if self.m.output != img.reference {
                Some(format!(
                    "{} native: output differs from the mirror",
                    img.guest.name()
                ))
            } else {
                None
            };
            self.tally.record(failure);
        }
        (s, icount)
    }

    /// The end-to-end run: each pass is followed by a native mirror sample.
    fn untraced(
        &mut self,
        cfg: FpvmConfig,
        jobs: Option<&[FleetJob]>,
        notes: &mut Vec<String>,
    ) -> Result<Vec<Metric>, String> {
        let mut passes = Vec::new();
        let start = Instant::now();
        while passes.len() < self.opts.min_passes || secs(start) < self.opts.seconds {
            passes.push(self.pass(cfg, jobs));
            self.native_reference();
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let pass = Band::of(&walls);
        // Each pass over the native sample right after it: both see the
        // same host minute, so the ratio cancels most host drift.
        let slowdown: Vec<f64> = walls
            .iter()
            .zip(&self.natives)
            .map(|(p, n)| p / n)
            .collect();
        let icount = passes[0].icount as f64;
        let guests = self.images.len() as f64;
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let (p, tail_s) = tail_or_max(&walls);
        notes.push(format!(
            "bench.pass_s_tail {tail_s} s p{p} n={}",
            walls.len()
        ));
        notes.push(format!("bench.pass_s_iqr {} s", pass.q3 - pass.q1));
        let mut out = Metrics::new(&END_TO_END);
        out.push("setup_s", Band::of(&self.setup.total));
        out.push("pass_s_p50", pass);
        out.push("ns_per_guest_inst", pass.map(|x| x * 1e9 / icount));
        out.push("guests_per_s", pass.map(|x| guests / x));
        out.push("slowdown_vs_native", Band::of(&slowdown));
        out.push("peak_rss_mb", Band::of(&[rss]));
        Ok(out.finish())
    }

    /// The traced run: untraced and traced passes alternate, with native
    /// mirror and native machine samples between them.
    fn traced(
        &mut self,
        cfg: FpvmConfig,
        jobs: Option<&[FleetJob]>,
        validation: Option<Pass>,
        notes: &mut Vec<String>,
    ) -> Result<Vec<Metric>, String> {
        let traced_cfg = FpvmConfig {
            metrics: true,
            metrics_sample_shift: 0,
            ..cfg
        };
        let traced_jobs = jobs.map(|_| ensemble_jobs(self.opts.size, self.opts.seed, traced_cfg));
        let (mut plain, mut traced, mut machine) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while plain.len() < self.opts.min_passes || secs(start) < self.opts.seconds {
            self.tr.set_on(false);
            plain.push(self.pass(cfg, jobs));
            self.tr.set_on(true);
            traced.push(self.pass(traced_cfg, traced_jobs.as_deref()));
            self.native_reference();
            machine.push(self.native_machine());
        }
        if let Some(jobs) = jobs {
            self.fleet_notes(jobs, &plain, notes);
        }
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let plain_band = Band::of(&plain_walls);
        let traced_p50 = Band::of(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).median;
        // The fleet hides its machines, so the ensemble's machine layer is
        // read from its checked direct run.
        let machine_passes: &[Pass] = match &validation {
            Some(v) => std::slice::from_ref(v),
            None => &traced,
        };
        let over = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
            Band::of(&passes.iter().map(f).collect::<Vec<_>>())
        };
        let stage = |p: &Pass, name: &str| {
            p.snap
                .as_ref()
                .and_then(|s| s.histogram(&format!("fpvm_stage_ns_{name}")))
                .map_or(0.0, |h| h.sum() as f64 / 1e9)
        };
        let trap_ns = |p: &Pass, q: f64| {
            p.snap
                .as_ref()
                .and_then(|s| s.histogram("fpvm_stage_ns_frame"))
                .map_or(0.0, |h| hist_quantile(h, q))
        };
        let mut out = Metrics::new(&PER_LAYER);
        out.push("ir.compile_s", Band::of(&self.setup.compile));
        out.push("analysis.analyze_s", Band::of(&self.setup.analyze));
        let sinks: usize = self.images.iter().map(|i| i.sinks).sum();
        out.push("analysis.sinks", Band::of(&[sinks as f64]));
        out.push("machine.load_s", over(machine_passes, &|p| p.load_s));
        out.push(
            "machine.native_ns_per_inst",
            Band::of(
                &machine
                    .iter()
                    .map(|&(s, n)| s * 1e9 / n as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.push(
            "machine.block_inst_frac",
            over(machine_passes, &|p| {
                ratio(p.block_insts as f64, p.icount as f64)
            }),
        );
        out.push(
            "machine.blocks_built",
            over(machine_passes, &|p| p.blocks_built as f64),
        );
        out.push(
            "machine.blocks_invalidated",
            over(machine_passes, &|p| p.blocks_invalidated as f64),
        );
        out.push("core.frame_s", over(&traced, &|p| stage(p, "frame")));
        out.push("core.decode_s", over(&traced, &|p| stage(p, "decode")));
        out.push("core.bind_s", over(&traced, &|p| stage(p, "bind")));
        out.push("core.commit_s", over(&traced, &|p| stage(p, "commit")));
        out.push(
            "core.frame_residual_s",
            over(&traced, &|p| {
                stage(p, "frame")
                    - stage(p, "decode")
                    - stage(p, "bind")
                    - stage(p, "emulate")
                    - stage(p, "commit")
            }),
        );
        out.push("core.trap_ns_p50", over(&traced, &|p| trap_ns(p, 0.50)));
        out.push("core.trap_ns_p99", over(&traced, &|p| trap_ns(p, 0.99)));
        out.push(
            "core.decode_hit_rate",
            over(&traced, &|p| p.stats.decode_hit_rate()),
        );
        out.push("core.fp_traps", over(&traced, &|p| p.stats.fp_traps as f64));
        out.push(
            "core.correctness_traps",
            over(&traced, &|p| p.stats.correctness_traps as f64),
        );
        out.push(
            "core.correctness_demote_frac",
            over(&traced, &|p| {
                ratio(
                    p.stats.correctness_demotions as f64,
                    p.stats.correctness_traps as f64,
                )
            }),
        );
        let calls = |p: &Pass| (p.stats.patch_fast + p.stats.patch_slow) as f64;
        out.push("core.patch_calls", over(&traced, &calls));
        out.push(
            "core.patch_fast_frac",
            over(&traced, &|p| ratio(p.stats.patch_fast as f64, calls(p))),
        );
        out.push(
            "core.outside_frames_s",
            over(&traced, &|p| {
                p.run_s - stage(p, "frame") - stage(p, "ext_call") - p.stats.gc_ns as f64 / 1e9
            }),
        );
        out.push(
            "arith.emulate_ns_per_lane",
            over(&traced, &|p| {
                ratio(p.stats.emulate_ns as f64, p.stats.emulated_lanes as f64)
            }),
        );
        out.push("core.emulate_s", over(&traced, &|p| stage(p, "emulate")));
        out.push("core.ext_call_s", over(&traced, &|p| stage(p, "ext_call")));
        out.push(
            "core.gc_passes",
            over(&traced, &|p| p.stats.gc_passes as f64),
        );
        out.push(
            "core.boxes_created",
            over(&traced, &|p| p.stats.boxes_created as f64),
        );
        out.push(
            "obs.trace_overhead",
            Band::of(&[traced_p50 / plain_band.median - 1.0]),
        );
        let (p, tail_s) = tail_or_max(&plain_walls);
        out.push("bench.pass_s_tail", Band::of(&[tail_s]));
        out.detail(format!("p{p} n={}", plain_walls.len()));
        out.push(
            "bench.pass_s_iqr",
            Band::of(&[plain_band.q3 - plain_band.q1]),
        );
        let gc = over(&traced, &|p| p.stats.gc_ns as f64 / 1e9).median;
        notes.push(format!("core.gc_s {gc} s"));
        self.self_time_notes(notes);
        self.write_trace()?;
        Ok(out.finish())
    }

    /// The fleet's own metrics: job latency, the fleet's overhead per job
    /// over a direct run of the same guest, and the speed-up from more
    /// workers.
    fn fleet_notes(&mut self, jobs: &[FleetJob], plain: &[Pass], notes: &mut Vec<String>) {
        let job_s: Vec<f64> = plain.iter().flat_map(|p| p.job_s.iter().copied()).collect();
        notes.push(format!(
            "fleet.job_s_p50 {} s n={}",
            percentile(&job_s, 50.0),
            job_s.len()
        ));
        notes.push(format!(
            "fleet.job_s_p90 {} s n={}",
            percentile(&job_s, 90.0),
            job_s.len()
        ));
        // Direct runs do the same work as a fleet job (build, compile,
        // analyse, load, run) with the engine's default null sink.
        let cfg = self.w.config();
        let mut direct = vec![Vec::new(); self.images.len()];
        for _ in 0..FLEET_ROUNDS {
            for (i, d) in direct.iter_mut().enumerate() {
                let img = &self.images[i];
                let t = Instant::now();
                let c = compile(&img.guest.build(), CompileMode::Native);
                let patched = analyze_and_patch(&c.program);
                self.m.load_program(&patched.program);
                self.vm.recycle(cfg);
                self.vm.set_side_table(patched.side_table);
                let r = self.vm.run(&mut self.m);
                d.push(secs(t));
                let output = Some((self.m.output.as_slice(), self.w.arith == Arith::Vanilla));
                let failure = check(
                    img,
                    &mut self.expect[i],
                    &r.exit,
                    &r.stats,
                    r.icount,
                    output,
                );
                self.tally.record(failure);
            }
        }
        let overhead: Vec<f64> = direct
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let fleet: Vec<f64> = plain.iter().map(|p| p.job_s[i]).collect();
                Band::of(&fleet).median - Band::of(d).median
            })
            .collect();
        notes.push(format!(
            "fleet.per_job_overhead_s {} s jobs={}",
            Band::of(&overhead).median,
            overhead.len()
        ));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if nproc == 1 {
            notes.push("fleet.speedup_nproc not_measured x nproc=1".into());
            return;
        }
        let workers = nproc.min(4);
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for round in 0..FLEET_ROUNDS {
            let order = if round % 2 == 0 {
                [1, workers]
            } else {
                [workers, 1]
            };
            for n in order {
                let wall = self.fleet_pass(jobs, n).wall_s;
                if n == 1 {
                    one.push(wall)
                } else {
                    many.push(wall)
                }
            }
        }
        notes.push(format!(
            "fleet.speedup_nproc {} x workers={workers} nproc={nproc}",
            Band::of(&one).median / Band::of(&many).median
        ));
    }

    /// Total self time per span name: each span minus its children.
    fn self_time_notes(&self, notes: &mut Vec<String>) {
        let mut totals: Vec<(&str, u64)> = Vec::new();
        for (s, own) in self.tr.spans().iter().zip(self_ns(self.tr.spans())) {
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        for (name, ns) in totals {
            notes.push(format!("self.{name}_s {} s", ns as f64 / 1e9));
        }
    }

    fn write_trace(&self) -> Result<(), String> {
        let dir = Path::new(OUT_DIR);
        let path = dir.join(format!("trace-{}.jsonl", self.w.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| self.tr.write_jsonl(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Check one guest run: it halted, its output matches the mirror (exactly,
/// or within [`BIGFLOAT_REL_TOL`] for BigFloat `F64` events), and its
/// deterministic view and instruction count match its first run.
/// `output` is `None` for fleet jobs, whose output the fleet does not
/// return; their first run is the checked direct run.
fn check(
    img: &Image,
    expect: &mut Expect,
    exit: &ExitReason,
    stats: &Stats,
    icount: u64,
    output: Option<(&[OutputEvent], bool)>,
) -> Option<String> {
    let name = img.guest.name();
    if *exit != ExitReason::Halted {
        return Some(format!("{name}: exit {exit}"));
    }
    if let Some((got, exact)) = output {
        if !outputs_match(got, &img.reference, exact) {
            return Some(format!("{name}: output differs from the mirror"));
        }
    }
    let view = stats.deterministic_view();
    match expect {
        None => {
            *expect = Some((view, icount));
            None
        }
        Some((v, n)) if *v == view && *n == icount => None,
        Some(_) => Some(format!("{name}: deterministic view or icount drifted")),
    }
}

fn outputs_match(got: &[OutputEvent], want: &[OutputEvent], exact: bool) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| match (g, w) {
            _ if exact => g == w,
            (OutputEvent::F64(a), OutputEvent::F64(b)) => {
                let (a, b) = (f64::from_bits(*a), f64::from_bits(*b));
                a == b || (a - b).abs() <= BIGFLOAT_REL_TOL * b.abs()
            }
            (OutputEvent::I64(a), OutputEvent::I64(b)) => a == b,
            _ => false,
        })
}

/// The tail percentile and its value, or the maximum below eleven
/// samples.
fn tail_or_max(walls: &[f64]) -> (u32, f64) {
    tail(walls).unwrap_or((100, percentile(walls, 100.0)))
}

/// The process's peak resident set in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Metrics collected in table order; each name must come from the table.
struct Metrics {
    table: &'static [(&'static str, &'static str)],
    out: Vec<Metric>,
}

impl Metrics {
    fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            out: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, band: Band) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is in its table");
        self.out.push(Metric {
            name,
            unit,
            band,
            detail: String::new(),
        });
    }

    /// Set the detail of the last metric pushed.
    fn detail(&mut self, detail: String) {
        self.out.last_mut().expect("a metric was pushed").detail = detail;
    }

    fn finish(self) -> Vec<Metric> {
        let names: Vec<&str> = self.out.iter().map(|m| m.name).collect();
        let table: Vec<&str> = self.table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, table, "every metric of the table, once, in order");
        self.out
    }
}
