//! # fpvm-fleet — the deterministic sharded fleet runner
//!
//! The paper's evaluation runs one guest per FPVM process; this crate runs
//! a *fleet* of guests across OS threads, one fully-owned engine stack per
//! worker. It exists because the sink-ownership refactor made the whole
//! engine [`Send`]: a worker owns its [`Machine`], its [`Fpvm`] and its
//! shadow arena, so guests shard across [`std::thread::scope`] workers
//! with no shared mutable state at all — the only synchronization is the
//! atomic work-queue cursor.
//!
//! Jobs run with the engine's default null sink and record no trace. A
//! job that needs one is run again with a sink attached
//! ([`WorkerEngine::replay`]): guest runs are deterministic, so the replay
//! retraces the first run. The runner does this itself for the
//! post-mortem of a job that ends in [`ExitReason::RuntimeError`].
//!
//! ## Determinism contract
//!
//! The same job list produces **bit-identical merged results for any
//! worker count** (1, 2, 4, N…). Two properties make that true:
//!
//! 1. Each job is hermetic: it compiles, patches, and runs its own guest
//!    on its own engine, so no job observes another job's scheduling.
//! 2. Results are collected *by job index* and merged *in job order* at
//!    join, so the merged [`Stats`] never depend on which worker ran which
//!    job or in what order they finished.
//!
//! Host-measured wall-time fields are inherently nondeterministic, so the
//! contract is stated over [`Stats::deterministic_view`] of the merged
//! and per-job stats, and over the guest instruction counts. The pinned
//! test in `tests/determinism.rs` runs the same job set at 1, 2, and 4
//! workers and asserts exact equality of those views.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fpvm_analysis::analyze_and_patch;
use fpvm_arith::Vanilla;
use fpvm_core::trace::{RingBufferSink, TraceSink};
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, Stats};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Machine, Program};
use fpvm_obs::{MetricsRegistry, MetricsSnapshot};
use fpvm_workloads::{
    enzo_like, fbench, lorenz, miniaero, nas_cg, nas_ep, nas_is, nas_lu, nas_mg, three_body, Size,
    Workload,
};

/// Run every job through `f`, sharded across `workers` scoped threads.
///
/// Jobs are pulled from an atomic cursor (dynamic load balancing), but the
/// returned vector is indexed by job position — `result[i]` is `f(i,
/// &jobs[i])` regardless of which worker ran it — so any fold over the
/// results in order is independent of scheduling.
pub fn run_sharded<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_sharded_stateful(jobs, workers, || (), |(), i, job| f(i, job))
}

/// [`run_sharded`] with per-worker state: each worker thread builds one
/// `W` via `init` and threads it through every job it claims. This is how
/// fleet workers reuse an engine stack (arena slab, cache slot arrays,
/// scratch buffers) across jobs instead of reallocating per job.
///
/// The determinism contract is unchanged — `f` must make each job's
/// result independent of which worker ran it and of what ran on that
/// worker before (see [`WorkerEngine`] for how the engine upholds that).
pub fn run_sharded_stateful<J, R, W, I, F>(jobs: &[J], workers: usize, init: I, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &J) -> R + Sync,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut w = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let r = f(&mut w, i, job);
                    *slots[i].lock().expect(SLOT_POISONED) = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect(SLOT_POISONED)
                .expect("every job slot filled")
        })
        .collect()
}

/// Why a result slot's lock can be poisoned.
const SLOT_POISONED: &str = "a worker panicked while holding a result slot";

/// The named workloads a fleet job can run (the paper's Fig. 12 suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant names mirror `fpvm_workloads` modules
pub enum WorkloadId {
    Fbench,
    Lorenz,
    ThreeBody,
    MiniAero,
    NasIs,
    NasEp,
    NasCg,
    NasMg,
    NasLu,
    Enzo,
}

impl WorkloadId {
    /// Every workload, in the paper's Fig. 12 order.
    pub const ALL: [WorkloadId; 10] = [
        WorkloadId::Fbench,
        WorkloadId::Lorenz,
        WorkloadId::ThreeBody,
        WorkloadId::MiniAero,
        WorkloadId::NasIs,
        WorkloadId::NasEp,
        WorkloadId::NasCg,
        WorkloadId::NasMg,
        WorkloadId::NasLu,
        WorkloadId::Enzo,
    ];

    /// Build the workload at the given size.
    pub fn build(self, size: Size) -> Workload {
        match self {
            WorkloadId::Fbench => fbench::workload(size),
            WorkloadId::Lorenz => lorenz::workload(size),
            WorkloadId::ThreeBody => three_body::workload(size),
            WorkloadId::MiniAero => miniaero::workload(size),
            WorkloadId::NasIs => nas_is::workload(size),
            WorkloadId::NasEp => nas_ep::workload(size),
            WorkloadId::NasCg => nas_cg::workload(size),
            WorkloadId::NasMg => nas_mg::workload(size),
            WorkloadId::NasLu => nas_lu::workload(size),
            WorkloadId::Enzo => enzo_like::workload(size),
        }
    }
}

/// What guest a fleet job runs.
#[derive(Debug, Clone)]
pub enum GuestSpec {
    /// A named workload from the paper suite, compiled + analyzed +
    /// patched inside the worker.
    Workload(WorkloadId, Size),
    /// A Lorenz ensemble member: the initial condition is perturbed
    /// deterministically from the seed (the input-farm use case — same
    /// binary, many inputs).
    LorenzSeeded {
        /// Problem size.
        size: Size,
        /// Ensemble seed (0 = the paper's unperturbed initial condition).
        seed: u64,
    },
    /// A pre-assembled program image, loaded as-is (no analysis pass).
    /// Lets tests inject faulting guests into a worker.
    Raw {
        /// Display name for the outcome.
        name: &'static str,
        /// The program image.
        program: Program,
    },
}

/// One unit of fleet work: a guest, an engine configuration, and the
/// post-mortem ring capacity.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// The guest to run.
    pub spec: GuestSpec,
    /// Engine configuration for this job.
    pub config: FpvmConfig,
    /// Capacity of the [`RingBufferSink`] that a job ending in
    /// [`ExitReason::RuntimeError`] is replayed with for its post-mortem
    /// ([`JobOutcome::ring_tail`]). Healthy jobs record nothing.
    pub ring_capacity: usize,
}

impl FleetJob {
    /// A job with the default engine configuration.
    pub fn new(spec: GuestSpec) -> FleetJob {
        FleetJob {
            spec,
            config: FpvmConfig::default(),
            ring_capacity: 32,
        }
    }
}

/// Everything one job produced, recovered from the worker by value.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job index in the submitted list.
    pub job: usize,
    /// Guest display name.
    pub name: String,
    /// How the guest exited.
    pub exit: ExitReason,
    /// The run's statistics.
    pub stats: Stats,
    /// Guest instructions retired.
    pub icount: u64,
    /// Guest FP instructions retired natively.
    pub fp_icount: u64,
    /// Host wall time of the run (nondeterministic; excluded from the
    /// determinism contract).
    pub wall_ns: u64,
    /// The post-mortem ring tail iff the run ended in a
    /// [`ExitReason::RuntimeError`]: the last [`FleetJob::ring_capacity`]
    /// events of a replay of the job (see [`WorkerEngine::run_job`]).
    pub ring_tail: Option<String>,
    /// The engine's metrics snapshot, iff the job's config had
    /// `FpvmConfig::metrics` on. Folded fleet-wide in job order by
    /// [`run_fleet_observed`].
    pub metrics: Option<MetricsSnapshot>,
}

/// The fleet-wide aggregate: per-job outcomes in job order plus the
/// order-independent merged views.
#[derive(Debug)]
pub struct FleetReport {
    /// Worker count the fleet ran with.
    pub workers: usize,
    /// Per-job outcomes, indexed by job position.
    pub outcomes: Vec<JobOutcome>,
    /// All job [`Stats`] merged in job order.
    pub merged: Stats,
    /// Total guest instructions retired across the fleet.
    pub icount: u64,
    /// Total guest FP instructions retired natively.
    pub fp_icount: u64,
    /// Wall time of the whole fleet run (nondeterministic).
    pub wall_ns: u64,
}

impl FleetReport {
    /// Guests completed per host second.
    pub fn guests_per_sec(&self) -> f64 {
        self.outcomes.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Host nanoseconds spent per guest instruction, fleet-wide.
    pub fn ns_per_guest_inst(&self) -> f64 {
        self.wall_ns as f64 / self.icount.max(1) as f64
    }

    /// Fold per-job outcomes into the report **in job order** — never in
    /// completion order — so the merged views are identical for every
    /// worker count. `wall_ns` runs from `start` to now.
    fn in_job_order(workers: usize, outcomes: Vec<JobOutcome>, start: Instant) -> FleetReport {
        let mut merged = Stats::default();
        let (mut icount, mut fp_icount) = (0u64, 0u64);
        for o in &outcomes {
            merged.merge(&o.stats);
            icount += o.icount;
            fp_icount += o.fp_icount;
        }
        FleetReport {
            workers,
            outcomes,
            merged,
            icount,
            fp_icount,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// A reusable per-worker engine stack: one [`Fpvm`] recycled across the
/// jobs a worker claims, plus one [`Machine`] reloaded per job, so the
/// expensive allocations (arena slab, site-table slots, guest memory,
/// predecode table, superblock slots) are paid once per worker instead of
/// once per job.
///
/// Jobs run with the engine's default null sink. [`WorkerEngine::replay`]
/// runs a job again with a sink attached, which is how the post-mortem
/// ring of a failed job, or any other trace of a job, is recorded.
///
/// Determinism: [`Fpvm::recycle`] resets every piece of run state — stat,
/// arena cell, patch site, side-table row — and every [`Fpvm::run`]
/// starts the engine's site table empty, so nothing survives from one job
/// into the next. `Machine::load_program` is hermetic: guest memory is
/// zeroed above the null guard, all registers and counters reset, and the
/// predecode and superblock caches are emptied. A job run on a recycled
/// engine + machine is bit-identical (on the deterministic views) to the
/// same job on a fresh stack, which is what keeps the merged fleet report
/// independent of worker count and job placement. Pinned by
/// `tests/determinism.rs`.
pub struct WorkerEngine {
    vm: Fpvm<Vanilla>,
    machine: Machine,
}

impl Default for WorkerEngine {
    fn default() -> Self {
        WorkerEngine::new()
    }
}

impl WorkerEngine {
    /// A fresh engine stack (default configuration; each job's config is
    /// applied by [`WorkerEngine::run_job`] and [`WorkerEngine::replay`]
    /// via recycle).
    pub fn new() -> WorkerEngine {
        WorkerEngine {
            vm: Fpvm::new(Vanilla, FpvmConfig::default()),
            machine: Machine::new(CostModel::r815()),
        }
    }

    /// Run one job to completion on the calling thread, recycling this
    /// worker's engine for it. A job that ends in
    /// [`ExitReason::RuntimeError`] is replayed once with a
    /// [`RingBufferSink`] of [`FleetJob::ring_capacity`] events, and the
    /// ring's tail becomes the outcome's `ring_tail`; every other field
    /// is the first run's.
    pub fn run_job(&mut self, index: usize, job: &FleetJob) -> JobOutcome {
        let mut outcome = self.execute(index, job);
        if let ExitReason::RuntimeError(_) = outcome.exit {
            let ring = Box::new(RingBufferSink::new(job.ring_capacity));
            let (_, ring) = self.replay(index, job, ring);
            let ring = ring
                .downcast::<RingBufferSink>()
                .expect("replay hands back the sink it was given");
            outcome.ring_tail = Some(ring.dump());
        }
        outcome
    }

    /// Run `job` again with `sink` attached, and hand the sink back with
    /// the outcome. The guest is rebuilt from `job.spec` and run on this
    /// worker's recycled engine and machine, so the replay retires the
    /// same instructions, reaches the same exit and emits the same events
    /// as any other run of the job; only host-measured fields (wall time,
    /// measured cycle components) differ. To stop early, set the job's
    /// `config.max_insts`: the run then ends in `Fault(Budget)` at exactly
    /// that instruction count. The returned outcome has no `ring_tail`.
    pub fn replay(
        &mut self,
        index: usize,
        job: &FleetJob,
        sink: Box<dyn TraceSink>,
    ) -> (JobOutcome, Box<dyn TraceSink>) {
        // `recycle` clears run state, not the installed sink.
        self.vm.set_trace_sink(sink);
        let outcome = self.execute(index, job);
        (outcome, self.vm.take_trace_sink())
    }

    /// Build the job's guest and run it with the installed sink.
    fn execute(&mut self, index: usize, job: &FleetJob) -> JobOutcome {
        let start = Instant::now();
        let (name, program, side_table) = match &job.spec {
            GuestSpec::Workload(id, size) => {
                let w = id.build(*size);
                let c = compile(&w.module, CompileMode::Native);
                let patched = analyze_and_patch(&c.program);
                (w.name.to_string(), patched.program, patched.side_table)
            }
            GuestSpec::LorenzSeeded { size, seed } => {
                let w = lorenz::workload_seeded(*size, *seed);
                let c = compile(&w.module, CompileMode::Native);
                let patched = analyze_and_patch(&c.program);
                (
                    format!("{} seed={seed}", w.name),
                    patched.program,
                    patched.side_table,
                )
            }
            GuestSpec::Raw { name, program } => (name.to_string(), program.clone(), Vec::new()),
        };
        // Reuse this worker's machine: load_program is hermetic, and a
        // previous job's taint plane must not leak into this one.
        let m = &mut self.machine;
        m.taint_disable();
        m.load_program(&program);
        let vm = &mut self.vm;
        vm.recycle(job.config);
        vm.set_side_table(side_table);
        let report = vm.run(m);
        JobOutcome {
            job: index,
            name,
            exit: report.exit,
            stats: report.stats,
            icount: report.icount,
            fp_icount: report.fp_icount,
            wall_ns: start.elapsed().as_nanos() as u64,
            ring_tail: None,
            metrics: vm.metrics_snapshot(),
        }
    }
}

/// Run one job to completion on the calling thread, building the whole
/// engine stack locally so nothing is shared with other workers.
pub fn run_job(index: usize, job: &FleetJob) -> JobOutcome {
    WorkerEngine::new().run_job(index, job)
}

/// Run a fleet of jobs across `workers` threads and merge at join.
pub fn run_fleet(jobs: &[FleetJob], workers: usize) -> FleetReport {
    let start = Instant::now();
    let outcomes = run_sharded_stateful(jobs, workers, WorkerEngine::new, |w, i, job| {
        w.run_job(i, job)
    });
    FleetReport::in_job_order(workers, outcomes, start)
}

/// Options for [`run_fleet_observed`]'s live sampler.
#[derive(Debug, Clone, Copy)]
pub struct ObsOptions {
    /// Milliseconds between heartbeat snapshots (the sampler polls the
    /// shared registry at this period; it checks for shutdown every 1 ms
    /// regardless).
    pub sample_interval_ms: u64,
    /// A job is flagged a straggler when its wall time exceeds
    /// `straggler_factor ×` the median job wall time.
    pub straggler_factor: u64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            sample_interval_ms: 5,
            straggler_factor: 4,
        }
    }
}

/// One heartbeat snapshot of the live fleet, taken by the sampler thread
/// from the shared [`MetricsRegistry`] while workers run. Inherently
/// nondeterministic (it is a wall-clock series) — excluded from the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSample {
    /// Nanoseconds since fleet start.
    pub t_ns: u64,
    /// Jobs completed so far.
    pub jobs_completed: u64,
    /// Jobs not yet claimed by a worker.
    pub queue_depth: u64,
    /// Workers currently running a guest.
    pub busy_workers: u64,
    /// Completed guests per host second, over the elapsed window.
    pub guests_per_sec: f64,
    /// True only on the final snapshot, taken after every worker joined
    /// (the registry is sealed and the values are exact).
    pub sealed: bool,
}

/// A fleet run with the observability plane attached: the base report plus
/// the live heartbeat series, the sealed registry snapshot, the job-order
/// fold of per-job engine metrics, and straggler flags.
#[derive(Debug)]
pub struct FleetObs {
    /// The base fleet report (outcomes + merged deterministic views).
    pub report: FleetReport,
    /// The shared registry at quiescence: `fleet_jobs_completed`,
    /// `fleet_queue_depth`, `fleet_busy_workers`, `fleet_job_wall_ns`.
    pub registry: MetricsSnapshot,
    /// Every job's engine [`MetricsSnapshot`] folded **in job order** —
    /// bit-identical across worker counts on its
    /// [`MetricsSnapshot::deterministic_view`], exactly like
    /// `Stats::merge`. `None` when no job ran with metrics on.
    pub merged_metrics: Option<MetricsSnapshot>,
    /// The heartbeat series, in sample order (last entry is sealed).
    pub samples: Vec<FleetSample>,
    /// Indices of jobs whose wall time exceeded the straggler threshold.
    pub stragglers: Vec<usize>,
    /// Wall time from fleet start to the *last job completing*, recorded
    /// by the completing worker itself — excludes sampler-thread teardown,
    /// so overhead measurements compare like against like.
    pub observed_wall_ns: u64,
}

/// [`run_fleet`] with the observability plane attached: per-worker
/// heartbeats into a shared [`MetricsRegistry`], a sampler thread
/// producing a [`FleetSample`] series, straggler detection against the
/// median job wall time, and the deterministic job-order fold of per-job
/// engine metrics.
pub fn run_fleet_observed(jobs: &[FleetJob], workers: usize, opts: ObsOptions) -> FleetObs {
    let start = Instant::now();
    let registry = MetricsRegistry::new();
    let jobs_completed = registry.counter("fleet_jobs_completed", true);
    let queue_depth = registry.gauge("fleet_queue_depth", false);
    let busy_workers = registry.gauge("fleet_busy_workers", false);
    let job_wall = registry.histogram("fleet_job_wall_ns", false);
    queue_depth.set(jobs.len() as u64);
    let completed = AtomicUsize::new(0);
    let end_ns = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let samples = Mutex::new(Vec::new());

    let outcomes = std::thread::scope(|scope| {
        // The sampler: polls the shared registry while workers run. It
        // never blocks a worker — reads are relaxed atomics.
        scope.spawn(|| {
            // One wakeup per heartbeat — on few-core hosts a finer poll
            // loop would steal measurable time from the workers. Stop
            // latency is at most one interval, which only delays the
            // sampler join, never the observed wall (stamped by the
            // last-finishing worker).
            let interval = Duration::from_millis(opts.sample_interval_ms.max(1));
            loop {
                let t_ns = start.elapsed().as_nanos() as u64;
                let done = jobs_completed.get();
                samples.lock().unwrap().push(FleetSample {
                    t_ns,
                    jobs_completed: done,
                    queue_depth: queue_depth.get(),
                    busy_workers: busy_workers.get(),
                    guests_per_sec: done as f64 / (t_ns.max(1) as f64 / 1e9),
                    sealed: false,
                });
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(interval);
            }
        });
        let outcomes = run_sharded_stateful(jobs, workers, WorkerEngine::new, |w, i, job| {
            queue_depth.sub(1);
            busy_workers.add(1);
            let r = w.run_job(i, job);
            job_wall.record(r.wall_ns);
            busy_workers.sub(1);
            jobs_completed.inc();
            // The worker that finishes the last job stamps the fleet's
            // observed end — the sampler's exit latency never inflates
            // the measured wall time.
            if completed.fetch_add(1, Ordering::Relaxed) + 1 == jobs.len() {
                end_ns.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            r
        });
        stop.store(true, Ordering::Release);
        outcomes
    });

    registry.seal();
    let observed_wall_ns = match end_ns.load(Ordering::Relaxed) {
        0 => start.elapsed().as_nanos() as u64, // empty job list
        ns => ns,
    };
    let mut samples = samples.into_inner().unwrap();
    // Timestamped after the sampler joined, so the series stays
    // time-ordered even if a heartbeat landed between the last job
    // completing and the stop flag being observed.
    samples.push(FleetSample {
        t_ns: start.elapsed().as_nanos() as u64,
        jobs_completed: jobs_completed.get(),
        queue_depth: queue_depth.get(),
        busy_workers: busy_workers.get(),
        guests_per_sec: jobs.len() as f64 / (observed_wall_ns.max(1) as f64 / 1e9),
        sealed: true,
    });

    let walls: Vec<u64> = outcomes.iter().map(|o| o.wall_ns).collect();
    let stragglers = stragglers(&walls, opts.straggler_factor);
    // Job order, like the `Stats` fold of the report.
    let mut merged_metrics: Option<MetricsSnapshot> = None;
    for m in outcomes.iter().filter_map(|o| o.metrics.as_ref()) {
        merged_metrics
            .get_or_insert_with(MetricsSnapshot::new)
            .merge(m);
    }
    FleetObs {
        report: FleetReport::in_job_order(workers, outcomes, start),
        registry: registry.snapshot(),
        merged_metrics,
        samples,
        stragglers,
        observed_wall_ns,
    }
}

/// Indices of the jobs whose wall time exceeds `factor ×` the exact
/// median of `walls` (the midpoint of the two middle values for an even
/// count). The median comes from the walls themselves, not from a
/// bucketed histogram whose upper bound a straggler can raise.
fn stragglers(walls: &[u64], factor: u64) -> Vec<usize> {
    let mut sorted = walls.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let median = match n {
        0 => return Vec::new(),
        _ if n % 2 == 1 => sorted[n / 2],
        _ => sorted[n / 2 - 1].midpoint(sorted[n / 2]),
    };
    let limit = median.saturating_mul(factor.max(1));
    walls
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > limit)
        .map(|(i, _)| i)
        .collect()
}

/// The standard smoke job set: every Fig. 12 workload at `Tiny` plus a
/// Lorenz ensemble, sized so a laptop-class host finishes in seconds while
/// still giving the scheduler enough jobs to balance.
pub fn smoke_jobs(ensemble: u64) -> Vec<FleetJob> {
    let mut jobs: Vec<FleetJob> = WorkloadId::ALL
        .iter()
        .map(|&id| FleetJob::new(GuestSpec::Workload(id, Size::Tiny)))
        .collect();
    for seed in 0..ensemble {
        jobs.push(FleetJob::new(GuestSpec::LorenzSeeded {
            size: Size::Tiny,
            seed,
        }));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_core::trace::NullSink;
    use fpvm_core::ProfilerSink;

    #[test]
    fn run_sharded_returns_results_in_job_order() {
        let jobs: Vec<u64> = (0..97).collect();
        for workers in [1, 3, 8] {
            let out = run_sharded(&jobs, workers, |i, &j| {
                assert_eq!(i as u64, j);
                j * j
            });
            assert_eq!(out.len(), jobs.len());
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, (i * i) as u64);
            }
        }
    }

    #[test]
    fn run_sharded_handles_empty_and_oversubscribed() {
        let empty: Vec<u64> = Vec::new();
        assert!(run_sharded(&empty, 4, |_, &j| j).is_empty());
        let one = [7u64];
        assert_eq!(run_sharded(&one, 64, |_, &j| j + 1), vec![8]);
    }

    #[test]
    fn single_job_fleet_matches_a_direct_run() {
        let job = FleetJob::new(GuestSpec::Workload(WorkloadId::Lorenz, Size::Tiny));
        let report = run_fleet(std::slice::from_ref(&job), 1);
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.exit, ExitReason::Halted);
        assert!(o.ring_tail.is_none(), "no error, no post-mortem");
        let direct = run_job(0, &job);
        assert_eq!(
            report.merged.deterministic_view(),
            direct.stats.deterministic_view()
        );
        assert_eq!(report.icount, direct.icount);
    }

    #[test]
    fn reused_worker_does_not_serve_stale_decodes_across_same_length_programs() {
        // The stale-reload bug: the decode cache used to keep all entries
        // whenever code_len was unchanged, so a worker that ran program A
        // and then a *different* program B of identical length served A's
        // cached decodes (and, now, bound plans) to B. Build two guests
        // whose code segments are byte-for-byte the same length but
        // compute different things, run both on ONE reused engine, and
        // check each against a fresh-engine run.
        use fpvm_machine::{Asm, ExtFn, Xmm};
        let build = |mul: bool| {
            let mut a = Asm::new();
            let c1 = a.f64m(3.0);
            let c2 = a.f64m(7.0);
            a.movsd(Xmm(0), c1);
            a.movsd(Xmm(1), c2);
            // divsd and mulsd encode to the same length; only the opcode
            // differs, so both programs have identical code_len.
            if mul {
                a.mulsd(Xmm(0), Xmm(1));
            } else {
                a.divsd(Xmm(0), Xmm(1));
            }
            a.call_ext(ExtFn::PrintF64);
            a.halt();
            a.finish()
        };
        let (pa, pb) = (build(false), build(true));
        assert_eq!(pa.code.len(), pb.code.len(), "programs must be same-length");
        let jobs = [
            FleetJob::new(GuestSpec::Raw {
                name: "div",
                program: pa,
            }),
            FleetJob::new(GuestSpec::Raw {
                name: "mul",
                program: pb,
            }),
        ];
        // One engine, both jobs, in order — the reuse scenario.
        let mut w = WorkerEngine::new();
        let reused: Vec<JobOutcome> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| w.run_job(i, j))
            .collect();
        // Fresh engine per job — the ground truth.
        let fresh: Vec<JobOutcome> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| run_job(i, j))
            .collect();
        for (r, f) in reused.iter().zip(&fresh) {
            assert_eq!(r.exit, ExitReason::Halted);
            assert_eq!(
                r.stats.deterministic_view(),
                f.stats.deterministic_view(),
                "job {} on a reused engine diverged from a fresh engine",
                r.name
            );
        }
    }

    #[test]
    fn lorenz_seeds_give_distinct_trajectories_same_sites() {
        // Replay each seed with a profiler attached to learn its sites.
        let profiled = |seed: u64| {
            let job = FleetJob::new(GuestSpec::LorenzSeeded {
                size: Size::Tiny,
                seed,
            });
            let (o, sink) = WorkerEngine::new().replay(0, &job, Box::new(ProfilerSink::new()));
            let profile = sink.downcast::<ProfilerSink>().unwrap();
            let mut sites: Vec<u64> = profile.sites().keys().copied().collect();
            sites.sort_unstable();
            (o, sites)
        };
        let (a, sa) = profiled(1);
        let (b, sb) = profiled(2);
        assert_eq!(a.exit, ExitReason::Halted);
        assert_eq!(b.exit, ExitReason::Halted);
        // Distinct trajectories: chaos separates the perturbed initial
        // conditions, so the runs do different amounts of rounding.
        assert_ne!(
            a.stats.deterministic_view(),
            b.stats.deterministic_view(),
            "perturbed seeds must diverge"
        );
        // …but the binary structure is identical, so both runs trap at
        // the same set of sites.
        assert!(!sa.is_empty(), "the replay profiles the trapping sites");
        assert_eq!(sa, sb);
    }

    #[test]
    fn replay_matches_the_run_and_stops_at_the_jobs_budget() {
        let mut job = FleetJob::new(GuestSpec::LorenzSeeded {
            size: Size::Tiny,
            seed: 3,
        });
        let mut w = WorkerEngine::new();
        let run = w.run_job(0, &job);
        let (full, _) = w.replay(0, &job, Box::new(RingBufferSink::new(4)));
        assert_eq!(full.exit, ExitReason::Halted);
        assert_eq!(full.icount, run.icount);
        assert_eq!(
            full.stats.deterministic_view(),
            run.stats.deterministic_view()
        );
        job.config.max_insts = run.icount / 2;
        let (cut, _) = w.replay(0, &job, Box::new(RingBufferSink::new(4)));
        assert_eq!(cut.exit, ExitReason::Fault(fpvm_machine::Fault::Budget));
        assert_eq!(cut.icount, run.icount / 2);
        // The replay's sink is gone again: the next job records nothing.
        assert!(w.vm.take_trace_sink().is::<NullSink>());
    }

    #[test]
    fn straggler_threshold_uses_the_exact_median() {
        // Nine 17 ms jobs and one 80 ms job. The log2 histogram's p50 of
        // these reads 33.5 ms, which put a 4× threshold at 134 ms and hid
        // the 4.7× job; the exact median is 17 ms.
        let mut walls = vec![17_000_000u64; 10];
        walls[6] = 80_000_000;
        assert_eq!(stragglers(&walls, 4), vec![6]);
        assert!(stragglers(&walls, 5).is_empty());
        assert!(stragglers(&[], 4).is_empty());
    }
}
