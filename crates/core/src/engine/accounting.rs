//! The accounting sink: every cycle the engine charges and every event it
//! counts flows through [`Accounting`].
//!
//! The pre-refactor runtime triple-wrote each charge
//! (`stats.cycles.X += c; m.charge(c)` at every site); here a charge is one
//! call naming its [`Component`], so the per-stage breakdown, the machine's
//! cycle counter, and the measured-time counters can never drift apart.

use crate::metrics::{EngineMetrics, MetricStage};
use crate::stats::{Component, GcRecord, Stats};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use fpvm_machine::Machine;
use std::fmt;
use std::time::Instant;

/// An event counter in [`Stats`], named so handlers can tally through the
/// sink instead of reaching into the struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Hardware FP exceptions delivered to FPVM.
    FpTraps,
    /// Decode-cache hits.
    DecodeHits,
    /// Decode-cache misses (full decodes).
    DecodeMisses,
    /// Instructions emulated.
    Emulated,
    /// Scalar lanes emulated.
    EmulatedLanes,
    /// Unboxed f64 → alternative-system promotions.
    Promotions,
    /// Shadow values allocated (boxes created).
    BoxesCreated,
    /// Shadow → f64 demotions.
    Demotions,
    /// Correctness traps taken.
    CorrectnessTraps,
    /// §6.2 hardware NaN-hole traps taken.
    NanHoleTraps,
    /// Correctness traps that demoted a boxed operand.
    CorrectnessDemotions,
    /// Math-library calls interposed.
    MathInterposed,
    /// Output-wrapper invocations.
    OutputWrapped,
    /// Patch-site fast-path executions.
    PatchFast,
    /// Patch-site slow-path executions.
    PatchSlow,
    /// Sites dynamically patched.
    SitesPatched,
}

/// The unified per-stage accounting sink. Owns the run's [`Stats`] (the
/// engine's stages and handlers hold no counters of their own) and the
/// run's [`TraceSink`], so telemetry hangs off the same choke point that
/// charges cycles.
pub struct Accounting {
    stats: Stats,
    sink: Box<dyn TraceSink>,
    tracing: bool,
    metrics: Option<Box<EngineMetrics>>,
    msample: bool,
}

impl Default for Accounting {
    fn default() -> Self {
        Accounting {
            stats: Stats::default(),
            sink: Box::new(NullSink),
            tracing: false,
            metrics: None,
            msample: false,
        }
    }
}

impl fmt::Debug for Accounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accounting")
            .field("stats", &self.stats)
            .field("sink", &self.sink.name())
            .field("tracing", &self.tracing)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Accounting {
    /// A fresh sink with zeroed statistics and tracing disabled.
    pub fn new() -> Self {
        Accounting::default()
    }

    /// Install a trace sink; its [`TraceSink::enabled`] answer is cached
    /// here so disabled tracing costs one branch per emit site.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracing = sink.enabled();
        self.sink = sink;
    }

    /// Remove the installed sink (handing it back for inspection) and
    /// revert to the disabled [`NullSink`].
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        self.tracing = false;
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Is a live trace sink installed?
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Emit a trace event. The closure defers event construction so the
    /// disabled path does no argument formatting or allocation.
    #[inline]
    pub fn emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if self.tracing {
            let e = ev();
            self.sink.emit(&e);
        }
    }

    /// Attach the wall-clock metrics plane. Until the next
    /// [`Accounting::trap_metrics_begin`] / `ext_metrics_begin` tick, no
    /// stage is sampled.
    pub fn set_metrics(&mut self, m: EngineMetrics) {
        self.metrics = Some(Box::new(m));
        self.msample = false;
    }

    /// Detach and return the metrics plane, if one was attached.
    pub fn take_metrics(&mut self) -> Option<Box<EngineMetrics>> {
        self.msample = false;
        self.metrics.take()
    }

    /// Read-only view of the metrics plane.
    pub fn metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_deref()
    }

    /// Trap-entry tick of the metrics plane: advance the trap sequence,
    /// decide (purely from that sequence) whether this trap's stages are
    /// sampled, and if so start the whole-frame timer. With the plane
    /// detached this is the one cached branch the disabled path pays.
    #[inline]
    pub fn trap_metrics_begin(&mut self) -> Option<Instant> {
        match &mut self.metrics {
            None => None,
            Some(m) => {
                self.msample = m.trap_tick();
                self.msample.then(Instant::now)
            }
        }
    }

    /// Ext-call tick of the metrics plane (independent sequence — ext-call
    /// interposition bypasses `on_fp_trap`).
    #[inline]
    pub fn ext_metrics_begin(&mut self) -> Option<Instant> {
        match &mut self.metrics {
            None => None,
            Some(m) => {
                self.msample = m.ext_tick();
                self.msample.then(Instant::now)
            }
        }
    }

    /// Start a stage timer if the current trap is sampled.
    #[inline]
    pub fn stage_timer(&self) -> Option<Instant> {
        self.msample.then(Instant::now)
    }

    /// Record a stage latency begun at `t0` (no-op when `t0` is `None`,
    /// i.e. the trap was not sampled or the plane is detached).
    #[inline]
    pub fn stage_record(&mut self, stage: MetricStage, t0: Option<Instant>) {
        if let (Some(t0), Some(m)) = (t0, &mut self.metrics) {
            m.record(stage, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Read-only view of the accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Zero the accumulated statistics (engine recycle): the next run
    /// starts from the same state a fresh sink would.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
    }

    /// Snapshot the statistics (for [`crate::engine::RunReport`]).
    pub fn snapshot(&self) -> Stats {
        self.stats.clone()
    }

    /// Increment an event counter.
    pub fn tally(&mut self, c: Counter) {
        let slot = match c {
            Counter::FpTraps => &mut self.stats.fp_traps,
            Counter::DecodeHits => &mut self.stats.decode_hits,
            Counter::DecodeMisses => &mut self.stats.decode_misses,
            Counter::Emulated => &mut self.stats.emulated,
            Counter::EmulatedLanes => &mut self.stats.emulated_lanes,
            Counter::Promotions => &mut self.stats.promotions,
            Counter::BoxesCreated => &mut self.stats.boxes_created,
            Counter::Demotions => &mut self.stats.demotions,
            Counter::CorrectnessTraps => &mut self.stats.correctness_traps,
            Counter::NanHoleTraps => &mut self.stats.nan_hole_traps,
            Counter::CorrectnessDemotions => &mut self.stats.correctness_demotions,
            Counter::MathInterposed => &mut self.stats.math_interposed,
            Counter::OutputWrapped => &mut self.stats.output_wrapped,
            Counter::PatchFast => &mut self.stats.patch_fast,
            Counter::PatchSlow => &mut self.stats.patch_slow,
            Counter::SitesPatched => &mut self.stats.sites_patched,
        };
        *slot += 1;
    }

    /// Charge deterministic model cycles against one component: attributes
    /// them in the breakdown and charges the machine's cycle counter.
    pub fn charge(&mut self, m: &mut Machine, component: Component, cycles: u64) {
        self.stats.cycles.add(component, cycles);
        m.charge(cycles);
    }

    /// Charge one decode-stage lookup at `rip`: tally the hit or miss,
    /// charge its model price, and trace it.
    #[inline]
    pub(crate) fn charge_decode(&mut self, m: &mut Machine, rip: u64, hit: bool) {
        self.tally(if hit {
            Counter::DecodeHits
        } else {
            Counter::DecodeMisses
        });
        let cycles = m.cost.decode_cost(hit);
        self.charge(m, Component::Decode, cycles);
        self.emit(|| TraceEvent::Decode { rip, hit, cycles });
    }

    /// Charge the bind stage at `rip`: one model price whether the
    /// operands come from a memoized plan or a fresh bind.
    #[inline]
    pub(crate) fn charge_bind(&mut self, m: &mut Machine, rip: u64) {
        let cycles = m.cost.bind;
        self.charge(m, Component::Bind, cycles);
        self.emit(|| TraceEvent::Bind { rip, cycles });
    }

    /// Charge a *measured* stage: convert host nanoseconds at the profile
    /// clock, add `extra_cycles` of fixed dispatch cost, and attribute the
    /// sum. Measured nanoseconds are also recorded for the components that
    /// track them (emulation, GC). Returns the cycles charged.
    pub fn charge_measured(
        &mut self,
        m: &mut Machine,
        component: Component,
        ns: u64,
        extra_cycles: u64,
    ) -> u64 {
        match component {
            Component::Emulate => self.stats.emulate_ns += ns,
            Component::Gc => self.stats.gc_ns += ns,
            _ => {}
        }
        let cycles = m.cost.ns_to_cycles(ns) + extra_cycles;
        self.charge(m, component, cycles);
        cycles
    }

    /// Record a completed GC pass (pass count, measured time, Fig. 10
    /// record). Cycle attribution, when due, is a separate
    /// [`Accounting::charge`] against [`Component::Gc`].
    pub fn record_gc(&mut self, rec: GcRecord) {
        self.stats.gc_passes += 1;
        self.stats.gc_ns += rec.ns;
        self.stats.gc_records.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::CostModel;

    #[test]
    fn charge_updates_breakdown_and_machine_together() {
        let mut m = Machine::new(CostModel::r815());
        let mut acct = Accounting::new();
        acct.charge(&mut m, Component::Decode, 45);
        acct.charge(&mut m, Component::Decode, 45);
        acct.charge(&mut m, Component::Bind, 320);
        assert_eq!(acct.stats().cycles.decode, 90);
        assert_eq!(acct.stats().cycles.bind, 320);
        assert_eq!(m.cycles, 410);
        assert_eq!(acct.stats().cycles.total(), 410);
    }

    #[test]
    fn measured_charges_convert_and_track_ns() {
        let mut m = Machine::new(CostModel::r815());
        let mut acct = Accounting::new();
        let cyc = acct.charge_measured(&mut m, Component::Emulate, 1000, 700);
        assert_eq!(cyc, m.cost.ns_to_cycles(1000) + 700);
        assert_eq!(acct.stats().emulate_ns, 1000);
        assert_eq!(acct.stats().cycles.emulate, cyc);
        assert_eq!(m.cycles, cyc);
        // CorrectnessHandler is measured but has no ns counter.
        acct.charge_measured(&mut m, Component::CorrectnessHandler, 500, 0);
        assert_eq!(acct.stats().emulate_ns, 1000);
        assert_eq!(acct.stats().gc_ns, 0);
    }

    #[test]
    fn emit_is_skipped_when_disabled_and_delivered_when_enabled() {
        use crate::trace::{RingBufferSink, TraceEvent};
        let mut acct = Accounting::new();
        assert!(!acct.tracing(), "NullSink is the default");
        // Disabled: the closure must never run.
        acct.emit(|| unreachable!("disabled sink constructed an event"));
        acct.set_sink(Box::new(RingBufferSink::new(4)));
        assert!(acct.tracing());
        acct.emit(|| TraceEvent::Bind {
            rip: 0x40,
            cycles: 320,
        });
        // Teardown: take the owned sink back and downcast to inspect it.
        let back = acct.take_sink();
        assert_eq!(back.name(), "ring");
        assert!(!acct.tracing(), "take reverts to NullSink");
        let ring: Box<RingBufferSink> = back.downcast().unwrap();
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn metrics_plane_samples_only_when_attached_and_ticked() {
        let mut acct = Accounting::new();
        // Detached: every hook is inert.
        assert!(acct.trap_metrics_begin().is_none());
        assert!(acct.stage_timer().is_none());
        acct.stage_record(MetricStage::Decode, None);
        assert!(acct.metrics().is_none());
        // Attached with shift 1: alternating traps are sampled.
        acct.set_metrics(EngineMetrics::new(1));
        assert!(acct.stage_timer().is_none(), "no tick yet");
        let t0 = acct.trap_metrics_begin();
        assert!(t0.is_some(), "first trap is always sampled");
        let td = acct.stage_timer();
        acct.stage_record(MetricStage::Decode, td);
        acct.stage_record(MetricStage::Frame, t0);
        assert!(acct.trap_metrics_begin().is_none(), "second trap skipped");
        assert!(acct.stage_timer().is_none());
        let m = acct.take_metrics().expect("plane comes back");
        assert_eq!(m.stage_histogram(MetricStage::Decode).count(), 1);
        assert_eq!(m.stage_histogram(MetricStage::Frame).count(), 1);
        assert_eq!(m.stage_histogram(MetricStage::Bind).count(), 0);
        assert!(acct.take_metrics().is_none());
    }

    #[test]
    fn tally_hits_the_right_counter() {
        let mut acct = Accounting::new();
        acct.tally(Counter::FpTraps);
        acct.tally(Counter::FpTraps);
        acct.tally(Counter::PatchFast);
        assert_eq!(acct.stats().fp_traps, 2);
        assert_eq!(acct.stats().patch_fast, 1);
        assert_eq!(acct.stats().patch_slow, 0);
    }
}
