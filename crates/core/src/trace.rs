//! Trap-level tracing: the telemetry layer under the accounting sink.
//!
//! The paper's evaluation (§5, Figs. 9–12) is built on knowing where each
//! cycle of virtualization overhead goes — per trap, per site, per
//! component. Aggregate [`crate::stats::Stats`] answer "how much in
//! total"; this module answers "which RIPs trap hottest?" and "what does
//! the decode-latency distribution look like?" by emitting one typed
//! [`TraceEvent`] per pipeline step through a pluggable [`TraceSink`].
//!
//! Events are emitted from the same choke points that charge cycles (the
//! [`crate::engine::Accounting`] sink and the stage/handler code), so a
//! trace can never disagree with the accounting. The default sink is
//! [`NullSink`]; with it installed the engine skips event construction
//! entirely (the emit sites are guarded by a cached `enabled` bit) and the
//! deterministic Fig. 9 accounting is bit-identical to an untraced run.
//!
//! Shipped sinks:
//! * [`RingBufferSink`] — bounded last-N recorder for post-mortem on a
//!   [`crate::engine::RuntimeError`];
//! * [`crate::profile::ProfilerSink`] — per-RIP hot-site table, per-
//!   component latency histograms, arena-occupancy time series;
//! * `fpvm-bench`'s `JsonlTraceSink` — streaming JSONL writer (lives in
//!   the bench crate, which owns the `ToJson` encoder).
//! * [`FanoutSink`] — broadcast to several sinks at once.
//!
//! Sinks are **owned**, never shared: the engine's accounting choke point
//! holds the one live handle, and post-run inspection takes the sink back
//! out (`Fpvm::take_trace_sink` → [`dyn TraceSink::downcast`]) instead of
//! aliasing it through `Rc<RefCell<_>>`. That ownership discipline is what
//! makes every sink — and therefore the whole engine — [`Send`], so a
//! fleet worker can own its machine + engine + sinks on its own thread
//! (`fpvm-fleet`, which attaches a sink only when it replays a job).

use crate::engine::exit::Stage;
use fpvm_machine::ExtFn;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// How the external-call interposer handled a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtDisposition {
    /// A libm call routed into the arithmetic system (math wrapper).
    Math,
    /// An output call demoted for rendering (output wrapper).
    Output,
    /// Forwarded natively after demoting FP argument registers.
    Native,
}

impl ExtDisposition {
    /// Short label used in traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            ExtDisposition::Math => "math",
            ExtDisposition::Output => "output",
            ExtDisposition::Native => "native",
        }
    }
}

/// One step of the trap lifecycle, as charged by the accounting sink.
///
/// Every variant that costs cycles carries the exact cycle count the
/// engine charged, so a sink can rebuild the Fig. 9 breakdown (or any
/// finer-grained view) without touching [`crate::stats::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A hardware FP exception was delivered (trap lifecycle begins).
    TrapBegin {
        /// Faulting guest instruction pointer.
        rip: u64,
        /// Guest instructions retired at delivery.
        icount: u64,
        /// Microarchitectural raise + return cycles charged.
        hardware: u64,
        /// Kernel dispatch cycles charged.
        kernel: u64,
        /// Kernel→user delivery cycles charged.
        user: u64,
    },
    /// The decode stage ran (from an FP trap or a NaN-hole fault).
    Decode {
        /// Site being decoded.
        rip: u64,
        /// Whether the decode cache hit.
        hit: bool,
        /// Decode cycles charged.
        cycles: u64,
    },
    /// The bind stage resolved the faulting instruction's operands.
    Bind {
        /// Faulting site.
        rip: u64,
        /// Bind cycles charged.
        cycles: u64,
    },
    /// The emulate stage evaluated the instruction's lanes.
    Emulate {
        /// Faulting site.
        rip: u64,
        /// Scalar lanes evaluated.
        lanes: u32,
        /// Emulation cycles charged (measured ns + dispatch).
        cycles: u64,
    },
    /// All lanes retired; the trap lifecycle ends and the guest resumes.
    Commit {
        /// The site that trapped.
        rip: u64,
        /// The resume point.
        next_rip: u64,
    },
    /// A §4.2 correctness trap ran (demote + single-step re-execute).
    CorrectnessTrap {
        /// Patched site.
        rip: u64,
        /// Side-table id.
        site: u16,
        /// Whether a boxed operand was actually demoted.
        demoted: bool,
        /// Dispatch cycles charged.
        dispatch_cycles: u64,
        /// Handler cycles charged (measured + check).
        handler_cycles: u64,
    },
    /// A §6.2 hardware NaN-hole fault ran the demote + re-execute path.
    NanHoleTrap {
        /// Faulting site.
        rip: u64,
        /// Whether a boxed operand was actually demoted.
        demoted: bool,
        /// Dispatch cycles charged.
        dispatch_cycles: u64,
        /// Handler cycles charged.
        handler_cycles: u64,
    },
    /// An external call was interposed (or forwarded).
    ExtCall {
        /// Call-site rip.
        rip: u64,
        /// The callee.
        f: ExtFn,
        /// How the interposer handled it.
        disposition: ExtDisposition,
        /// Cycles charged (math-wrapper emulation; 0 for the others).
        cycles: u64,
    },
    /// The trap-and-patch engine rewrote a site into a patch call.
    PatchInstalled {
        /// The patched site.
        rip: u64,
        /// Its patch-site id.
        site: u16,
    },
    /// A `Trap { PatchCall }` site executed.
    PatchCall {
        /// The patched site.
        rip: u64,
        /// Its patch-site id.
        site: u16,
        /// Whether the inline pre/postcondition checks held (fast path).
        fast: bool,
        /// Patch dispatch + check cycles charged.
        cycles: u64,
    },
    /// A garbage collection pass completed.
    GcPass {
        /// Guest instructions retired at the pass.
        icount: u64,
        /// Live shadow values before the pass.
        before: u64,
        /// Cells freed.
        freed: u64,
        /// Live cells after.
        alive: u64,
        /// GC cycles charged (converted from measured ns).
        cycles: u64,
    },
    /// The run is ending with a structured runtime error.
    RuntimeError {
        /// The pipeline stage that failed.
        stage: Stage,
        /// The faulting rip.
        rip: u64,
        /// The side-table / patch-site id, when the trap carried one.
        site: Option<u16>,
    },
}

impl TraceEvent {
    /// Short kind tag (stable; used as the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TrapBegin { .. } => "trap_begin",
            TraceEvent::Decode { .. } => "decode",
            TraceEvent::Bind { .. } => "bind",
            TraceEvent::Emulate { .. } => "emulate",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::CorrectnessTrap { .. } => "correctness_trap",
            TraceEvent::NanHoleTrap { .. } => "nan_hole_trap",
            TraceEvent::ExtCall { .. } => "ext_call",
            TraceEvent::PatchInstalled { .. } => "patch_installed",
            TraceEvent::PatchCall { .. } => "patch_call",
            TraceEvent::GcPass { .. } => "gc_pass",
            TraceEvent::RuntimeError { .. } => "runtime_error",
        }
    }

    /// The guest rip the event is anchored to, when it has one.
    pub fn rip(&self) -> Option<u64> {
        match *self {
            TraceEvent::TrapBegin { rip, .. }
            | TraceEvent::Decode { rip, .. }
            | TraceEvent::Bind { rip, .. }
            | TraceEvent::Emulate { rip, .. }
            | TraceEvent::Commit { rip, .. }
            | TraceEvent::CorrectnessTrap { rip, .. }
            | TraceEvent::NanHoleTrap { rip, .. }
            | TraceEvent::ExtCall { rip, .. }
            | TraceEvent::PatchInstalled { rip, .. }
            | TraceEvent::PatchCall { rip, .. }
            | TraceEvent::RuntimeError { rip, .. } => Some(rip),
            TraceEvent::GcPass { .. } => None,
        }
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// Installed on the runtime through
/// [`crate::engine::Fpvm::set_trace_sink`]; the engine consults
/// [`TraceSink::enabled`] once at install time and skips event
/// construction entirely when it returns `false`.
///
/// The `Send + Any` supertraits are the ownership contract: a sink is
/// owned by exactly one engine (which may live on any thread), and after
/// the run the caller takes it back with
/// [`crate::engine::Fpvm::take_trace_sink`] and recovers the concrete
/// type via [`dyn TraceSink::downcast`].
pub trait TraceSink: Send + Any {
    /// Whether this sink wants events at all. Cached by the engine at
    /// install time — the disabled path costs a single branch per site.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn emit(&mut self, ev: &TraceEvent);

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "sink"
    }
}

impl dyn TraceSink {
    /// Is the concrete sink behind this handle an `S`?
    pub fn is<S: TraceSink>(&self) -> bool {
        let any: &dyn Any = self;
        any.is::<S>()
    }

    /// Borrow the concrete sink, if it is an `S`.
    pub fn downcast_ref<S: TraceSink>(&self) -> Option<&S> {
        let any: &dyn Any = self;
        any.downcast_ref::<S>()
    }

    /// Mutably borrow the concrete sink, if it is an `S`.
    pub fn downcast_mut<S: TraceSink>(&mut self) -> Option<&mut S> {
        let any: &mut dyn Any = self;
        any.downcast_mut::<S>()
    }

    /// Recover the owned concrete sink — the teardown half of the owned-
    /// sink protocol. On type mismatch the boxed sink is handed back
    /// unchanged.
    ///
    /// ```
    /// use fpvm_core::trace::{RingBufferSink, TraceSink};
    /// let boxed: Box<dyn TraceSink> = Box::new(RingBufferSink::new(8));
    /// let ring: Box<RingBufferSink> = boxed.downcast().unwrap();
    /// assert_eq!(ring.len(), 0);
    /// ```
    pub fn downcast<S: TraceSink>(self: Box<Self>) -> Result<Box<S>, Box<dyn TraceSink>> {
        if self.is::<S>() {
            let any: Box<dyn Any> = self;
            Ok(any.downcast::<S>().expect("type checked above"))
        } else {
            Err(self)
        }
    }
}

/// Identify a sink by [`TraceSink::name`]; lets `downcast(..).unwrap()`
/// report which sink was actually installed on a mismatch.
impl fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceSink({})", self.name())
    }
}

/// The default sink: drops everything, reports itself disabled, and keeps
/// the instrumented engine's behavior bit-identical to an uninstrumented
/// one.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _ev: &TraceEvent) {}

    fn name(&self) -> &'static str {
        "null"
    }
}

/// A bounded last-N event recorder for post-mortem inspection: when a run
/// ends in a [`crate::engine::RuntimeError`], the tail of the trace shows
/// what the pipeline was doing right before it gave up.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    total: u64,
}

impl RingBufferSink {
    /// A recorder keeping the last `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.max(1)),
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted into the ring.
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Events that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Render the retained tail, one event per line (post-mortem dump).
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for (i, ev) in self.buf.iter().enumerate() {
            s.push_str(&format!(
                "[-{:>3}] {:<16} {ev:?}\n",
                self.buf.len() - i,
                ev.kind()
            ));
        }
        s
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
        self.total += 1;
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

/// Broadcast each event to several sinks (e.g. a JSONL stream *and* a
/// profiler in the same run).
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl FanoutSink {
    /// A fanout over the given sinks.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }

    /// Borrow the fanned-out sinks, in installation order.
    pub fn sinks(&self) -> &[Box<dyn TraceSink>] {
        &self.sinks
    }

    /// Teardown: hand back the owned sinks, in installation order, so each
    /// can be [`dyn TraceSink::downcast`] to its concrete type after a run.
    pub fn into_sinks(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }
}

impl TraceSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&mut self, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.emit(ev);
        }
    }

    fn name(&self) -> &'static str {
        "fanout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rip: u64) -> TraceEvent {
        TraceEvent::Decode {
            rip,
            hit: true,
            cycles: 45,
        }
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let mut r = RingBufferSink::new(3);
        for i in 0..5 {
            r.emit(&ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_emitted(), 5);
        assert_eq!(r.dropped(), 2);
        let rips: Vec<u64> = r.events().filter_map(|e| e.rip()).collect();
        assert_eq!(rips, vec![2, 3, 4]);
        assert!(r.dump().contains("decode"));
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        let mut n = NullSink;
        n.emit(&ev(0)); // no-op
    }

    #[test]
    fn fanout_broadcasts_and_teardown_recovers_owned_sinks() {
        let mut fan = FanoutSink::new(vec![Box::new(NullSink), Box::new(RingBufferSink::new(8))]);
        assert!(fan.enabled(), "one live sink is enough");
        fan.emit(&ev(7));
        // Teardown: take the owned sinks back out and downcast each.
        let mut sinks = fan.into_sinks().into_iter();
        let null = sinks.next().unwrap();
        assert!(null.is::<NullSink>());
        let ring: Box<RingBufferSink> = sinks.next().unwrap().downcast().unwrap();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events().next().unwrap().rip(), Some(7));
    }

    #[test]
    fn downcast_mismatch_hands_the_sink_back() {
        let boxed: Box<dyn TraceSink> = Box::new(RingBufferSink::new(4));
        let back = boxed.downcast::<NullSink>().unwrap_err();
        assert_eq!(back.name(), "ring", "mismatch returns the sink intact");
        assert!(back.downcast::<RingBufferSink>().is_ok());
    }

    #[test]
    fn downcast_ref_and_mut_reach_through_the_trait_object() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingBufferSink::new(4));
        boxed.emit(&ev(1));
        assert!(boxed.downcast_ref::<NullSink>().is_none());
        assert_eq!(boxed.downcast_ref::<RingBufferSink>().unwrap().len(), 1);
        boxed.downcast_mut::<RingBufferSink>().unwrap().emit(&ev(2));
        assert_eq!(boxed.downcast_ref::<RingBufferSink>().unwrap().len(), 2);
    }

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(ev(0).kind(), "decode");
        let e = TraceEvent::RuntimeError {
            stage: Stage::Patch,
            rip: 0x1000,
            site: Some(3),
        };
        assert_eq!(e.kind(), "runtime_error");
        assert_eq!(e.rip(), Some(0x1000));
        let g = TraceEvent::GcPass {
            icount: 1,
            before: 2,
            freed: 1,
            alive: 1,
            cycles: 10,
        };
        assert_eq!(g.rip(), None);
    }
}
