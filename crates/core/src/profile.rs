//! The aggregating profiler sink: per-RIP hot-site attribution,
//! per-component latency histograms, and the arena-occupancy time series.
//!
//! This is the tool trap-and-patch site selection (§3.2) needs: the
//! heuristic engine patches every eligible site on first trap, but a
//! profiled run ranks sites by where the cycles actually went, so patch
//! budget can be spent on the RIPs that dominate. The `pguided`
//! experiment in `fpvm-bench` feeds [`ProfilerSink::hot_sites`] back into
//! [`crate::engine::Fpvm::restrict_patching`] and compares the two.

use crate::stats::{Component, CycleBreakdown};
use crate::trace::{TraceEvent, TraceSink};
use std::collections::HashMap;

// The histogram lives in fpvm-obs now (the fleet registry shares its
// bucketing); re-exported here so `fpvm_core::Log2Histogram` keeps working.
pub use fpvm_obs::{Log2Histogram, HIST_BUCKETS};

/// Everything the profiler learned about one guest site (RIP).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteProfile {
    /// Hardware FP traps delivered at this site.
    pub traps: u64,
    /// Correctness traps taken at this site.
    pub correctness_traps: u64,
    /// Patch-call fast-path executions at this site.
    pub patch_fast: u64,
    /// Patch-call slow-path executions at this site.
    pub patch_slow: u64,
    /// External calls interposed at this site.
    pub ext_calls: u64,
    /// Cycles charged at this site, by component.
    pub cycles: CycleBreakdown,
    /// Whether the trap-and-patch engine patched this site.
    pub patched: bool,
}

impl SiteProfile {
    /// Total cycles attributed to this site.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.total()
    }

    /// The component that dominates this site's cost.
    pub fn dominant(&self) -> Component {
        Component::ALL
            .into_iter()
            .max_by_key(|&c| self.cycles.get(c))
            .unwrap_or(Component::Emulate)
    }
}

/// One arena-occupancy sample, taken at each GC pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSample {
    /// Guest instructions retired at the sample.
    pub icount: u64,
    /// Live shadow values immediately before the pass.
    pub before: u64,
    /// Live shadow values immediately after.
    pub alive: u64,
}

/// The aggregating profiler: a [`TraceSink`] that builds the per-RIP
/// hot-site table, log₂ latency histograms per [`Component`], and the
/// arena-occupancy time series.
#[derive(Debug, Default, Clone)]
pub struct ProfilerSink {
    sites: HashMap<u64, SiteProfile>,
    hists: [Log2Histogram; Component::ALL.len()],
    arena: Vec<ArenaSample>,
    events: u64,
}

impl ProfilerSink {
    /// A fresh profiler.
    pub fn new() -> Self {
        ProfilerSink::default()
    }

    /// Total events consumed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The full per-site table.
    pub fn sites(&self) -> &HashMap<u64, SiteProfile> {
        &self.sites
    }

    /// One site's profile, if it ever trapped.
    pub fn site(&self, rip: u64) -> Option<&SiteProfile> {
        self.sites.get(&rip)
    }

    /// The latency histogram for one component.
    pub fn histogram(&self, c: Component) -> &Log2Histogram {
        &self.hists[c.index()]
    }

    /// The arena-occupancy time series (one sample per GC pass).
    pub fn arena_series(&self) -> &[ArenaSample] {
        &self.arena
    }

    /// The `n` hottest sites by total attributed cycles, hottest first
    /// (ties broken by RIP for determinism).
    pub fn hot_sites(&self, n: usize) -> Vec<(u64, SiteProfile)> {
        let mut v: Vec<(u64, SiteProfile)> =
            self.sites.iter().map(|(&r, p)| (r, p.clone())).collect();
        v.sort_by(|a, b| {
            b.1.total_cycles()
                .cmp(&a.1.total_cycles())
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// Render the top-`n` hot-site table as text.
    pub fn report(&self, n: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<12} {:>9} {:>14} {:>9} {:>8} {:>20}\n",
            "rip", "traps", "cycles", "cyc/trap", "patched", "dominant"
        ));
        for (rip, p) in self.hot_sites(n) {
            let visits = (p.traps + p.correctness_traps + p.patch_fast + p.patch_slow).max(1);
            s.push_str(&format!(
                "{:#12x} {:>9} {:>14} {:>9} {:>8} {:>20}\n",
                rip,
                p.traps,
                p.total_cycles(),
                p.total_cycles() / visits,
                if p.patched { "yes" } else { "-" },
                p.dominant().label()
            ));
        }
        // Per-component latency tail, derived from the log2 histograms.
        let mut wrote_header = false;
        for c in Component::ALL {
            let h = self.histogram(c);
            if h.count() == 0 {
                continue;
            }
            if !wrote_header {
                s.push_str(&format!(
                    "\n{:<20} {:>9} {:>10} {:>10} {:>10}\n",
                    "component latency", "samples", "p50", "p99", "max"
                ));
                wrote_header = true;
            }
            s.push_str(&format!(
                "{:<20} {:>9} {:>10} {:>10} {:>10}\n",
                c.label(),
                h.count(),
                h.p50(),
                h.p99(),
                h.max()
            ));
        }
        s
    }

    fn at(&mut self, rip: u64) -> &mut SiteProfile {
        self.sites.entry(rip).or_default()
    }

    fn charge(&mut self, rip: u64, c: Component, cycles: u64) {
        self.at(rip).cycles.add(c, cycles);
        self.hists[c.index()].record(cycles);
    }
}

impl TraceSink for ProfilerSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match *ev {
            TraceEvent::TrapBegin {
                rip,
                hardware,
                kernel,
                user,
                ..
            } => {
                self.at(rip).traps += 1;
                self.charge(rip, Component::Hardware, hardware);
                self.charge(rip, Component::Kernel, kernel);
                self.charge(rip, Component::UserDelivery, user);
            }
            TraceEvent::Decode { rip, cycles, .. } => {
                self.charge(rip, Component::Decode, cycles);
            }
            TraceEvent::Bind { rip, cycles } => {
                self.charge(rip, Component::Bind, cycles);
            }
            TraceEvent::Emulate { rip, cycles, .. } => {
                self.charge(rip, Component::Emulate, cycles);
            }
            TraceEvent::Commit { .. } => {}
            TraceEvent::CorrectnessTrap {
                rip,
                dispatch_cycles,
                handler_cycles,
                ..
            }
            | TraceEvent::NanHoleTrap {
                rip,
                dispatch_cycles,
                handler_cycles,
                ..
            } => {
                self.at(rip).correctness_traps += 1;
                self.charge(rip, Component::CorrectnessDispatch, dispatch_cycles);
                self.charge(rip, Component::CorrectnessHandler, handler_cycles);
            }
            TraceEvent::ExtCall { rip, cycles, .. } => {
                self.at(rip).ext_calls += 1;
                if cycles > 0 {
                    self.charge(rip, Component::Emulate, cycles);
                }
            }
            TraceEvent::PatchInstalled { rip, .. } => {
                self.at(rip).patched = true;
            }
            TraceEvent::PatchCall {
                rip, fast, cycles, ..
            } => {
                let p = self.at(rip);
                if fast {
                    p.patch_fast += 1;
                } else {
                    p.patch_slow += 1;
                }
                self.charge(rip, Component::Patch, cycles);
            }
            TraceEvent::GcPass {
                icount,
                before,
                alive,
                cycles,
                ..
            } => {
                self.hists[Component::Gc.index()].record(cycles);
                self.arena.push(ArenaSample {
                    icount,
                    before,
                    alive,
                });
            }
            TraceEvent::RuntimeError { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "profiler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_attributes_per_site_and_ranks() {
        let mut p = ProfilerSink::new();
        let hot = 0x1000u64;
        let cold = 0x2000u64;
        for _ in 0..10 {
            p.emit(&TraceEvent::TrapBegin {
                rip: hot,
                icount: 0,
                hardware: 100,
                kernel: 25,
                user: 500,
            });
            p.emit(&TraceEvent::Emulate {
                rip: hot,
                lanes: 1,
                cycles: 4000,
            });
        }
        p.emit(&TraceEvent::TrapBegin {
            rip: cold,
            icount: 0,
            hardware: 100,
            kernel: 25,
            user: 500,
        });
        p.emit(&TraceEvent::Decode {
            rip: cold,
            hit: false,
            cycles: 2000,
        });
        let top = p.hot_sites(2);
        assert_eq!(top[0].0, hot);
        assert_eq!(top[0].1.traps, 10);
        assert_eq!(top[0].1.total_cycles(), 10 * (100 + 25 + 500 + 4000));
        assert_eq!(top[0].1.dominant(), Component::Emulate);
        assert_eq!(top[1].0, cold);
        assert_eq!(p.histogram(Component::Emulate).count(), 10);
        assert_eq!(p.histogram(Component::Decode).count(), 1);
        assert!(p.report(2).contains("0x1000"));
    }

    /// The hot-site report's latency footer shows the p50/p99 derived from
    /// the per-component histograms, and only for components that sampled.
    #[test]
    fn report_shows_component_latency_tail() {
        let mut p = ProfilerSink::new();
        for cycles in [100, 200, 400, 800, 10_000] {
            p.emit(&TraceEvent::Emulate {
                rip: 0x1000,
                lanes: 1,
                cycles,
            });
        }
        let r = p.report(1);
        assert!(r.contains("component latency"));
        let h = p.histogram(Component::Emulate);
        let line = r
            .lines()
            .find(|l| l.starts_with("emulate"))
            .expect("emulate row in latency footer");
        for v in [h.count(), h.p50(), h.p99(), h.max()] {
            assert!(line.contains(&v.to_string()), "{line} missing {v}");
        }
        // p50 of [100,200,400,800,10000]: rank 3 → bucket of 400 → upper 511.
        assert_eq!(h.p50(), 511);
        assert_eq!(h.p99(), 10_000, "tail clamps to the observed max");
        assert!(
            !r.contains("\ndecode"),
            "components with zero samples stay out of the footer"
        );
        assert!(
            !ProfilerSink::new().report(1).contains("component latency"),
            "no footer with no samples at all"
        );
    }

    #[test]
    fn gc_events_build_the_arena_series() {
        let mut p = ProfilerSink::new();
        p.emit(&TraceEvent::GcPass {
            icount: 100,
            before: 50,
            freed: 40,
            alive: 10,
            cycles: 999,
        });
        p.emit(&TraceEvent::GcPass {
            icount: 200,
            before: 60,
            freed: 55,
            alive: 5,
            cycles: 999,
        });
        assert_eq!(
            p.arena_series(),
            &[
                ArenaSample {
                    icount: 100,
                    before: 50,
                    alive: 10
                },
                ArenaSample {
                    icount: 200,
                    before: 60,
                    alive: 5
                }
            ]
        );
        assert_eq!(p.histogram(Component::Gc).count(), 2);
    }
}
