//! The trap frame and the trap-and-emulate front half of the pipeline:
//! delivery accounting → decode (cached) → bind → emulate → patch.

use super::accounting::Counter;
use super::decode::SiteEntry;
use super::exit::{ExitReason, Stage};
use super::{Binder, Fpvm};
use crate::bound::static_plan;
use crate::metrics::MetricStage;
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::{ArithSystem, FpFlags};
use fpvm_machine::{Inst, Machine};
use std::time::Instant;

/// One hardware FP trap's lifecycle: the faulting site, the sticky
/// condition flags at delivery, and — once the decode stage has run — the
/// decoded instruction and its extent. Built by
/// [`Fpvm::on_fp_trap`] and threaded through the pipeline stages.
#[derive(Debug, Clone, Copy)]
pub struct TrapFrame {
    /// The faulting guest instruction pointer.
    pub rip: u64,
    /// MXCSR condition flags captured at delivery (cleared on entry, §4.1).
    pub flags: FpFlags,
    /// The decoded faulting instruction.
    pub inst: Inst,
    /// Its encoded length in bytes.
    pub len: u8,
}

impl TrapFrame {
    /// The resume point after the faulting instruction.
    pub fn next_rip(&self) -> u64 {
        self.rip + u64::from(self.len)
    }
}

impl<A: ArithSystem> Fpvm<A> {
    /// Handle one hardware FP exception: the trap-and-emulate pipeline.
    pub fn on_fp_trap(
        &mut self,
        m: &mut Machine,
        rip: u64,
        flags: FpFlags,
    ) -> Result<(), ExitReason> {
        self.acct.tally(Counter::FpTraps);
        // Wall-clock plane: tick the sample sequence and, on sampled
        // traps, time the whole frame (the ns/trap distribution).
        let t_frame = self.acct.trap_metrics_begin();
        // Delivery cost (Fig. 9: hardware + kernel + user components).
        let (hw, kern, user) = m.cost.delivery_parts(self.config.delivery);
        self.acct.charge(m, Component::Hardware, hw);
        self.acct.charge(m, Component::Kernel, kern);
        self.acct.charge(m, Component::UserDelivery, user);
        let icount = m.icount;
        self.acct.emit(|| TraceEvent::TrapBegin {
            rip,
            icount,
            hardware: hw,
            kernel: kern,
            user,
        });
        // Inspect and clear the sticky condition codes (§4.1 "Trapping").
        m.mxcsr.clear_flags();
        // Hot path: a site-table hit with a memoized plan skips the full
        // decode and the bind stage's instruction-shape match; only memory
        // operand addresses are re-derived. Misses and plan-less sites take
        // the cold path, kept out of line because inlining its decode and
        // fresh bind here made every trap measurably slower. Both paths
        // charge and trace identically.
        let Some(&SiteEntry {
            inst,
            len,
            plan: Some(plan),
        }) = self.sites.get(rip)
        else {
            return self.on_fp_trap_cold(m, rip, flags, t_frame);
        };
        let t_decode = self.acct.stage_timer();
        self.acct.charge_decode(m, rip, true);
        self.acct.stage_record(MetricStage::Decode, t_decode);
        self.acct.charge_bind(m, rip);
        let t_bind = self.acct.stage_timer();
        let b = plan.resolve(m);
        self.acct.stage_record(MetricStage::Bind, t_bind);
        self.emulate_bound(m, &b)?;
        if self.config.trap_and_patch {
            let frame = TrapFrame {
                rip,
                flags,
                inst,
                len,
            };
            self.install_patch(m, &frame);
        }
        self.acct.stage_record(MetricStage::Frame, t_frame);
        Ok(())
    }

    /// The trap path's cold half: decode (a miss fills the site's slot)
    /// and bind — from the plan the miss just memoized, or from scratch
    /// for a site without one (decode-cache ablation, data-dependent
    /// shape).
    #[inline(never)]
    fn on_fp_trap_cold(
        &mut self,
        m: &mut Machine,
        rip: u64,
        flags: FpFlags,
        t_frame: Option<Instant>,
    ) -> Result<(), ExitReason> {
        let (inst, len) = self.decode_at(m, rip)?;
        let frame = TrapFrame {
            rip,
            flags,
            inst,
            len,
        };
        self.acct.charge_bind(m, rip);
        let t_bind = self.acct.stage_timer();
        let bound = match self.sites.get(rip).and_then(|e| e.plan.as_ref()) {
            Some(plan) => Some(plan.resolve(m)),
            None => Binder.bind(m, &inst, frame.next_rip()),
        };
        let Some(b) = bound else {
            return Err(ExitReason::error(Stage::Bind, rip));
        };
        self.acct.stage_record(MetricStage::Bind, t_bind);
        self.emulate_bound(m, &b)?;
        if self.config.trap_and_patch {
            self.install_patch(m, &frame);
        }
        self.acct.stage_record(MetricStage::Frame, t_frame);
        Ok(())
    }

    /// The decode stage: consult the site table, fall back to a full
    /// decode through the machine on a miss (filling the slot, plan and
    /// all), and charge the stage through the accounting sink.
    pub(crate) fn decode_at(
        &mut self,
        m: &mut Machine,
        rip: u64,
    ) -> Result<(Inst, u8), ExitReason> {
        let t_decode = self.acct.stage_timer();
        if let Some(hit) = self.sites.get(rip) {
            self.acct.charge_decode(m, rip, true);
            self.acct.stage_record(MetricStage::Decode, t_decode);
            return Ok((hit.inst, hit.len));
        }
        self.acct.charge_decode(m, rip, false);
        let (inst, len) = m
            .fetch(rip)
            .map_err(|_| ExitReason::error(Stage::Decode, rip))?;
        let plan = static_plan(&inst, rip + u64::from(len));
        self.sites.insert(rip, SiteEntry { inst, len, plan });
        self.acct.stage_record(MetricStage::Decode, t_decode);
        Ok((inst, len))
    }
}
