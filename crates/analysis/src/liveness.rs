//! Backward box-liveness: prune sinks whose loaded value is never
//! *observed* by the integer world.
//!
//! NSan (Courbet) places its checks at *observation points* — branches,
//! comparisons, external-call arguments, escaping stores — rather than at
//! every suspect instruction, and FlowFPX frames exceptional values as a
//! flow with a birth and a death. This pass applies the same idea to the
//! forward analysis' sink set: an integer load of maybe-FP bits only needs
//! a correctness trap if the loaded value can *reach* an integer
//! observation point. A dead reload, or a value that is only copied back
//! into FP context (`movq xmm ← r64`, or a frame spill whose only reader
//! is `movsd`), cannot misbehave — boxed bits sitting untouched in an
//! integer register are harmless.
//!
//! The pass is a classic backward may-liveness fixpoint over each
//! function's blocks, with a "box-observation" gen/kill relation instead
//! of plain use/def:
//!
//! * **observers** (gen): ALU/div/shift operands, compare and test
//!   operands, address registers of *any* memory operand (pointer
//!   arithmetic observes the bits), `cvtsi2sd` input, external-call
//!   argument registers, `ret`'s RAX, `push`, and stores whose target slot
//!   is itself live (or unknown);
//! * **non-observers**: `movq xmm ← r64` and FP arithmetic reading memory
//!   (the value flows back into the boxed world, where traps handle it);
//!   a store to a *provably dead* frame slot.
//! * **boundaries**: a guest `call` conservatively observes every register
//!   and every frame slot (the callee is analyzed separately and may read
//!   the caller's frame through positive RSP offsets); external shims
//!   observe only their declared scalar arguments.
//!
//! Frame slots are tracked when the forward analysis resolved a
//! load/store to an exact entry-RSP-relative offset in *every* context
//! ([`ObservationFacts`]); anything less exact degrades to "all slots
//! live". Sinks in blocks owned by no recovered function are never
//! demoted. Only [`crate::SinkReason::IntLoadOfFp`] sinks are candidates:
//! `movq`/bitwise sinks operate on XMM state the load-centric relation
//! does not model.

use crate::cfg::{Block, Cfg, Site};
use crate::vsa::{Sink, SinkReason};
use fpvm_machine::{Gpr, Inst, Mem, RM, XM};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Exact frame-slot resolutions exported by the forward pass: instruction
/// address → `Some(slot)` when the access resolved to one entry-RSP
/// offset in every analyzed context, `None` when imprecise.
#[derive(Debug, Default, Clone)]
pub struct ObservationFacts {
    /// Per `Load` site.
    pub load_slots: BTreeMap<u64, Option<i64>>,
    /// Per `Store` site.
    pub store_slots: BTreeMap<u64, Option<i64>>,
}

/// Backward liveness state: which registers/slots hold a value that some
/// later instruction observes in the integer world.
#[derive(Debug, Clone, PartialEq, Default)]
struct Live {
    /// Bitmask over the 16 GPRs.
    regs: u16,
    /// Live exact frame slots (entry-RSP-relative, 8-aligned).
    slots: BTreeSet<i64>,
    /// Every slot must be treated live (imprecise store/pointer escape).
    all_slots: bool,
}

impl Live {
    fn has(&self, r: Gpr) -> bool {
        self.regs & (1 << r.0) != 0
    }
    fn gen(&mut self, r: Gpr) {
        self.regs |= 1 << r.0;
    }
    fn kill(&mut self, r: Gpr) {
        self.regs &= !(1 << r.0);
    }
    fn gen_all(&mut self) {
        self.regs = u16::MAX;
        self.all_slots = true;
    }
    /// Union join; returns true if `self` grew.
    fn join(&mut self, other: &Live) -> bool {
        let regs = self.regs | other.regs;
        let all = self.all_slots || other.all_slots;
        let mut changed = regs != self.regs || all != self.all_slots;
        self.regs = regs;
        self.all_slots = all;
        for &s in &other.slots {
            changed |= self.slots.insert(s);
        }
        changed
    }
}

fn mem_regs(live: &mut Live, m: &Mem) {
    if let Some(b) = m.base {
        live.gen(b);
    }
    if let Some(i) = m.index {
        live.gen(i);
    }
}

fn xm_regs(live: &mut Live, xm: &XM) {
    if let XM::Mem(m) = xm {
        mem_regs(live, m);
    }
}

/// Backward transfer of one instruction over the liveness state.
fn transfer(site: &Site, live: &mut Live, facts: &ObservationFacts) {
    use Inst::*;
    match &site.inst {
        // FP data movement / arithmetic: address registers are observed
        // (pointer arithmetic), the data itself stays in the FP world.
        MovSd { dst, src } | MovApd { dst, src } => {
            xm_regs(live, dst);
            xm_regs(live, src);
        }
        AddSd { src, .. }
        | SubSd { src, .. }
        | MulSd { src, .. }
        | DivSd { src, .. }
        | MinSd { src, .. }
        | MaxSd { src, .. }
        | SqrtSd { src, .. }
        | AddPd { src, .. }
        | SubPd { src, .. }
        | MulPd { src, .. }
        | DivPd { src, .. }
        | CvtSd2Ss { src, .. }
        | CvtSs2Sd { src, .. }
        | XorPd { src, .. }
        | AndPd { src, .. }
        | OrPd { src, .. } => xm_regs(live, src),
        FmaSd { b, .. } => xm_regs(live, b),
        UComISd { b, .. } | ComISd { b, .. } => xm_regs(live, b),
        // Integer → FP conversion *observes* the integer value (the
        // conversion's result depends on the raw bits).
        CvtSi2Sd { src, .. } => match src {
            RM::Reg(r) => live.gen(*r),
            RM::Mem(m) => {
                mem_regs(live, m);
                // The converted word is read from memory; without slot
                // resolution we must assume any slot feeds it.
                live.all_slots = true;
            }
        },
        CvtTSd2Si { dst, src, .. } => {
            live.kill(*dst);
            xm_regs(live, src);
        }
        // The value returns to FP context: NOT an observation. The GPR is
        // consumed but its bits stay boxed-world.
        MovQGX { .. } => {}
        MovQXG { dst, .. } => live.kill(*dst),
        MovRR { dst, src } => {
            // A refined copy: dst's liveness transfers to src.
            let was = live.has(*dst);
            live.kill(*dst);
            if was {
                live.gen(*src);
            }
        }
        MovRI { dst, .. } => live.kill(*dst),
        Load { dst, addr, .. } => {
            let was = live.has(*dst);
            live.kill(*dst);
            mem_regs(live, addr);
            if was {
                // The loaded value is observed later: the memory it came
                // from becomes live (slot-chained observation).
                match facts.load_slots.get(&site.addr) {
                    Some(Some(o)) => {
                        live.slots.insert(*o);
                    }
                    _ => live.all_slots = true,
                }
            }
        }
        Store { addr, src, .. } => {
            mem_regs(live, addr);
            match facts.store_slots.get(&site.addr) {
                Some(Some(o)) => {
                    let observed = live.all_slots || live.slots.contains(o);
                    if !live.all_slots {
                        live.slots.remove(o);
                    }
                    if observed {
                        live.gen(*src);
                    }
                }
                // Escaping store (global/heap/unknown): the value may be
                // observed by anything — conservatively live.
                _ => live.gen(*src),
            }
        }
        Lea { dst, addr } => {
            let was = live.has(*dst);
            live.kill(*dst);
            if was {
                mem_regs(live, addr);
            }
        }
        // Integer ALU observes both operands unconditionally: the result
        // and the flags depend on the raw bits.
        AluRR { dst, src, .. } => {
            live.gen(*dst);
            live.gen(*src);
        }
        AluRI { dst, .. } => live.gen(*dst),
        DivR { dst, src } | RemR { dst, src } => {
            live.gen(*dst);
            live.gen(*src);
        }
        CmpRR { a, b } | TestRR { a, b } => {
            live.gen(*a);
            live.gen(*b);
        }
        CmpRI { a, .. } => live.gen(*a),
        Jmp { .. } | Jcc { .. } => {}
        // A guest callee may read any register and the caller's frame
        // (positive RSP offsets) — maximally conservative boundary.
        Call { .. } => live.gen_all(),
        // External shims read only their declared scalar arguments (RDI
        // for the integer-argument functions; FP travels in XMM) and
        // never touch guest memory.
        CallExt { f } => {
            if f.fp_args() == 0 {
                live.gen(Gpr::RDI);
            }
        }
        Ret => live.gen(Gpr::RAX),
        Push { src } => live.gen(*src),
        Pop { dst } => {
            let was = live.has(*dst);
            live.kill(*dst);
            if was {
                // Popped from the stack: some slot feeds it.
                live.all_slots = true;
            }
        }
        Halt | Nop => {}
        // Patched traps and anything unmodeled: assume full observation.
        Trap { .. } => live.gen_all(),
    }
}

/// Apply a block's instructions backward to `live_out`, returning
/// `live_in`; optionally record the live-after state at the addresses
/// the first set names.
fn block_backward(
    block: &Block,
    live_out: &Live,
    facts: &ObservationFacts,
    mut record: Option<(&BTreeSet<u64>, &mut HashMap<u64, Live>)>,
) -> Live {
    let mut live = live_out.clone();
    for site in block.insts.iter().rev() {
        if let Some((want, rec)) = record.as_mut() {
            if want.contains(&site.addr) {
                rec.insert(site.addr, live.clone());
            }
        }
        transfer(site, &mut live, facts);
    }
    live
}

/// Run the backward box-liveness pass and return the addresses of sinks
/// that can be demoted: [`SinkReason::IntLoadOfFp`] sinks whose
/// destination register is dead (never observed by the integer world)
/// immediately after the load.
pub fn demote_unobserved(cfg: &Cfg, sinks: &[Sink], facts: &ObservationFacts) -> BTreeSet<u64> {
    // Group candidate sinks by owning function; orphans are never demoted.
    let mut by_fn: BTreeMap<u64, Vec<&Sink>> = BTreeMap::new();
    for s in sinks {
        if s.reason != SinkReason::IntLoadOfFp {
            continue;
        }
        let Inst::Load { .. } = s.inst else { continue };
        // Find the block containing the sink and its owner.
        let Some((_, block)) = cfg.blocks.range(..=s.addr).next_back() else {
            continue;
        };
        let Some(&owner) = cfg.block_fn.get(&block.start) else {
            continue;
        };
        by_fn.entry(owner).or_default().push(s);
    }
    let mut demoted = BTreeSet::new();
    for (owner, fsinks) in by_fn {
        let blocks: Vec<&Block> = cfg.function_blocks(owner);
        // live_in per block, to fixpoint. Exit blocks (no owned succs)
        // start from the empty state: `ret` itself gens RAX, `halt`
        // observes nothing.
        let mut live_in: HashMap<u64, Live> = HashMap::new();
        let mut changed = true;
        let mut iters = 0usize;
        while changed && iters < 200 {
            changed = false;
            iters += 1;
            for block in blocks.iter().rev() {
                let mut out = Live::default();
                for &succ in &block.succs {
                    if cfg.block_fn.get(&succ) == Some(&owner) {
                        if let Some(li) = live_in.get(&succ) {
                            out.join(li);
                        }
                    }
                }
                let inn = block_backward(block, &out, facts, None);
                match live_in.get_mut(&block.start) {
                    Some(cur) => changed |= cur.join(&inn),
                    None => {
                        live_in.insert(block.start, inn);
                        changed = true;
                    }
                }
            }
        }
        if iters >= 200 {
            // Did not converge (shouldn't happen: the domain is finite
            // and the transfer monotone) — demote nothing in this fn.
            continue;
        }
        // Second sweep: capture the live-after state at each sink site.
        let want: BTreeSet<u64> = fsinks.iter().map(|s| s.addr).collect();
        let mut at: HashMap<u64, Live> = HashMap::new();
        for block in &blocks {
            let mut out = Live::default();
            for &succ in &block.succs {
                if cfg.block_fn.get(&succ) == Some(&owner) {
                    if let Some(li) = live_in.get(&succ) {
                        out.join(li);
                    }
                }
            }
            block_backward(block, &out, facts, Some((&want, &mut at)));
        }
        for s in fsinks {
            let Inst::Load { dst, .. } = s.inst else {
                continue;
            };
            if let Some(after) = at.get(&s.addr) {
                if !after.has(dst) {
                    demoted.insert(s.addr);
                }
            }
        }
    }
    demoted
}

#[cfg(test)]
mod tests {
    use crate::vsa::{analyze, analyze_with, AnalysisConfig, SinkReason};
    use fpvm_machine::{AluOp, Asm, ExtFn, Gpr, Mem, Width, Xmm};

    fn flags(liveness: bool) -> AnalysisConfig {
        AnalysisConfig {
            liveness,
            ..Default::default()
        }
    }

    #[test]
    fn dead_reload_is_demoted() {
        // FP spill → integer reload whose value only flows back to the FP
        // world through a frame slot read by movsd: never observed.
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8)); // the sink
        a.store(Mem::base_disp(Gpr::RSP, 16), Gpr::RAX); // slot-to-slot copy
        a.movsd(Xmm(1), Mem::base_disp(Gpr::RSP, 16)); // read back as FP
        a.addsd(Xmm(1), c);
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        assert!(
            base.sinks
                .iter()
                .any(|s| s.reason == SinkReason::IntLoadOfFp),
            "without liveness the reload is a sink"
        );
        let an = analyze_with(&p, &flags(true));
        assert!(
            !an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "the unobserved round-trip must be demoted: {:?}",
            an.sinks
        );
        assert_eq!(an.stats.sinks_demoted_live, 1);
        assert_eq!(an.stats.loads_proven_safe, base.stats.loads_proven_safe + 1);
    }

    #[test]
    fn alu_observation_keeps_the_sink() {
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8)); // the sink
        a.alu_ri(AluOp::Add, Gpr::RAX, 1); // integer observation
        a.halt();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "an ALU-observed load must stay patched"
        );
        assert_eq!(an.stats.sinks_demoted_live, 0);
    }

    #[test]
    fn escaping_store_keeps_the_sink() {
        // The loaded value escapes to a global: anyone may observe it.
        let mut a = Asm::new();
        let g = a.global("out", 8);
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8)); // the sink
        a.store(Mem::abs(g as i64), Gpr::RAX); // escapes
        a.halt();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "an escaping value must stay patched"
        );
    }

    #[test]
    fn compare_through_slot_chain_keeps_the_sink() {
        // load → spill → reload → cmp: the observation reaches the first
        // load through the slot-liveness chain.
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8)); // the sink
        a.store(Mem::base_disp(Gpr::RSP, 16), Gpr::RAX);
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RSP, 16));
        a.cmp_ri(Gpr::RBX, 0); // branches on the bits
        a.halt();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        let load_sinks = an
            .sinks
            .iter()
            .filter(|s| s.reason == SinkReason::IntLoadOfFp)
            .count();
        assert_eq!(
            load_sinks, 2,
            "both loads feed the compare through the slot chain: {:?}",
            an.sinks
        );
    }

    #[test]
    fn external_call_argument_keeps_the_sink() {
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8)); // the sink
        a.mov_rr(Gpr::RDI, Gpr::RAX);
        a.call_ext(ExtFn::PrintI64); // the external world observes RDI
        a.halt();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "external-call arguments are observation points"
        );
        assert_eq!(an.stats.sinks_demoted_live, 0);
    }

    #[test]
    fn guest_call_is_a_conservative_boundary() {
        // The loaded value sits in RBX across a guest call: the callee
        // may read it, so the sink must stay.
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        let f = a.label();
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load_w(Gpr::RBX, Mem::base_disp(Gpr::RSP, 8), Width::W64);
        a.call(f);
        a.halt();
        a.bind(f);
        a.ret();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "values held across a guest call must stay patched"
        );
    }

    #[test]
    fn narrow_width_demotion_is_width_agnostic() {
        // A 32-bit reload of the spilled double's low word, never used:
        // still demotable (the relation is about observation, not width).
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0));
        a.load_w(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8), Width::W32);
        a.mov_ri(Gpr::RAX, 0); // immediately overwritten
        a.halt();
        let p = a.finish();
        let an = analyze_with(&p, &flags(true));
        assert_eq!(an.stats.sinks_demoted_live, 1, "{:?}", an.sinks);
    }
}
