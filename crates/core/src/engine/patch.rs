//! The trap-and-patch engine (§3.2): rewrite hot faulting sites into
//! direct patch calls with inline pre/postcondition checks.

use super::accounting::Counter;
use super::exit::{ExitReason, Stage};
use super::frame::TrapFrame;
use super::Fpvm;
use crate::bound::{has_boxed_src, native_eval, static_plan, BoundPlan, Dst};
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::ArithSystem;
use fpvm_machine::{encode, Event, Inst, Machine, TrapKind};
use std::collections::HashMap;

/// One dynamically patched site: the original instruction the patch
/// replaced, the resume point after it, and — for statically plannable
/// shapes — its memoized bound-operand plan, so patch calls skip the bind
/// stage's instruction-shape match just like the site table does for
/// traps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TpSite {
    pub original: Inst,
    pub next_rip: u64,
    pub plan: Option<BoundPlan>,
}

impl TpSite {
    /// Record a site, memoizing its plan when the binding is static.
    pub fn new(original: Inst, next_rip: u64) -> Self {
        TpSite {
            original,
            next_rip,
            plan: static_plan(&original, next_rip),
        }
    }
}

/// The patch-site table. Sites are keyed by a dense u16 id baked into the
/// `Trap { PatchCall }` encoding, so dispatch is a direct index — no
/// hashing on the hot path. The address map exists only to keep
/// installation idempotent.
#[derive(Debug, Default)]
pub(crate) struct PatchTable {
    sites: Vec<Option<TpSite>>,
    by_addr: HashMap<u64, u16>,
}

impl PatchTable {
    /// O(1) site lookup by trap id.
    pub fn get(&self, id: u16) -> Option<TpSite> {
        self.sites.get(id as usize).copied().flatten()
    }

    /// Is this address already patched?
    pub fn contains_addr(&self, addr: u64) -> bool {
        self.by_addr.contains_key(&addr)
    }

    /// The next free id, or `None` when the id space is exhausted.
    pub fn next_id(&self) -> Option<u16> {
        (self.sites.len() < u16::MAX as usize).then_some(self.sites.len() as u16)
    }

    /// Record a dynamically installed patch.
    pub fn insert(&mut self, id: u16, addr: u64, site: TpSite) {
        self.set(id, site);
        self.by_addr.insert(addr, id);
    }

    /// Register a site under a caller-chosen id (compiler preload, §3.4).
    pub fn set(&mut self, id: u16, site: TpSite) {
        let idx = id as usize;
        if idx >= self.sites.len() {
            self.sites.resize(idx + 1, None);
        }
        self.sites[idx] = Some(site);
    }

    /// Drop every site (engine recycle), keeping the allocations.
    pub fn clear(&mut self) {
        self.sites.clear();
        self.by_addr.clear();
    }
}

impl<A: ArithSystem> Fpvm<A> {
    /// Patch the trapped site in `frame` so its next encounter dispatches
    /// via a cheap `Trap { PatchCall }` instead of a hardware trap.
    pub(crate) fn install_patch(&mut self, m: &mut Machine, frame: &TrapFrame) {
        let rip = frame.rip;
        if self.patches.contains_addr(rip) || frame.len < 3 {
            return;
        }
        // Profiler-guided site selection: when an allowlist is installed,
        // only the ranked sites are eligible for dynamic patching.
        if let Some(allow) = &self.patch_allow {
            if !allow.contains(&rip) {
                return;
            }
        }
        let Some(id) = self.patches.next_id() else {
            return;
        };
        // Only FP arithmetic sites benefit; compares and cvts also qualify.
        if !frame.inst.is_fp_arith() {
            return;
        }
        // Encode into the engine-owned scratch buffer (no per-install
        // allocation once it has grown to the longest patch).
        let mut bytes = std::mem::take(&mut self.scratch_code);
        bytes.clear();
        encode(
            &Inst::Trap {
                kind: TrapKind::PatchCall,
                id,
            },
            &mut bytes,
        );
        while bytes.len() < frame.len as usize {
            encode(&Inst::Nop, &mut bytes);
        }
        m.patch_code(rip, &bytes);
        self.scratch_code = bytes;
        // The slot's decode and plan describe the pre-patch instruction.
        self.sites.invalidate(rip);
        self.patches
            .insert(id, rip, TpSite::new(frame.inst, frame.next_rip()));
        self.acct.tally(Counter::SitesPatched);
        self.acct
            .emit(|| TraceEvent::PatchInstalled { rip, site: id });
    }

    /// Handle a `Trap { PatchCall }`: run the inlined pre/postcondition
    /// checks and execute natively when both hold, falling back to full
    /// emulation otherwise. The default [`super::HandlerTable::patch_call`]
    /// handler.
    pub fn on_patch_call(&mut self, m: &mut Machine, id: u16, rip: u64) -> Result<(), ExitReason> {
        let Some(site) = self.patches.get(id) else {
            return Err(ExitReason::error_at_site(Stage::Patch, rip, id));
        };
        // Direct call into the custom handler + inlined checks.
        let dispatch = m.cost.patch_dispatch();
        self.acct.charge(m, Component::Patch, dispatch);
        // Static shapes resolve their memoized plan; dynamic ones (the
        // mask-dependent bitwise ops) re-bind against current state.
        let bound = match site.plan {
            Some(p) => Some(p.resolve(m)),
            None => crate::bound::bind(m, &site.original, site.next_rip),
        };
        let Some(b) = bound else {
            // Unbindable patched instruction (e.g. a bitwise FP op with a
            // non-canonical mask): fall back to demote + re-execute, like a
            // correctness trap.
            self.acct.emit(|| TraceEvent::PatchCall {
                rip,
                site: id,
                fast: false,
                cycles: dispatch,
            });
            self.demote_operands(m, &site.original);
            return match m.exec_masked(&site.original, site.next_rip) {
                Ok(_) => Ok(()),
                Err(Event::Fault(f)) => Err(ExitReason::Fault(f)),
                Err(_) => Err(ExitReason::error_at_site(Stage::Patch, rip, id)),
            };
        };
        // Precondition: no boxed inputs. Postcondition: native execution
        // would raise no event. Both hold → execute natively in the patch.
        // At most two lanes, so the staging buffer is a fixed array — no
        // per-call allocation.
        let mut native: [Option<(Dst, u64)>; 2] = [None, None];
        let mut n = 0;
        let mut fast = true;
        for lane in b.lanes.iter().flatten() {
            if has_boxed_src(m, lane) {
                fast = false;
                break;
            }
            match native_eval(m, lane) {
                Some((bits, flags)) if flags.is_empty() => {
                    native[n] = Some((lane.dst, bits));
                    n += 1;
                }
                _ => {
                    fast = false;
                    break;
                }
            }
        }
        self.acct.emit(|| TraceEvent::PatchCall {
            rip,
            site: id,
            fast,
            cycles: dispatch,
        });
        if fast {
            self.acct.tally(Counter::PatchFast);
            for (dst, bits) in native.iter().take(n).flatten() {
                if let Dst::F64Lane(r, l) = dst {
                    m.xmm[*r as usize][*l as usize] = *bits;
                    m.taint_reclassify_xmm(*r as usize, *l as usize);
                }
            }
            m.rip = site.next_rip;
            return Ok(());
        }
        // Slow path: full emulation of the operands bound above.
        self.acct.tally(Counter::PatchSlow);
        self.emulate_bound(m, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::super::FpvmConfig;
    use super::*;
    use fpvm_arith::Vanilla;
    use fpvm_machine::{AluOp, Asm, Cond, CostModel, ExtFn, Gpr, Xmm, XM};

    /// Iterated logistic map x <- r·x·(1−x): every iteration traps at the
    /// same three FP sites.
    fn logistic_program(iters: i64) -> fpvm_machine::Program {
        let mut a = Asm::new();
        let x0 = a.f64m(0.34567);
        let r = a.f64m(3.71);
        let one = a.f64m(1.0);
        a.movsd(Xmm(2), x0);
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, iters);
        a.jcc(Cond::Ge, done);
        a.movsd(Xmm(3), one);
        a.subsd(Xmm(3), Xmm(2));
        a.mulsd(Xmm(2), r);
        a.mulsd(Xmm(2), Xmm(3));
        a.movsd(Xmm(0), XM::Reg(Xmm(2)));
        a.call_ext(ExtFn::PrintF64);
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        a.finish()
    }

    fn run(trap_and_patch: bool) -> (Fpvm<Vanilla>, Machine) {
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&logistic_program(50));
        let mut vm = Fpvm::new(
            Vanilla,
            FpvmConfig {
                trap_and_patch,
                ..FpvmConfig::default()
            },
        );
        vm.run(&mut m);
        (vm, m)
    }

    /// `install_patch` clears the site-table slot of every site it
    /// rewrites: the slot's decode and plan describe the pre-patch
    /// instruction, and a later lookup must not resurrect it.
    #[test]
    fn patched_sites_have_no_table_entry() {
        let (patched, mut m) = run(true);
        let sites: Vec<u64> = patched.patches.by_addr.keys().copied().collect();
        assert!(sites.len() >= 2, "loop FP sites must be patched");
        // Without patching, the same sites hold entries after the run.
        let (unpatched, _) = run(false);
        for &rip in &sites {
            assert!(patched.sites.get(rip).is_none(), "stale entry at {rip:#x}");
            assert!(unpatched.sites.get(rip).is_some(), "no entry at {rip:#x}");
            let (inst, _) = m.fetch(rip).expect("patched site decodes");
            assert!(
                matches!(
                    inst,
                    Inst::Trap {
                        kind: TrapKind::PatchCall,
                        ..
                    }
                ),
                "patched site at {rip:#x} decodes as {inst:?}"
            );
        }
    }
}
