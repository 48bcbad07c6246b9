//! The decode stage's per-site table (§5.3 footnote 8: "the decode cache
//! hit rate is nearly 100%").
//!
//! One direct-mapped slot per guest code byte holds everything a trap at
//! that site needs on a hit: the decoded instruction, its encoded length,
//! and — for statically plannable shapes — its bound-operand plan, so a
//! hot trap skips both the decode and the bind stage's instruction-shape
//! match. Instruction addresses are unique byte offsets, so the mapping is
//! collision-free and a lookup is a bounds check plus a load.
//!
//! The table is also the decode cache's cost-model rule. [`Fpvm::run`]
//! resets it at the start of every run and trap-and-patch clears each site
//! it rewrites, so a trap is a decode miss exactly when it is the first at
//! its site since the run began or since the site was patched. A miss
//! decodes through [`fpvm_machine::Machine::fetch`]: the machine's
//! predecode is the only decoder. With `decode_cache: false` (the §5.3
//! ablation) the table is sized to nothing and never filled.
//!
//! [`Fpvm::run`]: super::Fpvm::run

use crate::bound::BoundPlan;
use fpvm_machine::{Inst, CODE_BASE};

/// What a trap at one site needs on a hit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteEntry {
    /// The decoded faulting instruction.
    pub inst: Inst,
    /// Its encoded length in bytes.
    pub len: u8,
    /// Its memoized operand plan; `None` when the binding depends on data
    /// (the XorPd/AndPd masks) or the shape is unbindable.
    pub plan: Option<BoundPlan>,
}

/// The direct-mapped site table: one slot per guest code byte.
#[derive(Debug, Default)]
pub(crate) struct SiteTable {
    slots: Vec<Option<SiteEntry>>,
}

impl SiteTable {
    /// Drop every entry and size the table to `code_len` slots, keeping
    /// the allocation.
    pub fn reset(&mut self, code_len: usize) {
        self.slots.clear();
        self.slots.resize(code_len, None);
    }

    /// The entry at `rip`. A lookup before any reset, or at an
    /// out-of-segment `rip`, is a miss, never an index panic.
    #[inline]
    pub fn get(&self, rip: u64) -> Option<&SiteEntry> {
        let off = usize::try_from(rip.checked_sub(CODE_BASE)?).ok()?;
        self.slots.get(off)?.as_ref()
    }

    /// Fill the slot at `rip`; out-of-segment `rip`s are dropped.
    pub fn insert(&mut self, rip: u64, entry: SiteEntry) {
        if let Some(slot) = self.slot_mut(rip) {
            *slot = Some(entry);
        }
    }

    /// Clear the slot at `rip` (trap-and-patch rewrote the site).
    pub fn invalidate(&mut self, rip: u64) {
        if let Some(slot) = self.slot_mut(rip) {
            *slot = None;
        }
    }

    fn slot_mut(&mut self, rip: u64) -> Option<&mut Option<SiteEntry>> {
        let off = usize::try_from(rip.checked_sub(CODE_BASE)?).ok()?;
        self.slots.get_mut(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::static_plan;
    use fpvm_machine::{Xmm, XM};

    fn entry() -> SiteEntry {
        let inst = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        SiteEntry {
            inst,
            len: 4,
            plan: static_plan(&inst, CODE_BASE + 7),
        }
    }

    #[test]
    fn roundtrip_and_invalidate() {
        let mut t = SiteTable::default();
        t.reset(64);
        assert!(t.get(CODE_BASE + 3).is_none());
        t.insert(CODE_BASE + 3, entry());
        let hit = t.get(CODE_BASE + 3).expect("filled slot hits");
        assert_eq!(hit.inst, entry().inst);
        assert_eq!(hit.len, 4);
        assert_eq!(hit.plan.unwrap().next_rip, CODE_BASE + 7);
        t.invalidate(CODE_BASE + 3);
        assert!(t.get(CODE_BASE + 3).is_none());
    }

    #[test]
    fn reset_drops_every_entry() {
        let mut t = SiteTable::default();
        t.reset(32);
        t.insert(CODE_BASE + 1, entry());
        t.reset(32);
        assert!(t.get(CODE_BASE + 1).is_none());
    }

    #[test]
    fn out_of_segment_and_pre_reset_lookups_miss() {
        // Before any reset: every lookup misses and every write is a
        // no-op, never an index panic.
        let mut t = SiteTable::default();
        for rip in [0, CODE_BASE - 1, CODE_BASE, CODE_BASE + 1000, u64::MAX] {
            assert!(t.get(rip).is_none());
        }
        t.invalidate(CODE_BASE + 5);
        t.insert(CODE_BASE + 5, entry());
        assert!(t.get(CODE_BASE + 5).is_none());
        // After a reset: rips beyond the segment are dropped.
        t.reset(16);
        t.insert(CODE_BASE + 100, entry());
        assert!(t.get(CODE_BASE + 100).is_none());
        assert!(t.get(CODE_BASE.wrapping_sub(1)).is_none());
    }
}
