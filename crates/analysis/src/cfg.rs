//! Control-flow-graph recovery over an encoded program image.
//!
//! "FPVM's VSA builds a preliminary Control Flow Graph (CFG) and then starts
//! from the first instruction at the entry point and analyzes the program
//! sequentially" (§4.2). We disassemble the whole code segment, split it at
//! leaders (entry, branch targets, call targets, post-branch fallthroughs),
//! and recover function boundaries from call targets — the same recovery an
//! angr-style tool performs on a stripped binary.

use fpvm_machine::{decode, Inst, Program, CODE_BASE};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A disassembled instruction site.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// Address.
    pub addr: u64,
    /// The instruction.
    pub inst: Inst,
    /// Encoded length.
    pub len: u8,
}

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u64,
    /// Instruction sites.
    pub insts: Vec<Site>,
    /// Successor block start addresses (control-flow edges).
    pub succs: Vec<u64>,
    /// Call target, if the block ends in a `Call` (edge handled
    /// interprocedurally, not in `succs`).
    pub call_target: Option<u64>,
}

/// The recovered control flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
    /// Function entry addresses (the program entry + every call target).
    pub functions: BTreeSet<u64>,
    /// Block start → owning function entry.
    pub block_fn: HashMap<u64, u64>,
    /// Total instructions disassembled.
    pub inst_count: usize,
}

impl Cfg {
    /// Build the CFG for a program image.
    pub fn build(p: &Program) -> Cfg {
        // Linear disassembly (our assembler never interleaves data in code).
        let mut sites = Vec::new();
        let mut pos = 0usize;
        while pos < p.code.len() {
            let Ok((inst, len)) = decode(&p.code, pos) else {
                break;
            };
            sites.push(Site {
                addr: CODE_BASE + pos as u64,
                inst,
                len: len as u8,
            });
            pos += len;
        }
        // Leaders and call targets.
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        let mut functions: BTreeSet<u64> = BTreeSet::new();
        leaders.insert(p.entry);
        functions.insert(p.entry);
        for s in &sites {
            let next = s.addr + u64::from(s.len);
            match s.inst {
                Inst::Jmp { rel } => {
                    leaders.insert(offset(next, rel));
                    leaders.insert(next);
                }
                Inst::Jcc { rel, .. } => {
                    leaders.insert(offset(next, rel));
                    leaders.insert(next);
                }
                Inst::Call { rel } => {
                    let t = offset(next, rel);
                    leaders.insert(t);
                    functions.insert(t);
                    leaders.insert(next);
                }
                Inst::Ret | Inst::Halt => {
                    leaders.insert(next);
                }
                _ => {}
            }
        }
        // Slice into blocks.
        let mut blocks: BTreeMap<u64, Block> = BTreeMap::new();
        let mut cur: Option<Block> = None;
        for s in &sites {
            if leaders.contains(&s.addr) {
                if let Some(b) = cur.take() {
                    blocks.insert(b.start, b);
                }
                cur = Some(Block {
                    start: s.addr,
                    insts: Vec::new(),
                    succs: Vec::new(),
                    call_target: None,
                });
            }
            let Some(b) = cur.as_mut() else {
                continue;
            };
            b.insts.push(*s);
            let next = s.addr + u64::from(s.len);
            let terminate = match s.inst {
                Inst::Jmp { rel } => {
                    b.succs.push(offset(next, rel));
                    true
                }
                Inst::Jcc { rel, .. } => {
                    b.succs.push(offset(next, rel));
                    b.succs.push(next);
                    true
                }
                Inst::Call { rel } => {
                    b.call_target = Some(offset(next, rel));
                    b.succs.push(next); // returns to the fallthrough
                    true
                }
                Inst::Ret | Inst::Halt => true,
                _ => false,
            };
            let falls_into_leader = !terminate && leaders.contains(&next);
            if falls_into_leader {
                b.succs.push(next);
            }
            if terminate || falls_into_leader {
                if let Some(b) = cur.take() {
                    blocks.insert(b.start, b);
                }
            }
        }
        if let Some(b) = cur.take() {
            blocks.insert(b.start, b);
        }
        // Assign blocks to functions: reachability from each function entry
        // through intra-procedural edges (succs only; calls excluded).
        let mut block_fn: HashMap<u64, u64> = HashMap::new();
        for &f in &functions {
            let mut stack = vec![f];
            while let Some(b) = stack.pop() {
                if block_fn.contains_key(&b) {
                    continue;
                }
                let Some(block) = blocks.get(&b) else {
                    continue;
                };
                block_fn.insert(b, f);
                for &s in &block.succs {
                    // Follow intra-procedural edges; a self-edge back to
                    // this function's entry (a loop to the top) also stays.
                    if !functions.contains(&s) || s == f {
                        stack.push(s);
                    }
                }
            }
        }
        Cfg {
            inst_count: sites.len(),
            blocks,
            functions,
            block_fn,
        }
    }

    /// Blocks of one function, in address order.
    pub fn function_blocks(&self, entry: u64) -> Vec<&Block> {
        self.blocks
            .values()
            .filter(|b| self.block_fn.get(&b.start) == Some(&entry))
            .collect()
    }
}

fn offset(next: u64, rel: i32) -> u64 {
    next.wrapping_add(i64::from(rel) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::{AluOp, Asm, Cond, Gpr, Xmm};

    #[test]
    fn straight_line_is_one_block() {
        let mut a = Asm::new();
        let c = a.f64m(1.0);
        a.movsd(Xmm(0), c);
        a.addsd(Xmm(0), Xmm(0));
        a.halt();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.functions.len(), 1);
        assert_eq!(cfg.inst_count, 3);
    }

    #[test]
    fn loop_structure() {
        let mut a = Asm::new();
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, 10);
        a.jcc(Cond::Ge, done);
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        // blocks: [mov], [cmp,jcc], [add,jmp], [halt]
        assert_eq!(cfg.blocks.len(), 4);
        // The jcc block has two successors; the jmp block loops back.
        let jcc_block = cfg
            .blocks
            .values()
            .find(|b| matches!(b.insts.last().unwrap().inst, Inst::Jcc { .. }))
            .unwrap();
        assert_eq!(jcc_block.succs.len(), 2);
        let jmp_block = cfg
            .blocks
            .values()
            .find(|b| matches!(b.insts.last().unwrap().inst, Inst::Jmp { .. }))
            .unwrap();
        assert_eq!(jmp_block.succs, vec![jcc_block.start]);
    }

    #[test]
    fn dead_code_after_unconditional_jmp_is_isolated() {
        // The instruction run after an unconditional jmp is carved into its
        // own block (the post-branch address is a leader), but the jmp must
        // NOT grow a fallthrough edge into it, and reachability-based
        // function assignment must leave the dead block unowned.
        let mut a = Asm::new();
        let end = a.label();
        a.jmp(end);
        let dead = a.here();
        a.mov_ri(Gpr::RAX, 42); // unreachable
        a.bind(end);
        a.halt();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        let jmp_block = cfg.blocks.get(&p.entry).unwrap();
        assert!(matches!(
            jmp_block.insts.last().unwrap().inst,
            Inst::Jmp { .. }
        ));
        assert_eq!(
            jmp_block.succs.len(),
            1,
            "jmp must have only its target as successor"
        );
        assert_ne!(jmp_block.succs[0], dead);
        // The dead block exists in the disassembly...
        assert!(cfg.blocks.contains_key(&dead));
        // ...but belongs to no function and is excluded from analysis.
        assert!(!cfg.block_fn.contains_key(&dead));
        assert!(cfg.function_blocks(p.entry).iter().all(|b| b.start != dead));
    }

    #[test]
    fn non_returning_callee_still_splits_caller() {
        // The callee halts and never returns. The call edge still makes it
        // a function, and the caller's post-call block exists (the static
        // CFG keeps the optimistic return edge) and belongs to the caller.
        let mut a = Asm::new();
        let f = a.label();
        a.call(f);
        let after_call = a.here();
        a.mov_ri(Gpr::RBX, 1);
        a.halt();
        a.bind(f);
        a.mov_ri(Gpr::RAX, 7);
        a.halt(); // never returns
        let p = a.finish();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.functions.len(), 2, "entry + non-returning callee");
        let callee_entry = *cfg.functions.iter().max().unwrap();
        let fb = cfg.function_blocks(callee_entry);
        assert_eq!(fb.len(), 1);
        assert!(matches!(fb[0].insts.last().unwrap().inst, Inst::Halt));
        // The call block's fallthrough successor is the post-call block,
        // and it is owned by the caller, not the callee.
        let call_block = cfg.blocks.get(&p.entry).unwrap();
        assert_eq!(call_block.call_target, Some(callee_entry));
        assert_eq!(call_block.succs, vec![after_call]);
        assert_eq!(cfg.block_fn.get(&after_call), Some(&p.entry));
    }

    #[test]
    fn back_to_back_terminators_are_singleton_blocks() {
        // halt; halt; ret — every terminator ends its block immediately,
        // so each lands in its own single-instruction block with no
        // successors, and block slicing never merges or drops one.
        let mut a = Asm::new();
        let b0 = a.here();
        a.halt();
        let b1 = a.here();
        a.halt();
        let b2 = a.here();
        a.ret();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.inst_count, 3);
        assert_eq!(cfg.blocks.len(), 3);
        for addr in [b0, b1, b2] {
            let b = cfg.blocks.get(&addr).unwrap();
            assert_eq!(b.insts.len(), 1);
            assert!(b.succs.is_empty());
        }
        // Only the entry block is reachable.
        assert_eq!(cfg.block_fn.get(&b0), Some(&p.entry));
        assert!(!cfg.block_fn.contains_key(&b1));
        assert!(!cfg.block_fn.contains_key(&b2));
    }

    #[test]
    fn functions_recovered_from_calls() {
        let mut a = Asm::new();
        let f = a.label();
        a.call(f);
        a.call(f);
        a.halt();
        a.bind(f);
        a.mov_ri(Gpr::RAX, 7);
        a.ret();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.functions.len(), 2, "entry + callee");
        // Callee blocks belong to the callee function.
        let callee_entry = *cfg.functions.iter().max().unwrap();
        let fb = cfg.function_blocks(callee_entry);
        assert_eq!(fb.len(), 1);
        assert!(matches!(fb[0].insts.last().unwrap().inst, Inst::Ret));
        // Call blocks carry the call target.
        let caller_blocks = cfg.function_blocks(p.entry);
        let with_calls = caller_blocks
            .iter()
            .filter(|b| b.call_target == Some(callee_entry))
            .count();
        assert_eq!(with_calls, 2);
    }

    // ---- hardening: computed flow, irreducible loops, self-loops --------

    #[test]
    fn computed_jump_landing_pad_degrades_soundly() {
        // The ISA's only computed control flow is `push addr; ret`. The CFG
        // cannot see the edge, so the landing pad is an orphan block — the
        // analysis must not panic, must reach fixpoint, and must treat the
        // orphan's load as a candidate sink (maximal conservatism).
        use fpvm_machine::Mem;
        let mut a = Asm::new();
        let g = a.global_f64("shared", 0.0);
        let c = a.f64m(1.5);
        let main = a.label();
        a.jmp(main);
        let landing = a.here();
        a.load(Gpr::RAX, Mem::abs(g as i64)); // orphan load: must stay a sink
        a.halt();
        a.bind(main);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0));
        a.mov_ri(Gpr::RBX, landing as i64);
        a.push(Gpr::RBX);
        a.ret(); // computed jump to `landing`
        let p = a.finish();
        let cfg = Cfg::build(&p);
        // The landing pad was disassembled but is unowned.
        assert!(cfg.blocks.contains_key(&landing));
        assert!(!cfg.block_fn.contains_key(&landing));
        let an = crate::vsa::analyze(&p);
        assert!(
            an.sinks
                .iter()
                .any(|s| s.addr == landing && s.reason == crate::vsa::SinkReason::IntLoadOfFp),
            "the orphan landing-pad load must be a conservative sink: {:?}",
            an.sinks
        );
    }

    #[test]
    fn irreducible_loop_reaches_fixpoint() {
        // A two-entry loop (the entry branches into the middle of it, the
        // fallthrough enters at the top): no reducible-loop structure for
        // the worklist to lean on. The analysis must converge and keep the
        // in-loop load of FP-typed memory a sink.
        use fpvm_machine::Mem;
        let mut a = Asm::new();
        let g = a.global_f64("x", 0.0);
        let c = a.f64m(1.0);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0));
        let mid = a.label();
        a.cmp_ri(Gpr::RCX, 0);
        a.jcc(Cond::Ge, mid); // second entry: jumps into the loop middle
        let top = a.here_label();
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.bind(mid);
        let load_at = a.here();
        a.load(Gpr::RAX, Mem::abs(g as i64)); // must stay a sink
        a.cmp_ri(Gpr::RCX, 10);
        a.jcc(Cond::L, top); // back edge to the first entry
        a.halt();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        // The loop body is reachable and owned by the entry function.
        let owner = cfg.blocks.range(..=load_at).next_back().unwrap().1.start;
        assert_eq!(cfg.block_fn.get(&owner), Some(&p.entry));
        let an = crate::vsa::analyze(&p);
        assert!(an.stats.rounds < 16, "must converge, not hit the cap");
        assert!(
            an.sinks
                .iter()
                .any(|s| s.addr == load_at && s.reason == crate::vsa::SinkReason::IntLoadOfFp),
            "the irreducible-loop load must stay a sink: {:?}",
            an.sinks
        );
    }

    #[test]
    fn self_loop_block_reaches_fixpoint() {
        // A block whose only successor is itself (single-block spin loop
        // containing a load): the join must stabilize rather than oscillate
        // and the load must remain a candidate sink.
        use fpvm_machine::Mem;
        let mut a = Asm::new();
        let g = a.global_f64("x", 0.0);
        let c = a.f64m(2.0);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0));
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let load_at = a.here();
        a.load(Gpr::RAX, Mem::abs(g as i64));
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.cmp_ri(Gpr::RCX, 10);
        a.jcc(Cond::L, top); // self-loop: block's succ includes itself
        a.halt();
        let p = a.finish();
        let cfg = Cfg::build(&p);
        let self_block = cfg
            .blocks
            .values()
            .find(|b| b.succs.contains(&b.start))
            .expect("the spin block must be its own successor");
        assert!(self_block.insts.iter().any(|s| s.addr == load_at));
        let an = crate::vsa::analyze(&p);
        assert!(an.stats.rounds < 16, "must converge, not hit the cap");
        assert!(
            an.sinks
                .iter()
                .any(|s| s.addr == load_at && s.reason == crate::vsa::SinkReason::IntLoadOfFp),
            "the self-loop load must stay a sink: {:?}",
            an.sinks
        );
    }
}
