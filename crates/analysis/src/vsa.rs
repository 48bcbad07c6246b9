//! Value-set analysis: find the instructions where a NaN-boxed value
//! could leak into the non-trapping integer world (§4.2).
//!
//! "The analysis categorizes instructions into two categories: sources and
//! sinks. A source is any instruction that stores a floating point value to
//! memory, and a sink is any instruction that later loads from any memory
//! location that was previously been written to by a source."
//!
//! The analysis is an abstract interpretation over the recovered CFG:
//!
//! * registers carry a value-set lattice — constants, entry-relative stack
//!   offsets, exact global pointers, *object-granular* global pointers
//!   (angr-VSA's allocation-site a-locs, using the image's object table),
//!   a one-cell heap summary, and ⊤ — plus an *FP-bits taint*;
//! * stack slot **contents** are tracked flow-sensitively (the `-O0` style
//!   codegen round-trips every pointer through the frame, so without this
//!   every indexed access would degrade to ⊤);
//! * memory *typing* (which locations may hold FP data) is flow-insensitive
//!   and monotone by default: per-function frame slots, per-word and
//!   per-object global sets, and the heap summary.
//!
//! Three second-generation precision passes layer on top, each an
//! independently ablatable [`AnalysisConfig`] knob:
//!
//! 1. **Flow-sensitive memory typing** ([`AnalysisConfig::flow_mem`]):
//!    per-program-point *kill sets* record slots/words whose last write was
//!    a provably-integer store (a strong update), overriding the monotone
//!    typing on the killed location. The pass also models the patch
//!    contract: a sink load *is patched* and its trap demotes the box, so
//!    the loaded register holds raw bits — this breaks the taint cascade
//!    where one spurious heap sink used to re-taint every frame slot it
//!    was spilled to. The model is only sound when every sink is actually
//!    patched; the audit harness gates on zero skipped sinks.
//! 2. **k=1 context-sensitive summaries** ([`AnalysisConfig::ctx_k1`]):
//!    functions are analyzed per immediate call site with memoized
//!    argument/return summaries ([`AVal`] six-tuples joined per context,
//!    [`AVal::Bottom`] as the transfer identity). Two callers passing an
//!    int pointer and an FP pointer stop conflating; memory effects still
//!    flow through the shared typing, now marked with per-context argument
//!    precision. Contexts beyond the k=1 horizon (a callee's own call
//!    sites) are widened by joining all callers. If the context fixpoint
//!    fails to converge the analysis falls back to the context-insensitive
//!    mode, so the knob can only refine, never lose soundness.
//! 3. **Backward box-liveness** ([`AnalysisConfig::liveness`], in
//!    [`crate::liveness`]): sinks whose loaded value never reaches an
//!    integer observation point (ALU use, compare/branch, external-call
//!    argument, escaping store) are demoted — a dead reload or a value
//!    that only flows back into FP context needs no correctness trap.
//!
//! Like the paper's tweaked VSA, unresolvable facts degrade conservatively:
//! "if VSA returns a conservative result, FPVM follows suit and assumes
//! there exists a NaN-boxed double that may need demotion." The one-cell
//! heap summary is the deliberate imprecision that reproduces the paper's
//! Enzo behavior — correctness traps in critical loops "because the static
//! analysis could not prove they were unneeded."
//!
//! Sinks: integer loads from maybe-FP locations, `movq r64 ← xmm` (always),
//! and the bitwise-FP idioms `xorpd`/`andpd`/`orpd` (always — compilers use
//! them to negate / take `fabs` of FP registers that may hold boxes).
//! Code reachable only through computed control flow (blocks owned by no
//! recovered function, e.g. a `push addr; ret` landing pad) is treated
//! maximally conservatively: every load there is a sink. External call
//! sites are not patched: the runtime's LD_PRELOAD-style shim interposes
//! them directly (§4.1).

use crate::cfg::{Block, Cfg, Site};
use crate::liveness::{self, ObservationFacts};
use fpvm_machine::{AluOp, ExtFn, Gpr, Inst, Mem, Program, DATA_BASE, HEAP_BASE, XM};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The data-segment object table (allocation sites).
struct ObjMap {
    /// Sorted (base, size).
    objects: Vec<(u64, u64)>,
}

impl ObjMap {
    fn new(p: &Program) -> ObjMap {
        let mut objects = p.objects.clone();
        objects.sort_unstable();
        ObjMap { objects }
    }

    fn resolve(&self, addr: u64) -> Option<u32> {
        let idx = self.objects.partition_point(|&(b, _)| b <= addr);
        if idx == 0 {
            return None;
        }
        let (base, size) = self.objects[idx - 1];
        (addr < base + size).then_some(idx as u32 - 1)
    }

    fn range(&self, k: u32) -> (u64, u64) {
        self.objects[k as usize]
    }
}

/// How the heap is summarized (the audit harness drives the comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapModel {
    /// Paper-faithful single summary cell: one FP store anywhere on the
    /// heap taints every heap load (the deliberate Enzo imprecision).
    #[default]
    OneCell,
    /// Allocation-site partitioning: pointers returned by distinct
    /// `AllocHeap` call sites are distinguished; merged or unknown heap
    /// pointers still degrade to the one-cell summary.
    AllocSite,
}

/// Static analysis configuration (ablation knobs). Every knob defaults to
/// the paper-faithful first-generation behavior; each can be enabled
/// independently and the E19 harness measures every combination's
/// precision/recall through the dynamic taint oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisConfig {
    /// Heap summarization model.
    pub heap: HeapModel,
    /// Flow-sensitive memory typing: exact integer stores strongly update
    /// (kill) a location's FP typing, and patched sinks are modeled as
    /// demoting (their result is raw bits, not a box).
    pub flow_mem: bool,
    /// k=1 call-site-sensitive interprocedural argument/return summaries.
    pub ctx_k1: bool,
    /// Backward box-liveness: demote sinks whose value is never observed
    /// by the integer world.
    pub liveness: bool,
}

/// Abstract register / slot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    /// The transfer-function identity: no value has reached here yet
    /// (unrecorded context summaries start at ⊥ and join upward).
    Bottom,
    Const(i64),
    /// Entry-rsp-relative stack address.
    Stack(i64),
    /// Somewhere in the current frame (widened stack pointer — a cursor
    /// that takes different offsets across a back-edge).
    StackAny,
    /// Exact data-segment address.
    Global(u64),
    /// Somewhere inside data object `k`.
    GlobalObj(u32),
    /// Somewhere in the data segment.
    GlobalAny,
    /// Somewhere in the allocation made at call site `addr`
    /// ([`HeapModel::AllocSite`] only).
    HeapSite(u64),
    /// Somewhere in dynamic memory (heap summary).
    Heap,
    Top,
}

impl AVal {
    fn join(self, other: AVal, objs: &ObjMap) -> AVal {
        use AVal::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (a, b) if a == b => a,
            // A stack pointer taking distinct offsets (a strided frame
            // cursor) widens to the frame summary instead of ⊤ — the
            // object-bounded widening for the stack region.
            (Stack(_) | StackAny, Stack(_) | StackAny) => StackAny,
            (Global(a), Global(b)) => match (objs.resolve(a), objs.resolve(b)) {
                (Some(ka), Some(kb)) if ka == kb => GlobalObj(ka),
                _ => GlobalAny,
            },
            (Global(a), GlobalObj(k)) | (GlobalObj(k), Global(a)) => {
                if objs.resolve(a) == Some(k) {
                    GlobalObj(k)
                } else {
                    GlobalAny
                }
            }
            (Global(_) | GlobalObj(_) | GlobalAny, Global(_) | GlobalObj(_) | GlobalAny) => {
                GlobalAny
            }
            // Distinct allocation sites (or a site against the summary)
            // merge into the one-cell summary.
            (HeapSite(_) | Heap, HeapSite(_) | Heap) => Heap,
            _ => Top,
        }
    }

    fn add_const(self, k: i64) -> AVal {
        match self {
            AVal::Const(c) => AVal::Const(c.wrapping_add(k)),
            AVal::Stack(o) => AVal::Stack(o.wrapping_add(k)),
            AVal::Global(a) => AVal::Global(a.wrapping_add(k as u64)),
            x => x,
        }
    }

    /// Result of adding an unknown offset (array indexing).
    fn add_unknown(self, objs: &ObjMap) -> AVal {
        match self {
            AVal::Global(a) => objs.resolve(a).map_or(AVal::GlobalAny, AVal::GlobalObj),
            AVal::GlobalObj(k) => AVal::GlobalObj(k),
            AVal::GlobalAny => AVal::GlobalAny,
            AVal::HeapSite(s) => AVal::HeapSite(s),
            AVal::Heap => AVal::Heap,
            // An unknown index can carry a stack pointer out of the stack
            // region entirely; stay maximally conservative.
            _ => AVal::Top,
        }
    }
}

/// Classify a constant that may be a pointer (MovRI of an address).
fn classify_const_val(c: i64) -> AVal {
    let u = c as u64;
    if (DATA_BASE..HEAP_BASE).contains(&u) {
        AVal::Global(u)
    } else if (HEAP_BASE..(1 << 40)).contains(&u) {
        AVal::Heap
    } else {
        AVal::Const(c)
    }
}

/// Abstract memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ALoc {
    StackOff(i64),
    StackAny,
    GlobalWord(u64),
    GlobalObj(u32),
    GlobalAny,
    /// Inside the allocation made at call site `addr`.
    HeapSite(u64),
    Heap,
    Any,
}

/// Flow-insensitive memory typing, shared across functions; grows
/// monotonically to a fixpoint. (The flow-*sensitive* refinement lives in
/// [`Kills`] and overrides this per program point.)
#[derive(Debug, Default, Clone, PartialEq)]
struct MemTypes {
    /// Exact data words that may hold FP data.
    words_fp: BTreeSet<u64>,
    /// Objects where *some* unknown offset may hold FP data.
    objs_fp: BTreeSet<u32>,
    global_any_fp: bool,
    /// Allocation sites whose allocation may hold FP data.
    heap_site_fp: BTreeSet<u64>,
    heap_fp: bool,
    any_fp: bool,
    /// Some function's frame holds FP data somewhere (consulted by reads
    /// through wild pointers, which may reach any frame).
    some_stack_fp: bool,
    /// FP was stored through an imprecise stack pointer — any frame slot
    /// of any function may have been hit.
    stack_all_fp: bool,
}

impl MemTypes {
    fn mark(&mut self, loc: ALoc, ctx: &mut FnCtx) {
        match loc {
            ALoc::StackOff(o) => {
                ctx.stack_fp.insert(o & !7);
                self.some_stack_fp = true;
            }
            ALoc::StackAny => {
                ctx.stack_any = true;
                self.some_stack_fp = true;
                self.stack_all_fp = true;
            }
            ALoc::GlobalWord(a) => {
                self.words_fp.insert(a & !7);
            }
            ALoc::GlobalObj(k) => {
                self.objs_fp.insert(k);
            }
            ALoc::GlobalAny => self.global_any_fp = true,
            ALoc::HeapSite(s) => {
                self.heap_site_fp.insert(s);
            }
            ALoc::Heap => self.heap_fp = true,
            ALoc::Any => self.any_fp = true,
        }
    }

    fn maybe_fp(&self, loc: ALoc, ctx: &FnCtx, objs: &ObjMap) -> bool {
        if self.any_fp {
            return true;
        }
        let obj_hit = |k: u32| {
            if self.objs_fp.contains(&k) {
                return true;
            }
            let (base, size) = objs.range(k);
            self.words_fp.range(base..base + size).next().is_some()
        };
        match loc {
            ALoc::StackOff(o) => {
                self.stack_all_fp || ctx.stack_any || ctx.stack_fp.contains(&(o & !7))
            }
            ALoc::StackAny => self.stack_all_fp || self.some_stack_fp || ctx.stack_any,
            ALoc::GlobalWord(a) => {
                self.global_any_fp
                    || self.words_fp.contains(&(a & !7))
                    || objs.resolve(a).is_some_and(|k| self.objs_fp.contains(&k))
            }
            ALoc::GlobalObj(k) => self.global_any_fp || obj_hit(k),
            ALoc::GlobalAny => {
                self.global_any_fp || !self.words_fp.is_empty() || !self.objs_fp.is_empty()
            }
            ALoc::HeapSite(s) => self.heap_fp || self.heap_site_fp.contains(&s),
            ALoc::Heap => self.heap_fp || !self.heap_site_fp.is_empty(),
            ALoc::Any => {
                self.heap_fp
                    || !self.heap_site_fp.is_empty()
                    || self.global_any_fp
                    || !self.words_fp.is_empty()
                    || !self.objs_fp.is_empty()
                    || self.some_stack_fp
                    || ctx.stack_any
                    || !ctx.stack_fp.is_empty()
            }
        }
    }
}

/// A map kept as a vector sorted by key: a clone is one copy, and two maps
/// intersect in one linear merge. The sets below use `V = ()`.
#[derive(Debug, Clone)]
struct VecMap<K, V>(Vec<(K, V)>);

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap(Vec::new())
    }
}

impl<K: Ord + Copy, V: Copy> VecMap<K, V> {
    fn find(&self, k: K) -> Result<usize, usize> {
        self.0.binary_search_by(|e| e.0.cmp(&k))
    }

    fn get(&self, k: K) -> Option<V> {
        self.find(k).ok().map(|i| self.0[i].1)
    }

    fn contains(&self, k: K) -> bool {
        self.find(k).is_ok()
    }

    fn insert(&mut self, k: K, v: V) {
        match self.find(k) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (k, v)),
        }
    }

    fn remove(&mut self, k: K) {
        if let Ok(i) = self.find(k) {
            self.0.remove(i);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    /// Keep only the keys `other` also holds, folding `other`'s value into
    /// each kept one with `join` (true if it changed the value). Returns
    /// true if a key was dropped or a value changed.
    fn intersect(&mut self, other: &Self, mut join: impl FnMut(&mut V, V) -> bool) -> bool {
        let mut changed = false;
        let mut rest = other.0.iter().peekable();
        self.0.retain_mut(|(k, v)| {
            while rest.next_if(|e| e.0 < *k).is_some() {}
            match rest.peek() {
                Some(&&(ok, ov)) if ok == *k => {
                    changed |= join(v, ov);
                    true
                }
                _ => {
                    changed = true;
                    false
                }
            }
        });
        changed
    }
}

/// Per-program-point strong-update facts ([`AnalysisConfig::flow_mem`]):
/// slots/words whose *last* write on every path was a provably-integer
/// store. A killed location's monotone FP typing is overridden at loads.
#[derive(Debug, Clone, Default)]
struct Kills {
    slots: VecMap<i64, ()>,
    words: VecMap<u64, ()>,
}

impl Kills {
    fn covers(&self, loc: ALoc) -> bool {
        match loc {
            ALoc::StackOff(o) => self.slots.contains(o & !7),
            ALoc::GlobalWord(a) => self.words.contains(a & !7),
            _ => false,
        }
    }

    /// An integer (untainted) store: strong-update exact targets. An
    /// imprecise target adds nothing, but existing kills stand — an
    /// integer store never *adds* FP typing anywhere.
    fn kill(&mut self, loc: ALoc) {
        match loc {
            ALoc::StackOff(o) => self.slots.insert(o & !7, ()),
            ALoc::GlobalWord(a) => self.words.insert(a & !7, ()),
            _ => {}
        }
    }

    /// An FP (tainted) store: every location it may reach loses its kill.
    fn unkill(&mut self, loc: ALoc, objs: &ObjMap) {
        match loc {
            ALoc::StackOff(o) => self.slots.remove(o & !7),
            ALoc::StackAny => self.slots.clear(),
            ALoc::GlobalWord(a) => self.words.remove(a & !7),
            ALoc::GlobalObj(k) => {
                let (base, size) = objs.range(k);
                self.words
                    .0
                    .retain(|&(w, ())| !(base..base + size).contains(&w));
            }
            ALoc::GlobalAny => self.words.clear(),
            ALoc::HeapSite(_) | ALoc::Heap => {}
            ALoc::Any => {
                self.slots.clear();
                self.words.clear();
            }
        }
    }

    /// Join = intersection (a location is killed only if killed on every
    /// incoming path). Returns true if `self` changed.
    fn meet(&mut self, other: &Kills) -> bool {
        let slots = self.slots.intersect(&other.slots, |_, ()| false);
        let words = self.words.intersect(&other.words, |_, ()| false);
        slots || words
    }
}

/// Per-block register + frame-slot state.
#[derive(Debug, Clone)]
struct RegState {
    vals: [AVal; 16],
    taint: [bool; 16],
    /// Known frame-slot contents: entry-rsp-relative offset → (value,
    /// FP-bits taint).
    slots: VecMap<i64, (AVal, bool)>,
    /// Strong-update facts (populated only under `flow_mem`).
    kills: Kills,
}

impl RegState {
    fn entry() -> Self {
        let mut vals = [AVal::Top; 16];
        vals[Gpr::RSP.0 as usize] = AVal::Stack(0);
        RegState {
            vals,
            taint: [false; 16],
            slots: VecMap::default(),
            kills: Kills::default(),
        }
    }

    /// Join `other` into `self`; true if `self` changed. Every change moves
    /// up a finite-height lattice: a value only climbs (exact → object →
    /// segment → ⊤), a taint only sets, a slot or kill only disappears.
    fn join(&mut self, other: &RegState, objs: &ObjMap) -> bool {
        let mut changed = false;
        for i in 0..16 {
            let j = self.vals[i].join(other.vals[i], objs);
            if j != self.vals[i] {
                self.vals[i] = j;
                changed = true;
            }
            let t = self.taint[i] || other.taint[i];
            if t != self.taint[i] {
                self.taint[i] = t;
                changed = true;
            }
        }
        // Slots: keep the offsets known on both paths, joining contents.
        changed |= self.slots.intersect(&other.slots, |(sv, st), (ov, ot)| {
            let nv = sv.join(ov, objs);
            let nt = *st || ot;
            let moved = (nv, nt) != (*sv, *st);
            (*sv, *st) = (nv, nt);
            moved
        });
        changed |= self.kills.meet(&other.kills);
        changed
    }
}

/// Why an instruction was classified as a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkReason {
    /// Integer load of a location that may hold FP data (Fig. 6/7).
    IntLoadOfFp,
    /// `movq r64, xmm` — direct FP-to-integer register leak.
    MovqLeak,
    /// Bitwise FP op (`xorpd`/`andpd`/`orpd`) — compiler sign/abs idiom.
    BitwiseFp,
}

/// A sink instruction that must be patched with a correctness trap.
#[derive(Debug, Clone, Copy)]
pub struct Sink {
    /// Instruction address.
    pub addr: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Encoded length.
    pub len: u8,
    /// Classification.
    pub reason: SinkReason,
}

/// Analysis summary statistics (reported by the `reproduce` harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Instructions analyzed.
    pub instructions: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Functions.
    pub functions: usize,
    /// Function contexts analyzed (equals `functions` without `ctx_k1`).
    pub contexts: usize,
    /// Integer loads examined (unique sites).
    pub loads_total: usize,
    /// Integer loads proven safe (not patched).
    pub loads_proven_safe: usize,
    /// Outer fixpoint rounds.
    pub rounds: usize,
    /// Sink instructions found by the analysis.
    pub sinks_found: usize,
    /// Sinks demoted by the backward box-liveness pass (never observed by
    /// the integer world); included in `loads_proven_safe`.
    pub sinks_demoted_live: usize,
    /// Sinks actually patched with correctness traps (filled by the
    /// patcher; zero when only [`analyze`] ran).
    pub sinks_patched: usize,
    /// Sinks skipped because the side table ran out of u16 ids.
    pub sinks_skipped_table_full: usize,
    /// Sinks skipped because a branch targets the middle of the
    /// would-be patch span.
    pub sinks_skipped_straddle: usize,
}

/// Full analysis result.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Sink instructions to patch.
    pub sinks: Vec<Sink>,
    /// Statistics.
    pub stats: AnalysisStats,
}

/// A context's frame typing: which of its frame slots may hold FP data.
struct FnCtx {
    stack_fp: BTreeSet<i64>,
    stack_any: bool,
}

impl FnCtx {
    fn new() -> FnCtx {
        FnCtx {
            stack_fp: BTreeSet::new(),
            stack_any: false,
        }
    }
}

/// A function analysis context: (entry, immediate call site). Site 0 is
/// the root/unknown-caller context (⊤ arguments).
type CtxKey = (u64, u64);

/// k=1 call-site summaries: joined abstract arguments and return values,
/// memoized per (callee, call site).
struct CallState {
    enabled: bool,
    /// (callee, site) → joined [`INT_ARGS`] values at the site.
    inputs: BTreeMap<CtxKey, [AVal; 6]>,
    /// (callee, site) → joined abstract return value (RAX at `ret`).
    rets: BTreeMap<CtxKey, AVal>,
}

/// Outer rounds the k=1 context fixpoint may take before the analysis
/// falls back to the context-insensitive mode.
const CTX_ROUND_CAP: usize = 24;

/// Run the analysis on a program image with the paper-faithful default
/// configuration (one-cell heap summary, first-generation passes only).
pub fn analyze(p: &Program) -> Analysis {
    analyze_with(p, &AnalysisConfig::default())
}

/// Run the analysis on a program image under an explicit configuration.
pub fn analyze_with(p: &Program, acfg: &AnalysisConfig) -> Analysis {
    let cfg = Cfg::build(p);
    let objs = ObjMap::new(p);
    let env = Env { acfg, objs: &objs };
    let layouts: HashMap<u64, FnLayout> = cfg
        .functions
        .iter()
        .filter_map(|&f| Some((f, FnLayout::new(&cfg, f)?)))
        .collect();
    let mut solver = Solver::new(&cfg, &env, &layouts, p.entry, acfg.ctx_k1);
    if !solver.converge() {
        // The k=1 context fixpoint hit its round cap: fall back to the
        // context-insensitive mode, which always converges (sound, less
        // precise).
        solver = Solver::new(&cfg, &env, &layouts, p.entry, false);
        solver.converge();
    }
    solver.finish()
}

struct Env<'a> {
    acfg: &'a AnalysisConfig,
    objs: &'a ObjMap,
}

/// The contexts to analyze this round: root + every recorded call site +
/// an unknown-caller fallback for functions nobody (yet) calls.
fn round_contexts(
    cfg: &Cfg,
    calls: &CallState,
    root: u64,
    fallbacks: &BTreeSet<u64>,
) -> Vec<CtxKey> {
    if !calls.enabled {
        return cfg.functions.iter().map(|&f| (f, 0)).collect();
    }
    let mut ctxs: BTreeSet<CtxKey> = BTreeSet::new();
    ctxs.insert((root, 0));
    for &key in calls.inputs.keys() {
        if cfg.functions.contains(&key.0) {
            ctxs.insert(key);
        }
    }
    for &f in fallbacks {
        ctxs.insert((f, 0));
    }
    ctxs.into_iter().collect()
}

/// One function's blocks in address order, with each block's
/// intra-procedural successors as indices into the same order. Address
/// order puts a loop's body before the code after the loop, whether the
/// loop tests at the top or the bottom, so the worklist settles a loop
/// before it moves on.
struct FnLayout<'c> {
    blocks: Vec<&'c Block>,
    succs: Vec<Vec<usize>>,
    /// Index of the entry block.
    entry: usize,
}

impl<'c> FnLayout<'c> {
    /// `None` if the function owns no block at its entry address.
    fn new(cfg: &'c Cfg, entry: u64) -> Option<FnLayout<'c>> {
        let blocks = cfg.function_blocks(entry);
        let index: HashMap<u64, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.start, i))
            .collect();
        let succs = blocks
            .iter()
            .map(|b| {
                b.succs
                    .iter()
                    .filter_map(|s| index.get(s).copied())
                    .collect()
            })
            .collect();
        Some(FnLayout {
            entry: *index.get(&entry)?,
            blocks,
            succs,
        })
    }
}

/// A context's solver state, kept from one outer round to the next.
struct CtxState {
    frame: FnCtx,
    /// Block-entry states, indexed like the function's [`FnLayout`];
    /// `None` until the block is reached.
    entries: Vec<Option<RegState>>,
}

/// The state a context starts from: ⊤ registers, or under `ctx_k1` the
/// arguments its call site passes.
fn entry_state(key: CtxKey, calls: &CallState) -> RegState {
    let mut start = RegState::entry();
    if calls.enabled && key.1 != 0 {
        if let Some(args) = calls.inputs.get(&key) {
            for (i, &r) in INT_ARGS.iter().enumerate() {
                start.vals[r] = args[i];
            }
        }
    }
    start
}

/// The outer fixpoint over the shared memory typing, frame typing and
/// (under `ctx_k1`) the call summaries.
///
/// Rounds are warm-started: every context keeps its block-entry states
/// from the round before. The shared typing only grows between rounds, so
/// the last round's fixpoint lies below the next one and is a valid
/// start; each round re-visits every reached block, because any of them
/// may read what grew. Sinks are then classified in one sweep over the
/// converged states ([`Solver::finish`]).
struct Solver<'a> {
    cfg: &'a Cfg,
    env: &'a Env<'a>,
    layouts: &'a HashMap<u64, FnLayout<'a>>,
    root: u64,
    mem: MemTypes,
    calls: CallState,
    ctxs: BTreeMap<CtxKey, CtxState>,
    /// Functions with no recorded caller after convergence of the called
    /// set: analyzed in the unknown-caller context for soundness (they may
    /// still run through computed control flow).
    fallbacks: BTreeSet<u64>,
    /// The last round's contexts.
    contexts: Vec<CtxKey>,
    rounds: usize,
    /// The state a visit runs its block on, reused by every visit.
    scratch: RegState,
}

impl<'a> Solver<'a> {
    fn new(
        cfg: &'a Cfg,
        env: &'a Env<'a>,
        layouts: &'a HashMap<u64, FnLayout<'a>>,
        root: u64,
        ctx_on: bool,
    ) -> Solver<'a> {
        Solver {
            cfg,
            env,
            layouts,
            root,
            mem: MemTypes::default(),
            calls: CallState {
                enabled: ctx_on,
                inputs: BTreeMap::new(),
                rets: BTreeMap::new(),
            },
            ctxs: BTreeMap::new(),
            fallbacks: BTreeSet::new(),
            contexts: Vec::new(),
            rounds: 0,
            scratch: RegState::entry(),
        }
    }

    /// Each context's frame-typing size, for the round's change check.
    fn frames(&self) -> Vec<(CtxKey, usize, bool)> {
        self.ctxs
            .iter()
            .map(|(k, c)| (*k, c.frame.stack_fp.len(), c.frame.stack_any))
            .collect()
    }

    /// Run rounds until one changes nothing shared. Returns false if the
    /// k=1 context fixpoint passes [`CTX_ROUND_CAP`] rounds first.
    ///
    /// The context-insensitive fixpoint needs no cap. Block states only
    /// climb a finite-height lattice, across rounds too, and the values
    /// they hold do not depend on the memory typing (only taints do). So
    /// the locations the program can mark as FP form a finite set, and
    /// every round but the last marks a new one.
    fn converge(&mut self) -> bool {
        loop {
            self.rounds += 1;
            let before_mem = self.mem.clone();
            let before_inputs = self.calls.inputs.clone();
            let before_rets = self.calls.rets.clone();
            let frames_before = self.frames();
            self.contexts = round_contexts(self.cfg, &self.calls, self.root, &self.fallbacks);
            for i in 0..self.contexts.len() {
                self.solve(self.contexts[i]);
            }
            let stable = self.mem == before_mem
                && self.frames() == frames_before
                && self.calls.inputs == before_inputs
                && self.calls.rets == before_rets;
            if stable {
                if !self.calls.enabled {
                    return true;
                }
                // Pull in functions still uncalled at the fixpoint; loop
                // again if that adds work, otherwise we are done.
                let called: BTreeSet<u64> = self.calls.inputs.keys().map(|&(f, _)| f).collect();
                let new_fb: Vec<u64> = self
                    .cfg
                    .functions
                    .iter()
                    .copied()
                    .filter(|&f| {
                        f != self.root && !called.contains(&f) && !self.fallbacks.contains(&f)
                    })
                    .collect();
                if new_fb.is_empty() {
                    return true;
                }
                self.fallbacks.extend(new_fb);
            }
            if self.calls.enabled && self.rounds > CTX_ROUND_CAP {
                return false;
            }
        }
    }

    /// Bring one context's block states to a fixpoint under the current
    /// shared typing, starting from where its last solve left them.
    fn solve(&mut self, key: CtxKey) {
        let lay = self.layouts.get(&key.0);
        let n = lay.map_or(0, |l| l.blocks.len());
        let st = self.ctxs.entry(key).or_insert_with(|| CtxState {
            frame: FnCtx::new(),
            entries: vec![None; n],
        });
        let Some(lay) = lay else {
            return;
        };
        let start = entry_state(key, &self.calls);
        match &mut st.entries[lay.entry] {
            Some(e) => {
                e.join(&start, self.env.objs);
            }
            e @ None => *e = Some(start),
        }
        // The lowest pending index (address order) runs next; a block
        // queued twice runs once.
        let mut pending: BTreeSet<usize> = (0..n).filter(|&b| st.entries[b].is_some()).collect();
        while let Some(b) = pending.pop_first() {
            let Some(entry) = &st.entries[b] else {
                continue;
            };
            self.scratch.clone_from(entry);
            for site in &lay.blocks[b].insts {
                transfer(
                    site,
                    &mut self.scratch,
                    self.env,
                    &mut self.mem,
                    &mut st.frame,
                    &mut self.calls,
                    key,
                    None,
                );
            }
            for &succ in &lay.succs[b] {
                match &mut st.entries[succ] {
                    Some(e) => {
                        if e.join(&self.scratch, self.env.objs) {
                            pending.insert(succ);
                        }
                    }
                    e @ None => {
                        *e = Some(self.scratch.clone());
                        pending.insert(succ);
                    }
                }
            }
        }
    }

    /// Classify sinks in one sweep over the converged block states, then
    /// assemble the result.
    fn finish(mut self) -> Analysis {
        let cfg = self.cfg;
        let acfg = self.env.acfg;
        let mut col = SinkCollector::default();
        for &key in &self.contexts {
            let (Some(lay), Some(st)) = (self.layouts.get(&key.0), self.ctxs.get_mut(&key)) else {
                continue;
            };
            for (block, entry) in lay.blocks.iter().zip(&st.entries) {
                let Some(entry) = entry else {
                    continue;
                };
                self.scratch.clone_from(entry);
                for site in &block.insts {
                    transfer(
                        site,
                        &mut self.scratch,
                        self.env,
                        &mut self.mem,
                        &mut st.frame,
                        &mut self.calls,
                        key,
                        Some(&mut col),
                    );
                }
            }
        }
        // Blocks owned by no recovered function are reachable only through
        // computed control flow the CFG cannot see (e.g. `push addr; ret`);
        // degrade soundly: every load there is a sink.
        for (start, block) in &cfg.blocks {
            if cfg.block_fn.contains_key(start) {
                continue;
            }
            for site in &block.insts {
                match site.inst {
                    Inst::Load { .. } => col.note_load(site, ALoc::Any, true),
                    Inst::MovQXG { .. } => col.note_sink(site, SinkReason::MovqLeak),
                    Inst::XorPd { .. } | Inst::AndPd { .. } | Inst::OrPd { .. } => {
                        col.note_sink(site, SinkReason::BitwiseFp)
                    }
                    _ => {}
                }
            }
        }
        let mut sinks: Vec<Sink> = col.sinks.values().copied().collect();
        let mut demoted = 0usize;
        if acfg.liveness {
            let facts = ObservationFacts {
                load_slots: col.load_slots,
                store_slots: col.store_slots,
            };
            let dead = liveness::demote_unobserved(cfg, &sinks, &facts);
            demoted = dead.len();
            sinks.retain(|s| !dead.contains(&s.addr));
        }
        let loads_total = col.load_sink.len();
        let loads_safe = col.load_sink.values().filter(|&&t| !t).count() + demoted;
        let sinks_found = sinks.len();
        Analysis {
            sinks,
            stats: AnalysisStats {
                instructions: cfg.inst_count,
                blocks: cfg.blocks.len(),
                functions: cfg.functions.len(),
                contexts: self.contexts.len(),
                loads_total,
                loads_proven_safe: loads_safe,
                rounds: self.rounds,
                sinks_found,
                sinks_demoted_live: demoted,
                sinks_patched: 0,
                sinks_skipped_table_full: 0,
                sinks_skipped_straddle: 0,
            },
        }
    }
}

/// Sweep accumulator: per-site sink/safety verdicts (unioned across
/// contexts) plus the slot resolutions the liveness pass consumes.
#[derive(Default)]
struct SinkCollector {
    sinks: BTreeMap<u64, Sink>,
    /// Load site → classified as a sink in any context.
    load_sink: BTreeMap<u64, bool>,
    load_slots: BTreeMap<u64, Option<i64>>,
    store_slots: BTreeMap<u64, Option<i64>>,
}

impl SinkCollector {
    fn note_sink(&mut self, site: &Site, reason: SinkReason) {
        self.sinks.entry(site.addr).or_insert(Sink {
            addr: site.addr,
            inst: site.inst,
            len: site.len,
            reason,
        });
    }

    fn note_load(&mut self, site: &Site, loc: ALoc, taint: bool) {
        let e = self.load_sink.entry(site.addr).or_insert(false);
        *e |= taint;
        if taint {
            self.note_sink(site, SinkReason::IntLoadOfFp);
        }
        note_slot(&mut self.load_slots, site.addr, loc);
    }

    fn note_store(&mut self, site: &Site, loc: ALoc) {
        note_slot(&mut self.store_slots, site.addr, loc);
    }
}

/// Record the exact frame slot a site touches; conflicting resolutions
/// across contexts merge to `None` (imprecise — liveness stays safe).
fn note_slot(map: &mut BTreeMap<u64, Option<i64>>, addr: u64, loc: ALoc) {
    let slot = match loc {
        ALoc::StackOff(o) => Some(o & !7),
        _ => None,
    };
    map.entry(addr)
        .and_modify(|e| {
            if *e != slot {
                *e = None;
            }
        })
        .or_insert(slot);
}

fn classify_addr(s: &RegState, m: &Mem, objs: &ObjMap) -> ALoc {
    let base = match m.base {
        None => AVal::Const(0),
        Some(r) => s.vals[r.0 as usize],
    };
    let base = base.add_const(m.disp);
    let full = if let Some(index) = m.index {
        // Treat the index as an unknown offset unless it is a known const.
        match s.vals[index.0 as usize] {
            AVal::Const(c) => base.add_const(c.wrapping_mul(i64::from(m.scale))),
            _ => base.add_unknown(objs),
        }
    } else {
        base
    };
    aval_to_loc(full, objs)
}

fn aval_to_loc(v: AVal, objs: &ObjMap) -> ALoc {
    match v {
        AVal::Stack(o) => ALoc::StackOff(o),
        AVal::StackAny => ALoc::StackAny,
        AVal::Global(a) => ALoc::GlobalWord(a),
        AVal::GlobalObj(k) => ALoc::GlobalObj(k),
        AVal::GlobalAny => ALoc::GlobalAny,
        AVal::HeapSite(s) => ALoc::HeapSite(s),
        AVal::Heap => ALoc::Heap,
        AVal::Const(c) => {
            // A constant address (absolute operands).
            let u = c as u64;
            if (DATA_BASE..HEAP_BASE).contains(&u) {
                ALoc::GlobalWord(u)
            } else if u >= HEAP_BASE {
                ALoc::Heap
            } else {
                ALoc::Any
            }
        }
        AVal::Bottom | AVal::Top => ALoc::Any,
    }
    .widen_if_needed(objs)
}

trait WidenExt {
    fn widen_if_needed(self, objs: &ObjMap) -> ALoc;
}
impl WidenExt for ALoc {
    /// Widen exact locations the lattice cannot justify keeping exact:
    ///
    /// * a data-segment word outside every recorded object is a stray
    ///   computed pointer (e.g. a strided cursor that left its array) —
    ///   widen to the whole data segment;
    /// * a stack offset at or above the entry RSP points into the caller's
    ///   frame or the return-address area, where no per-function slot
    ///   discipline exists — widen to ⊤ memory.
    fn widen_if_needed(self, objs: &ObjMap) -> ALoc {
        match self {
            ALoc::GlobalWord(a) if objs.resolve(a).is_none() => ALoc::GlobalAny,
            ALoc::StackOff(o) if o >= 0 => ALoc::Any,
            x => x,
        }
    }
}

const CALLER_SAVED: [usize; 9] = [0, 1, 2, 6, 7, 8, 9, 10, 11]; // rax rcx rdx rsi rdi r8-r11

/// Integer argument registers in ABI order: rdi rsi rdx rcx r8 r9.
const INT_ARGS: [usize; 6] = [7, 6, 2, 1, 8, 9];

/// Values crossing a call boundary lose frame-relative meaning (the
/// callee's entry-RSP differs from the caller's).
fn widen_frame_escape(v: AVal) -> AVal {
    match v {
        AVal::Stack(_) | AVal::StackAny => AVal::Top,
        x => x,
    }
}

#[allow(clippy::too_many_arguments)]
fn transfer(
    site: &Site,
    s: &mut RegState,
    env: &Env,
    mem: &mut MemTypes,
    ctx: &mut FnCtx,
    calls: &mut CallState,
    cur: CtxKey,
    collect: Option<&mut SinkCollector>,
) {
    use Inst::*;
    let inst = &site.inst;
    let acfg = env.acfg;
    let objs = env.objs;
    let fm = acfg.flow_mem;
    // Helper: record a store's effect on frame-slot tracking.
    let store_slot = |s: &mut RegState, loc: ALoc, val: AVal, taint: bool| match loc {
        ALoc::StackOff(o) => {
            s.slots.insert(o & !7, (val, taint));
        }
        ALoc::StackAny | ALoc::Any => {
            // Unknown store may have clobbered any slot.
            s.slots.clear();
        }
        _ => {}
    };
    // Helper: an FP source wrote `loc`.
    let fp_store = |s: &mut RegState, mem: &mut MemTypes, ctx: &mut FnCtx, loc: ALoc| {
        mem.mark(loc, ctx);
        if fm {
            s.kills.unkill(loc, objs);
        }
    };
    match inst {
        // ---- FP stores: sources -------------------------------------------
        MovSd {
            dst: XM::Mem(m), ..
        } => {
            let loc = classify_addr(s, m, objs);
            fp_store(s, mem, ctx, loc);
            store_slot(s, loc, AVal::Top, true);
        }
        MovApd {
            dst: XM::Mem(m), ..
        } => {
            let loc = classify_addr(s, m, objs);
            fp_store(s, mem, ctx, loc);
            let loc2 = match loc {
                ALoc::StackOff(o) => ALoc::StackOff(o + 8),
                ALoc::GlobalWord(a) => ALoc::GlobalWord(a + 8),
                x => x,
            };
            fp_store(s, mem, ctx, loc2);
            store_slot(s, loc, AVal::Top, true);
            store_slot(s, loc2, AVal::Top, true);
        }
        // ---- integer world -------------------------------------------------
        MovRI { dst, imm } => {
            s.vals[dst.0 as usize] = classify_const_val(*imm);
            s.taint[dst.0 as usize] = false;
        }
        MovRR { dst, src } => {
            s.vals[dst.0 as usize] = s.vals[src.0 as usize];
            s.taint[dst.0 as usize] = s.taint[src.0 as usize];
        }
        Lea { dst, addr } => {
            let loc = classify_addr(s, addr, objs);
            s.vals[dst.0 as usize] = match loc {
                ALoc::StackOff(o) => AVal::Stack(o),
                ALoc::StackAny => AVal::StackAny,
                ALoc::GlobalWord(a) => AVal::Global(a),
                ALoc::GlobalObj(k) => AVal::GlobalObj(k),
                ALoc::GlobalAny => AVal::GlobalAny,
                ALoc::Heap => AVal::Heap,
                _ => AVal::Top,
            };
            s.taint[dst.0 as usize] = false;
        }
        Load { dst, addr, w } => {
            let loc = classify_addr(s, addr, objs);
            let (val, mut taint) = match loc {
                ALoc::StackOff(o) => match s.slots.get(o & !7) {
                    Some(vt) => vt,
                    None => (AVal::Top, mem.maybe_fp(loc, ctx, objs)),
                },
                _ => (AVal::Top, mem.maybe_fp(loc, ctx, objs)),
            };
            // A strong update killed the location's FP typing on every
            // path here: the monotone summary is stale for this point.
            if fm && s.kills.covers(loc) {
                taint = false;
            }
            if let Some(c) = collect {
                c.note_load(site, loc, taint);
            }
            let _ = w;
            s.vals[dst.0 as usize] = val;
            // Under flow_mem the patch contract is part of the model: a
            // sink load is patched and its trap demotes, so the register
            // receives raw bits either way.
            s.taint[dst.0 as usize] = taint && !fm;
        }
        Store { addr, src, .. } => {
            let loc = classify_addr(s, addr, objs);
            let taint = s.taint[src.0 as usize];
            if taint {
                fp_store(s, mem, ctx, loc);
            } else if fm {
                s.kills.kill(loc);
            }
            // A stack pointer escaping to non-stack memory breaks frame
            // locality; flag the whole frame.
            if matches!(s.vals[src.0 as usize], AVal::Stack(_) | AVal::StackAny)
                && !matches!(loc, ALoc::StackOff(_) | ALoc::StackAny)
            {
                ctx.stack_any = true;
            }
            if let Some(c) = collect {
                c.note_store(site, loc);
            }
            store_slot(s, loc, s.vals[src.0 as usize], taint);
        }
        MovQXG { dst, .. } => {
            if let Some(c) = collect {
                c.note_sink(site, SinkReason::MovqLeak);
            }
            s.vals[dst.0 as usize] = AVal::Top;
            // Always patched; under flow_mem the demotion is modeled.
            s.taint[dst.0 as usize] = !fm;
        }
        MovQGX { .. } => {}
        XorPd { .. } | AndPd { .. } | OrPd { .. } => {
            if let Some(c) = collect {
                c.note_sink(site, SinkReason::BitwiseFp);
            }
        }
        CvtTSd2Si { dst, .. } => {
            s.vals[dst.0 as usize] = AVal::Top;
            s.taint[dst.0 as usize] = false;
        }
        AluRI { op, dst, imm } => {
            let d = dst.0 as usize;
            s.vals[d] = match op {
                AluOp::Add => s.vals[d].add_const(*imm),
                AluOp::Sub => s.vals[d].add_const(imm.wrapping_neg()),
                _ => match s.vals[d] {
                    AVal::Const(c) => eval_alu(*op, c, *imm).map_or(AVal::Top, AVal::Const),
                    _ => AVal::Top,
                },
            };
        }
        AluRR { op, dst, src } => {
            let d = dst.0 as usize;
            let sv = s.vals[src.0 as usize];
            s.vals[d] = match (op, s.vals[d], sv) {
                (AluOp::Add, a, AVal::Const(c)) => a.add_const(c),
                (AluOp::Add, AVal::Const(c), b) => b.add_const(c),
                (AluOp::Add, a, _) => a.add_unknown(objs),
                (AluOp::Sub, a, AVal::Const(c)) => a.add_const(c.wrapping_neg()),
                (_, AVal::Const(a), AVal::Const(b)) => {
                    eval_alu(*op, a, b).map_or(AVal::Top, AVal::Const)
                }
                _ => AVal::Top,
            };
            s.taint[d] = s.taint[d] || s.taint[src.0 as usize];
        }
        DivR { dst, .. } | RemR { dst, .. } => {
            s.vals[dst.0 as usize] = AVal::Top;
        }
        Push { src } => {
            let rsp = Gpr::RSP.0 as usize;
            s.vals[rsp] = s.vals[rsp].add_const(-8);
            if let AVal::Stack(o) = s.vals[rsp] {
                let t = s.taint[src.0 as usize];
                if t {
                    fp_store(s, mem, ctx, ALoc::StackOff(o));
                } else if fm {
                    s.kills.kill(ALoc::StackOff(o));
                }
                s.slots.insert(o & !7, (s.vals[src.0 as usize], t));
            }
        }
        Pop { dst } => {
            let rsp = Gpr::RSP.0 as usize;
            let (val, mut taint) = match s.vals[rsp] {
                AVal::Stack(o) => {
                    let (v, mut t) = match s.slots.get(o & !7) {
                        Some(vt) => vt,
                        None => (AVal::Top, mem.maybe_fp(ALoc::StackOff(o), ctx, objs)),
                    };
                    if fm && s.kills.covers(ALoc::StackOff(o)) {
                        t = false;
                    }
                    (v, t)
                }
                _ => (AVal::Top, true),
            };
            if mem.any_fp {
                taint = true;
            }
            s.vals[dst.0 as usize] = val;
            s.taint[dst.0 as usize] = taint;
            s.vals[rsp] = s.vals[rsp].add_const(8);
        }
        Call { rel } => {
            let target = (site.addr + u64::from(site.len)).wrapping_add(i64::from(*rel) as u64);
            if calls.enabled {
                let key = (target, site.addr);
                let args = calls.inputs.entry(key).or_insert([AVal::Bottom; 6]);
                for (i, &r) in INT_ARGS.iter().enumerate() {
                    args[i] = args[i].join(widen_frame_escape(s.vals[r]), objs);
                }
            }
            for &r in &CALLER_SAVED {
                s.vals[r] = AVal::Top;
                // Integer return values are not FP bits under the ABI
                // discipline (FP returns travel in xmm0) — documented
                // assumption in DESIGN.md.
                s.taint[r] = false;
            }
            if calls.enabled {
                // The memoized k=1 return summary; ⊥ until a `ret` is
                // seen for this context (the outer fixpoint fills it in).
                s.vals[Gpr::RAX.0 as usize] = calls
                    .rets
                    .get(&(target, site.addr))
                    .copied()
                    .unwrap_or(AVal::Bottom);
            }
            if fm {
                // The callee may FP-store through any pointer it holds.
                s.kills = Kills::default();
            }
        }
        Ret if calls.enabled => {
            let e = calls.rets.entry(cur).or_insert(AVal::Bottom);
            *e = e.join(widen_frame_escape(s.vals[Gpr::RAX.0 as usize]), objs);
        }
        CallExt { f } => {
            let rax = Gpr::RAX.0 as usize;
            s.vals[rax] = if *f == ExtFn::AllocHeap {
                match acfg.heap {
                    // Under allocation-site partitioning the call site
                    // itself names the abstract object.
                    HeapModel::AllocSite => AVal::HeapSite(site.addr),
                    HeapModel::OneCell => AVal::Heap,
                }
            } else {
                AVal::Top
            };
            s.taint[rax] = false;
            // Runtime shims read only scalar arguments and never write
            // guest-visible memory words, so kill sets survive the call.
        }
        _ => {}
    }
}

fn eval_alu(op: AluOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        AluOp::Sar => a.wrapping_shr(b as u32 & 63),
        AluOp::IMul => a.wrapping_mul(b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::{Asm, Cond, Gpr, Mem, Width, Xmm};

    #[test]
    fn fig6_pattern_is_a_sink() {
        // The paper's Fig. 6: store a double to the stack, reload as int.
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 16);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0)); // source
        a.load_w(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8), Width::W32); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.sinks.len(), 1);
        assert_eq!(an.sinks[0].reason, SinkReason::IntLoadOfFp);
        assert!(matches!(an.sinks[0].inst, Inst::Load { .. }));
    }

    #[test]
    fn integer_only_loads_proven_safe() {
        let mut a = Asm::new();
        let g = a.global("counter", 8);
        a.mov_ri(Gpr::RAX, 5);
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(g as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(an.sinks.is_empty(), "{:?}", an.sinks);
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(an.stats.loads_proven_safe, 1);
    }

    #[test]
    fn movq_and_bitwise_always_sinks() {
        let mut a = Asm::new();
        let mask = a.u128c([1 << 63, 0]);
        a.movq_xg(Gpr::RAX, Xmm(0));
        a.xorpd(Xmm(0), Mem::abs(mask as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.sinks.len(), 2);
        assert_eq!(an.sinks[0].reason, SinkReason::MovqLeak);
        assert_eq!(an.sinks[1].reason, SinkReason::BitwiseFp);
    }

    #[test]
    fn fig7_heap_indirection_is_conservative() {
        // Fig. 7: FP stored through a heap pointer, integer loaded back.
        let mut a = Asm::new();
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 8), Xmm(0)); // ptr->d = fp
        a.mov_ri(Gpr::RDX, 0);
        a.store(Mem::base_disp(Gpr::RAX, 0), Gpr::RDX); // ptr->i = 0
        a.load_w(Gpr::RCX, Mem::base_disp(Gpr::RAX, 8), Width::W32); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "heap load after heap FP store must be a sink: {:?}",
            an.sinks
        );
        // The heap summary is one cell: no heap load can be proven safe
        // once any FP value landed on the heap (conservative imprecision —
        // exactly the Enzo situation of §5.3).
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(an.stats.loads_proven_safe, 0);
    }

    #[test]
    fn alloc_site_partitioning_separates_heap_allocations() {
        // Two allocations from distinct call sites: FP lands in the first,
        // integers in the second. One-cell merges them (both loads sink);
        // allocation-site partitioning proves the integer-only load safe.
        let mut a = Asm::new();
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 32);
        a.call_ext(ExtFn::AllocHeap); // site A
        a.mov_rr(Gpr::RBX, Gpr::RAX);
        a.mov_ri(Gpr::RDI, 32);
        a.call_ext(ExtFn::AllocHeap); // site B
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0)); // FP -> A
        a.mov_ri(Gpr::RDX, 7);
        a.store(Mem::base_disp(Gpr::RAX, 0), Gpr::RDX); // int -> B
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RAX, 0)); // from B: safe
        a.load(Gpr::RSI, Mem::base_disp(Gpr::RBX, 0)); // from A: sink
        a.halt();
        let p = a.finish();

        let one = analyze(&p);
        assert_eq!(one.stats.loads_total, 2);
        assert_eq!(
            one.stats.loads_proven_safe, 0,
            "one-cell heap must merge both allocations"
        );

        let cfg = AnalysisConfig {
            heap: HeapModel::AllocSite,
            ..Default::default()
        };
        let an = analyze_with(&p, &cfg);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(
            an.stats.loads_proven_safe, 1,
            "alloc-site heap must prove the integer allocation safe: {:?}",
            an.sinks
        );
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1
        );
        // The FP-bearing allocation is still a sink under both models
        // (soundness is preserved; only precision improves).
        assert!(an.sinks.iter().all(|s| one
            .sinks
            .iter()
            .any(|o| o.addr == s.addr && o.reason == s.reason)));
    }

    #[test]
    fn taint_through_gpr_store() {
        // movq leak -> integer store -> integer load elsewhere: the final
        // load must be a sink even though no FP store wrote that word.
        let mut a = Asm::new();
        let g = a.global("slot", 8);
        a.movq_xg(Gpr::RAX, Xmm(3));
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(g as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        let load_sinks: Vec<_> = an
            .sinks
            .iter()
            .filter(|s| s.reason == SinkReason::IntLoadOfFp)
            .collect();
        assert_eq!(load_sinks.len(), 1);
    }

    #[test]
    fn distinct_globals_are_distinguished() {
        // FP in global A, integer in global B: loading B is safe, loading
        // A is a sink.
        let mut a = Asm::new();
        let ga = a.global_f64("a", 0.0);
        let gb = a.global("b", 8);
        let c = a.f64m(1.5);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(ga as i64), Xmm(0));
        a.mov_ri(Gpr::RAX, 1);
        a.store(Mem::abs(gb as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(gb as i64)); // safe
        a.load(Gpr::RCX, Mem::abs(ga as i64)); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1);
        assert_eq!(an.sinks.len(), 1);
    }

    #[test]
    fn object_granularity_separates_arrays() {
        // FP array and integer index array as distinct global objects,
        // accessed through computed indices: integer loads from the index
        // array stay safe even though the FP array is written.
        let mut a = Asm::new();
        let fp_arr = a.f64_array("vals", &[0.0; 16]);
        let idx_arr = a.i64_array("cols", &[0; 16]);
        let c = a.f64m(3.25);
        // vals[rcx*8] = 3.25 (computed index).
        a.mov_ri(Gpr::RCX, 5);
        a.mov_ri(Gpr::RBX, fp_arr as i64);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::bis(Gpr::RBX, Gpr::RCX, 8, 0), Xmm(0));
        // rax = cols[rcx*8] — integer array, must be safe.
        a.mov_ri(Gpr::RDX, idx_arr as i64);
        a.load(Gpr::RAX, Mem::bis(Gpr::RDX, Gpr::RCX, 8, 0));
        // rbx2 = vals[rcx*8] as integer — must be a sink.
        a.load(Gpr::RSI, Mem::bis(Gpr::RBX, Gpr::RCX, 8, 0));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1, "{:?}", an.sinks);
        assert_eq!(an.sinks.len(), 1);
    }

    #[test]
    fn pointer_roundtrip_through_frame_slot() {
        // A global pointer spilled to the frame and reloaded must keep its
        // object identity (the -O0 codegen pattern).
        let mut a = Asm::new();
        let fp_arr = a.f64_array("vals", &[0.0; 8]);
        let int_arr = a.i64_array("idx", &[0; 8]);
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        // Spill &vals and &idx to the frame.
        a.mov_ri(Gpr::RAX, fp_arr as i64);
        a.store(Mem::base_disp(Gpr::RSP, 0), Gpr::RAX);
        a.mov_ri(Gpr::RAX, int_arr as i64);
        a.store(Mem::base_disp(Gpr::RSP, 8), Gpr::RAX);
        // Store FP through the reloaded vals pointer.
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RSP, 0));
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RCX, 16), Xmm(0));
        // Integer-load through the reloaded idx pointer: SAFE.
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RSP, 8));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RCX, 16));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        // 3 integer loads total: the two pointer reloads + idx[2].
        assert_eq!(an.stats.loads_total, 3);
        assert_eq!(
            an.stats.loads_proven_safe, 3,
            "pointer identity must survive the frame round-trip: {:?}",
            an.sinks
        );
    }

    #[test]
    fn loop_fixpoint_converges() {
        // FP store happens on a back edge after the load in program order:
        // the fixpoint must still flag the load.
        let mut a = Asm::new();
        let g = a.global("x", 8);
        let c = a.f64m(1.5);
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, 4);
        a.jcc(fpvm_machine::Cond::Ge, done);
        a.load(Gpr::RAX, Mem::abs(g as i64)); // reads FP on iterations > 0
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0)); // source, later in the loop
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "loop-carried FP flow must be found"
        );
    }

    #[test]
    fn calls_are_analyzed_interprocedurally() {
        // Callee stores FP to a global; caller integer-loads it.
        let mut a = Asm::new();
        let g = a.global_f64("shared", 0.0);
        let c = a.f64m(3.5);
        let f = a.label();
        a.call(f);
        a.load(Gpr::RAX, Mem::abs(g as i64)); // sink
        a.halt();
        a.bind(f);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0));
        a.ret();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1
        );
        assert!(an.stats.functions >= 2);
    }

    // ---- second-generation passes -------------------------------------

    #[test]
    fn strided_stack_loop_widens_without_poisoning_globals() {
        // A cursor walking the frame across a back-edge joins to the
        // frame summary (StackAny) instead of ⊤, so the FP stores through
        // it poison only stack typing — an unrelated global integer load
        // stays provably safe (pre-widening it degraded to any_fp and
        // everything sank).
        let mut a = Asm::new();
        let g = a.global("counter", 8);
        let c = a.f64m(1.0);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 64);
        a.mov_rr(Gpr::RBX, Gpr::RSP); // cursor
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, 4);
        a.jcc(Cond::Ge, done);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0)); // *cursor = fp
        a.alu_ri(AluOp::Add, Gpr::RBX, 8); // cursor += 8 (strided)
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.mov_ri(Gpr::RAX, 7);
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RDX, Mem::abs(g as i64)); // must stay safe
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(
            an.stats.loads_proven_safe, 1,
            "a widened stack cursor must not poison global typing: {:?}",
            an.sinks
        );
        // And the conservative side: a frame load in the same function IS
        // suspect once the widened cursor wrote FP somewhere in the frame.
        let mut b = Asm::new();
        let c2 = b.f64m(1.0);
        b.alu_ri(AluOp::Sub, Gpr::RSP, 64);
        b.mov_rr(Gpr::RBX, Gpr::RSP);
        b.mov_ri(Gpr::RCX, 0);
        let top2 = b.here_label();
        let done2 = b.label();
        b.cmp_ri(Gpr::RCX, 4);
        b.jcc(Cond::Ge, done2);
        b.movsd(Xmm(0), c2);
        b.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0));
        b.alu_ri(AluOp::Add, Gpr::RBX, 8);
        b.alu_ri(AluOp::Add, Gpr::RCX, 1);
        b.jmp(top2);
        b.bind(done2);
        b.load(Gpr::RDX, Mem::base_disp(Gpr::RSP, 48)); // frame slot: sink
        b.halt();
        let p2 = b.finish();
        let an2 = analyze(&p2);
        assert!(
            an2.sinks
                .iter()
                .any(|s| s.reason == SinkReason::IntLoadOfFp),
            "frame loads must stay conservative under the widened cursor"
        );
    }

    #[test]
    fn stray_global_pointer_widens_to_segment() {
        // A computed data-segment address outside every recorded object
        // widens to GlobalAny: an FP store through it must make global
        // loads conservative rather than silently staying "exact word".
        let mut a = Asm::new();
        let g = a.global("n", 8);
        let c = a.f64m(1.0);
        // A stray pointer: mid-segment, far past the last object.
        a.mov_ri(Gpr::RBX, (DATA_BASE + 0x8_0000) as i64);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0));
        a.load(Gpr::RAX, Mem::abs(g as i64)); // conservative: sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "stray-pointer FP store must degrade to the whole segment"
        );
    }

    #[test]
    fn flow_mem_strong_update_survives_unknown_int_store() {
        // FP spill types a slot; an integer store strongly updates it;
        // then an unknown (untainted) store wipes the slot *value* map.
        // The monotone typing calls the reload a sink; the kill set knows
        // the last write was an integer.
        let mut a = Asm::new();
        let g = a.global("cell", 8);
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0)); // slot ← FP
        a.mov_ri(Gpr::RAX, 7);
        a.store(Mem::base_disp(Gpr::RSP, 8), Gpr::RAX); // strong update
        a.load(Gpr::RDX, Mem::abs(g as i64)); // RDX = ⊤ (safe load)
        a.mov_ri(Gpr::RCX, 1);
        a.store(Mem::base_disp(Gpr::RDX, 0), Gpr::RCX); // unknown int store
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RSP, 8)); // the reload
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        assert_eq!(
            base.stats.loads_proven_safe, 1,
            "monotone typing must flag the reload: {:?}",
            base.sinks
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                flow_mem: true,
                ..Default::default()
            },
        );
        assert_eq!(
            an.stats.loads_proven_safe, 2,
            "the strong update must survive the unknown integer store: {:?}",
            an.sinks
        );
        assert!(!an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp));
    }

    #[test]
    fn flow_mem_models_demotion_and_stops_taint_cascade() {
        // Heap sink load → result relayed through a global → reload. The
        // first-generation analysis cascades the taint (both loads sink);
        // flow_mem knows the first sink is patched and demotes, so the
        // relay holds raw bits and the reload is safe.
        let mut a = Asm::new();
        let g = a.global("relay", 8);
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 0), Xmm(0)); // FP → heap
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RAX, 0)); // sink (stays)
        a.store(Mem::abs(g as i64), Gpr::RBX); // the cascade relay
        a.load(Gpr::RCX, Mem::abs(g as i64)); // cascade victim
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        assert_eq!(
            base.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            2,
            "first-generation: the taint cascades"
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                flow_mem: true,
                ..Default::default()
            },
        );
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1,
            "flow_mem: the patched sink demotes, the relay is raw: {:?}",
            an.sinks
        );
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1);
    }

    #[test]
    fn ctx_k1_keeps_argument_pointers_precise() {
        // A helper stores FP through its pointer argument. Context-
        // insensitively the argument is ⊤ and the store poisons all
        // memory (any_fp); with k=1 summaries each call site's target is
        // marked exactly and an unrelated integer global stays safe.
        let mut a = Asm::new();
        let fa = a.global_f64("fa", 0.0);
        let fb = a.global_f64("fb", 0.0);
        let gi = a.global("counter", 8);
        let c = a.f64m(2.0);
        let h = a.label();
        a.movsd(Xmm(0), c);
        a.mov_ri(Gpr::RDI, fa as i64);
        a.call(h); // site 1: FP → fa
        a.mov_ri(Gpr::RDI, fb as i64);
        a.call(h); // site 2: FP → fb
        a.mov_ri(Gpr::RAX, 3);
        a.store(Mem::abs(gi as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(gi as i64)); // unrelated int global
        a.halt();
        a.bind(h);
        a.movsd(Mem::base_disp(Gpr::RDI, 0), Xmm(0));
        a.ret();
        let p = a.finish();
        let base = analyze(&p);
        assert!(
            base.sinks
                .iter()
                .any(|s| s.reason == SinkReason::IntLoadOfFp),
            "context-insensitive: the ⊤-argument store poisons everything"
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                ctx_k1: true,
                ..Default::default()
            },
        );
        assert!(
            !an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "k=1 contexts must keep the argument pointers exact: {:?}",
            an.sinks
        );
        assert!(
            an.stats.contexts >= 3,
            "root + one context per call site: {}",
            an.stats.contexts
        );
    }

    #[test]
    fn ctx_k1_tracks_return_values() {
        // A helper returns a fresh allocation; the caller stores/loads
        // integers through it. With alloc-site + k=1 return summaries the
        // load is provably outside the FP-bearing allocation; without
        // context the returned pointer is ⊤ and the load sinks.
        let mut a = Asm::new();
        let c = a.f64m(1.0);
        let h = a.label();
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap); // site X (caller's own)
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 0), Xmm(0)); // FP → X
        a.call(h); // RAX ← fresh allocation from site Y
        a.mov_ri(Gpr::RDX, 5);
        a.store(Mem::base_disp(Gpr::RAX, 0), Gpr::RDX); // int → Y
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RAX, 0)); // int ← Y
        a.halt();
        a.bind(h);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap); // site Y
        a.ret();
        let p = a.finish();
        let base = analyze_with(
            &p,
            &AnalysisConfig {
                heap: HeapModel::AllocSite,
                ..Default::default()
            },
        );
        assert!(
            base.sinks
                .iter()
                .any(|s| s.reason == SinkReason::IntLoadOfFp),
            "without return summaries the helper's pointer is ⊤"
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                heap: HeapModel::AllocSite,
                ctx_k1: true,
                ..Default::default()
            },
        );
        assert!(
            !an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "the k=1 return summary must carry the allocation site: {:?}",
            an.sinks
        );
    }

    #[test]
    fn ctx_k1_horizon_joins_distinct_callers() {
        // Two sites pass an FP pointer and an int pointer; the helper
        // *loads* through the argument. The load site is shared, so the
        // union over contexts must keep it a sink (soundness at the k=1
        // horizon: one tainted context taints the shared instruction).
        let mut a = Asm::new();
        let fa = a.global_f64("fa", 0.0);
        let gi = a.global("gi", 8);
        let c = a.f64m(2.0);
        let h = a.label();
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(fa as i64), Xmm(0));
        a.mov_ri(Gpr::RAX, 3);
        a.store(Mem::abs(gi as i64), Gpr::RAX);
        a.mov_ri(Gpr::RDI, fa as i64);
        a.call(h); // context 1: loads FP bits
        a.mov_ri(Gpr::RDI, gi as i64);
        a.call(h); // context 2: loads an integer
        a.halt();
        a.bind(h);
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RDI, 0));
        a.ret();
        let p = a.finish();
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                ctx_k1: true,
                ..Default::default()
            },
        );
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "a load tainted in any context must remain a sink"
        );
    }

    /// A loop copies frame slots down a chain of `k`, last slot first, so
    /// the pointer to `arr` in slot 0 reaches slot `k` only on the loop's
    /// `k`-th trip (slots 1..=k start out pointing at `dummy`). Each trip
    /// reads slot `k`, shifts the chain, then stores 1/3 through the
    /// pointer it read, so the last of the `k + 1` trips writes `arr[0]`.
    /// After the loop an integer load reads `arr[0]`. Returns the program
    /// and the address of that load.
    fn slot_chain(k: i64) -> (Program, u64) {
        let mut a = Asm::new();
        let arr = a.i64_array("arr", &[0; 2]);
        let dummy = a.global("dummy", 8);
        let one = a.f64m(1.0);
        let three = a.f64m(3.0);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 8 * (k + 1));
        a.mov_ri(Gpr::RAX, arr as i64);
        a.store(Mem::base_disp(Gpr::RSP, 0), Gpr::RAX);
        a.mov_ri(Gpr::RAX, dummy as i64);
        for j in 1..=k {
            a.store(Mem::base_disp(Gpr::RSP, 8 * j), Gpr::RAX);
        }
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RSP, 8 * k));
        for j in (1..=k).rev() {
            a.load(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8 * (j - 1)));
            a.store(Mem::base_disp(Gpr::RSP, 8 * j), Gpr::RAX);
        }
        a.movsd(Xmm(0), one);
        a.divsd(Xmm(0), three); // inexact: traps, so the result is boxed
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0));
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.cmp_ri(Gpr::RCX, k + 1);
        a.jcc(Cond::L, top);
        let load_at = a.here();
        a.load(Gpr::RDX, Mem::abs(arr as i64));
        a.halt();
        (a.finish(), load_at)
    }

    #[test]
    fn long_slot_chain_keeps_its_sink() {
        // The loop block needs k + 1 visits before the FP store's pointer
        // widens to the data segment. A per-block visit cap used
        // to stop it short at k = 100 and drop the sink without telling
        // anyone; unpatched, the load then read the NaN box.
        use fpvm_arith::Vanilla;
        use fpvm_core::{ExitReason, Fpvm, FpvmConfig};
        use fpvm_machine::{CostModel, Machine};
        let (p, load_at) = slot_chain(100);
        let an = analyze(&p);
        assert!(
            an.sinks
                .iter()
                .any(|s| s.addr == load_at && s.reason == SinkReason::IntLoadOfFp),
            "the load of the FP-written word must be a sink: {:?}",
            an.sinks
        );
        let patched = crate::patch::analyze_and_patch(&p);
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&patched.program);
        let mut vm = Fpvm::new(Vanilla, FpvmConfig::default());
        vm.set_side_table(patched.side_table.clone());
        assert_eq!(vm.run(&mut m).exit, ExitReason::Halted);
        assert_eq!(
            m.gpr[Gpr::RDX.0 as usize],
            (1.0f64 / 3.0).to_bits(),
            "the integer load must see the demoted double, not its box"
        );
    }

    #[test]
    fn all_passes_compose_and_only_refine() {
        // Every ablation config on a program mixing all the patterns:
        // sink sets must be subsets of the baseline (refinement only) and
        // the genuinely-boxed load must sink in every config.
        let mut a = Asm::new();
        let g = a.global("relay", 8);
        let c = a.f64m(2.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 0), Xmm(0));
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RAX, 0)); // true sink
        a.store(Mem::abs(g as i64), Gpr::RBX);
        a.load(Gpr::RCX, Mem::abs(g as i64)); // cascade victim
        a.alu_ri(AluOp::Add, Gpr::RCX, 1); // observed
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        let base_addrs: Vec<u64> = base.sinks.iter().map(|s| s.addr).collect();
        for (fmem, ctx, live) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let an = analyze_with(
                &p,
                &AnalysisConfig {
                    heap: HeapModel::AllocSite,
                    flow_mem: fmem,
                    ctx_k1: ctx,
                    liveness: live,
                },
            );
            assert!(
                an.sinks.iter().all(|s| base_addrs.contains(&s.addr)),
                "config ({fmem},{ctx},{live}) added a sink beyond baseline"
            );
            assert!(
                an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
                "the genuinely-boxed heap load must survive every config"
            );
        }
    }
}
