//! Pins the static analysis output exactly, on every workload at Tiny and
//! at Class S, under the default configuration and the five E19 configs.
//!
//! Each (workload, size, config) folds into one FNV-1a hash over:
//!
//! * the sink list, in order: address, reason and length;
//! * every [`AnalysisStats`] field, `rounds` and the patch counts included;
//! * the side table: address, length and the original instruction's bytes;
//! * the skipped list: address and reason;
//! * the patched code bytes.
//!
//! `vsa2_pin.rs` checks that each config refines the baseline; this pin
//! checks that a change to the solver moves nothing at all. The hashes
//! were recorded before the solver became incremental (warm-started
//! rounds, one collection sweep, flat frame slots). A mismatch prints
//! every row as computed, in the table's own syntax.

use fpvm_analysis::{
    analyze_and_patch_with, AnalysisConfig, AnalysisStats, HeapModel, PatchedProgram, SinkReason,
    SkipReason,
};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::encode;
use fpvm_workloads::{all_workloads, Size};

/// The default config, then the five E19 configs (alloc-site heap).
fn configs() -> [(&'static str, AnalysisConfig); 6] {
    let site = AnalysisConfig {
        heap: HeapModel::AllocSite,
        ..Default::default()
    };
    [
        ("default", AnalysisConfig::default()),
        ("baseline", site),
        (
            "+flow",
            AnalysisConfig {
                flow_mem: true,
                ..site
            },
        ),
        (
            "+ctx",
            AnalysisConfig {
                ctx_k1: true,
                ..site
            },
        ),
        (
            "+live",
            AnalysisConfig {
                liveness: true,
                ..site
            },
        ),
        (
            "all",
            AnalysisConfig {
                flow_mem: true,
                ctx_k1: true,
                liveness: true,
                ..site
            },
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn reason_code(r: SinkReason) -> u64 {
    match r {
        SinkReason::IntLoadOfFp => 0,
        SinkReason::MovqLeak => 1,
        SinkReason::BitwiseFp => 2,
    }
}

fn stats_fields(s: &AnalysisStats) -> [usize; 12] {
    [
        s.instructions,
        s.blocks,
        s.functions,
        s.contexts,
        s.loads_total,
        s.loads_proven_safe,
        s.rounds,
        s.sinks_found,
        s.sinks_demoted_live,
        s.sinks_patched,
        s.sinks_skipped_table_full,
        s.sinks_skipped_straddle,
    ]
}

fn fingerprint(pp: &PatchedProgram) -> u64 {
    let mut h = Fnv::new();
    h.u64(pp.analysis.sinks.len() as u64);
    for s in &pp.analysis.sinks {
        h.u64(s.addr);
        h.u64(reason_code(s.reason));
        h.u64(u64::from(s.len));
    }
    for f in stats_fields(&pp.analysis.stats) {
        h.u64(f as u64);
    }
    h.u64(pp.side_table.len() as u64);
    let mut inst = Vec::new();
    for e in &pp.side_table {
        h.u64(e.addr);
        h.u64(u64::from(e.len));
        inst.clear();
        encode(&e.original, &mut inst);
        h.bytes(&inst);
    }
    h.u64(pp.skipped.len() as u64);
    for s in &pp.skipped {
        h.u64(s.sink.addr);
        h.u64(match s.reason {
            SkipReason::SideTableFull => 0,
            SkipReason::BranchStraddle => 1,
        });
    }
    h.bytes(&pp.program.code);
    h.0
}

/// (workload, sinks found per config, hash per config), configs in the
/// order of [`configs`].
type Row = (&'static str, [usize; 6], [u64; 6]);

#[rustfmt::skip]
const TINY: &[Row] = &[
    ("FBench", [0, 0, 0, 0, 0, 0], [0x6defa4b076bd545c, 0x6defa4b076bd545c, 0x6defa4b076bd545c, 0x96eab2e95209b455, 0x6defa4b076bd545c, 0x96eab2e95209b455]),
    ("Lorenz Attractor", [0, 0, 0, 0, 0, 0], [0x96bce8736514747d, 0x96bce8736514747d, 0x96bce8736514747d, 0xce19965c86ef37c0, 0x96bce8736514747d, 0xce19965c86ef37c0]),
    ("Three-Body", [0, 0, 0, 0, 0, 0], [0x4934fa62664cb5d5, 0x4934fa62664cb5d5, 0x4934fa62664cb5d5, 0x2cd552f17d5e1684, 0x4934fa62664cb5d5, 0x2cd552f17d5e1684]),
    ("miniAero", [8, 8, 1, 8, 8, 1], [0x5b4bd130df210940, 0x5b4bd130df210940, 0x41550ce831095b31, 0x63f38e4ddd2d6171, 0x5b4bd130df210940, 0xcc125525ed5a3b42]),
    ("NAS IS", [0, 0, 0, 0, 0, 0], [0x24ce3e51205f0bf6, 0x24ce3e51205f0bf6, 0x24ce3e51205f0bf6, 0x0af278aec4967fd9, 0x24ce3e51205f0bf6, 0x0af278aec4967fd9]),
    ("NAS EP", [0, 0, 0, 0, 0, 0], [0xca708eac16ceef48, 0xca708eac16ceef48, 0xca708eac16ceef48, 0xc98de8b4c53da5ff, 0xca708eac16ceef48, 0xc98de8b4c53da5ff]),
    ("NAS CG", [0, 0, 0, 0, 0, 0], [0x5dda53ad76742eae, 0x5dda53ad76742eae, 0x5dda53ad76742eae, 0x072a637dad55d657, 0x5dda53ad76742eae, 0x072a637dad55d657]),
    ("NAS MG", [0, 0, 0, 0, 0, 0], [0x04cd54abff2d9c25, 0x04cd54abff2d9c25, 0x04cd54abff2d9c25, 0x3d22849946c3ee94, 0x04cd54abff2d9c25, 0x3d22849946c3ee94]),
    ("NAS LU", [0, 0, 0, 0, 0, 0], [0x229770d4f8b797eb, 0x229770d4f8b797eb, 0x229770d4f8b797eb, 0x39f8170d2b5d7772, 0x229770d4f8b797eb, 0x39f8170d2b5d7772]),
    ("Enzo", [29, 16, 3, 16, 16, 3], [0xf4e0ede915266ee2, 0x7c53407ae786ee1d, 0x844a09e07fe024b9, 0x6784e4cd26932f84, 0x7c53407ae786ee1d, 0x23f1b884c9fe4a52]),
];

#[rustfmt::skip]
const CLASS_S: &[Row] = &[
    ("FBench", [0, 0, 0, 0, 0, 0], [0xd648409b6d38b3d4, 0xd648409b6d38b3d4, 0xd648409b6d38b3d4, 0x10d02245381db64d, 0xd648409b6d38b3d4, 0x10d02245381db64d]),
    ("Lorenz Attractor", [0, 0, 0, 0, 0, 0], [0xc15bcd04d310f2ca, 0xc15bcd04d310f2ca, 0xc15bcd04d310f2ca, 0x1c1ba77a3f83b507, 0xc15bcd04d310f2ca, 0x1c1ba77a3f83b507]),
    ("Three-Body", [0, 0, 0, 0, 0, 0], [0x7868a5fe5b6a1a69, 0x7868a5fe5b6a1a69, 0x7868a5fe5b6a1a69, 0xc4b564c460a09502, 0x7868a5fe5b6a1a69, 0xc4b564c460a09502]),
    ("miniAero", [8, 8, 1, 8, 8, 1], [0x04656ead84e0f45d, 0x04656ead84e0f45d, 0x48e109773068571c, 0x23306c0d79df6f1c, 0x04656ead84e0f45d, 0xb0f6af0b481a029b]),
    ("NAS IS", [0, 0, 0, 0, 0, 0], [0x3b92aa79970f7d40, 0x3b92aa79970f7d40, 0x3b92aa79970f7d40, 0x4e9ba0a2854843e9, 0x3b92aa79970f7d40, 0x4e9ba0a2854843e9]),
    ("NAS EP", [0, 0, 0, 0, 0, 0], [0xa10d26d2aaf4f836, 0xa10d26d2aaf4f836, 0xa10d26d2aaf4f836, 0x31ffd816de0f2795, 0xa10d26d2aaf4f836, 0x31ffd816de0f2795]),
    ("NAS CG", [0, 0, 0, 0, 0, 0], [0xf007c8fab8c2acb9, 0xf007c8fab8c2acb9, 0xf007c8fab8c2acb9, 0x7abdb1b165d700e0, 0xf007c8fab8c2acb9, 0x7abdb1b165d700e0]),
    ("NAS MG", [0, 0, 0, 0, 0, 0], [0x484989a1b8f6c311, 0x484989a1b8f6c311, 0x484989a1b8f6c311, 0xe843b43c731e002a, 0x484989a1b8f6c311, 0xe843b43c731e002a]),
    ("NAS LU", [0, 0, 0, 0, 0, 0], [0x84f900095ba031fd, 0x84f900095ba031fd, 0x84f900095ba031fd, 0x2dacf04780c804ac, 0x84f900095ba031fd, 0x2dacf04780c804ac]),
    ("Enzo", [29, 16, 3, 16, 16, 3], [0x50e62cedeb175742, 0x4ecfec86ff8e9d69, 0xe581bbe3056431bd, 0xd932d04ac6968176, 0x4ecfec86ff8e9d69, 0xd1b397562e2e3300]),
];

fn check(size: Size, pinned: &[Row]) {
    let mut actual: Vec<Row> = Vec::new();
    for w in all_workloads(size) {
        let program = compile(&w.module, CompileMode::Native).program;
        let mut sinks = [0; 6];
        let mut hashes = [0; 6];
        for (i, (_, acfg)) in configs().iter().enumerate() {
            let pp = analyze_and_patch_with(&program, acfg);
            sinks[i] = pp.analysis.stats.sinks_found;
            hashes[i] = fingerprint(&pp);
        }
        actual.push((w.name, sinks, hashes));
    }
    if actual.as_slice() != pinned {
        let mut table = String::new();
        for (name, sinks, hashes) in &actual {
            let hs: Vec<String> = hashes.iter().map(|h| format!("0x{h:016x}")).collect();
            table += &format!("    (\"{name}\", {sinks:?}, [{}]),\n", hs.join(", "));
        }
        let names: Vec<&str> = configs().iter().map(|c| c.0).collect();
        panic!("{size:?}: analysis output moved (configs {names:?}); computed rows:\n{table}");
    }
}

#[test]
fn analysis_output_is_pinned_at_tiny() {
    check(Size::Tiny, TINY);
}

#[test]
fn analysis_output_is_pinned_at_class_s() {
    check(Size::S, CLASS_S);
}
