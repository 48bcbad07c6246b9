//! The five workloads: which guests each runs, on which arithmetic and
//! engine configuration, and how `--seed` reaches their inputs.
//!
//! The seed changes only generated inputs, through each guest's public
//! `Params`: the Lorenz initial condition (the perturbation rule of
//! `lorenz::workload_seeded`), the NAS IS `randlc` seed, the NAS CG matrix
//! seed and the ensemble's seed list. Seed 0 is the Class S paper input.
//! The other guests have no generated input, so `bigfloat` and `patched`
//! run the same inputs at every seed.

use fpvm_core::FpvmConfig;
use fpvm_fleet::{FleetJob, GuestSpec};
use fpvm_ir::Module;
use fpvm_machine::OutputEvent;
use fpvm_workloads::{
    enzo_like, fbench, lorenz, miniaero, nas_cg, nas_is, nas_lu, nas_mg, three_body, Lcg, Size,
};

/// The arithmetic a workload virtualizes onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    /// IEEE double: outputs must be bit-identical to the native mirror.
    Vanilla,
    /// 200-bit BigFloat (the paper's MPFR case).
    BigFloat,
}

/// BigFloat precision in bits.
pub const BIGFLOAT_PREC: u32 = 200;

/// Jobs per ensemble pass.
pub const ENSEMBLE_JOBS: u64 = 32;

/// One benchmark workload.
pub struct Workload {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Arithmetic system.
    pub arith: Arith,
    /// Run with the trap-and-patch engine on.
    pub trap_and_patch: bool,
    /// A pass is one `run_fleet` call instead of guests run back-to-back.
    pub fleet: bool,
    /// The guests of one pass for a size and seed.
    pub guests: fn(Size, u64) -> Vec<Guest>,
}

impl Workload {
    /// The engine configuration of this workload's passes.
    pub fn config(&self) -> FpvmConfig {
        FpvmConfig {
            trap_and_patch: self.trap_and_patch,
            ..FpvmConfig::default()
        }
    }
}

/// Every workload, in the order the benchmark runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "trap_dense",
        arith: Arith::Vanilla,
        trap_and_patch: false,
        fleet: false,
        guests: |size, seed| {
            vec![
                Guest::ThreeBody(three_body_params(size)),
                Guest::Lorenz(lorenz_params(size, seed)),
                Guest::Fbench(fbench_params(size)),
                Guest::MiniAero(miniaero_params(size)),
            ]
        },
    },
    Workload {
        name: "int_dense",
        arith: Arith::Vanilla,
        trap_and_patch: false,
        fleet: false,
        guests: |size, seed| {
            vec![
                Guest::NasIs(nas_is_params(size, seed)),
                Guest::NasCg(nas_cg_params(size, seed)),
            ]
        },
    },
    Workload {
        name: "bigfloat",
        arith: Arith::BigFloat,
        trap_and_patch: false,
        fleet: false,
        guests: |size, _| {
            vec![
                Guest::Fbench(fbench_params(size)),
                Guest::ThreeBody(three_body_params(size)),
            ]
        },
    },
    Workload {
        name: "patched",
        arith: Arith::Vanilla,
        trap_and_patch: true,
        fleet: false,
        guests: |size, _| {
            vec![
                Guest::Enzo(enzo_params(size)),
                Guest::NasMg(nas_mg_params(size)),
                Guest::NasLu(nas_lu_params(size)),
            ]
        },
    },
    Workload {
        name: "ensemble",
        arith: Arith::Vanilla,
        trap_and_patch: false,
        fleet: true,
        guests: |size, seed| {
            ensemble_seeds(seed)
                .map(|s| Guest::Lorenz(lorenz_params(size, s)))
                .collect()
        },
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Lorenz seeds of one ensemble pass.
fn ensemble_seeds(seed: u64) -> std::ops::Range<u64> {
    let first = seed.wrapping_mul(ENSEMBLE_JOBS);
    first..first + ENSEMBLE_JOBS
}

/// The ensemble's fleet jobs: the same guests as its direct run, built
/// inside each job by the fleet runner.
pub fn ensemble_jobs(size: Size, seed: u64, config: FpvmConfig) -> Vec<FleetJob> {
    ensemble_seeds(seed)
        .map(|s| FleetJob {
            config,
            ..FleetJob::new(GuestSpec::LorenzSeeded { size, seed: s })
        })
        .collect()
}

/// One guest program with its inputs.
#[derive(Debug, Clone, Copy)]
pub enum Guest {
    /// Three-Body.
    ThreeBody(three_body::Params),
    /// Lorenz attractor.
    Lorenz(lorenz::Params),
    /// FBench.
    Fbench(fbench::Params),
    /// miniAero.
    MiniAero(miniaero::Params),
    /// NAS IS.
    NasIs(nas_is::Params),
    /// NAS CG.
    NasCg(nas_cg::Params),
    /// Enzo.
    Enzo(enzo_like::Params),
    /// NAS MG.
    NasMg(nas_mg::Params),
    /// NAS LU.
    NasLu(nas_lu::Params),
}

impl Guest {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Guest::ThreeBody(_) => "Three-Body",
            Guest::Lorenz(_) => "Lorenz",
            Guest::Fbench(_) => "FBench",
            Guest::MiniAero(_) => "miniAero",
            Guest::NasIs(_) => "NAS IS",
            Guest::NasCg(_) => "NAS CG",
            Guest::Enzo(_) => "Enzo",
            Guest::NasMg(_) => "NAS MG",
            Guest::NasLu(_) => "NAS LU",
        }
    }

    /// The guest's IR module.
    pub fn build(&self) -> Module {
        match *self {
            Guest::ThreeBody(p) => three_body::build(p),
            Guest::Lorenz(p) => lorenz::build(p),
            Guest::Fbench(p) => fbench::build(p),
            Guest::MiniAero(p) => miniaero::build(p),
            Guest::NasIs(p) => nas_is::build(p),
            Guest::NasCg(p) => nas_cg::build(p),
            Guest::Enzo(p) => enzo_like::build(p),
            Guest::NasMg(p) => nas_mg::build(p),
            Guest::NasLu(p) => nas_lu::build(p),
        }
    }

    /// The host-compiled mirror: the same operations in the same order.
    pub fn reference(&self) -> Vec<OutputEvent> {
        match *self {
            Guest::ThreeBody(p) => three_body::reference(p),
            Guest::Lorenz(p) => lorenz::reference(p),
            Guest::Fbench(p) => fbench::reference(p),
            Guest::MiniAero(p) => miniaero::reference(p),
            Guest::NasIs(p) => nas_is::reference(p),
            Guest::NasCg(p) => nas_cg::reference(p),
            Guest::Enzo(p) => enzo_like::reference(p),
            Guest::NasMg(p) => nas_mg::reference(p),
            Guest::NasLu(p) => nas_lu::reference(p),
        }
    }
}

// The size tables below repeat the workloads crate's private `for_size`
// values; `input_checks` pins them to it on every run.

/// Checks of the size tables below against the workloads crate, one per
/// guest: at seed 0 each guest must give the reference output of the
/// crate's own packaged workload, and a seeded Lorenz guest that of
/// `lorenz::workload_seeded` at the same seed (`seed`, or 1 when `seed` is
/// 0). Every run makes them, so a changed workload size fails the
/// benchmark instead of silently changing what it measures. `None` is a
/// pass; `Some` says what differs.
pub fn input_checks(size: Size, seed: u64) -> Vec<Option<String>> {
    let seeded = seed.max(1);
    let pinned = [
        (
            Guest::ThreeBody(three_body_params(size)),
            three_body::workload(size),
        ),
        (
            Guest::Lorenz(lorenz_params(size, 0)),
            lorenz::workload(size),
        ),
        (
            Guest::Lorenz(lorenz_params(size, seeded)),
            lorenz::workload_seeded(size, seeded),
        ),
        (Guest::Fbench(fbench_params(size)), fbench::workload(size)),
        (
            Guest::MiniAero(miniaero_params(size)),
            miniaero::workload(size),
        ),
        (Guest::NasIs(nas_is_params(size, 0)), nas_is::workload(size)),
        (Guest::NasCg(nas_cg_params(size, 0)), nas_cg::workload(size)),
        (Guest::Enzo(enzo_params(size)), enzo_like::workload(size)),
        (Guest::NasMg(nas_mg_params(size)), nas_mg::workload(size)),
        (Guest::NasLu(nas_lu_params(size)), nas_lu::workload(size)),
    ];
    pinned
        .into_iter()
        .map(|(g, w)| {
            (g.reference() != w.reference).then(|| {
                format!(
                    "{}: the benchmark's {size:?} input differs from the workloads crate's {}",
                    g.name(),
                    w.name
                )
            })
        })
        .collect()
}

fn tiny(size: Size) -> bool {
    size == Size::Tiny
}

fn lorenz_params(size: Size, seed: u64) -> lorenz::Params {
    let mut p = lorenz::Params::paper();
    if tiny(size) {
        p.steps = 200;
        p.print_every = 50;
    }
    if seed != 0 {
        let mut rng = Lcg(seed);
        p.x0.0 += rng.next_f64() * 1e-3;
        p.x0.1 += rng.next_f64() * 1e-3;
        p.x0.2 += rng.next_f64() * 1e-3;
    }
    p
}

fn nas_is_params(size: Size, seed: u64) -> nas_is::Params {
    let mut p = if tiny(size) {
        nas_is::Params {
            n: 512,
            max_key: 256,
            iterations: 3,
            seed: 314159265.0,
        }
    } else {
        nas_is::Params {
            n: 8192,
            max_key: 2048,
            iterations: 10,
            seed: 314159265.0,
        }
    };
    if seed != 0 {
        // randlc needs an odd seed below 2^46.
        p.seed += 2.0 * Lcg(seed).below(1 << 40) as f64;
    }
    p
}

fn nas_cg_params(size: Size, seed: u64) -> nas_cg::Params {
    let mut p = if tiny(size) {
        nas_cg::Params {
            n: 32,
            nnz_row: 5,
            cg_iters: 5,
            outer: 1,
            seed: 0x5E_EDC6,
        }
    } else {
        nas_cg::Params {
            n: 192,
            nnz_row: 8,
            cg_iters: 15,
            outer: 2,
            seed: 0x5E_EDC6,
        }
    };
    if seed != 0 {
        p.seed = Lcg(seed).next();
    }
    p
}

fn three_body_params(size: Size) -> three_body::Params {
    three_body::Params {
        g: 1.0,
        dt: 0.002,
        steps: if tiny(size) { 150 } else { 1500 },
        print_every: if tiny(size) { 50 } else { 250 },
    }
}

fn fbench_params(size: Size) -> fbench::Params {
    fbench::Params {
        iterations: if tiny(size) { 4 } else { 60 },
    }
}

fn miniaero_params(size: Size) -> miniaero::Params {
    miniaero::Params {
        cells: if tiny(size) { 24 } else { 64 },
        steps: if tiny(size) { 8 } else { 40 },
        lambda: 0.15,
    }
}

fn enzo_params(size: Size) -> enzo_like::Params {
    enzo_like::Params {
        particles: if tiny(size) { 32 } else { 192 },
        grid: if tiny(size) { 16 } else { 32 },
        steps: if tiny(size) { 4 } else { 12 },
        dt: 0.01,
    }
}

fn nas_mg_params(size: Size) -> nas_mg::Params {
    nas_mg::Params {
        n: if tiny(size) { 12 } else { 32 },
        cycles: if tiny(size) { 1 } else { 2 },
        sweeps: if tiny(size) { 2 } else { 4 },
    }
}

fn nas_lu_params(size: Size) -> nas_lu::Params {
    nas_lu::Params {
        n: if tiny(size) { 10 } else { 24 },
        iters: if tiny(size) { 2 } else { 6 },
        omega: 1.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_input() {
        for size in [Size::Tiny, Size::S] {
            for seed in [0, 5] {
                let checks = input_checks(size, seed);
                assert_eq!(checks.len(), 10);
                assert!(checks.iter().all(Option::is_none), "{checks:?}");
            }
        }
    }

    #[test]
    fn seeds_change_the_generated_inputs_only() {
        for seed in 1..4 {
            let ours = Guest::Lorenz(lorenz_params(Size::Tiny, seed)).reference();
            assert_ne!(ours, lorenz::workload(Size::Tiny).reference);
            let is = Guest::NasIs(nas_is_params(Size::Tiny, seed));
            assert_ne!(is.reference(), nas_is::workload(Size::Tiny).reference);
            let Guest::NasIs(p) = is else { unreachable!() };
            assert!(p.seed % 2.0 == 1.0 && p.seed < (1u64 << 46) as f64);
            let cg = Guest::NasCg(nas_cg_params(Size::Tiny, seed)).reference();
            assert_ne!(cg, nas_cg::workload(Size::Tiny).reference);
        }
        let a: Vec<_> = ensemble_seeds(0).collect();
        let b: Vec<_> = ensemble_seeds(1).collect();
        assert_eq!((a.len(), a[0], b[0]), (32, 0, 32));
    }
}
