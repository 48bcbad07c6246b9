//! Pins engine and machine reuse: on every workload, a recycled engine on
//! a reused machine must give the deterministic view and guest output of
//! a fresh engine on a fresh machine. The reused stack carries the
//! previous workload's state into each job, and then re-runs the same
//! program, so nothing may leak through the engine's site table, the
//! machine's predecode and superblock caches, the arena slab or the
//! scratch buffers — the discipline the fleet's `WorkerEngine` relies on.

use fpvm_analysis::analyze_and_patch;
use fpvm_arith::Vanilla;
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, RunReport, SideTableEntry};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Machine, OutputEvent, Program};
use fpvm_workloads::{all_workloads, Size};

/// One job on a given engine and machine, the way a fleet worker runs it:
/// reload the machine, recycle the engine, install the side table.
fn run_job(
    vm: &mut Fpvm<Vanilla>,
    m: &mut Machine,
    program: &Program,
    side_table: &[SideTableEntry],
) -> (RunReport, Vec<OutputEvent>) {
    m.load_program(program);
    vm.recycle(FpvmConfig::default());
    vm.set_side_table(side_table.to_vec());
    let report = vm.run(m);
    (report, m.output.clone())
}

#[test]
fn recycled_engine_on_reused_machine_matches_fresh_on_every_workload() {
    let mut vm = Fpvm::new(Vanilla, FpvmConfig::default());
    let mut m = Machine::new(CostModel::r815());
    for w in all_workloads(Size::Tiny) {
        let c = compile(&w.module, CompileMode::Native);
        let patched = analyze_and_patch(&c.program);
        let (fresh, out_fresh) = run_job(
            &mut Fpvm::new(Vanilla, FpvmConfig::default()),
            &mut Machine::new(CostModel::r815()),
            &patched.program,
            &patched.side_table,
        );
        assert_eq!(fresh.exit, ExitReason::Halted, "{}", w.name);
        for round in ["after the previous workload", "re-running itself"] {
            let (reused, out_reused) =
                run_job(&mut vm, &mut m, &patched.program, &patched.side_table);
            assert_eq!(reused.exit, ExitReason::Halted, "{} {round}", w.name);
            assert_eq!(
                reused.stats.deterministic_view(),
                fresh.stats.deterministic_view(),
                "{} {round}: reused stack diverged from a fresh one",
                w.name
            );
            assert_eq!(out_reused, out_fresh, "{} {round}: guest output", w.name);
            assert_eq!(reused.icount, fresh.icount, "{} {round}", w.name);
        }
    }
}
