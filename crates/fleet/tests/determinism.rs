//! The fleet determinism contract, pinned: the same job set produces
//! bit-identical merged statistics and Fig. 9 cycle breakdown for 1, 2,
//! and 4 workers — and the post-mortem ring, recorded by replaying the
//! job, still surfaces on a `RuntimeError` raised inside a worker thread.

use fpvm_arith::Vanilla;
use fpvm_core::trace::RingBufferSink;
use fpvm_core::{ExitReason, Fpvm, Stats};
use fpvm_fleet::{run_fleet, smoke_jobs, FleetJob, GuestSpec, WorkloadId};
use fpvm_machine::{Asm, CostModel, Inst, Machine, TrapKind, Xmm};
use fpvm_workloads::Size;

#[test]
fn merged_results_are_bit_identical_for_any_worker_count() {
    let jobs = smoke_jobs(6);
    let base = run_fleet(&jobs, 1);
    let base_stats: Stats = base.merged.deterministic_view();
    assert!(
        base.outcomes.iter().all(|o| o.exit == ExitReason::Halted),
        "smoke jobs all halt"
    );
    assert!(base_stats.fp_traps > 0, "the job set traps");
    for workers in [2usize, 4] {
        let r = run_fleet(&jobs, workers);
        // Merged statistics: every deterministic counter and cycle
        // component, bit for bit.
        assert_eq!(
            r.merged.deterministic_view(),
            base_stats,
            "{workers}-worker merged stats diverge from 1 worker"
        );
        // The Fig. 9 accounting specifically (subset of the above, called
        // out because the perf trajectory reports it).
        assert_eq!(
            r.merged.deterministic_view().cycles,
            base_stats.cycles,
            "{workers}-worker cycle breakdown diverges"
        );
        // Totals that must also be scheduling-independent.
        assert_eq!(r.icount, base.icount);
        assert_eq!(r.fp_icount, base.fp_icount);
        // Per-job outcomes line up one-to-one in job order.
        assert_eq!(r.outcomes.len(), base.outcomes.len());
        for (a, b) in r.outcomes.iter().zip(base.outcomes.iter()) {
            assert_eq!(a.job, b.job);
            assert_eq!(a.name, b.name);
            assert_eq!(a.exit, b.exit);
            assert_eq!(
                a.stats.deterministic_view(),
                b.stats.deterministic_view(),
                "job {} ({}) diverges at {workers} workers",
                a.job,
                a.name
            );
        }
    }
}

#[test]
fn ring_tail_surfaces_runtime_errors_raised_inside_workers() {
    // A correctness trap with no side-table entry aborts the run; when the
    // guest runs inside a fleet worker, the post-mortem ring must come
    // back across the join with the structured error as its last event.
    let mut a = Asm::new();
    a.emit(Inst::Trap {
        kind: TrapKind::Correctness,
        id: 3,
    });
    a.halt();
    let faulting = a.finish();
    let mut jobs = smoke_jobs(0);
    jobs.push(FleetJob::new(GuestSpec::Raw {
        name: "faulting-guest",
        program: faulting,
    }));
    let r = run_fleet(&jobs, 4);
    let bad = r.outcomes.last().unwrap();
    assert_eq!(bad.name, "faulting-guest");
    assert!(matches!(bad.exit, ExitReason::RuntimeError(_)));
    let tail = bad
        .ring_tail
        .as_ref()
        .expect("post-mortem ring captured in the worker");
    assert!(
        tail.contains("runtime_error"),
        "ring tail must end with the structured error, got:\n{tail}"
    );
    // Healthy jobs in the same fleet carry no post-mortem.
    assert!(r.outcomes[..r.outcomes.len() - 1]
        .iter()
        .all(|o| o.ring_tail.is_none() && o.exit == ExitReason::Halted));
}

#[test]
fn replayed_ring_tail_matches_a_direct_traced_run() {
    // Six inexact divisions trap before the unhandled correctness trap,
    // so the run emits more events than the ring holds and the tail is a
    // wrapped window, not the whole trace.
    let mut a = Asm::new();
    let one = a.f64m(1.0);
    let three = a.f64m(3.0);
    a.movsd(Xmm(0), one);
    a.movsd(Xmm(1), three);
    for _ in 0..6 {
        a.divsd(Xmm(0), Xmm(1));
    }
    a.emit(Inst::Trap {
        kind: TrapKind::Correctness,
        id: 3,
    });
    a.halt();
    let program = a.finish();
    let job = FleetJob {
        ring_capacity: 8,
        ..FleetJob::new(GuestSpec::Raw {
            name: "faulting-guest",
            program: program.clone(),
        })
    };

    let mut m = Machine::new(CostModel::r815());
    m.load_program(&program);
    let mut vm = Fpvm::new(Vanilla, job.config);
    vm.set_trace_sink(Box::new(RingBufferSink::new(job.ring_capacity)));
    let direct = vm.run(&mut m);
    assert!(matches!(direct.exit, ExitReason::RuntimeError(_)));
    let ring = vm.take_trace_sink().downcast::<RingBufferSink>().unwrap();
    assert!(ring.dropped() > 0, "the trace must overflow the ring");
    // Kind and rip per event; host-measured cycle fields may differ.
    let want: Vec<String> = ring
        .events()
        .map(|e| format!("{} {:?}", e.kind(), e.rip()))
        .collect();

    // A healthy job first, so the replay runs on a recycled engine.
    let healthy = FleetJob::new(GuestSpec::Workload(WorkloadId::Lorenz, Size::Tiny));
    let r = run_fleet(&[healthy, job], 1);
    let o = &r.outcomes[1];
    assert_eq!(o.exit, direct.exit);
    let tail = o.ring_tail.as_ref().expect("post-mortem ring captured");
    // A dump line reads `[-  n] kind  Event { .., rip: R, .. }`.
    let got: Vec<String> = tail
        .lines()
        .map(|l| {
            let (_, event) = l.split_once("] ").unwrap();
            let kind = event.split_whitespace().next().unwrap();
            let rip = event
                .split_once(" rip: ")
                .map(|(_, r)| r.split([',', ' ']).next().unwrap().parse::<u64>().unwrap());
            format!("{kind} {rip:?}")
        })
        .collect();
    assert_eq!(got, want);
}
