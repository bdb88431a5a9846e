//! Property test: the arena scheduler hot path is bit-identical to the
//! pre-index scan reference.
//!
//! PR "index the scheduler hot path" replaced every per-pass scan with an
//! incremental structure: the pending queue became an ordered index keyed
//! by `(boosted, submit, seq)` (exact because the multifactor age term
//! grows uniformly), backfill reservations walk a running-jobs end-time
//! index, dead resizers are reaped through a reverse-dependency map, and
//! node selection takes the lowest run of a sorted free set. The arena
//! path (the production default) adds slab job storage keyed by
//! generation-checked dense ids, a cursor walk of the pending index, and
//! same-instant scheduling-pass batching in the driver. The old
//! implementations survive behind [`dmr::slurm::SchedIndex::ScanReference`]
//! as the oracle; this suite drives *full experiments* — every workload
//! family × every resize policy × fixed/flexible × sync/async — through
//! both paths, and the arena path with incremental scheduling off, and
//! requires bit-identical results, down to the raw f64 bits of every
//! summary field and the exact bytes of the sweep CSV row.

use dmr::core::{
    run_experiment_streaming, ExperimentConfig, ExperimentResult, PolicyKind, WorkloadKind,
};
use dmr_bench::scenario::{smoke_registry, Scenario};
use dmr_bench::sweep::SweepCell;
use proptest::prelude::*;

fn kind_for(kind: u8) -> WorkloadKind {
    match kind % 5 {
        0 => WorkloadKind::FsPreliminary,
        1 => WorkloadKind::FsMicroSteps,
        2 => WorkloadKind::RealMix,
        3 => WorkloadKind::burst(),
        _ => WorkloadKind::diurnal(),
    }
}

fn policy_for(policy: u8) -> PolicyKind {
    match policy % 3 {
        0 => PolicyKind::Algorithm1,
        1 => PolicyKind::utilization_target(),
        _ => PolicyKind::fair_share(),
    }
}

/// One sweep-style CSV row for a result (fixed labels: only the numbers
/// — i.e. the scheduling outcome — can differ between the two paths).
fn csv_row(kind: WorkloadKind, cfg: &ExperimentConfig, seed: u64, r: &ExperimentResult) -> String {
    SweepCell {
        scenario: "equivalence".into(),
        workload: kind.name(),
        policy: cfg.policy.label(),
        mode: "sync",
        backfill: cfg.backfill_family.label(),
        machine_mix: cfg.machine_mix.name(),
        faults: cfg.faults.name(),
        seed,
        nodes: cfg.nodes,
        summary: r.summary.clone(),
        events: r.events,
        past_schedules: r.past_schedules,
    }
    .csv_row()
}

fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult) -> Result<(), String> {
    let sa = &a.summary;
    let sb = &b.summary;
    prop_assert_eq!(sa.jobs, sb.jobs);
    prop_assert_eq!(sa.reconfigurations, sb.reconfigurations);
    // Raw-bit float comparison: even sub-rounding divergence fails.
    for (x, y, what) in [
        (sa.makespan_s, sb.makespan_s, "makespan"),
        (sa.utilization, sb.utilization, "utilization"),
        (sa.avg_waiting_s, sb.avg_waiting_s, "avg_wait"),
        (sa.avg_execution_s, sb.avg_execution_s, "avg_exec"),
        (sa.avg_completion_s, sb.avg_completion_s, "avg_compl"),
        (sa.waiting_q.p50_s, sb.waiting_q.p50_s, "p50_wait"),
        (sa.waiting_q.p99_s, sb.waiting_q.p99_s, "p99_wait"),
        (sa.execution_q.p95_s, sb.execution_q.p95_s, "p95_exec"),
        (sa.completion_q.p99_s, sb.completion_q.p99_s, "p99_compl"),
    ] {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverged: {} vs {}",
            what,
            x,
            y
        );
    }
    prop_assert_eq!(a.events, b.events, "event streams diverged");
    prop_assert_eq!(a.past_schedules, b.past_schedules);
    prop_assert_eq!(a.end_time, b.end_time);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn indexed_experiments_match_scan_reference_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .online();
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let scan = run_experiment_streaming(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&arena, &scan)?;
        // Incremental scheduling off (the costed baseline) must be
        // bit-identical on the hot path that elides passes.
        let arena_off = run_experiment_streaming(
            &cfg.incremental_off(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&arena, &arena_off)?;
        // The derived sweep CSV rows must be byte-identical too.
        let row = csv_row(kind, &cfg, seed, &arena);
        prop_assert_eq!(&row, &csv_row(kind, &cfg, seed, &scan));
        prop_assert_eq!(&row, &csv_row(kind, &cfg, seed, &arena_off));
    }
}

// The buffered (Full-telemetry) path pins per-job outcomes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn indexed_outcomes_match_scan_reference(seed in 0u64..1000, jobs in 1u32..20) {
        let cfg = ExperimentConfig::preliminary();
        let kind = WorkloadKind::FsPreliminary;
        let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let scan = run_experiment_streaming(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(arena.outcomes.len(), scan.outcomes.len());
        for (x, z) in arena.outcomes.iter().zip(&scan.outcomes) {
            prop_assert_eq!(x.submit, z.submit);
            prop_assert_eq!(x.start, z.start);
            prop_assert_eq!(x.end, z.end);
            prop_assert_eq!(x.reconfigurations, z.reconfigurations);
        }
        assert_bit_identical(&arena, &scan)?;
    }
}

/// Every cell of the CI scenario grid — all workload families × policies
/// × modes — produces byte-identical sweep CSV rows under both hot
/// paths.
#[test]
fn smoke_registry_sweep_rows_are_byte_identical_across_hot_paths() {
    let seed = dmr_bench::SEED;
    for sc in smoke_registry() {
        let row = |cfg: &ExperimentConfig| {
            let mut source = sc.source(seed);
            let r = run_experiment_streaming(cfg, source.as_mut());
            let sc_row = SweepCell {
                scenario: Scenario::name(&sc),
                workload: sc.workload.name(),
                policy: sc.policy.label(),
                mode: "grid",
                backfill: sc.backfill.name(),
                machine_mix: sc.mix.name(),
                faults: sc.faults.name(),
                seed,
                nodes: sc.nodes,
                summary: r.summary,
                events: r.events,
                past_schedules: r.past_schedules,
            };
            sc_row.csv_row()
        };
        let cfg = sc.config();
        let arena_row = row(&cfg);
        assert_eq!(
            arena_row,
            row(&cfg.scan_reference()),
            "scenario {} diverged between arena and scan paths",
            sc.name()
        );
        assert_eq!(
            arena_row,
            row(&cfg.incremental_off()),
            "scenario {} diverged between incremental on and off",
            sc.name()
        );
    }
}
