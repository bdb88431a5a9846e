//! Property test: slot-set `Easy { reservations: 1 }` backfill is
//! bit-identical to the legacy single-reservation oracle.
//!
//! The slot-set PR replaced the per-pass running-index reservation walk
//! with a free-resource timeline (`dmr_slurm::slotset`): EASY-k holds up
//! to `k` reservations found by O(log) hole queries, conservative plans
//! every blocked job in its window. The pre-slot-set walk survives as
//! [`dmr::slurm::BackfillFamily::LegacyReference`] — the same oracle
//! pattern as `SchedIndex::ScanReference` — and this suite drives *full
//! experiments* (every workload family × resize policy × fixed/flexible ×
//! sync/async, under both scheduler hot paths) through both families,
//! requiring bit-identical results down to the raw f64 bits of every
//! summary field and the exact bytes of the sweep CSV row. Deeper
//! families cannot be pinned to the oracle (they schedule differently by
//! design), so they are checked for lawfulness instead: every job runs
//! exactly once, nothing schedules in the past, and the timeline's
//! occupancy invariants hold through a direct scheduler drive.
//!
//! Slot-set structural invariants (sorted, disjoint, conservation) are
//! covered by the brute-force model tests in `dmr_slurm::slotset`; here
//! the whole scheduler sits between the property and the structure.

use dmr::core::{
    run_experiment_streaming, BackfillFamily, ExperimentConfig, ExperimentResult, PolicyKind,
    WorkloadKind,
};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobRequest, Slurm, SlurmConfig};
use dmr_bench::sweep::SweepCell;
use dmr_cluster::Cluster;
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
/// — i.e. the scheduling outcome — can differ between the two families).
fn csv_row(kind: WorkloadKind, cfg: &ExperimentConfig, seed: u64, r: &ExperimentResult) -> String {
    SweepCell {
        scenario: "backfill-equivalence".into(),
        workload: kind.name(),
        policy: cfg.policy.label(),
        mode: "sync",
        backfill: "easy1-vs-legacy",
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
    fn easy1_experiments_match_the_legacy_oracle_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
        hot_path in 0u8..2,
        incremental in 0u8..2,
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
        // The family equivalence must hold under both scheduler hot
        // paths and with incremental pass elision both on and off (the
        // oracle axes are orthogonal).
        if hot_path == 1 {
            cfg = cfg.scan_reference();
        }
        if incremental == 1 {
            cfg = cfg.incremental_off();
        }
        let easy1 = run_experiment_streaming(
            &cfg.with_backfill_family(BackfillFamily::easy(1)),
            kind.build(jobs, seed).as_mut(),
        );
        let legacy = run_experiment_streaming(
            &cfg.legacy_backfill_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&easy1, &legacy)?;
        // The derived sweep CSV rows must be byte-identical too.
        prop_assert_eq!(
            csv_row(kind, &cfg, seed, &easy1),
            csv_row(kind, &cfg, seed, &legacy)
        );
    }
}

// The buffered (Full-telemetry) path pins per-job outcomes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn easy1_outcomes_match_the_legacy_oracle(seed in 0u64..1000, jobs in 1u32..20) {
        let cfg = ExperimentConfig::preliminary();
        let kind = WorkloadKind::FsPreliminary;
        let easy1 = run_experiment_streaming(
            &cfg.with_backfill_family(BackfillFamily::easy(1)),
            kind.build(jobs, seed).as_mut(),
        );
        let legacy = run_experiment_streaming(
            &cfg.legacy_backfill_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(easy1.outcomes.len(), legacy.outcomes.len());
        for (x, y) in easy1.outcomes.iter().zip(&legacy.outcomes) {
            prop_assert_eq!(x.submit, y.submit);
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
            prop_assert_eq!(x.reconfigurations, y.reconfigurations);
        }
        assert_bit_identical(&easy1, &legacy)?;
    }
}

// Deeper families are not oracle-pinned (they schedule differently by
// design) but must stay lawful on the same experiment matrix.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn deep_families_run_lawful_experiments(
        seed in 0u64..10_000,
        jobs in 1u32..22,
        kind in 0u8..5,
        policy in 0u8..3,
        family in 0u8..3,
    ) {
        let kind = kind_for(kind);
        let family = match family {
            0 => BackfillFamily::easy(8),
            1 => BackfillFamily::easy(64),
            _ => BackfillFamily::Conservative,
        };
        let cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .with_backfill_family(family);
        let r = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        prop_assert_eq!(r.summary.jobs as u32, jobs, "every job must complete");
        prop_assert_eq!(r.past_schedules, 0, "scheduled in the past");
        prop_assert!(r.summary.makespan_s.is_finite() && r.summary.makespan_s >= 0.0);
        prop_assert!(r.summary.utilization >= 0.0 && r.summary.utilization <= 1.0 + 1e-9);
        // Not oracle-pinned, but the incremental elision contract still
        // holds for the deep families: off must reproduce on exactly.
        let off = run_experiment_streaming(
            &cfg.incremental_off(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&r, &off)?;
    }
}

// A direct scheduler drive under each family, with the timeline/index
// invariants checked after every mutation batch — the whole-scheduler
// counterpart of the slot-set model tests.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scheduler_invariants_hold_under_every_family(
        seed in 0u64..10_000,
        family in 0u8..4,
    ) {
        let family = match family {
            0 => BackfillFamily::easy(1),
            1 => BackfillFamily::easy(3),
            2 => BackfillFamily::Conservative,
            _ => BackfillFamily::LegacyReference,
        };
        let mut cfg = SlurmConfig::for_cluster(24);
        cfg.backfill_family = family;
        let mut s = Slurm::new(Cluster::new(24, 16), cfg);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut live: Vec<dmr::slurm::JobId> = Vec::new();
        for round in 0..40u64 {
            let now = SimTime::from_secs(round * 5);
            match step() % 4 {
                0 | 1 => {
                    let nodes = 1 + (step() % 12) as u32;
                    let dur = 30 + step() % 600;
                    let id = s.submit(
                        JobRequest::rigid(format!("j{round}"), nodes)
                            .with_expected_runtime(Span::from_secs(dur)),
                        now,
                    );
                    live.push(id);
                }
                2 => {
                    for start in s.schedule(now) {
                        let _ = start;
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove((step() % live.len() as u64) as usize);
                        // Complete if running, cancel if still pending;
                        // both paths must keep the timeline in sync.
                        match s.job(id).map(|j| j.state) {
                            Some(dmr::slurm::JobState::Running) => s.complete(id, now),
                            Some(dmr::slurm::JobState::Pending) => s.cancel(id, now),
                            _ => {}
                        }
                    }
                }
            }
            s.backfill_pass(now);
            let inv = s.check_invariants();
            prop_assert!(
                inv.is_ok(),
                "round {} under {:?}: {:?}",
                round,
                family,
                inv
            );
        }
    }
}
