//! Property test: incremental scheduling is bit-identical to the costed
//! from-scratch baseline, and every elided pass equals the pass it
//! elided.
//!
//! The incremental-scheduling PR made the scheduler stateful *between*
//! passes: fruitless scheduling and backfill passes leave a memo (the
//! blocked head's need, the minimum need over the pass's non-fitting
//! refusals, the retained EASY reservations / conservative plan), and a
//! later pass whose trigger provably cannot change any decision returns
//! in O(1) instead of re-walking the queue. Every mutation — submit,
//! start, boost, complete, cancel, shrink, expand, estimate refresh —
//! either invalidates the memos or tightens them (a submission below the
//! live watermark lowers it). `SchedIncremental::Off` keeps the
//! re-derive-everything behaviour as the oracle.
//!
//! Three properties pin the contract:
//!
//! 1. **Full-experiment equivalence** — every workload family × resize
//!    policy × backfill family, run on the arena path with incremental
//!    scheduling on and off, must agree down to the raw f64 bits of
//!    every summary field.
//! 2. **The shadow check** — twin schedulers driven through the same
//!    random operation sequence must start the same jobs at every pass,
//!    and whenever the incremental twin elides a pass, the baseline twin
//!    (identical state, pass actually executed) must have started
//!    nothing — an elided pass *is* the pass it elided.
//! 3. **Quiet stretches** — the shadow check again, on a three-class
//!    machine with class-constrained jobs, over runs of backfill ticks
//!    with no mutation between them. A conservative memo that refused a
//!    fitting job outlives such ticks until its earliest planned start,
//!    so the ticks land on the instants where that validity ends.

use dmr::core::{
    run_experiment_streaming, BackfillFamily, ExperimentConfig, ExperimentResult, MachineMix,
    PolicyKind, WorkloadKind,
};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobRequest, JobState, SchedIncremental, Slurm, SlurmConfig};
use dmr_cluster::{ClassConstraint, Cluster};
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

fn family_for(family: u8) -> BackfillFamily {
    match family % 4 {
        0 => BackfillFamily::easy(1),
        1 => BackfillFamily::easy(8),
        2 => BackfillFamily::Conservative,
        _ => BackfillFamily::LegacyReference,
    }
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
    fn incremental_experiments_match_the_costed_baseline_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        family in 0u8..4,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .with_backfill_family(family_for(family))
            .online();
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        // Elision exists on the arena path only; the scan reference
        // never elides and is covered by index_equivalence.
        let on = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let off = run_experiment_streaming(
            &cfg.incremental_off(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&on, &off)?;
    }
}

// The buffered (Full-telemetry) path pins per-job outcomes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn incremental_outcomes_match_the_costed_baseline(
        seed in 0u64..1000,
        jobs in 1u32..20,
        family in 0u8..4,
    ) {
        let cfg = ExperimentConfig::preliminary()
            .with_backfill_family(family_for(family));
        let kind = WorkloadKind::FsPreliminary;
        let on = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let off = run_experiment_streaming(
            &cfg.incremental_off(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(on.outcomes.len(), off.outcomes.len());
        for (x, y) in on.outcomes.iter().zip(&off.outcomes) {
            prop_assert_eq!(x.submit, y.submit);
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
            prop_assert_eq!(x.reconfigurations, y.reconfigurations);
        }
        assert_bit_identical(&on, &off)?;
    }
}

/// One row of [`job_table`]: name, state, start, end, requested nodes.
type JobRow = (String, JobState, Option<SimTime>, Option<SimTime>, u32);

/// Per-job view used to compare the twins' whole job tables: everything
/// the scheduler ever decided about a job.
fn job_table(s: &Slurm) -> Vec<JobRow> {
    s.jobs()
        .map(|j| {
            (
                j.name.clone(),
                j.state,
                j.start_time,
                j.end_time,
                j.requested_nodes,
            )
        })
        .collect()
}

// The shadow check, institutionalised: twin schedulers — incremental on
// vs off — driven in lockstep through random submit / complete / cancel
// / boost / estimate-refresh sequences. Both twins see identical state
// before every pass, so comparing the started sets checks precisely
// that each elided pass equals the executed pass it stands in for; the
// elision counters prove the incremental twin actually took the O(1)
// path while the baseline walked the queue.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn elided_passes_equal_the_passes_they_elide(
        seed in 0u64..100_000,
        family in 0u8..4,
        nodes in 8u32..33,
    ) {
        let family = family_for(family);
        let mk = |incremental: SchedIncremental| {
            let mut cfg = SlurmConfig::for_cluster(nodes);
            cfg.backfill_family = family;
            cfg.sched_incremental = incremental;
            Slurm::new(Cluster::new(nodes, 16), cfg)
        };
        let mut on = mk(SchedIncremental::On);
        let mut off = mk(SchedIncremental::Off);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut live: Vec<dmr::slurm::JobId> = Vec::new();
        for round in 0..60u64 {
            let now = SimTime::from_secs(round * 7);
            match step() % 8 {
                0..=2 => {
                    let need = 1 + (step() % u64::from(nodes)) as u32;
                    let dur = 30 + step() % 900;
                    let req = || {
                        JobRequest::rigid(format!("j{round}"), need)
                            .with_expected_runtime(Span::from_secs(dur))
                    };
                    let a = on.submit(req(), now);
                    let b = off.submit(req(), now);
                    prop_assert_eq!(a, b, "ids diverged at submit");
                    live.push(a);
                }
                3 if !live.is_empty() => {
                    let id = live.remove((step() % live.len() as u64) as usize);
                    match on.job(id).map(|j| j.state) {
                        Some(JobState::Running) => {
                            on.complete(id, now);
                            off.complete(id, now);
                        }
                        Some(JobState::Pending) => {
                            on.cancel(id, now);
                            off.cancel(id, now);
                        }
                        _ => {}
                    }
                }
                4 if !live.is_empty() => {
                    let id = live[(step() % live.len() as u64) as usize];
                    if on.job(id).is_some_and(|j| j.state == JobState::Pending) {
                        on.boost(id);
                        off.boost(id);
                    }
                }
                5 if !live.is_empty() => {
                    let id = live[(step() % live.len() as u64) as usize];
                    if on.job(id).is_some_and(|j| j.state == JobState::Running) {
                        let est = Span::from_secs(30 + step() % 900);
                        on.set_expected_runtime(id, est);
                        off.set_expected_runtime(id, est);
                    }
                }
                _ => {}
            }
            let before = on.incremental_stats();
            let a = on.schedule(now);
            let b = off.schedule(now);
            prop_assert_eq!(&a, &b, "schedule diverged at round {}", round);
            let mid = on.incremental_stats();
            if mid.sched_passes_elided > before.sched_passes_elided {
                prop_assert!(
                    b.is_empty(),
                    "elided schedule pass at round {} but the baseline started {:?}",
                    round,
                    b
                );
            }
            let a = on.backfill_pass(now);
            let b = off.backfill_pass(now);
            prop_assert_eq!(&a, &b, "backfill diverged at round {}", round);
            let after = on.incremental_stats();
            if after.backfill_passes_elided > mid.backfill_passes_elided {
                prop_assert!(
                    b.is_empty(),
                    "elided backfill pass at round {} but the baseline started {:?}",
                    round,
                    b
                );
            }
            // The retained plans are only ever a snapshot of a fruitless
            // pass on the current state; invariants (timeline occupancy
            // vs running set among them) must hold on both twins.
            prop_assert!(on.check_invariants().is_ok());
            prop_assert!(off.check_invariants().is_ok());
            prop_assert_eq!(
                on.cluster().free_nodes(),
                off.cluster().free_nodes(),
                "occupancy diverged at round {}",
                round
            );
        }
        prop_assert_eq!(job_table(&on), job_table(&off));
        let stats = off.incremental_stats();
        prop_assert_eq!(stats.sched_passes_elided, 0, "Off must never elide");
        prop_assert_eq!(stats.backfill_passes_elided, 0, "Off must never elide");
    }
}

/// What one [`quiet_stretch_run`] saw: quiet ticks the incremental twin
/// elided, and quiet ticks that landed exactly on the live conservative
/// memo's earliest planned start.
#[derive(Default)]
struct QuietTicks {
    elided: u64,
    on_planned_start: u64,
}

/// The shadow check over quiet stretches. Twin schedulers (incremental
/// on vs off) on a three-class machine, the `deep-mixed` inventory
/// shape, take class-constrained and unconstrained jobs. Each round
/// applies one random mutation and a scheduling + backfill pass, then a
/// quiet stretch of 2–6 backfill ticks at increasing instants with no
/// mutation between them. Running jobs are completed only by the random
/// mutation, so many overrun their estimates, which is what moves the
/// timeline's holes as the clock advances. Tick instants are drawn to
/// land on the edges where a memo's validity changes: the earliest start
/// of the retained conservative plan and the microsecond before it, the
/// microsecond after the last pass, and the expected end of a running
/// job and the microsecond before it.
fn quiet_stretch_run(seed: u64, nodes: u32, family: BackfillFamily) -> Result<QuietTicks, String> {
    let table = MachineMix::Hetero3.table(nodes, 16);
    let mk = |incremental: SchedIncremental| {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        cfg.backfill_family = family;
        cfg.sched_incremental = incremental;
        Slurm::new(Cluster::with_classes(table.clone()), cfg)
    };
    let mut on = mk(SchedIncremental::On);
    let mut off = mk(SchedIncremental::Off);
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut live: Vec<dmr::slurm::JobId> = Vec::new();
    let mut seen = QuietTicks::default();
    let mut clock = SimTime::ZERO;
    for round in 0..60u64 {
        clock += Span::from_secs(1 + step() % 60);
        match step() % 7 {
            0..=3 => {
                let need = 1 + (step() % u64::from(nodes * 3 / 4)) as u32;
                let dur = Span::from_secs(60 + step() % 8000);
                let constraint = match step() % 6 {
                    0..=3 => ClassConstraint::Any,
                    4 => ClassConstraint::Class((step() % 3) as usize),
                    _ => ClassConstraint::GpuRequired,
                };
                let req = || {
                    JobRequest::rigid(format!("j{round}"), need)
                        .with_expected_runtime(dur)
                        .with_constraint(constraint)
                };
                let a = on.submit(req(), clock);
                let b = off.submit(req(), clock);
                prop_assert_eq!(a, b, "ids diverged at submit");
                live.push(a);
            }
            4 if !live.is_empty() => {
                // Mostly the job whose estimate ran out first, as a
                // replay completes them; sometimes any live job.
                let overdue = on
                    .jobs()
                    .filter(|j| j.state == JobState::Running)
                    .filter_map(|j| Some((j.expected_end()?, j.id)))
                    .filter(|&(e, _)| e <= clock)
                    .min();
                let at = match overdue {
                    Some((_, id)) if step() % 4 != 0 => live.iter().position(|&l| l == id),
                    _ => None,
                };
                let id = live.remove(at.unwrap_or((step() % live.len() as u64) as usize));
                match on.job(id).map(|j| j.state) {
                    Some(JobState::Running) => {
                        on.complete(id, clock);
                        off.complete(id, clock);
                    }
                    Some(JobState::Pending) => {
                        on.cancel(id, clock);
                        off.cancel(id, clock);
                    }
                    _ => {}
                }
            }
            5 if !live.is_empty() => {
                let id = live[(step() % live.len() as u64) as usize];
                if on.job(id).is_some_and(|j| j.state == JobState::Running) {
                    let est = Span::from_secs(30 + step() % 900);
                    on.set_expected_runtime(id, est);
                    off.set_expected_runtime(id, est);
                }
            }
            _ => {}
        }
        let a = on.schedule(clock);
        prop_assert_eq!(
            &a,
            &off.schedule(clock),
            "schedule diverged at round {}",
            round
        );
        let a = on.backfill_pass(clock);
        prop_assert_eq!(
            &a,
            &off.backfill_pass(clock),
            "backfill diverged at round {}",
            round
        );

        // A tick on the microsecond before a running job's expected end
        // is followed by one on the end itself.
        let mut edge: Option<SimTime> = None;
        for _ in 0..2 + step() % 5 {
            let planned_start = on
                .conservative_plan()
                .and_then(|plan| plan.iter().map(|&(_, s)| s).min())
                .filter(|&s| s > clock);
            let running_end = on
                .jobs()
                .filter(|j| j.state == JobState::Running)
                .filter_map(|j| j.expected_end())
                .filter(|&e| e > clock)
                .min();
            let next = match (edge.take(), step() % 7, planned_start, running_end) {
                (Some(e), ..) => e,
                (None, 0 | 1, Some(s), _) => s,
                (None, 2, Some(s), _) if s.0 - 1 > clock.0 => SimTime(s.0 - 1),
                (None, 3, _, _) => clock + Span(1),
                (None, 4 | 5, _, Some(e)) if e.0 - 1 > clock.0 => {
                    edge = Some(e);
                    SimTime(e.0 - 1)
                }
                _ => clock + Span::from_secs(1 + step() % 60),
            };
            if planned_start == Some(next) {
                seen.on_planned_start += 1;
            }
            clock = next;
            let before = on.incremental_stats().backfill_passes_elided;
            let a = on.backfill_pass(clock);
            let b = off.backfill_pass(clock);
            prop_assert_eq!(
                &a,
                &b,
                "quiet tick at {:?} diverged (round {})",
                clock,
                round
            );
            if on.incremental_stats().backfill_passes_elided > before {
                seen.elided += 1;
                prop_assert!(
                    b.is_empty(),
                    "elided quiet tick at {:?} but the baseline started {:?}",
                    clock,
                    b
                );
            }
        }
        prop_assert!(on.check_invariants().is_ok());
        prop_assert!(off.check_invariants().is_ok());
        prop_assert_eq!(
            on.cluster().free_nodes(),
            off.cluster().free_nodes(),
            "occupancy diverged at round {}",
            round
        );
    }
    prop_assert_eq!(job_table(&on), job_table(&off));
    prop_assert_eq!(
        off.incremental_stats().backfill_passes_elided,
        0,
        "Off must never elide"
    );
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn quiet_ticks_elide_only_passes_that_repeat(
        seed in 0u64..100_000,
        family in 0u8..3,
        nodes in 12u32..41,
    ) {
        let family = if family == 2 {
            BackfillFamily::easy(4)
        } else {
            BackfillFamily::Conservative
        };
        quiet_stretch_run(seed, nodes, family)?;
    }
}

/// The quiet-stretch property has teeth: across a fixed set of cases the
/// conservative memo really does elide quiet ticks, and ticks really do
/// land on a memo's earliest planned start.
#[test]
fn quiet_stretches_exercise_the_conservative_memo() {
    let mut total = QuietTicks::default();
    for seed in 0..12u64 {
        let seen = quiet_stretch_run(
            seed,
            16 + (seed as u32 % 3) * 8,
            BackfillFamily::Conservative,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total.elided += seen.elided;
        total.on_planned_start += seen.on_planned_start;
    }
    assert!(total.elided > 0, "no conservative quiet tick was elided");
    assert!(
        total.on_planned_start > 0,
        "no tick landed on a planned start"
    );
}
