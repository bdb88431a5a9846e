//! Property test: [`dmr::slurm::Algorithm1`] behind the [`ResizePolicy`]
//! trait is decision-identical to the pre-refactor inline implementation.
//!
//! `reference_decide` below is a faithful transcription of the original
//! `Slurm::decide_resize` body (the inline Algorithm 1 that lived in
//! `crates/slurm/src/policy.rs` before the mechanism/policy split),
//! expressed over the scheduler's public read API. The property drives
//! randomized queue/cluster states and checks that the trait-object path
//! returns exactly the same verdict for every running job.
//!
//! The deep-queue cases extend this to hundreds of pending jobs, boosted
//! beneficiaries and a pending resizer, where the policies answer "which
//! queued job could my nodes admit?" from the size-indexed pending queue
//! instead of walking it. `reference_utilization` and
//! `reference_energy_aware` transcribe the `UtilizationTarget` and
//! `EnergyAware` decisions with that walk; a size-weighted priority
//! configuration pins the walk fallback the index takes when its order is
//! not exact.

use dmr::sim::SimTime;
use dmr::slurm::{
    JobId, JobRequest, JobState, MultifactorConfig, PolicyKind, ResizeAction, ResizeEnvelope,
    Slurm, SlurmConfig,
};
use dmr_cluster::Cluster;
use proptest::prelude::*;

/// The pre-refactor Algorithm 1, verbatim (minus the boost side effect,
/// which the mechanism applies after the decision in both versions).
fn reference_decide(s: &Slurm, id: JobId, now: SimTime) -> ResizeAction {
    let Some(job) = s.job(id) else {
        return ResizeAction::NoAction;
    };
    if job.state != JobState::Running {
        return ResizeAction::NoAction;
    }
    let Some(env) = job.resize else {
        return ResizeAction::NoAction;
    };
    let current = s.nodes_of(id);
    let free = s.cluster().free_nodes();
    let pending = s.pending_queue(now);

    if let Some(pref) = env.preferred {
        if pending.is_empty() && s.running_count() == 1 {
            match env.max_procs_to(current, env.max, free) {
                Some(t) => ResizeAction::Expand { to: t },
                None => ResizeAction::NoAction,
            }
        } else if pref == current {
            ResizeAction::NoAction
        } else if pref > current {
            match env.max_procs_to(current, pref, free) {
                Some(t) => ResizeAction::Expand { to: t },
                None => reference_wide(s, current, free, &pending, env),
            }
        } else if env.can_shrink_to(current, pref) {
            ResizeAction::Shrink {
                to: pref,
                beneficiary: None,
            }
        } else {
            reference_wide(s, current, free, &pending, env)
        }
    } else {
        reference_wide(s, current, free, &pending, env)
    }
}

fn reference_wide(
    s: &Slurm,
    current: u32,
    free: u32,
    pending: &[JobId],
    env: ResizeEnvelope,
) -> ResizeAction {
    if !pending.is_empty() {
        for &cand in pending {
            let req = s.job(cand).map(|j| j.requested_nodes).unwrap_or(0);
            let missing = req.saturating_sub(free);
            if missing == 0 {
                continue;
            }
            if let Some(to) = env
                .shrink_chain(current)
                .into_iter()
                .find(|to| current - to >= missing)
            {
                return ResizeAction::Shrink {
                    to,
                    beneficiary: Some(cand),
                };
            }
        }
        match env.max_procs_to(current, env.max, free) {
            Some(t) => ResizeAction::Expand { to: t },
            None => ResizeAction::NoAction,
        }
    } else {
        match env.max_procs_to(current, env.max, free) {
            Some(t) => ResizeAction::Expand { to: t },
            None => ResizeAction::NoAction,
        }
    }
}

/// The pre-index shrink search: walk the queue in priority order and
/// shrink minimally for the first job a chain step admits.
fn reference_first_blocked(
    s: &Slurm,
    current: u32,
    free: u32,
    pending: &[JobId],
    env: ResizeEnvelope,
) -> Option<ResizeAction> {
    for &cand in pending {
        let req = s.job(cand).map(|j| j.requested_nodes).unwrap_or(0);
        let missing = req.saturating_sub(free);
        if missing == 0 {
            continue;
        }
        if let Some(to) = env
            .shrink_chain(current)
            .into_iter()
            .find(|to| current - to >= missing)
        {
            return Some(ResizeAction::Shrink {
                to,
                beneficiary: Some(cand),
            });
        }
    }
    None
}

/// `UtilizationTarget::decide` with the queue walk.
fn reference_utilization(s: &Slurm, id: JobId, now: SimTime, low: f64, high: f64) -> ResizeAction {
    let env = s
        .job(id)
        .and_then(|j| j.resize)
        .expect("running flexible job");
    let current = s.nodes_of(id);
    let free = s.cluster().free_nodes();
    let total = s.cluster().total_nodes().max(1);
    let util = s.allocated_nodes() as f64 / total as f64;
    if util < low {
        return match env.max_procs_to(current, env.max, free) {
            Some(t) if !s.grow_steals_backfill_hole(id, t, now) => ResizeAction::Expand { to: t },
            _ => ResizeAction::NoAction,
        };
    }
    if util > high {
        let pending = s.pending_queue(now);
        if let Some(shrink) = reference_first_blocked(s, current, free, &pending, env) {
            return shrink;
        }
    }
    ResizeAction::NoAction
}

/// `EnergyAware::decide` with the queue walk.
fn reference_energy_aware(s: &Slurm, id: JobId, now: SimTime) -> ResizeAction {
    let env = s
        .job(id)
        .and_then(|j| j.resize)
        .expect("running flexible job");
    let current = s.nodes_of(id);
    let free = s.cluster().free_nodes();
    let pending = s.pending_queue(now);
    if !pending.is_empty() {
        return reference_first_blocked(s, current, free, &pending, env)
            .unwrap_or(ResizeAction::NoAction);
    }
    if let Some(pref) = env.preferred {
        if pref > current {
            return match env.max_procs_to(current, pref, free) {
                Some(t) if !s.grow_steals_backfill_hole(id, t, now) => {
                    ResizeAction::Expand { to: t }
                }
                _ => ResizeAction::NoAction,
            };
        }
        if pref < current && env.can_shrink_to(current, pref) {
            return ResizeAction::Shrink {
                to: pref,
                beneficiary: None,
            };
        }
        return ResizeAction::NoAction;
    }
    match env.shrink_chain(current).last().copied() {
        Some(to) => ResizeAction::Shrink {
            to,
            beneficiary: None,
        },
        None => ResizeAction::NoAction,
    }
}

/// Builds a deep queue on a `nodes`-node machine: the `runners` start as
/// flexible jobs (power-of-two sizes, so shrink chains exist), then
/// every entry of `queued` is submitted (sizes up to a few nodes past
/// the machine, one in three flexible), with a scheduling pass every ten
/// submissions so the machine stays full and the queue grows into the
/// hundreds. Every `boost_every`-th pending job is boosted, as a past
/// shrink beneficiary would be, and the first runner asks for one node
/// more than is free, leaving its resizer pending.
fn build_deep_state(
    cfg: SlurmConfig,
    nodes: u32,
    runners: &[(u32, bool)],
    queued: &[(u32, u32)],
    boost_every: usize,
) -> (Slurm, SimTime) {
    let mut s = Slurm::new(Cluster::new(nodes, 16), cfg);
    let envelope = |size: u32, prefer: bool| ResizeEnvelope {
        min: 1,
        max: nodes,
        preferred: prefer.then_some((size / 2).max(1)),
        factor: 2,
    };
    for (i, &(k, prefer)) in runners.iter().enumerate() {
        let size = (1u32 << (k % 5)).min(nodes);
        s.submit(
            JobRequest::flexible(format!("r{i}"), size, envelope(size, prefer)),
            SimTime::ZERO,
        );
    }
    s.schedule(SimTime::ZERO);
    let mut now = SimTime::ZERO;
    for (i, &(size, kind)) in queued.iter().enumerate() {
        now = SimTime::from_secs(1 + i as u64 * 2);
        let size = size % (nodes + 4) + 1;
        let req = if kind == 0 {
            JobRequest::flexible(format!("q{i}"), size, envelope(size, false))
        } else {
            JobRequest::rigid(format!("q{i}"), size)
        };
        s.submit(req, now);
        if i % 10 == 9 {
            s.schedule(now);
        }
    }
    let pending: Vec<(u64, JobId)> = s
        .jobs()
        .filter(|j| j.state == JobState::Pending)
        .map(|j| (j.seq, j.id))
        .collect();
    for &(seq, id) in &pending {
        if (seq as usize).is_multiple_of(boost_every) {
            s.boost(id);
        }
    }
    let first_runner = s
        .jobs()
        .filter(|j| j.state == JobState::Running && j.resize.is_some())
        .min_by_key(|j| j.seq)
        .map(|j| j.id);
    if let Some(id) = first_runner {
        let to = s.nodes_of(id) + s.cluster().free_nodes() + 1;
        let _ = s.expand_protocol(id, to, now);
    }
    (s, now + dmr::sim::Span::from_secs(5))
}

/// Checks every policy against its reference on every running flexible
/// job of `s` (reference first, then the trait path, so the boost side
/// effect lands after both saw the same state), and the energy-aware
/// power verdict against its reference.
fn check_policies_against_references(s: &mut Slurm, now: SimTime) -> Result<(), String> {
    let ids: Vec<JobId> = s
        .jobs()
        .filter(|j| j.state == JobState::Running && j.resize.is_some())
        .map(|j| j.id)
        .collect();
    let (low, high) = (0.55, 0.85);
    for kind in [
        PolicyKind::Algorithm1,
        PolicyKind::UtilizationTarget { low, high },
        PolicyKind::energy_aware(),
    ] {
        s.set_policy(kind.build());
        for &id in &ids {
            let expected = match kind {
                PolicyKind::Algorithm1 => reference_decide(s, id, now),
                PolicyKind::UtilizationTarget { .. } => {
                    reference_utilization(s, id, now, low, high)
                }
                _ => reference_energy_aware(s, id, now),
            };
            let actual = s.decide_resize(id, now);
            prop_assert_eq!(actual, expected, "{} on job {:?}", kind.name(), id);
        }
    }
    let reserve = 2;
    let expected_off = if s.pending_queue(now).is_empty() {
        s.cluster().free_nodes().saturating_sub(reserve)
    } else {
        0
    };
    s.set_policy(PolicyKind::EnergyAware { reserve }.build());
    prop_assert_eq!(s.decide_power_down(now), expected_off);
    s.check_invariants()?;
    Ok(())
}

#[test]
fn size_weighted_deep_queue_takes_the_walk_fallback() {
    let nodes = 48;
    let mut cfg = SlurmConfig::for_cluster(nodes);
    cfg.multifactor = MultifactorConfig::size_weighted(nodes);
    let runners = [(4, false), (3, true), (2, false), (1, false), (0, true)];
    let queued: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 37 % 61, i % 3)).collect();
    let (mut s, now) = build_deep_state(cfg, nodes, &runners, &queued, 23);
    assert!(
        !s.pending_order_is_static(),
        "size weight must disable the index order"
    );
    assert!(s.pending_queue_len() >= 200, "queue must be deep");
    check_policies_against_references(&mut s, now).unwrap();
}

/// Builds a randomized scheduler state: `nodes`-node cluster, a batch of
/// jobs of mixed rigidity/sizes/preferences submitted over staggered
/// instants with scheduling cycles in between, so some run, some queue.
fn build_state(nodes: u32, jobs: &[(u32, bool, u32, u32, bool)]) -> (Slurm, SimTime) {
    let mut s = Slurm::with_cluster(Cluster::new(nodes, 16));
    let mut now = SimTime::ZERO;
    for (i, &(size, flexible, min, max, prefer)) in jobs.iter().enumerate() {
        let size = size.clamp(1, nodes);
        let req = if flexible {
            let min = min.clamp(1, size);
            let max = max.clamp(size, nodes.max(size));
            JobRequest::flexible(
                format!("j{i}"),
                size,
                ResizeEnvelope {
                    min,
                    max,
                    preferred: prefer.then_some(min.midpoint(max)),
                    factor: 2,
                },
            )
        } else {
            JobRequest::rigid(format!("j{i}"), size)
        };
        now = SimTime::from_secs(i as u64 * 3);
        s.submit(req, now);
        s.schedule(now);
    }
    let decision_time = now + dmr::sim::Span::from_secs(5);
    (s, decision_time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm1_trait_matches_inline_reference(
        nodes in 4u32..66,
        jobs in proptest::collection::vec(
            (1u32..20, proptest::bool::ANY, 1u32..8, 4u32..33, proptest::bool::ANY),
            1..12,
        ),
    ) {
        let (mut s, now) = build_state(nodes, &jobs);
        let ids: Vec<JobId> = s
            .jobs()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        for id in ids {
            // Reference first (pure read), then the trait path; the boost
            // side effect lands after both saw the same state.
            let expected = reference_decide(&s, id, now);
            let actual = s.decide_resize(id, now);
            prop_assert_eq!(
                actual,
                expected,
                "job {:?} on {} nodes with workload {:?}",
                id,
                nodes,
                &jobs
            );
        }
    }

    #[test]
    fn non_running_and_rigid_jobs_always_no_action(
        nodes in 4u32..33,
        jobs in proptest::collection::vec(
            (1u32..20, proptest::bool::ANY, 1u32..8, 4u32..33, proptest::bool::ANY),
            1..10,
        ),
    ) {
        let (mut s, now) = build_state(nodes, &jobs);
        let ids: Vec<(JobId, bool, bool)> = s
            .jobs()
            .map(|j| (j.id, j.state == JobState::Running, j.resize.is_some()))
            .collect();
        for (id, running, flexible) in ids {
            if !running || !flexible {
                prop_assert_eq!(s.decide_resize(id, now), ResizeAction::NoAction);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn deep_queue_policies_match_inline_references(
        nodes in 16u32..66,
        runners in proptest::collection::vec((0u32..5, proptest::bool::ANY), 2..7),
        queued in proptest::collection::vec((0u32..80, 0u32..3), 200..400),
        boost_every in 5usize..40,
    ) {
        let cfg = SlurmConfig::for_cluster(nodes);
        let (mut s, now) = build_deep_state(cfg, nodes, &runners, &queued, boost_every);
        prop_assert!(s.pending_order_is_static(), "the default order is index-exact");
        prop_assert!(s.pending_queue_len() >= 100, "queue must be deep: {}", s.pending_queue_len());
        check_policies_against_references(&mut s, now)?;
    }
}
