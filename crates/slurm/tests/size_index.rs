//! Property test: the size-indexed pending query equals a linear walk.
//!
//! [`Slurm::first_pending_sized`] answers "the first job of
//! `pending_queue(now)` whose request lies in `lo..=hi`" from per-size
//! buckets and a min-key segment tree while the index order is exact.
//! Random sequences of submissions (class-constrained and wider than the
//! machine included), scheduling passes, boosts, cancellations, kill and
//! requeue, completions, resize decisions, expansions (finished at once,
//! or leaving resizers pending that are finished once started), shrinks
//! and estimate refreshes drive the scheduler on a three-class machine;
//! after every step the query must equal the walk for every range, and
//! `check_invariants` must hold. Besides the size buckets (every pending
//! non-resizer job in its own bucket, the tree agreeing with the bucket
//! heads), that covers the running commitments after each of the six
//! mutation sites that change them — start, completion, cancellation,
//! estimate refresh, expansion and shrink — with the per-class timelines
//! both dormant and live.

use dmr_cluster::{ClassConstraint, ClassTable, Cluster, MachineClass};
use dmr_sim::{SimTime, Span};
use dmr_slurm::{Dependency, JobId, JobRequest, JobState, ResizeEnvelope, Slurm, SlurmConfig};
use proptest::prelude::*;

fn three_class_cluster(standard: u32, big: u32, gpu: u32) -> Cluster {
    let mut gpu_class = MachineClass::standard(8);
    gpu_class.gpu = true;
    Cluster::with_classes(ClassTable::new(&[
        (MachineClass::standard(8), standard),
        (MachineClass::standard(8), big),
        (gpu_class, gpu),
    ]))
}

fn constraint_for(sel: u32) -> ClassConstraint {
    match sel % 5 {
        0..=2 => ClassConstraint::Any,
        3 => ClassConstraint::Class((sel as usize / 5) % 3),
        _ => ClassConstraint::GpuRequired,
    }
}

fn jobs_in(s: &Slurm, state: JobState) -> Vec<JobId> {
    let mut ids: Vec<(u64, JobId)> = s
        .jobs()
        .filter(|j| j.state == state)
        .map(|j| (j.seq, j.id))
        .collect();
    ids.sort();
    ids.into_iter().map(|(_, id)| id).collect()
}

fn pick(ids: &[JobId], sel: u32) -> Option<JobId> {
    (!ids.is_empty()).then(|| ids[sel as usize % ids.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_query_equals_the_queue_walk(
        standard in 2u32..12,
        big in 1u32..8,
        gpu in 1u32..6,
        ops in proptest::collection::vec((0u32..11, 0u32..64, 1u32..30), 1..60),
    ) {
        let cluster = three_class_cluster(standard, big, gpu);
        let total = cluster.total_nodes();
        let mut s = Slurm::new(cluster, SlurmConfig::for_cluster(total));
        for (step, &(op, sel, n)) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as u64 * 7);
            match op {
                0 | 1 => {
                    // Sizes up to a few nodes past the machine: wide jobs
                    // can never start but must still index.
                    let size = n % (total + 4) + 1;
                    let req = if sel % 2 == 0 {
                        JobRequest::flexible(
                            format!("j{step}"),
                            size,
                            ResizeEnvelope { min: 1, max: total, preferred: None, factor: 2 },
                        )
                    } else {
                        JobRequest::rigid(format!("j{step}"), size)
                    };
                    s.submit(req.with_constraint(constraint_for(sel)), now);
                }
                2 => {
                    s.schedule(now);
                    s.backfill_pass(now);
                }
                3 => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Pending), sel) {
                        s.boost(id);
                    }
                }
                4 => {
                    let live: Vec<JobId> = jobs_in(&s, JobState::Pending)
                        .into_iter()
                        .chain(jobs_in(&s, JobState::Running))
                        .collect();
                    if let Some(id) = pick(&live, sel) {
                        s.cancel(id, now);
                    }
                }
                5 => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        s.requeue_failed(id, now);
                    }
                }
                6 => {
                    // Expansions that cannot start leave a boosted
                    // resizer pending (it must stay out of the buckets);
                    // one that started since finishes its expansion
                    // while its parent still runs.
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        match s.job(id).and_then(|j| j.dependency) {
                            Some(Dependency::ExpandOf(parent)) => {
                                if s.job(parent).is_some_and(|p| p.state == JobState::Running) {
                                    s.finish_expand(id, now).expect("started resizer");
                                }
                            }
                            None => {
                                let to = s.nodes_of(id) + n % 8 + 1;
                                let _ = s.expand_protocol(id, to, now);
                            }
                        }
                    }
                }
                7 => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        s.decide_resize(id, now);
                    }
                }
                8 => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        if s.job(id).is_some_and(|j| !j.is_resizer()) {
                            s.complete(id, now);
                        }
                    }
                }
                9 => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        let held = s.nodes_of(id);
                        if held > 1 && s.job(id).is_some_and(|j| !j.is_resizer()) {
                            let to = 1 + n % (held - 1);
                            s.shrink_protocol(id, to, now).expect("valid shrink");
                        }
                    }
                }
                _ => {
                    if let Some(id) = pick(&jobs_in(&s, JobState::Running), sel) {
                        s.set_expected_runtime(id, Span::from_secs(u64::from(n) * 97));
                    }
                }
            }
            s.check_invariants()?;
            prop_assert!(s.pending_order_is_static(), "the index path must be the one under test");
            let queue = s.pending_queue(now);
            prop_assert_eq!(s.pending_queue_len(), queue.len());
            for lo in 0..=total + 5 {
                for hi in lo..=total + 5 {
                    let walk = queue.iter().copied().find(|&id| {
                        (lo..=hi).contains(&s.job(id).expect("pending job exists").requested_nodes)
                    });
                    prop_assert_eq!(
                        s.first_pending_sized(lo, hi, now),
                        walk,
                        "range {}..={} after step {} ({:?})",
                        lo,
                        hi,
                        step,
                        &ops[..=step]
                    );
                }
            }
        }
    }
}
