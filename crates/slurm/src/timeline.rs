//! Running-job commitments and the backfill timelines derived from them.
//!
//! A running job commits its held nodes — split per machine class on a
//! heterogeneous inventory — until its expected end. [`Commitments`]
//! keeps exactly one record of that fact per running job and owns
//! everything the scheduler derives from it:
//!
//! * the `(expected_end, held_nodes, id)` order — exactly the order the
//!   EASY reservation scan produced by sorting — and the held totals,
//!   global and per class;
//! * the aggregate slot-set timeline ([`SlotSet`]) and, on multi-class
//!   inventories, one timeline per class. A mutation queues O(1) deltas
//!   that are applied the next time a timeline is consulted, so the
//!   scheduling hot paths never pay tree costs;
//! * the reservation and hole queries the backfill passes and the resize
//!   hole guard ask.
//!
//! Each scheduler mutation of a running job — start, completion or
//! cancellation, estimate refresh, expansion, shrink — is one call here,
//! so which timelines a change touches is decided in this module alone.
//!
//! The per-class timelines sit dormant until the first class-constrained
//! submission ([`Commitments::activate_classes`]): they are only queried
//! on behalf of a job with a sole eligible class, and such a job must
//! have been submitted first. Unconstrained workloads on heterogeneous
//! clusters therefore never pay per-class plan, sync or checkpoint costs.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use dmr_cluster::{ClassConstraint, Cluster};
use dmr_sim::{SimTime, Span};

use crate::job::JobId;
use crate::slotset::{SlotSet, SlotSetCheckpoint};

/// The reservation of a job no hole can ever hold: no shadow time and no
/// spare nodes, so nothing may backfill on its account.
pub(crate) const NO_HOLE: (SimTime, u32) = (SimTime(u64::MAX), 0);

/// One running job's commitment.
#[derive(Debug)]
struct Commitment {
    end: SimTime,
    nodes: u32,
    /// Per-class split of `nodes` at the last (re)plan: the exact counts
    /// the matching unplan must mirror, whatever the allocation looks
    /// like by then. Empty on single-class inventories.
    classes: Vec<u32>,
}

/// Every running job's `(expected end, held nodes, per-class split)` and
/// the orders, totals and timelines derived from it (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Commitments {
    jobs: BTreeMap<JobId, Commitment>,
    order: BTreeSet<(SimTime, u32, JobId)>,
    /// Sum of held nodes over every running job. `free + held` is the
    /// node count *available over time* — the base the timelines
    /// subtract occupancy from.
    held: u32,
    /// Per-class analogue of `held` (empty on single-class inventories).
    class_held: Vec<u32>,
    /// `[0]` is the aggregate timeline, `[1 + c]` class `c`'s. `RefCell`:
    /// deferred deltas are applied behind `&self` (the resize hole guard
    /// and the invariant check).
    timelines: RefCell<Vec<Timeline>>,
    /// How many of `timelines` are maintained: 1 while the per-class
    /// timelines are dormant, all of them once live.
    live: usize,
}

impl Commitments {
    /// No running jobs, on an inventory of `classes` machine classes.
    pub(crate) fn new(classes: usize) -> Self {
        let per_class = if classes > 1 { classes } else { 0 };
        Commitments {
            jobs: BTreeMap::new(),
            order: BTreeSet::new(),
            held: 0,
            class_held: vec![0; per_class],
            timelines: RefCell::new((0..=per_class).map(|_| Timeline::new()).collect()),
            live: 1,
        }
    }

    /// Number of running jobs.
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// A job started: it holds its current allocation until `end`.
    pub(crate) fn start(&mut self, id: JobId, end: SimTime, cluster: &Cluster) {
        debug_assert!(!self.jobs.contains_key(&id), "{id:?} already running");
        let commitment = Commitment {
            end,
            nodes: cluster.held_by(id.owner_tag()),
            classes: self.split(id, cluster),
        };
        self.commit(id, commitment);
    }

    /// A running job completed or was cancelled. Tolerates a job that is
    /// not running, mirroring the scheduler's release-mode leniency.
    pub(crate) fn finish(&mut self, id: JobId) {
        self.retract(id);
    }

    /// A running job's expected end moved (estimate refresh): only its
    /// own old and new commitment intervals are re-planned.
    pub(crate) fn set_end(&mut self, id: JobId, end: SimTime) {
        if let Some(mut commitment) = self.retract(id) {
            commitment.end = end;
            self.commit(id, commitment);
        }
    }

    /// A running job's allocation changed (expand / shrink): re-reads its
    /// held nodes and their class split from `cluster`.
    pub(crate) fn resize(&mut self, id: JobId, cluster: &Cluster) {
        if let Some(mut commitment) = self.retract(id) {
            commitment.nodes = cluster.held_by(id.owner_tag());
            commitment.classes = self.split(id, cluster);
            self.commit(id, commitment);
        }
    }

    fn split(&self, id: JobId, cluster: &Cluster) -> Vec<u32> {
        if self.class_held.is_empty() {
            Vec::new()
        } else {
            cluster.held_class_counts(id.owner_tag())
        }
    }

    fn commit(&mut self, id: JobId, commitment: Commitment) {
        self.order.insert((commitment.end, commitment.nodes, id));
        self.held += commitment.nodes;
        for (held, &n) in self.class_held.iter_mut().zip(&commitment.classes) {
            *held += n;
        }
        self.queue(&commitment, true);
        self.jobs.insert(id, commitment);
    }

    fn retract(&mut self, id: JobId) -> Option<Commitment> {
        let commitment = self.jobs.remove(&id)?;
        self.order.remove(&(commitment.end, commitment.nodes, id));
        self.held -= commitment.nodes;
        for (held, &n) in self.class_held.iter_mut().zip(&commitment.classes) {
            *held -= n;
        }
        self.queue(&commitment, false);
        Some(commitment)
    }

    /// Queues a commitment's deltas on every maintained timeline.
    fn queue(&mut self, commitment: &Commitment, plan: bool) {
        let tls = self.timelines.get_mut();
        let end = commitment.end;
        tls[0].queue(end, commitment.nodes, plan);
        for (tl, &nodes) in tls[1..self.live].iter_mut().zip(&commitment.classes) {
            tl.queue(end, nodes, plan);
        }
    }

    /// Brings the per-class timelines live (a no-op on single-class
    /// inventories and once live): plans every recorded per-class
    /// commitment, after which every mutation maintains them. Dormant
    /// timelines were never touched, so the rebuild plans the same
    /// `(end, count)` commitments eager maintenance would have
    /// accumulated, and every query answer is the same.
    pub(crate) fn activate_classes(&mut self, now: SimTime) {
        let tls = self.timelines.get_mut();
        if self.live == tls.len() {
            return;
        }
        self.live = tls.len();
        for commitment in self.jobs.values() {
            for (tl, &n) in tls[1..].iter_mut().zip(&commitment.classes) {
                let h = tl.slots.horizon();
                tl.slots.plan(h, commitment.end, n);
            }
        }
        for tl in &mut tls[1..] {
            tl.sync(now);
        }
    }

    fn each_live(&self, f: impl FnMut(&mut Timeline)) {
        self.timelines.borrow_mut()[..self.live]
            .iter_mut()
            .for_each(f);
    }

    /// Brings every maintained timeline up to date with the clock.
    pub(crate) fn sync(&self, now: SimTime) {
        self.each_live(|tl| tl.sync(now));
    }

    /// Checkpoints every maintained timeline (see [`Timeline::save`]).
    /// Call [`Commitments::sync`] first.
    pub(crate) fn save(&mut self) {
        self.each_live(Timeline::save);
    }

    /// Reverts to the [`Commitments::save`] checkpoint, keeping the
    /// commitments of jobs started since.
    pub(crate) fn restore(&mut self) {
        self.each_live(Timeline::restore);
    }

    /// Drops every journaled temporary plan.
    pub(crate) fn rollback(&mut self) {
        self.each_live(|tl| tl.slots.rollback_plans());
    }

    /// Plans a pass-local reservation of `nodes` over `[from, until)`
    /// into the aggregate timeline and, for a job with a sole eligible
    /// class, that class's timeline too (so unconstrained jobs cannot
    /// double-book the same global window). Under a
    /// [`Commitments::save`] checkpoint the plan goes in directly and
    /// [`Commitments::restore`] drops it; otherwise it is journaled and
    /// [`Commitments::rollback`] drops it.
    pub(crate) fn plan_temporary(
        &mut self,
        class: Option<usize>,
        from: SimTime,
        until: SimTime,
        nodes: u32,
    ) {
        let tls = self.timelines.get_mut();
        debug_assert!(
            class.is_none_or(|c| c + 1 < self.live),
            "dormant class planned"
        );
        for i in std::iter::once(0).chain(class.map(|c| c + 1)) {
            let tl = &mut tls[i];
            if tl.recording {
                tl.slots.plan(from, until, nodes);
            } else {
                tl.slots.plan_journaled(from, until, nodes);
            }
        }
    }

    /// The single class eligible under `constraint`: `None` for `Any`, on
    /// single-class inventories, or when the constraint spans several
    /// classes (then only the aggregate timeline can answer for it).
    pub(crate) fn sole_class(
        &self,
        cluster: &Cluster,
        constraint: ClassConstraint,
    ) -> Option<usize> {
        if self.class_held.is_empty() || constraint == ClassConstraint::Any {
            return None;
        }
        let table = cluster.table();
        let mut eligible =
            (0..table.num_classes()).filter(|&c| constraint.allows(c, table.class(c)));
        match (eligible.next(), eligible.next()) {
            (Some(c), None) => Some(c),
            _ => None,
        }
    }

    /// The timeline answering for `class` (`None`: the aggregate).
    fn timeline(&self, class: Option<usize>) -> Ref<'_, Timeline> {
        let i = class.map_or(0, |c| c + 1);
        Ref::map(self.timelines.borrow(), |tls| &tls[i])
    }

    /// Nodes available over time to `class` (`None`: the whole machine):
    /// free now plus held by running jobs.
    fn avail(&self, cluster: &Cluster, class: Option<usize>) -> u32 {
        match class {
            Some(c) => cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c],
            None => cluster.free_nodes() + self.held,
        }
    }

    /// Earliest instant `>= now` from which `need` nodes of `class`
    /// (`None`: any) stay free on the timeline for `dur`; `None` if the
    /// running commitments never leave that many.
    pub(crate) fn earliest_hole(
        &self,
        cluster: &Cluster,
        class: Option<usize>,
        need: u32,
        dur: Span,
        now: SimTime,
    ) -> Option<SimTime> {
        let avail = self.avail(cluster, class);
        if avail < need {
            return None;
        }
        let cap = i64::from(avail - need);
        self.timeline(class).slots.earliest_hole(now, cap, dur)
    }

    /// A backfill reservation `(start, spare)` for a blocked job: the
    /// [`Commitments::earliest_hole`], with the spare count taken against
    /// the occupancy peak inside the window (so backfilling against it
    /// can never overdraw it). For a job with a sole eligible class the
    /// class timeline answers; any other constraint gets the aggregate
    /// hole (over-optimistic for a multi-class constraint, but a
    /// reservation throttles lower-priority starts, it promises no start
    /// time).
    pub(crate) fn reservation(
        &self,
        cluster: &Cluster,
        class: Option<usize>,
        need: u32,
        dur: Span,
        now: SimTime,
    ) -> (SimTime, u32) {
        let Some(s) = self.earliest_hole(cluster, class, need, dur, now) else {
            return NO_HOLE;
        };
        let cap = i64::from(self.avail(cluster, class) - need);
        (
            s,
            (cap - self.timeline(class).slots.max_in(s, s + dur)) as u32,
        )
    }

    /// Earliest instant at which `need` nodes will be free, judging by
    /// running jobs' expected ends, plus the spare ("extra") nodes then:
    /// the EASY reservation for the top blocked job, walked in
    /// `(end, nodes, id)` order from the current free count.
    pub(crate) fn walk_reservation(
        &self,
        cluster: &Cluster,
        need: u32,
        now: SimTime,
    ) -> (SimTime, u32) {
        // Estimates may never free enough nodes (transiently, while
        // resizer nodes are detached): then no backfill headroom.
        first_fit(cluster.free_nodes(), need, &self.order)
            .map_or(NO_HOLE, |(end, spare)| (end.max(now), spare))
    }

    /// The first EASY reservation, answered from the timeline but
    /// bit-for-bit identical to [`Commitments::walk_reservation`].
    ///
    /// The timeline locates the crossing slot in O(log): the first
    /// boundary `S` where planned occupancy leaves `need` nodes free. The
    /// walk, however, stops *inside* the group of running jobs sharing
    /// the expected end `S` — its "extra" count excludes later same-end
    /// entries — so the partial accumulation is replayed over just that
    /// group (O(group), not O(running)).
    pub(crate) fn first_reservation(
        &self,
        cluster: &Cluster,
        need: u32,
        now: SimTime,
    ) -> (SimTime, u32) {
        let free_now = cluster.free_nodes();
        // Defensive: callers only ask about blocked jobs (free < need).
        // Should the preconditions ever not hold, walk so the answer is
        // unconditionally identical.
        if free_now >= need || self.jobs.is_empty() {
            return self.walk_reservation(cluster, need, now);
        }
        let avail = free_now + self.held;
        if avail < need {
            return NO_HOLE;
        }
        let cap = i64::from(avail - need);
        let (s, occ_s) = {
            let tl = self.timeline(None);
            let Some(s) = tl.slots.first_fit_at(now, cap) else {
                return NO_HOLE;
            };
            (s, tl.slots.occupied_at(s))
        };
        let last = |t: SimTime| (t, u32::MAX, JobId(u64::MAX));
        let hit = if s <= now {
            // Jobs already past their estimate (their ends clamp to `now`
            // in the walk) free enough on their own.
            first_fit(free_now, need, self.order.range(..=last(now))).map(|(_, spare)| (now, spare))
        } else {
            let group = self.order.range((s, 0, JobId(0))..=last(s));
            let group_sum: u32 = group.clone().map(|&(_, n, _)| n).sum();
            // Free count just before the group: avail - occ(S) counts
            // every job ending at or before S as freed; subtract the
            // group to get the walk's accumulator at its first entry.
            first_fit(avail - (occ_s as u32) - group_sum, need, group)
        };
        if let Some(hit) = hit {
            return hit;
        }
        // Unreachable while the timeline mirrors the running set; walk
        // rather than guess.
        self.walk_reservation(cluster, need, now)
    }

    /// Re-derives every structure from `running` — the `(id, expected
    /// end)` of each job the job table holds as running — and `cluster`'s
    /// allocations, and compares: the order and held totals, the recorded
    /// per-class splits, and each maintained timeline (deferred deltas
    /// flushed) against its occupancy profile.
    pub(crate) fn check(
        &self,
        cluster: &Cluster,
        running: &[(JobId, SimTime)],
    ) -> Result<(), String> {
        if running.len() != self.jobs.len() {
            return Err(format!(
                "running commitments {} != running jobs {}",
                self.jobs.len(),
                running.len()
            ));
        }
        let mut scan: Vec<(SimTime, u32)> = running
            .iter()
            .map(|&(id, end)| (end, cluster.held_by(id.owner_tag())))
            .collect();
        scan.sort();
        let walked: Vec<(SimTime, u32)> = self.order.iter().map(|&(end, n, _)| (end, n)).collect();
        if scan != walked {
            return Err(format!("reservation order {walked:?} != scan {scan:?}"));
        }
        let held: u32 = scan.iter().map(|&(_, n)| n).sum();
        if held != self.held {
            return Err(format!("held-total {} != scanned {held}", self.held));
        }
        let mut tls = self.timelines.borrow_mut();
        check_profile(&mut tls[0], &scan, "aggregate")?;
        if self.class_held.is_empty() {
            return Ok(());
        }
        // One record per job: the split lives next to the order key, so
        // the record count is the length checked above.
        let mut want_held = vec![0u32; self.class_held.len()];
        for &(id, _) in running {
            let counts = cluster.held_class_counts(id.owner_tag());
            let recorded = self.jobs.get(&id).map(|r| r.classes.as_slice());
            if recorded != Some(counts.as_slice()) {
                return Err(format!(
                    "class counts of {id:?}: recorded {recorded:?} != held {counts:?}"
                ));
            }
            for (want, n) in want_held.iter_mut().zip(counts) {
                *want += n;
            }
        }
        if want_held != self.class_held {
            return Err(format!(
                "class held {:?} != scanned {want_held:?}",
                self.class_held
            ));
        }
        // Dormant class timelines are empty by design (they are rebuilt
        // on activation), so their occupancy is checkable only once live.
        for c in 0..self.live - 1 {
            let profile: Vec<(SimTime, u32)> = running
                .iter()
                .map(|&(id, end)| (end, self.jobs.get(&id).map_or(0, |r| r.classes[c])))
                .collect();
            check_profile(&mut tls[1 + c], &profile, &format!("class {c}"))?;
        }
        Ok(())
    }
}

/// Adds the nodes of `entries`, in order, to `free` until `need` fit:
/// the end of the entry that got there and the spare nodes then.
fn first_fit<'a>(
    mut free: u32,
    need: u32,
    entries: impl IntoIterator<Item = &'a (SimTime, u32, JobId)>,
) -> Option<(SimTime, u32)> {
    for &(end, nodes, _) in entries {
        free += nodes;
        if free >= need {
            return Some((end, free - need));
        }
    }
    None
}

/// Compares a timeline (deferred deltas flushed) with the occupancy
/// profile of `profile`'s `(end, nodes)` commitments at every breakpoint
/// of either step function: free-count conservation across plan, unplan,
/// merge and resize re-planning.
fn check_profile(tl: &mut Timeline, profile: &[(SimTime, u32)], what: &str) -> Result<(), String> {
    tl.flush();
    tl.slots.validate()?;
    let horizon = tl.slots.horizon();
    let expected_at = |t: SimTime| -> i64 {
        profile
            .iter()
            .filter(|&&(end, _)| end > t)
            .map(|&(_, n)| i64::from(n))
            .sum()
    };
    let mut probes: Vec<SimTime> = tl.slots.slots().iter().map(|&(b, _)| b).collect();
    probes.extend(profile.iter().map(|&(end, _)| end.max(horizon)));
    for p in probes {
        let got = tl.slots.occupied_at(p);
        let want = expected_at(p.max(horizon));
        if got != want {
            return Err(format!(
                "{what} timeline occupancy {got} at {p:?} != running profile {want}"
            ));
        }
    }
    Ok(())
}

/// One deferred timeline mutation: a running job's node commitment over
/// `[horizon, end)`, to add (`plan`) or remove. Applying from the
/// *current* horizon is exact: occupancy behind the horizon is clipped
/// on both plan and unplan, and [`SlotSet::advance`] prunes whatever a
/// plan wrote behind the clock before any query runs.
#[derive(Debug, Clone, Copy)]
struct TimelineDelta {
    end: SimTime,
    nodes: u32,
    plan: bool,
}

impl TimelineDelta {
    fn apply(self, slots: &mut SlotSet) {
        let h = slots.horizon();
        if self.plan {
            slots.plan(h, self.end, self.nodes);
        } else {
            slots.unplan(h, self.end, self.nodes);
        }
    }
}

/// A slot-set timeline plus its deferred-delta queue.
#[derive(Debug)]
struct Timeline {
    slots: SlotSet,
    queued: Vec<TimelineDelta>,
    /// Checkpoint buffer for [`Timeline::save`], retained so steady-state
    /// saves are allocation-free memcpys.
    ckpt: SlotSetCheckpoint,
    /// Real (non-plan) deltas flushed while a checkpoint is active — the
    /// mid-pass starts whose commitments must survive the restore.
    recorded: Vec<TimelineDelta>,
    /// Whether a [`Timeline::save`] checkpoint is awaiting restore.
    recording: bool,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            slots: SlotSet::new(SimTime::ZERO),
            queued: Vec::new(),
            ckpt: SlotSetCheckpoint::default(),
            recorded: Vec::new(),
            recording: false,
        }
    }

    /// Queues a delta for application at the next consultation.
    fn queue(&mut self, end: SimTime, nodes: u32, plan: bool) {
        if nodes == 0 {
            return;
        }
        self.queued.push(TimelineDelta { end, nodes, plan });
        // Keep memory O(running) even when no backfill pass ever drains
        // the queue (backfill disabled): paired plan/unplan deltas cancel
        // once applied.
        if self.queued.len() >= 1024 {
            self.flush();
        }
    }

    /// Applies every queued delta (without moving the horizon).
    fn flush(&mut self) {
        for d in self.queued.drain(..) {
            d.apply(&mut self.slots);
            if self.recording {
                self.recorded.push(d);
            }
        }
    }

    /// Brings the timeline up to date with the simulation clock: applies
    /// queued deltas, then garbage-collects everything behind `now`.
    fn sync(&mut self, now: SimTime) {
        self.flush();
        self.slots.advance(now);
    }

    /// Checkpoints the timeline so a pass can commit temporary plans
    /// directly ([`SlotSet::plan`], no journal) and drop them all with
    /// one [`Timeline::restore`]. Real deltas flushed in between (jobs
    /// the pass *started*) are recorded and survive the restore — they
    /// are replayed on top of the checkpoint. The queue must be empty
    /// (call [`Timeline::sync`] first) so the checkpoint is exact.
    fn save(&mut self) {
        debug_assert!(self.queued.is_empty(), "checkpoint with queued deltas");
        self.slots.save(&mut self.ckpt);
        self.recorded.clear();
        self.recording = true;
    }

    /// Reverts to the last [`Timeline::save`], then replays the real
    /// deltas recorded since. The horizon did not move while recording
    /// (passes run at one instant), so replaying from the restored
    /// horizon is exact — the same clipping [`Timeline::flush`] applied.
    fn restore(&mut self) {
        debug_assert!(self.recording, "restore without a checkpoint");
        self.recording = false;
        self.slots.restore(&self.ckpt);
        for d in self.recorded.drain(..) {
            d.apply(&mut self.slots);
        }
    }
}

#[cfg(test)]
impl Commitments {
    /// Whether the inventory has per-class timelines and they are all
    /// dormant: not maintained, no delta queued, nothing planned on them
    /// (a fresh timeline is one empty slot at the origin).
    pub(crate) fn classes_dormant(&self) -> bool {
        let tls = self.timelines.borrow();
        tls.len() > 1
            && self.live == 1
            && tls[1..]
                .iter()
                .all(|tl| tl.queued.is_empty() && tl.slots.slots() == [(SimTime::ZERO, 0)])
    }

    /// Whether the per-class timelines are maintained.
    pub(crate) fn classes_live(&self) -> bool {
        self.live > 1
    }
}
