//! Incremental scheduler indices — the hot-path structures behind
//! [`crate::slurm::Slurm`].
//!
//! Every scheduling pass used to rediscover global order by scanning the
//! whole job table: recompute every multifactor priority and sort
//! (pending order), collect-and-sort running end times (backfill
//! reservations), scan for dead resizer jobs. These structures maintain
//! the same orders *incrementally*, updated at the mutation points where
//! relative order can actually change:
//!
//! * [`PendingIndex`] — the pending queue keyed by
//!   `(boosted, submit_time, id)`. The multifactor age term grows at the
//!   same rate for every pending job, so under the default configuration
//!   (pure age weight, uniform base priority) the priority-sorted order
//!   *is* this static key order at every instant; the scheduler verifies
//!   the preconditions and falls back to the full sort otherwise. Its
//!   size dimension (per-size buckets under a min-key segment tree)
//!   answers the resize policies' "first queued job whose request lies
//!   in this range" without walking the queue.
//! * [`ResizerIndex`] — the parent → resizer reverse-dependency map, so
//!   resizers orphaned by a completion are reaped in O(affected) instead
//!   of an O(jobs) scan per scheduling pass.
//!
//! Running jobs are ordered by `(expected_end, held_nodes, id)` in
//! [`crate::timeline::Commitments`], next to the backfill timelines
//! derived from the same records.
//!
//! The indices are bookkeeping only: they never decide anything, and the
//! pre-index scans of the pending order, the reservation order and the
//! resizer reap survive behind
//! [`crate::slurm::SchedIndex::ScanReference`] as the equivalence oracle.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use dmr_sim::SimTime;

use crate::job::{Job, JobId};

/// Index key of one pending job: `(boosted first, submit ascending, seq
/// ascending)`, with the id carried as payload. The submission sequence
/// number ([`Job::seq`]) is unique, so the key is total — and stable
/// even when arena slot recycling makes raw [`JobId`] values
/// non-monotonic.
pub(crate) type PendingKey = (Reverse<bool>, SimTime, u64, JobId);

/// Ordered index of the pending set.
///
/// Iteration order is `(boosted first, submit ascending, seq ascending)`
/// — the multifactor order whenever the age factor is the only live
/// weight and no pending job carries a non-zero base priority. The index
/// also counts the jobs that would break that equality (`nonzero_base`)
/// so the scheduler can detect, in O(1), when it must fall back to the
/// sort.
///
/// A second dimension, [`SizeBuckets`], files every pending non-resizer
/// job under its request size, so "the first job in this order whose
/// request lies in `lo..=hi`" is a range-min instead of a queue walk.
#[derive(Debug)]
pub(crate) struct PendingIndex {
    set: BTreeSet<PendingKey>,
    sizes: SizeBuckets,
    /// Pending jobs with `base_priority != 0` (index-exactness veto).
    nonzero_base: usize,
    /// Pending resizer jobs (lets `pending_queue` skip its filter pass
    /// when there is nothing to filter).
    resizers: usize,
    /// Pending jobs with a non-`Any` class constraint. The watermark
    /// pass-elision rule compares *global* free capacity against the
    /// blocked request, which is unsound for a class-constrained job
    /// (its class can free nodes without the global watermark moving),
    /// so capacity events fall back to a full invalidation whenever this
    /// is non-zero.
    constrained: usize,
}

impl PendingIndex {
    /// An empty index whose size buckets cover requests of
    /// `1..=total_nodes` (wider requests are filed apart, see
    /// [`SizeBuckets`]).
    pub(crate) fn new(total_nodes: u32) -> Self {
        PendingIndex {
            set: BTreeSet::new(),
            sizes: SizeBuckets::new(total_nodes),
            nonzero_base: 0,
            resizers: 0,
            constrained: 0,
        }
    }

    fn key(job: &Job) -> PendingKey {
        (Reverse(job.boosted), job.submit_time, job.seq, job.id)
    }

    pub(crate) fn insert(&mut self, job: &Job) {
        let key = Self::key(job);
        let added = self.set.insert(key);
        debug_assert!(added, "{:?} already indexed", job.id);
        if job.base_priority != 0 {
            self.nonzero_base += 1;
        }
        if job.is_resizer() {
            self.resizers += 1;
        } else {
            self.sizes.insert(job.requested_nodes, key);
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained += 1;
        }
    }

    pub(crate) fn remove(&mut self, job: &Job) {
        let key = Self::key(job);
        let removed = self.set.remove(&key);
        debug_assert!(removed, "{:?} not indexed", job.id);
        if job.base_priority != 0 {
            self.nonzero_base -= 1;
        }
        if job.is_resizer() {
            self.resizers -= 1;
        } else {
            self.sizes.remove(job.requested_nodes, &key);
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained -= 1;
        }
    }

    /// Re-keys a pending job whose `boosted` flag just flipped to `true`
    /// (`job` already carries the new flag).
    pub(crate) fn reboost(&mut self, job: &Job) {
        let new = Self::key(job);
        let old = (Reverse(false), new.1, new.2, new.3);
        let removed = self.set.remove(&old);
        debug_assert!(removed, "{:?} not indexed for reboost", job.id);
        self.set.insert(new);
        if !job.is_resizer() {
            self.sizes.remove(job.requested_nodes, &old);
            self.sizes.insert(job.requested_nodes, new);
        }
    }

    /// Pending jobs that are not resizers — the length of
    /// [`crate::slurm::Slurm::pending_queue`], in O(1).
    pub(crate) fn non_resizers(&self) -> usize {
        self.set.len() - self.resizers
    }

    /// The first pending non-resizer job in index order whose request
    /// lies in `lo..=hi` (O(log nodes)). Equal to the same query over
    /// the scheduling order whenever the index order is exact.
    pub(crate) fn first_sized(&self, lo: u32, hi: u32) -> Option<JobId> {
        self.sizes.first_in(lo, hi).map(|(.., id)| id)
    }

    /// Checks the size dimension against `size_of` (the request of a
    /// pending job, `None` for resizers): every non-resizer key sits in
    /// exactly its own bucket and the tree agrees with the bucket heads.
    pub(crate) fn check_sizes(&self, size_of: impl Fn(JobId) -> Option<u32>) -> Result<(), String> {
        let mut expected = 0;
        for &key in &self.set {
            if let Some(size) = size_of(key.3) {
                expected += 1;
                if !self.sizes.contains(size, &key) {
                    return Err(format!("{:?} missing from size bucket {size}", key.3));
                }
            }
        }
        if self.sizes.len() != expected {
            return Err(format!(
                "size buckets hold {} keys, {expected} pending non-resizers",
                self.sizes.len()
            ));
        }
        self.sizes.check_tree()
    }

    pub(crate) fn nonzero_base(&self) -> usize {
        self.nonzero_base
    }

    pub(crate) fn pending_resizers(&self) -> usize {
        self.resizers
    }

    /// Pending jobs whose class constraint is not `Any` (see the field
    /// docs: non-zero disables watermark-based capacity elision).
    pub(crate) fn constrained(&self) -> usize {
        self.constrained
    }

    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Pending ids in scheduling order (no priorities computed, no sort).
    pub(crate) fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.set.iter().map(|&(.., id)| id)
    }

    /// The full scheduling order, materialised with an exact-capacity
    /// allocation. This is the rebuild path of the persistent pass order
    /// the incremental scheduler retains between passes; after the
    /// rebuild the order is kept current by appends and tombstones, so
    /// this runs once per invalidation, not once per pass.
    pub(crate) fn ids_vec(&self) -> Vec<JobId> {
        let mut out = Vec::with_capacity(self.set.len());
        out.extend(self.ids());
        out
    }

    /// The first key strictly after `prev` (`None` starts at the front)
    /// — a resumable cursor over the scheduling order. The arena hot
    /// path walks the queue this way instead of materialising the whole
    /// order, so a pass that starts `k` of `n` pending jobs costs
    /// O(k log n) rather than O(n), and the cursor survives the removal
    /// of every key it has already visited.
    pub(crate) fn next_after(&self, prev: Option<PendingKey>) -> Option<PendingKey> {
        use std::ops::Bound::{Excluded, Unbounded};
        match prev {
            None => self.set.first().copied(),
            Some(key) => self.set.range((Excluded(key), Unbounded)).next().copied(),
        }
    }
}

/// The size dimension of [`PendingIndex`]: pending non-resizer keys
/// bucketed by request size, plus a min-key segment tree over the bucket
/// heads.
///
/// Buckets are a flat `Vec` indexed by size, allocated once for sizes
/// `0..=total_nodes`, so a shallow queue never allocates or frees a
/// bucket per job. Requests wider than the machine (which can never
/// start) go to `wide` with their size, outside the tree; a query range
/// that reaches past the machine walks them.
///
/// Each mutation costs one bucket insert or remove plus, when the bucket
/// head changes, an O(log nodes) path update in the tree.
#[derive(Debug)]
struct SizeBuckets {
    buckets: Vec<BTreeSet<PendingKey>>,
    /// Bottom-up min tree: leaf `s` (bucket `s`'s head) at `tree[n + s]`,
    /// node `i` holds the min of `tree[2i]` and `tree[2i + 1]`.
    tree: Vec<Option<PendingKey>>,
    wide: BTreeMap<PendingKey, u32>,
}

impl SizeBuckets {
    fn new(total_nodes: u32) -> Self {
        let n = total_nodes as usize + 1;
        SizeBuckets {
            buckets: (0..n).map(|_| BTreeSet::new()).collect(),
            tree: vec![None; 2 * n],
            wide: BTreeMap::new(),
        }
    }

    /// Keys held (O(nodes); for invariant checks only).
    fn len(&self) -> usize {
        self.buckets.iter().map(BTreeSet::len).sum::<usize>() + self.wide.len()
    }

    fn insert(&mut self, size: u32, key: PendingKey) {
        let Some(bucket) = self.buckets.get_mut(size as usize) else {
            self.wide.insert(key, size);
            return;
        };
        bucket.insert(key);
        if bucket.first() == Some(&key) {
            self.set_leaf(size as usize, Some(key));
        }
    }

    fn remove(&mut self, size: u32, key: &PendingKey) {
        let Some(bucket) = self.buckets.get_mut(size as usize) else {
            self.wide.remove(key);
            return;
        };
        let was_head = bucket.first() == Some(key);
        bucket.remove(key);
        if was_head {
            let head = bucket.first().copied();
            self.set_leaf(size as usize, head);
        }
    }

    fn contains(&self, size: u32, key: &PendingKey) -> bool {
        match self.buckets.get(size as usize) {
            Some(bucket) => bucket.contains(key),
            None => self.wide.get(key) == Some(&size),
        }
    }

    fn set_leaf(&mut self, size: usize, head: Option<PendingKey>) {
        let mut i = self.buckets.len() + size;
        self.tree[i] = head;
        while i > 1 {
            i /= 2;
            self.tree[i] = min_key(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Smallest key among sizes `lo..=hi`.
    fn first_in(&self, lo: u32, hi: u32) -> Option<PendingKey> {
        let n = self.buckets.len();
        let mut best = None;
        if (lo as usize) < n && lo <= hi {
            let (mut l, mut r) = (n + lo as usize, n + (hi as usize).min(n - 1) + 1);
            while l < r {
                if l % 2 == 1 {
                    best = min_key(best, self.tree[l]);
                    l += 1;
                }
                if r % 2 == 1 {
                    r -= 1;
                    best = min_key(best, self.tree[r]);
                }
                l /= 2;
                r /= 2;
            }
        }
        if hi as usize >= n {
            let wide = self
                .wide
                .iter()
                .find(|&(_, &size)| (lo..=hi).contains(&size))
                .map(|(&key, _)| key);
            best = min_key(best, wide);
        }
        best
    }

    fn check_tree(&self) -> Result<(), String> {
        let n = self.buckets.len();
        for (size, bucket) in self.buckets.iter().enumerate() {
            if self.tree[n + size] != bucket.first().copied() {
                return Err(format!("size tree leaf {size} != its bucket head"));
            }
        }
        for i in 1..n {
            if self.tree[i] != min_key(self.tree[2 * i], self.tree[2 * i + 1]) {
                return Err(format!("size tree node {i} != min of its children"));
            }
        }
        Ok(())
    }
}

/// The smaller of two optional keys, `None` being "no job".
fn min_key(a: Option<PendingKey>, b: Option<PendingKey>) -> Option<PendingKey> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Parent → resizer reverse-dependency map plus the reap candidate list.
///
/// A resizer job is dead when its parent is no longer running. Instead of
/// scanning every job per pass, resizers are registered under their
/// running parent; when the parent turns terminal the whole group moves
/// to the `dead` candidate set, which the next scheduling pass drains in
/// O(affected). Candidates are *re-verified* against live state before
/// cancellation, so a parent that was merely pending at registration time
/// and has started since is never reaped by mistake.
#[derive(Debug, Default)]
pub(crate) struct ResizerIndex {
    by_parent: BTreeMap<JobId, BTreeSet<JobId>>,
    dead: BTreeSet<JobId>,
}

impl ResizerIndex {
    /// Registers `resizer` under `parent`. A parent that is not currently
    /// running makes the resizer an immediate reap candidate (the scan
    /// path treated an unsatisfied dependency as dead regardless of why).
    pub(crate) fn register(&mut self, parent: JobId, resizer: JobId, parent_running: bool) {
        if parent_running {
            self.by_parent.entry(parent).or_default().insert(resizer);
        } else {
            self.dead.insert(resizer);
        }
    }

    /// A resizer turned terminal on its own: deregister it everywhere.
    pub(crate) fn resizer_terminal(&mut self, parent: JobId, resizer: JobId) {
        if let Some(group) = self.by_parent.get_mut(&parent) {
            group.remove(&resizer);
            if group.is_empty() {
                self.by_parent.remove(&parent);
            }
        }
        self.dead.remove(&resizer);
    }

    /// `parent` turned terminal: every resizer registered under it becomes
    /// a reap candidate.
    pub(crate) fn parent_terminal(&mut self, parent: JobId) {
        if let Some(group) = self.by_parent.remove(&parent) {
            self.dead.extend(group);
        }
    }

    pub(crate) fn has_dead_candidates(&self) -> bool {
        !self.dead.is_empty()
    }

    /// Drains the candidate list in ascending id order (the order the
    /// scan produced by walking the job table).
    pub(crate) fn take_dead(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.dead).into_iter().collect()
    }
}
