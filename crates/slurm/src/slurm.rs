//! The scheduler core: queue, EASY backfill, and the malleability
//! protocol of §III.

use std::cell::RefCell;
use std::sync::Arc;

use dmr_cluster::{ClassConstraint, Cluster, FailOutcome, NodeId};
use dmr_sim::{SimTime, Span};

use crate::arena::JobArena;
use crate::index::{PendingIndex, PendingKey, ResizerIndex, RunningIndex};
use crate::job::{Dependency, Job, JobId, JobRequest, JobState};
use crate::policy::{PolicyKind, ResizePolicy};
use crate::priority::MultifactorConfig;
use crate::slotset::{BackfillFamily, SlotSet, SlotSetCheckpoint};

/// Which hot-path implementation the scheduler runs on.
///
/// [`SchedIndex::Arena`] (the default) adds, on top of the incremental
/// indices, slab-arena job storage ([`crate::arena::JobArena`]), a
/// cursor walk of the pending index in [`Slurm::schedule`] (O(starts)
/// instead of O(pending) per pass) and precise queue-cache invalidation
/// (a completion that removes nothing from the pending set keeps the
/// memoized order alive). [`SchedIndex::ScanReference`] keeps the
/// pre-index full-scan implementations alive as the *equivalence
/// oracle*: both modes produce bit-identical scheduling decisions
/// (pinned by `tests/index_equivalence.rs`); only the cost differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedIndex {
    /// Slab job storage + pending-index cursor walk + precise cache
    /// invalidation (the fastest path).
    #[default]
    Arena,
    /// Pre-index scans and sorts on every pass (reference / oracle).
    ScanReference,
}

/// Whether the scheduler carries state *across* passes: watermark pass
/// elision, the persistent (tombstoned, appendable) pending-order cache,
/// retained backfill reservations / conservative plans, and the
/// per-instant resizer-reap memo.
///
/// [`SchedIncremental::On`] (the default) makes a scheduling or backfill
/// pass whose trigger provably cannot change any decision return in O(1)
/// — the *elision contract*: an elided pass is bit-for-bit identical to
/// an executed one (same empty start list, same observable state), which
/// `tests/incremental_equivalence.rs` pins by forking states and running
/// both paths. [`SchedIncremental::Off`] keeps every pass paying full
/// cost — the costed baseline the `BENCH_sched.json` incremental axis
/// measures the win against. The knob never changes decisions; only when
/// work is (provably redundantly) repeated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedIncremental {
    /// Elide provably-identical passes and persist order / reservation /
    /// plan state across passes (the fast path).
    #[default]
    On,
    /// Recompute every pass from scratch (the costed baseline).
    Off,
}

/// Scheduler-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct SlurmConfig {
    /// Enable EASY backfill (the paper's `sched/backfill`); disabling it
    /// degrades to strict priority-FIFO — kept as an ablation knob.
    pub backfill: bool,
    /// Which backfill algorithm [`Slurm::backfill_pass`] runs (EASY-k /
    /// conservative / the legacy single-reservation oracle). Only
    /// consulted while [`SlurmConfig::backfill`] is on.
    pub backfill_family: BackfillFamily,
    /// Cap on blocked jobs the conservative pass examines (and therefore
    /// plans) per invocation — Slurm's `bf_max_job_test`, which defaults
    /// to 500 on real installations precisely because planning an
    /// unbounded queue is quadratic in queue depth no matter how cheap
    /// each hole query is. Jobs past the window stay pending for a later
    /// pass. The EASY families ignore it: their planning depth is already
    /// bounded by `reservations`.
    pub bf_max_job_test: u32,
    pub multifactor: MultifactorConfig,
    /// Backfill estimate for jobs that did not provide one.
    pub default_expected_runtime: Span,
    /// How long the runtime waits for a queued resizer job before aborting
    /// the expansion (§V-B1).
    pub resizer_timeout: Span,
    /// Grant maximum priority to the queued job a shrink benefits
    /// (Algorithm 1 line 18). Ablation knob; the paper always boosts.
    pub shrink_boost: bool,
    /// Which reconfiguration decision procedure to install (§IV plug-in).
    pub policy: PolicyKind,
    /// Keep terminal (completed / cancelled) job records in the jobs
    /// table. `true` (the default) preserves the accounting API
    /// ([`Slurm::job`] on finished jobs); `false` drops each record the
    /// moment it turns terminal, so arbitrarily long workloads hold only
    /// the *active* job set — the setting the streaming driver uses.
    /// Scheduling decisions never read terminal records (pending-queue
    /// priority, backfill reservations and resize policies all filter on
    /// live states), so the two settings schedule identically.
    pub retain_completed: bool,
    /// Hot-path implementation selector (see [`SchedIndex`]). Kept in the
    /// config so experiments and benchmarks can pit the arena path
    /// against the scan oracle without code changes.
    pub sched_index: SchedIndex,
    /// Cross-pass state selector (see [`SchedIncremental`]): pass
    /// elision, the persistent pending-order cache, retained backfill
    /// artifacts and the per-instant reap memo. Never consulted under
    /// [`SchedIndex::ScanReference`] (the oracle always pays full cost).
    pub sched_incremental: SchedIncremental,
    /// Let grow-happy policies ([`PolicyKind::UtilizationTarget`],
    /// [`PolicyKind::EnergyAware`]) consult the backfill timeline before
    /// expanding ([`Slurm::grow_steals_backfill_hole`]) and refuse grows
    /// that would steal the planned hole of the first blocked job.
    /// Default on; `false` restores the timeline-blind behaviour
    /// (equivalence-tested — `Algorithm1` never consults the guard
    /// either way).
    pub hole_guard: bool,
}

impl SlurmConfig {
    pub fn for_cluster(total_nodes: u32) -> Self {
        SlurmConfig {
            backfill: true,
            backfill_family: BackfillFamily::default(),
            bf_max_job_test: 512,
            multifactor: MultifactorConfig::with_total_nodes(total_nodes),
            default_expected_runtime: Span::from_secs(600),
            resizer_timeout: Span::from_secs(30),
            shrink_boost: true,
            policy: PolicyKind::Algorithm1,
            retain_completed: true,
            sched_index: SchedIndex::Arena,
            sched_incremental: SchedIncremental::On,
            hole_guard: true,
        }
    }
}

/// A job the scheduler just started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStart {
    pub id: JobId,
    pub nodes: Vec<NodeId>,
    /// `Some(original)` when the started job is a resizer for `original`;
    /// the driver must then complete the expansion with
    /// [`Slurm::finish_expand`].
    pub resizer_for: Option<JobId>,
}

/// Failures of the expansion protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpandError {
    UnknownJob(JobId),
    NotRunning(JobId),
    /// `to` is not strictly larger than the current allocation.
    InvalidTarget {
        current: u32,
        to: u32,
    },
    /// The resizer job could not start immediately; it stays pending with
    /// maximum priority. The caller should either wait for it to start (it
    /// will appear in a later [`Slurm::schedule`] result) or abort with
    /// [`Slurm::abort_expand`] after [`SlurmConfig::resizer_timeout`].
    Queued {
        resizer: JobId,
    },
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::UnknownJob(j) => write!(f, "{j:?} does not exist"),
            ExpandError::NotRunning(j) => write!(f, "{j:?} is not running"),
            ExpandError::InvalidTarget { current, to } => {
                write!(f, "expand target {to} <= current {current}")
            }
            ExpandError::Queued { resizer } => {
                write!(f, "resizer {resizer:?} queued, expansion deferred")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// The workload manager.
pub struct Slurm {
    cluster: Cluster,
    /// Job records in a generation-checked slab ([`JobArena`]): O(1)
    /// lookups on the submit/start/complete path, slots recycled once a
    /// record is pruned. (The detach mark of expand-protocol step 2
    /// lives on the record itself, [`Job::detached_nodes`].)
    jobs: JobArena,
    /// Next submission sequence number ([`Job::seq`]).
    next_seq: u64,
    pub config: SlurmConfig,
    /// The installed reconfiguration decision procedure (§IV plug-in).
    /// `None` only transiently, while the policy is consulted.
    policy: Option<Box<dyn ResizePolicy>>,
    /// Memoized pending-queue priority order.
    ///
    /// A scheduling cycle needs the pending order — and then every policy
    /// consultation in the same cycle needs it again through
    /// [`Slurm::pending_queue`]. The order is a pure function of
    /// `(pending set, job attributes, now)`, so it is cached and
    /// invalidated on any mutation that can change it (submit, start,
    /// completion, cancellation, boost). Orders served straight from the
    /// [`PendingIndex`] are additionally time-invariant between
    /// mutations, so those cache entries survive across instants.
    /// `RefCell`: the recompute happens behind `&self` accessors. The
    /// orders are `Arc<[JobId]>` so cache hits are allocation-free.
    queue_cache: RefCell<Option<QueueCache>>,
    /// Ordered pending index (see [`crate::index`]).
    pending_index: PendingIndex,
    /// Running jobs ordered by `(expected_end, nodes, id)` for backfill.
    running_index: RunningIndex,
    /// Parent → resizer reverse-dependency map for O(affected) reaping.
    resizer_index: ResizerIndex,
    /// The slot-set free-resource timeline the EASY-k / conservative
    /// backfill families query (see [`crate::slotset`]). `RefCell`: the
    /// deferred deltas are flushed behind `&self` in
    /// [`Slurm::check_invariants`].
    timeline: RefCell<Timeline>,
    /// One timeline per machine class, populated only when the cluster
    /// spans more than one class (empty on uniform inventories, so the
    /// single-class hot path pays nothing — the bit-identity oracle).
    /// Class-constrained jobs find their backfill holes here instead of
    /// in the over-optimistic aggregate.
    class_timelines: RefCell<Vec<Timeline>>,
    /// Per-class held-node counts of each running job at its last plan
    /// (multi-class only): the exact counts the matching unplan must
    /// mirror, whatever the allocation looks like by then.
    class_counts: std::collections::BTreeMap<JobId, Vec<u32>>,
    /// Per-class totals of held nodes across running jobs (multi-class
    /// only) — the per-class analogue of `RunningIndex::total_held`.
    class_held: Vec<u32>,
    /// Whether the per-class timelines are live. They sit dormant — no
    /// treap maintenance at all — until the first class-constrained
    /// submission ([`Slurm::activate_class_timelines`]), because they are
    /// only ever queried on behalf of a job with a sole eligible class,
    /// and such a job must have been submitted first. Unconstrained
    /// workloads on heterogeneous clusters therefore never pay the
    /// per-class plan/sync/checkpoint costs.
    class_tl_live: bool,
    /// Cross-pass incremental state ([`SchedIncremental`] layer).
    incr: IncrState,
}

/// One deferred timeline mutation: a running job's node commitment over
/// `[horizon, end)`, to add (`plan`) or remove. Queued O(1) at the index
/// mutation sites; applied (O(log slots) each) the next time the timeline
/// is consulted, so the scheduling hot paths never pay tree costs.
/// Applying from the *current* horizon is exact: occupancy behind the
/// horizon is clipped on both plan and unplan, and [`SlotSet::advance`]
/// prunes whatever a plan wrote behind the clock before any query runs.
#[derive(Debug, Clone, Copy)]
struct TimelineDelta {
    end: SimTime,
    nodes: u32,
    plan: bool,
}

/// The timeline plus its deferred-delta queue (see [`TimelineDelta`]).
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

    /// Applies every queued delta (without moving the horizon).
    fn flush(&mut self) {
        for d in self.queued.drain(..) {
            let h = self.slots.horizon();
            if d.plan {
                self.slots.plan(h, d.end, d.nodes);
            } else {
                self.slots.unplan(h, d.end, d.nodes);
            }
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
        let h = self.slots.horizon();
        for d in self.recorded.drain(..) {
            if d.plan {
                self.slots.plan(h, d.end, d.nodes);
            } else {
                self.slots.unplan(h, d.end, d.nodes);
            }
        }
    }
}

/// One memoized pending order (see [`Slurm::pending_queue`]).
struct QueueCache {
    /// Instant the order was computed at.
    at: SimTime,
    /// Whether it came from the index (then it is valid at *any* instant
    /// while the index stays exact, not just at `at`).
    from_index: bool,
    /// Pending ids in index key order. Under the persistent regime
    /// (`SchedIncremental::On` + exact index) entries may be
    /// *tombstones* — ids whose job has since started, been cancelled or
    /// been pruned. Readers filter them against the generation-checked
    /// arena, so the order survives starts/cancellations (a removal never
    /// reorders the survivors) and submissions append in O(1) (a fresh
    /// non-boosted job sorts strictly last under the exact index key).
    /// Empty placeholder unless `persistent`.
    order: Arc<Vec<JobId>>,
    /// Whether `order` is populated and may be appended to / tombstoned
    /// (entries created in the persistent regime). Guards against a
    /// mid-run [`SchedIncremental`] flip trusting a placeholder order.
    persistent: bool,
    /// Number of tombstones currently in `order`.
    stale: usize,
    /// Memoized tombstone-free materialisation, built lazily for the
    /// public accessors ([`Slurm::pending_queue`] and friends).
    shared: Option<Arc<[JobId]>>,
    /// The resizer-free view, built lazily on the first
    /// [`Slurm::pending_queue`] call of the cycle.
    no_resizers: Option<Arc<[JobId]>>,
}

/// A pass's borrowed walk order: either the clean shared slice (the
/// non-persistent regimes) or the persistent possibly-tombstoned order.
enum PassOrder {
    Shared(Arc<[JobId]>),
    Persistent(Arc<Vec<JobId>>),
}

impl PassOrder {
    fn ids(&self) -> &[JobId] {
        match self {
            PassOrder::Shared(s) => s,
            PassOrder::Persistent(v) => v,
        }
    }
}

/// Memo of a backfill pass that started nothing, snapshotting everything
/// its decisions depended on. While it stays valid (see the invalidation
/// wiring in [`Slurm`]'s mutators) a repeat pass is provably identical —
/// it would again start nothing and leave no observable state — and is
/// elided in O(1). The retained reservation / plan artifacts double as
/// the cross-pass caches exposed by [`Slurm::easy_reservations`] and
/// [`Slurm::conservative_plan`].
#[derive(Debug)]
struct BfMemo {
    /// First instant the memo no longer covers. The memoized pass ran at
    /// some instant `at` and the scheduler clock never runs backwards, so
    /// a repeat pass at any `now < until` lies in `[at, until)` and is
    /// elided. Refusals of
    /// jobs that do not fit are monotone in time (free nodes only change
    /// at mutations), so a memo without a fitting refusal never expires:
    /// `until` is `SimTime(u64::MAX)`. For the other memos see
    /// [`BfMemo::fitting_refused`].
    until: SimTime,
    /// Smallest `requested_nodes` among the jobs the pass refused for
    /// lack of free nodes (`u32::MAX` when nothing was). A
    /// capacity-increasing event invalidates the memo only when the new
    /// free count reaches this watermark: below it, every refusal
    /// provably repeats (a start requires `free >= requested`).
    watermark: u32,
    /// Whether the pass refused a *fitting* job (EASY harmless check /
    /// conservative hole not at `now`). Those refusals depend on the
    /// running set, so a memo carrying one dies at any
    /// capacity-increasing event, and on time, so it expires:
    ///
    /// * EASY: `until = at + 1` — reused only at the memoized instant.
    /// * Conservative: `until = max(min planned start, at + 1)`. With no
    ///   mutation the timeline on `[now, ∞)` does not change as `now`
    ///   advances (a running job occupies `[horizon, expected end)`, and
    ///   one past its estimate occupies nothing after `now` either way),
    ///   so every hole the pass found at `s >= now` is found again from
    ///   `now`: while `now` is before every planned start, each job gets
    ///   the same plan and the same refusal. A plan starting at `at`
    ///   itself (a hole that a non-fitting job cannot take) pins the
    ///   memo to the memoized instant.
    fitting_refused: bool,
    /// Config snapshot: the memo holds only while the pass would run the
    /// same algorithm with the same knobs.
    family: BackfillFamily,
    backfill_on: bool,
    window: u32,
    /// EASY-k `(shadow, spare)` reservations retained from the memoized
    /// pass — reused (by elision) while the blocking set is unchanged.
    easy_reservations: Vec<(SimTime, u32)>,
    /// Conservative planned slots `(job, planned start)` retained from
    /// the memoized pass.
    conservative_plan: Vec<(JobId, SimTime)>,
}

/// Cross-pass incremental-scheduling state (all of it soundness-gated:
/// every mutator either keeps a memo provably valid or clears it).
#[derive(Debug, Default)]
struct IncrState {
    /// `Some(need)` after a [`Slurm::schedule`] pass that started nothing
    /// and broke at a dependency-satisfied head requesting `need` nodes.
    /// While free nodes stay below `need` (and the pending order static),
    /// a repeat pass is provably identical and is elided.
    sched_block: Option<u32>,
    /// Memo of the last fruitless backfill pass (see [`BfMemo`]).
    bf_memo: Option<BfMemo>,
    /// Instant [`Slurm::reap_dead_resizers`] last ran to completion with
    /// no dependency-relevant mutation since — dedupes the
    /// schedule-then-backfill double reap at one instant.
    reaped_at: Option<SimTime>,
    sched_runs: u64,
    sched_elided: u64,
    bf_runs: u64,
    bf_elided: u64,
}

/// Pass counters of the incremental layer (see
/// [`Slurm::incremental_stats`]): how many scheduling / backfill passes
/// executed versus how many were elided as provable no-ops. Elision never
/// changes decisions, so these make the incremental win attributable —
/// benchmarks report them per cell instead of inferring the effect from
/// throughput alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// [`Slurm::schedule`] passes that ran the walk.
    pub sched_passes_run: u64,
    /// [`Slurm::schedule`] passes elided via the blocked-head watermark.
    pub sched_passes_elided: u64,
    /// [`Slurm::backfill_pass`] invocations that executed.
    pub backfill_passes_run: u64,
    /// [`Slurm::backfill_pass`] invocations elided via the pass memo.
    pub backfill_passes_elided: u64,
}

impl Slurm {
    pub fn new(mut cluster: Cluster, config: SlurmConfig) -> Self {
        cluster.use_scan_selection(config.sched_index == SchedIndex::ScanReference);
        let nclasses = cluster.table().num_classes();
        let per_class = if nclasses > 1 { nclasses } else { 0 };
        let pending_index = PendingIndex::new(cluster.total_nodes());
        Slurm {
            cluster,
            jobs: JobArena::new(),
            next_seq: 0,
            policy: Some(config.policy.build()),
            config,
            queue_cache: RefCell::new(None),
            pending_index,
            running_index: RunningIndex::default(),
            resizer_index: ResizerIndex::default(),
            timeline: RefCell::new(Timeline::new()),
            class_timelines: RefCell::new((0..per_class).map(|_| Timeline::new()).collect()),
            class_counts: std::collections::BTreeMap::new(),
            class_held: vec![0; per_class],
            class_tl_live: false,
            incr: IncrState::default(),
        }
    }

    /// Convenience constructor with defaults sized to the cluster.
    pub fn with_cluster(cluster: Cluster) -> Self {
        let cfg = SlurmConfig::for_cluster(cluster.total_nodes());
        Slurm::new(cluster, cfg)
    }

    /// Replaces the installed reconfiguration policy.
    ///
    /// `config.policy` is a construction-time selector only and is *not*
    /// updated here (a custom trait object need not correspond to any
    /// [`PolicyKind`]); after this call, [`Slurm::policy_name`] is the
    /// source of truth for what is installed.
    pub fn set_policy(&mut self, policy: Box<dyn ResizePolicy>) {
        self.policy = Some(policy);
    }

    /// Name of the installed policy (sweep CSV labelling).
    pub fn policy_name(&self) -> &'static str {
        self.policy
            .as_deref()
            .map_or("<consulting>", ResizePolicy::name)
    }

    /// Detaches the policy so [`crate::policy`] can pass `&Slurm` to it.
    pub(crate) fn take_policy(&mut self) -> Box<dyn ResizePolicy> {
        self.policy.take().expect("resize policy installed")
    }

    pub(crate) fn restore_policy(&mut self, policy: Box<dyn ResizePolicy>) {
        self.policy = Some(policy);
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Powers down up to `n` free nodes (S5 suspend) through the cluster
    /// (see [`Cluster::power_down`]), returning how many were actually
    /// suspended. Free capacity shrank, so every cross-pass memo is
    /// invalidated — the catch-all rule, as for any capacity mutation the
    /// elision proofs don't cover.
    pub fn power_down_idle(&mut self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        let off = self.cluster.power_down(n).len() as u32;
        if off > 0 {
            self.incr_clear();
        }
        off
    }

    /// Wakes every powered-down node (the caller models the wake-up
    /// latency by delaying this call), returning how many woke. Capacity
    /// grew, so this runs the same invalidation as a completion.
    pub fn wake_all(&mut self) -> u32 {
        let woke = self.cluster.wake_all();
        if woke > 0 {
            self.incr_capacity_freed();
        }
        woke
    }

    /// An injected failure takes `node` down (see
    /// [`Cluster::fail_node`]). Any non-skipped failure is a capacity
    /// mutation no elision proof covers — an elided pass must never mask
    /// a failure — so every cross-pass memo drops, exactly as for
    /// [`Slurm::power_down_idle`]. The caller inspects the outcome: a
    /// [`FailOutcome::Busy`] victim owner needs [`Slurm::requeue_failed`].
    pub fn fail_node(&mut self, node: NodeId) -> FailOutcome {
        let outcome = self.cluster.fail_node(node);
        if outcome != FailOutcome::Skipped {
            self.incr_clear();
        }
        outcome
    }

    /// A failed node comes back up (see [`Cluster::repair_node`]),
    /// returning whether capacity actually grew. A repair that restores
    /// placeable capacity runs the same watermark invalidation as a
    /// completion.
    pub fn repair_node(&mut self, node: NodeId) -> bool {
        let placeable = self.cluster.repair_node(node);
        if placeable {
            self.incr_capacity_freed();
        }
        placeable
    }

    /// Kill-and-requeue after a node failure: the running victim is
    /// cancelled — its nodes release through the drained-while-allocated
    /// path, parking the failed node in the unavailable pool — and an
    /// equivalent request is resubmitted at the victim's current size
    /// with a fresh `seq` and maximum priority. The boosted resubmission
    /// preserves `seq`-based ordering determinism while putting the
    /// victim first in line for the next free slot. Returns the new job
    /// id, or `None` if `id` is not a running non-resizer job.
    pub fn requeue_failed(&mut self, id: JobId, now: SimTime) -> Option<JobId> {
        let job = self.jobs.get(id)?;
        if job.state != JobState::Running || job.is_resizer() {
            return None;
        }
        let req = JobRequest {
            name: job.name.clone(),
            nodes: job.requested_nodes,
            time_limit: job.time_limit,
            expected_runtime: Some(job.expected_runtime),
            dependency: None,
            base_priority: job.base_priority,
            resize: job.resize,
            constraint: job.constraint,
        };
        // The kill shares the cancellation path: stale completion events
        // are tombstoned by the caller, pending resizers of the victim
        // are orphaned (and reaped as dead candidates), and the queue
        // cache / incremental memos invalidate.
        self.cancel(id, now);
        let new = self.submit(req, now);
        self.boost(new);
        Some(new)
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// All job records, in arena storage order (equal to submission
    /// order while no record has been pruned — in particular always
    /// under [`SlurmConfig::retain_completed`]). Order-sensitive callers
    /// should sort by [`Job::seq`].
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Number of running jobs. O(1): served from the running index,
    /// which tracks the `Running` state exactly.
    pub fn running_count(&self) -> usize {
        self.running_index.len()
    }

    /// Number of pending jobs. O(1): served from the pending index.
    pub fn pending_count(&self) -> usize {
        self.pending_index.len()
    }

    /// Nodes currently attached to any job (including detached resizer
    /// nodes mid-protocol).
    pub fn allocated_nodes(&self) -> u32 {
        self.cluster.allocated_nodes()
    }

    /// Current node count of a job.
    pub fn nodes_of(&self, id: JobId) -> u32 {
        self.cluster.held_by(id.owner_tag())
    }

    /// Submits a job; it becomes eligible at the next [`Slurm::schedule`].
    pub fn submit(&mut self, req: JobRequest, now: SimTime) -> JobId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let default_runtime = self.config.default_expected_runtime;
        let parent_running = match req.dependency {
            Some(Dependency::ExpandOf(parent)) => self
                .jobs
                .get(parent)
                .is_some_and(|p| p.state == JobState::Running),
            None => false,
        };
        let dependency = req.dependency;
        let id = self.jobs.insert_with(|id| Job {
            id,
            seq,
            detached_nodes: 0,
            name: req.name,
            state: JobState::Pending,
            requested_nodes: req.nodes,
            time_limit: req.time_limit,
            expected_runtime: req.expected_runtime.unwrap_or(default_runtime),
            dependency: req.dependency,
            base_priority: req.base_priority,
            boosted: false,
            resize: req.resize,
            constraint: req.constraint,
            submit_time: now,
            start_time: None,
            end_time: None,
            reconfigurations: 0,
        });
        self.pending_index.insert(&self.jobs[id]);
        if let Some(Dependency::ExpandOf(parent)) = dependency {
            self.resizer_index.register(parent, id, parent_running);
        }
        // A new registration may be a dead-resizer candidate.
        self.incr.reaped_at = None;
        if self.incr_on() && self.index_is_exact() {
            // The fresh non-boosted job sorts strictly last: append to
            // the persistent order instead of dropping it. The sched
            // memo survives (the blocked head still blocks first, and
            // the priority-FIFO walk never looks past it). The backfill
            // memo survives only if the new job itself cannot start —
            // and the job's request must then join the watermark, so a
            // later capacity event that could fit *it* (even below the
            // old watermark) invalidates the memo.
            self.queue_cache_append(id);
            if let Some(m) = self.incr.bf_memo.as_mut() {
                let need = self.jobs[id].requested_nodes;
                let constraint = self.jobs[id].constraint;
                if need <= self.cluster.free_nodes_in(constraint) {
                    self.incr.bf_memo = None;
                } else {
                    m.watermark = m.watermark.min(need);
                }
            }
        } else {
            self.invalidate_queue_cache();
            self.incr_clear();
        }
        if self.jobs[id].constraint != ClassConstraint::Any {
            self.activate_class_timelines(now);
        }
        id
    }

    /// Grants a pending job maximum priority (§IV-3: the queued job a
    /// shrink benefits "will be assigned the maximum priority in order to
    /// foster its execution").
    pub fn boost(&mut self, id: JobId) {
        if let Some(j) = self.jobs.get_mut(id) {
            let reindex = j.state == JobState::Pending && !j.boosted;
            j.boosted = true;
            if reindex {
                self.pending_index.reboost(j);
            }
            self.invalidate_queue_cache();
            // A reorder invalidates both watermark memos (the blocked
            // head may change).
            self.incr_clear();
        }
    }

    /// Updates the backfill runtime estimate of a job (the simulation
    /// driver refreshes it after reconfigurations).
    pub fn set_expected_runtime(&mut self, id: JobId, estimate: Span) {
        let Some(j) = self.jobs.get_mut(id) else {
            return;
        };
        j.expected_runtime = estimate;
        // Runtime estimates feed every backfill decision (shadow times,
        // hole durations) but never the priority-FIFO walk: drop the
        // backfill memo, keep the schedule memo.
        self.incr.bf_memo = None;
        let started_at = (j.state == JobState::Running)
            .then_some(j.start_time)
            .flatten();
        if let Some(start) = started_at {
            let new_end = start + estimate;
            if let Some((old_end, nodes)) = self.running_index.set_end(id, new_end) {
                // Re-plan only the affected slots: this job's old and new
                // commitment intervals.
                self.tl_queue(old_end, nodes, false);
                self.tl_queue(new_end, nodes, true);
                if let Some(counts) = self.class_counts.get(&id).cloned() {
                    self.tlc_queue(&counts, old_end, false);
                    self.tlc_queue(&counts, new_end, true);
                }
            }
        }
    }

    /// Queues a timeline delta (a running job's node commitment until
    /// `end`) for application at the next timeline consultation.
    fn tl_queue(&mut self, end: SimTime, nodes: u32, plan: bool) {
        if nodes == 0 {
            return;
        }
        let tl = self.timeline.get_mut();
        tl.queued.push(TimelineDelta { end, nodes, plan });
        // Keep memory O(running) even when no backfill pass ever drains
        // the queue (backfill disabled): paired plan/unplan deltas cancel
        // once applied.
        if tl.queued.len() >= 1024 {
            tl.flush();
        }
    }

    /// Whether the inventory spans more than one machine class (the
    /// per-class timeline machinery is live).
    fn multi_class(&self) -> bool {
        !self.class_held.is_empty()
    }

    /// Queues per-class timeline deltas mirroring an aggregate delta.
    /// No-op on uniform inventories (`counts` is empty then) and while
    /// the class timelines are dormant (they are rebuilt wholesale when
    /// they go live, see [`Slurm::activate_class_timelines`]).
    fn tlc_queue(&mut self, counts: &[u32], end: SimTime, plan: bool) {
        if !self.class_tl_live {
            return;
        }
        let tls = self.class_timelines.get_mut();
        for (c, &nodes) in counts.iter().enumerate() {
            if nodes == 0 {
                continue;
            }
            let tl = &mut tls[c];
            tl.queued.push(TimelineDelta { end, nodes, plan });
            if tl.queued.len() >= 1024 {
                tl.flush();
            }
        }
    }

    /// Records a running job's per-class node commitment until `end`:
    /// plans the class timelines and bumps the per-class held totals
    /// (multi-class clusters only).
    fn class_plan(&mut self, id: JobId, end: SimTime) {
        if !self.multi_class() {
            return;
        }
        let counts = self.cluster.held_class_counts(id.owner_tag());
        for (c, &n) in counts.iter().enumerate() {
            self.class_held[c] += n;
        }
        self.tlc_queue(&counts, end, true);
        self.class_counts.insert(id, counts);
    }

    /// Removes the per-class commitment recorded by [`Slurm::class_plan`]
    /// (multi-class clusters only; tolerates a job that was never
    /// planned, mirroring the scheduler's release-mode leniency).
    fn class_unplan(&mut self, id: JobId, end: SimTime) {
        if let Some(counts) = self.class_counts.remove(&id) {
            for (c, &n) in counts.iter().enumerate() {
                self.class_held[c] -= n;
            }
            self.tlc_queue(&counts, end, false);
        }
    }

    /// Brings the aggregate timeline — and, when live, every class
    /// timeline — up to date with the simulation clock.
    fn sync_timelines(&mut self, now: SimTime) {
        self.timeline.get_mut().sync(now);
        if self.class_tl_live {
            for tl in self.class_timelines.get_mut() {
                tl.sync(now);
            }
        }
    }

    /// Brings the per-class timelines live: rebuilds each class's
    /// occupancy profile from the recorded running commitments, after
    /// which every mutation maintains them eagerly. Called on the first
    /// class-constrained submission — queries only ever target a class
    /// timeline on behalf of a constrained pending job, so until one
    /// exists the timelines can sit dormant for free. The rebuild plans
    /// the same `(end, count)` commitments the eager path would have
    /// accumulated, so query answers (hole starts, range maxima) are
    /// identical to timelines maintained from the start.
    fn activate_class_timelines(&mut self, now: SimTime) {
        if !self.multi_class() || self.class_tl_live {
            return;
        }
        self.class_tl_live = true;
        let tls = self.class_timelines.get_mut();
        for tl in tls.iter_mut() {
            debug_assert!(!tl.recording, "class timelines went live mid-pass");
            *tl = Timeline::new();
        }
        for (&id, counts) in &self.class_counts {
            let Some(end) = self.running_index.end_of(id) else {
                continue;
            };
            for (c, &n) in counts.iter().enumerate() {
                if n > 0 {
                    let h = tls[c].slots.horizon();
                    tls[c].slots.plan(h, end, n);
                }
            }
        }
        for tl in tls.iter_mut() {
            tl.sync(now);
        }
    }

    /// The single class eligible under `constraint`: `None` for `Any`,
    /// on uniform inventories, or when the constraint spans several
    /// classes (then only the aggregate timeline can answer for it).
    fn sole_eligible_class(&self, constraint: ClassConstraint) -> Option<usize> {
        if !self.multi_class() || constraint == ClassConstraint::Any {
            return None;
        }
        let table = self.cluster.table();
        let mut found = None;
        for c in 0..table.num_classes() {
            if constraint.allows(c, table.class(c)) {
                if found.is_some() {
                    return None;
                }
                found = Some(c);
            }
        }
        found
    }

    /// Backfill reservation for a class-constrained blocked job: the
    /// earliest hole on its class timeline when exactly one class is
    /// eligible, otherwise the aggregate hole (over-optimistic for a
    /// multi-class constraint, but a reservation is a throttle on
    /// lower-priority starts, not a start-time promise).
    fn constrained_hole(
        &self,
        constraint: ClassConstraint,
        need: u32,
        dur: Span,
        now: SimTime,
    ) -> (SimTime, u32) {
        let Some(c) = self.sole_eligible_class(constraint) else {
            return self.hole_reservation(need, dur, now);
        };
        let avail = self.cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c];
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tls = self.class_timelines.borrow();
        match tls[c].slots.earliest_hole(now, cap, dur) {
            Some(s) => {
                let peak = tls[c].slots.max_in(s, s + dur);
                (s, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }

    /// Drops the memoized pending order. Must be called by every mutation
    /// that can change the pending set or any priority input.
    fn invalidate_queue_cache(&self) {
        *self.queue_cache.borrow_mut() = None;
    }

    /// Whether the incremental layer is active: the knob is on and the
    /// mode is not the full-cost oracle. The queue cache then runs in
    /// the persistent (tombstoned, appendable) regime.
    fn incr_on(&self) -> bool {
        self.config.sched_incremental == SchedIncremental::On
            && self.config.sched_index != SchedIndex::ScanReference
    }

    /// Clears every cross-pass decision memo. The catch-all for mutations
    /// whose effect on pass outcomes is not worth proving finer rules
    /// about.
    fn incr_clear(&mut self) {
        self.incr.sched_block = None;
        self.incr.bf_memo = None;
    }

    /// A capacity-increasing event happened (completion, running-job
    /// cancellation, shrink): keep the watermark memos only while the new
    /// free count still cannot satisfy the smallest refused request —
    /// then every refusal in the memoized pass provably repeats. A
    /// backfill memo that refused a fitting job is always dropped: the
    /// changed running set may flip that refusal either way.
    fn incr_capacity_freed(&mut self) {
        // The watermark rule compares *global* free capacity against the
        // blocked request — unsound for a class-constrained pending job,
        // whose class can gain nodes without the global count reaching
        // the watermark. Fall back to a full invalidation while any such
        // job is pending (never the case on uniform inventories).
        if self.pending_index.constrained() > 0 {
            self.incr_clear();
            return;
        }
        let free = self.cluster.free_nodes();
        if self.incr.sched_block.is_some_and(|need| free >= need) {
            self.incr.sched_block = None;
        }
        if self
            .incr
            .bf_memo
            .as_ref()
            .is_some_and(|m| m.fitting_refused || free >= m.watermark)
        {
            self.incr.bf_memo = None;
        }
    }

    /// A pending job left the pending set without changing the relative
    /// order of the rest (start / cancellation): under the persistent
    /// cache its entry becomes a tombstone; otherwise the cache drops.
    fn queue_cache_tombstone(&mut self) {
        if !self.incr_on() {
            self.invalidate_queue_cache();
            return;
        }
        let mut cache = self.queue_cache.borrow_mut();
        if let Some(c) = cache.as_mut() {
            if !c.persistent {
                *cache = None;
                return;
            }
            c.stale += 1;
            c.shared = None;
            c.no_resizers = None;
            // Compact (by rebuild on next use) once tombstones dominate,
            // keeping walks O(live + live) rather than O(history).
            if c.stale * 2 > c.order.len() {
                *cache = None;
            }
        }
    }

    /// Appends a just-submitted job to the persistent order. Sound only
    /// when the caller verified the index is exact (a fresh non-boosted
    /// submission then sorts strictly after every retained entry).
    fn queue_cache_append(&mut self, id: JobId) {
        let mut cache = self.queue_cache.borrow_mut();
        if let Some(c) = cache.as_mut() {
            if c.persistent {
                Arc::make_mut(&mut c.order).push(id);
                c.shared = None;
                c.no_resizers = None;
            } else {
                *cache = None;
            }
        }
    }

    /// The order a backfill pass walks. Persistent regime: the retained
    /// (possibly tombstoned) order, rebuilt from the index only when
    /// absent — passes then filter tombstones instead of materialising a
    /// fresh order. Elsewhere: the classic shared slice at full cost.
    fn pass_order(&self, now: SimTime) -> PassOrder {
        if self.incr_on() && self.index_is_exact() {
            let mut cache = self.queue_cache.borrow_mut();
            if let Some(c) = cache.as_ref() {
                if c.persistent {
                    return PassOrder::Persistent(Arc::clone(&c.order));
                }
            }
            let order = Arc::new(self.pending_index.ids_vec());
            *cache = Some(QueueCache {
                at: now,
                from_index: true,
                order: Arc::clone(&order),
                persistent: true,
                stale: 0,
                shared: None,
                no_resizers: None,
            });
            return PassOrder::Persistent(order);
        }
        PassOrder::Shared(self.pending_ids_by_priority(now))
    }

    /// Whether the [`PendingIndex`] key order provably equals the
    /// multifactor sort at every instant: the age factor is the only
    /// live weight and no pending job carries a non-zero base priority.
    /// Age grows at the same rate for every pending job, and the
    /// priority rounding is monotone in age, so `(priority desc, submit
    /// asc, seq asc)` collapses to the static `(boosted, submit, seq)`
    /// key — order can then only change at mutation points, never with
    /// time.
    fn index_is_exact(&self) -> bool {
        self.config.sched_index == SchedIndex::Arena
            && self.config.multifactor.weight_size == 0
            && self.pending_index.nonzero_base() == 0
    }

    /// Whether the pending order is *static between mutations* — i.e.
    /// the index key order is provably the multifactor order at every
    /// instant (the private `index_is_exact` check). Public so drivers can
    /// tell when ordering-sensitive optimisations (e.g. batching all
    /// same-instant arrivals into one scheduling pass, which relies on
    /// fresh non-boosted submissions sorting strictly last) are sound.
    pub fn pending_order_is_static(&self) -> bool {
        self.index_is_exact()
    }

    fn pending_ids_by_priority(&self, now: SimTime) -> Arc<[JobId]> {
        let indexed = self.index_is_exact();
        {
            let mut cache = self.queue_cache.borrow_mut();
            if let Some(c) = cache.as_mut() {
                // An index-served order is time-invariant until the next
                // mutation (which clears or tombstones the cache), so it
                // survives across instants; sort-served orders are valid
                // at `at` only.
                if c.at == now || (c.from_index && indexed) {
                    if let Some(s) = &c.shared {
                        return Arc::clone(s);
                    }
                    // Materialise the clean slice, filtering tombstones
                    // out of the persistent order (a no-op filter when
                    // the cache was never tombstoned).
                    let s: Arc<[JobId]> = if c.stale == 0 {
                        c.order.iter().copied().collect()
                    } else {
                        c.order
                            .iter()
                            .copied()
                            .filter(|&id| {
                                self.jobs
                                    .get(id)
                                    .is_some_and(|j| j.state == JobState::Pending)
                            })
                            .collect()
                    };
                    c.shared = Some(Arc::clone(&s));
                    return s;
                }
            }
        }
        let shared: Arc<[JobId]> = if indexed {
            self.pending_index.ids().collect::<Vec<JobId>>().into()
        } else {
            self.pending_order_scan(now).into()
        };
        // Only the persistent regime ever walks / appends / tombstones
        // `order`; everywhere else the clean slice is the whole cache and
        // `order` stays an empty placeholder (no second copy paid).
        let persistent = self.incr_on() && indexed;
        let order = if persistent {
            Arc::new(shared.to_vec())
        } else {
            Arc::new(Vec::new())
        };
        *self.queue_cache.borrow_mut() = Some(QueueCache {
            at: now,
            from_index: indexed,
            order,
            persistent,
            stale: 0,
            shared: Some(Arc::clone(&shared)),
            no_resizers: None,
        });
        shared
    }

    /// The pre-index pending order: recompute every multifactor priority
    /// and sort. Exercised when the static index key cannot represent the
    /// order (size weight or per-job base priorities in play) and under
    /// [`SchedIndex::ScanReference`] as the equivalence oracle.
    fn pending_order_scan(&self, now: SimTime) -> Vec<JobId> {
        let mut pend: Vec<(&Job, u64)> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| (j, self.config.multifactor.priority(j, now)))
            .collect();
        pend.sort_by(|(a, pa), (b, pb)| {
            pb.cmp(pa)
                .then(a.submit_time.cmp(&b.submit_time))
                .then(a.seq.cmp(&b.seq))
        });
        pend.into_iter().map(|(j, _)| j.id).collect()
    }

    /// `pending_queue(now).len()` in O(1), for any `now`: the number of
    /// pending non-resizer jobs. Policies that only ask "is anyone
    /// queued?" use this instead of materialising the order.
    pub fn pending_queue_len(&self) -> usize {
        self.pending_index.non_resizers()
    }

    /// The first job of [`Slurm::pending_queue`] whose request lies in
    /// `lo..=hi` — the resize policies' "which queued job could my nodes
    /// admit?" query. While the index order is exact it is a range-min
    /// over the pending index's size buckets (O(log nodes)); otherwise
    /// it walks the priority-ordered queue.
    pub fn first_pending_sized(&self, lo: u32, hi: u32, now: SimTime) -> Option<JobId> {
        if self.index_is_exact() {
            return self.pending_index.first_sized(lo, hi);
        }
        self.pending_queue(now)
            .iter()
            .copied()
            .find(|&id| (lo..=hi).contains(&self.jobs[id].requested_nodes))
    }

    /// Pending jobs in scheduling order, excluding resizer jobs (exposed
    /// for the reconfiguration policy). Returns a shared slice: repeated
    /// consultations within one scheduling cycle are allocation-free, and
    /// with no resizers pending the full order itself is shared.
    pub fn pending_queue(&self, now: SimTime) -> Arc<[JobId]> {
        let order = self.pending_ids_by_priority(now);
        if let Some(nr) = self
            .queue_cache
            .borrow()
            .as_ref()
            .and_then(|c| c.no_resizers.clone())
        {
            return nr;
        }
        let nr: Arc<[JobId]> = if self.pending_index.pending_resizers() == 0 {
            Arc::clone(&order)
        } else {
            order
                .iter()
                .copied()
                .filter(|&id| !self.jobs[id].is_resizer())
                .collect::<Vec<JobId>>()
                .into()
        };
        if let Some(c) = self.queue_cache.borrow_mut().as_mut() {
            c.no_resizers = Some(Arc::clone(&nr));
        }
        nr
    }

    fn dependency_satisfied(&self, job: &Job) -> bool {
        match job.dependency {
            None => true,
            Some(Dependency::ExpandOf(parent)) => self
                .jobs
                .get(parent)
                .is_some_and(|p| p.state == JobState::Running),
        }
    }

    /// Earliest instant at which `need` nodes will be free, judging by
    /// running jobs' expected ends, plus the spare ("extra") nodes at that
    /// instant. This is the EASY backfill reservation for the top blocked
    /// job.
    fn reservation_for(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        if self.config.sched_index == SchedIndex::ScanReference {
            return self.reservation_for_scan(need, now);
        }
        let mut free = self.cluster.free_nodes();
        for (end, nodes) in self.running_index.iter() {
            free += nodes;
            if free >= need {
                return (end.max(now), free - need);
            }
        }
        // Estimates never free enough nodes (can happen transiently while
        // resizer nodes are detached): no backfill headroom.
        (SimTime(u64::MAX), 0)
    }

    /// The pre-index reservation: collect every running job's
    /// `(expected_end, held_nodes)` and sort — the equivalence oracle for
    /// the [`RunningIndex`] walk above.
    fn reservation_for_scan(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        let mut ends: Vec<(SimTime, u32)> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| {
                (
                    j.expected_end().unwrap_or(now),
                    self.cluster.held_by(j.id.owner_tag()),
                )
            })
            .collect();
        ends.sort();
        let mut free = self.cluster.free_nodes();
        for (end, nodes) in ends {
            free += nodes;
            if free >= need {
                return (end.max(now), free - need);
            }
        }
        (SimTime(u64::MAX), 0)
    }

    fn start_job(&mut self, id: JobId, now: SimTime) -> JobStart {
        let need = self.jobs[id].requested_nodes;
        let constraint = self.jobs[id].constraint;
        let nodes = self
            .cluster
            .allocate_in(need, id.owner_tag(), constraint)
            .expect("caller verified free nodes");
        let job = self.jobs.get_mut(id).expect("job exists");
        self.pending_index.remove(job);
        job.state = JobState::Running;
        job.start_time = Some(now);
        let end = now + job.expected_runtime;
        let resizer_for = job.dependency.map(|Dependency::ExpandOf(parent)| parent);
        let held = self.cluster.held_by(id.owner_tag());
        self.running_index.insert(id, end, held);
        self.tl_queue(end, held, true);
        self.class_plan(id, end);
        // A start changes the free count, the running set and (for
        // resizer parents) dependency satisfiability: every memo dies;
        // the persistent order keeps the started id as a tombstone.
        self.queue_cache_tombstone();
        self.incr_clear();
        self.incr.reaped_at = None;
        JobStart {
            id,
            nodes,
            resizer_for,
        }
    }

    fn reap_dead_resizers(&mut self, now: SimTime) {
        if self.config.sched_index == SchedIndex::ScanReference {
            return self.reap_dead_resizers_scan(now);
        }
        // Per-instant memo: a schedule() immediately followed by a
        // backfill_pass() at the same instant reaps once. Any mutation
        // that can create candidates or change dependency state (submit,
        // start, complete, cancel) re-arms it.
        if self.incr_on() && self.incr.reaped_at == Some(now) {
            return;
        }
        // O(1) in the common case: completions push orphaned resizers
        // onto the candidate list; nothing queued means nothing to do.
        if !self.resizer_index.has_dead_candidates() {
            if self.incr_on() {
                self.incr.reaped_at = Some(now);
            }
            return;
        }
        for id in self.resizer_index.take_dead() {
            let Some(j) = self.jobs.get(id) else {
                continue;
            };
            if j.state != JobState::Pending || !j.is_resizer() {
                continue;
            }
            if self.dependency_satisfied(j) {
                // The parent was not running at registration but is now:
                // re-register so a later parent termination re-queues it.
                if let Some(Dependency::ExpandOf(parent)) = j.dependency {
                    self.resizer_index.register(parent, id, true);
                }
                continue;
            }
            self.cancel(id, now);
        }
        // Arm the memo last: the cancels above cleared it.
        if self.incr_on() {
            self.incr.reaped_at = Some(now);
        }
    }

    /// The pre-index reap: scan every job record for pending resizers
    /// with unsatisfied dependencies (the [`ResizerIndex`] oracle).
    fn reap_dead_resizers_scan(&mut self, now: SimTime) {
        // Dependency hygiene: resizers of finished jobs are dead.
        let dead: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|j| {
                j.state == JobState::Pending && j.is_resizer() && !self.dependency_satisfied(j)
            })
            .map(|j| j.id)
            .collect();
        for id in dead {
            self.cancel(id, now);
        }
    }

    /// The event-driven scheduling pass (Slurm's `sched/builtin` reacting
    /// to submissions and completions): starts pending jobs in priority
    /// order and stops at the first that does not fit. Backfill around
    /// blocked jobs happens only in the periodic [`Slurm::backfill_pass`],
    /// mirroring Slurm's `bf_interval` architecture. Also reaps resizer
    /// jobs whose original job ended.
    pub fn schedule(&mut self, now: SimTime) -> Vec<JobStart> {
        // Watermark elision: a prior pass started nothing and broke at a
        // blocked head, and no mutation since could change any decision
        // (the memo is cleared by every mutation that can — see
        // `incr_clear` / `incr_capacity_freed` call sites). Requires the
        // static order (new submissions sort last, so the head still
        // blocks first) and a provably no-op reap.
        if self.incr_on()
            && self.index_is_exact()
            && !self.resizer_index.has_dead_candidates()
            && self.incr.sched_block.is_some()
        {
            self.incr.sched_elided += 1;
            return Vec::new();
        }
        self.incr.sched_runs += 1;
        self.reap_dead_resizers(now);
        let (started, blocked) = if self.index_is_exact() {
            self.schedule_walk(now)
        } else {
            let order = self.pending_ids_by_priority(now);
            let mut started = Vec::new();
            let mut blocked = None;
            for &id in order.iter() {
                let job = &self.jobs[id];
                if !self.dependency_satisfied(job) {
                    // Cannot run regardless of resources; does not block
                    // the queue.
                    continue;
                }
                if self
                    .cluster
                    .can_allocate_in(job.requested_nodes, job.constraint)
                {
                    started.push(self.start_job(id, now));
                } else {
                    blocked = Some(job.requested_nodes);
                    break;
                }
            }
            (started, blocked)
        };
        // Memoize only a fully fruitless pass: a pass that started jobs
        // may have flipped a skipped resizer's dependency mid-walk, and
        // `start_job` cleared the memos anyway.
        if self.incr_on() && self.index_is_exact() && started.is_empty() {
            self.incr.sched_block = blocked;
        }
        started
    }

    /// The index-served scheduling pass: walks the [`PendingIndex`]
    /// through a resumable cursor instead of materialising the whole
    /// order, so a pass that starts `k` of `n` pending jobs costs
    /// O(k log n). Visit order is the exact index key order — identical
    /// to the slice the materialising path would have walked (the only
    /// mid-walk mutation, [`Slurm::start_job`], removes keys the cursor
    /// has already passed). Used by [`SchedIndex::Arena`] whenever the
    /// index is exact. Also returns the blocked head's request size for
    /// the elision watermark.
    fn schedule_walk(&mut self, now: SimTime) -> (Vec<JobStart>, Option<u32>) {
        let mut started = Vec::new();
        let mut blocked = None;
        let mut cursor: Option<PendingKey> = None;
        while let Some(key) = self.pending_index.next_after(cursor) {
            cursor = Some(key);
            let (.., id) = key;
            let job = &self.jobs[id];
            if !self.dependency_satisfied(job) {
                continue;
            }
            if self
                .cluster
                .can_allocate_in(job.requested_nodes, job.constraint)
            {
                started.push(self.start_job(id, now));
            } else {
                blocked = Some(job.requested_nodes);
                break;
            }
        }
        (started, blocked)
    }

    /// The periodic backfill pass (Slurm's backfill thread), dispatched
    /// on [`SlurmConfig::backfill_family`]:
    ///
    /// * [`BackfillFamily::Easy`] — the first `k` blocked jobs get
    ///   shadow-time reservations found on the slot-set timeline;
    ///   lower-priority jobs jump ahead only if they delay none of them.
    ///   `k = 1` is bit-for-bit the legacy behaviour.
    /// * [`BackfillFamily::Conservative`] — every blocked job gets a slot
    ///   planned in the timeline; a job starts now only if its whole
    ///   expected runtime fits under every plan.
    /// * [`BackfillFamily::LegacyReference`] — the pre-slot-set
    ///   single-reservation walk, kept as the equivalence oracle.
    ///
    /// Under [`SchedIncremental::On`] a pass whose memo is still valid —
    /// same family and knobs, an instant before the memo's expiry (never
    /// for refusals of jobs that do not fit; the memoized instant only
    /// for EASY refusals of fitting jobs; the earliest planned start for
    /// conservative ones), no invalidating mutation since, and a provably
    /// no-op reap — is elided in O(1): it would start nothing and leave
    /// no observable state, bit-for-bit like running it. The legacy
    /// oracle never creates memos, so it never elides.
    pub fn backfill_pass(&mut self, now: SimTime) -> Vec<JobStart> {
        if self.incr_on()
            && self.index_is_exact()
            && !self.resizer_index.has_dead_candidates()
            && self.incr.bf_memo.as_ref().is_some_and(|m| {
                now < m.until
                    && m.family == self.config.backfill_family
                    && m.backfill_on == self.config.backfill
                    && m.window == self.config.bf_max_job_test
            })
        {
            self.incr.bf_elided += 1;
            return Vec::new();
        }
        self.incr.bf_runs += 1;
        match self.config.backfill_family {
            BackfillFamily::Easy { reservations } => {
                self.backfill_pass_easy(now, reservations.max(1))
            }
            BackfillFamily::Conservative => self.backfill_pass_conservative(now),
            BackfillFamily::LegacyReference => self.backfill_pass_legacy(now),
        }
    }

    /// The pre-slot-set EASY pass: one reservation computed by the
    /// running-index walk ([`Slurm::reservation_for`]), kept verbatim as
    /// the equivalence oracle for `Easy { reservations: 1 }`.
    fn backfill_pass_legacy(&mut self, now: SimTime) -> Vec<JobStart> {
        self.reap_dead_resizers(now);
        let order = self.pending_ids_by_priority(now);
        let mut started = Vec::new();
        let mut reservation: Option<(SimTime, u32)> = None;
        for &id in order.iter() {
            let job = &self.jobs[id];
            if !self.dependency_satisfied(job) {
                continue;
            }
            let need = job.requested_nodes;
            let fits = self.cluster.can_allocate_in(need, job.constraint);
            match (&mut reservation, fits) {
                (None, true) => {
                    started.push(self.start_job(id, now));
                }
                (None, false) => {
                    if !self.config.backfill {
                        break;
                    }
                    reservation = Some(self.reservation_for(need, now));
                }
                (Some((shadow, extra)), true) => {
                    // Backfill: must not delay the reservation holder.
                    let est_end = now + self.jobs[id].expected_runtime;
                    if est_end <= *shadow {
                        started.push(self.start_job(id, now));
                    } else if need <= *extra {
                        *extra -= need;
                        started.push(self.start_job(id, now));
                    }
                }
                (Some(_), false) => {}
            }
        }
        started
    }

    /// EASY-k on the slot-set timeline: up to `k` blocked jobs hold
    /// `(shadow, spare)` reservations; a fitting lower-priority job
    /// starts only if, for every reservation, it either ends by the
    /// shadow time or fits in the spare nodes (which it then consumes).
    /// The first reservation reproduces the legacy walk bit-for-bit
    /// ([`Slurm::easy_first_reservation`]); deeper ones are O(log slots)
    /// hole queries. Reservations are planned into the timeline for the
    /// duration of the pass so each later hole query sees the earlier
    /// plans, and unplanned before returning.
    fn backfill_pass_easy(&mut self, now: SimTime, k: u32) -> Vec<JobStart> {
        self.reap_dead_resizers(now);
        self.sync_timelines(now);
        let order = self.pass_order(now);
        let mut started = Vec::new();
        let mut reservations: Vec<(SimTime, u32)> = Vec::new();
        // Refusal records for the elision memo (see [`BfMemo`]).
        let mut watermark = u32::MAX;
        let mut fitting_refused = false;
        for &id in order.ids() {
            // Tombstone / state filter: under the persistent order, ids
            // may refer to started, cancelled or recycled jobs; the
            // generation-checked arena rejects them. A clean order only
            // ever holds pending jobs here, so the filter is a no-op.
            let Some(job) = self.jobs.get(id) else {
                continue;
            };
            if job.state != JobState::Pending {
                continue;
            }
            if !self.dependency_satisfied(job) {
                continue;
            }
            let need = job.requested_nodes;
            let constraint = job.constraint;
            if self.cluster.can_allocate_in(need, constraint) {
                if reservations.is_empty() {
                    started.push(self.start_job(id, now));
                    self.sync_timelines(now);
                    continue;
                }
                let est_end = now + self.jobs[id].expected_runtime;
                let harmless = reservations
                    .iter()
                    .all(|&(shadow, spare)| est_end <= shadow || need <= spare);
                if harmless {
                    for r in reservations.iter_mut() {
                        if est_end > r.0 {
                            r.1 -= need;
                        }
                    }
                    started.push(self.start_job(id, now));
                    self.sync_timelines(now);
                } else {
                    // A fitting job refused by the harmless check: not a
                    // time-invariant refusal (see [`BfMemo`]).
                    fitting_refused = true;
                }
            } else {
                watermark = watermark.min(need);
                if reservations.is_empty() && !self.config.backfill {
                    break;
                }
                if (reservations.len() as u32) < k {
                    let dur = self.jobs[id].expected_runtime;
                    let (shadow, spare) = if constraint != ClassConstraint::Any {
                        self.constrained_hole(constraint, need, dur, now)
                    } else if reservations.is_empty() {
                        self.easy_first_reservation(need, now)
                    } else {
                        self.hole_reservation(need, dur, now)
                    };
                    if shadow != SimTime(u64::MAX) {
                        let until = shadow + dur;
                        self.timeline
                            .get_mut()
                            .slots
                            .plan_journaled(shadow, until, need);
                        if let Some(c) = self.sole_eligible_class(constraint) {
                            self.class_timelines.get_mut()[c]
                                .slots
                                .plan_journaled(shadow, until, need);
                        }
                    }
                    reservations.push((shadow, spare));
                }
            }
        }
        self.timeline.get_mut().slots.rollback_plans();
        if self.class_tl_live {
            for tl in self.class_timelines.get_mut() {
                tl.slots.rollback_plans();
            }
        }
        self.bf_memoize(
            now,
            watermark,
            fitting_refused,
            started.is_empty(),
            reservations,
            Vec::new(),
        );
        started
    }

    /// Conservative backfill: walk the queue in priority order; a job
    /// whose whole expected runtime fits under the planned occupancy
    /// starts now, every other job gets the earliest hole planned into
    /// the timeline — so no start can delay any blocked job's plan.
    /// Pass-local plans are removed before returning.
    ///
    /// The walk stops after [`SlurmConfig::bf_max_job_test`] blocked jobs
    /// (Slurm's own conservative-depth cap): a job deeper than the window
    /// may not start anyway — the untested blocked jobs between it and
    /// the window would have no plans protecting them.
    fn backfill_pass_conservative(&mut self, now: SimTime) -> Vec<JobStart> {
        self.reap_dead_resizers(now);
        self.sync_timelines(now);
        // Temporary plans go in un-journaled: the pass plans up to
        // `window` reservations, and unwinding them one treap op at a
        // time dominates the pass. A checkpoint reverts them all in one
        // flat copy; mid-pass starts are replayed on top (see
        // [`Timeline::save`]).
        self.timeline.get_mut().save();
        if self.class_tl_live {
            for tl in self.class_timelines.get_mut() {
                tl.save();
            }
        }
        let window = self.config.bf_max_job_test.max(1);
        let order = self.pass_order(now);
        let mut started = Vec::new();
        let mut plan_slots: Vec<(JobId, SimTime)> = Vec::new();
        let mut tested: u32 = 0;
        // Refusal records for the elision memo (see [`BfMemo`]).
        let mut watermark = u32::MAX;
        let mut fitting_refused = false;
        for &id in order.ids() {
            // Tombstone / state filter (see `backfill_pass_easy`). Under
            // the persistent order this is what makes the pass a *window
            // over the retained order* — O(window + skips) instead of a
            // full O(pending) materialisation per pass.
            let Some(job) = self.jobs.get(id) else {
                continue;
            };
            if job.state != JobState::Pending {
                continue;
            }
            if !self.dependency_satisfied(job) {
                continue;
            }
            let need = job.requested_nodes;
            let dur = job.expected_runtime;
            let fits = self.cluster.can_allocate_in(need, job.constraint);
            if !fits && plan_slots.is_empty() && !self.config.backfill {
                watermark = watermark.min(need);
                break;
            }
            tested += 1;
            if tested > window {
                break;
            }
            // A class-constrained job with a single eligible class plans
            // against that class's timeline (the aggregate would lend it
            // capacity its class never has); the plan still goes into
            // the aggregate too so unconstrained jobs cannot double-book
            // the same global window.
            let sole = self.sole_eligible_class(job.constraint);
            let avail = match sole {
                Some(c) => {
                    self.cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c]
                }
                None => self.cluster.free_nodes() + self.running_index.total_held(),
            };
            if avail < need {
                // Can never run on current estimates; nothing to plan.
                // (A start needs `fits`, i.e. free >= need > avail >=
                // free — so the watermark rule covers this refusal too.)
                watermark = watermark.min(need);
                continue;
            }
            let cap = i64::from(avail - need);
            let hole = match sole {
                Some(c) => self.class_timelines.borrow()[c]
                    .slots
                    .earliest_hole(now, cap, dur),
                None => self.timeline.borrow().slots.earliest_hole(now, cap, dur),
            };
            match hole {
                Some(s) if s == now && fits => {
                    started.push(self.start_job(id, now));
                    self.sync_timelines(now);
                }
                Some(s) => {
                    // A fitting job whose hole is not at `now` is a
                    // time-sensitive refusal: occupancy decay alone can
                    // open its hole. A non-fitting one cannot start
                    // while `free < need`, whatever its hole does.
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                    let until = s + dur;
                    self.timeline.get_mut().slots.plan(s, until, need);
                    if let Some(c) = sole {
                        self.class_timelines.get_mut()[c].slots.plan(s, until, need);
                    }
                    plan_slots.push((id, s));
                }
                None => {
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                }
            }
        }
        self.timeline.get_mut().restore();
        if self.class_tl_live {
            for tl in self.class_timelines.get_mut() {
                tl.restore();
            }
        }
        self.bf_memoize(
            now,
            watermark,
            fitting_refused,
            started.is_empty(),
            Vec::new(),
            plan_slots,
        );
        started
    }

    /// Records the memo of a fruitless backfill pass (see [`BfMemo`]).
    /// Passes that started jobs need no action: `start_job` already
    /// cleared any previous memo.
    fn bf_memoize(
        &mut self,
        now: SimTime,
        watermark: u32,
        fitting_refused: bool,
        fruitless: bool,
        easy_reservations: Vec<(SimTime, u32)>,
        conservative_plan: Vec<(JobId, SimTime)>,
    ) {
        if !(self.incr_on() && self.index_is_exact() && fruitless) {
            return;
        }
        let next_instant = now + Span(1);
        let until = match (fitting_refused, self.config.backfill_family) {
            (false, _) => SimTime(u64::MAX),
            (true, BackfillFamily::Conservative) => conservative_plan
                .iter()
                .map(|&(_, start)| start)
                .min()
                .map_or(SimTime(u64::MAX), |first| first.max(next_instant)),
            (true, _) => next_instant,
        };
        self.incr.bf_memo = Some(BfMemo {
            until,
            watermark,
            fitting_refused,
            family: self.config.backfill_family,
            backfill_on: self.config.backfill,
            window: self.config.bf_max_job_test,
            easy_reservations,
            conservative_plan,
        });
    }

    /// Pass counters of the incremental layer: executed versus elided
    /// scheduling and backfill passes (see [`IncrementalStats`]).
    pub fn incremental_stats(&self) -> IncrementalStats {
        IncrementalStats {
            sched_passes_run: self.incr.sched_runs,
            sched_passes_elided: self.incr.sched_elided,
            backfill_passes_run: self.incr.bf_runs,
            backfill_passes_elided: self.incr.bf_elided,
        }
    }

    /// The EASY-k `(shadow, spare)` reservations retained from the last
    /// fruitless backfill pass, while still provably current (every
    /// invalidating mutation drops them together with the pass memo).
    /// `None` when no memo is live or the memoized family was not EASY.
    /// This is the cross-pass reservation cache: while the blocking set
    /// is unchanged, repeat passes are elided and the pairs are served
    /// from here instead of being recomputed.
    pub fn easy_reservations(&self) -> Option<&[(SimTime, u32)]> {
        self.incr.bf_memo.as_ref().and_then(|m| {
            matches!(m.family, BackfillFamily::Easy { .. })
                .then_some(m.easy_reservations.as_slice())
        })
    }

    /// Whether growing running job `id` to `to` nodes would steal the
    /// backfill hole of the first blocked pending job. Grow-happy
    /// policies consult this before returning an expand verdict when
    /// [`SlurmConfig::hole_guard`] is on (default); off restores the
    /// timeline-blind behaviour.
    ///
    /// The check is deliberately mode-independent: it recomputes the
    /// blocked head's reservation from the timeline instead of peeking
    /// at [`Slurm::easy_reservations`] (whose presence depends on the
    /// [`SchedIncremental`] knob), so policy decisions stay
    /// bit-identical across every hot-path / incremental setting. A
    /// grow steals the hole when its extra nodes exceed the
    /// reservation's spare count while the grown job is still expected
    /// to run at the shadow time.
    pub fn grow_steals_backfill_hole(&self, id: JobId, to: u32, now: SimTime) -> bool {
        if !self.config.hole_guard || !self.config.backfill {
            return false;
        }
        let current = self.nodes_of(id);
        if to <= current {
            return false;
        }
        let delta = to - current;
        let pending = self.pending_queue(now);
        let blocked = pending.iter().find_map(|&pid| {
            let j = self.jobs.get(pid)?;
            (!self
                .cluster
                .can_allocate_in(j.requested_nodes, j.constraint))
            .then_some((j.requested_nodes, j.constraint, j.expected_runtime))
        });
        let Some((need, constraint, dur)) = blocked else {
            return false;
        };
        self.timeline.borrow_mut().sync(now);
        if self.class_tl_live {
            for tl in self.class_timelines.borrow_mut().iter_mut() {
                tl.sync(now);
            }
        }
        let (shadow, spare) = if constraint != ClassConstraint::Any {
            self.constrained_hole(constraint, need, dur, now)
        } else {
            self.easy_first_reservation(need, now)
        };
        if shadow == SimTime(u64::MAX) {
            return false;
        }
        let grown_end = self.jobs.get(id).and_then(Job::expected_end).unwrap_or(now);
        delta > spare && grown_end > shadow
    }

    /// The conservative plan `(job, planned start)` retained from the
    /// last fruitless backfill pass, while still provably current.
    /// Entries are as of the memoized instant (the memo's `at`): with the
    /// cluster unchanged since, no planned job can start earlier, so the
    /// plan remains the schedule the pass would reproduce. `None` when no
    /// memo is live or the memoized family was not conservative.
    pub fn conservative_plan(&self) -> Option<&[(JobId, SimTime)]> {
        self.incr.bf_memo.as_ref().and_then(|m| {
            (m.family == BackfillFamily::Conservative).then_some(m.conservative_plan.as_slice())
        })
    }

    /// The first EASY reservation, answered from the timeline but
    /// bit-for-bit identical to the legacy walk ([`Slurm::reservation_for`]).
    ///
    /// The timeline locates the crossing slot in O(log): the first
    /// boundary `S` where planned occupancy leaves `need` nodes free.
    /// The legacy walk, however, stops *inside* the group of running
    /// jobs sharing the expected end `S` — its "extra" count excludes
    /// later same-end entries — so the partial accumulation is replayed
    /// over just that group (O(group), not O(running)).
    fn easy_first_reservation(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        let free_now = self.cluster.free_nodes();
        // Defensive: callers only ask about blocked jobs (free < need).
        // Should the preconditions ever not hold, defer to the oracle so
        // the answer is unconditionally identical.
        if free_now >= need || self.running_index.len() == 0 {
            return self.reservation_for(need, now);
        }
        let avail = free_now + self.running_index.total_held();
        if avail < need {
            // Estimates never free enough nodes (can happen transiently
            // while resizer nodes are detached): no backfill headroom.
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.timeline.borrow();
        let Some(s) = tl.slots.first_fit_at(now, cap) else {
            return (SimTime(u64::MAX), 0);
        };
        let occ_s = tl.slots.occupied_at(s);
        drop(tl);
        if s <= now {
            // Jobs already past their estimate (their ends clamp to
            // `now` in the legacy walk) free enough on their own.
            let mut free = free_now;
            for (_, nodes) in self.running_index.ends_through(now) {
                free += nodes;
                if free >= need {
                    return (now, free - need);
                }
            }
        } else {
            let group_sum: u32 = self.running_index.group_at(s).map(|(_, n)| n).sum();
            // Free count just before the group: avail - occ(S) counts
            // every job ending at or before S as freed; subtract the
            // group to get the legacy accumulator's starting point.
            let mut free = avail - (occ_s as u32) - group_sum;
            for (end, nodes) in self.running_index.group_at(s) {
                free += nodes;
                if free >= need {
                    return (end, free - need);
                }
            }
        }
        // Unreachable while the timeline mirrors the running set; defer
        // to the oracle rather than guess.
        self.reservation_for(need, now)
    }

    /// A deeper EASY-k reservation: the earliest timeline hole fitting
    /// `need` nodes for `dur`, with the spare count taken against the
    /// occupancy peak inside the window (so backfilling against this
    /// reservation can never overdraw it).
    fn hole_reservation(&self, need: u32, dur: Span, now: SimTime) -> (SimTime, u32) {
        let avail = self.cluster.free_nodes() + self.running_index.total_held();
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.timeline.borrow();
        match tl.slots.earliest_hole(now, cap, dur) {
            Some(s) => {
                let peak = tl.slots.max_in(s, s + dur);
                (s, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }

    /// Marks a running job complete and frees its nodes.
    pub fn complete(&mut self, id: JobId, now: SimTime) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        debug_assert_eq!(job.state, JobState::Running, "completing a non-running job");
        let was_pending = job.state == JobState::Pending;
        job.state = JobState::Completed;
        job.end_time = Some(now);
        let dep = job.dependency;
        if was_pending {
            // Tolerated in release builds only (the debug assert above
            // fires first): keep the index consistent with the scan.
            self.pending_index.remove(&self.jobs[id]);
        }
        if let Some((end, nodes)) = self.running_index.remove(id) {
            self.tl_queue(end, nodes, false);
            self.class_unplan(id, end);
        }
        if let Some(Dependency::ExpandOf(parent)) = dep {
            self.resizer_index.resizer_terminal(parent, id);
        }
        self.resizer_index.parent_terminal(id);
        // Precise invalidation (arena mode): completing a *running* job
        // removes nothing from the pending set and touches no priority
        // input, so the memoized pending order stays valid. (Orphaned
        // resizers are reaped via `cancel`, which does invalidate.) The
        // scan oracle invalidates unconditionally.
        if was_pending || self.config.sched_index == SchedIndex::ScanReference {
            self.invalidate_queue_cache();
        }
        // A job that shrank to zero nodes cannot exist (envelope min >= 1),
        // but release defensively.
        let _ = self.cluster.release_all(id.owner_tag());
        // `parent_terminal` may have queued dead-resizer candidates.
        self.incr.reaped_at = None;
        if was_pending {
            self.incr_clear();
        } else {
            // Capacity-increasing event: watermark rule decides whether
            // the memos survive.
            self.incr_capacity_freed();
        }
        if !self.config.retain_completed {
            self.jobs.remove(id);
        }
    }

    /// Cancels a pending or running job. Detached resizer nodes are *not*
    /// freed — that is the point of protocol step 3: cancelling the hollow
    /// resizer job keeps its allocation parked for reattachment.
    pub fn cancel(&mut self, id: JobId, now: SimTime) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        let was_running = job.state == JobState::Running;
        let was_pending = job.state == JobState::Pending;
        let detached = job.detached_nodes != 0;
        job.state = JobState::Cancelled;
        job.end_time = Some(now);
        let dep = job.dependency;
        if was_pending {
            self.pending_index.remove(&self.jobs[id]);
        }
        if was_running {
            if let Some((end, nodes)) = self.running_index.remove(id) {
                self.tl_queue(end, nodes, false);
                self.class_unplan(id, end);
            }
        }
        if let Some(Dependency::ExpandOf(parent)) = dep {
            self.resizer_index.resizer_terminal(parent, id);
        }
        self.resizer_index.parent_terminal(id);
        if was_pending {
            // Removal without reorder: tombstone under the persistent
            // cache, full drop elsewhere (exactly the old behaviour).
            self.queue_cache_tombstone();
        } else {
            self.invalidate_queue_cache();
        }
        if was_running && !detached {
            let _ = self.cluster.release_all(id.owner_tag());
        }
        self.incr.reaped_at = None;
        if was_running && !detached {
            // Capacity-increasing: the watermark rule decides.
            self.incr_capacity_freed();
        } else {
            self.incr_clear();
        }
        // The record itself is never consulted after cancellation (node
        // ownership lives in the cluster tables), so it can be dropped
        // with the same retention rule as completions.
        if !self.config.retain_completed {
            self.jobs.remove(id);
        }
    }

    // ------------------------------------------------------------------
    // The §III malleability protocol.
    // ------------------------------------------------------------------

    /// Expands `id` to `to` nodes via the four-step resizer-job protocol.
    ///
    /// On success returns the job's full (old + new) node list. If the
    /// resizer cannot start immediately, it is left pending with maximum
    /// priority and [`ExpandError::Queued`] is returned; the caller decides
    /// whether to wait (async mode) or abort.
    pub fn expand_protocol(
        &mut self,
        id: JobId,
        to: u32,
        now: SimTime,
    ) -> Result<Vec<NodeId>, ExpandError> {
        let job = self.jobs.get(id).ok_or(ExpandError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(ExpandError::NotRunning(id));
        }
        let current = self.cluster.held_by(id.owner_tag());
        if to <= current {
            return Err(ExpandError::InvalidTarget { current, to });
        }
        let delta = to - current;
        let constraint = job.constraint;
        // Step 1: submit the resizer job B with a dependency on A and
        // maximum priority ("facilitating its execution", §V-B1). The
        // resizer inherits A's class constraint: the new nodes join A's
        // allocation, so they must satisfy the same placement rules.
        let rj = self.submit(
            JobRequest {
                name: format!("resizer-of-{id}"),
                nodes: delta,
                time_limit: None,
                expected_runtime: Some(Span::ZERO),
                dependency: Some(Dependency::ExpandOf(id)),
                base_priority: 0,
                resize: None,
                constraint,
            },
            now,
        );
        self.boost(rj);
        if !self.cluster.can_allocate_in(delta, constraint) {
            return Err(ExpandError::Queued { resizer: rj });
        }
        // The resizer starts right away (it outranks everything pending).
        let _ = self.start_job(rj, now);
        let (_, nodes) = self
            .finish_expand(rj, now)
            .expect("resizer started; protocol steps 2-4 cannot fail");
        Ok(nodes)
    }

    /// Completes protocol steps 2–4 for a resizer job that has started:
    /// detach its nodes, cancel it, reattach the nodes to the original job.
    /// Returns the original job id and its full node list.
    pub fn finish_expand(
        &mut self,
        rj: JobId,
        now: SimTime,
    ) -> Result<(JobId, Vec<NodeId>), ExpandError> {
        let rjob = self.jobs.get(rj).ok_or(ExpandError::UnknownJob(rj))?;
        if rjob.state != JobState::Running {
            return Err(ExpandError::NotRunning(rj));
        }
        let Some(Dependency::ExpandOf(original)) = rjob.dependency else {
            return Err(ExpandError::UnknownJob(rj));
        };
        let delta = self.cluster.held_by(rj.owner_tag());
        // Step 2: update B to zero nodes — the allocation detaches from B.
        if let Some(j) = self.jobs.get_mut(rj) {
            j.requested_nodes = 0;
            j.detached_nodes = delta;
        }
        // Step 3: cancel B (nodes stay parked because of the detach mark).
        self.cancel(rj, now);
        if let Some(j) = self.jobs.get_mut(rj) {
            // Record may already be pruned (retention off); clear the
            // mark when it survives.
            j.detached_nodes = 0;
        }
        // Step 4: update A to N_A + N_B — reattach.
        let moved = self
            .cluster
            .transfer_all(rj.owner_tag(), original.owner_tag())
            .expect("detached nodes are still owned by the resizer tag");
        debug_assert_eq!(moved.len() as u32, delta);
        let held = self.cluster.held_by(original.owner_tag());
        if let Some((end, old_nodes)) = self.running_index.set_nodes(original, held) {
            self.tl_queue(end, old_nodes, false);
            self.tl_queue(end, held, true);
            self.class_unplan(original, end);
            self.class_plan(original, end);
        }
        if let Some(j) = self.jobs.get_mut(original) {
            j.requested_nodes = self.cluster.held_by(original.owner_tag());
            j.reconfigurations += 1;
        }
        // The re-keyed running set changes `avail` (held grows by the
        // transferred nodes): rather than prove the finer rule, drop the
        // pass memos — expansions are rare next to passes.
        self.incr_clear();
        Ok((
            original,
            self.cluster.nodes_of(original.owner_tag()).to_vec(),
        ))
    }

    /// Aborts a queued expansion: cancels the pending resizer job (the
    /// timeout path of §V-B1).
    pub fn abort_expand(&mut self, rj: JobId, now: SimTime) {
        if let Some(j) = self.jobs.get(rj) {
            if j.state == JobState::Pending {
                self.cancel(rj, now);
            }
        }
    }

    /// Shrinks `id` to `to` nodes (a single "update job" call in Slurm,
    /// §III). Returns the released nodes. The ACK workflow that lets
    /// processes drain before the nodes die lives in the runtime layer;
    /// by the time this is called the nodes are clean.
    pub fn shrink_protocol(
        &mut self,
        id: JobId,
        to: u32,
        now: SimTime,
    ) -> Result<Vec<NodeId>, ExpandError> {
        let job = self.jobs.get(id).ok_or(ExpandError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(ExpandError::NotRunning(id));
        }
        let current = self.cluster.held_by(id.owner_tag());
        if to >= current || to == 0 {
            return Err(ExpandError::InvalidTarget { current, to });
        }
        let released = self
            .cluster
            .release_tail(id.owner_tag(), current - to)
            .expect("running job owns its nodes");
        let _ = now;
        if let Some((end, old_nodes)) = self.running_index.set_nodes(id, to) {
            self.tl_queue(end, old_nodes, false);
            self.tl_queue(end, to, true);
            self.class_unplan(id, end);
            self.class_plan(id, end);
        }
        if let Some(j) = self.jobs.get_mut(id) {
            j.requested_nodes = to;
            j.reconfigurations += 1;
        }
        // Capacity-increasing event: the watermark rule decides whether
        // the pass memos survive.
        self.incr_capacity_freed();
        Ok(released)
    }

    /// Internal-consistency check used by tests: re-derives every index
    /// from a scan of the job table and compares. This (and the
    /// `ScanReference` oracles) is where the O(jobs) scans live on.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cluster.check_invariants()?;
        let pending: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| j.id)
            .collect();
        let mut indexed: Vec<JobId> = self.pending_index.ids().collect();
        indexed.sort();
        let mut expected = pending.clone();
        expected.sort();
        if indexed != expected {
            return Err(format!(
                "pending index {indexed:?} != pending set {expected:?}"
            ));
        }
        let nonzero = pending
            .iter()
            .filter(|&&id| self.jobs[id].base_priority != 0)
            .count();
        if nonzero != self.pending_index.nonzero_base() {
            return Err(format!(
                "nonzero-base count {} != scanned {nonzero}",
                self.pending_index.nonzero_base()
            ));
        }
        let resizers = pending
            .iter()
            .filter(|&&id| self.jobs[id].is_resizer())
            .count();
        if resizers != self.pending_index.pending_resizers() {
            return Err(format!(
                "pending-resizer count {} != scanned {resizers}",
                self.pending_index.pending_resizers()
            ));
        }
        self.pending_index.check_sizes(|id| {
            let job = &self.jobs[id];
            (!job.is_resizer()).then_some(job.requested_nodes)
        })?;
        let constrained = pending
            .iter()
            .filter(|&&id| self.jobs[id].constraint != ClassConstraint::Any)
            .count();
        if constrained != self.pending_index.constrained() {
            return Err(format!(
                "constrained-pending count {} != scanned {constrained}",
                self.pending_index.constrained()
            ));
        }
        // Failed-node accounting: a node that stopped accepting work
        // while allocated (injected failure or administrative drain) may
        // only be owned by a job the scheduler still considers running —
        // a kill that released the rest of an allocation but leaked the
        // down node would show up here.
        for c in 0..self.cluster.table().num_classes() {
            let (start, end) = self.cluster.table().range(c);
            for n in start..end {
                let node = NodeId(n);
                if self.cluster.node_state(node).accepts_new_work() {
                    continue;
                }
                let Some(owner) = self.cluster.owner_of(node) else {
                    continue;
                };
                let owner = JobId(owner);
                let state_ok = self
                    .jobs
                    .get(owner)
                    .is_some_and(|j| j.state == JobState::Running);
                if !state_ok {
                    return Err(format!(
                        "node n{n} owned by {owner:?}, which is not a running job"
                    ));
                }
            }
        }
        let running: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .collect();
        if running.len() != self.running_index.len() {
            return Err(format!(
                "running index len {} != running jobs {}",
                self.running_index.len(),
                running.len()
            ));
        }
        let mut scan: Vec<(SimTime, u32)> = running
            .iter()
            .map(|j| {
                (
                    j.expected_end().expect("running job has a start time"),
                    self.cluster.held_by(j.id.owner_tag()),
                )
            })
            .collect();
        scan.sort();
        let walked: Vec<(SimTime, u32)> = self.running_index.iter().collect();
        if scan != walked {
            return Err(format!("running index {walked:?} != scan {scan:?}"));
        }
        let held: u32 = scan.iter().map(|&(_, n)| n).sum();
        if held != self.running_index.total_held() {
            return Err(format!(
                "held-total {} != scanned {held}",
                self.running_index.total_held()
            ));
        }
        // The slot-set timeline (deferred deltas flushed) must equal the
        // running-jobs occupancy profile at every breakpoint of either
        // step function: free-count conservation across plan / unplan /
        // merge and resize re-planning.
        let mut tl = self.timeline.borrow_mut();
        tl.flush();
        tl.slots.validate()?;
        let horizon = tl.slots.horizon();
        let expected_at = |t: SimTime| -> i64 {
            scan.iter()
                .filter(|&&(end, _)| end > t)
                .map(|&(_, n)| i64::from(n))
                .sum()
        };
        let mut probes: Vec<SimTime> = tl.slots.slots().iter().map(|&(b, _)| b).collect();
        probes.extend(scan.iter().map(|&(end, _)| end.max(horizon)));
        for p in probes {
            let got = tl.slots.occupied_at(p);
            let want = expected_at(p.max(horizon));
            if got != want {
                return Err(format!(
                    "timeline occupancy {got} at {p:?} != running profile {want}"
                ));
            }
        }
        drop(tl);
        if self.multi_class() {
            // Per-class bookkeeping: the side map must mirror the actual
            // per-class split of every running job's nodes, the held
            // totals must sum the map, and each class timeline must
            // equal its class's occupancy profile.
            let nclasses = self.cluster.table().num_classes();
            let mut want_held = vec![0u32; nclasses];
            for j in running.iter() {
                let counts = self.cluster.held_class_counts(j.id.owner_tag());
                let recorded = self
                    .class_counts
                    .get(&j.id)
                    .cloned()
                    .unwrap_or_else(|| vec![0; nclasses]);
                if counts != recorded {
                    return Err(format!(
                        "class counts of {:?}: recorded {recorded:?} != held {counts:?}",
                        j.id
                    ));
                }
                for (c, &n) in counts.iter().enumerate() {
                    want_held[c] += n;
                }
            }
            if self.class_counts.len() != running.len() {
                return Err(format!(
                    "class-count map holds {} jobs != {} running",
                    self.class_counts.len(),
                    running.len()
                ));
            }
            if want_held != self.class_held {
                return Err(format!(
                    "class held {:?} != scanned {want_held:?}",
                    self.class_held
                ));
            }
            // Dormant class timelines are empty by design (they rebuild on
            // activation), so their occupancy is only checkable once live.
            let mut tls = if self.class_tl_live {
                self.class_timelines.borrow_mut()
            } else {
                return Ok(());
            };
            for (c, tl) in tls.iter_mut().enumerate() {
                tl.flush();
                tl.slots.validate()?;
                let horizon = tl.slots.horizon();
                let class_scan: Vec<(SimTime, u32)> = running
                    .iter()
                    .map(|j| {
                        (
                            j.expected_end().expect("running job has a start time"),
                            self.class_counts.get(&j.id).map_or(0, |v| v[c]),
                        )
                    })
                    .collect();
                let expected_at = |t: SimTime| -> i64 {
                    class_scan
                        .iter()
                        .filter(|&&(end, _)| end > t)
                        .map(|&(_, n)| i64::from(n))
                        .sum()
                };
                let mut probes: Vec<SimTime> = tl.slots.slots().iter().map(|&(b, _)| b).collect();
                probes.extend(class_scan.iter().map(|&(end, _)| end.max(horizon)));
                for p in probes {
                    let got = tl.slots.occupied_at(p);
                    let want = expected_at(p.max(horizon));
                    if got != want {
                        return Err(format!(
                            "class {c} timeline occupancy {got} at {p:?} != profile {want}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_cluster::Cluster;

    fn slurm(nodes: u32) -> Slurm {
        Slurm::with_cluster(Cluster::new(nodes, 16))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn retention_off_drops_terminal_records_without_changing_scheduling() {
        let mut keep = slurm(8);
        let mut drop = slurm(8);
        drop.config.retain_completed = false;
        for s in [&mut keep, &mut drop] {
            let a = s.submit(JobRequest::rigid("a", 4), t(0));
            let b = s.submit(JobRequest::rigid("b", 8), t(0));
            let started = s.schedule(t(0));
            assert_eq!(started.len(), 1, "a starts, b blocked");
            s.complete(a, t(100));
            let started = s.schedule(t(100));
            assert_eq!(started.len(), 1, "b starts once a's nodes free");
            s.complete(b, t(200));
            // Either way the live views agree.
            assert_eq!(s.running_count(), 0);
            assert_eq!(s.pending_count(), 0);
            let retained = s.config.retain_completed;
            assert_eq!(s.job(a).is_some(), retained);
            assert_eq!(s.job(b).is_some(), retained);
        }
        assert_eq!(keep.jobs().count(), 2);
        assert_eq!(drop.jobs().count(), 0, "terminal records pruned");
    }

    #[test]
    fn fifo_start_in_submission_order() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        let started = s.schedule(t(0));
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].id, a);
        assert_eq!(started[1].id, b);
        assert_eq!(s.cluster().free_nodes(), 2);
    }

    #[test]
    fn blocked_top_job_reserves_and_small_jobs_backfill() {
        let mut s = slurm(10);
        // One long-running hog of 8 nodes.
        let hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        assert_eq!(s.job(hog).unwrap().state, JobState::Running);
        // Big job can't start (needs 6, 2 free); short job behind it can
        // backfill because it ends before the hog releases nodes.
        let big = s.submit(
            JobRequest::rigid("big", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        assert!(s.schedule(t(3)).is_empty(), "FIFO pass must not backfill");
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, small);
        assert_eq!(s.job(big).unwrap().state, JobState::Pending);
    }

    #[test]
    fn backfill_refuses_jobs_that_would_delay_reservation() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(100)),
            t(0),
        );
        s.schedule(t(0));
        let _big = s.submit(
            JobRequest::rigid("big", 10).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        // 2 free; this job fits but runs for 1000 s, past the shadow time
        // (t=100) and the reservation needs all 10 nodes (extra = 0).
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(1000)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert!(started.is_empty(), "{started:?}");
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
    }

    #[test]
    fn no_backfill_means_strict_fifo() {
        let mut s = slurm(10);
        s.config.backfill = false;
        let _hog = s.submit(JobRequest::rigid("hog", 8), t(0));
        s.schedule(t(0));
        let _big = s.submit(JobRequest::rigid("big", 6), t(1));
        let _small = s.submit(JobRequest::rigid("small", 2), t(2));
        assert!(s.schedule(t(3)).is_empty());
        assert!(s.backfill_pass(t(3)).is_empty(), "backfill disabled");
    }

    #[test]
    fn completion_frees_nodes_and_records_times() {
        let mut s = slurm(4);
        let a = s.submit(JobRequest::rigid("a", 4), t(5));
        s.schedule(t(10));
        s.complete(a, t(110));
        let job = s.job(a).unwrap();
        assert_eq!(job.state, JobState::Completed);
        assert_eq!(job.waiting_time(), Some(Span::from_secs(5)));
        assert_eq!(job.execution_time(), Some(Span::from_secs(100)));
        assert_eq!(job.completion_time(), Some(Span::from_secs(105)));
        assert_eq!(s.cluster().free_nodes(), 4);
    }

    #[test]
    fn expand_protocol_walks_all_four_steps() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        s.schedule(t(0));
        let nodes = s.expand_protocol(a, 8, t(50)).unwrap();
        assert_eq!(nodes.len(), 8);
        assert_eq!(s.nodes_of(a), 8);
        assert_eq!(s.job(a).unwrap().requested_nodes, 8);
        assert_eq!(s.job(a).unwrap().reconfigurations, 1);
        // The resizer exists, is cancelled, and holds nothing.
        let rj = s.jobs().find(|j| j.is_resizer()).unwrap();
        assert_eq!(rj.state, JobState::Cancelled);
        assert_eq!(s.nodes_of(rj.id), 0);
        // No node leaked.
        assert_eq!(s.cluster().free_nodes(), 2);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn expand_queues_when_no_free_nodes() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let err = s.expand_protocol(a, 8, t(10)).unwrap_err();
        let ExpandError::Queued { resizer } = err else {
            panic!("expected Queued, got {err:?}");
        };
        assert_eq!(s.job(resizer).unwrap().state, JobState::Pending);
        // When B completes, the resizer starts and the driver can finish.
        s.complete(b, t(20));
        let started = s.schedule(t(20));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, resizer);
        assert_eq!(started[0].resizer_for, Some(a));
        let (orig, nodes) = s.finish_expand(resizer, t(20)).unwrap();
        assert_eq!(orig, a);
        assert_eq!(nodes.len(), 8);
        assert_eq!(s.nodes_of(a), 8);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn queued_resizer_can_be_aborted() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!()
        };
        s.abort_expand(resizer, t(40));
        assert_eq!(s.job(resizer).unwrap().state, JobState::Cancelled);
        assert_eq!(s.nodes_of(a), 4, "original job untouched");
    }

    #[test]
    fn resizer_dies_with_its_parent() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!()
        };
        s.complete(a, t(15));
        let started = s.schedule(t(15));
        assert!(started.is_empty());
        assert_eq!(s.job(resizer).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn shrink_releases_tail_nodes() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 8), t(0));
        s.schedule(t(0));
        let released = s.shrink_protocol(a, 2, t(30)).unwrap();
        assert_eq!(released.len(), 6);
        assert_eq!(s.nodes_of(a), 2);
        assert_eq!(s.job(a).unwrap().requested_nodes, 2);
        assert_eq!(s.cluster().free_nodes(), 8);
        // Shrink to 0 or >= current rejected.
        assert!(s.shrink_protocol(a, 2, t(31)).is_err());
        assert!(s.shrink_protocol(a, 0, t(31)).is_err());
    }

    #[test]
    fn boosted_job_jumps_the_queue() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let first = s.submit(JobRequest::rigid("first", 4), t(1));
        let second = s.submit(JobRequest::rigid("second", 4), t(2));
        s.boost(second);
        s.complete(hog, t(100));
        let started = s.schedule(t(100));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, second);
        assert_eq!(s.job(first).unwrap().state, JobState::Pending);
    }

    #[test]
    fn expand_rejects_bad_targets() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        s.schedule(t(0));
        assert_eq!(
            s.expand_protocol(a, 4, t(1)),
            Err(ExpandError::InvalidTarget { current: 4, to: 4 })
        );
        assert_eq!(
            s.expand_protocol(JobId(999), 8, t(1)),
            Err(ExpandError::UnknownJob(JobId(999)))
        );
        let pending = s.submit(JobRequest::rigid("p", 2), t(1));
        assert_eq!(
            s.expand_protocol(pending, 4, t(1)),
            Err(ExpandError::NotRunning(pending))
        );
    }

    #[test]
    fn cached_pending_order_tracks_mutations_within_one_instant() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let a = s.submit(JobRequest::rigid("a", 2), t(1));
        let b = s.submit(JobRequest::rigid("b", 2), t(2));
        // Two same-instant reads hit the cache and agree — and the hit is
        // allocation-free (the same shared slice comes back).
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        assert!(Arc::ptr_eq(&s.pending_queue(t(5)), &s.pending_queue(t(5))));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        // A boost at the same instant must invalidate, not serve stale.
        s.boost(b);
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, a]);
        // A same-instant submit must appear immediately.
        let c = s.submit(JobRequest::rigid("c", 1), t(5));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, a, c]);
        // A cancellation must disappear immediately.
        s.cancel(a, t(5));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, c]);
        // And a start (via completion freeing the machine) as well.
        s.complete(hog, t(5));
        s.schedule(t(5));
        assert!(s.pending_queue(t(5)).is_empty());
        // Age reorders across instants: the cache must not pin t=5.
        assert!(s.pending_queue(t(6)).is_empty());
    }

    #[test]
    fn pending_queue_excludes_resizers() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 8), t(0));
        s.schedule(t(0));
        let _q = s.submit(JobRequest::rigid("q", 2), t(1));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 16, t(2)).unwrap_err() else {
            panic!()
        };
        let queue = s.pending_queue(t(3));
        assert!(!queue.contains(&resizer));
        assert_eq!(queue.len(), 1);
    }

    fn scan_twin(nodes: u32) -> Slurm {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        cfg.sched_index = SchedIndex::ScanReference;
        Slurm::new(Cluster::new(nodes, 16), cfg)
    }

    #[test]
    fn arena_and_scan_paths_schedule_identically() {
        // Drive an identical mixed op sequence through both hot paths and
        // compare every observable: starts, queue orders, reservations
        // (via backfill behaviour), reaping.
        let mut idx = slurm(16);
        let mut scan = scan_twin(16);
        for s in [&mut idx, &mut scan] {
            for i in 0..6u32 {
                s.submit(
                    JobRequest::rigid(format!("j{i}"), 2 + (i * 3) % 7)
                        .with_expected_runtime(Span::from_secs(100 + (i as u64 * 77) % 400)),
                    t(i as u64),
                );
            }
        }
        let a = idx.schedule(t(10));
        let b = scan.schedule(t(10));
        assert_eq!(a, b);
        assert_eq!(idx.backfill_pass(t(12)), scan.backfill_pass(t(12)));
        // Complete the first started job, expand another, keep comparing.
        let first = a[0].id;
        for s in [&mut idx, &mut scan] {
            s.complete(first, t(50));
        }
        assert_eq!(idx.schedule(t(50)), scan.schedule(t(50)));
        assert_eq!(
            idx.pending_queue(t(60)).to_vec(),
            scan.pending_queue(t(60)).to_vec()
        );
        assert_eq!(idx.backfill_pass(t(60)), scan.backfill_pass(t(60)));
        idx.check_invariants().unwrap();
        scan.check_invariants().unwrap();
    }

    #[test]
    fn nonzero_base_priority_falls_back_to_the_sort() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let plain = s.submit(JobRequest::rigid("plain", 2), t(1));
        let vip = s.submit(
            JobRequest {
                base_priority: 50_000,
                ..JobRequest::rigid("vip", 2)
            },
            t(2),
        );
        // The static (submit, id) key would put `plain` first; the base
        // priority must win, which only the sort path can express.
        assert_eq!(s.pending_queue(t(3)).to_vec(), vec![vip, plain]);
        s.check_invariants().unwrap();
        // Once the high-base job leaves the pending set, the index serves
        // again — and still agrees with a scan twin.
        s.cancel(vip, t(4));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![plain]);
        let _ = hog;
        s.check_invariants().unwrap();
    }

    #[test]
    fn index_served_order_is_shared_across_instants() {
        let mut s = slurm(2);
        s.submit(JobRequest::rigid("hog", 2), t(0));
        s.schedule(t(0));
        s.submit(JobRequest::rigid("a", 1), t(1));
        s.submit(JobRequest::rigid("b", 1), t(2));
        // No mutation between consults at different instants: relative
        // order cannot change (uniform age growth), so the cache entry is
        // reused without recomputation or allocation.
        let q5 = s.pending_queue(t(5));
        let q9 = s.pending_queue(t(9));
        assert!(Arc::ptr_eq(&q5, &q9));
    }

    #[test]
    fn indices_stay_consistent_through_the_expand_protocol() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        s.check_invariants().unwrap();
        // Queued expansion: resizer pending with max priority.
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!("expected queued resizer");
        };
        s.check_invariants().unwrap();
        s.complete(b, t(20));
        s.check_invariants().unwrap();
        let started = s.schedule(t(20));
        assert_eq!(started[0].id, resizer);
        s.finish_expand(resizer, t(20)).unwrap();
        s.check_invariants().unwrap();
        // Shrink re-keys the running index.
        s.shrink_protocol(a, 2, t(30)).unwrap();
        s.check_invariants().unwrap();
        s.complete(a, t(40));
        s.check_invariants().unwrap();
    }

    #[test]
    fn estimate_refresh_rekeys_the_reservation_order() {
        let mut s = slurm(12);
        let long = s.submit(
            JobRequest::rigid("long", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        let short = s.submit(
            JobRequest::rigid("short", 4).with_expected_runtime(Span::from_secs(100)),
            t(0),
        );
        s.schedule(t(0));
        s.check_invariants().unwrap();
        // Swap the estimates: the running index must re-key both entries
        // (check_invariants compares it against a fresh scan).
        s.set_expected_runtime(long, Span::from_secs(50));
        s.set_expected_runtime(short, Span::from_secs(2000));
        s.check_invariants().unwrap();
        // And the reservation built from the re-keyed order still admits
        // a short backfill candidate (2 free now, 10 needed, shadow at
        // short's new end t=2000).
        let _blocked = s.submit(JobRequest::rigid("blocked", 10), t(1));
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1, "small job backfills: {started:?}");
        assert_eq!(started[0].id, small);
    }

    /// A 10-node machine with one 8-node hog until t=1000, then (in
    /// priority order) a blocked 6-node job, a blocked 10-node job, a
    /// *long* 2-node job and a *short* 2-node job. The families disagree
    /// exactly where they should.
    fn family_fixture(family: BackfillFamily) -> (Slurm, [JobId; 4]) {
        let mut s = slurm(10);
        s.config.backfill_family = family;
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(995)),
            t(0),
        );
        s.schedule(t(0));
        let blocked1 = s.submit(
            JobRequest::rigid("blocked1", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let blocked2 = s.submit(
            JobRequest::rigid("blocked2", 10).with_expected_runtime(Span::from_secs(100)),
            t(2),
        );
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(5000)),
            t(3),
        );
        let short_small = s.submit(
            JobRequest::rigid("short-small", 2).with_expected_runtime(Span::from_secs(100)),
            t(4),
        );
        (s, [blocked1, blocked2, long_small, short_small])
    }

    #[test]
    fn easy1_lets_a_long_job_backfill_past_a_deep_blocked_job() {
        // Classic EASY: only blocked1 holds a reservation (shadow t=1000,
        // 4 extra nodes), so the long 2-node job jumps ahead even though
        // it will still be running when blocked2 could have started.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(1));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, long_small);
        assert_eq!(s.job(short_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn easy_k_protects_deeper_reservations() {
        // With two reservations, blocked2 holds the hole after blocked1's
        // plan ([t=1100, t=1200), zero spare), which the 5000 s job would
        // delay — it is refused. The short job ends before every shadow
        // time and still backfills.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(2));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn conservative_plans_every_blocked_job() {
        // Conservative: blocked1 and blocked2 get planned slots, the long
        // job would overlap blocked2's plan (occupancy 10 > cap 8 inside
        // its window) and is only planned for later — the short job fits
        // entirely under the plans and starts.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::Conservative);
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn easy1_and_legacy_reference_schedule_identically() {
        // Twin drive (the `arena_and_scan_paths_schedule_identically`
        // pattern): the slot-set Easy{1} path and the legacy walk must
        // agree on every observable through a mixed op sequence.
        let mut easy = slurm(16);
        let mut legacy = slurm(16);
        legacy.config.backfill_family = BackfillFamily::LegacyReference;
        for s in [&mut easy, &mut legacy] {
            for i in 0..8u32 {
                s.submit(
                    JobRequest::rigid(format!("j{i}"), 2 + (i * 5) % 11)
                        .with_expected_runtime(Span::from_secs(60 + (i as u64 * 131) % 700)),
                    t(i as u64),
                );
            }
        }
        let a = easy.schedule(t(10));
        assert_eq!(a, legacy.schedule(t(10)));
        assert_eq!(easy.backfill_pass(t(12)), legacy.backfill_pass(t(12)));
        let first = a[0].id;
        for s in [&mut easy, &mut legacy] {
            s.complete(first, t(40));
            s.set_expected_runtime(a[1].id, Span::from_secs(2000));
        }
        assert_eq!(easy.backfill_pass(t(45)), legacy.backfill_pass(t(45)));
        assert_eq!(easy.schedule(t(50)), legacy.schedule(t(50)));
        assert_eq!(easy.backfill_pass(t(55)), legacy.backfill_pass(t(55)));
        easy.check_invariants().unwrap();
        legacy.check_invariants().unwrap();
    }

    #[test]
    fn timeline_survives_the_resize_protocol_under_deep_backfill() {
        // Expand / shrink re-plan only the affected job's slots; the
        // timeline must keep mirroring the running profile through the
        // whole §III protocol with deep backfill families querying it.
        for family in [BackfillFamily::easy(2), BackfillFamily::Conservative] {
            let mut s = slurm(10);
            s.config.backfill_family = family;
            let a = s.submit(
                JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(500)),
                t(0),
            );
            let b = s.submit(
                JobRequest::rigid("b", 4).with_expected_runtime(Span::from_secs(300)),
                t(0),
            );
            s.schedule(t(0));
            let _queued = s.submit(JobRequest::rigid("q", 8), t(1));
            let tiny = s.submit(
                JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(10)),
                t(2),
            );
            s.backfill_pass(t(3));
            s.check_invariants().unwrap();
            // Both families backfill `tiny` (harmless before every plan);
            // release its node so the expansion can complete synchronously.
            s.complete(tiny, t(8));
            s.expand_protocol(a, 6, t(10)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(12));
            s.check_invariants().unwrap();
            s.shrink_protocol(a, 2, t(20)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(25));
            s.check_invariants().unwrap();
            s.complete(b, t(30));
            s.complete(a, t(40));
            s.backfill_pass(t(45));
            s.check_invariants().unwrap();
        }
    }

    /// Twin schedulers — incremental on vs off — driven through the same
    /// operation sequence must make bit-identical decisions at every
    /// pass, while the incremental twin actually elides some of them.
    #[test]
    fn incremental_twin_matches_costed_baseline() {
        twin_run(BackfillFamily::easy(1));
        twin_run(BackfillFamily::Conservative);
    }

    fn twin_run(family: BackfillFamily) {
        let mut on = slurm(10);
        let mut off = slurm(10);
        off.config.sched_incremental = SchedIncremental::Off;
        on.config.backfill_family = family;
        off.config.backfill_family = family;
        let mut ids = Vec::new();
        for s in [&mut on, &mut off] {
            ids.clear();
            let r1 = s.submit(
                JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
                t(0),
            );
            let r2 = s.submit(
                JobRequest::rigid("r2", 4).with_expected_runtime(Span::from_secs(500)),
                t(0),
            );
            ids.push(r1);
            ids.push(r2);
        }
        for step in 0..40u64 {
            let now = t(10 + step * 5);
            let (a, b) = (on.schedule(now), off.schedule(now));
            assert_eq!(a, b, "schedule diverged at {now:?}");
            if step % 3 == 0 {
                let (a, b) = (on.backfill_pass(now), off.backfill_pass(now));
                assert_eq!(a, b, "backfill diverged at {now:?}");
            }
            match step {
                5 => {
                    for s in [&mut on, &mut off] {
                        s.submit(
                            JobRequest::rigid("big", 9).with_expected_runtime(Span::from_secs(200)),
                            now,
                        );
                    }
                }
                11 => {
                    on.complete(ids[1], now);
                    off.complete(ids[1], now);
                }
                17 => {
                    for s in [&mut on, &mut off] {
                        s.submit(
                            JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(30)),
                            now,
                        );
                    }
                }
                _ => {}
            }
            on.check_invariants().unwrap();
        }
        let stats = on.incremental_stats();
        assert!(
            stats.sched_passes_elided > 0,
            "no schedule pass elided: {stats:?}"
        );
        assert!(
            stats.backfill_passes_elided > 0,
            "no backfill pass elided: {stats:?}"
        );
        let stats = off.incremental_stats();
        assert_eq!(stats.sched_passes_elided, 0, "Off must never elide");
        assert_eq!(stats.backfill_passes_elided, 0, "Off must never elide");
        let on_jobs: Vec<_> = on
            .jobs()
            .map(|j| (j.name.clone(), j.state, j.start_time, j.end_time))
            .collect();
        let off_jobs: Vec<_> = off
            .jobs()
            .map(|j| (j.name.clone(), j.state, j.start_time, j.end_time))
            .collect();
        assert_eq!(on_jobs, off_jobs);
    }

    /// Regression: a job submitted below a live memo's watermark must
    /// lower the watermark, or a completion freeing enough nodes for the
    /// new job (but not for the old refusals) would keep the memo and
    /// unsoundly elide the pass that should backfill it.
    #[test]
    fn submit_below_watermark_lowers_it() {
        let mut s = slurm(10);
        let _r1 = s.submit(
            JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        let r2 = s.submit(
            JobRequest::rigid("r2", 4).with_expected_runtime(Span::from_secs(500)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 2);
        s.submit(
            JobRequest::rigid("big", 8).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        s.schedule(t(1));
        assert!(s.backfill_pass(t(1)).is_empty(), "big cannot start");
        let small = s.submit(
            JobRequest::rigid("small", 3).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        // Frees 4 nodes: enough for `small` (3), not for `big` (8). The
        // memo recorded watermark 8 at the pass; without the lowering
        // rule this completion would keep it and elide the next pass.
        s.complete(r2, t(3));
        let started = s.backfill_pass(t(3));
        assert_eq!(
            started.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![small],
            "small must backfill into the freed nodes"
        );
        assert_eq!(s.job(small).unwrap().state, JobState::Running);
    }

    /// The retained-plan accessors expose exactly what the live memo
    /// holds: EASY reservations under the Easy family, planned slots
    /// under Conservative, and nothing once the memo is invalidated.
    #[test]
    fn retained_plan_accessors_track_the_live_memo() {
        let mut s = slurm(10);
        let r1 = s.submit(
            JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        let big = s.submit(
            JobRequest::rigid("big", 8).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        s.schedule(t(1));
        assert!(s.easy_reservations().is_none(), "no pass run yet");
        assert!(s.backfill_pass(t(1)).is_empty());
        let res = s.easy_reservations().expect("fruitless EASY pass memoised");
        assert_eq!(res.len(), 1, "one blocked job, one reservation");
        assert_eq!(res[0].0, t(1000), "shadow = r1's expected end");
        assert!(s.conservative_plan().is_none(), "family is Easy");
        // Any capacity event that can change the pass drops the memo.
        s.complete(r1, t(2));
        assert!(s.easy_reservations().is_none());

        let mut s = slurm(10);
        s.config.backfill_family = BackfillFamily::Conservative;
        let _r1 = s.submit(
            JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        let big2 = s.submit(
            JobRequest::rigid("big", 8).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        s.schedule(t(1));
        assert!(s.backfill_pass(t(1)).is_empty());
        let plan = s.conservative_plan().expect("fruitless pass memoised");
        assert_eq!(plan, &[(big2, t(1000))], "big planned at r1's end");
        assert!(s.easy_reservations().is_none(), "family is Conservative");
        let _ = big;
        // A fitting submission invalidates the memo outright.
        s.submit(JobRequest::rigid("fits", 2), t(5));
        assert!(s.conservative_plan().is_none());
    }

    /// A fruitless conservative pass that refused a fitting job stays
    /// valid over the quiet ticks before its earliest planned start, and
    /// expires exactly there.
    ///
    /// 10 nodes: `a` (4 nodes, expected end 1000) and `b` (4 nodes,
    /// expected end 1050) run and neither ever completes, so both overrun.
    /// `head` (6 nodes) cannot fit in the 2 free nodes and is planned at
    /// 1000, where the timeline frees `a`'s nodes. `tail` (2 nodes) fits
    /// now, but its window crosses `head`'s plan while `b` still runs
    /// (occupancy 10 > cap 8), so its earliest hole is 1050. The first
    /// tick at or after 1000 must run; `tail` starts at 1050 with no
    /// mutation at all, once `b`'s estimate has passed too. (A refused
    /// fitting job's hole always lies strictly after the earliest planned
    /// start, since its blocker is a plan.)
    #[test]
    fn conservative_memo_expires_at_the_earliest_planned_start() {
        let mk = |incremental: SchedIncremental| {
            let mut s = slurm(10);
            s.config.backfill_family = BackfillFamily::Conservative;
            s.config.sched_incremental = incremental;
            for (name, end) in [("a", 1000), ("b", 1050)] {
                s.submit(
                    JobRequest::rigid(name, 4).with_expected_runtime(Span::from_secs(end)),
                    t(0),
                );
            }
            assert_eq!(s.schedule(t(0)).len(), 2);
            let head = s.submit(
                JobRequest::rigid("head", 6).with_expected_runtime(Span::from_secs(100)),
                t(1),
            );
            let tail = s.submit(
                JobRequest::rigid("tail", 2).with_expected_runtime(Span::from_secs(5000)),
                t(2),
            );
            (s, head, tail)
        };
        let (mut on, head, tail) = mk(SchedIncremental::On);
        let (mut off, _, _) = mk(SchedIncremental::Off);
        let tick = |on: &mut Slurm, off: &mut Slurm, now: SimTime| {
            let before = on.incremental_stats();
            let started = on.backfill_pass(now);
            assert_eq!(started, off.backfill_pass(now), "twins diverged at {now:?}");
            let after = on.incremental_stats();
            on.check_invariants().unwrap();
            let elided = after.backfill_passes_elided > before.backfill_passes_elided;
            (started, elided)
        };
        let (started, elided) = tick(&mut on, &mut off, t(10));
        assert!(started.is_empty() && !elided);
        assert_eq!(
            on.conservative_plan().unwrap(),
            &[(head, t(1000)), (tail, t(1050))]
        );
        // Quiet ticks before the earliest planned start: elided.
        for now in [t(500), SimTime(t(1000).0 - 1)] {
            let (started, elided) = tick(&mut on, &mut off, now);
            assert!(started.is_empty(), "nothing starts at {now:?}");
            assert!(elided, "tick at {now:?} must reuse the memo");
        }
        // The earliest planned start itself is past the memo.
        let (started, elided) = tick(&mut on, &mut off, t(1000));
        assert!(started.is_empty() && !elided, "tick at 1000 must run");
        // `head`'s hole is now the clock: the new memo lasts one instant.
        let (started, elided) = tick(&mut on, &mut off, SimTime(t(1050).0 - 1));
        assert!(started.is_empty() && !elided);
        let (started, elided) = tick(&mut on, &mut off, t(1050));
        assert!(!elided, "tick at 1050 must run");
        assert_eq!(started.iter().map(|j| j.id).collect::<Vec<_>>(), vec![tail]);
        assert_eq!(on.job(head).unwrap().state, JobState::Pending);
        assert_eq!(off.incremental_stats().backfill_passes_elided, 0);
    }

    /// Same-instant duplicate reap scans are skipped under incremental
    /// scheduling: `schedule` + `backfill_pass` at one instant perform
    /// one scan, and decisions are unchanged.
    #[test]
    fn same_instant_reap_is_memoised() {
        let mut s = slurm(10);
        let a = s.submit(
            JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(300)),
            t(0),
        );
        s.schedule(t(0));
        s.expand_protocol(a, 6, t(1)).unwrap();
        s.check_invariants().unwrap();
        // schedule() reaps, then backfill_pass() at the same instant
        // reuses the memo instead of rescanning.
        s.schedule(t(2));
        s.backfill_pass(t(2));
        s.check_invariants().unwrap();
        // The memo never crosses an instant: a later pass re-scans.
        s.schedule(t(40));
        s.check_invariants().unwrap();
    }
}
