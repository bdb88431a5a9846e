//! Layer probes for the layers the driver calls but the wrappers cannot
//! see: `dmr-slurm`, `dmr-sim` and `dmr-cluster`. Each probe builds the
//! layer's public state from the workload's own jobs — at a depth or
//! size the traced replay observed — and times calls into its public
//! functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dmr_cluster::{ClassConstraint, Cluster};
use dmr_core::ExperimentConfig;
use dmr_sim::{Engine, QueueKind, SimTime, Span};
use dmr_slurm::{JobId, JobRequest, ResizeEnvelope, Slurm, SlurmConfig};
use dmr_workload::JobSpec;

use crate::stats::median;

/// Host-time budget of one probe: it stops at this or at its call
/// count, whichever comes first.
const PROBE_BUDGET: Duration = Duration::from_millis(400);

/// Median µs per call of each scheduler entry point the driver uses,
/// plus the scheduler's own pass-elision share.
pub struct SlurmProbe {
    pub submit_us: f64,
    pub schedule_us: f64,
    pub backfill_pass_us: f64,
    pub decide_resize_us: f64,
    pub complete_us: f64,
    pub passes_elided_ratio: f64,
}

/// The scheduler the driver would build for `cfg`.
fn scheduler(cfg: &ExperimentConfig) -> Slurm {
    let cluster = Cluster::with_classes(cfg.machine_mix.table(cfg.nodes, cfg.cores_per_node));
    let mut scfg = SlurmConfig::for_cluster(cfg.nodes);
    scfg.backfill = cfg.backfill;
    scfg.backfill_family = cfg.backfill_family;
    scfg.resizer_timeout = Span::from_secs_f64(cfg.resizer_timeout_s);
    scfg.shrink_boost = cfg.shrink_boost;
    scfg.policy = cfg.policy;
    scfg.sched_index = cfg.sched_index;
    scfg.sched_incremental = cfg.sched_incremental;
    scfg.hole_guard = cfg.hole_guard;
    scfg.retain_completed = false;
    Slurm::new(cluster, scfg)
}

/// The request the driver submits for `spec`: GPU tags become a class
/// constraint where the machine has GPUs, sizes are clamped to the
/// eligible capacity, and the estimate is the walltime.
fn request(slurm: &Slurm, spec: &JobSpec, malleable: bool) -> JobRequest {
    let table = slurm.cluster().table();
    let constraint = if spec.gpu && table.has_gpu_class() {
        ClassConstraint::GpuRequired
    } else {
        ClassConstraint::Any
    };
    let capacity = slurm.cluster().total_nodes().min(
        (0..table.num_classes())
            .filter(|&c| constraint.allows(c, table.class(c)))
            .map(|c| table.class_nodes(c))
            .sum(),
    );
    let procs = spec.submit_procs.min(capacity);
    let name = format!("probe-{}", spec.index);
    let req = if malleable && spec.flexible {
        JobRequest::flexible(
            name,
            procs,
            ResizeEnvelope {
                min: spec.malleability.min_procs.min(procs),
                max: spec.malleability.max_procs.min(capacity),
                preferred: spec.malleability.preferred,
                factor: spec.malleability.factor.max(2),
            },
        )
    } else {
        JobRequest::rigid(name, procs)
    };
    req.with_expected_runtime(Span::from_secs_f64(spec.walltime_s))
        .with_constraint(constraint)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Fills the machine from `jobs`, queues `depth` more behind it, then
/// runs churn cycles — one completion, a scheduling pass, a backfill
/// pass, one resize decision for a running job, and enough submissions
/// to restore the depth — timing every call.
pub fn slurm_probe(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    depth: usize,
    cycles: usize,
) -> SlurmProbe {
    let mut s = scheduler(cfg);
    let malleable = cfg.malleability;
    let mut next = 0usize;
    let mut take = |s: &Slurm| {
        let spec = &jobs[next % jobs.len()];
        next += 1;
        request(s, spec, malleable)
    };
    let mut now = SimTime::ZERO;
    let mut running: std::collections::VecDeque<JobId> = Default::default();
    while s.pending_count() == 0 {
        let req = take(&s);
        s.submit(req, now);
        running.extend(s.schedule(now).into_iter().map(|st| st.id));
    }
    while s.pending_count() < depth {
        let req = take(&s);
        s.submit(req, now);
    }
    let base = s.incremental_stats();

    let (mut submit, mut schedule, mut backfill, mut decide, mut complete) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    for c in 0..cycles {
        if c > 0 && t_start.elapsed() > PROBE_BUDGET {
            break;
        }
        now += Span::from_secs(1);
        if let Some(done) = running.pop_front() {
            let t = Instant::now();
            s.complete(done, now);
            complete.push(us(t.elapsed()));
        }
        let t = Instant::now();
        let started = s.schedule(now);
        schedule.push(us(t.elapsed()));
        running.extend(started.into_iter().map(|st| st.id));
        let t = Instant::now();
        let started = s.backfill_pass(now);
        backfill.push(us(t.elapsed()));
        running.extend(started.into_iter().map(|st| st.id));
        if !running.is_empty() {
            let id = running[c % running.len()];
            let t = Instant::now();
            black_box(s.decide_resize(id, now));
            decide.push(us(t.elapsed()));
        }
        while s.pending_count() < depth {
            let req = take(&s);
            let t = Instant::now();
            black_box(s.submit(req, now));
            submit.push(us(t.elapsed()));
        }
    }
    let st = s.incremental_stats();
    let elided = (st.sched_passes_elided - base.sched_passes_elided)
        + (st.backfill_passes_elided - base.backfill_passes_elided);
    let run = (st.sched_passes_run - base.sched_passes_run)
        + (st.backfill_passes_run - base.backfill_passes_run);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    SlurmProbe {
        submit_us: med(&submit),
        schedule_us: med(&schedule),
        backfill_pass_us: med(&backfill),
        decide_resize_us: med(&decide),
        complete_us: med(&complete),
        passes_elided_ratio: elided as f64 / (elided + run).max(1) as f64,
    }
}

/// Median ns per `schedule_at` and per `next_event` on the driver's
/// event-queue backend holding `live` events, with delays drawn from the
/// workload's own step lengths. A hold model: each batch of pops is
/// matched by a batch of pushes, so the queue swings between `live` and
/// `live + BATCH` events.
pub fn sim_probe(jobs: &[JobSpec], live: usize) -> (f64, f64) {
    const BATCH: usize = 16;
    let delays: Vec<Span> = jobs
        .iter()
        .map(|j| Span::from_secs_f64(j.step_s.max(1e-3)))
        .collect();
    let mut engine: Engine<u64> = Engine::with_queue_kind(QueueKind::TimerWheel);
    for i in 0..live + BATCH {
        engine.schedule_at(SimTime::ZERO + delays[i % delays.len()], i as u64);
    }
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    let mut k = 0usize;
    let t_start = Instant::now();
    while push_ns.len() < 20_000 && (push_ns.is_empty() || t_start.elapsed() < PROBE_BUDGET) {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(engine.next_event());
        }
        pop_ns.push(t.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
        let now = engine.now();
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(engine.schedule_at(now + delays[k % delays.len()], k as u64));
            k += 1;
        }
        push_ns.push(t.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    (median(&push_ns), median(&pop_ns))
}

/// Median ns per `allocate_in` and per `release_all` on the workload's
/// machine mix, half-occupied by long-running jobs, placing and freeing
/// the workload's own jobs (class constraints included) in batches.
pub fn cluster_probe(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> (f64, f64) {
    const BATCH: usize = 16;
    let mut cluster = Cluster::with_classes(cfg.machine_mix.table(cfg.nodes, cfg.cores_per_node));
    let has_gpu = cluster.table().has_gpu_class();
    let constraint = |j: &JobSpec| {
        if j.gpu && has_gpu {
            ClassConstraint::GpuRequired
        } else {
            ClassConstraint::Any
        }
    };
    let mut owner = 1u64;
    let mut i = 0usize;
    while cluster.free_nodes() > cfg.nodes / 2 {
        let j = &jobs[i % jobs.len()];
        i += 1;
        let n = j
            .submit_procs
            .min(cluster.free_nodes() - cfg.nodes / 2)
            .max(1);
        if cluster.allocate_in(n, owner, constraint(j)).is_ok() {
            owner += 1;
        }
    }
    let (mut alloc_ns, mut release_ns) = (Vec::new(), Vec::new());
    let mut held = Vec::with_capacity(BATCH);
    let t_start = Instant::now();
    while alloc_ns.len() < 2_000 && (alloc_ns.is_empty() || t_start.elapsed() < PROBE_BUDGET) {
        let mut batch = Duration::ZERO;
        while held.len() < BATCH {
            let j = &jobs[i % jobs.len()];
            i += 1;
            let c = constraint(j);
            let n = j.submit_procs.min(cluster.free_nodes_in(c));
            if n == 0 {
                if held.is_empty() {
                    continue;
                }
                break;
            }
            let t = Instant::now();
            let r = cluster.allocate_in(n, owner, c);
            batch += t.elapsed();
            if r.is_ok() {
                held.push(owner);
                owner += 1;
            }
        }
        alloc_ns.push(batch.as_secs_f64() * 1e9 / held.len() as f64);
        let count = held.len();
        let t = Instant::now();
        for o in held.drain(..) {
            black_box(cluster.release_all(o).ok());
        }
        release_ns.push(t.elapsed().as_secs_f64() * 1e9 / count as f64);
    }
    (median(&alloc_ns), median(&release_ns))
}
