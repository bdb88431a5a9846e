//! The traced pass: timing wrappers around the public `WorkloadSource`
//! and `MetricsSink` traits, handed to `dmr_core::run_experiment_with_sink`.
//! Everything the per-layer metrics of `dmr-workload`, `dmr-metrics` and
//! `dmr-core` report is measured here, from outside the driver.

use std::cell::Cell;
use std::time::{Duration, Instant};

use dmr_core::{run_experiment_with_sink, ExperimentConfig, RunStats, WorkloadSource};
use dmr_metrics::{JobOutcome, MetricsSink, OnlineAccumulator, WorkloadSummary};
use dmr_sim::SimTime;
use dmr_workload::JobSpec;

use crate::stats::pending_depth;

/// State both wrappers share: jobs pulled so far, and the host time
/// spent inside either wrapper (so the sink can take it out of the gap
/// between two samples).
#[derive(Default)]
struct Shared {
    pulled: Cell<u64>,
    outside: Cell<Duration>,
}

struct TimedSource<'a> {
    inner: Box<dyn WorkloadSource + 'a>,
    shared: &'a Shared,
    calls: u64,
    busy: Duration,
    gpu_jobs: u64,
}

impl WorkloadSource for TimedSource<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        let dt = t0.elapsed();
        self.calls += 1;
        self.busy += dt;
        self.shared.outside.set(self.shared.outside.get() + dt);
        if let Some(j) = &job {
            self.shared.pulled.set(self.shared.pulled.get() + 1);
            self.gpu_jobs += u64::from(j.gpu);
        }
        job
    }
}

struct TimedSink<'a> {
    inner: OnlineAccumulator,
    shared: &'a Shared,
    sample_calls: u64,
    sample_busy: Duration,
    job_busy: Duration,
    /// When the previous `on_sample` returned, and the shared outside
    /// time at that moment.
    last_exit: Option<(Instant, Duration)>,
    /// Pending depth after the previous event: the queue the next event
    /// starts from.
    depth: u64,
    depth_peak: u64,
    depth_sum: u128,
    running_sum: f64,
    event_us: Vec<f32>,
    event_depth: Vec<u32>,
}

impl MetricsSink for TimedSink<'_> {
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64) {
        let t0 = Instant::now();
        if let Some((exit, outside)) = self.last_exit {
            // Host time of one handled event, less the wrappers' share.
            let spent = (t0 - exit).saturating_sub(self.shared.outside.get() - outside);
            self.event_us.push(spent.as_secs_f32() * 1e6);
            self.event_depth
                .push(u32::try_from(self.depth).unwrap_or(u32::MAX));
        }
        self.depth = pending_depth(self.shared.pulled.get(), running as u64, completed as u64);
        self.depth_peak = self.depth_peak.max(self.depth);
        self.depth_sum += u128::from(self.depth);
        self.running_sum += running;
        self.inner.on_sample(now, allocated, running, completed);
        self.sample_calls += 1;
        let t1 = Instant::now();
        let dt = t1 - t0;
        self.sample_busy += dt;
        let outside = self.shared.outside.get() + dt;
        self.shared.outside.set(outside);
        self.last_exit = Some((t1, outside));
    }

    fn on_job(&mut self, seq: u64, outcome: JobOutcome) {
        let t0 = Instant::now();
        self.inner.on_job(seq, outcome);
        let dt = t0.elapsed();
        self.job_busy += dt;
        self.shared.outside.set(self.shared.outside.get() + dt);
    }
}

/// What one traced replay measured.
pub struct Traced {
    pub wall_s: f64,
    pub stats: RunStats,
    pub summary: WorkloadSummary,
    pub next_job_calls: u64,
    pub next_job_busy_s: f64,
    pub gpu_jobs: u64,
    pub on_sample_calls: u64,
    pub on_sample_busy_s: f64,
    pub on_job_busy_s: f64,
    pub pending_peak: u64,
    pub pending_mean: f64,
    /// Running jobs, averaged over events.
    pub running_mean: f64,
    /// Host µs of each handled event (wrapper time excluded).
    pub event_us: Vec<f32>,
    /// Pending depth each event started from.
    pub event_depth: Vec<u32>,
}

impl Traced {
    /// Driver time: traced wall time minus the time inside the wrappers.
    pub fn core_self_s(&self) -> f64 {
        self.wall_s - self.next_job_busy_s - self.on_sample_busy_s - self.on_job_busy_s
    }
}

/// Replays `source` under `cfg` through the timing wrappers.
pub fn traced_replay(cfg: &ExperimentConfig, source: Box<dyn WorkloadSource + '_>) -> Traced {
    let shared = Shared::default();
    let mut src = TimedSource {
        inner: source,
        shared: &shared,
        calls: 0,
        busy: Duration::ZERO,
        gpu_jobs: 0,
    };
    let mut sink = TimedSink {
        inner: OnlineAccumulator::new(),
        shared: &shared,
        sample_calls: 0,
        sample_busy: Duration::ZERO,
        job_busy: Duration::ZERO,
        last_exit: None,
        depth: 0,
        depth_peak: 0,
        depth_sum: 0,
        running_sum: 0.0,
        event_us: Vec::new(),
        event_depth: Vec::new(),
    };
    let t0 = Instant::now();
    let stats = run_experiment_with_sink(cfg, &mut src, &mut sink);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut summary = sink.inner.summary(cfg.nodes);
    patch_summary(&mut summary, &stats);
    Traced {
        wall_s,
        stats,
        summary,
        next_job_calls: src.calls,
        next_job_busy_s: src.busy.as_secs_f64(),
        gpu_jobs: src.gpu_jobs,
        on_sample_calls: sink.sample_calls,
        on_sample_busy_s: sink.sample_busy.as_secs_f64(),
        on_job_busy_s: sink.job_busy.as_secs_f64(),
        pending_peak: sink.depth_peak,
        pending_mean: sink.depth_sum as f64 / sink.sample_calls.max(1) as f64,
        running_mean: sink.running_sum / sink.sample_calls.max(1) as f64,
        event_us: sink.event_us,
        event_depth: sink.event_depth,
    }
}

/// Folds the driver-side scalars into a sink-built summary exactly as
/// `run_experiment_streaming` does, so the two can be compared bit for
/// bit.
fn patch_summary(summary: &mut WorkloadSummary, stats: &RunStats) {
    summary.energy_to_solution_j = stats.power.energy_j;
    summary.avg_watts = stats.power.avg_watts;
    summary.class_utilization = stats.power.class_utilization().to_vec();
    summary.failures = stats.faults.failures;
    summary.requeues = stats.faults.requeues;
    summary.lost_work_s = stats.faults.lost_work_s;
    summary.restart_p95_s = stats.faults.restart_p95_s;
    let exec = summary.avg_execution_s * summary.jobs as f64;
    summary.goodput_ratio = if exec > 0.0 {
        exec / (exec + stats.faults.lost_work_s)
    } else {
        1.0
    };
}

/// Every field of a summary as raw bits (f64s via `to_bits`), equal iff
/// the summaries are bit-identical.
pub fn summary_bits(s: &WorkloadSummary) -> Vec<u64> {
    let mut bits: Vec<u64> = [
        s.makespan_s,
        s.utilization,
        s.avg_waiting_s,
        s.avg_execution_s,
        s.avg_completion_s,
        s.waiting_q.p50_s,
        s.waiting_q.p95_s,
        s.waiting_q.p99_s,
        s.execution_q.p50_s,
        s.execution_q.p95_s,
        s.execution_q.p99_s,
        s.completion_q.p50_s,
        s.completion_q.p95_s,
        s.completion_q.p99_s,
        s.energy_to_solution_j,
        s.avg_watts,
        s.lost_work_s,
        s.goodput_ratio,
        s.restart_p95_s,
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect();
    bits.extend(s.class_utilization.iter().map(|v| v.to_bits()));
    bits.extend([
        s.jobs as u64,
        u64::from(s.reconfigurations),
        s.failures,
        s.requeues,
    ]);
    bits
}
