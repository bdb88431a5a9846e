//! The three workloads: how each trace is generated from the seed, which
//! experiment configuration replays it, and the shape property that
//! keeps each workload what it claims to be.
//!
//! Every trace is a `repro --gen-swf` Feitelson FS job stream rendered to
//! SWF text in memory; the driver only ever sees that text, parsed by
//! `dmr_workload::SwfTrace` during the replay.

use std::io::Write;

use dmr_core::{ExperimentConfig, FaultLoad, MachineMix, PolicyKind, WorkloadKind};
use dmr_workload::{Capped, GpuShare, SwfMapping, SwfTrace, WorkloadSource};

/// Simulated machine size of every workload.
pub const NODES: u32 = 64;

/// Fixed inter-submit gap of the `steady` trace, seconds (the spacing of
/// the long-trace streaming smoke).
const STEADY_SPACING_S: f64 = 90.0;

/// GPU-tagged jobs per thousand in `deep-mixed`.
const GPU_PERMILLE: u32 = 250;

/// Checkpoint interval of `deep-mixed`, seconds.
const CKPT_INTERVAL_S: f64 = 600.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Feitelson arrivals as generated: the queue grows with the trace.
    DeepEasy,
    /// The same jobs re-spaced at a fixed gap: the queue stays shallow.
    Steady,
    /// The deep stream on three machine classes with GPU-tagged jobs,
    /// the energy-aware policy, conservative backfill and rare faults.
    DeepMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "deep-easy" => Some(Workload::DeepEasy),
            "steady" => Some(Workload::Steady),
            "deep-mixed" => Some(Workload::DeepMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepEasy => "deep-easy",
            Workload::Steady => "steady",
            Workload::DeepMixed => "deep-mixed",
        }
    }

    /// Jobs per generated trace.
    pub fn jobs(self) -> u32 {
        match self {
            Workload::DeepEasy => 4_000,
            Workload::Steady => 40_000,
            Workload::DeepMixed => 1_500,
        }
    }

    /// Traces in one run's pool. Each pool trace has its own sub-seed of
    /// the run's seed; end-to-end figures average over the pool, which
    /// keeps one unusual trace from swinging a run.
    pub fn pool(self) -> usize {
        match self {
            Workload::DeepEasy => 12,
            Workload::Steady => 10,
            Workload::DeepMixed => 6,
        }
    }

    /// The flexible configuration; the fixed one is its `as_fixed()`.
    pub fn config(self, trace_seed: u64) -> ExperimentConfig {
        let base = ExperimentConfig::preliminary().with_nodes(NODES).online();
        match self {
            Workload::DeepEasy | Workload::Steady => base,
            Workload::DeepMixed => base
                .with_machine_mix(MachineMix::Hetero3)
                .with_policy(PolicyKind::energy_aware())
                .conservative_backfill()
                .with_faults(FaultLoad::Rare)
                .with_fault_seed(trace_seed)
                .with_ckpt_interval(CKPT_INTERVAL_S),
        }
    }

    /// Renders pool trace `seed` as SWF text, the way `repro --gen-swf`
    /// writes it (with `--spacing 90` for `steady`).
    pub fn swf(self, seed: u64) -> Vec<u8> {
        let spacing = (self == Workload::Steady).then_some(STEADY_SPACING_S);
        gen_swf(self.jobs(), seed, spacing)
    }

    /// A fresh job source over `swf` — GPU-tagged for `deep-mixed`.
    pub fn source(self, swf: &[u8]) -> Box<dyn WorkloadSource + '_> {
        self.prefix_source(swf, u32::MAX)
    }

    /// [`Workload::source`] cut after its first `jobs` jobs.
    pub fn prefix_source(self, swf: &[u8], jobs: u32) -> Box<dyn WorkloadSource + '_> {
        let trace = Capped::new(SwfTrace::from_reader(swf, SwfMapping::default()), jobs);
        match self {
            Workload::DeepMixed => Box::new(GpuShare::new(trace, GPU_PERMILLE)),
            _ => Box::new(trace),
        }
    }

    /// Checks the workload's defining property on what one traced run
    /// observed; `Err` names what is off.
    pub fn check_shape(self, shape: &Shape) -> Result<(), String> {
        match self {
            Workload::DeepEasy | Workload::DeepMixed if shape.pending_peak < 1_000 => Err(format!(
                "pending peak {} is not in the thousands",
                shape.pending_peak
            )),
            Workload::Steady if shape.pending_peak > 48 => Err(format!(
                "pending peak {} is above a few dozen",
                shape.pending_peak
            )),
            Workload::DeepMixed if shape.node_failures == 0 => {
                Err("no node failure was injected".into())
            }
            Workload::DeepMixed if shape.gpu_jobs == 0 => {
                Err("no GPU-constrained job was placed".into())
            }
            _ => Ok(()),
        }
    }
}

/// What the shape guard looks at.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shape {
    /// Deepest pending queue the replay reached.
    pub pending_peak: u64,
    /// Injected node failures that hit the machine.
    pub node_failures: u64,
    /// GPU-tagged jobs the source handed to the driver.
    pub gpu_jobs: u64,
}

/// The benchmark's copy of `repro --gen-swf`: `jobs` Feitelson FS records
/// in the 18-field SWF layout, arrivals as generated or at a fixed gap.
fn gen_swf(jobs: u32, seed: u64, spacing: Option<f64>) -> Vec<u8> {
    let mut source = WorkloadKind::FsPreliminary.build(jobs, seed);
    let mut out = Vec::with_capacity(jobs as usize * 64);
    writeln!(out, "; Synthetic SWF trace: {jobs} jobs, seed {seed}").expect("in-memory write");
    let mut id = 0u64;
    while let Some(job) = source.next_job() {
        let submit = match spacing {
            Some(s) => id as f64 * s,
            None => job.arrival_s,
        };
        id += 1;
        let runtime = job.steps as f64 * job.step_s;
        writeln!(
            out,
            "{} {:.0} -1 {:.0} {} -1 -1 {} {:.0} -1 1 -1 -1 -1 -1 -1 -1 -1",
            id,
            submit,
            runtime.max(1.0),
            job.submit_procs,
            job.submit_procs,
            job.walltime_s.max(1.0),
        )
        .expect("in-memory write");
    }
    out
}

/// Sub-seed of pool trace `i` for run seed `seed`.
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}
