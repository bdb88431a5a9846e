//! Whole-replay benchmark for the DMR simulator.
//!
//! ```text
//! replaybench --workload deep-easy|steady|deep-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates a pool of SWF traces from the seed, replays each fixed then
//! flexible through `dmr_core::run_experiment_streaming` on one thread
//! until `S` seconds have passed, checks every output, and prints each
//! metric with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced pass
//! instead and reports the per-layer ones. See `README.md`.

mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use dmr_core::{run_experiment_streaming, ExperimentConfig, ExperimentResult};
use dmr_workload::{source::collect_jobs, JobSpec};

use stats::{mean, median, percentile, slope_per_kpending, unit_of};
use trace::{summary_bits, traced_replay, Traced};
use workloads::{trace_seed, Shape, Workload};

/// Set-up is timed at least `SETUP_REPEATS.0` times, and again until
/// `SETUP_MIN_S` seconds are spent or `SETUP_REPEATS.1` is reached;
/// `setup_s` is the median. A short set-up thus gets more samples.
const SETUP_REPEATS: (usize, usize) = (5, 50);
const SETUP_MIN_S: f64 = 0.5;

/// Jobs in the prefix replayed under both telemetry modes.
const PREFIX_JOBS: u32 = 500;

/// Scheduler-probe churn cycles per depth.
const PROBE_CYCLES: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Checks, counts and metrics of one run, printed at the end.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// A replay attempted `jobs` jobs; the ones it did not complete fail.
    fn replay(&mut self, jobs: u32, r: &ExperimentResult, label: &str) {
        self.attempted += u64::from(jobs);
        let done = r.summary.jobs as u64;
        self.failed += u64::from(jobs).saturating_sub(done);
        if done != u64::from(jobs) {
            eprintln!("check failed: {label} completed {done} of {jobs} jobs");
        }
        self.check(r.past_schedules == 0, || {
            format!("{label} scheduled {} events in the past", r.past_schedules)
        });
    }

    fn metric(&mut self, name: &str, value: f64) {
        let finite = value.is_finite();
        self.check(finite, || format!("{name} is not a finite number"));
        self.metrics
            .push((name.to_string(), if finite { value } else { 0.0 }));
    }

    fn print(&self) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} (failed {} of {})",
            self.failed, self.attempted
        );
        let mut json = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).expect("every printed metric has a unit");
            println!("{name} = {value} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// The generated trace pool and its configurations.
struct Pool {
    traces: Vec<Vec<u8>>,
    configs: Vec<ExperimentConfig>,
}

fn setup(w: Workload, seed: u64) -> Pool {
    let seeds: Vec<u64> = (0..w.pool()).map(|i| trace_seed(seed, i)).collect();
    Pool {
        traces: seeds.iter().map(|&s| w.swf(s)).collect(),
        configs: seeds.iter().map(|&s| w.config(s)).collect(),
    }
}

/// One untraced replay: its result and host seconds.
fn replay(w: Workload, swf: &[u8], cfg: &ExperimentConfig) -> (ExperimentResult, f64) {
    let mut source = w.source(swf);
    let t0 = Instant::now();
    let r = run_experiment_streaming(cfg, &mut *source);
    (r, t0.elapsed().as_secs_f64())
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("host cpu=\"{cpu}\" nproc={nproc}")
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The traced replay of `swf` must reproduce the untraced summary bit
/// for bit; returns the traced replay and its overhead ratio.
fn traced_check(
    w: Workload,
    swf: &[u8],
    cfg: &ExperimentConfig,
    untraced: &(ExperimentResult, f64),
    label: &str,
    report: &mut Report,
) -> (Traced, f64) {
    let t = traced_replay(cfg, w.source(swf));
    report.check(
        summary_bits(&t.summary) == summary_bits(&untraced.0.summary),
        || format!("{label}: traced summary differs from the untraced one"),
    );
    let ratio = t.wall_s / untraced.1;
    (t, ratio)
}

/// `Online` and `Full` telemetry must agree bit for bit on a prefix.
fn prefix_check(w: Workload, swf: &[u8], cfg: &ExperimentConfig, report: &mut Report) {
    let mut cfg_full = *cfg;
    cfg_full.telemetry = dmr_core::Telemetry::Full;
    let bits: Vec<Vec<u64>> = [*cfg, cfg_full]
        .iter()
        .map(|c| {
            let mut prefix = w.prefix_source(swf, PREFIX_JOBS);
            summary_bits(&run_experiment_streaming(c, &mut *prefix).summary)
        })
        .collect();
    report.check(bits[0] == bits[1], || {
        format!("online and full summaries differ on the first {PREFIX_JOBS} jobs")
    });
}

fn shape_check(w: Workload, shape: &Shape, report: &mut Report) {
    println!(
        "shape {}: pending peak {}, node failures {}, GPU-tagged jobs {}",
        w.name(),
        shape.pending_peak,
        shape.node_failures,
        shape.gpu_jobs
    );
    let verdict = w.check_shape(shape);
    report.check(verdict.is_ok(), || {
        format!("workload shape of {}: {}", w.name(), verdict.unwrap_err())
    });
}

/// `--trace 0`: the end-to-end metrics.
fn untraced_run(args: &Args, report: &mut Report) {
    let w = args.workload;
    let jobs = w.jobs();
    let mut setup_s = Vec::new();
    let mut pool = None;
    while setup_s.len() < SETUP_REPEATS.0
        || (setup_s.len() < SETUP_REPEATS.1 && setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        let t0 = Instant::now();
        pool = Some(std::hint::black_box(setup(w, args.seed)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let pool = pool.expect("set-up ran");
    let k = pool.traces.len();

    // Replays per pool trace: host seconds of every repeat, and the
    // summary of the first one (repeats must reproduce it exactly).
    let mut wall: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; k];
    let mut first: Vec<[Option<ExperimentResult>; 2]> = vec![[None, None]; k];
    let t_start = Instant::now();
    for n in 0.. {
        let i = n % k;
        let cfg = pool.configs[i];
        for (m, cfg) in [cfg.as_fixed(), cfg].iter().enumerate() {
            let label = format!("trace {i} {}", ["fixed", "flexible"][m]);
            let (r, dt) = replay(w, &pool.traces[i], cfg);
            report.replay(jobs, &r, &label);
            match &first[i][m] {
                None => first[i][m] = Some(r),
                Some(f) => report
                    .check(summary_bits(&f.summary) == summary_bits(&r.summary), || {
                        format!("{label}: a repeat replay changed the summary")
                    }),
            }
            wall[i][m].push(dt);
        }
        if n + 1 >= k && t_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    let replays: usize = wall.iter().map(|w| w[0].len()).sum();
    println!(
        "{} replays per mode over {k} traces of {jobs} jobs",
        replays
    );

    // Per trace, the median of its repeats; over the pool, the mean.
    let per_trace = |m: usize| -> Vec<f64> { wall.iter().map(|w| median(&w[m])).collect() };
    let (fixed, flexible) = (per_trace(0), per_trace(1));
    let results: Vec<[&ExperimentResult; 2]> = first
        .iter()
        .map(|f| [0, 1].map(|m| f[m].as_ref().expect("every trace replayed")))
        .collect();
    let completed: f64 = results
        .iter()
        .map(|r| (r[0].summary.jobs + r[1].summary.jobs) as f64)
        .sum();
    let sim = |f: &dyn Fn(&[&ExperimentResult; 2]) -> f64| -> f64 {
        mean(&results.iter().map(f).collect::<Vec<_>>())
    };
    report.metric("setup_s", median(&setup_s));
    report.metric("wall_s.fixed", mean(&fixed));
    report.metric("wall_s.flexible", mean(&flexible));
    report.metric(
        "jobs_per_s",
        completed / (fixed.iter().sum::<f64>() + flexible.iter().sum::<f64>()),
    );
    report.metric("peak_rss_mb", rss);
    report.metric(
        "sim_makespan_ratio",
        sim(&|r| r[1].summary.makespan_s / r[0].summary.makespan_s),
    );
    report.metric(
        "sim_avg_wait_s.flexible",
        sim(&|r| r[1].summary.avg_waiting_s),
    );
    report.metric(
        "sim_energy_mj.flexible",
        sim(&|r| r[1].summary.energy_to_solution_j / 1e6),
    );

    // Checks that need a traced or buffered replay run after the RSS
    // reading, so their buffers never count toward it.
    let untraced = (results[0][0].clone(), fixed[0]);
    let (t, overhead) = traced_check(
        w,
        &pool.traces[0],
        &pool.configs[0].as_fixed(),
        &untraced,
        "trace 0 fixed",
        report,
    );
    // Failures are rare: count them over every replay of the pool.
    let shape = Shape {
        pending_peak: t.pending_peak,
        node_failures: results
            .iter()
            .map(|r| r[0].summary.failures + r[1].summary.failures)
            .sum(),
        gpu_jobs: t.gpu_jobs,
    };
    shape_check(w, &shape, report);
    println!("trace.overhead_ratio.fixed = {overhead} ratio (trace 0)");
    prefix_check(w, &pool.traces[0], &pool.configs[0], report);
}

/// Per-layer values of each traced replay, by metric name; the median
/// over replays is reported.
#[derive(Default)]
struct Layers(Vec<(String, Vec<f64>)>);

impl Layers {
    fn push(&mut self, name: String, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        let (_, v) = self
            .0
            .iter()
            .find(|(n, _)| n == name)
            .expect("metric recorded");
        median(v)
    }
}

fn record_replay(layers: &mut Layers, mode: &str, t: &Traced, overhead: f64, report: &mut Report) {
    let mut put = |name: &str, value: f64| layers.push(format!("{name}.{mode}"), value);
    put("workload.next_job.calls", t.next_job_calls as f64);
    put("workload.next_job.busy_s", t.next_job_busy_s);
    put("metrics.on_sample.calls", t.on_sample_calls as f64);
    put("metrics.on_sample.busy_s", t.on_sample_busy_s);
    put("metrics.on_job.busy_s", t.on_job_busy_s);
    put("core.events", t.stats.events as f64);
    put("core.self_s", t.core_self_s());
    let mut sorted: Vec<f64> = t.event_us.iter().map(|&v| f64::from(v)).collect();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.5);
    let p999 = percentile(&sorted, 0.999);
    put("core.event_us.p50", p50.unwrap_or(f64::NAN));
    put("core.event_us.p999", p999.unwrap_or(f64::NAN));
    put("core.event_us.n", sorted.len() as f64);
    put("core.pending.peak", t.pending_peak as f64);
    put("core.pending.mean", t.pending_mean);
    put(
        "core.event_us_per_kpending",
        slope_per_kpending(&t.event_depth, &t.event_us, p999.unwrap_or(f64::INFINITY)),
    );
    put(
        "core.reconfigurations",
        f64::from(t.summary.reconfigurations),
    );
    put("core.requeues", t.summary.requeues as f64);
    put("core.goodput_ratio", t.summary.goodput_ratio);
    put("trace.overhead_ratio", overhead);
    put("cluster.node_failures", t.summary.failures as f64);
    report.check(p999.is_some(), || {
        format!("{mode}: {} events are too few for a p99.9", sorted.len())
    });
}

/// `--trace 1`: the traced pass and the layer probes.
fn traced_run(args: &Args, report: &mut Report) {
    let w = args.workload;
    let jobs = w.jobs();
    let pool = setup(w, args.seed);
    let k = pool.traces.len();
    let mut layers = Layers::default();
    let mut traced_running_mean = 0.0;
    let mut shape = Shape::default();
    let t_start = Instant::now();
    // Budget: traced and untraced replays take about two thirds of the
    // window, the probes the rest.
    for i in 0..k {
        if i > 0 && t_start.elapsed().as_secs_f64() >= args.seconds * 2.0 / 3.0 {
            break;
        }
        let cfg = pool.configs[i];
        for (mode, cfg) in [("fixed", cfg.as_fixed()), ("flexible", cfg)] {
            let label = format!("trace {i} {mode}");
            let untraced = replay(w, &pool.traces[i], &cfg);
            report.replay(jobs, &untraced.0, &label);
            let (t, overhead) = traced_check(w, &pool.traces[i], &cfg, &untraced, &label, report);
            record_replay(&mut layers, mode, &t, overhead, report);
            shape.pending_peak = shape.pending_peak.max(t.pending_peak);
            shape.node_failures += t.summary.failures;
            shape.gpu_jobs += t.gpu_jobs;
            if i == 0 {
                traced_running_mean = t.running_mean;
            }
        }
    }
    shape_check(w, &shape, report);
    prefix_check(w, &pool.traces[0], &pool.configs[0], report);

    // Layer probes on the first trace's jobs, at the depths the flexible
    // replays reached.
    let specs: Vec<JobSpec> = collect_jobs(&mut *w.source(&pool.traces[0]));
    let cfg = pool.configs[0];
    let depth_mean = layers.median("core.pending.mean.flexible").round().max(1.0) as usize;
    let depth_peak = layers.median("core.pending.peak.flexible").max(1.0) as usize;
    for (suffix, depth) in [("depth_mean", depth_mean), ("depth_peak", depth_peak)] {
        let p = probes::slurm_probe(&cfg, &specs, depth, PROBE_CYCLES);
        let mut put = |name: &str, value: f64| layers.push(format!("{name}.{suffix}"), value);
        put("slurm.submit_us", p.submit_us);
        put("slurm.schedule_us", p.schedule_us);
        put("slurm.backfill_pass_us", p.backfill_pass_us);
        put("slurm.decide_resize_us", p.decide_resize_us);
        put("slurm.complete_us", p.complete_us);
        put("slurm.passes_elided_ratio", p.passes_elided_ratio);
    }
    // Live events: one in-flight segment per running job, plus the next
    // arrival and the periodic backfill tick.
    let live = traced_running_mean.round() as usize + 2;
    let (push_ns, pop_ns) = probes::sim_probe(&specs, live);
    layers.push("sim.schedule_at_ns".into(), push_ns);
    layers.push("sim.next_event_ns".into(), pop_ns);
    let (alloc_ns, release_ns) = probes::cluster_probe(&cfg, &specs);
    layers.push("cluster.allocate_ns".into(), alloc_ns);
    layers.push("cluster.release_ns".into(), release_ns);

    for (name, values) in &layers.0 {
        report.metric(name, median(values));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replaybench: {e}");
            eprintln!(
                "usage: replaybench --workload deep-easy|steady|deep-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    if args.trace {
        traced_run(&args, &mut report);
    } else {
        untraced_run(&args, &mut report);
    }
    report.print();
    ExitCode::SUCCESS
}
