//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro <target> [seed]
//! repro --sweep [--smoke] [--threads N] [--seeds a,b,c]
//! repro --trace path.swf [--nodes N] [--check-prefix N]
//!       [--faults none|rare|harsh|trace:PATH] [--ckpt-interval S]
//! repro --hist [--jobs N] [--seed S]
//! repro --gen-swf N [--seed S]
//! repro --bench-json [--smoke] [--bench-out PATH] [--bench-label L]
//! targets: fig1 table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!          fig12 table2 all quick
//! ```
//! `quick` runs a reduced-scale version of everything (CI-friendly);
//! `all` runs the full paper-scale evaluation. `--sweep` runs the
//! scenario registry (workload × cluster × policy × mode) in parallel and
//! prints one CSV row per (scenario, seed) cell; `--smoke` swaps in the
//! CI-sized registry. `--trace` replays a Standard Workload Format file
//! through the streaming bounded-memory driver, rigid vs malleable, and
//! prints the summary comparison (including P50/P95/P99 columns) as CSV;
//! `--check-prefix N` additionally replays the first `N` jobs through
//! both telemetry paths and fails unless the summaries agree; `--faults`
//! injects a node-failure load into the replay (a preset, or a scripted
//! `trace:PATH` incident file of `<t_s> fail|repair <node>` lines) and
//! `--ckpt-interval S` gives killed jobs periodic images to restart
//! from instead of requeueing from scratch.
//! `--hist` prints ASCII histograms of the waiting / execution /
//! completion distributions. `--gen-swf` writes a synthetic SWF trace to
//! stdout for long-replay smoke tests. `--bench-json` runs the scheduler
//! hot-path throughput grid (the arena path, its axis twins, and the
//! scan reference where it finishes) and
//! appends one run to the `BENCH_sched.json` perf-trajectory document,
//! keeping every prior run byte-identical (default path: repo root /
//! current directory; `--smoke` shrinks the grid for CI; `--bench-label`
//! names the run).

use dmr_bench::figures as f;
use dmr_bench::{hotpath, scenario, sweep, PRELIM_JOB_COUNTS, PRODUCTION_JOB_COUNTS, SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bench-json") {
        run_bench_json(&args);
        return;
    }
    if args.iter().any(|a| a == "--sweep") {
        run_sweep(&args);
        return;
    }
    if let Some(path) = flag_value(&args, "--trace") {
        let path = path.to_string();
        run_trace(&path, &args);
        return;
    }
    if args.iter().any(|a| a == "--hist") {
        let jobs = parsed_flag(&args, "--jobs").unwrap_or(50);
        let seed = parsed_flag(&args, "--seed").unwrap_or(SEED);
        println!("{}", f::hist_report(jobs, seed));
        return;
    }
    if let Some(n) = flag_value(&args, "--gen-swf") {
        let jobs: u32 = match n.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--gen-swf expects a positive job count, got `{n}`");
                std::process::exit(2);
            }
        };
        let seed = parsed_flag(&args, "--seed").unwrap_or(SEED);
        let spacing = parsed_flag::<f64>(&args, "--spacing");
        gen_swf(jobs, seed, spacing);
        return;
    }
    let target = args.first().map(String::as_str).unwrap_or("quick");
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(SEED);
    run(target, seed);
}

/// Parses `--flag v` into any `FromStr` type, exiting on malformed input.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| match v.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag} expects a number, got `{v}`");
            std::process::exit(2);
        }
    })
}

/// Value of `--flag v` or `--flag=v`, if present. A flag given without a
/// value (e.g. `--seeds` as the last argument) is an error, not a silent
/// fallback to the default.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let prefix = format!("{flag}=");
    args.iter().enumerate().find_map(|(i, a)| {
        if let Some(v) = a.strip_prefix(&prefix) {
            Some(v)
        } else if a == flag {
            match args.get(i + 1) {
                Some(v) => Some(v.as_str()),
                None => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        } else {
            None
        }
    })
}

/// Parses `--faults none|rare|harsh|trace:PATH` into the preset load
/// plus an optional scripted trace (read and parsed from `PATH`, one
/// `<t_s> fail|repair <node>` event per line). Absent flag → the
/// zero-fault oracle default.
fn fault_flags(args: &[String]) -> (dmr_core::FaultLoad, Option<dmr_core::FaultTrace>) {
    use dmr_core::{FaultLoad, FaultTrace};
    match flag_value(args, "--faults") {
        None | Some("none") => (FaultLoad::None, None),
        Some("rare") => (FaultLoad::Rare, None),
        Some("harsh") => (FaultLoad::Harsh, None),
        Some(v) => {
            let Some(path) = v.strip_prefix("trace:") else {
                eprintln!("--faults expects none|rare|harsh|trace:PATH, got `{v}`");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read fault trace `{path}`: {e}");
                    std::process::exit(2);
                }
            };
            match FaultTrace::parse(&text) {
                Ok(trace) => (FaultLoad::None, Some(trace)),
                Err(e) => {
                    eprintln!("malformed fault trace `{path}`: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// Runs the scheduler hot-path grid and **appends** a run to the
/// `BENCH_sched.json` trajectory (prior runs stay byte-identical; a
/// legacy v1 snapshot is migrated verbatim as run 0). Exits non-zero if
/// the spliced document fails its schema gate or any acceptance bar
/// regresses: the headline incremental on/off ratio, the deep-backfill
/// conservative/EASY-1 ratio, or the incremental-scheduling cross-run
/// throughput gate against the `pr7-slotset-backfill` run. The
/// within-run gates read the freshly rendered run only, never an older
/// run's value.
fn run_bench_json(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let path = flag_value(args, "--bench-out").unwrap_or("BENCH_sched.json");
    let existing = std::fs::read_to_string(path).ok();
    let label = match flag_value(args, "--bench-label") {
        Some(l) => l.to_string(),
        None => {
            let prior = existing.as_deref().map_or(0, hotpath::run_count);
            format!("run{}-{}", prior, if smoke { "smoke" } else { "full" })
        }
    };
    let mut run = hotpath::bench_run(smoke, &label, |cell| {
        eprintln!(
            "bench: n{:<5} q{:<6} {:<16} {:>12.0} events/s  ({:.0} jobs/s, peak queue {}, \
             passes {} run / {} elided)",
            cell.nodes,
            cell.queue_depth,
            format!(
                "{}/{}/{}{}{}",
                cell.mode,
                cell.backfill,
                cell.incremental,
                if cell.machine == "uniform" {
                    ""
                } else {
                    "/hetero3"
                },
                if cell.faults == "off" { "" } else { "/faulty" }
            ),
            cell.events_per_sec(),
            cell.jobs_per_sec(),
            cell.peak_queue_depth,
            cell.passes_run,
            cell.passes_elided,
        );
    });
    run = append_pareto_row(run, smoke);
    let doc = match hotpath::append_run(existing.as_deref(), &run) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot append to the {path} trajectory: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = hotpath::validate_bench_json(&doc) {
        eprintln!("BENCH_sched.json failed its schema gate: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "appended run \"{label}\" to {path} ({} runs)",
        hotpath::run_count(&doc)
    );
    // Headline gate: the arena EASY-1 headline cell against its
    // SchedIncremental::Off twin, measured in the same interleaved
    // best-of-N session, on smoke and full runs alike. The incremental
    // layer (pass elision, the persistent order, retained plans) must
    // keep the production path strictly ahead of the from-scratch path,
    // with margin for scheduler-interference noise.
    let speedup = hotpath::incremental_speedup(&run).unwrap_or(0.0);
    eprintln!("headline: easy1 arena incremental on runs at {speedup:.2}x the off events/s");
    if speedup < 1.1 {
        eprintln!("headline on/off ratio {speedup:.2}x is below the 1.1x acceptance bar");
        std::process::exit(1);
    }
    // Deep-backfill gate: with the persistent plans and the dirty-window
    // walk, conservative planning of the whole blocked queue must stay
    // within ~0.85x of the EASY-1 events/s on the headline cell (the
    // pre-incremental bar was 0.5x).
    let ratio = hotpath::backfill_ratio(&run).unwrap_or(0.0);
    eprintln!("backfill axis: conservative runs at {ratio:.2}x the easy1 events/s");
    if ratio < 0.85 {
        eprintln!("conservative/easy1 ratio {ratio:.2} is below the 0.85x bar");
        std::process::exit(1);
    }
    if let Some(rate) = hotpath::elision_rate(&run) {
        eprintln!(
            "incremental axis: {:.1}% of headline passes elided",
            rate * 100.0
        );
    }
    // Cross-run gate: the incremental scheduler must beat the
    // pre-incremental trajectory run on the headline cell by ≥ 1.3x.
    // Skipped (with a note) when the trajectory lacks that run — e.g. a
    // fresh --bench-out document. Unlike the within-run ratios above,
    // the two sides of this gate were measured in different sessions —
    // interleaved repeats cannot spread interference across them — so
    // only full runs (300-round cells) enforce it; smoke runs report the
    // comparison without failing.
    let (nodes, depth) = (65_536, 100_000);
    let baseline = hotpath::run_cell_lookup(
        &doc,
        "pr7-slotset-backfill",
        nodes,
        depth,
        "arena",
        "easy1",
        "on",
    );
    let fresh = hotpath::run_cell_lookup(&doc, &label, nodes, depth, "arena", "easy1", "on");
    match (baseline, fresh) {
        (Some(base), Some(fresh)) if base.events_per_sec > 0.0 => {
            let gain = fresh.events_per_sec / base.events_per_sec;
            eprintln!(
                "incremental gate: easy1 arena {:.0} events/s vs pr7-slotset-backfill {:.0} \
                 ({gain:.2}x)",
                fresh.events_per_sec, base.events_per_sec
            );
            if gain < 1.3 && !smoke {
                eprintln!("easy1 arena gain {gain:.2}x vs pr7-slotset-backfill is below 1.3x");
                std::process::exit(1);
            }
        }
        _ => eprintln!(
            "incremental gate: no pr7-slotset-backfill headline cell in {path}; cross-run \
             comparison skipped"
        ),
    }
    // Machine-axis gate: per-class free sets and timelines must keep the
    // heterogeneous arena cell within 0.9x of its uniform twin. The two
    // sides run in the same interleaved best-of-N session, but smoke runs
    // only report — the 150-round smoke cells are short enough for a
    // single interference burst to swing a within-0.9 bar.
    if let Some(hetero) = hotpath::hetero_ratio(&run) {
        eprintln!("machine axis: hetero3 arena runs at {hetero:.2}x the uniform events/s");
        if hetero < 0.9 && !smoke {
            eprintln!("hetero3/uniform ratio {hetero:.2} is below the 0.9x bar");
            std::process::exit(1);
        }
    }
    // Fault-axis gate: periodic kill-and-requeue plus repair churn must
    // keep the faulty arena cell within 0.7x of its calm twin. Same
    // smoke caveat as the machine axis: short smoke cells only report.
    if let Some(fault) = hotpath::fault_ratio(&run) {
        eprintln!("fault axis: faulty arena runs at {fault:.2}x the calm events/s");
        if fault < 0.7 && !smoke {
            eprintln!("faulty/calm ratio {fault:.2} is below the 0.7x bar");
            std::process::exit(1);
        }
    }
}

/// Runs the heterogeneous grid cells (Algorithm 1 vs the energy-aware
/// policy on the three-class machine, same workload and seed) and
/// splices an energy-vs-makespan `pareto` row into the rendered run.
/// The simulated comparison is deterministic, so the dominance gate —
/// the energy-aware policy must spend strictly less energy than
/// Algorithm 1 on at least one heterogeneous scenario — holds in smoke
/// runs too, and failing it exits non-zero before anything is written.
fn append_pareto_row(run: String, smoke: bool) -> String {
    let cells = sweep::run_sweep(
        &scenario::hetero_axis(if smoke { 10 } else { 50 }),
        &[SEED],
        2,
    );
    let find = |policy: &str| {
        cells
            .iter()
            .find(|c| c.policy.starts_with(policy))
            .unwrap_or_else(|| panic!("hetero axis lacks the {policy} cell"))
    };
    let a1 = find("algorithm1");
    let ea = find("energy-aware");
    eprintln!(
        "pareto: algorithm1 {:.0} J / {:.1} s vs energy-aware {:.0} J / {:.1} s ({})",
        a1.summary.energy_to_solution_j,
        a1.summary.makespan_s,
        ea.summary.energy_to_solution_j,
        ea.summary.makespan_s,
        a1.scenario,
    );
    if ea.summary.energy_to_solution_j >= a1.summary.energy_to_solution_j {
        eprintln!(
            "energy-aware spent {:.0} J, not strictly below algorithm1's {:.0} J",
            ea.summary.energy_to_solution_j, a1.summary.energy_to_solution_j
        );
        std::process::exit(1);
    }
    let row = format!(
        ",\n  \"pareto\": {{\"scenario\": \"{}\", \
         \"algorithm1_energy_j\": {:.3}, \"algorithm1_makespan_s\": {:.3}, \
         \"energy_aware_energy_j\": {:.3}, \"energy_aware_makespan_s\": {:.3}, \
         \"energy_aware_dominates_energy\": true}}",
        a1.scenario,
        a1.summary.energy_to_solution_j,
        a1.summary.makespan_s,
        ea.summary.energy_to_solution_j,
        ea.summary.makespan_s,
    );
    match run.strip_suffix("\n}") {
        Some(body) => format!("{body}{row}\n}}"),
        None => run,
    }
}

fn run_sweep(args: &[String]) {
    let scenarios = if args.iter().any(|a| a == "--smoke") {
        scenario::smoke_registry()
    } else {
        scenario::registry()
    };
    let seeds: Vec<u64> = match flag_value(args, "--seeds") {
        Some(list) => {
            let parsed: Result<Vec<u64>, _> = list.split(',').map(str::parse).collect();
            match parsed {
                Ok(seeds) if !seeds.is_empty() => seeds,
                _ => {
                    eprintln!("--seeds expects a comma-separated list of integers, got `{list}`");
                    std::process::exit(2);
                }
            }
        }
        None => vec![SEED],
    };
    let threads = match flag_value(args, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--threads expects a positive integer, got `{v}`");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let cells = sweep::run_sweep(&scenarios, &seeds, threads);
    print!("{}", sweep::csv_report(&cells));
    let past: u64 = cells.iter().map(|c| c.past_schedules).sum();
    if past > 0 {
        eprintln!("warning: {past} events were scheduled in the past and clamped");
        std::process::exit(1);
    }
}

/// Replays `path` (SWF) twice — rigid and malleable — through the
/// streaming bounded-memory driver and prints a two-row summary CSV.
/// With `--check-prefix N`, additionally replays the first `N` jobs under
/// both telemetry modes and exits non-zero unless the summaries are
/// bit-identical.
fn run_trace(path: &str, args: &[String]) {
    use dmr_core::ExperimentConfig;
    use dmr_core::{run_experiment_streaming, run_experiment_streaming_with_faults};
    use dmr_metrics::csv::write_summaries;
    use dmr_workload::SwfTrace;

    let nodes = match flag_value(args, "--nodes") {
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--nodes expects a positive integer, got `{v}`");
                std::process::exit(2);
            }
        },
        None => 20,
    };
    let (load, fault_trace) = fault_flags(args);
    // Long traces replay through the O(1)-memory online telemetry path;
    // the summary (including the percentile columns) is bit-identical to
    // the buffered path, which `--check-prefix` verifies on demand.
    let mut cfg = ExperimentConfig::preliminary()
        .with_nodes(nodes)
        .with_faults(load)
        .online();
    if let Some(s) = parsed_flag::<f64>(args, "--ckpt-interval") {
        if s <= 0.0 {
            eprintln!("--ckpt-interval expects a positive number of seconds, got `{s}`");
            std::process::exit(2);
        }
        cfg = cfg.with_ckpt_interval(s);
    }
    // A trace replay has no randomness: two opens of the same file are
    // the same workload, so fixed vs flexible is a fair comparison.
    let mut results = Vec::new();
    for (label, cfg) in [("swf-fixed", cfg.as_fixed()), ("swf-flexible", cfg)] {
        let mut trace = match SwfTrace::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot open trace `{path}`: {e}");
                std::process::exit(2);
            }
        };
        let result = match fault_trace.clone() {
            Some(script) => run_experiment_streaming_with_faults(&cfg, &mut trace, script),
            None => run_experiment_streaming(&cfg, &mut trace),
        };
        if result.summary.jobs == 0 {
            eprintln!("trace `{path}` contains no replayable jobs");
            std::process::exit(1);
        }
        eprintln!(
            "{label}: {} jobs, {} lines skipped, makespan {:.1} s, p99 completion {:.1} s",
            result.summary.jobs,
            trace.skipped_lines(),
            result.summary.makespan_s,
            result.summary.completion_q.p99_s
        );
        if !load.is_none() || fault_trace.is_some() {
            eprintln!(
                "{label}: {} node failures, {} requeues, {:.1} s lost work, \
                 goodput {:.4}, restart p95 {:.1} s",
                result.summary.failures,
                result.summary.requeues,
                result.summary.lost_work_s,
                result.summary.goodput_ratio,
                result.summary.restart_p95_s,
            );
        }
        results.push((label, result));
    }
    let rows: Vec<(&str, &dmr_metrics::WorkloadSummary)> = results
        .iter()
        .map(|(label, r)| (*label, &r.summary))
        .collect();
    let mut out = Vec::new();
    write_summaries(&mut out, &rows).expect("writing to memory cannot fail");
    print!("{}", String::from_utf8(out).expect("CSV is UTF-8"));
    if let Some(prefix) = parsed_flag::<u32>(args, "--check-prefix") {
        check_prefix(path, nodes, prefix);
    }
}

/// Replays the first `prefix` jobs of `path` through the streaming
/// (online) and buffered (full) telemetry paths and asserts the
/// summaries agree **bit-for-bit** — every f64 compared by raw bits, not
/// through rounded CSV formatting, so even sub-rounding divergence fails
/// the gate.
fn check_prefix(path: &str, nodes: u32, prefix: u32) {
    use dmr_core::{run_experiment_streaming, ExperimentConfig};
    use dmr_metrics::WorkloadSummary;
    use dmr_workload::{Capped, SwfTrace};

    // Every f64 of the summary as raw bits (quantiles included), plus
    // the integer counters — byte-equal iff the summaries are.
    fn fingerprint(s: &WorkloadSummary) -> String {
        format!(
            "{:016x} {:016x} {:016x} {:016x} {:016x} \
             {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} \
             jobs={} reconf={}",
            s.makespan_s.to_bits(),
            s.utilization.to_bits(),
            s.avg_waiting_s.to_bits(),
            s.avg_execution_s.to_bits(),
            s.avg_completion_s.to_bits(),
            s.waiting_q.p50_s.to_bits(),
            s.waiting_q.p95_s.to_bits(),
            s.waiting_q.p99_s.to_bits(),
            s.execution_q.p50_s.to_bits(),
            s.execution_q.p95_s.to_bits(),
            s.execution_q.p99_s.to_bits(),
            s.completion_q.p50_s.to_bits(),
            s.completion_q.p95_s.to_bits(),
            s.completion_q.p99_s.to_bits(),
            s.jobs,
            s.reconfigurations,
        )
    }

    let base = ExperimentConfig::preliminary().with_nodes(nodes);
    let mut prints = Vec::new();
    for cfg in [base.online(), base] {
        let trace = match SwfTrace::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot reopen trace `{path}`: {e}");
                std::process::exit(2);
            }
        };
        let mut capped = Capped::new(trace, prefix);
        let result = run_experiment_streaming(&cfg, &mut capped);
        prints.push(fingerprint(&result.summary));
    }
    if prints[0] == prints[1] {
        eprintln!(
            "prefix check ({prefix} jobs): streaming summary matches buffered path bit-for-bit"
        );
    } else {
        eprintln!(
            "prefix check FAILED ({prefix} jobs):\n  online:   {}\n  buffered: {}",
            prints[0], prints[1]
        );
        std::process::exit(1);
    }
}

/// Writes a synthetic Standard Workload Format trace to stdout: `jobs`
/// records drawn from the Feitelson preliminary model, submit-sorted,
/// one line per job in the 18-field SWF v2.2 layout (unused fields -1).
///
/// The model's arrival process is tuned for testbed-sized workloads;
/// replayed at tens of thousands of jobs it buries the simulated cluster
/// under an ever-growing backlog (a scheduler stress test, quadratic in
/// queue depth). `spacing` overrides arrivals with a fixed inter-submit
/// gap in seconds, producing a steady-state trace whose replay cost is
/// linear in job count — what the long-trace streaming smoke wants.
fn gen_swf(jobs: u32, seed: u64, spacing: Option<f64>) {
    use dmr_core::WorkloadKind;
    use std::io::Write;

    let mut source = WorkloadKind::FsPreliminary.build(jobs, seed);
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    writeln!(out, "; Synthetic SWF trace: {jobs} jobs, seed {seed}").expect("stdout");
    writeln!(
        out,
        "; Generated by `repro --gen-swf` from the Feitelson FS model"
    )
    .expect("stdout");
    let mut id = 0u64;
    while let Some(job) = source.next_job() {
        let submit = match spacing {
            Some(s) => id as f64 * s,
            None => job.arrival_s,
        };
        id += 1;
        let runtime = job.steps as f64 * job.step_s;
        // Fields: job, submit, wait, run, alloc procs, cpu, mem,
        // req procs, req time, req mem, status, uid, gid, app, queue,
        // partition, prev job, think time.
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
        .expect("stdout");
    }
}

fn run(target: &str, seed: u64) {
    match target {
        "fig1" => println!("{}", f::fig1_report()),
        "table1" => println!("{}", f::table1_report()),
        "fig3" => println!("{}", f::fig3_report(&PRELIM_JOB_COUNTS, seed)),
        "fig4" => println!("{}", f::fig4(seed).render(72)),
        "fig5" => println!("{}", f::fig5(seed).render(72)),
        "fig6" => println!("{}", f::fig6(seed).render(72)),
        "fig7" => println!("{}", f::fig7_report(&PRELIM_JOB_COUNTS, seed)),
        "fig8" => println!("{}", f::fig8_report(100, seed)),
        "fig9" => println!("{}", f::fig9_report(&[10, 25, 50, 100], seed)),
        "fig10" | "fig11" | "table2" => {
            let pairs = f::production_summaries(&PRODUCTION_JOB_COUNTS, seed);
            match target {
                "fig10" => println!("{}", f::fig10_report(&pairs)),
                "fig11" => println!("{}", f::fig11_report(&pairs)),
                _ => println!("{}", f::table2_report(&pairs)),
            }
        }
        "fig12" => println!("{}", f::fig12(seed).render(72)),
        "ablations" => println!("{}", f::ablations_report(50, seed)),
        "all" => {
            println!("{}", f::fig1_report());
            println!("{}", f::table1_report());
            println!("{}", f::fig3_report(&PRELIM_JOB_COUNTS, seed));
            println!("{}", f::fig4(seed).render(72));
            println!("{}", f::fig5(seed).render(72));
            println!("{}", f::fig6(seed).render(72));
            println!("{}", f::fig7_report(&PRELIM_JOB_COUNTS, seed));
            println!("{}", f::fig8_report(100, seed));
            println!("{}", f::fig9_report(&[10, 25, 50, 100], seed));
            let pairs = f::production_summaries(&PRODUCTION_JOB_COUNTS, seed);
            println!("{}", f::fig10_report(&pairs));
            println!("{}", f::fig11_report(&pairs));
            println!("{}", f::table2_report(&pairs));
            println!("{}", f::fig12(seed).render(72));
            println!("{}", f::ablations_report(50, seed));
        }
        "quick" => {
            println!("{}", f::fig1_report());
            println!("{}", f::table1_report());
            println!("{}", f::fig3_report(&[10, 25, 50], seed));
            println!("{}", f::fig8_report(50, seed));
            let pairs = f::production_summaries(&[50], seed);
            println!("{}", f::fig10_report(&pairs));
            println!("{}", f::table2_report(&pairs));
        }
        other => {
            eprintln!("unknown target `{other}`");
            eprintln!(
                "targets: fig1 table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 \
                 fig10 fig11 fig12 table2 all quick\n\
                 or: --sweep [--smoke] [--threads N] [--seeds a,b,c]\n\
                 or: --trace path.swf [--nodes N] [--check-prefix N]\n\
                 \x20            [--faults none|rare|harsh|trace:PATH] [--ckpt-interval S]\n\
                 or: --hist [--jobs N] [--seed S]\n\
                 or: --gen-swf N [--seed S]\n\
                 or: --bench-json [--smoke] [--bench-out PATH] [--bench-label L]"
            );
            std::process::exit(2);
        }
    }
}
