//! The benchmark's own arithmetic: percentiles, the pending-depth
//! derivation, the per-event cost slope, aggregation over a trace pool,
//! and the metric-name → unit table. Kept free of timing and I/O so the
//! unit tests below can pin it on synthetic inputs.

/// Minimum number of samples that must lie beyond a reported percentile.
/// A tail figure resting on fewer is noise, so it is not reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    // The epsilon keeps an exact product from rounding up a rank.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Jobs waiting in the queue, derived from the three counts the timing
/// wrappers see: jobs the driver pulled from the source (the one arrival
/// already scheduled but not yet submitted is included), jobs running,
/// and jobs completed. Saturates at zero.
pub fn pending_depth(pulled: u64, running: u64, completed: u64) -> u64 {
    pulled.saturating_sub(running).saturating_sub(completed)
}

/// Width of the pending-depth buckets the slope is fitted over, jobs.
/// Within a few jobs of depth the kind of event, not the queue length,
/// sets its cost; bucketing keeps that mix out of the slope.
const DEPTH_BUCKET: u32 = 100;

/// Least-squares slope of per-event host time (µs, clipped at `clip_us`
/// to damp interrupts and page faults) against pending depth in
/// thousands of jobs, the depth taken at the centre of its
/// [`DEPTH_BUCKET`]: the extra µs each event costs per thousand queued
/// jobs. Zero when every event falls in one bucket.
pub fn slope_per_kpending(depths: &[u32], event_us: &[f32], clip_us: f64) -> f64 {
    assert_eq!(depths.len(), event_us.len(), "one depth per event");
    if depths.is_empty() {
        return 0.0;
    }
    // Bucket indices are small integers, so their mean is exact when
    // every event shares one bucket.
    let x = |d: u32| f64::from(d / DEPTH_BUCKET);
    let y = |v: f32| f64::from(v).min(clip_us);
    let n = depths.len() as f64;
    let mx = depths.iter().map(|&d| x(d)).sum::<f64>() / n;
    let my = event_us.iter().map(|&v| y(v)).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (&d, &v) in depths.iter().zip(event_us) {
        let dx = x(d) - mx;
        sxy += dx * (y(v) - my);
        sxx += dx * dx;
    }
    if sxx > 0.0 {
        sxy / sxx * 1000.0 / f64::from(DEPTH_BUCKET)
    } else {
        0.0
    }
}

/// Every metric the benchmark prints, with its unit. `.fixed` /
/// `.flexible` / `.depth_mean` / `.depth_peak` suffixes are stripped
/// before lookup; an unknown name has no unit.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let base = [".fixed", ".flexible", ".depth_mean", ".depth_peak"]
        .iter()
        .find_map(|s| name.strip_suffix(s))
        .unwrap_or(name);
    Some(match base {
        "setup_s" | "wall_s" | "sim_avg_wait_s" => "s",
        "jobs_per_s" => "1/s",
        "peak_rss_mb" => "MB",
        "sim_makespan_ratio" => "ratio",
        "sim_energy_mj" => "MJ",
        "workload.next_job.calls" | "metrics.on_sample.calls" | "core.events" => "count",
        "core.event_us.n" | "core.reconfigurations" | "core.requeues" => "count",
        "cluster.node_failures" => "count",
        "core.pending.peak" | "core.pending.mean" => "jobs",
        "workload.next_job.busy_s" | "metrics.on_sample.busy_s" => "s",
        "metrics.on_job.busy_s" | "core.self_s" => "s",
        "core.event_us.p50" | "core.event_us.p999" => "us",
        "core.event_us_per_kpending" => "us/kjobs",
        "core.goodput_ratio" | "trace.overhead_ratio" => "ratio",
        "slurm.passes_elided_ratio" => "ratio",
        "slurm.submit_us" | "slurm.schedule_us" | "slurm.backfill_pass_us" => "us",
        "slurm.decide_resize_us" | "slurm.complete_us" => "us",
        "sim.schedule_at_ns" | "sim.next_event_ns" => "ns",
        "cluster.allocate_ns" | "cluster.release_ns" => "ns",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 of 100 samples leaves one beyond it: not reportable.
        assert_eq!(percentile(&v, 0.99), None);
        let w: Vec<f64> = (1..=10_000).map(f64::from).collect();
        // 0.999 · 10000 = 9990 → exactly ten samples beyond.
        assert_eq!(percentile(&w, 0.999), Some(9_990.0));
        assert_eq!(percentile(&w[..9_999], 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn pending_is_pulled_minus_running_minus_completed() {
        assert_eq!(pending_depth(10, 3, 4), 3);
        assert_eq!(pending_depth(10, 0, 10), 0);
        // A requeued job leaves `running` without completing: it is
        // pending again.
        assert_eq!(pending_depth(10, 2, 4), 4);
        assert_eq!(pending_depth(1, 3, 0), 0);
    }

    #[test]
    fn slope_recovers_a_linear_cost() {
        // 2 µs per event plus 5 µs per thousand pending jobs.
        let depths: Vec<u32> = (0..50_000).map(|i| i % 4000).collect();
        let us: Vec<f32> = depths
            .iter()
            .map(|&d| 2.0 + 5.0 * d as f32 / 1000.0)
            .collect();
        assert!((slope_per_kpending(&depths, &us, f64::INFINITY) - 5.0).abs() < 0.01);
        // Flat cost: zero slope.
        let flat = vec![3.0; depths.len()];
        assert_eq!(slope_per_kpending(&depths, &flat, f64::INFINITY), 0.0);
        // Depth within one bucket: zero, however the cost varies.
        let shallow: Vec<u32> = (0..1000).map(|i| i % 12).collect();
        let mixed: Vec<f32> = shallow.iter().map(|&d| 1.0 + d as f32).collect();
        assert_eq!(slope_per_kpending(&shallow, &mixed, f64::INFINITY), 0.0);
        assert_eq!(slope_per_kpending(&[], &[], 1.0), 0.0);
    }

    #[test]
    fn slope_clips_outliers() {
        let depths: Vec<u32> = (0..4000).collect();
        let mut us = vec![1.0f32; depths.len()];
        // One stall at the deepest point would dominate the fit.
        us[3999] = 1e6;
        assert!(slope_per_kpending(&depths, &us, f64::INFINITY) > 100.0);
        assert!(slope_per_kpending(&depths, &us, 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_printed_metric_has_its_unit() {
        assert_eq!(unit_of("setup_s"), Some("s"));
        assert_eq!(unit_of("wall_s.fixed"), Some("s"));
        assert_eq!(unit_of("wall_s.flexible"), Some("s"));
        assert_eq!(unit_of("jobs_per_s"), Some("1/s"));
        assert_eq!(unit_of("peak_rss_mb"), Some("MB"));
        assert_eq!(unit_of("sim_makespan_ratio"), Some("ratio"));
        assert_eq!(unit_of("sim_avg_wait_s.flexible"), Some("s"));
        assert_eq!(unit_of("sim_energy_mj.flexible"), Some("MJ"));
        assert_eq!(unit_of("core.event_us.p999.flexible"), Some("us"));
        assert_eq!(unit_of("core.event_us.p999"), Some("us"));
        assert_eq!(
            unit_of("core.event_us_per_kpending.fixed"),
            Some("us/kjobs")
        );
        assert_eq!(unit_of("slurm.decide_resize_us.depth_peak"), Some("us"));
        assert_eq!(unit_of("sim.next_event_ns"), Some("ns"));
        assert_eq!(unit_of("no.such.metric"), None);
    }

    /// The string value of `"key"` in one flat JSON object fragment.
    fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let after = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
        let open = after.find('"')? + 1;
        let len = after[open..].find('"')?;
        Some(&after[open..open + len])
    }

    #[test]
    fn benchmark_manifest_units_match_the_printed_ones() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut metrics = 0;
        for object in manifest.split('{').skip(1) {
            let (Some(name), Some(unit)) = (field(object, "name"), field(object, "unit")) else {
                continue;
            };
            assert_eq!(unit_of(name), Some(unit), "{name}");
            metrics += 1;
        }
        assert!(metrics >= 8, "found {metrics} metrics in BENCHMARK.json");
    }
}
