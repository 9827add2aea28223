//! Metric catalogue, run outcome and the result line.
//!
//! The catalogue is the single list of metric names and units the
//! benchmark prints; `BENCHMARK.json` names the same metrics. Every
//! workload fills every metric of the catalogue it is asked for (a layer
//! that does no work on a workload reports 0), and [`Outcome::finish`]
//! refuses to print a result with a metric missing.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_s", "s"),
    ("msgs_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("completed_frac", "ratio"),
    ("sim_match_rate", "1/s"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simt.instructions", "count"),
    ("simt.launches", "count"),
    ("simt.cycles", "count"),
    ("simt.host_ns_per_instr", "ns"),
    ("simt.replay_probe_ns_per_op", "ns"),
    ("match.probe_host_s", "s"),
    ("match.prefilter_reject_ratio", "ratio"),
    ("match.skipped_launch_ratio", "ratio"),
    ("match.probe_dedups", "count"),
    ("match.batch_mean", "msgs"),
    ("sched.compute_s", "s"),
    ("sched.barrier_wait_s", "s"),
    ("sched.backpressure_s", "s"),
    ("sched.supervisor_sync_s", "s"),
    ("sched.thread_speedup", "ratio"),
    ("sched.profile_mismatch", "count"),
    ("svc.batches", "count"),
    ("svc.utilisation", "ratio"),
    ("svc.queue_depth_p99", "msgs"),
    ("svc.spilled", "count"),
    ("svc.shed", "count"),
    ("svc.migrations", "count"),
    ("tenancy.guaranteed_shed", "count"),
    ("recovery.crashes", "count"),
    ("recovery.recoveries", "count"),
    ("recovery.failovers", "count"),
    ("recovery.checkpoints", "count"),
    ("recovery.journal_replayed", "count"),
    ("recovery.replay_duplicates", "count"),
    ("recovery.latency_mean_us", "us"),
    ("domain.send_s", "s"),
    ("domain.post_s", "s"),
    ("domain.progress_s", "s"),
    ("domain.progress_calls", "count"),
    ("domain.umq_high_water", "msgs"),
    ("fabric.probe_host_s", "s"),
    ("fabric.packets", "count"),
    ("fabric.retransmit_ratio", "ratio"),
    ("fabric.credit_stall_ns", "ns"),
    ("fabric.wire_overhead", "ratio"),
    ("fabric.sim_finish_us", "us"),
    ("obs.export_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("obs.trace_dropped", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload attempted over the reference pass
    /// (service arrivals or posted receives).
    pub attempted: u64,
    /// Attempted operations that failed a correctness check.
    pub failed: u64,
    /// Descriptions of the failed checks (empty when correct).
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Record a failed check covering `ops` operations.
    pub fn violation(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.violations.push(what);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the result line for `catalogue`.
    ///
    /// # Errors
    /// Names the first catalogue metric the workload did not fill.
    pub fn finish(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Print the pass-time distribution of a run to standard error.
pub fn describe_passes(xs: &[f64]) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    eprintln!(
        "  {} timed passes: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} s",
        v.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ratio that reads 0 rather than NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
