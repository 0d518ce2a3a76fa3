//! Metric names and units, sample statistics, and the result line.
//!
//! The two tables below are the single list of what a run prints:
//! `--trace 0` prints every [`END_TO_END`] metric, `--trace 1` every
//! [`PER_LAYER`] metric, for every workload. `BENCHMARK.json` repeats
//! them; a self-test keeps the two in step.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: what a client of the server sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("releases_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("p50_ms.low", "ms"),
    ("p90_ms.low", "ms"),
    ("p50_ms.mid", "ms"),
    ("p90_ms.mid", "ms"),
    ("p50_ms.high", "ms"),
    ("p90_ms.high", "ms"),
    ("max_rate_at_slo", "1/s"),
    ("ok_ratio", "ratio"),
    ("emd_per_group", "entities/group"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, named `<layer>.<metric>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hcc-core.view_ms", "ms"),
    ("hcc-core.dense_cells", "count"),
    ("hcc-noise.noise_ms", "ms"),
    ("hcc-noise.ns_per_draw", "ns"),
    ("hcc-isotonic.fit_ms", "ms"),
    ("hcc-isotonic.ns_per_cell", "ns"),
    ("hcc-isotonic.blocks_per_node", "count"),
    ("hcc-estimators.self_ms", "ms"),
    ("hcc-estimators.occupied_cell_ratio", "ratio"),
    ("hcc-consistency.topdown_ms", "ms"),
    ("hcc-consistency.csv_ms", "ms"),
    ("hcc-consistency.stage_coverage", "ratio"),
    ("hcc-engine.in_process_ms", "ms"),
    ("hcc-engine.parallel_speedup", "x"),
    ("hcc-engine.tasks_executed", "count"),
    ("hcc-engine.tasks_stolen", "count"),
    ("hcc-engine.cache_hit_ratio", "ratio"),
    ("hcc-engine.queue_full", "count"),
    ("registry.prepare_ms", "ms"),
    ("registry.derive_ms", "ms"),
    ("hcc-data.delta_apply_ms", "ms"),
    ("wire.overhead_us", "us"),
    ("wire.frames_in", "count"),
    ("wire.bytes_out", "bytes"),
    ("wire.parked", "count"),
    ("wire.busy", "count"),
    ("hcc-store.charge_us_p50", "us"),
    ("hcc-store.charge_us_p90", "us"),
    ("hcc-store.open_ms", "ms"),
    ("hcc-store.put_ms", "ms"),
    ("hcc-store.wal_bytes_per_release", "bytes"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("trace.release_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of unsorted samples; `None`
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (nearest rank), 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// A duration in milliseconds, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured: the metric values, request counts, and every
/// correctness-gate failure.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Requests the load generator attempted.
    pub attempted: u64,
    /// Attempted requests that errored, were shed with `BUSY`, or
    /// were refused.
    pub failed: u64,
    /// Correctness-gate failures; any one makes the run fail.
    pub gate_failures: Vec<String>,
    /// Wall time of every stack boot, in seconds.
    pub boots_s: Vec<f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a gate failure.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.gate_failures.push(what.into());
    }

    /// Records the outcome of one gate check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// The run's result line: one JSON object holding exactly the
    /// metrics of `table`, each with its unit. A metric the run did
    /// not record, or one that is not finite, is a gate failure.
    pub fn result_line(&mut self, table: &[(&str, &str)]) -> String {
        let missing: Vec<String> = table
            .iter()
            .filter(|(name, _)| !self.metrics.contains_key(*name))
            .map(|(name, _)| format!("metric {name} was not measured"))
            .collect();
        self.gate_failures.extend(missing);
        let not_finite: Vec<String> = table
            .iter()
            .filter(|(name, _)| self.metrics.get(*name).is_some_and(|v| !v.is_finite()))
            .map(|(name, _)| format!("metric {name} is not a finite number"))
            .collect();
        self.gate_failures.extend(not_finite);
        if self.attempted == 0 {
            self.fail("the run attempted no request");
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; JSON has no NaN or infinity, so those print as 0
/// (and fail the run, see [`Report::result_line`]).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.9), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        let line = r.result_line(&[("setup_s", "s"), ("ok_ratio", "ratio")]);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(r.gate_failures[0].contains("ok_ratio"));
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("setup_s", f64::NAN);
        let line = r.result_line(&[("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": 0,"));
    }
}
