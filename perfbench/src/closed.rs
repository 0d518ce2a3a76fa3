//! The closed-loop workloads: one client that sends its next request
//! only after the previous one completed.
//!
//! * `hc_cold` — Hc releases at K = 20 000, a fresh seed each, no
//!   store: the dense per-cell kernels dominate.
//! * `hg_sweep` — pipelined 50-point ε sweeps with Hg, a fresh seed
//!   each, on a durable store: per-request overhead (admission, the
//!   ledger fsync, consistency, CSV encode) dominates.
//!
//! Only the request itself is on the clock; the gate runs between
//! requests (`hg_sweep`) or after the loop (`hc_cold`). A closed loop
//! has one load level, so the per-rate latency metrics of
//! `mixed_open` report that level under every rate name.

use std::time::{Duration, Instant};

use hcc_consistency::TopDownConfig;
use hcc_engine::protocol::level_method;
use rand::Rng;

use crate::gate::{check_ledger, check_reference, check_release, Quality};
use crate::metrics::{median, ms, peak_rss_mb, quantile, Report};
use crate::stack::{fill_store, params, rng_for, Inputs, Res, Stack, StateDir};
use crate::trace::WireSample;

/// p90 latency limit of one `hc_cold` release, in ms.
pub const HC_SLO_MS: f64 = 2_000.0;
/// p90 latency limit of one whole `hg_sweep` sweep, in ms.
pub const SWEEP_SLO_MS: f64 = 1_000.0;

/// Purpose tags of the request-seed streams, shared with the traced
/// replay so it replays exactly the requests the wire run sent.
pub const HC_SEEDS: u64 = 1;
/// See [`HC_SEEDS`].
pub const SWEEP_SEEDS: u64 = 2;

/// The sweep's ε grid: i/16 for i = 1..=points. Dyadic values keep
/// every ledger sum exact in f64, so the ledger check needs no
/// tolerance.
pub fn sweep_grid(points: usize) -> Vec<f64> {
    (1..=points).map(|i| i as f64 / 16.0).collect()
}

/// The top-down configuration the server builds for `method`.
pub fn release_config(method: &str, epsilon: f64, bound: u64) -> Res<TopDownConfig> {
    Ok(TopDownConfig::new(epsilon).with_method(level_method(method, bound)?))
}

/// Latencies and counts of one closed-loop run.
#[derive(Default)]
struct Loop {
    latencies_ms: Vec<f64>,
    on_clock: Duration,
    releases: u64,
    turnaround_ms: Vec<f64>,
    queue_full: u64,
    quality: Quality,
}

impl Loop {
    /// Fills the end-to-end metrics every closed-loop workload shares.
    fn finish(self, report: &mut Report, slo_ms: f64) {
        let p50 = median(&self.latencies_ms);
        let p90 = quantile(&self.latencies_ms, 0.9).unwrap_or(0.0);
        let requests_per_s = self.latencies_ms.len() as f64 / self.on_clock.as_secs_f64();
        report.set(
            "releases_per_s",
            self.releases as f64 / self.on_clock.as_secs_f64(),
        );
        report.set("latency_p50_ms", p50);
        for rate in ["low", "mid", "high"] {
            report.set(&format!("p50_ms.{rate}"), p50);
            report.set(&format!("p90_ms.{rate}"), p90);
        }
        report.set(
            "max_rate_at_slo",
            if p90 <= slo_ms { requests_per_s } else { 0.0 },
        );
        report.set(
            "ok_ratio",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
        report.set("emd_per_group", self.quality.per_group());
        report.set("peak_rss_mb", peak_rss_mb());
        report.set(
            "loadgen.lag_p90_ms",
            quantile(&self.turnaround_ms, 0.9).unwrap_or(0.0),
        );
        report.set("loadgen.sent", report.attempted as f64);
        report.set(
            "loadgen.completed",
            (report.attempted - report.failed) as f64,
        );
        report.set("hcc-engine.queue_full", self.queue_full as f64);
    }
}

/// `hc_cold`: closed-loop Hc releases for `seconds`.
pub fn hc_cold(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Res<(Stack, Vec<WireSample>)> {
    let bound = inputs.size.hc_bound;
    let mut stack = Stack::boot_timed(inputs, None, report)?;
    let mut seeds = rng_for(seed, HC_SEEDS);
    let (h, d) = (&inputs.main.hierarchy, &inputs.main.data);
    let handle = stack.handle;
    let client = &mut stack.client;
    let mut samples = Vec::new();

    // One untimed release warms allocator and caches.
    let warm = params("hc", 1.0, bound, seeds.gen());
    let warm = client
        .submit_prepared(&warm, handle)
        .map_err(|e| format!("warm-up io: {e}"))?;
    if let Err(e) = warm.and_then(|r| check_release(h, d, &r.csv, Some(bound)).map(drop)) {
        report.fail(format!("warm-up release: {e}"));
    }

    // The gate runs after the loop: checking between requests slows
    // the next Hc release (measured), so releases are kept until then.
    let mut run = Loop::default();
    let mut served: Vec<(u64, String)> = Vec::new();
    let start = Instant::now();
    let mut ready = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let p = params("hc", 1.0, bound, seeds.gen());
        let t0 = Instant::now();
        run.turnaround_ms.push(ms(t0 - ready));
        let outcome = client
            .submit_prepared(&p, handle)
            .map_err(|e| format!("submit io: {e}"))?;
        let dt = t0.elapsed();
        samples.push(WireSample::closed("wire.submit", p.seed, t0, dt));
        report.attempted += 1;
        match outcome {
            Err(e) => {
                report.failed += 1;
                run.queue_full += u64::from(e.starts_with(hcc_engine::protocol::BUSY));
                eprintln!("hc_cold: request failed: {e}");
            }
            Ok(r) => {
                run.latencies_ms.push(ms(dt));
                run.on_clock += dt;
                run.releases += 1;
                if r.from_cache {
                    report.fail(format!("fresh seed {} was served from cache", p.seed));
                }
                served.push((p.seed, r.csv));
            }
        }
        ready = Instant::now();
    }
    for (s, csv) in &served {
        match check_release(h, d, csv, Some(bound)) {
            Ok(q) => run.quality.add(q),
            Err(e) => report.fail(format!("hc release seed {s}: {e}")),
        }
    }
    if let Some((s, csv)) = served.first() {
        let cfg = release_config("hc", 1.0, bound)?;
        report.check(check_reference(h, d, &cfg, *s, csv));
    }
    run.finish(report, HC_SLO_MS);
    Ok((stack, samples))
}

/// `hg_sweep`: closed-loop pipelined Hg ε sweeps on a durable store
/// for `seconds`.
pub fn hg_sweep(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    state: &StateDir,
    report: &mut Report,
) -> Res<(Stack, Vec<WireSample>)> {
    let store = state.store();
    fill_store(inputs, &store)?;
    let mut stack = Stack::boot_timed(inputs, Some(&store), report)?;
    let (h, d) = (&inputs.main.hierarchy, &inputs.main.data);
    let grid = sweep_grid(inputs.size.sweep_points);
    let mut seeds = rng_for(seed, SWEEP_SEEDS);
    let handle = stack.handle;
    let spent_before = stack.engine.budget_spent(handle).unwrap_or(0.0);
    let client = &mut stack.client;
    let mut samples = Vec::new();
    // ε of every computed (charged) release, in the order accepted.
    let mut charged = 0.0;

    let mut sweep = |client: &mut hcc_engine::MuxClient| {
        let base = params("hg", 1.0, 0, seeds.gen());
        let t0 = Instant::now();
        let points = client
            .sweep(&base, handle, &grid)
            .map_err(|e| format!("sweep io: {e}"))?;
        Ok::<_, String>((base.seed, t0, t0.elapsed(), points))
    };

    // One untimed sweep warms allocator, caches and the WAL file.
    let (_, _, _, warm) = sweep(client)?;
    for p in &warm {
        match &p.outcome {
            Ok(r) if !r.from_cache => charged += p.epsilon,
            Ok(_) => {}
            Err(e) => report.fail(format!("warm-up sweep point: {e}")),
        }
    }

    let mut run = Loop::default();
    let mut first: Option<(u64, f64, String)> = None;
    let start = Instant::now();
    let mut ready = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        run.turnaround_ms.push(ms(ready.elapsed()));
        let (s, t0, dt, points) = sweep(client)?;
        samples.push(WireSample::closed("wire.sweep", s, t0, dt));
        report.attempted += points.len() as u64;
        report.failed += points.iter().filter(|p| p.outcome.is_err()).count() as u64;
        run.latencies_ms.push(ms(dt));
        run.on_clock += dt;
        for p in points {
            match p.outcome {
                Err(e) => {
                    run.queue_full += u64::from(e.starts_with(hcc_engine::protocol::BUSY));
                    eprintln!("hg_sweep: point ε={} failed: {e}", p.epsilon);
                }
                Ok(r) => {
                    run.releases += 1;
                    if r.from_cache {
                        report.fail(format!("fresh sweep seed {s} was served from cache"));
                    } else {
                        charged += p.epsilon;
                    }
                    match check_release(h, d, &r.csv, None) {
                        Ok(q) => run.quality.add(q),
                        Err(e) => report.fail(format!("hg release ε={}: {e}", p.epsilon)),
                    }
                    if first.is_none() {
                        first = Some((s, p.epsilon, r.csv));
                    }
                }
            }
        }
        ready = Instant::now();
    }
    if let Some((s, eps, csv)) = first {
        let cfg = release_config("hg", eps, 0)?;
        report.check(check_reference(h, d, &cfg, s, &csv));
    }
    report.check(check_ledger(
        "main dataset",
        stack.engine.budget_spent(handle),
        spent_before + charged,
    ));
    run.finish(report, SWEEP_SLO_MS);
    Ok((stack, samples))
}
