//! Integration tests of the engine telemetry subsystem: Prometheus
//! exposition shape, the METRICS/TRACE wire verbs over loopback, the
//! span recorder's wall-clock coverage, and snapshot consistency
//! under concurrent readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hccount::consistency::{LevelMethod, TopDownConfig};
use hccount::data::{Dataset, DatasetKind};
use hccount::engine::{
    chrome_trace_json, protocol::SubmitParams, serve_reactor, Client, Engine, EngineConfig,
    ReactorConfig, ReleaseRequest, SpanKind,
};

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Housing, 0.001, 5)
}

fn config() -> TopDownConfig {
    TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 500 })
}

fn request(ds: &Dataset, seed: u64) -> ReleaseRequest {
    ReleaseRequest::new(
        Arc::new(ds.hierarchy.clone()),
        Arc::new(ds.data.clone()),
        config(),
        seed,
    )
}

/// Runs `jobs` fresh-seeded releases to completion on `engine`.
fn run_jobs(engine: &Engine, ds: &Dataset, jobs: u64) {
    let ids: Vec<_> = (0..jobs)
        .map(|i| engine.submit(request(ds, 100 + i)).unwrap())
        .collect();
    for id in ids {
        engine.wait(id).unwrap();
    }
}

/// Golden-text shape of the exposition: every series the docs promise
/// is present with `# HELP`/`# TYPE` headers, every sample line
/// parses, histogram buckets are cumulative (monotone, `+Inf` equal
/// to `_count`), and derived quantiles are ordered p50 ≤ p95 ≤ p99.
#[test]
fn metrics_exposition_is_well_formed() {
    let ds = dataset();
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    run_jobs(&engine, &ds, 3);
    let text = engine.telemetry().to_prometheus();

    for name in [
        "hcc_jobs_submitted_total",
        "hcc_jobs_completed_total",
        "hcc_jobs_failed_total",
        "hcc_cache_hits_total",
        "hcc_cache_misses_total",
        "hcc_datasets_prepared_total",
        "hcc_datasets_derived_total",
        "hcc_trace_spans_dropped_total",
        "hcc_workers",
        "hcc_queue_depth",
        "hcc_prepared_datasets",
        "hcc_uptime_seconds",
        "hcc_tasks_executed_total",
        "hcc_tasks_stolen_total",
        "hcc_steal_attempts_total",
        "hcc_steal_successes_total",
        "hcc_steal_failed_probes_total",
        "hcc_worker_idle_seconds_total",
        "hcc_queue_wait_seconds",
        "hcc_expand_seconds",
        "hcc_gate_wait_seconds",
        "hcc_task_seconds",
        "hcc_finalize_seconds",
        "hcc_worker_idle_seconds",
        "hcc_estimate_seconds",
    ] {
        assert!(
            text.contains(&format!("# HELP {name} ")),
            "missing HELP for {name}"
        );
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "missing TYPE for {name}"
        );
    }

    // Every sample line is `name[{labels}] value` with a numeric value.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            !series.is_empty() && series.starts_with("hcc_"),
            "unexpected series {line:?}"
        );
        value.parse::<f64>().unwrap_or_else(|_| {
            panic!("value of {series} is not numeric: {value:?}");
        });
    }

    // Histogram buckets are cumulative and capped by their _count.
    for series in ["hcc_task_seconds", "hcc_queue_wait_seconds"] {
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(&format!("{series}_bucket{{le=")))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(!buckets.is_empty(), "{series} has no bucket lines");
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{series} buckets must be cumulative: {buckets:?}"
        );
        let count: u64 = text
            .lines()
            .find(|l| l.starts_with(&format!("{series}_count ")))
            .and_then(|l| l.rsplit_once(' ')?.1.parse().ok())
            .expect("histogram _count line");
        assert_eq!(
            *buckets.last().unwrap(),
            count,
            "{series}: +Inf bucket must equal _count"
        );
        assert!(count > 0, "{series} must have recorded samples");

        let q: Vec<f64> = ["0.5", "0.95", "0.99"]
            .iter()
            .map(|qs| {
                text.lines()
                    .find(|l| l.starts_with(&format!("{series}_quantile{{q=\"{qs}\"}}")))
                    .and_then(|l| l.rsplit_once(' ')?.1.parse().ok())
                    .expect("quantile line")
            })
            .collect();
        assert!(
            q[0] <= q[1] && q[1] <= q[2],
            "{series} quantiles must be ordered: {q:?}"
        );
    }

    // Estimation time is split by level method; this workload is all
    // Hc, so the hc label must carry every estimate sample.
    let hc_count: u64 = text
        .lines()
        .find(|l| l.starts_with("hcc_estimate_seconds_count{method=\"hc\"}"))
        .and_then(|l| l.rsplit_once(' ')?.1.parse().ok())
        .expect("per-method estimate count");
    assert!(hc_count > 0, "Hc workload must record hc-labelled samples");
}

/// The METRICS and TRACE verbs over a real loopback connection: the
/// client fetches the exposition with live job counters, and TRACE on
/// a recorder-off server returns a valid empty dump.
#[test]
fn metrics_and_trace_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let params = SubmitParams {
        epsilon: 1.0,
        method: "hc".into(),
        bound: 500,
        seed: 7,
        handle: None,
    };
    let id = client
        .submit(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .expect("server accepts the submission");
    client.wait(id).unwrap().expect("job completes");

    let text = client.metrics().unwrap();
    assert!(
        text.contains("hcc_jobs_submitted_total 1\n"),
        "exposition must carry the live submit counter:\n{text}"
    );
    assert!(
        text.contains("hcc_jobs_completed_total 1\n"),
        "exposition must carry the live completion counter"
    );
    assert!(text.contains("hcc_workers 2\n"));

    // Tracing is off by default: the dump is empty, not an error.
    let spans = client.trace().unwrap();
    assert!(spans.is_empty(), "recorder off ⇒ no spans, got {spans:?}");
    assert!(client.ping().unwrap(), "connection survives both verbs");
}

/// Acceptance criterion: an 8-job batch at 4 workers with the span
/// recorder on yields a Chrome-trace dump whose spans account for
/// ≥ 90% of each worker's busy window, with no overlapping spans on
/// any worker lane.
#[test]
fn trace_spans_cover_at_least_90_percent_of_worker_wallclock() {
    let ds = dataset();
    let engine = Engine::start(
        EngineConfig::default()
            .with_workers(4)
            .with_cache_capacity(0)
            .with_trace_capacity(1 << 16),
    );
    run_jobs(&engine, &ds, 8);

    let spans = engine.take_trace();
    assert!(!spans.is_empty(), "recorder on ⇒ spans");
    for w in 0..4u32 {
        let mut lane: Vec<_> = spans.iter().filter(|s| s.worker == w).collect();
        assert!(!lane.is_empty(), "worker {w} recorded no spans");
        lane.sort_by_key(|s| s.start_ns);
        for pair in lane.windows(2) {
            assert!(
                pair[0].end_ns <= pair[1].start_ns,
                "worker {w}: overlapping spans {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
        // The busy window ends at the last span: the final park is
        // still open when we drain, so it has no end to account for.
        let window = lane.last().unwrap().end_ns - lane.first().unwrap().start_ns;
        let covered: u64 = lane.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!(
            covered * 10 >= window * 9,
            "worker {w}: spans cover {covered} of {window} ns (< 90%)"
        );
        // Work spans, not idle, must dominate a saturated batch.
        assert!(
            lane.iter().any(|s| s.kind == SpanKind::Task),
            "worker {w} ran no task spans"
        );
    }

    // The dump renders as loadable Chrome-trace JSON.
    let json = chrome_trace_json(&spans);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"name\":\"worker-3\""), "4 worker lanes");
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        spans.len(),
        "one complete event per span"
    );

    // A second drain holds no *work* spans: TRACE is consume-once.
    // (Idle workers waking between the drains may legitimately record
    // new sched/idle spans, so only the task-lifecycle kinds must be
    // gone.)
    assert!(engine
        .take_trace()
        .iter()
        .all(|s| matches!(s.kind, SpanKind::Sched | SpanKind::Idle)));
}

/// `Engine::stats` must never expose an in-flight job as both
/// unsubmitted and completed: concurrent readers hammering the
/// snapshot while 32 jobs run always observe
/// `completed + failed ≤ submitted` and
/// `cache_hits + cache_misses ≤ submitted`, with `submitted`
/// monotonically non-decreasing per reader.
#[test]
fn stats_snapshot_stays_consistent_under_concurrent_load() {
    let ds = dataset();
    let engine = Engine::start(EngineConfig::default().with_workers(4));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last_submitted = 0;
                while !done.load(Ordering::Relaxed) {
                    let s = engine.stats();
                    assert!(
                        s.completed + s.failed <= s.submitted,
                        "snapshot tore: {} completed + {} failed > {} submitted",
                        s.completed,
                        s.failed,
                        s.submitted
                    );
                    assert!(
                        s.cache_hits + s.cache_misses <= s.submitted,
                        "snapshot tore: {} hits + {} misses > {} submitted",
                        s.cache_hits,
                        s.cache_misses,
                        s.submitted
                    );
                    assert!(
                        s.submitted >= last_submitted,
                        "submitted went backwards: {} < {last_submitted}",
                        s.submitted
                    );
                    last_submitted = s.submitted;
                }
            });
        }
        // First wave computes 12 fresh seeds (reads race in-flight
        // completions); the second wave repeats them, so every repeat
        // takes the cache-hit admission path — submitted, completed
        // and cache_hits bumped in one critical section.
        let fresh: Vec<_> = (0..12u64)
            .map(|i| engine.submit(request(&ds, 100 + i)).unwrap())
            .collect();
        for id in fresh {
            engine.wait(id).unwrap();
        }
        let repeats: Vec<_> = (0..20u64)
            .map(|i| engine.submit(request(&ds, 100 + i % 12)).unwrap())
            .collect();
        for id in repeats {
            engine.wait(id).unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    let s = engine.stats();
    assert_eq!(s.submitted, 32);
    assert_eq!((s.completed, s.failed), (32, 0));
    assert_eq!((s.cache_hits, s.cache_misses), (20, 12));
}
