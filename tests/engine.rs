//! Integration tests of the `hcc-engine` subsystem: multi-worker
//! byte-identity with the direct library call, and the TCP server
//! driven end-to-end over a loopback connection.

use std::sync::Arc;
use std::time::Duration;

use hccount::consistency::{to_csv, top_down_release, LevelMethod, TopDownConfig};
use hccount::data::{Dataset, DatasetKind};
use hccount::data::{DatasetDelta, DeltaOp};
use hccount::engine::{
    protocol::SubmitParams, serve_reactor, Client, DatasetHandle, Engine, EngineConfig,
    EngineError, JobStatus, ReactorConfig, ReleaseRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Housing, 0.001, 5)
}

fn config() -> TopDownConfig {
    TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 1000 })
}

/// Acceptance criterion: the engine with ≥2 workers produces a
/// byte-identical release CSV to a direct single-threaded
/// `top_down_release` call with the same seed.
#[test]
fn engine_multi_worker_release_is_byte_identical_to_direct_call() {
    let ds = dataset();
    let cfg = config();
    let direct = {
        let mut rng = StdRng::seed_from_u64(99);
        to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        )
    };

    let engine = Engine::start(EngineConfig::default().with_workers(4));
    let hierarchy = Arc::new(ds.hierarchy);
    let data = Arc::new(ds.data);
    for _ in 0..2 {
        // Second round exercises the cache path; bytes must not change.
        let id = engine
            .submit(ReleaseRequest::new(
                Arc::clone(&hierarchy),
                Arc::clone(&data),
                cfg.clone(),
                99,
            ))
            .unwrap();
        let (result, _) = engine.wait(id).unwrap();
        assert_eq!(result.csv, direct);
    }
    let stats = engine.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
}

/// The three CSV tables a server submission needs (the `hcc
/// generate` emitter, shared via [`Dataset::to_csv_tables`]).
fn tables(ds: &Dataset) -> (String, String, String) {
    ds.to_csv_tables()
}

/// Acceptance criterion: submit → poll → fetch over a real loopback
/// TCP connection.
#[test]
fn serve_end_to_end_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let expected = {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TopDownConfig::new(2.0).with_method(LevelMethod::Cumulative { bound: 500 });
        to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        )
    };

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.ping().unwrap());

    let params = SubmitParams {
        epsilon: 2.0,
        method: "hc".into(),
        bound: 500,
        seed: 7,
        handle: None,
    };
    let id = client
        .submit(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .expect("server accepts a well-formed submission");

    // Poll until done, then fetch; the released bytes must match the
    // direct library call (the server round-trips CSV losslessly).
    loop {
        let status = client.status(id).unwrap();
        if status.starts_with("DONE") {
            break;
        }
        assert!(
            status == "QUEUED" || status == "RUNNING",
            "unexpected status {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let fetched = client.fetch(id).unwrap().unwrap();
    assert_eq!(fetched.csv, expected);
    assert!(!fetched.from_cache);

    // A second identical submission is served from the cache; WAIT
    // both blocks and downloads.
    let id2 = client
        .submit(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let again = client.wait(id2).unwrap().unwrap();
    assert_eq!(again.csv, expected);
    assert!(again.from_cache);

    let stats = client.stats().unwrap();
    assert!(stats.contains("cache_hits=1"), "{stats}");
    assert!(stats.contains("submitted=2"), "{stats}");

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance criterion: `PREPARE` → `SUBMIT`-by-handle → `UNPREPARE`
/// over loopback TCP. Releases via a prepared handle are byte-
/// identical to inline submissions with the same seed, and an ε-sweep
/// over one handle streams per-ε results on a single connection.
#[test]
fn prepare_sweep_unprepare_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let ds_handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .expect("server accepts well-formed tables");
    // Content-addressed: preparing the same tables again returns the
    // same handle (and bumps the refcount).
    let again = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    assert_eq!(ds_handle, again);
    let stats = client.stats().unwrap();
    // `prepared=` counts PREPARE calls accepted (mirrors
    // `EngineStats::prepared`); `prepared_datasets=` is the live
    // registry size — two preparations of identical content are one
    // dataset.
    assert!(stats.contains("prepared=2"), "{stats}");
    assert!(stats.contains("prepared_datasets=1"), "{stats}");

    // Inline and by-handle submissions of the same request must be
    // byte-identical — and share one cache entry.
    let params = SubmitParams {
        epsilon: 1.5,
        method: "hc".into(),
        bound: 500,
        seed: 3,
        handle: None,
    };
    let inline_id = client
        .submit(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let inline = client.wait(inline_id).unwrap().unwrap();
    let by_handle_id = client.submit_prepared(&params, ds_handle).unwrap().unwrap();
    let by_handle = client.wait(by_handle_id).unwrap().unwrap();
    assert_eq!(inline.csv, by_handle.csv);
    assert!(
        by_handle.from_cache,
        "handle submission must hit the cache entry the inline one filled"
    );

    // ε-sweep over the prepared handle, streamed in grid order.
    let epsilons = [0.5, 1.0, 2.0];
    let mut seen = Vec::new();
    client
        .sweep(&params, ds_handle, &epsilons, |eps, result| {
            let release = result.expect("sweep point succeeds");
            // Every sweep point must match a direct library release
            // with the same seed.
            let mut rng = StdRng::seed_from_u64(3);
            let cfg = TopDownConfig::new(eps).with_method(LevelMethod::Cumulative { bound: 500 });
            let direct = to_csv(
                &ds.hierarchy,
                &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
            );
            assert_eq!(release.csv, direct, "eps={eps}");
            seen.push(eps);
        })
        .unwrap();
    assert_eq!(seen, epsilons);

    // Two references were taken; both must be dropped to free it.
    assert_eq!(client.unprepare(ds_handle).unwrap().unwrap(), 1);
    assert_eq!(client.unprepare(ds_handle).unwrap().unwrap(), 0);
    let err = client
        .submit_prepared(&params, ds_handle)
        .unwrap()
        .unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");

    client.quit().unwrap();
    handle.shutdown();
}

/// A sweep wider than the server's bounded job queue must still
/// complete: the client drains its oldest in-flight point when the
/// queue pushes back, preserving grid order.
#[test]
fn sweep_wider_than_the_queue_backpressures_and_completes() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // One worker, one queue slot, no cache: at most two points can be
    // in flight, so a 5-point grid must exercise the retry path.
    let engine = Engine::start(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0),
    );
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ds_handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let epsilons = [0.5, 0.75, 1.0, 1.5, 2.0];
    let mut seen = Vec::new();
    client
        .sweep(&params, ds_handle, &epsilons, |eps, result| {
            result.expect("every point completes despite queue pressure");
            seen.push(eps);
        })
        .unwrap();
    assert_eq!(seen, epsilons, "results stream in grid order");
    client.quit().unwrap();
    handle.shutdown();
}

/// Unknown and evicted handles are distinguishable wire errors, and a
/// SUBMIT that carries both a handle and data sections is rejected.
#[test]
fn unknown_and_evicted_handles_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // Capacity-1 registry: the second PREPARE evicts the first.
    let engine = Engine::start(EngineConfig::default().with_prepared_capacity(1));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let params = SubmitParams::default();

    // Never-prepared handle.
    let bogus: DatasetHandle = "ds-00000000000000000000000000000000".parse().unwrap();
    let err = client.submit_prepared(&params, bogus).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");
    let err = client.unprepare(bogus).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");

    // Prepare A, then B (a different dataset): A is evicted and says so.
    let a = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let other = Dataset::generate(DatasetKind::Housing, 0.001, 6);
    let (h2, g2, e2) = tables(&other);
    let b = client.prepare(&h2, &g2, &e2).unwrap().unwrap();
    assert_ne!(a, b);
    let err = client.submit_prepared(&params, a).unwrap().unwrap_err();
    assert!(err.contains("evicted"), "{err}");
    assert!(client.submit_prepared(&params, b).unwrap().is_ok());

    // Handle + sections on one SUBMIT is malformed (but well-framed,
    // so the connection survives).
    let mut p = params.clone();
    p.handle = Some(b);
    let err = client
        .submit(&p, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap_err();
    assert!(err.contains("takes no data sections"), "{err}");
    assert!(client.ping().unwrap());

    // Malformed handle on the raw wire: the server rejects it with a
    // one-line ERR and the connection stays usable.
    {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write!(stream, "UNPREPARE nope\nPING\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR"), "{line:?}");
        assert!(line.contains("malformed dataset handle"), "{line:?}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "PONG");
    }

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance criterion: `DERIVE`/`APPEND` over loopback TCP. The
/// derived handle chains content fingerprints (equal to a cold
/// `PREPARE` of the post-delta tables), releases from it are
/// byte-identical to a direct library release of the post-delta
/// dataset, and `APPEND` drops one reference on the parent.
#[test]
fn derive_and_append_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // A delta built from real data so it is valid at any scale: one
    // group resized, two added, one removed.
    let leaf = ds
        .hierarchy
        .leaves()
        .find(|&l| !ds.data.node(l).is_empty())
        .expect("generated data has an occupied leaf");
    let size = ds.data.node(leaf).max_size().unwrap();
    let region = ds.hierarchy.name(leaf).to_string();
    let delta = DatasetDelta {
        ops: vec![
            DeltaOp::Resize {
                region: region.clone(),
                old_size: size,
                new_size: size + 2,
                count: 1,
            },
            DeltaOp::Add {
                region: region.clone(),
                size: 1,
                count: 2,
            },
        ],
    };
    let post = ds.apply_delta(&delta).unwrap();

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let parent = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    let derived = client.derive(parent, &delta).unwrap().unwrap();
    assert_ne!(derived, parent);

    // Fingerprint chaining: a cold PREPARE of the post-delta tables
    // must return the *same* handle as the server-side derivation.
    let (h2, g2, e2) = post.to_csv_tables();
    let cold = client.prepare(&h2, &g2, &e2).unwrap().unwrap();
    assert_eq!(cold, derived);

    // Releases from the derived handle equal a direct library release
    // of the post-delta dataset.
    let params = SubmitParams {
        epsilon: 1.25,
        method: "hc".into(),
        bound: 500,
        seed: 17,
        handle: None,
    };
    let id = client.submit_prepared(&params, derived).unwrap().unwrap();
    let release = client.wait(id).unwrap().unwrap();
    let direct = {
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = TopDownConfig::new(1.25).with_method(LevelMethod::Cumulative { bound: 500 });
        to_csv(
            &post.hierarchy,
            &top_down_release(&post.hierarchy, &post.data, &cfg, &mut rng).unwrap(),
        )
    };
    assert_eq!(release.csv, direct);

    let stats = client.stats().unwrap();
    assert!(stats.contains("derived=1"), "{stats}");

    // APPEND: derives and drops one reference on the parent. The
    // parent held one reference, so it disappears.
    let append_delta = DatasetDelta {
        ops: vec![DeltaOp::Add {
            region,
            size: 2,
            count: 1,
        }],
    };
    let chained = client.append(derived, &append_delta).unwrap().unwrap();
    assert_ne!(chained, derived);
    // `derived` had two references (DERIVE + cold PREPARE); APPEND
    // dropped one, so it is still registered.
    assert_eq!(client.unprepare(derived).unwrap().unwrap(), 0);
    assert!(client.submit_prepared(&params, chained).unwrap().is_ok());

    // Bad deltas are one-line rejections that keep the connection:
    // removing groups that are not there, then a malformed parent
    // handle (its DELTA section must still be drained).
    let bad = DatasetDelta {
        ops: vec![DeltaOp::Remove {
            region: "nowhere".into(),
            size: 1,
            count: 1,
        }],
    };
    let err = client.derive(chained, &bad).unwrap().unwrap_err();
    assert!(err.contains("unknown region"), "{err}");
    // `derived` was fully unprepared above, so deriving from it is a
    // distinguishable unknown-handle rejection.
    let err = client.derive(derived, &append_delta).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");
    {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write!(
            stream,
            "DERIVE nope\nDELTA 1\nop,region,size,new_size,count\nEND\nPING\n"
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("malformed dataset handle"), "{line:?}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "PONG");
    }
    assert!(client.ping().unwrap());

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance smoke for the O(delta) win (the full measurement is the
/// `engine_derive` criterion bench, which shows ~29×): deriving a
/// 1%-changed dataset over the wire must beat a cold `PREPARE` of the
/// post-delta tables by a conservative 4× — the derive ships a
/// few-line delta and re-aggregates touched paths, the cold prepare
/// re-ships and re-parses one CSV row per entity.
#[test]
fn derive_beats_cold_prepare_by_a_wide_margin() {
    let ds = Dataset::generate(DatasetKind::Housing, 0.3, 6);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    // Resize ~1% of all groups (same delta shape as the
    // `engine_derive` bench, via the shared builder).
    let delta = DatasetDelta::resize_sample(&ds, 100);
    let post = ds.apply_delta(&delta).unwrap();
    let (post_h, post_g, post_e) = post.to_csv_tables();

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let parent = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    // Min-of-3 on both sides keeps the comparison robust to load
    // spikes on shared CI machines.
    let mut derive_time = Duration::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        client.derive(parent, &delta).unwrap().unwrap();
        derive_time = derive_time.min(t.elapsed());
    }
    let mut prepare_time = Duration::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        client.prepare(&post_h, &post_g, &post_e).unwrap().unwrap();
        prepare_time = prepare_time.min(t.elapsed());
    }
    assert!(
        derive_time * 4 < prepare_time,
        "derive {derive_time:?} must be at least 4x faster than cold prepare {prepare_time:?}"
    );
    client.quit().unwrap();
    handle.shutdown();
}

/// Satellite regression: an idle connection must not pin one of the
/// bounded connection slots forever. With a one-slot server and a
/// short read timeout, an idle client is disconnected and a
/// subsequent client's submit goes through.
#[test]
fn idle_client_no_longer_blocks_a_subsequent_submit() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let handle = serve_reactor(
        Arc::new(engine),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_max_connections(1)
            .with_read_timeout(Some(Duration::from_millis(150))),
    )
    .unwrap();

    // The idle client takes the only slot and sends nothing.
    let idle = TcpStream::connect(handle.addr()).unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());

    // While the slot is held, new clients are turned away with the
    // busy line (this also proves the slot really was pinned).
    let mut probe = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
    let mut line = String::new();
    probe.read_line(&mut line).unwrap();
    assert!(line.contains("server busy"), "{line:?}");

    // The idle client is disconnected once the read timeout fires...
    line.clear();
    idle_reader.read_line(&mut line).unwrap();
    assert!(line.contains("idle timeout"), "{line:?}");
    line.clear();
    assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0, "closed");

    // ...freeing the slot: a real client now connects and submits.
    // The accept loop may need a beat to recycle the slot, so retry
    // connecting briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let submitted = loop {
        let mut client = Client::connect(handle.addr()).unwrap();
        if client.ping().unwrap_or(false) {
            let id = client
                .submit(
                    &SubmitParams {
                        bound: 500,
                        ..SubmitParams::default()
                    },
                    &hierarchy_csv,
                    &groups_csv,
                    &entities_csv,
                )
                .unwrap()
                .unwrap();
            let release = client.wait(id).unwrap().unwrap();
            client.quit().unwrap();
            break release;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after the idle timeout"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(submitted.csv.starts_with("region,level,size,count"));
    handle.shutdown();
}

/// Satellite regression: unpreparing (or evicting) a handle while a
/// sweep streams against it must surface the distinguishable
/// re-prepare error on the remaining points — never a hang and never
/// a wrong result. In-flight points that were accepted before the
/// unprepare still complete (jobs hold their own `Arc`s).
#[test]
fn unprepare_and_eviction_mid_sweep_fail_cleanly() {
    // Slow-ish releases (large isotonic bound) so the single worker
    // is still busy when the third point arrives: the sweep hits the
    // bounded queue, drains its first point, and our callback pulls
    // the dataset out from under the rest of the grid.
    let ds = Dataset::generate(DatasetKind::Housing, 0.001, 5);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let params = SubmitParams {
        bound: 20_000,
        ..SubmitParams::default()
    };
    let epsilons = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

    // Scenario 1: UNPREPARE to zero references mid-sweep.
    {
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
        );
        let handle =
            serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let mut sweeper = Client::connect(handle.addr()).unwrap();
        let mut saboteur = Client::connect(handle.addr()).unwrap();
        let ds_handle = sweeper
            .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
            .unwrap()
            .unwrap();
        let mut outcomes: Vec<(f64, Result<usize, String>)> = Vec::new();
        let mut sabotaged = false;
        sweeper
            .sweep(&params, ds_handle, &epsilons, |eps, result| {
                if !sabotaged {
                    sabotaged = true;
                    assert_eq!(saboteur.unprepare(ds_handle).unwrap().unwrap(), 0);
                }
                outcomes.push((eps, result.map(|r| r.csv.len())));
            })
            .unwrap();
        // Grid order and length are preserved even through failures.
        let seen: Vec<f64> = outcomes.iter().map(|(e, _)| *e).collect();
        assert_eq!(seen, epsilons);
        let failures: Vec<&String> = outcomes
            .iter()
            .filter_map(|(_, r)| r.as_ref().err())
            .collect();
        assert!(
            !failures.is_empty(),
            "queue pressure must have forced at least one post-unprepare submit"
        );
        for f in &failures {
            assert!(f.contains("unknown dataset handle"), "{f}");
        }
        // Points accepted before the unprepare still completed.
        assert!(outcomes.iter().any(|(_, r)| r.is_ok()));
        sweeper.quit().unwrap();
        saboteur.quit().unwrap();
        handle.shutdown();
    }

    // Scenario 2: LRU eviction mid-sweep (capacity-1 registry, the
    // saboteur prepares a different dataset) — the distinguishable
    // "re-prepare" error, not "unknown".
    {
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0)
                .with_prepared_capacity(1),
        );
        let handle =
            serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let mut sweeper = Client::connect(handle.addr()).unwrap();
        let mut saboteur = Client::connect(handle.addr()).unwrap();
        let ds_handle = sweeper
            .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
            .unwrap()
            .unwrap();
        let other = Dataset::generate(DatasetKind::Housing, 0.001, 6);
        let (h2, g2, e2) = other.to_csv_tables();
        let mut failures: Vec<String> = Vec::new();
        let mut successes = 0usize;
        let mut sabotaged = false;
        sweeper
            .sweep(&params, ds_handle, &epsilons, |_, result| {
                if !sabotaged {
                    sabotaged = true;
                    saboteur.prepare(&h2, &g2, &e2).unwrap().unwrap();
                }
                match result {
                    Ok(_) => successes += 1,
                    Err(e) => failures.push(e),
                }
            })
            .unwrap();
        assert!(successes >= 1);
        assert!(!failures.is_empty());
        for f in &failures {
            assert!(
                f.contains("evicted") && f.contains("PREPARE it again"),
                "{f}"
            );
        }
        sweeper.quit().unwrap();
        saboteur.quit().unwrap();
        handle.shutdown();
    }
}

/// Malformed wire requests get one-line errors and keep the
/// connection usable.
#[test]
fn server_reports_errors_and_survives_them() {
    let engine = Engine::start(EngineConfig::default());
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown job.
    let err = client
        .fetch(hccount::engine::JobId(404))
        .unwrap()
        .unwrap_err();
    assert!(err.contains("unknown job"), "{err}");

    // Bad submission: groups referencing a region missing from the
    // hierarchy. The error names the bad region.
    let err = client
        .submit(
            &SubmitParams::default(),
            "region,parent\nroot,\nva,root\n",
            "g1,nowhere\n",
            "e1,g1\n",
        )
        .unwrap()
        .unwrap_err();
    assert!(err.contains("nowhere"), "{err}");

    // Bad parameter line: the client has already written the CSV
    // sections, so the server must drain them before replying — the
    // connection stays in sync for the next request.
    let err = client
        .submit(
            &SubmitParams {
                epsilon: 0.0,
                ..SubmitParams::default()
            },
            "region,parent\nroot,\nva,root\n",
            "g1,va\n",
            "e1,g1\n",
        )
        .unwrap()
        .unwrap_err();
    assert!(err.contains("positive and finite"), "{err}");

    // Connection still works afterwards.
    assert!(client.ping().unwrap());
    client.quit().unwrap();
    handle.shutdown();
}

/// Hand-rolled wire requests with broken section framing: a
/// well-framed unknown section is drained and rejected with the
/// connection kept; an unparseable header closes the connection
/// (stale payload must never be parsed as commands).
#[test]
fn raw_protocol_framing_errors() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let engine = Engine::start(EngineConfig::default());
    let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();

    // Misspelled but well-framed section label: the one payload line
    // is drained, the submit is rejected, and PING still answers.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(stream, "SUBMIT epsilon=1\nHIERACHY 1\nroot,\nEND\nPING\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR"), "{line:?}");
    assert!(line.contains("HIERACHY"), "{line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "PONG");

    // Unparseable section length: framing is lost, so the server
    // reports once and closes instead of misreading the payload.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(stream, "SUBMIT epsilon=1\nHIERARCHY x\nroot,\nEND\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR"), "{line:?}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    // Absurd declared section size: rejected before any payload is
    // buffered, and the connection is closed.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(stream, "SUBMIT epsilon=1\nHIERARCHY 18446744073709551615\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR") && line.contains("limit"),
        "{line:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    handle.shutdown();
}

/// The completion-watcher API behind the reactor's event-driven
/// result delivery: a watcher registered on a live job fires exactly
/// once with the terminal status, a watcher registered after the job
/// finished fires immediately, and an id the engine never saw is a
/// typed error.
#[test]
fn on_finish_fires_once_with_the_terminal_status() {
    let ds = dataset();
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let hierarchy = Arc::new(ds.hierarchy);
    let data = Arc::new(ds.data);

    // Deferred path: register while the job is (likely) still live.
    let id = engine
        .submit(ReleaseRequest::new(
            Arc::clone(&hierarchy),
            Arc::clone(&data),
            config(),
            11,
        ))
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    engine
        .on_finish(id, move |job, status| tx.send((job, status)).unwrap())
        .unwrap();
    let (seen_id, status) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(seen_id, id);
    let JobStatus::Done { result, .. } = status else {
        panic!("watcher saw non-terminal status");
    };
    let (direct, _) = engine.wait(id).unwrap();
    assert_eq!(result.csv, direct.csv);

    // Immediate path: the job above is terminal, so a fresh watcher
    // runs on the calling thread before `on_finish` returns.
    let (tx, rx) = std::sync::mpsc::channel();
    engine
        .on_finish(id, move |job, status| tx.send((job, status)).unwrap())
        .unwrap();
    let (seen_id, status) = rx
        .try_recv()
        .expect("terminal-job watcher must run synchronously");
    assert_eq!(seen_id, id);
    assert!(matches!(status, JobStatus::Done { .. }));

    // Unknown id: an engine that never issued the id reports it.
    let other = Engine::start(EngineConfig::default().with_workers(1));
    match other.on_finish(id, |_, _| {}) {
        Err(EngineError::UnknownJob(e)) => assert_eq!(e, id),
        other => panic!("expected UnknownJob, got {other:?}"),
    }
}
