//! Integration tests of the event-driven wire path: the epoll reactor
//! serving the framed multiplexed protocol and the legacy line
//! protocol on one port.
//!
//! The load-bearing claims: (1) results over the framed wire are
//! byte-identical to the legacy line protocol and to an in-process
//! release, (2) a legacy client gets the in-process release's bytes, (3) many connections multiplex
//! onto the single reactor thread, (4) admission control sheds with
//! structured `BUSY` frames instead of stalling, and (5) a version
//! mismatch is answered with a typed error, never a hang or a panic.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use hccount::consistency::{to_csv, top_down_release, LevelMethod, TopDownConfig};
use hccount::data::{Dataset, DatasetKind};
use hccount::engine::protocol::frame::{
    encode_frame, parse_busy, parse_error, read_frame, submit_frame, Frame, B_QUOTA,
    DEFAULT_MAX_FRAME, E_BUDGET, E_VERSION, T_BUSY, T_ERROR, T_HELLO, T_HELLO_OK, T_RESULT,
};
use hccount::engine::{
    protocol::SubmitParams, serve_reactor, Client, Engine, EngineConfig, MuxClient, ReactorConfig,
    RetryPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Housing, 0.001, 5)
}

/// The release CSV an in-process `top_down_release` gives for the
/// `hc` method at bound 500 — the oracle every wire must reproduce.
fn direct_csv(ds: &Dataset, epsilon: f64, seed: u64) -> String {
    let cfg = TopDownConfig::new(epsilon).with_method(LevelMethod::Cumulative { bound: 500 });
    let mut rng = StdRng::seed_from_u64(seed);
    to_csv(
        &ds.hierarchy,
        &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
    )
}

fn engine(workers: usize) -> Arc<Engine> {
    Arc::new(Engine::start(
        EngineConfig::default()
            .with_workers(workers)
            .with_queue_capacity(64),
    ))
}

/// Acceptance criterion: a 32-point ε sweep pipelined on one framed
/// connection returns, point for point, the same bytes the legacy
/// line protocol returns and an in-process release computes — the
/// wire is an encoding, not a second code path with its own numerics.
#[test]
fn framed_pipelined_sweep_is_bit_identical_to_the_legacy_wire() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let epsilons: Vec<f64> = (1..=32).map(|i| i as f64 / 8.0).collect();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };

    // Legacy wire, on its own reactor so no result is cached yet.
    let server = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut legacy = Client::connect(server.addr()).unwrap();
    let handle = legacy
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let mut baseline: Vec<String> = Vec::new();
    legacy
        .sweep(&base, handle, &epsilons, |_, result| {
            baseline.push(result.unwrap().csv);
        })
        .unwrap();
    legacy.quit().unwrap();
    server.shutdown();

    // Framed wire, reactor server: every point pipelined up front.
    let reactor = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    mux.quit().unwrap();
    reactor.shutdown();

    assert_eq!(points.len(), baseline.len());
    for (i, (point, expected)) in points.iter().zip(&baseline).enumerate() {
        let csv = &point.outcome.as_ref().unwrap().csv;
        assert_eq!(
            csv, expected,
            "ε grid point {i} differs between the framed and legacy wires"
        );
        assert_eq!(
            csv,
            &direct_csv(&ds, epsilons[i], base.seed),
            "ε grid point {i} differs from the in-process release"
        );
    }
}

/// Satellite regression: a legacy line-protocol client pointed at the
/// reactor (first byte is ASCII, not the frame magic) gets the exact
/// bytes an in-process release computes, and the reactor counts the
/// legacy connection in its wire telemetry.
#[test]
fn legacy_client_is_served_by_the_reactor_unchanged() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };

    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(reactor.addr()).unwrap();
    assert!(client.ping().unwrap());
    let id = client
        .submit(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let got = client.wait(id).unwrap().unwrap().csv;
    client.quit().unwrap();
    assert_eq!(
        got,
        direct_csv(&ds, params.epsilon, params.seed),
        "reactor changed the legacy wire's bytes"
    );

    // The auto-detected legacy connection shows up in wire telemetry.
    let mut client = Client::connect(reactor.addr()).unwrap();
    let metrics = client.metrics().unwrap();
    let legacy_total = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hcc_wire_legacy_connections_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap();
    assert!(
        legacy_total >= 2,
        "legacy connections uncounted: {legacy_total}"
    );
    client.quit().unwrap();
    reactor.shutdown();
}

/// Acceptance criterion: 64 concurrent framed connections multiplex
/// onto the reactor; every submit completes with byte-identical
/// results (same prepared handle, same seed).
#[test]
fn sixty_four_concurrent_connections_all_complete() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let addr = reactor.addr();

    let mut seed_client = MuxClient::connect(addr).unwrap();
    let handle = seed_client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let expected = seed_client
        .submit_prepared(&params, handle)
        .unwrap()
        .unwrap()
        .csv;

    let threads: Vec<_> = (0..64)
        .map(|_| {
            let params = params.clone();
            std::thread::spawn(move || {
                let mut client = MuxClient::connect(addr).unwrap();
                let release = client.submit_prepared(&params, handle).unwrap().unwrap();
                client.quit().unwrap();
                release.csv
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), expected);
    }
    seed_client.quit().unwrap();
    reactor.shutdown();
}

/// Satellite regression: with a one-request interactive quota and no
/// park buffer, the second of two pipelined submits is shed with a
/// structured `BUSY` frame carrying the quota code — the connection
/// stays open and the first request still completes.
#[test]
fn quota_overflow_sheds_with_a_busy_frame() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_interactive_inflight(1)
            .with_park_capacity(0),
    )
    .unwrap();

    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    let hello = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(hello.ftype, T_HELLO_OK);

    // Both submits land in one segment, so the reactor admits the
    // first and judges the second against a full quota before the
    // first can possibly complete.
    let tables = Some([
        hierarchy_csv.as_str(),
        groups_csv.as_str(),
        entities_csv.as_str(),
    ]);
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let mut out = Vec::new();
    encode_frame(&mut out, &submit_frame(2, &params, tables, false));
    encode_frame(&mut out, &submit_frame(3, &params, tables, false));
    stream.write_all(&out).unwrap();

    let first = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((first.ftype, first.request_id), (T_BUSY, 3));
    let busy = parse_busy(&first.payload).unwrap();
    assert_eq!(busy.code, B_QUOTA);
    assert!(busy.retry_ms > 0);

    let second = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((second.ftype, second.request_id), (T_RESULT, 2));
    reactor.shutdown();
}

/// Satellite regression: a HELLO declaring an unsupported protocol
/// version is answered with a typed `E_VERSION` error frame and the
/// connection is closed — not ignored, not a panic.
#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    out[1] = 99; // future protocol version
    stream.write_all(&out).unwrap();

    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(reply.ftype, T_ERROR);
    let (code, msg) = parse_error(&reply.payload);
    assert_eq!(code, E_VERSION, "{msg}");
    assert!(msg.contains("version"), "{msg}");

    // The server closes after the error frame drains.
    use std::io::Read;
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    reactor.shutdown();
}

/// Satellite: `BUSY` sheds are retried with the bounded backoff
/// ladder. The server is pinned to one bulk-inflight slot and a
/// one-slot park buffer, so a four-point pipelined sweep *must* shed
/// at least one point — the default policy resubmits until every
/// point completes, and `RetryPolicy::disabled` surfaces the shed as
/// a typed `busy:` failure instead.
#[test]
fn busy_sheds_are_retried_with_bounded_backoff() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let epsilons: Vec<f64> = (1..=4).map(f64::from).collect();
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_bulk_inflight(1)
            .with_park_capacity(1),
    )
    .unwrap();

    // Default ladder: sheds are invisible — all four points complete.
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    for (i, p) in points.iter().enumerate() {
        assert!(
            p.outcome.is_ok(),
            "point {i} failed despite retries: {:?}",
            p.outcome
        );
    }
    mux.quit().unwrap();

    // `--no-retry`: the overflow point fails fast with the stable
    // `busy:` token (a fresh seed keeps the cache out of the way).
    let mut mux = MuxClient::connect(reactor.addr())
        .unwrap()
        .with_retry_policy(RetryPolicy::disabled());
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let base = SubmitParams {
        bound: 500,
        seed: 43,
        ..SubmitParams::default()
    };
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    let shed = points
        .iter()
        .filter(|p| matches!(&p.outcome, Err(m) if m.starts_with(hccount::engine::protocol::BUSY)))
        .count();
    assert!(
        shed >= 1,
        "a 4-point sweep against 1 bulk slot + 1 park slot must shed: {:?}",
        points.iter().map(|p| p.outcome.is_ok()).collect::<Vec<_>>()
    );
    assert!(
        points.iter().any(|p| p.outcome.is_ok()),
        "the admitted points still complete"
    );
    mux.quit().unwrap();
    reactor.shutdown();
}

/// Tentpole acceptance: a submit pushing a dataset's cumulative ε
/// past `--budget-cap` is refused with a *typed* budget error on both
/// wires — `E_BUDGET` on the framed protocol, the stable `budget:`
/// token on the legacy line protocol — and the refusal is not
/// retryable backpressure.
#[test]
fn budget_cap_refusal_is_typed_on_both_wires() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let engine = Arc::new(Engine::start(
        EngineConfig::default().with_workers(1).with_budget_cap(2.5),
    ));
    let reactor = serve_reactor(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };

    // Spend ε=2.0 of the 2.5 cap over the framed wire.
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    for seed in [42, 43] {
        let params = SubmitParams {
            epsilon: 1.0,
            seed,
            ..base.clone()
        };
        mux.submit_prepared(&params, handle).unwrap().unwrap();
    }
    mux.quit().unwrap();

    // Framed wire: the refusal frame carries the E_BUDGET code.
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    assert_eq!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().ftype,
        T_HELLO_OK
    );
    let params = SubmitParams {
        epsilon: 1.0,
        seed: 44,
        handle: Some(handle),
        ..base.clone()
    };
    let mut out = Vec::new();
    encode_frame(&mut out, &submit_frame(2, &params, None, false));
    stream.write_all(&out).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.ftype, reply.request_id), (T_ERROR, 2));
    let (code, msg) = parse_error(&reply.payload);
    assert_eq!(code, E_BUDGET, "{msg}");
    assert!(msg.contains("privacy budget exhausted"), "{msg}");

    // Legacy wire (same port, auto-detected): the stable `budget:`
    // token leads the rejection, distinct from retryable `busy:`.
    let mut legacy = Client::connect(reactor.addr()).unwrap();
    let refused = legacy
        .submit_prepared(
            &SubmitParams {
                epsilon: 1.0,
                seed: 45,
                ..base.clone()
            },
            handle,
        )
        .unwrap()
        .unwrap_err();
    assert!(
        refused.starts_with(hccount::engine::protocol::BUDGET),
        "{refused}"
    );
    assert!(!refused.starts_with(hccount::engine::protocol::BUSY));
    // An under-cap point on the same connection still works: the
    // refusal poisoned nothing.
    let ok = legacy
        .submit_prepared(
            &SubmitParams {
                epsilon: 0.25,
                seed: 46,
                ..base.clone()
            },
            handle,
        )
        .unwrap();
    let id = ok.unwrap();
    legacy.wait(id).unwrap().unwrap();
    legacy.quit().unwrap();
    reactor.shutdown();
}
