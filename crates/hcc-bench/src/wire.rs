//! The wire-path harness: framed-reactor serving cost over real
//! loopback TCP.
//!
//! Two scoreboard shapes feed `scripts/bench.sh` (via the
//! `engine_wire` binary):
//!
//! * **Pipelined sweep** — wall time of an N-point ε sweep on one
//!   framed connection: the client writes every request up front and
//!   the reactor streams the responses back. An untimed first pass
//!   fills the result cache, so the timed pass serves every point
//!   from cache and measures protocol overhead, not estimator time.
//! * **Submit latency under concurrency** — per-request wall-time
//!   quantiles (p50/p95/p99) and sustained cost (total wall / ops,
//!   the inverse of submits/sec) at 1, 64, and 1000 concurrent
//!   framed connections multiplexed onto the single reactor thread.
//!
//! The dataset is deliberately tiny and every thread submits the same
//! request, so after the first computation the engine answers from
//! its result cache and the measurement isolates the wire, not the
//! estimator.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_data::{Dataset, DatasetKind};
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{serve_reactor, Engine, EngineConfig, MuxClient, ReactorConfig};

/// Timed sweep passes (best-of; the first, untimed pass fills the
/// result cache).
const SWEEP_REPS: usize = 3;

/// A reusable wire-path workload: one tiny census-style dataset plus
/// the base request every benchmarked submit derives from.
pub struct WireWorkload {
    hierarchy_csv: String,
    groups_csv: String,
    entities_csv: String,
    base: SubmitParams,
}

/// One concurrency level's submit-latency measurement.
pub struct SubmitProfile {
    /// Concurrent connections driven.
    pub connections: usize,
    /// Total submits across all connections.
    pub ops: usize,
    /// Per-submit wall times, sorted ascending.
    pub latencies: Vec<Duration>,
    /// Wall time of the whole burst (connect + submits + teardown).
    pub wall: Duration,
}

impl SubmitProfile {
    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) of the sorted latencies by
    /// the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank =
            ((self.latencies.len() as f64 * q).ceil() as usize).clamp(1, self.latencies.len());
        self.latencies[rank - 1]
    }

    /// Sustained per-submit cost: total wall time / ops — the inverse
    /// of submits/sec, in the scoreboard's ns/iter unit.
    pub fn per_op(&self) -> Duration {
        if self.ops == 0 {
            return Duration::ZERO;
        }
        self.wall / self.ops as u32
    }
}

impl WireWorkload {
    /// The benchmark workload: the housing dataset at `scale` with
    /// the `hc` estimator under public bound `K = bound`, seed-pinned
    /// so every run computes the same releases.
    pub fn census(scale: f64, bound: u64) -> Self {
        let ds = Dataset::generate(DatasetKind::Housing, scale, 6);
        let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
        Self {
            hierarchy_csv,
            groups_csv,
            entities_csv,
            base: SubmitParams {
                bound,
                ..SubmitParams::default()
            },
        }
    }

    fn engine(&self) -> Arc<Engine> {
        // The cache holds the whole sweep grid so the timed pass is
        // wire-bound.
        Arc::new(Engine::start(
            EngineConfig::default()
                .with_workers(2)
                .with_queue_capacity(64)
                .with_cache_capacity(1024),
        ))
    }

    fn grid(points: usize) -> Vec<f64> {
        (1..=points).map(|i| 0.25 + i as f64 / 16.0).collect()
    }

    /// Wall time of a `points`-long ε sweep pipelined over the framed
    /// protocol against the reactor.
    pub fn sweep_framed(&self, points: usize) -> Duration {
        let server = serve_reactor(self.engine(), "127.0.0.1:0", ReactorConfig::default())
            .expect("bind reactor");
        let mut client = MuxClient::connect(server.addr()).expect("connect");
        let handle = client
            .prepare(&self.hierarchy_csv, &self.groups_csv, &self.entities_csv)
            .expect("prepare io")
            .expect("prepare accepted");
        let grid = Self::grid(points);
        // Untimed pass fills the cache; the timed passes are
        // wire-bound and best-of-N removes scheduler noise.
        let warm = client
            .sweep(&self.base, handle, &grid)
            .expect("warm sweep io");
        assert_eq!(warm.len(), points);
        let best = (0..SWEEP_REPS)
            .map(|_| {
                let start = Instant::now();
                let results = client.sweep(&self.base, handle, &grid).expect("sweep io");
                let elapsed = start.elapsed();
                assert_eq!(results.len(), points);
                for point in &results {
                    assert!(point.outcome.is_ok(), "sweep point failed");
                }
                elapsed
            })
            .min()
            .expect("at least one rep");
        let _ = client.quit();
        server.shutdown();
        best
    }

    /// Drives `connections` concurrent framed clients, each issuing
    /// `ops_per_conn` identical submits over one prepared handle, and
    /// returns the pooled per-submit latency profile. The reactor is
    /// sized to accept every connection.
    pub fn submit_profile(&self, connections: usize, ops_per_conn: usize) -> SubmitProfile {
        let server = serve_reactor(
            self.engine(),
            "127.0.0.1:0",
            ReactorConfig::default().with_max_connections(connections + 8),
        )
        .expect("bind reactor");
        let addr = server.addr();
        let mut seed_client = MuxClient::connect(addr).expect("connect");
        let handle = seed_client
            .prepare(&self.hierarchy_csv, &self.groups_csv, &self.entities_csv)
            .expect("prepare io")
            .expect("prepare accepted");
        // Warm the result cache so the measured path is the wire.
        seed_client
            .submit_prepared(&self.base, handle)
            .expect("warm io")
            .expect("warm accepted");

        let base = self.base.clone();
        let start = Instant::now();
        let threads: Vec<_> = (0..connections)
            .map(|_| {
                let base = base.clone();
                std::thread::spawn(move || {
                    let mut client = MuxClient::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(ops_per_conn);
                    for _ in 0..ops_per_conn {
                        let t0 = Instant::now();
                        client
                            .submit_prepared(&base, handle)
                            .expect("submit io")
                            .expect("submit accepted");
                        lat.push(t0.elapsed());
                    }
                    let _ = client.quit();
                    lat
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(connections * ops_per_conn);
        for t in threads {
            latencies.extend(t.join().expect("wire bench thread"));
        }
        let wall = start.elapsed();
        let _ = seed_client.quit();
        server.shutdown();
        latencies.sort_unstable();
        SubmitProfile {
            connections,
            ops: connections * ops_per_conn,
            latencies,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_run_on_both_wires() {
        let w = WireWorkload::census(2e-6, 200);
        assert!(w.sweep_framed(3) > Duration::ZERO);
        // The legacy line protocol, served by the same reactor.
        let server = serve_reactor(w.engine(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let mut client = hcc_engine::Client::connect(server.addr()).unwrap();
        let handle = client
            .prepare(&w.hierarchy_csv, &w.groups_csv, &w.entities_csv)
            .unwrap()
            .unwrap();
        let mut done = 0;
        client
            .sweep(&w.base, handle, &WireWorkload::grid(3), |_, outcome| {
                outcome.unwrap();
                done += 1;
            })
            .unwrap();
        assert_eq!(done, 3);
        server.shutdown();
    }

    #[test]
    fn submit_profile_pools_every_op() {
        let w = WireWorkload::census(2e-6, 200);
        let p = w.submit_profile(2, 3);
        assert_eq!(p.ops, 6);
        assert_eq!(p.latencies.len(), 6);
        assert!(p.quantile(0.5) <= p.quantile(0.99));
        assert!(p.per_op() > Duration::ZERO);
    }
}
