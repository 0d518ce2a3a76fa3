//! The inputs every workload shares, and the serving stack under test:
//! `Engine` (optionally on an `hcc-store`), `serve_reactor`, and one
//! framed `MuxClient` with retries disabled.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hcc_data::{housing, Dataset, HousingConfig};
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{
    serve_reactor, DatasetHandle, Engine, EngineConfig, MuxClient, ReactorConfig, RetryPolicy,
    ServerHandle,
};
use hcc_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Report;

/// Every fallible step of the benchmark reports a message; any error
/// aborts the run with a nonzero exit.
pub type Res<T> = Result<T, String>;

/// A per-dataset budget cap no run comes near, so store workloads pay
/// the ledger's fsync on every charge but never a refusal.
pub const BUDGET_CAP: f64 = 1e15;

/// The engine's worker count: one per core of the 2-core host the
/// benchmark was sized on.
pub const WORKERS: usize = 2;

/// Fixed sizes of a run. [`Size::full`] is what `run.py` measures;
/// [`Size::tiny`] keeps the self-tests to seconds.
#[derive(Clone, Debug)]
pub struct Size {
    /// Housing scale of the main dataset (2e-5 gives 372 nodes).
    pub scale: f64,
    /// Housing scale of the second, small dataset used for
    /// PREPARE/UNPREPARE churn.
    pub small_scale: f64,
    /// Public bound K of the `hc_cold` releases.
    pub hc_bound: u64,
    /// Points per `hg_sweep` sweep.
    pub sweep_points: usize,
    /// `mixed_open` arrival rates (low, mid, high), in arrivals/s.
    pub rates: [f64; 3],
    /// Stack boots per run; `setup_s` is their median. The first is
    /// the stack the workload runs on, the rest follow the measurement.
    pub setups: usize,
    /// Fewest `mixed_open` samples a rate may have.
    pub min_samples: usize,
    /// Releases replayed stage by stage in the traced run, per kind
    /// (Hc, Hg).
    pub replays: [usize; 2],
    /// Repetitions of each in-process probe of the traced run.
    pub probe_reps: usize,
    /// Whether the traced `hc_cold` run must account for its release
    /// wall to within 5%. Tiny releases are too short for that: span
    /// bookkeeping alone is a visible share of them.
    pub coverage_gate: bool,
}

impl Size {
    /// The measured configuration.
    pub fn full() -> Self {
        Self {
            scale: 2e-5,
            small_scale: 1e-6,
            hc_bound: 20_000,
            sweep_points: 50,
            rates: crate::open::RATES,
            setups: 15,
            min_samples: 100,
            replays: [2, 12],
            probe_reps: 25,
            coverage_gate: true,
        }
    }

    /// A configuration that runs every code path in seconds.
    pub fn tiny() -> Self {
        Self {
            scale: 2e-6,
            small_scale: 1e-6,
            hc_bound: 200,
            sweep_points: 4,
            rates: [40.0, 60.0, 80.0],
            setups: 2,
            min_samples: 1,
            replays: [1, 2],
            probe_reps: 3,
            coverage_gate: false,
        }
    }
}

/// The generated datasets and their wire tables. The data seed is fixed
/// (6, the housing seed the repository's benches use); `--seed` only
/// drives the requests.
pub struct Inputs {
    /// The run's sizes.
    pub size: Size,
    /// The dataset every release is computed on.
    pub main: Dataset,
    /// `main` as hierarchy, groups and entities CSV tables.
    pub main_tables: [String; 3],
    /// The small dataset `mixed_open` prepares and unprepares.
    pub small: Dataset,
    /// `small` as CSV tables.
    pub small_tables: [String; 3],
}

impl Inputs {
    /// Generates the inputs for `size`.
    pub fn new(size: Size) -> Self {
        let main = housing(&HousingConfig {
            scale: size.scale,
            seed: 6,
            ..Default::default()
        });
        // Four nodes (nation and three states), no outliers: cheap to
        // PREPARE, so churn exercises the registry and WAL rather than
        // CSV parsing.
        let small = housing(&HousingConfig {
            scale: size.small_scale,
            seed: 6,
            outliers: 0,
            levels: 2,
            west_coast_only: true,
            ..Default::default()
        });
        let tables = |d: &Dataset| {
            let (h, g, e) = d.to_csv_tables();
            [h, g, e]
        };
        Self {
            main_tables: tables(&main),
            small_tables: tables(&small),
            main,
            small,
            size,
        }
    }

    /// The main dataset's content handle, as the server will name it.
    pub fn main_handle(&self) -> DatasetHandle {
        DatasetHandle(hcc_engine::dataset_fingerprint(
            &self.main.hierarchy,
            &self.main.data,
        ))
    }
}

/// A deterministic request-seed stream: the same run seed and purpose
/// always yield the same sequence.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Submit parameters for one release of the main dataset.
pub fn params(method: &str, epsilon: f64, bound: u64, seed: u64) -> SubmitParams {
    SubmitParams {
        epsilon,
        method: method.to_string(),
        bound,
        seed,
        handle: None,
    }
}

/// Where a run keeps its durable store and trace, inside the checkout.
pub struct StateDir(pub PathBuf);

impl StateDir {
    /// Creates (emptying first) the run's state directory.
    pub fn create(path: &Path) -> Res<Self> {
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path.to_path_buf()))
    }

    /// The durable store file.
    pub fn store(&self) -> PathBuf {
        self.0.join("bench.hcc")
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A booted serving stack with the main dataset prepared over the wire.
pub struct Stack {
    /// The engine, shared with the reactor.
    pub engine: Arc<Engine>,
    /// The reactor serving `engine` on loopback.
    pub server: ServerHandle,
    /// One framed connection, retries disabled.
    pub client: MuxClient,
    /// The main dataset's handle, as returned by PREPARE.
    pub handle: DatasetHandle,
    /// The durable store the engine runs on, if any.
    pub store: Option<PathBuf>,
}

/// The engine configuration every workload uses: [`WORKERS`] workers,
/// the default 64-job queue, a 256-release result cache (ample for
/// `mixed_open`'s 8 hot releases, which are hit every ~25 arrivals),
/// and — with a store — the never-refusing [`BUDGET_CAP`].
pub fn engine_config(with_store: bool) -> EngineConfig {
    let cfg = EngineConfig::default()
        .with_workers(WORKERS)
        .with_cache_capacity(256);
    if with_store {
        cfg.with_budget_cap(BUDGET_CAP)
    } else {
        cfg
    }
}

/// Starts an engine, on the store at `store` when given.
pub fn start_engine(store: Option<&Path>) -> Res<Engine> {
    match store {
        None => Ok(Engine::start(engine_config(false))),
        Some(path) => {
            let store = Store::open(path).map_err(|e| format!("open store: {e}"))?;
            Engine::start_with_store(engine_config(true), store)
                .map_err(|e| format!("boot engine on store: {e}"))
        }
    }
}

/// Fills a fresh store with the main dataset, before any timing.
pub fn fill_store(inputs: &Inputs, store: &Path) -> Res<()> {
    let engine = start_engine(Some(store))?;
    engine
        .prepare(
            Arc::new(inputs.main.hierarchy.clone()),
            Arc::new(inputs.main.data.clone()),
        )
        .map_err(|e| format!("fill store: {e}"))?;
    Ok(())
}

impl Stack {
    /// Engine (and store) open, reactor bind, connect, and PREPARE of
    /// the main dataset over the wire: what `setup_s` times.
    pub fn boot(inputs: &Inputs, store: Option<&Path>) -> Res<Stack> {
        let engine = Arc::new(start_engine(store)?);
        let server = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default())
            .map_err(|e| format!("bind reactor: {e}"))?;
        let mut client = Stack::connect(server.addr())?;
        let [h, g, e] = &inputs.main_tables;
        let handle = client
            .prepare(h, g, e)
            .map_err(|e| format!("prepare io: {e}"))?
            .map_err(|e| format!("prepare refused: {e}"))?;
        if handle != inputs.main_handle() {
            return Err(format!(
                "PREPARE returned {handle}, not the content handle {}",
                inputs.main_handle()
            ));
        }
        Ok(Stack {
            engine,
            server,
            client,
            handle,
            store: store.map(Path::to_path_buf),
        })
    }

    /// A framed connection with retries disabled.
    pub fn connect(addr: std::net::SocketAddr) -> Res<MuxClient> {
        Ok(MuxClient::connect(addr)
            .map_err(|e| format!("connect: {e}"))?
            .with_retry_policy(RetryPolicy::disabled()))
    }

    /// Boots once, recording the boot's wall time in `report`.
    pub fn boot_timed(inputs: &Inputs, store: Option<&Path>, report: &mut Report) -> Res<Stack> {
        let t0 = Instant::now();
        let stack = Stack::boot(inputs, store)?;
        report.boots_s.push(t0.elapsed().as_secs_f64());
        Ok(stack)
    }

    /// Boots and tears down `n` more stacks on the same store, recording
    /// each boot's wall time. Runs after the measured phase, so the
    /// memory these boots churn through stays out of `peak_rss_mb`.
    pub fn time_boots(
        inputs: &Inputs,
        store: Option<&Path>,
        n: usize,
        report: &mut Report,
    ) -> Res<()> {
        for _ in 0..n {
            Stack::boot_timed(inputs, store, report)?.close()?;
        }
        Ok(())
    }

    /// Drops the PREPARE's reference, says goodbye, stops the reactor,
    /// and shuts the engine down (checkpointing its store).
    pub fn close(mut self) -> Res<()> {
        self.client
            .unprepare(self.handle)
            .map_err(|e| format!("unprepare io: {e}"))?
            .map_err(|e| format!("unprepare refused: {e}"))?;
        self.client.quit().map_err(|e| format!("goodbye: {e}"))?;
        self.server.shutdown();
        if let Ok(mut engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
        Ok(())
    }
}
