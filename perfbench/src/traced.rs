//! The traced run (`--trace 1`): the workload's wire run again, then a
//! replay of its requests through each layer's public functions with a
//! span around every call, then a probe of each layer the replay does
//! not reach. It prints the per-layer metrics and writes every span to
//! one Chrome-trace file.
//!
//! The replay is checked, not just timed: the per-node stage replay
//! (view → noise → fit → runs) must give the `NodeEstimate` that
//! `estimate_node` (`LevelMethod::estimate_in`) gives for the same
//! seed, and the replayed CSV must be byte-equal to the untraced
//! `top_down_release`. On `hc_cold` the stage self-times must cover the
//! traced release wall to within 5%.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hcc_consistency::{
    estimate_node, node_seeds, to_csv, top_down_from_estimates, top_down_release, LevelMethod,
};
use hcc_core::CountOfCounts;
use hcc_data::Dataset;
use hcc_estimators::{EstimatorWorkspace, NodeEstimate, VarianceRun};
use hcc_isotonic::{anchored_cumulative_into, isotonic_l2, CumulativeLoss, PavL1Workspace};
use hcc_noise::GeometricMechanism;
use hcc_store::{DatasetRecord, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::closed::{release_config, sweep_grid, HC_SEEDS, SWEEP_SEEDS};
use crate::metrics::{median, ms, quantile, Report};
use crate::open::{fresh_seeds, random_delta};
use crate::stack::{engine_config, params, rng_for, Inputs, Res, Stack, StateDir};
use crate::trace::{Tracer, WireSample};

/// Largest share of a traced `hc_cold` release wall its stage spans
/// may leave uncovered.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// One request to replay: method, ε, bound K, seed.
struct Request {
    method: &'static str,
    epsilon: f64,
    bound: u64,
    seed: u64,
}

/// The first `n` computed releases the workload's wire run sent,
/// rebuilt from the same seed streams.
fn replayed_requests(
    workload: &str,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    n: usize,
) -> Vec<Request> {
    match workload {
        "hc_cold" => {
            let mut seeds = rng_for(seed, HC_SEEDS);
            let _warm_up: u64 = seeds.gen();
            (0..n)
                .map(|_| Request {
                    method: "hc",
                    epsilon: 1.0,
                    bound: inputs.size.hc_bound,
                    seed: seeds.gen(),
                })
                .collect()
        }
        "hg_sweep" => {
            let mut seeds = rng_for(seed, SWEEP_SEEDS);
            let _warm_up: u64 = seeds.gen();
            let first_sweep: u64 = seeds.gen();
            sweep_grid(inputs.size.sweep_points)
                .into_iter()
                .take(n)
                .map(|epsilon| Request {
                    method: "hg",
                    epsilon,
                    bound: 0,
                    seed: first_sweep,
                })
                .collect()
        }
        _ => fresh_seeds(inputs, seed, seconds, n)
            .into_iter()
            .map(|(epsilon, seed)| Request {
                method: "hg",
                epsilon,
                bound: 0,
                seed,
            })
            .collect(),
    }
}

/// Per-release stage totals of the replay.
#[derive(Default)]
struct Stages {
    releases: usize,
    nodes: usize,
    dense_cells: u64,
    occupied_cells: u64,
    draws: u64,
    fit_cells: u64,
    blocks: u64,
    release_wall_ns: u64,
    untraced_wall_ns: Vec<f64>,
    engine_ms: Vec<f64>,
    coverage: Vec<f64>,
    roots: Vec<usize>,
}

/// Replays one node's estimate stage by stage: the same calls, in the
/// same order, that `CumulativeEstimator`/`UnattributedEstimator`
/// make, with a span around each.
#[allow(clippy::too_many_arguments)]
fn replay_node(
    tr: &mut Tracer,
    req: u64,
    method: LevelMethod,
    hist: &CountOfCounts,
    epsilon: f64,
    seed: u64,
    bufs: &mut Buffers,
    st: &mut Stages,
) -> Res<NodeEstimate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = hist.num_groups();
    let mech = GeometricMechanism::new(epsilon, 1.0);
    st.occupied_cells += hist.distinct_sizes() as u64;
    match method {
        LevelMethod::Cumulative { bound } => {
            tr.span("hcc-core.view", req, |_| {
                hist.to_cumulative_into(bound, &mut bufs.cum)
            });
            tr.span("hcc-noise.noise", req, |_| {
                mech.privatize_into(&bufs.cum, &mut bufs.noisy, &mut rng)
            });
            tr.span("hcc-isotonic.fit", req, |_| {
                anchored_cumulative_into(
                    &bufs.noisy,
                    g,
                    CumulativeLoss::L1,
                    &mut bufs.pav,
                    &mut bufs.values,
                    &mut bufs.fitted,
                )
            });
            let cells = bufs.cum.len() as u64;
            st.dense_cells += cells;
            st.draws += cells;
            st.fit_cells += cells - 1;
            st.blocks += bufs.pav.fitted_blocks().count() as u64;
            let mut runs = Vec::new();
            let mut prev = 0u64;
            for (size, &cell) in bufs.fitted.iter().enumerate() {
                let count = cell
                    .checked_sub(prev)
                    .ok_or("anchored cumulative fit is not non-decreasing")?;
                prev = cell;
                if count > 0 {
                    runs.push(VarianceRun {
                        size: size as u64,
                        count,
                        variance: 4.0 / (epsilon * epsilon * count as f64),
                    });
                }
            }
            Ok(NodeEstimate::from_variance_runs(runs))
        }
        LevelMethod::Unattributed => {
            if g == 0 {
                return Ok(NodeEstimate::new(CountOfCounts::new(), Vec::new()));
            }
            tr.span("hcc-core.view", req, |_| {
                bufs.cum.clear();
                for (size, &count) in hist.as_slice().iter().enumerate() {
                    bufs.cum
                        .extend(std::iter::repeat_n(size as u64, count as usize));
                }
            });
            tr.span("hcc-noise.noise", req, |_| {
                mech.privatize_into(&bufs.cum, &mut bufs.noisy, &mut rng)
            });
            let fit = tr.span("hcc-isotonic.fit", req, |_| {
                bufs.values.clear();
                bufs.values.extend(bufs.noisy.iter().map(|&v| v as f64));
                isotonic_l2(&bufs.values).clamped(0.0, f64::INFINITY)
            });
            st.dense_cells += g;
            st.draws += g;
            st.fit_cells += g;
            st.blocks += fit.blocks().len() as u64;
            let per_cell_var = 2.0 / (epsilon * epsilon);
            let runs = fit
                .blocks()
                .iter()
                .map(|b| VarianceRun {
                    size: b.value.round().max(0.0) as u64,
                    count: b.len as u64,
                    variance: per_cell_var / b.len as f64,
                })
                .collect();
            Ok(NodeEstimate::from_variance_runs(runs))
        }
        other => Err(format!("the benchmark does not replay {}", other.name())),
    }
}

/// Scratch buffers reused across nodes, like an `EstimatorWorkspace`.
#[derive(Default)]
struct Buffers {
    cum: Vec<u64>,
    noisy: Vec<i64>,
    values: Vec<f64>,
    fitted: Vec<u64>,
    pav: PavL1Workspace,
}

/// Replays one release traced, then checks it against the untraced
/// library path and times the same kind of release in the engine.
fn replay_release(
    tr: &mut Tracer,
    ds: &Dataset,
    stack: &Stack,
    r: &Request,
    st: &mut Stages,
    report: &mut Report,
) -> Res<()> {
    let (h, d) = (&ds.hierarchy, &ds.data);
    let cfg = release_config(r.method, r.epsilon, r.bound)?;
    let eps_level = cfg.level_epsilon(h.num_levels());
    let mut bufs = Buffers::default();
    let root = tr.begin("release", r.seed);
    let seeds = tr.span("hcc-consistency.seeds", r.seed, |_| {
        node_seeds(h, &mut StdRng::seed_from_u64(r.seed))
    });
    let mut estimates = Vec::with_capacity(h.num_nodes());
    for (node, &node_seed) in h.iter().zip(&seeds) {
        let id = tr.begin("hcc-estimators.estimate", r.seed);
        let method = cfg.method_for_level(h.level_of(node));
        let est = replay_node(
            tr,
            r.seed,
            method,
            d.node(node),
            eps_level,
            node_seed,
            &mut bufs,
            st,
        );
        tr.end(id);
        estimates.push(est?);
    }
    let check = estimates.clone();
    let release = tr.span("hcc-consistency.topdown", r.seed, |_| {
        top_down_from_estimates(h, &cfg, estimates)
    });
    let csv = tr.span("hcc-consistency.csv", r.seed, |_| {
        release.as_ref().map(|rel| to_csv(h, rel))
    });
    tr.end(root);
    let csv = csv.map_err(|e| format!("replayed release failed: {e}"))?;

    // Off the trace: the replay must be what the library computes.
    let mut ws = EstimatorWorkspace::new();
    for ((node, &node_seed), got) in h.iter().zip(&seeds).zip(&check) {
        let want = estimate_node(h, d, &cfg, eps_level, node, node_seed, &mut ws);
        if &want != got {
            report.fail(format!(
                "{} seed {}: stage replay of node {} differs from estimate_in",
                r.method,
                r.seed,
                h.name(node)
            ));
            break;
        }
    }
    let t0 = Instant::now();
    let untraced = top_down_release(h, d, &cfg, &mut StdRng::seed_from_u64(r.seed))
        .map(|rel| to_csv(h, &rel))
        .map_err(|e| format!("untraced release failed: {e}"))?;
    st.untraced_wall_ns.push(t0.elapsed().as_nanos() as f64);
    if untraced != csv {
        report.fail(format!(
            "{} seed {}: replayed CSV differs from top_down_release",
            r.method, r.seed
        ));
    }
    // The same kind of release in the engine, on a seed nobody sent.
    let t0 = Instant::now();
    let job = stack
        .engine
        .submit_prepared(stack.handle, cfg, r.seed ^ 0x5EED)
        .map_err(|e| format!("in-process submit: {e}"))?;
    stack
        .engine
        .wait(job)
        .map_err(|e| format!("in-process wait: {e}"))?;
    st.engine_ms.push(ms(t0.elapsed()));

    let root_span = &tr.spans()[root];
    let root_self = tr.self_times_ns()[root];
    st.coverage
        .push(1.0 - root_self as f64 / root_span.dur_ns().max(1) as f64);
    st.release_wall_ns += root_span.dur_ns();
    st.roots.push(root);
    st.releases += 1;
    st.nodes += h.num_nodes();
    Ok(())
}

/// The store record the engine persists for a dataset.
fn record(handle: u128, ds: &Dataset) -> DatasetRecord {
    let h = &ds.hierarchy;
    DatasetRecord {
        handle,
        names: h.iter().map(|n| h.name(n).to_string()).collect(),
        parents: h
            .iter()
            .map(|n| h.parent(n).map_or(u64::MAX, |p| p.index() as u64))
            .collect(),
        histograms: h
            .iter()
            .map(|n| {
                ds.data
                    .node(n)
                    .as_slice()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, &c)| (s as u64, c))
                    .collect()
            })
            .collect(),
        refs: 1,
    }
}

/// Times `reps` calls of `f`, each in a span, returning ms samples.
fn probe(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> Res<()>,
) -> Res<Vec<f64>> {
    let mut out = Vec::with_capacity(reps);
    for i in 0..reps {
        let id = tr.begin(name, i as u64);
        let t0 = Instant::now();
        f(i)?;
        out.push(ms(t0.elapsed()));
        tr.end(id);
    }
    Ok(out)
}

/// The layers the replay does not reach: registry, delta apply,
/// store, and the wire's own cost.
fn probes(
    tr: &mut Tracer,
    inputs: &Inputs,
    seed: u64,
    stack: &mut Stack,
    state: &StateDir,
    report: &mut Report,
) -> Res<()> {
    let reps = inputs.size.probe_reps;
    let (h, d) = (&inputs.main.hierarchy, &inputs.main.data);
    let mut rng = rng_for(seed, 4);
    let leaves: Vec<String> = h.leaves().map(|l| h.name(l).to_string()).collect();

    // Registry: PREPARE and DERIVE in process, on an engine of their own.
    let engine = hcc_engine::Engine::start(engine_config(false));
    let (ha, da) = (Arc::new(h.clone()), Arc::new(d.clone()));
    let mut handle = None;
    let prepare = probe(tr, "registry.prepare", reps, |_| {
        handle = Some(
            engine
                .prepare(Arc::clone(&ha), Arc::clone(&da))
                .map_err(|e| format!("prepare: {e}"))?,
        );
        Ok(())
    })?;
    let parent = handle.ok_or("no prepare ran")?;
    let deltas: Vec<_> = (0..reps).map(|_| random_delta(&mut rng, &leaves)).collect();
    let derive = probe(tr, "registry.derive", reps, |i| {
        engine
            .derive(parent, &deltas[i])
            .map(drop)
            .map_err(|e| format!("derive: {e}"))
    })?;
    drop(engine);
    let mut apply = Vec::with_capacity(reps);
    for (i, delta) in deltas.iter().enumerate() {
        let mut copy = d.clone();
        let id = tr.begin("hcc-data.delta_apply", i as u64);
        let t0 = Instant::now();
        delta
            .apply_to(h, &mut copy)
            .map_err(|e| format!("apply delta: {e}"))?;
        apply.push(ms(t0.elapsed()));
        tr.end(id);
    }
    report.set("registry.prepare_ms", median(&prepare));
    report.set("registry.derive_ms", median(&derive));
    report.set("hcc-data.delta_apply_ms", median(&apply));

    // Store: put, charge (one WAL record + fsync each), reopen — on a
    // scratch store next to the served one, so on the same filesystem.
    let path = state.0.join("probe.hcc");
    let mut store = Store::open(&path).map_err(|e| format!("open probe store: {e}"))?;
    let put = probe(tr, "hcc-store.put", reps, |i| {
        store
            .put_dataset(&record(0xB0B0_0000 + i as u128, &inputs.main))
            .map_err(|e| format!("put: {e}"))
    })?;
    let (mut charge_us, mut wal_bytes) = (Vec::new(), Vec::new());
    for i in 0..reps * 8 {
        let before = store.wal_len();
        let id = tr.begin("hcc-store.charge", i as u64);
        let t0 = Instant::now();
        store
            .charge(0xB0B0_0000, 0.5)
            .map_err(|e| format!("charge: {e}"))?;
        charge_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.end(id);
        if store.wal_len() > before {
            wal_bytes.push((store.wal_len() - before) as f64);
        }
    }
    drop(store);
    let open = probe(tr, "hcc-store.open", reps.min(8), |_| {
        Store::open(&path)
            .map(drop)
            .map_err(|e| format!("reopen: {e}"))
    })?;
    report.set("hcc-store.put_ms", median(&put));
    report.set("hcc-store.charge_us_p50", median(&charge_us));
    report.set(
        "hcc-store.charge_us_p90",
        quantile(&charge_us, 0.9).unwrap_or(0.0),
    );
    report.set("hcc-store.wal_bytes_per_release", median(&wal_bytes));
    report.set("hcc-store.open_ms", median(&open));

    // Wire overhead: the same cache hit over the wire and in process.
    let hot = params("hg", 1.0, 0, rng.gen());
    let hot_cfg = release_config("hg", 1.0, 0)?;
    let main = stack.handle;
    let warm = stack
        .client
        .submit_prepared(&hot, main)
        .map_err(|e| format!("hot submit io: {e}"))?;
    warm.map_err(|e| format!("hot submit refused: {e}"))?;
    let wire = probe(tr, "wire.cache_hit", reps * 8, |_| {
        let r = stack
            .client
            .submit_prepared(&hot, main)
            .map_err(|e| format!("hit io: {e}"))?
            .map_err(|e| format!("hit refused: {e}"))?;
        if r.from_cache {
            Ok(())
        } else {
            Err("a repeated request missed the cache".into())
        }
    })?;
    let engine = Arc::clone(&stack.engine);
    let local = probe(tr, "hcc-engine.cache_hit", reps * 8, |_| {
        let id = engine
            .submit_prepared(main, hot_cfg.clone(), hot.seed)
            .map_err(|e| format!("in-process hit: {e}"))?;
        let (_, hit) = engine
            .wait(id)
            .map_err(|e| format!("in-process wait: {e}"))?;
        if hit {
            Ok(())
        } else {
            Err("a repeated request missed the cache in process".into())
        }
    })?;
    report.set("wire.overhead_us", (median(&wire) - median(&local)) * 1e3);
    Ok(())
}

/// Reads one counter or gauge from a Prometheus text payload.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// The traced run of `workload`.
pub fn traced(
    workload: &str,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    state: &StateDir,
    trace_path: &Path,
    report: &mut Report,
) -> Res<()> {
    let mut tr = Tracer::new();
    let mut wire_report = Report::default();

    // 1. The workload's own wire run, each request a span.
    let run = tr.begin("wire.run", 0);
    let (mut stack, samples): (Stack, Vec<WireSample>) =
        crate::run_wire(workload, inputs, seed, seconds, state, &mut wire_report)?;
    for s in &samples {
        // Empty in a closed loop, where a request is due when sent.
        tr.record("loadgen.lag", s.request, s.due, s.sent);
        tr.record(s.name, s.request, s.sent, s.done);
    }
    tr.end(run);
    for f in wire_report.gate_failures.drain(..) {
        report.fail(f);
    }
    for key in [
        "loadgen.lag_p90_ms",
        "loadgen.sent",
        "loadgen.completed",
        "hcc-engine.queue_full",
    ] {
        report.set(key, wire_report.metrics.get(key).copied().unwrap_or(0.0));
    }
    report.attempted = wire_report.attempted;
    report.failed = wire_report.failed;
    let metrics = stack
        .client
        .metrics()
        .map_err(|e| format!("METRICS: {e}"))?;
    report.set("wire.frames_in", prom(&metrics, "hcc_wire_frames_in_total"));
    report.set("wire.bytes_out", prom(&metrics, "hcc_wire_bytes_out_total"));
    report.set("wire.busy", prom(&metrics, "hcc_wire_backpressure_total"));
    report.set(
        "wire.parked",
        wire_report
            .metrics
            .get("wire.parked")
            .copied()
            .unwrap_or(0.0),
    );
    let stats = stack.engine.stats();
    report.set("hcc-engine.tasks_executed", stats.tasks_executed as f64);
    report.set("hcc-engine.tasks_stolen", stats.tasks_stolen as f64);
    report.set(
        "hcc-engine.cache_hit_ratio",
        stats.cache_hits as f64 / stats.submitted.max(1) as f64,
    );

    // 2. The stage replay.
    let n = if workload == "hc_cold" {
        inputs.size.replays[0]
    } else {
        inputs.size.replays[1]
    };
    let mut st = Stages::default();
    for r in replayed_requests(workload, inputs, seed, seconds, n) {
        replay_release(&mut tr, &inputs.main, &stack, &r, &mut st, report)?;
    }
    let per_release =
        |name: &str| tr.self_ns_under(name, &st.roots) as f64 / 1e6 / st.releases.max(1) as f64;
    let ns_total = |name: &str| tr.self_ns_under(name, &st.roots) as f64;
    report.set("hcc-core.view_ms", per_release("hcc-core.view"));
    report.set(
        "hcc-core.dense_cells",
        st.dense_cells as f64 / st.releases.max(1) as f64,
    );
    report.set("hcc-noise.noise_ms", per_release("hcc-noise.noise"));
    report.set(
        "hcc-noise.ns_per_draw",
        ns_total("hcc-noise.noise") / st.draws.max(1) as f64,
    );
    report.set("hcc-isotonic.fit_ms", per_release("hcc-isotonic.fit"));
    report.set(
        "hcc-isotonic.ns_per_cell",
        ns_total("hcc-isotonic.fit") / st.fit_cells.max(1) as f64,
    );
    report.set(
        "hcc-isotonic.blocks_per_node",
        st.blocks as f64 / st.nodes.max(1) as f64,
    );
    report.set(
        "hcc-estimators.self_ms",
        per_release("hcc-estimators.estimate"),
    );
    report.set(
        "hcc-estimators.occupied_cell_ratio",
        st.occupied_cells as f64 / st.dense_cells.max(1) as f64,
    );
    report.set(
        "hcc-consistency.topdown_ms",
        per_release("hcc-consistency.topdown"),
    );
    report.set("hcc-consistency.csv_ms", per_release("hcc-consistency.csv"));
    let coverage = st.coverage.iter().copied().fold(f64::INFINITY, f64::min);
    report.set("hcc-consistency.stage_coverage", coverage);
    let gated = workload == "hc_cold" && inputs.size.coverage_gate;
    if gated && (1.0 - coverage).abs() > COVERAGE_TOLERANCE {
        report.fail(format!(
            "stage self-times cover {:.1}% of the traced release wall, not within 5%",
            coverage * 100.0
        ));
    }
    let traced_ms = st.release_wall_ns as f64 / 1e6 / st.releases.max(1) as f64;
    let untraced_ms = st.untraced_wall_ns.iter().sum::<f64>() / 1e6 / st.releases.max(1) as f64;
    report.set("trace.release_wall_ms", traced_ms);
    report.set("trace.overhead_ms", traced_ms - untraced_ms);
    report.set("hcc-engine.in_process_ms", median(&st.engine_ms));
    report.set(
        "hcc-engine.parallel_speedup",
        median(&st.untraced_wall_ns) / 1e6 / median(&st.engine_ms),
    );

    // 3. The layers the replay does not reach.
    probes(&mut tr, inputs, seed, &mut stack, state, report)?;
    stack.close()?;

    tr.write_chrome(trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        tr.spans().len(),
        trace_path.display()
    );
    Ok(())
}
