//! `mixed_open`: open-loop Poisson arrivals on one framed connection,
//! at three fixed rates, against an engine on a durable store.
//!
//! The whole arrival schedule — times, request kinds, seeds, deltas —
//! is generated from the run seed before the first request is sent.
//! A sender thread writes each arrival's frames when it falls due,
//! whether or not earlier responses have come back; a receiver thread
//! timestamps every response. Latency is measured from the due time,
//! so a stall also charges the requests queued behind it. Client
//! retries do not exist on this path: a `BUSY` shed is a failure.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hcc_data::{DatasetDelta, DeltaOp};
use hcc_engine::protocol::frame::{
    self, encode_frame, parse_busy, parse_error, parse_hello_ok, parse_result, read_frame, Frame,
    B_QUEUE, T_BUSY, T_DERIVE, T_ERROR, T_GOODBYE, T_HELLO, T_HELLO_OK, T_OK_TEXT, T_RESULT,
};
use hcc_engine::{dataset_fingerprint, DatasetHandle, ServerHandle};
use rand::rngs::StdRng;
use rand::Rng;

use crate::closed::release_config;
use crate::gate::{check_ledger, check_reference, check_release, Quality};
use crate::metrics::{median, ms, peak_rss_mb, quantile, Report};
use crate::stack::{fill_store, params, rng_for, Inputs, Res, Stack, StateDir};
use crate::trace::WireSample;

/// Arrival rates (low, mid, high) in arrivals/s. Sized once from the
/// mix's measured closed-loop capacity on the 2-core host (`perfbench
/// --calibrate`) and then frozen: they are never recomputed per run.
pub const RATES: [f64; 3] = [40.0, 80.0, 120.0];
/// Names of the three rates, as used in metric names.
pub const RATE_NAMES: [&str; 3] = ["low", "mid", "high"];
/// p90 latency limit of one `mixed_open` request, in ms.
pub const OPEN_SLO_MS: f64 = 100.0;

/// Purpose tag of the schedule's random stream.
const SCHEDULE_SEEDS: u64 = 3;
/// Seeds pre-released before the run; repeats of them hit the cache.
const HOT_SEEDS: usize = 8;
/// ε of main-dataset submits and of derived-handle submits (dyadic,
/// so ledger sums are exact).
const EPS_MAIN: f64 = 1.0;
const EPS_DERIVED: f64 = 0.5;
/// A derived handle is unprepared this many derives after its own, so
/// its submits have long been admitted.
const DERIVED_LIVE: usize = 2;
/// Length of one slice of a rate's arrivals; see [`Schedule::generate`].
const SEGMENT: Duration = Duration::from_secs(2);
/// Longest wait for a segment's last response.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Hg submit on the main handle with a fresh seed: computed and
    /// charged.
    Fresh { seed: u64 },
    /// Repeat of hot seed `i`: a cache hit, never charged.
    Hit { i: usize },
    /// DERIVE of the main handle by delta `j`.
    Derive { j: usize },
    /// Hg submit on derived handle `j` with a fresh seed.
    OnDerived { j: usize, seed: u64 },
    /// UNPREPARE of derived handle `j`.
    DropDerived { j: usize },
    /// PREPARE of the small dataset.
    PrepareSmall,
    /// UNPREPARE of the small dataset.
    DropSmall,
}

/// Requests that share one due time, sent back to back.
struct Arrival {
    at: Duration,
    ops: Vec<Op>,
}

/// Everything the run will send, generated before it starts.
struct Schedule {
    /// (rate index, arrivals timed from the segment's start), in the
    /// order they run.
    segments: Vec<(usize, Vec<Arrival>)>,
    hot: Vec<u64>,
    deltas: Vec<DatasetDelta>,
    derived: Vec<DatasetHandle>,
    cleanup: Vec<Op>,
}

/// The kinds of arrival in the mix.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Fresh,
    Hit,
    Derive,
    Churn,
}

/// The mix, per 20 arrivals: 9 fresh submits, 7 cache hits, 2 derive
/// groups, 2 PREPARE/UNPREPARE churns. The derive groups' frames are
/// about a third of all frames, so every p90 lies well inside their
/// latency range rather than on its edge, where it would swing. Dealing shuffled decks keeps the
/// proportions exact in every run, so the seed moves only the order.
const DECK: [(Kind, usize); 4] = [
    (Kind::Fresh, 9),
    (Kind::Hit, 7),
    (Kind::Derive, 2),
    (Kind::Churn, 2),
];

fn shuffled_deck(rng: &mut StdRng) -> Vec<Kind> {
    let mut deck: Vec<Kind> = DECK
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck
}

/// A small seed-driven delta: one new group at a random leaf.
pub fn random_delta(rng: &mut StdRng, leaves: &[String]) -> DatasetDelta {
    DatasetDelta {
        ops: vec![DeltaOp::Add {
            region: leaves[rng.gen_range(0..leaves.len())].clone(),
            size: rng.gen_range(1..=6u64),
            count: 1,
        }],
    }
}

impl Schedule {
    /// Poisson arrival times for each rate over `phase`, cut into
    /// [`SEGMENT`]-long slices that run round-robin (low, mid, high,
    /// low, …) so a host slowdown lasting seconds lands on every rate
    /// alike. Request kinds are then dealt in that execution order.
    fn generate(inputs: &Inputs, seed: u64, phase: Duration) -> Self {
        let mut rng = rng_for(seed, SCHEDULE_SEEDS);
        let h = &inputs.main.hierarchy;
        let leaves: Vec<String> = h.leaves().map(|l| h.name(l).to_string()).collect();
        let hot: Vec<u64> = (0..HOT_SEEDS).map(|_| rng.gen()).collect();
        let phase = phase.as_secs_f64();
        let seg = SEGMENT.as_secs_f64();
        let n_seg = ((phase / seg).ceil() as usize).max(1);
        let mut times: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n_seg]; RATE_NAMES.len()];
        for (r, &rate) in inputs.size.rates.iter().enumerate() {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate;
                if t >= phase {
                    break;
                }
                let k = ((t / seg) as usize).min(n_seg - 1);
                times[r][k].push(t - k as f64 * seg);
            }
        }
        let mut deltas = Vec::new();
        let mut small_prepared = false;
        let mut deck = Vec::new();
        let mut segments = Vec::new();
        for k in 0..n_seg {
            for (r, per_rate) in times.iter().enumerate() {
                let mut arrivals = Vec::new();
                for &t in &per_rate[k] {
                    if deck.is_empty() {
                        deck = shuffled_deck(&mut rng);
                    }
                    let ops = match deck.pop().expect("deck refilled above") {
                        Kind::Fresh => vec![Op::Fresh { seed: rng.gen() }],
                        Kind::Hit => vec![Op::Hit {
                            i: rng.gen_range(0..HOT_SEEDS),
                        }],
                        Kind::Derive => {
                            let j = deltas.len();
                            deltas.push(random_delta(&mut rng, &leaves));
                            let mut ops = vec![
                                Op::Derive { j },
                                Op::OnDerived { j, seed: rng.gen() },
                                Op::OnDerived { j, seed: rng.gen() },
                            ];
                            if j >= DERIVED_LIVE {
                                ops.push(Op::DropDerived {
                                    j: j - DERIVED_LIVE,
                                });
                            }
                            ops
                        }
                        Kind::Churn => {
                            small_prepared = !small_prepared;
                            vec![if small_prepared {
                                Op::PrepareSmall
                            } else {
                                Op::DropSmall
                            }]
                        }
                    };
                    arrivals.push(Arrival {
                        at: Duration::from_secs_f64(t),
                        ops,
                    });
                }
                segments.push((r, arrivals));
            }
        }
        let mut cleanup: Vec<Op> = (deltas.len().saturating_sub(DERIVED_LIVE)..deltas.len())
            .map(|j| Op::DropDerived { j })
            .collect();
        if small_prepared {
            cleanup.push(Op::DropSmall);
        }
        let derived = deltas
            .iter()
            .map(|delta| {
                let d = inputs
                    .main
                    .apply_delta(delta)
                    .expect("an added group is always valid");
                DatasetHandle(dataset_fingerprint(&d.hierarchy, &d.data))
            })
            .collect();
        Self {
            segments,
            hot,
            deltas,
            derived,
            cleanup,
        }
    }
}

/// The first `n` fresh main-dataset submits of the schedule a
/// `mixed_open` run of `seconds` sends, as (ε, seed).
pub fn fresh_seeds(inputs: &Inputs, seed: u64, seconds: f64, n: usize) -> Vec<(f64, u64)> {
    let s = Schedule::generate(inputs, seed, Duration::from_secs_f64(seconds / 3.0));
    s.segments
        .iter()
        .flat_map(|(_, arrivals)| arrivals)
        .flat_map(|a| a.ops.iter())
        .filter_map(|op| match *op {
            Op::Fresh { seed } => Some((EPS_MAIN, seed)),
            _ => None,
        })
        .take(n)
        .collect()
}

/// The raw framed connection the open loop drives: the sender writes
/// on `writer`, a receiver thread timestamps every response.
struct Conn {
    writer: TcpStream,
    responses: mpsc::Receiver<(Instant, Frame)>,
    receiver: std::thread::JoinHandle<()>,
    next_rid: u64,
    /// Peak of the reactor's parked-request gauge, sampled after each
    /// write.
    parked: u64,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Res<Self> {
        let io = |e: std::io::Error| format!("open-loop connection: {e}");
        let mut writer = TcpStream::connect(addr).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        let mut reader = BufReader::new(writer.try_clone().map_err(io)?);
        frame::write_frame(&mut writer, &Frame::empty(T_HELLO, 1)).map_err(io)?;
        let hello = read_frame(&mut reader, u32::MAX).map_err(io)?;
        if hello.ftype != T_HELLO_OK {
            return Err(format!(
                "handshake answered with frame 0x{:02X}",
                hello.ftype
            ));
        }
        parse_hello_ok(&hello.payload)?;
        let (tx, responses) = mpsc::channel();
        let receiver = std::thread::Builder::new()
            .name("perfbench-receiver".into())
            .spawn(move || {
                while let Ok(f) = read_frame(&mut reader, u32::MAX) {
                    if tx.send((Instant::now(), f)).is_err() {
                        break;
                    }
                }
            })
            .map_err(io)?;
        Ok(Self {
            writer,
            responses,
            receiver,
            next_rid: 2,
            parked: 0,
        })
    }

    /// Says goodbye, waits for the server to close, and joins the
    /// receiver.
    fn close(mut self) -> Res<()> {
        frame::write_frame(&mut self.writer, &Frame::empty(T_GOODBYE, 0))
            .map_err(|e| format!("goodbye: {e}"))?;
        drop(self.responses);
        self.receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())
    }
}

/// What a response must be, and where it came from.
struct Sent {
    op: Op,
    rate: usize,
    due: Instant,
    sent: Instant,
}

/// A response, matched to its request.
struct Answer {
    sent: Sent,
    at: Instant,
    frame: Frame,
}

/// What every request of a run is built and judged against.
struct Ctx<'a> {
    inputs: &'a Inputs,
    s: &'a Schedule,
    main: DatasetHandle,
    server: &'a ServerHandle,
}

/// The frame for one op.
fn op_frame(op: Op, rid: u64, ctx: &Ctx) -> Frame {
    let (inputs, s, main) = (ctx.inputs, ctx.s, ctx.main);
    let submit = |handle: DatasetHandle, eps: f64, seed: u64| {
        let p = hcc_engine::protocol::SubmitParams {
            handle: Some(handle),
            ..params("hg", eps, 0, seed)
        };
        frame::submit_frame(rid, &p, None, false)
    };
    let [h, g, e] = &inputs.small_tables;
    match op {
        Op::Fresh { seed } => submit(main, EPS_MAIN, seed),
        Op::Hit { i } => submit(main, EPS_MAIN, s.hot[i]),
        Op::OnDerived { j, seed } => submit(s.derived[j], EPS_DERIVED, seed),
        Op::Derive { j } => {
            frame::derive_frame(rid, T_DERIVE, &main.to_string(), &s.deltas[j].to_csv())
        }
        Op::DropDerived { j } => frame::unprepare_frame(rid, &s.derived[j].to_string()),
        Op::PrepareSmall => frame::prepare_frame(rid, [h, g, e]),
        Op::DropSmall => frame::unprepare_frame(rid, &small_handle(inputs).to_string()),
    }
}

fn small_handle(inputs: &Inputs) -> DatasetHandle {
    DatasetHandle(dataset_fingerprint(
        &inputs.small.hierarchy,
        &inputs.small.data,
    ))
}

/// Sends `arrivals` on their schedule (or, `closed`, each after the
/// previous one's responses), then waits for every response.
fn run_arrivals(
    conn: &mut Conn,
    ctx: &Ctx,
    rate: usize,
    arrivals: &[Arrival],
    closed: bool,
) -> Res<Vec<Answer>> {
    let mut pending: BTreeMap<u64, Sent> = BTreeMap::new();
    let mut answers = Vec::new();
    let mut buf = Vec::new();
    let start = Instant::now();
    for a in arrivals {
        let due = if closed { Instant::now() } else { start + a.at };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        buf.clear();
        for &op in &a.ops {
            let rid = conn.next_rid;
            conn.next_rid += 1;
            encode_frame(&mut buf, &op_frame(op, rid, ctx));
            pending.insert(
                rid,
                Sent {
                    op,
                    rate,
                    due,
                    sent: due,
                },
            );
        }
        let sent = Instant::now();
        conn.writer
            .write_all(&buf)
            .map_err(|e| format!("open-loop send: {e}"))?;
        for rid in conn.next_rid - a.ops.len() as u64..conn.next_rid {
            if let Some(p) = pending.get_mut(&rid) {
                p.sent = sent;
            }
        }
        if let Some(w) = ctx.server.wire_stats() {
            conn.parked = conn.parked.max(w.parked);
        }
        if closed {
            drain(conn, &mut pending, &mut answers)?;
        }
    }
    drain(conn, &mut pending, &mut answers)?;
    Ok(answers)
}

/// Collects responses until none is outstanding.
fn drain(conn: &mut Conn, pending: &mut BTreeMap<u64, Sent>, answers: &mut Vec<Answer>) -> Res<()> {
    let deadline = Instant::now() + DRAIN_LIMIT;
    while !pending.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let (at, frame) = conn
            .responses
            .recv_timeout(left)
            .map_err(|e| format!("{} responses still outstanding: {e}", pending.len()))?;
        let sent = pending
            .remove(&frame.request_id)
            .ok_or_else(|| format!("response for unknown request {}", frame.request_id))?;
        answers.push(Answer { sent, at, frame });
    }
    Ok(())
}

/// Per-run tallies the gate and the metrics are built from.
#[derive(Default)]
struct Tally {
    latencies_ms: [Vec<f64>; 3],
    failed: [u64; 3],
    /// Per rate: the longest a segment took to drain after its last
    /// arrival, and the summed segment walls.
    drain_ms: [f64; 3],
    busy_s: [f64; 3],
    computed: u64,
    queue_full: u64,
    charged: BTreeMap<DatasetHandle, f64>,
    quality: Quality,
    /// First computed release on the main and on a derived handle.
    first: [Option<FirstRelease>; 2],
}

/// A computed release kept for the off-clock reference check.
struct FirstRelease {
    /// The delta of the derived handle it was released from, if any.
    delta: Option<usize>,
    seed: u64,
    epsilon: f64,
    csv: String,
}

/// Checks one response against what its request must return.
fn judge(
    a: &Answer,
    ctx: &Ctx,
    hot_csv: &[String],
    derived_data: &mut Option<(usize, hcc_data::Dataset)>,
    t: &mut Tally,
    report: &mut Report,
) {
    let (inputs, s, main) = (ctx.inputs, ctx.s, ctx.main);
    let what = format!("{:?}", a.sent.op);
    match a.frame.ftype {
        T_ERROR => {
            t.failed[a.sent.rate] += 1;
            let (_, msg) = parse_error(&a.frame.payload);
            eprintln!("mixed_open: {what} refused: {msg}");
            return;
        }
        T_BUSY => {
            t.failed[a.sent.rate] += 1;
            match parse_busy(&a.frame.payload) {
                Ok(b) => {
                    t.queue_full += u64::from(b.code == B_QUEUE);
                    eprintln!("mixed_open: {what} shed: {}", b.msg);
                }
                Err(e) => report.fail(format!("{what}: bad BUSY frame: {e}")),
            }
            return;
        }
        T_RESULT => {}
        T_OK_TEXT => {
            let text = String::from_utf8_lossy(&a.frame.payload);
            let want = match a.sent.op {
                Op::Derive { j } => Some(s.derived[j]),
                Op::PrepareSmall => Some(small_handle(inputs)),
                _ => None,
            };
            match want {
                Some(h) if text != h.to_string() => report.fail(format!(
                    "{what} returned {text}, not the content handle {h}"
                )),
                None if !text.starts_with("refs=") => {
                    report.fail(format!("{what} answered {text:?}"))
                }
                _ => {}
            }
            return;
        }
        other => {
            report.fail(format!("{what} answered with frame 0x{other:02X}"));
            return;
        }
    }
    let r = match parse_result(&a.frame.payload) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("{what}: bad result frame: {e}")),
    };
    let (handle, eps, delta) = match a.sent.op {
        Op::Fresh { .. } | Op::Hit { .. } => (main, EPS_MAIN, None),
        Op::OnDerived { j, .. } => (s.derived[j], EPS_DERIVED, Some(j)),
        _ => return report.fail(format!("{what} answered with a release")),
    };
    if let Op::Hit { i } = a.sent.op {
        if r.csv != hot_csv[i] {
            report.fail(format!(
                "cache hit for hot seed {i} differs from its first release"
            ));
        }
    }
    if r.from_cache {
        return;
    }
    t.computed += 1;
    *t.charged.entry(handle).or_insert(0.0) += eps;
    // Submits on one derived handle arrive together, so one cached
    // derived dataset serves them all.
    let truth = match delta {
        None => &inputs.main,
        Some(j) => {
            if derived_data.as_ref().map(|(k, _)| *k) != Some(j) {
                let d = inputs
                    .main
                    .apply_delta(&s.deltas[j])
                    .expect("an added group is valid");
                *derived_data = Some((j, d));
            }
            &derived_data.as_ref().expect("just filled").1
        }
    };
    match check_release(&truth.hierarchy, &truth.data, &r.csv, None) {
        Ok(q) => t.quality.add(q),
        Err(e) => report.fail(format!("{what}: {e}")),
    }
    let slot = usize::from(delta.is_some());
    if t.first[slot].is_none() {
        let seed = match a.sent.op {
            Op::Fresh { seed } | Op::OnDerived { seed, .. } => seed,
            Op::Hit { i } => s.hot[i],
            _ => 0,
        };
        t.first[slot] = Some(FirstRelease {
            delta,
            seed,
            epsilon: eps,
            csv: r.csv,
        });
    }
}

/// Closed-loop capacity of the mix, in arrivals/s: the figure the
/// frozen [`RATES`] were sized from.
pub fn calibrate(inputs: &Inputs, seed: u64, seconds: f64, state: &StateDir) -> Res<f64> {
    let store = state.store();
    fill_store(inputs, &store)?;
    let stack = Stack::boot(inputs, Some(&store))?;
    let s = Schedule::generate(inputs, seed, Duration::from_secs_f64(seconds));
    let ctx = Ctx {
        inputs,
        s: &s,
        main: stack.handle,
        server: &stack.server,
    };
    let mut conn = Conn::open(stack.server.addr())?;
    let hot: Vec<Op> = (0..HOT_SEEDS).map(|i| Op::Hit { i }).collect();
    let warm = [Arrival {
        at: Duration::ZERO,
        ops: hot,
    }];
    run_arrivals(&mut conn, &ctx, 0, &warm, true)?;
    let arrivals: Vec<Arrival> = s
        .segments
        .iter()
        .flat_map(|(_, arrivals)| arrivals)
        .map(|a| Arrival {
            at: a.at,
            ops: a.ops.clone(),
        })
        .collect();
    let t0 = Instant::now();
    let mut done = 0usize;
    for chunk in arrivals.chunks(16) {
        run_arrivals(&mut conn, &ctx, 0, chunk, true)?;
        done += chunk.len();
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let capacity = done as f64 / t0.elapsed().as_secs_f64();
    conn.close()?;
    stack.close()?;
    Ok(capacity)
}

/// `mixed_open`: `seconds / 3` of arrivals at each rate.
pub fn mixed_open(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    state: &StateDir,
    report: &mut Report,
) -> Res<(Stack, Vec<WireSample>)> {
    let phase_len = Duration::from_secs_f64(seconds / 3.0);
    let s = Schedule::generate(inputs, seed, phase_len);
    let store = state.store();
    fill_store(inputs, &store)?;
    let mut stack = Stack::boot_timed(inputs, Some(&store), report)?;
    let main = stack.handle;

    // Off the clock: release the hot seeds so repeats hit the cache.
    let handles: Vec<DatasetHandle> = std::iter::once(main)
        .chain(s.derived.iter().copied())
        .collect();
    let spent_before: BTreeMap<DatasetHandle, f64> = handles
        .iter()
        .map(|&h| (h, stack.engine.budget_spent(h).unwrap_or(0.0)))
        .collect();
    let mut t = Tally::default();
    let mut hot_csv = Vec::new();
    for &seed in &s.hot {
        let r = stack
            .client
            .submit_prepared(&params("hg", EPS_MAIN, 0, seed), main)
            .map_err(|e| format!("hot release io: {e}"))?
            .map_err(|e| format!("hot release refused: {e}"))?;
        if !r.from_cache {
            *t.charged.entry(main).or_insert(0.0) += EPS_MAIN;
        }
        let (h, d) = (&inputs.main.hierarchy, &inputs.main.data);
        report.check(check_release(h, d, &r.csv, None).map(drop));
        hot_csv.push(r.csv);
    }
    let cfg = release_config("hg", EPS_MAIN, 0)?;
    report.check(check_reference(
        &inputs.main.hierarchy,
        &inputs.main.data,
        &cfg,
        s.hot[0],
        &hot_csv[0],
    ));

    let ctx = Ctx {
        inputs,
        s: &s,
        main,
        server: &stack.server,
    };
    let mut conn = Conn::open(stack.server.addr())?;
    let mut samples = Vec::new();
    let mut lag_ms = Vec::new();
    for (rate, arrivals) in s.segments.iter().map(|(r, a)| (*r, a)) {
        let start = Instant::now();
        let got = run_arrivals(&mut conn, &ctx, rate, arrivals, false)?;
        let last_due = got.iter().map(|a| a.sent.due).max().unwrap_or(start);
        let last_done = got.iter().map(|a| a.at).max().unwrap_or(start);
        let drain = ms(last_done.saturating_duration_since(last_due));
        t.drain_ms[rate] = t.drain_ms[rate].max(drain);
        t.busy_s[rate] += last_done.duration_since(start).as_secs_f64();
        // Off the clock, before the next segment: judge every response.
        let mut derived_data = None;
        for a in &got {
            judge(a, &ctx, &hot_csv, &mut derived_data, &mut t, report);
            if matches!(a.frame.ftype, T_RESULT | T_OK_TEXT) {
                t.latencies_ms[rate].push(ms(a.at.saturating_duration_since(a.sent.due)));
            }
            lag_ms.push(ms(a.sent.sent.saturating_duration_since(a.sent.due)));
            samples.push(WireSample {
                name: op_name(a.sent.op),
                request: a.frame.request_id,
                due: a.sent.due,
                sent: a.sent.sent,
                done: a.at,
            });
        }
    }
    let cleanup = [Arrival {
        at: Duration::ZERO,
        ops: s.cleanup.clone(),
    }];
    let tail = run_arrivals(&mut conn, &ctx, 0, &cleanup, true)?;
    let parked = conn.parked;
    conn.close()?;
    // The set-up connection sat idle through the open loop; the reactor
    // may have closed it, so later requests go on a fresh one.
    stack.client = Stack::connect(stack.server.addr())?;
    for a in &tail {
        let mut scratch = Tally::default();
        judge(a, &ctx, &hot_csv, &mut None, &mut scratch, report);
        if scratch.failed.iter().sum::<u64>() > 0 {
            report.fail(format!("cleanup {:?} failed", a.sent.op));
        }
    }
    for (slot, first) in t.first.iter().enumerate() {
        let Some(first) = first else {
            continue;
        };
        let derived;
        let truth = match &first.delta {
            None => &inputs.main,
            Some(j) => {
                derived = inputs
                    .main
                    .apply_delta(&s.deltas[*j])
                    .map_err(|e| format!("delta {j}: {e}"))?;
                &derived
            }
        };
        let cfg = release_config("hg", first.epsilon, 0)?;
        report.check(
            check_reference(&truth.hierarchy, &truth.data, &cfg, first.seed, &first.csv)
                .map_err(|e| format!("first {} release: {e}", ["main", "derived"][slot])),
        );
    }
    for h in &handles {
        let want = spent_before[h] + t.charged.get(h).copied().unwrap_or(0.0);
        report.check(check_ledger(
            &h.to_string(),
            stack.engine.budget_spent(*h),
            want,
        ));
    }

    // Metrics.
    let sent = samples.len() as u64;
    report.attempted = sent;
    report.failed = t.failed.iter().sum();
    let mut max_rate = 0.0;
    for (i, name) in RATE_NAMES.iter().enumerate() {
        let lat = &t.latencies_ms[i];
        if lat.len() < inputs.size.min_samples {
            report.fail(format!("rate {name}: only {} samples", lat.len()));
        }
        // A failed request misses any latency limit.
        let mut with_failures = lat.clone();
        with_failures.extend((0..t.failed[i]).map(|_| f64::INFINITY));
        let p90_all = quantile(&with_failures, 0.9).unwrap_or(f64::INFINITY);
        if p90_all <= OPEN_SLO_MS && t.drain_ms[i] <= OPEN_SLO_MS {
            max_rate = inputs.size.rates[i];
        }
        report.set(&format!("p50_ms.{name}"), median(lat));
        report.set(&format!("p90_ms.{name}"), quantile(lat, 0.9).unwrap_or(0.0));
    }
    let all: Vec<f64> = t.latencies_ms.iter().flatten().copied().collect();
    report.set(
        "releases_per_s",
        t.computed as f64 / t.busy_s.iter().sum::<f64>(),
    );
    report.set("latency_p50_ms", median(&all));
    report.set("max_rate_at_slo", max_rate);
    report.set(
        "ok_ratio",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    report.set("emd_per_group", t.quality.per_group());
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("loadgen.lag_p90_ms", quantile(&lag_ms, 0.9).unwrap_or(0.0));
    report.set("loadgen.sent", sent as f64);
    report.set("loadgen.completed", (sent - report.failed) as f64);
    report.set("hcc-engine.queue_full", t.queue_full as f64);
    report.set("wire.parked", parked as f64);
    Ok((stack, samples))
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Fresh { .. } => "wire.submit_fresh",
        Op::Hit { .. } => "wire.submit_hit",
        Op::Derive { .. } => "wire.derive",
        Op::OnDerived { .. } => "wire.submit_derived",
        Op::DropDerived { .. } | Op::DropSmall => "wire.unprepare",
        Op::PrepareSmall => "wire.prepare",
    }
}
