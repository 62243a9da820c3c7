//! `serve_point` and `serve_drift`: open-loop traffic against an
//! in-process `net::Server` with two workers.
//!
//! One connection carries the whole schedule, pipelined: a sender
//! thread writes each request at its due time (sleeping, then spinning
//! the last stretch, since a plain sleep overshoots by more than the
//! server's service time) and a receiver thread reads responses as they
//! arrive. Latency runs from the *due* time to receipt.
//!
//! * `serve_point` serves short QTYPE1 queries over four_tragedy from
//!   `APEX⁰` with manual refresh, no WAL and the engine's unbounded
//!   pool: framing, the reader thread, queue hand-off and the socket
//!   dominate, and the kernels do almost nothing.
//! * `serve_drift` serves Flix02 with a WAL (`DurabilityConfig::default()`),
//!   a durable refresher and `EveryN` refresh, while the query stream
//!   drifts in phases over three disjoint slices of the QTYPE1 pool:
//!   every read is also a monitor record and a WAL append, and refresh,
//!   swap and checkpoint run beside the reads. After the drain the run
//!   times `apex::recover` over the WAL directory.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apex::wal::{CrashPlan, DurabilityConfig, Wal};
use apex::{
    recover, Apex, IndexCell, RecoverOptions, RefreshPolicy, Refresher, ServeStats, WorkloadMonitor,
};
use apex_net::wire::{read_message, write_message, Message, Request, DEFAULT_MAX_FRAME};
use apex_net::{Engine, NetStats, Server, ServerConfig, Status};
use apex_query::apex_qp::ApexProcessor;
use apex_query::{Query, QueryProcessor};
use datagen::Dataset;

use crate::ladder;
use crate::measure::{
    due_latency_us, lag_us, peak_rss_mib, quantile_of, ratio, windowed_quantile, Meter, QType, Rng,
};
use crate::report::Outcome;
use crate::setup::{self, Data, Expected, Item, Oracle, WorkDir};
use crate::trace::{self, Span, Tracer};
use crate::Args;

/// One serving workload.
pub struct Spec {
    /// Workload name (scratch directory tag).
    pub name: &'static str,
    /// The dataset served.
    pub dataset: Dataset,
    /// Offered load, requests per second.
    pub rate: f64,
    /// Whether the WAL, refresher and drifting schedule are on.
    pub drift: bool,
}

/// `serve_point`: below the knee, so latency is the transport's.
pub const POINT: Spec = Spec {
    name: "serve_point",
    dataset: Dataset::FourTragedy,
    rate: 2000.0,
    drift: false,
};

/// `serve_drift`: the durable adaptive stack under drifting reads.
pub const DRIFT: Spec = Spec {
    name: "serve_drift",
    dataset: Dataset::Flix02,
    rate: 1000.0,
    drift: true,
};

/// Server executor threads.
const WORKERS: usize = 2;
/// Admission queue capacity: half a second of arrivals, so a host stall
/// of a few tens of milliseconds shows as latency rather than as sheds.
const QUEUE_CAP: usize = 1024;
/// QTYPE1 pool size; drift slices and point picks come from it.
const POOL_Q1: usize = 5000;
/// Longest QTYPE1 query `serve_point` sends.
const POINT_MAX_LABELS: usize = 2;
/// The sender spins (rather than sleeps) this close to a due time.
const SPIN: Duration = Duration::from_micros(100);
/// A run whose sends were later than these did not offer the schedule
/// it claims, so its numbers are invalid: the median send must be on
/// time, and no more than 1 % may trail by a stall of this length.
const LAG_P50_LIMIT_US: f64 = 100.0;
const LAG_P99_LIMIT_US: f64 = 100_000.0;
/// Drift: seconds each phase keeps to one slice of the pool.
const PHASE_S: u64 = 2;
/// Drift: distinct queries in each of the three slices. Few enough
/// that one refresh window makes a new slice's paths required, so each
/// phase adapts within a refresh period or two.
const DRIFT_SLICE: usize = 24;
/// Drift: monitor window, support threshold and refresh period.
const DRIFT_WINDOW: usize = 500;
const DRIFT_MIN_SUP: f64 = 0.01;
const DRIFT_REFRESH_EVERY: usize = 250;
/// Requests per latency window; p50 and p99 are reported as medians
/// over the windows (each window's p99 has 20 samples beyond it).
const WINDOW_REQUESTS: usize = 2000;
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

fn monitor(spec: &Spec) -> WorkloadMonitor {
    if spec.drift {
        WorkloadMonitor::new(
            DRIFT_WINDOW,
            DRIFT_MIN_SUP,
            RefreshPolicy::EveryN(DRIFT_REFRESH_EVERY),
        )
    } else {
        WorkloadMonitor::new(1000, 0.1, RefreshPolicy::Manual)
    }
}

/// A started serving stack.
struct Stack {
    data: Data,
    cell: Arc<IndexCell>,
    refresher: Option<Arc<Refresher>>,
    wal: Option<Arc<Wal>>,
    server: Option<Server>,
    work: Option<WorkDir>,
}

/// Builds the dataset and pools, `APEX⁰`, the WAL and refresher (drift)
/// and starts the server.
fn start(spec: &Spec, seed: u64, rep: usize) -> std::io::Result<Stack> {
    let data = setup::build_data(spec.dataset, seed, (POOL_Q1, 0, 0));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&data.g)));
    let mut mon = monitor(spec);
    let (mut wal, mut work) = (None, None);
    if spec.drift {
        let dir = WorkDir::new(&format!("{}-wal{rep}", spec.name))?;
        let w = Wal::open(&dir.0, DurabilityConfig::default(), CrashPlan::none())?;
        let w = Arc::new(w);
        mon.attach_wal(Arc::clone(&w));
        wal = Some(w);
        work = Some(dir);
    }
    let mon = Arc::new(Mutex::new(mon));
    let refresher = match &wal {
        Some(w) => Some(Arc::new(Refresher::spawn_durable(
            Arc::clone(&data.g),
            Arc::clone(&cell),
            Arc::clone(&mon),
            Arc::clone(w),
        )?)),
        None => None,
    };
    let mut engine = Engine::new(
        Arc::clone(&data.g),
        Arc::clone(&data.table),
        Arc::clone(&cell),
        mon,
    );
    if let Some(r) = &refresher {
        engine = engine.with_refresher(Arc::clone(r));
    }
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, cfg, "127.0.0.1:0")?;
    Ok(Stack {
        data,
        cell,
        refresher,
        wal,
        server: Some(server),
        work,
    })
}

/// Drains the server and stops the refresher (its final checkpoint
/// included).
fn stop(mut stack: Stack) -> (Stack, NetStats, Option<ServeStats>) {
    let mut server = stack.server.take().expect("stopped once");
    let net = server.drain();
    // The server's engine holds a refresher handle until it is dropped.
    drop(server);
    let serve = stack.refresher.take().map(|r| match Arc::try_unwrap(r) {
        Ok(r) => r.shutdown(),
        Err(_) => panic!("refresher still shared after drain"),
    });
    (stack, net, serve)
}

/// The seeded request schedule.
fn schedule(spec: &Spec, data: &Data, n: usize, seed: u64) -> Vec<(QType, Query)> {
    let mut rng = Rng::new(seed, 0x5343_4845);
    let mut pool: Vec<&Query> = Vec::new();
    let mut seen = BTreeSet::new();
    for q in &data.sets.qtype1 {
        let short = q.labels().is_some_and(|l| l.len() <= POINT_MAX_LABELS);
        if (spec.drift || short) && seen.insert(q.render(&data.g)) {
            pool.push(q);
        }
    }
    assert!(pool.len() >= 3, "query pool too small");
    rng.shuffle(&mut pool);
    let phases = (n as u64 / (spec.rate as u64 * PHASE_S)).max(1) as usize;
    (0..n)
        .map(|i| {
            let q = if spec.drift {
                // Phase k draws from slice k mod 3 of the shuffled pool.
                let slice = (i * phases / n) % 3;
                let len = DRIFT_SLICE.min(pool.len() / 3);
                pool[slice * len + rng.below(len)]
            } else {
                pool[rng.below(pool.len())]
            };
            (QType::Q1, q.clone())
        })
        .collect()
}

/// What one open-loop run saw.
#[derive(Default)]
struct OpenLoop {
    /// `(due time s, due-time latency µs)` of each `Ok` response.
    latency: Vec<(f64, f64)>,
    /// Send lateness, µs.
    lag: Vec<f64>,
    /// Server-side service time of each `Ok` response, µs.
    service: Vec<f64>,
    /// Latency outside the server (latency − service), µs.
    outside: Vec<f64>,
    sent: u64,
    ok: u64,
    join_work: u64,
    /// What the same `Ok` requests cost in join work on `APEX⁰`.
    apex0_join_work: u64,
    generations: BTreeSet<u64>,
    wrong: Vec<String>,
    wall_s: f64,
    /// CPU time of the server's threads (and the refresher's).
    cpu_s: f64,
    spans: Vec<Span>,
}

/// Blocks until `due`: sleeps most of the way, spins the rest.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Response fields the receiver keeps.
struct Got {
    at: Instant,
    status: Status,
    /// False only for an `Ok` response whose rows are wrong.
    right: bool,
    server_us: u64,
    generation: u64,
    join_work: u64,
}

/// Sends `items` at `rate` over one pipelined connection and collects
/// every response. `request_base` numbers the requests for the trace.
fn open_loop(
    addr: SocketAddr,
    items: &[Item],
    oracle: &Oracle,
    rate: f64,
    trace_epoch: Option<Instant>,
    request_base: u64,
) -> std::io::Result<OpenLoop> {
    let traced = trace_epoch.is_some();
    // Frames are encoded up front so the sender only writes bytes.
    let frames: Vec<Vec<u8>> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let mut frame = Vec::new();
            let request = Message::Request(Request {
                id: i as u64,
                deadline_ms: 0,
                query: item.text.clone(),
            });
            write_message(&mut frame, &request).expect("request frames encode");
            frame
        })
        .collect();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(10)))?;
    let period = Duration::from_secs_f64(1.0 / rate);
    let n = items.len();
    let meter = Meter::start();
    let epoch = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| period * i as u32;

    let (sends, got, send_spans, recv_spans) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut tracer = Tracer::new(trace_epoch.unwrap_or(epoch), traced);
            let mut w = &stream;
            let mut sends = Vec::with_capacity(n);
            for (i, frame) in frames.iter().enumerate() {
                wait_until(epoch + due(i));
                let t0 = Instant::now();
                if w.write_all(frame).is_err() {
                    break;
                }
                let t1 = Instant::now();
                tracer.record("send", t0, t1, None, request_base + i as u64);
                sends.push(t0);
            }
            (sends, tracer.into_spans())
        });
        let receiver = s.spawn(|| {
            let mut tracer = Tracer::new(trace_epoch.unwrap_or(epoch), traced);
            let mut got: Vec<Option<Got>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let read_start = Instant::now();
                let resp = match read_message(&mut reader, DEFAULT_MAX_FRAME) {
                    Ok(Some(Message::Response(r))) => r,
                    _ => break,
                };
                let at = Instant::now();
                let Some(slot) = got.get_mut(resp.id as usize) else {
                    break;
                };
                let i = resp.id as usize;
                let right = resp.status != Status::Ok
                    || oracle.answers[items[i].expect].matches_rows(resp.total_rows, &resp.rows);
                if tracer.enabled() {
                    let req = request_base + i as u64;
                    tracer.record("recv", read_start, at, None, req);
                    tracer.record("request", epoch + due(i), at, None, req);
                }
                *slot = Some(Got {
                    at,
                    status: resp.status,
                    right,
                    server_us: resp.server_us,
                    generation: resp.generation,
                    join_work: resp.join_work,
                });
            }
            (got, tracer.into_spans())
        });
        let (sends, send_spans) = sender.join().expect("sender thread panicked");
        let (got, recv_spans) = receiver.join().expect("receiver thread panicked");
        (sends, got, send_spans, recv_spans)
    });
    // Before the close, so the server's reader thread is still counted;
    // the two generator threads have exited and are not.
    let (wall_s, cpu_s) = meter.stop();
    drop(stream);

    let mut out = OpenLoop {
        sent: sends.len() as u64,
        wall_s,
        cpu_s,
        ..OpenLoop::default()
    };
    for (i, &t) in sends.iter().enumerate() {
        out.lag.push(lag_us(due(i), t - epoch));
    }
    let mut last = epoch;
    for (i, g) in got.iter().enumerate() {
        // Unanswered and non-`Ok` requests count as failed by the caller.
        let Some(g) = g.as_ref().filter(|g| g.status == Status::Ok) else {
            continue;
        };
        last = last.max(g.at);
        if !g.right && out.wrong.len() < 3 {
            out.wrong.push(format!("wrong answer to {}", items[i].text));
        }
        let latency = due_latency_us(due(i), g.at - epoch);
        out.ok += 1;
        out.latency.push((due(i).as_secs_f64(), latency));
        out.service.push(g.server_us as f64);
        out.outside.push(latency - g.server_us as f64);
        out.join_work += g.join_work;
        out.apex0_join_work += oracle.join_work[items[i].expect];
        out.generations.insert(g.generation);
    }
    out.wall_s = out.wall_s.min((last - epoch).as_secs_f64().max(1e-9));
    if traced {
        out.spans = trace::merge(vec![send_spans, recv_spans]);
        trace::adopt(&mut out.spans, "request");
    }
    Ok(out)
}

/// Runs a serving workload.
pub fn run(spec: &Spec, args: &Args) -> (Outcome, Vec<Span>) {
    let mut o = Outcome::default();
    let mut spans = Vec::new();
    if let Err(e) = run_inner(spec, args, &mut o, &mut spans) {
        o.errors.push(format!("{}: {e}", spec.name));
    }
    o.set("peak_rss_mb", peak_rss_mib());
    (o, spans)
}

fn run_inner(
    spec: &Spec,
    args: &Args,
    o: &mut Outcome,
    spans: &mut Vec<Span>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = stack.take() {
            drop(stop(old));
        }
        let t = Instant::now();
        stack = Some(start(spec, args.seed, rep)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up");
    o.set("setup_s", quantile_of(&setups, 0.5));

    // Untimed: the schedule, its expected answers, a naive cross-check.
    let n = (spec.rate * args.seconds as f64) as usize;
    let (items, distinct) = setup::items(&stack.data.g, &schedule(spec, &stack.data, n, args.seed));
    let apex0 = Apex::build_initial(&stack.data.g);
    let oracle = setup::oracle(&stack.data, &apex0, distinct);
    if let Err(e) = setup::cross_check_naive(&stack.data, &oracle, args.seed, [6, 0, 0]) {
        o.errors.push(e);
    }

    // Timed: the whole schedule untraced, or in the traced run its
    // first half untraced and its second half traced.
    let addr = stack.server.as_ref().expect("running").local_addr();
    let split = if args.trace { n / 2 } else { n };
    let first = open_loop(addr, &items[..split], &oracle, spec.rate, None, 0)?;
    let second = if args.trace {
        let epoch = Some(args.epoch);
        Some(open_loop(
            addr,
            &items[split..],
            &oracle,
            spec.rate,
            epoch,
            split as u64,
        )?)
    } else {
        None
    };
    let timed = second.as_ref().unwrap_or(&first);
    let (stack, net, serve) = stop(stack);

    let loops: Vec<&OpenLoop> = std::iter::once(&first).chain(second.as_ref()).collect();
    let sent: u64 = loops.iter().map(|s| s.sent).sum();
    let ok: u64 = loops.iter().map(|s| s.ok).sum();
    o.attempted = n as u64;
    o.failed = n as u64 - ok;
    for s in &loops {
        o.errors.extend(s.wrong.iter().cloned());
    }
    o.check(net.balanced(), || {
        format!("server ledger unbalanced: {net}")
    });
    o.check(net.accepted == sent, || {
        format!("server accepted {} of {sent} requests sent", net.accepted)
    });
    o.set("throughput_qps", timed.ok as f64 / timed.wall_s);
    // Medians and p99s are taken per window of WINDOW_REQUESTS due
    // times, then the median over the windows is reported: a stall of
    // the shared host moves one window, not the figure.
    let window_s = WINDOW_REQUESTS as f64 / spec.rate;
    let min_full = WINDOW_REQUESTS * 9 / 10;
    let p50 = |s: &OpenLoop| windowed_quantile(&s.latency, window_s, 0.5, min_full);
    o.set("p50_us", p50(timed));
    o.set(
        "loadgen.p99_us",
        windowed_quantile(&timed.latency, window_s, 0.99, min_full),
    );
    o.set("cpu_us_per_q", ratio(timed.cpu_s * 1e6, timed.ok as f64));
    o.set(
        "index.join_work_vs_apex0",
        ratio(timed.join_work as f64, timed.apex0_join_work as f64),
    );
    o.set("loadgen.samples", timed.latency.len() as f64);
    o.check(timed.latency.len() >= 1000, || {
        format!("only {} latency samples", timed.latency.len())
    });
    o.set(
        "loadgen.fail_ratio",
        ratio(o.failed as f64, o.attempted as f64),
    );
    let (lag_p50, lag_p99) = (quantile_of(&timed.lag, 0.5), quantile_of(&timed.lag, 0.99));
    o.set("loadgen.lag_p50_us", lag_p50);
    o.set("loadgen.lag_p99_us", lag_p99);
    o.check(
        lag_p50 <= LAG_P50_LIMIT_US && lag_p99 <= LAG_P99_LIMIT_US,
        || {
            format!(
                "generator ran late: send lag p50 {lag_p50:.0} us (limit {LAG_P50_LIMIT_US}), \
             p99 {lag_p99:.0} us (limit {LAG_P99_LIMIT_US})"
            )
        },
    );
    o.set("server.service_us_p50", quantile_of(&timed.service, 0.5));
    o.set("server.outside_us_p50", quantile_of(&timed.outside, 0.5));
    o.set("server.queue_hwm", net.queue_hwm as f64);
    o.set("server.shed", net.shed as f64);
    let generations: BTreeSet<u64> = loops
        .iter()
        .flat_map(|s| s.generations.iter().copied())
        .collect();
    o.set("serve.generations_seen", generations.len() as f64);

    if spec.drift {
        o.set(
            "serve.drift_join_work_per_q",
            ratio(timed.join_work as f64, timed.ok as f64),
        );
        drift_ledgers(&stack, serve.unwrap_or_default(), ok, args.seed, &oracle, o)?;
    }

    if args.trace {
        o.set("loadgen.trace_overhead", ratio(p50(timed), p50(&first)));
        o.set(
            "loadgen.request_self_us_p50",
            quantile_of(&trace::self_times_us(&timed.spans, "request"), 0.5),
        );
        let rung_spans = serve_ladder(spec, &stack, &items, &oracle.answers, args.epoch, o)?;
        *spans = trace::merge(vec![timed.spans.clone(), rung_spans]);
    }
    Ok(())
}

/// The drift run's write-path, refresher and recovery ledgers.
fn drift_ledgers(
    stack: &Stack,
    serve: ServeStats,
    completed: u64,
    seed: u64,
    oracle: &Oracle,
    o: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let wal = stack.wal.as_ref().expect("drift runs with a WAL").stats();
    let q = completed.max(1) as f64;
    o.set("wal.appends_per_q", wal.appended as f64 / q);
    o.set("wal.fsyncs_per_q", wal.fsyncs as f64 / q);
    o.set("wal.bytes_per_q", wal.bytes_appended as f64 / q);
    o.set("wal.checkpoints", wal.checkpoints as f64);
    o.set("serve.swaps", serve.refreshes as f64);
    o.set(
        "serve.coalesced_ratio",
        ratio(
            serve.coalesced as f64,
            (serve.coalesced + serve.refreshes + serve.empty_windows) as f64,
        ),
    );
    let swaps: Vec<f64> = serve
        .records
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect();
    o.set("serve.swap_ms_p50", quantile_of(&swaps, 0.5));
    o.set("serve.swap_ms_max", quantile_of(&swaps, 1.0));
    o.check(serve.checkpoint_errors == 0, || {
        format!("{} checkpoint(s) failed", serve.checkpoint_errors)
    });

    let dir = &stack.work.as_ref().expect("drift runs in a work dir").0;
    let opts = RecoverOptions {
        capacity: DRIFT_WINDOW,
        min_sup: DRIFT_MIN_SUP,
        policy: RefreshPolicy::EveryN(DRIFT_REFRESH_EVERY),
        ..RecoverOptions::default()
    };
    let t = Instant::now();
    let rec = recover(dir, &stack.data.g, &opts)?;
    o.set("recover.recover_s", t.elapsed().as_secs_f64());
    o.set("recover.applied_records", rec.report.applied as f64);
    o.set("recover.wal_bytes", rec.report.wal_bytes as f64);
    let after = wal.clone().after_recovery(rec.report.replayed);
    o.check(after.balanced(), || {
        format!("WAL ledger unbalanced after recovery: {after:?}")
    });
    o.check(rec.generation == stack.cell.generation(), || {
        format!(
            "recovered generation {} but served {}",
            rec.generation,
            stack.cell.generation()
        )
    });
    // The recovered index answers a seeded sample identically.
    let p = ApexProcessor::new(&stack.data.g, &rec.index, &stack.data.table);
    let mut picks: Vec<usize> = (0..oracle.distinct.len()).collect();
    Rng::new(seed, 0x5245_4356).shuffle(&mut picks);
    for &i in picks.iter().take(32) {
        let (_, q) = &oracle.distinct[i];
        o.check(oracle.answers[i].matches_nodes(&p.eval(q).nodes), || {
            format!(
                "recovered index answers {} differently",
                q.render(&stack.data.g)
            )
        });
    }
    Ok(())
}

/// The ladder over the serving index: eval on a private pool, then an
/// Engine like the served one (for drift, with its own WAL).
fn serve_ladder(
    spec: &Spec,
    stack: &Stack,
    items: &[Item],
    answers: &[Expected],
    epoch: Instant,
    o: &mut Outcome,
) -> Result<Vec<Span>, Box<dyn std::error::Error>> {
    let snap = stack.cell.snapshot();
    let mut mon = monitor(spec);
    let work = if spec.drift {
        let dir = WorkDir::new(&format!("{}-ladder-wal", spec.name))?;
        let wal = Wal::open(&dir.0, DurabilityConfig::default(), CrashPlan::none())?;
        mon.attach_wal(Arc::new(wal));
        Some(dir)
    } else {
        None
    };
    let cell = IndexCell::with_generation(snap.index().clone(), snap.generation());
    let data = &stack.data;
    let (spans, buf) = ladder::replay(items, answers, data, Arc::new(cell), mon, epoch, o);
    let q = items.len().max(1) as f64;
    o.set("bufmgr.hit_rate", buf.hit_rate());
    o.set("bufmgr.evictions_per_q", buf.evictions as f64 / q);
    o.set("bufmgr.pages_read_per_q", buf.pages_read as f64 / q);
    o.set(
        "index.resident_bytes",
        snap.index().stats().extent_resident_bytes as f64,
    );
    drop(work);
    Ok(spans)
}
