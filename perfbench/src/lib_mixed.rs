//! `lib_mixed`: in-process `ApexProcessor::eval` over Ged03.
//!
//! The APEX is refined at minSup 0.01 from the 20 % workload sample
//! (§6.1). One seeded, shuffled list in the paper's QTYPE1:QTYPE2:QTYPE3
//! ratio of 10:1:2 is striped over two threads that share one processor,
//! whose buffer pool holds a quarter of the index's extent pages. No
//! socket, monitor or WAL is involved: kernels, planner, the QTYPE2
//! fixpoint, data-table probes and `bufmgr` do the work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apex::{Apex, IndexCell, RefreshPolicy, WorkloadMonitor};
use apex_query::apex_qp::ApexProcessor;
use apex_query::{Query, QueryProcessor};
use apex_storage::BufferHandle;
use datagen::Dataset;

use crate::ladder;
use crate::measure::{peak_rss_mib, quantile_of, ratio, thread_cpu_s, QType, Rng, TypeSplit};
use crate::report::Outcome;
use crate::setup::{self, Data, Expected, Item};
use crate::trace::{self, Span, Tracer};
use crate::Args;

/// Query pools at the paper's counts (QTYPE1, QTYPE2, QTYPE3).
const POOLS: (usize, usize, usize) = (5000, 500, 1000);
/// QTYPE2 queries in the list; QTYPE1 and QTYPE3 follow at 10:1:2.
const LIST_Q2: usize = 180;
/// The paper's support threshold for the refined APEX.
const MIN_SUP: f64 = 0.01;
/// Load threads sharing the processor.
const THREADS: usize = 2;
/// The ladder replays every `LADDER_STRIDE`-th query of the list (a
/// seeded sample, since the list is a seeded shuffle), which keeps the
/// traced run well inside its time limit.
const LADDER_STRIDE: usize = 3;
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What one pass over the list measured.
#[derive(Default)]
struct Pass {
    split: TypeSplit,
    queries: u64,
    /// CPU time of the load threads.
    cpu_s: f64,
    join_work: u64,
    wrong: Vec<String>,
    spans: Vec<Vec<Span>>,
}

/// Builds the dataset, the query pools, `APEX⁰` and the refined APEX.
fn build(seed: u64) -> (Data, Apex, Apex) {
    let data = setup::build_data(Dataset::Ged03, seed, POOLS);
    let apex0 = Apex::build_initial(&data.g);
    let mut apex = apex0.clone();
    apex.refine(&data.g, &data.sets.workload, MIN_SUP);
    (data, apex0, apex)
}

/// The seeded, shuffled 10:1:2 list.
fn list(data: &Data, seed: u64) -> Vec<(QType, Query)> {
    let s = &data.sets;
    let mut picks: Vec<(QType, Query)> = Vec::new();
    picks.extend(
        s.qtype1
            .iter()
            .take(10 * LIST_Q2)
            .map(|q| (QType::Q1, q.clone())),
    );
    picks.extend(
        s.qtype2
            .iter()
            .take(LIST_Q2)
            .map(|q| (QType::Q2, q.clone())),
    );
    picks.extend(
        s.qtype3
            .iter()
            .take(2 * LIST_Q2)
            .map(|q| (QType::Q3, q.clone())),
    );
    Rng::new(seed, 0x4C49_5354).shuffle(&mut picks);
    picks
}

/// One pass over the list. Each thread takes the next unclaimed item,
/// so both finish within one query of each other; a fixed striping
/// would leave one thread idle while the other works through its share
/// of the slow QTYPE2 queries.
fn pass(
    p: &ApexProcessor<'_>,
    items: &[Item],
    answers: &[Expected],
    tracer_epoch: Option<Instant>,
    first_request: u64,
) -> Pass {
    let next = AtomicUsize::new(0);
    let parts: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let cpu0 = thread_cpu_s();
                    let epoch = tracer_epoch.unwrap_or_else(Instant::now);
                    let mut tracer = Tracer::new(epoch, tracer_epoch.is_some());
                    let mut out = Pass::default();
                    // Relaxed: the counter only hands out indices; the
                    // items are read-only and shared by the scope.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        let t0 = Instant::now();
                        let res = p.eval(&item.query);
                        let t1 = Instant::now();
                        if !answers[item.expect].matches_nodes(&res.nodes) && out.wrong.len() < 3 {
                            out.wrong.push(format!("wrong answer to {}", item.text));
                        }
                        if tracer.enabled() {
                            let t2 = Instant::now();
                            let req = first_request + i as u64;
                            let root = tracer.record("request", t0, t2, None, req);
                            tracer.record("eval", t0, t1, root, req);
                        }
                        out.split.push(item.kind, (t1 - t0).as_secs_f64() * 1e6);
                        out.queries += 1;
                        out.join_work += res.cost.join_work;
                    }
                    out.spans.push(tracer.into_spans());
                    out.cpu_s = thread_cpu_s() - cpu0;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lib_mixed load thread panicked"))
            .collect()
    });
    let mut all = Pass::default();
    for part in parts {
        all.split.merge(part.split);
        all.queries += part.queries;
        all.cpu_s += part.cpu_s;
        all.join_work += part.join_work;
        all.wrong.extend(part.wrong);
        all.spans.extend(part.spans);
    }
    all
}

/// Runs the workload.
pub fn run(args: &Args) -> (Outcome, Vec<Span>) {
    let mut o = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (data, apex0, apex) = built.expect("at least one set-up");
    o.set("setup_s", quantile_of(&setups, 0.5));

    // Untimed: expected answers, and a naive cross-check of a sample.
    let t = Instant::now();
    let (items, distinct) = setup::items(&data.g, &list(&data, args.seed));
    let oracle = setup::oracle(&data, &apex0, distinct);
    drop(apex0);
    if let Err(e) = setup::cross_check_naive(&data, &oracle, args.seed, [3, 1, 2]) {
        o.errors.push(e);
    }
    eprintln!(
        "lib_mixed: set-up {:.1} s x{SETUP_REPS}, oracle of {} distinct queries {:.1} s",
        o.values["setup_s"],
        oracle.distinct.len(),
        t.elapsed().as_secs_f64()
    );

    let stats = apex.stats();
    let extent_pages = stats
        .extent_encoded_bytes
        .div_ceil(apex_storage::PageModel::default().page_size);
    let pool = BufferHandle::with_capacity_pages((extent_pages as u64 / 4).max(1));
    let p = ApexProcessor::with_buffer(&data.g, &apex, &data.table, pool.clone());

    // Timed passes until the run length is used up. In the traced run
    // the first pass is untraced and the rest traced, so the two can be
    // compared within one run.
    let epoch = args.epoch;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut untraced = Pass::default();
    let mut traced = Pass::default();
    let mut wall = 0.0;
    let mut cpu = 0.0;
    let mut buf_before = pool.stats();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < budget || (args.trace && passes < 2) {
        let trace_this = args.trace && passes > 0;
        if trace_this && traced.queries == 0 {
            buf_before = pool.stats();
        }
        let t = Instant::now();
        let first = passes * items.len() as u64;
        let out = pass(
            &p,
            &items,
            &oracle.answers,
            trace_this.then_some(epoch),
            first,
        );
        wall += t.elapsed().as_secs_f64();
        cpu += out.cpu_s;
        passes += 1;
        let acc = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        acc.split.merge(out.split);
        acc.queries += out.queries;
        acc.join_work += out.join_work;
        acc.wrong.extend(out.wrong);
        acc.spans.extend(out.spans);
    }
    let buf = pool.stats() - buf_before;
    o.errors
        .extend(untraced.wrong.iter().chain(&traced.wrong).take(3).cloned());

    let timed = if args.trace { &traced } else { &untraced };
    let n = (untraced.queries + traced.queries) as f64;
    let lat = timed.split.all();
    o.attempted = untraced.queries + traced.queries;
    o.set("throughput_qps", n / wall);
    o.set("p50_us", quantile_of(&lat, 0.5));
    o.set("loadgen.p99_us", quantile_of(&lat, 0.99));
    o.set("cpu_us_per_q", cpu * 1e6 / n);
    let passes_timed = timed.queries / items.len() as u64;
    o.set(
        "index.join_work_vs_apex0",
        ratio(
            timed.join_work as f64,
            (passes_timed * oracle.join_work_of(&items)) as f64,
        ),
    );
    o.set("exec.q2_p50_us", timed.split.p50(QType::Q2));
    o.set("exec.q3_p50_us", timed.split.p50(QType::Q3));
    o.set("loadgen.samples", lat.len() as f64);
    o.check(lat.len() >= 1000, || {
        format!("only {} latency samples", lat.len())
    });
    eprintln!(
        "lib_mixed: {passes} pass(es) of {} queries; share of time Q1 {:.2} Q2 {:.2} Q3 {:.2}",
        items.len(),
        timed.split.share(QType::Q1),
        timed.split.share(QType::Q2),
        timed.split.share(QType::Q3)
    );

    let mut spans = Vec::new();
    if args.trace {
        o.set("bufmgr.hit_rate", buf.hit_rate());
        o.set(
            "bufmgr.evictions_per_q",
            ratio(buf.evictions as f64, traced.queries as f64),
        );
        o.set(
            "bufmgr.pages_read_per_q",
            ratio(buf.pages_read as f64, traced.queries as f64),
        );
        o.set("index.resident_bytes", stats.extent_resident_bytes as f64);
        o.set(
            "loadgen.trace_overhead",
            ratio(
                quantile_of(&lat, 0.5),
                quantile_of(&untraced.split.all(), 0.5),
            ),
        );
        spans = trace::merge(std::mem::take(&mut traced.spans));
        o.set(
            "loadgen.request_self_us_p50",
            quantile_of(&trace::self_times_us(&spans, "request"), 0.5),
        );
        // The ladder: a sample of the list through eval and through an
        // Engine over the same index (manual refresh, no WAL).
        let sample: Vec<Item> = items.iter().step_by(LADDER_STRIDE).cloned().collect();
        let (rung_spans, _) = ladder::replay(
            &sample,
            &oracle.answers,
            &data,
            Arc::new(IndexCell::new(apex.clone())),
            WorkloadMonitor::new(1000, MIN_SUP, RefreshPolicy::Manual),
            epoch,
            &mut o,
        );
        spans = trace::merge(vec![spans, rung_spans]);
    }
    o.set("peak_rss_mb", peak_rss_mib());
    (o, spans)
}
