//! Batch execution: the unit Figures 13–15 report (total execution time
//! of a query set over one index), plus the adaptive driver
//! ([`run_adaptive`]) that records every query into a
//! [`WorkloadMonitor`] while serving through an [`IndexCell`] snapshot.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use apex::{IndexCell, Refresher, WorkloadMonitor};
use apex_storage::bufmgr::{BufferHandle, BufferStats};
use apex_storage::{Cost, DataTable};
use xmlgraph::{LabelPath, NodeId, XmlGraph};

use crate::apex_qp::ApexProcessor;
use crate::ast::Query;
use crate::stats::percentile;

/// Result of one query: result nodes (sorted by document order, as the
/// paper post-processes) plus the logical cost incurred.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Result nodes in document order, deduplicated.
    pub nodes: Vec<NodeId>,
    /// Logical cost counters for this query.
    pub cost: Cost,
    /// True when execution stopped early at a deadline checkpoint (the
    /// nodes collected so far are a correct partial answer; the serving
    /// layer reports such queries as `DeadlineExceeded`, never as
    /// complete results).
    pub interrupted: bool,
    /// Predicted-vs-actual plan report, when the query ran through the
    /// planner (`None` for the naive oracle).
    pub plan: Option<crate::plan::PlanReport>,
}

/// A query processor over one index structure.
pub trait QueryProcessor {
    /// Short name for tables ("APEX", "SDG", "1-index", "Fabric", "naive").
    fn name(&self) -> &'static str;
    /// Evaluates one query.
    fn eval(&self, q: &Query) -> QueryOutput;
    /// The cross-query buffer pool this processor charges against, if it
    /// evaluates through the shared execution layer.
    fn buffer(&self) -> Option<&BufferHandle> {
        None
    }
}

/// Aggregates over a batch of queries.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Total result nodes across all queries.
    pub result_nodes: usize,
    /// Queries with empty results.
    pub empty_results: usize,
    /// Accumulated logical cost.
    pub cost: Cost,
    /// Accumulated wall-clock time.
    pub wall: Duration,
    /// Buffer-pool activity during the batch (hits/misses/evictions),
    /// when the processor exposes its pool.
    pub buf: Option<BufferStats>,
}

impl BatchStats {
    /// One row of a figure: `pages`, `total logical`, `wall ms`, and the
    /// pool's hit rate when available.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} queries, {} result nodes ({} empty) | pages={} logical={} wall={:.1}ms",
            self.queries,
            self.result_nodes,
            self.empty_results,
            self.cost.pages_read,
            self.cost.total(),
            crate::stats::millis(self.wall),
        );
        if let Some(b) = &self.buf {
            s.push_str(&format!(" | {b}"));
        }
        s
    }
}

/// Runs `queries` through `p`, accumulating cost, wall time, and the
/// processor's buffer-pool delta.
pub fn run_batch(p: &dyn QueryProcessor, queries: &[Query]) -> BatchStats {
    run_batch_iter(p, queries.iter())
}

/// [`run_batch`] over any query sequence — shared by the sequential
/// entry point and the striped parallel workers.
fn run_batch_iter<'q>(
    p: &dyn QueryProcessor,
    queries: impl Iterator<Item = &'q Query>,
) -> BatchStats {
    let before = p.buffer().map(|b| b.stats());
    let mut stats = BatchStats::default();
    let start = Instant::now();
    for q in queries {
        let out = p.eval(q);
        stats.queries += 1;
        stats.result_nodes += out.nodes.len();
        if out.nodes.is_empty() {
            stats.empty_results += 1;
        }
        stats.cost += out.cost;
    }
    stats.wall = start.elapsed();
    stats.buf = match (p.buffer(), before) {
        (Some(b), Some(s0)) => Some(b.stats() - s0),
        _ => None,
    };
    stats
}

/// Runs `queries` across `threads` worker threads sharing the processor
/// immutably (processors hold only shared references to the index and
/// data; the buffer pool behind [`QueryProcessor::buffer`] is shared by
/// all workers through its internal lock). Logical costs are summed;
/// wall time is the batch's span, so speed-up shows directly against
/// [`run_batch`]; the buffer delta covers the whole batch.
pub fn run_batch_parallel(
    p: &(dyn QueryProcessor + Sync),
    queries: &[Query],
    threads: usize,
) -> BatchStats {
    let threads = threads.max(1).min(queries.len().max(1));
    let before = p.buffer().map(|b| b.stats());
    let start = Instant::now();
    // Striped (round-robin) assignment: worker t takes queries t, t+T,
    // t+2T, … Contiguous `chunks()` handed the whole remainder to the
    // last worker (with 100 queries on 8 threads, chunk = ⌈100/8⌉ = 13,
    // so worker 7 got 9 while the rest got 13 — and with pathological
    // ratios a worker could idle entirely). Stripes differ in size by at
    // most one query, and interleave hot/cold queries across workers.
    let partials: Vec<BatchStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || run_batch_iter(p, queries.iter().skip(t).step_by(threads)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut stats = BatchStats::default();
    for part in partials {
        stats.queries += part.queries;
        stats.result_nodes += part.result_nodes;
        stats.empty_results += part.empty_results;
        stats.cost += part.cost;
    }
    stats.wall = start.elapsed();
    // Per-worker deltas overlap on the shared pool; the batch-level
    // delta is the authoritative account.
    stats.buf = match (p.buffer(), before) {
        (Some(b), Some(s0)) => Some(b.stats() - s0),
        _ => None,
    };
    stats
}

/// Queries served against one index generation during an adaptive run.
#[derive(Debug, Clone, Default)]
pub struct GenerationRow {
    /// The snapshot generation these queries ran on.
    pub generation: u64,
    /// Queries answered on this generation.
    pub queries: usize,
    /// Result nodes across those queries.
    pub result_nodes: usize,
    /// Wall time spent on this generation.
    pub wall: Duration,
}

/// Result of an adaptive run: batch totals plus the per-generation
/// breakdown and wall-latency percentiles the serving layer reports.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Batch totals (cost, wall, buffer delta) over the whole run.
    pub batch: BatchStats,
    /// Per-generation breakdown, in generation order.
    pub per_generation: Vec<GenerationRow>,
    /// Snapshot swaps observed while serving (last − first generation).
    pub swaps_observed: u64,
    /// Median per-query wall latency.
    pub p50: Duration,
    /// 99th-percentile per-query wall latency.
    pub p99: Duration,
}

impl AdaptiveStats {
    /// One line per generation: `gen k: queries, result nodes, wall ms`.
    pub fn generation_lines(&self) -> Vec<String> {
        self.per_generation
            .iter()
            .map(|r| {
                format!(
                    "gen {}: {} queries, {} result nodes, {:.1}ms",
                    r.generation,
                    r.queries,
                    r.result_nodes,
                    crate::stats::millis(r.wall)
                )
            })
            .collect()
    }

    /// Headline: swaps, generations served, and latency percentiles.
    pub fn summary(&self) -> String {
        format!(
            "{} | {} swaps observed, {} generations served | p50={:.2}ms p99={:.2}ms",
            self.batch.summary(),
            self.swaps_observed,
            self.per_generation.len(),
            crate::stats::millis(self.p50),
            crate::stats::millis(self.p99),
        )
    }
}

/// The label path an adaptive run records for `q`, if it is a
/// path-shaped query the monitor's support counting understands
/// (ancestor-descendant queries are not label paths and are served
/// without being recorded).
pub fn recordable_path(q: &Query) -> Option<LabelPath> {
    match q {
        Query::PartialPath { labels } | Query::ValuePath { labels, .. } => {
            Some(LabelPath::new(labels.clone()))
        }
        Query::AncestorDescendant { .. } => None,
    }
}

/// The mixed read/record/adapt driver: serves `queries` through the
/// current [`IndexCell`] snapshot, records each one into the monitor,
/// nudges the refresher when the monitor's policy says a refresh is
/// due, and re-arms its processor whenever a new generation is
/// published — all while queries keep answering (the rebuild happens in
/// the refresher thread, never here).
///
/// Each generation's processor carries the generation as a buffer-pool
/// tag, so post-swap extents fault in cold instead of phantom-hitting
/// stale cached objects; the pool (and its stats) remains shared, and
/// `batch.buf` is the exact delta for this run.
pub fn run_adaptive(
    g: &XmlGraph,
    table: &DataTable,
    cell: &IndexCell,
    monitor: &Mutex<WorkloadMonitor>,
    refresher: &Refresher,
    queries: &[Query],
    buf: &BufferHandle,
) -> AdaptiveStats {
    let before = buf.stats();
    let start = Instant::now();
    let mut batch = BatchStats::default();
    let mut rows: Vec<GenerationRow> = Vec::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(queries.len());
    let first_generation = cell.generation();
    let mut i = 0usize;
    while i < queries.len() {
        let snap = cell.snapshot();
        let generation = snap.generation();
        // The processor plans against the snapshot's published
        // statistics — the planner never touches the live index at plan
        // time while the refresher swaps generations underneath.
        let p = ApexProcessor::with_buffer_tagged(g, snap.index(), table, buf.clone(), generation)
            .with_plan_stats(snap.stats());
        let mut row = GenerationRow {
            generation,
            ..GenerationRow::default()
        };
        let gen_start = Instant::now();
        while i < queries.len() && cell.generation() == generation {
            let q = &queries[i];
            let q_start = Instant::now();
            let out = p.eval(q);
            latencies.push(q_start.elapsed());
            row.queries += 1;
            row.result_nodes += out.nodes.len();
            batch.queries += 1;
            batch.result_nodes += out.nodes.len();
            if out.nodes.is_empty() {
                batch.empty_results += 1;
            }
            batch.cost += out.cost;
            let path = recordable_path(q);
            if path.is_some() || out.plan.is_some() {
                let due = {
                    let mut m = monitor.lock().unwrap_or_else(|p| p.into_inner());
                    // Close the loop: predicted vs actual per-operator
                    // cost of this query's plan feeds the monitor.
                    if let Some(rep) = &out.plan {
                        m.record_plan(rep.feedback());
                    }
                    if let Some(path) = path {
                        m.record(path);
                        m.refresh_due()
                    } else {
                        false
                    }
                };
                if due {
                    refresher.request_refresh();
                }
            }
            i += 1;
        }
        row.wall = gen_start.elapsed();
        if row.queries > 0 {
            match rows.last_mut() {
                // A publish can land between taking the snapshot and the
                // first query; fold re-runs of a generation together.
                Some(last) if last.generation == generation => {
                    last.queries += row.queries;
                    last.result_nodes += row.result_nodes;
                    last.wall += row.wall;
                }
                _ => rows.push(row),
            }
        }
    }
    batch.wall = start.elapsed();
    batch.buf = Some(buf.stats() - before);
    latencies.sort_unstable();
    AdaptiveStats {
        batch,
        per_generation: rows,
        swaps_observed: cell.generation() - first_generation,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProcessor;
    use apex_storage::{DataTable, PageModel};
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn queries_n(g: &xmlgraph::XmlGraph, n: usize) -> Vec<Query> {
        ["actor.name", "movie.title", "name", "title", "movie"]
            .iter()
            .cycle()
            .take(n)
            .map(|s| Query::PartialPath {
                labels: LabelPath::parse(g, s).unwrap().0,
            })
            .collect()
    }

    fn queries(g: &xmlgraph::XmlGraph) -> Vec<Query> {
        queries_n(g, 40)
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        // 43 queries on 7 threads: an uneven ratio (43 = 6×7 + 1) where
        // the old contiguous chunking (chunk = ⌈43/7⌉ = 7) would have
        // left the last worker a single query while others took 7.
        let qs = queries_n(&g, 43);
        // Fresh processors (= fresh pools): the pool is cross-query, so
        // reusing one processor would make the second batch all hits.
        let seq = run_batch(&NaiveProcessor::new(&g, &table), &qs);
        let par = run_batch_parallel(&NaiveProcessor::new(&g, &table), &qs, 7);
        assert_eq!(seq.queries, par.queries);
        assert_eq!(seq.result_nodes, par.result_nodes);
        assert_eq!(seq.empty_results, par.empty_results);
        // With an unbounded shared pool every distinct object misses
        // exactly once regardless of schedule, so aggregate costs (and
        // their per-operator attribution) are schedule-independent.
        assert_eq!(seq.cost, par.cost);
        let (sb, pb) = (seq.buf.unwrap(), par.buf.unwrap());
        assert_eq!(sb.misses, pb.misses);
        assert_eq!(sb.hits, pb.hits);
        assert!(sb.hits > 0, "batch with repeats must hit the pool");
    }

    #[test]
    fn striping_balances_uneven_ratios() {
        // The stripe sizes of any (queries, threads) ratio differ by at
        // most one — the invariant the round-robin switch establishes.
        for (n, threads) in [(43usize, 7usize), (100, 8), (5, 64), (1, 3), (17, 4)] {
            let spawned = threads.max(1).min(n.max(1));
            let sizes: Vec<usize> = (0..spawned)
                .map(|t| (0..n).skip(t).step_by(spawned).count())
                .collect();
            let (min, max) = (
                sizes.iter().copied().min().unwrap_or(0),
                sizes.iter().copied().max().unwrap_or(0),
            );
            assert!(max - min <= 1, "{n} queries / {threads} threads: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(min >= 1, "no worker may idle: {sizes:?}");
        }
    }

    #[test]
    fn parallel_handles_degenerate_thread_counts() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        let p = NaiveProcessor::new(&g, &table);
        let queries = vec![Query::PartialPath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
        }];
        for threads in [0, 1, 8, 64] {
            let s = run_batch_parallel(&p, &queries, threads);
            assert_eq!(s.queries, 1);
        }
    }

    #[test]
    fn batch_reports_buffer_delta_and_summary_hit_rate() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        let p = NaiveProcessor::new(&g, &table);
        let qs = queries(&g);
        let first = run_batch(&p, &qs);
        let b = first.buf.expect("naive exposes its pool");
        assert!(b.misses > 0);
        assert!(first.summary().contains("hit_rate"));
        // A second batch over the same processor is all hits — the delta
        // accounting must not re-report the first batch's misses.
        let second = run_batch(&p, &qs);
        let b2 = second.buf.unwrap();
        assert_eq!(b2.misses, 0);
        assert!(b2.hits > 0);
    }

    #[test]
    fn adaptive_run_serves_across_generations() {
        use apex::{Apex, RefreshPolicy};
        use std::sync::Arc;

        let g = Arc::new(moviedb());
        let table = DataTable::build(&g, PageModel::default());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.3,
            RefreshPolicy::EveryN(10),
        )));
        let refresher = Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))
            .expect("spawn refresher");
        let buf = BufferHandle::unbounded();

        // Phase 1: a hot actor.name workload. The EveryN(10) policy
        // requests a refresh on the 10th recorded query; wait_idle
        // between phases makes the generation advance deterministic.
        let qs1 = vec![
            Query::PartialPath {
                labels: LabelPath::parse(&g, "actor.name").unwrap().0,
            };
            12
        ];
        let s1 = run_adaptive(&g, &table, &cell, &monitor, &refresher, &qs1, &buf);
        assert_eq!(s1.batch.queries, 12);
        refresher.wait_idle();
        assert!(cell.generation() >= 1, "phase 1 must publish");
        assert!(cell
            .snapshot()
            .index()
            .required_paths(&g)
            .contains(&"actor.name".to_string()));

        // Phase 2: workload shifts to director.movie.
        let qs2 = vec![
            Query::PartialPath {
                labels: LabelPath::parse(&g, "director.movie").unwrap().0,
            };
            12
        ];
        let s2 = run_adaptive(&g, &table, &cell, &monitor, &refresher, &qs2, &buf);
        refresher.wait_idle();
        let g2 = cell.generation();
        assert!(g2 >= 2, "phase 2 must publish again (gen {g2})");

        // Phase 3 starts on the newest generation published so far.
        // Its own 10 recorded queries re-arm the EveryN(10) policy, so
        // a further swap may land while (or right after) the batch
        // runs — compare against the generation at entry, not the live
        // cell, which can already be ahead.
        let gen3 = cell.generation();
        let qs3 = queries_n(&g, 10);
        let s3 = run_adaptive(&g, &table, &cell, &monitor, &refresher, &qs3, &buf);
        assert_eq!(s3.per_generation.first().unwrap().generation, gen3);
        for r in &s3.per_generation {
            assert!(r.generation >= gen3, "served on a stale generation");
        }

        // Every query is accounted to exactly one generation row.
        for s in [&s1, &s2, &s3] {
            let per_gen: usize = s.per_generation.iter().map(|r| r.queries).sum();
            assert_eq!(per_gen, s.batch.queries);
            assert!(s.batch.buf.is_some());
            assert!(s.p50 <= s.p99);
            assert!(!s.summary().is_empty());
            assert_eq!(s.generation_lines().len(), s.per_generation.len());
        }
        let stats = refresher.shutdown();
        assert!(stats.refreshes >= 2);
        assert_eq!(stats.refreshes, cell.generation());
    }
}
