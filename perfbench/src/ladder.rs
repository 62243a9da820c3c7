//! The traced layer ladder: the workload's seeded list replayed one
//! query at a time through `ApexProcessor::eval` and then through a
//! benchmark-built `Engine::execute`, with a span around each call and
//! the layer counters read at the same boundaries.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use apex::{IndexCell, WorkloadMonitor};
use apex_net::{Engine, Status};
use apex_query::apex_qp::ApexProcessor;
use apex_query::QueryProcessor;
use apex_storage::{BufferHandle, BufferStats, Cost, OpKind};

use crate::measure::{quantile_of, ratio, QType};
use crate::report::Outcome;
use crate::setup::{Data, Expected, Item};
use crate::trace::{durations_us, Span, Tracer};

/// Counters summed over in-process `eval` calls.
#[derive(Debug, Default)]
pub struct EvalCounters {
    /// Calls counted.
    pub queries: u64,
    /// Calls per query type.
    pub per_type: [u64; 3],
    /// Summed logical cost.
    pub cost: Cost,
    /// IndexNav invocations of QTYPE2 calls.
    pub q2_nav_calls: u64,
    /// Data-table probes of QTYPE3 calls.
    pub q3_probes: u64,
    /// Result rows returned.
    pub results: u64,
    /// Plans reported, and how many reduced backwards first.
    pub plans: u64,
    /// Plans whose join order starts with a backward reduction.
    pub backward: u64,
    /// `Σ|predicted − actual|` over every plan's work + pages.
    pub plan_error: u64,
    /// `Σ actual` over every plan's work + pages.
    pub plan_actual: u64,
}

impl EvalCounters {
    /// Adds one `eval` output of a `kind` query.
    pub fn add(&mut self, kind: QType, out: &apex_query::QueryOutput) {
        self.queries += 1;
        self.per_type[kind.idx()] += 1;
        self.results += out.nodes.len() as u64;
        match kind {
            QType::Q2 => self.q2_nav_calls += out.cost.ops.get(OpKind::IndexNav).invocations,
            QType::Q3 => self.q3_probes += out.cost.table_probes,
            QType::Q1 => {}
        }
        self.cost += out.cost;
        if let Some(plan) = &out.plan {
            self.plans += 1;
            self.backward += u64::from(plan.order.starts_with("backward"));
            for f in &plan.forecasts {
                let predicted = f.predicted_work + f.predicted_pages;
                let actual = f.actual_work + f.actual_pages;
                self.plan_error += predicted.abs_diff(actual);
                self.plan_actual += actual;
            }
        }
    }

    /// Writes the kernel, plan, exec, data-table and index ratios.
    pub fn report(&self, o: &mut Outcome) {
        let n = self.queries as f64;
        let c = &self.cost;
        let calls = |k: OpKind| c.ops.get(k).invocations as f64 / n.max(1.0);
        o.set("kernels.join_work_per_q", ratio(c.join_work as f64, n));
        o.set("kernels.pairs_read_per_q", ratio(c.extent_pairs as f64, n));
        o.set(
            "kernels.yield",
            ratio(c.join_output as f64, c.join_work as f64),
        );
        o.set("kernels.merge_calls_per_q", calls(OpKind::SemijoinMerge));
        o.set("kernels.gallop_calls_per_q", calls(OpKind::SemijoinGallop));
        o.set("kernels.skip_calls_per_q", calls(OpKind::SemijoinSkip));
        o.set(
            "kernels.reverse_calls_per_q",
            calls(OpKind::SemijoinReverse),
        );
        o.set(
            "plan.mispredict_ratio",
            ratio(self.plan_error as f64, self.plan_actual as f64),
        );
        o.set(
            "plan.backward_share",
            ratio(self.backward as f64, self.plans as f64),
        );
        o.set(
            "exec.results_per_pair",
            ratio(self.results as f64, c.extent_pairs as f64),
        );
        o.set(
            "exec.nav_calls_per_q2",
            ratio(
                self.q2_nav_calls as f64,
                self.per_type[QType::Q2.idx()] as f64,
            ),
        );
        o.set(
            "datatable.probes_per_q3",
            ratio(self.q3_probes as f64, self.per_type[QType::Q3.idx()] as f64),
        );
        o.set("index.hash_lookups_per_q", ratio(c.hash_lookups as f64, n));
    }
}

/// Replays `items` through both rungs, checking every answer, and
/// writes the ladder metrics. Returns the rung spans and the eval
/// rung's buffer-pool statistics.
///
/// Both rungs serve the same snapshot of `cell`: the eval rung is built
/// exactly as `Engine::execute` builds its processor (snapshot stats,
/// generation tag, an unbounded pool of its own), so the difference
/// between the two is the Engine's own work: snapshot, parse, monitor
/// lock and, with a WAL attached to `monitor`, the append.
pub fn replay(
    items: &[Item],
    answers: &[Expected],
    data: &Data,
    cell: Arc<IndexCell>,
    monitor: WorkloadMonitor,
    epoch: Instant,
    o: &mut Outcome,
) -> (Vec<Span>, BufferStats) {
    let snap = cell.snapshot();
    let eval = ApexProcessor::with_buffer_tagged(
        &data.g,
        snap.index(),
        &data.table,
        BufferHandle::unbounded(),
        snap.generation(),
    )
    .with_plan_stats(snap.stats());
    let engine = Engine::new(
        Arc::clone(&data.g),
        Arc::clone(&data.table),
        cell,
        Arc::new(Mutex::new(monitor)),
    );
    let mut tracer = Tracer::new(epoch, true);
    let mut counters = EvalCounters::default();
    let mut engine_self = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let expect = &answers[item.expect];
        // Whichever rung runs second finds the query's data in the CPU
        // caches, so the order alternates and neither rung gets it all.
        let run_eval = || {
            let t = Instant::now();
            (eval.eval(&item.query), t, Instant::now())
        };
        let run_exec = || {
            let t = Instant::now();
            (engine.execute(&item.text, None), t, Instant::now())
        };
        let ((out, e0, e1), (exec, x0, x1)) = if i % 2 == 0 {
            let first = run_eval();
            (first, run_exec())
        } else {
            let first = run_exec();
            (run_eval(), first)
        };
        tracer.record("eval", e0, e1, None, i as u64);
        tracer.record("execute", x0, x1, None, i as u64);
        engine_self.push((x1 - x0).as_secs_f64() * 1e6 - (e1 - e0).as_secs_f64() * 1e6);
        let ok = expect.matches_nodes(&out.nodes)
            && exec.status == Status::Ok
            && expect.matches_rows(exec.total_rows, &exec.rows);
        o.check(ok, || format!("ladder answer mismatch on {}", item.text));
        counters.add(item.kind, &out);
    }
    let spans = tracer.into_spans();
    counters.report(o);
    o.set(
        "exec.eval_us_p50",
        quantile_of(&durations_us(&spans, "eval"), 0.5),
    );
    o.set(
        "engine.execute_us_p50",
        quantile_of(&durations_us(&spans, "execute"), 0.5),
    );
    o.set("engine.self_us_p50", quantile_of(&engine_self, 0.5));
    let buf = eval
        .buffer()
        .expect("APEX evaluates through a pool")
        .stats();
    (spans, buf)
}
