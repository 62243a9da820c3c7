//! Execution-layer equivalence: a generated mixed workload (QTYPE1/2/3)
//! evaluated through the shared physical operators — all four processors
//! charging ONE cross-query buffer pool — must return exactly the naive
//! oracle's nodes, and the cost accounting must stay consistent:
//! per-operator attribution partitions every scalar counter, the shared
//! pool absorbs repeated I/O across processors, and parallel batches
//! over the shared pool reproduce sequential aggregate costs.
//!
//! Every semijoin here runs over the *succinct* extent path (rank/select
//! directory, sampled restarts, windowed decode) — the kernel-policy
//! sweep below therefore also proves each kernel's succinct
//! implementation equivalent to the naive oracle end to end.

use apex::Apex;
use apex_query::batch::{run_batch, run_batch_parallel, QueryProcessor};
use apex_query::explain::{explain_apex, Plan};
use apex_query::generator::GeneratorConfig;
use apex_query::naive::NaiveProcessor;
use apex_query::{apex_qp::ApexProcessor, fabric_qp::FabricProcessor, guide_qp::GuideProcessor};
use apex_query::{Planner, Query};
use apex_storage::bufmgr::BufferHandle;
use apex_storage::{Cost, KernelPolicy, OpKind};
use apex_suite::{small, Fixture};
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 120,
        qtype2: 40,
        qtype3: 40,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

/// Every per-operator scalar column must sum to the query-total scalar:
/// the breakdown is a partition, not an estimate.
fn assert_partition(cost: &Cost, who: &str) {
    for (i, total) in cost.scalars().iter().enumerate() {
        let attributed: u64 = OpKind::ALL
            .iter()
            .map(|&k| cost.ops.get(k).scalars[i])
            .sum();
        assert_eq!(
            attributed, *total,
            "{who}: scalar #{i} not fully attributed"
        );
    }
}

fn check_dataset(g: XmlGraph, seed: u64) {
    let fx = Fixture::build(g, cfg(seed));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);

    // ONE pool shared by every processor under test: extents live in
    // disjoint address spaces, so sharing must never corrupt results.
    let pool = BufferHandle::unbounded();
    let processors: Vec<Box<dyn QueryProcessor + '_>> = vec![
        Box::new(ApexProcessor::with_buffer(
            &fx.g,
            &fx.apex0,
            &fx.table,
            pool.clone(),
        )),
        Box::new(ApexProcessor::with_buffer(
            &fx.g,
            &apex,
            &fx.table,
            pool.clone(),
        )),
        Box::new(GuideProcessor::with_buffer(
            &fx.g,
            &fx.sdg,
            &fx.table,
            pool.clone(),
        )),
        Box::new(GuideProcessor::with_buffer(
            &fx.g,
            &fx.oneindex,
            &fx.table,
            pool.clone(),
        )),
        Box::new(FabricProcessor::with_buffer(
            &fx.g,
            &fx.fabric,
            pool.clone(),
        )),
    ];

    let mixed: Vec<&Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .collect();

    let mut summed = Cost::new();
    for (qi, q) in mixed.iter().enumerate() {
        let expect = naive.eval(q).nodes;
        for p in &processors {
            // The fabric only serves QTYPE3 (and, being bounded on
            // reference-dense graphs, is correctness-checked separately
            // in `equivalence.rs`); here it participates to exercise
            // pool sharing.
            if p.name() == "Fabric" {
                if matches!(q, Query::ValuePath { .. }) {
                    let _ = p.eval(q);
                }
                continue;
            }
            let out = p.eval(q);
            assert_eq!(
                out.nodes,
                expect,
                "query #{qi} {} differs on {}",
                q.render(&fx.g),
                p.name()
            );
            assert_partition(&out.cost, p.name());
            summed += out.cost;
        }
    }
    assert_partition(&summed, "summed");

    // The pool outlived every query and processor: repeats hit it.
    let s = pool.stats();
    assert!(
        s.hits > 0,
        "shared pool saw no hits over {} queries",
        mixed.len()
    );
    assert!(s.misses > 0);
    assert_eq!(s.evictions, 0, "unbounded pool must not evict");
    // Every processor exposes the same shared pool.
    for p in &processors {
        assert_eq!(p.buffer().expect("exec-layer processor").stats(), s);
    }
}

#[test]
fn mixed_workload_on_play() {
    check_dataset(small::play(), 0xE1);
}

#[test]
fn mixed_workload_on_flix() {
    check_dataset(small::flix(), 0xE2);
}

#[test]
fn mixed_workload_on_ged() {
    check_dataset(small::ged(), 0xE3);
}

/// The kernel policy must never change results: the same mixed workload
/// through APEX under every fixed kernel and the adaptive default
/// returns the naive oracle's nodes, with attribution still a partition
/// — and identical logical join output across policies.
#[test]
fn every_kernel_policy_is_equivalent() {
    let fx = Fixture::build(small::flix(), cfg(0xE5));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);
    let mixed: Vec<&Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .collect();
    let expect: Vec<Vec<xmlgraph::NodeId>> = mixed.iter().map(|q| naive.eval(q).nodes).collect();
    let mut join_output: Option<u64> = None;
    for policy in KernelPolicy::ALL {
        let p = ApexProcessor::new(&fx.g, &apex, &fx.table).with_kernel_policy(policy);
        let mut total = Cost::new();
        for (qi, q) in mixed.iter().enumerate() {
            let out = p.eval(q);
            assert_eq!(
                out.nodes,
                expect[qi],
                "policy {} differs on {}",
                policy.name(),
                q.render(&fx.g)
            );
            assert_partition(&out.cost, policy.name());
            total += out.cost;
        }
        // Whatever kernel runs, the same pairs flow.
        match join_output {
            None => join_output = Some(total.join_output),
            Some(j) => assert_eq!(total.join_output, j, "policy {}", policy.name()),
        }
    }
}

/// The planner's one join order (seed union, then forward semijoins)
/// must return the naive oracle's nodes on a mixed workload, attribution
/// stays a partition, and every evaluated query carries a plan report
/// whose per-operator actuals are bounded by (and, for pure path
/// queries, exactly partition) the query's total cost.
#[test]
fn every_join_order_is_equivalent() {
    let fx = Fixture::build(small::ged(), cfg(0xE6));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);
    let p = ApexProcessor::new(&fx.g, &apex, &fx.table);
    for q in fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
    {
        let out = p.eval(q);
        assert_eq!(out.nodes, naive.eval(q).nodes, "{}", q.render(&fx.g));
        assert_partition(&out.cost, "planned");
        let rep = out.plan.expect("apex reports a plan for every query");
        let actual: u64 = rep
            .forecasts
            .iter()
            .map(|f| f.actual_work + f.actual_pages)
            .sum();
        assert!(
            actual <= out.cost.total(),
            "plan actuals exceed the query cost on {}",
            q.render(&fx.g)
        );
        if matches!(q, Query::PartialPath { .. }) {
            assert_eq!(rep.order, "forward");
            assert_eq!(
                actual,
                out.cost.total(),
                "plan actuals must partition the cost of {}",
                q.render(&fx.g)
            );
        }
    }
}

/// One small family's QTYPE1/3 queries and its APEX refined at minSup
/// 0.01, 0.1 and 1.
struct PlannedFamily {
    name: &'static str,
    queries: Vec<Query>,
    indexes: Vec<Apex>,
}

fn planned_families() -> Vec<PlannedFamily> {
    [
        ("play", small::play()),
        ("flix", small::flix()),
        ("ged", small::ged()),
    ]
    .into_iter()
    .map(|(name, g)| {
        let fx = Fixture::build(g, cfg(0xE7));
        PlannedFamily {
            name,
            queries: fx
                .queries
                .qtype1
                .iter()
                .chain(fx.queries.qtype3.iter())
                .cloned()
                .collect(),
            indexes: [0.01, 0.1, 1.0].map(|ms| fx.apex_at(ms)).into(),
        }
    })
    .collect()
}

/// `explain` renders the planner's own plan: its kernel column is
/// exactly `Planner::plan_path(..).kernels` at every join boundary.
#[test]
fn explain_kernels_are_the_planners() {
    let mut boundaries = 0;
    for PlannedFamily {
        name,
        queries,
        indexes,
    } in planned_families()
    {
        for apex in &indexes {
            let planner = Planner::new(apex, None, KernelPolicy::Adaptive, 0);
            for q in &queries {
                let plan = planner.plan_path(q.labels().expect("path query"));
                let Plan::PathJoin { segments, .. } = explain_apex(apex, q) else {
                    panic!("{name}: {q:?} must explain as a path join");
                };
                assert_eq!(segments.len(), plan.stages.len(), "{name}");
                let shown: Vec<&str> = segments.iter().filter_map(|s| s.kernel).collect();
                assert_eq!(shown, plan.kernels, "{name}: {q:?}");
                boundaries += plan.kernels.len();
            }
        }
    }
    assert!(boundaries > 1_000, "only {boundaries} join boundaries");
}

/// Plan digests travel on the wire as `plan_digest`, so clients can
/// compare them across builds: over a fixed query set, the digest and
/// the predicted total of every plan must reproduce pinned values. A
/// change to the cost model or the digest must update them on purpose.
#[test]
fn forward_plans_match_pinned_digests() {
    let pinned = [
        ("play", 480, 0xf083_8e7a_8536_439f_u64, 1_865_502),
        ("flix", 480, 0x95ec_ee85_064e_97ab, 176_134),
        ("ged", 480, 0xbce2_35c5_3646_ab2b, 78_150),
    ];
    for (fam, (name, want_plans, want_fold, want_predicted)) in
        planned_families().into_iter().zip(pinned)
    {
        assert_eq!(fam.name, name);
        let (mut plans, mut fold, mut predicted) = (0u64, 0xcbf2_9ce4_8422_2325_u64, 0u64);
        for apex in &fam.indexes {
            let planner = Planner::new(apex, None, KernelPolicy::Adaptive, 0);
            for q in &fam.queries {
                let plan = planner.plan_path(q.labels().expect("path query"));
                plans += 1;
                // FNV-1a over the digests' bytes, in query order.
                for b in plan.digest.to_le_bytes() {
                    fold ^= u64::from(b);
                    fold = fold.wrapping_mul(0x100_0000_01b3);
                }
                predicted += plan.predicted_total;
            }
        }
        assert_eq!(
            (plans, fold, predicted),
            (want_plans, want_fold, want_predicted),
            "{name}"
        );
    }
}

/// `run_batch_parallel` over one shared pool: with an unbounded pool
/// every distinct page misses exactly once regardless of thread
/// schedule, so aggregate scalars, logical per-operator counters, and
/// pool deltas must equal a sequential run over an identically fresh
/// pool. Only the per-operator *page* split may differ — which
/// operator first touches a shared page is schedule-dependent.
#[test]
fn parallel_batch_shares_pool_without_races() {
    let fx = Fixture::build(small::flix(), cfg(0xE4));
    let queries: Vec<Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .cloned()
        .collect();
    let apex = fx.apex_at(0.01);

    let seq = run_batch(&ApexProcessor::new(&fx.g, &apex, &fx.table), &queries);
    let par = run_batch_parallel(&ApexProcessor::new(&fx.g, &apex, &fx.table), &queries, 4);
    assert_eq!(seq.queries, par.queries);
    assert_eq!(seq.result_nodes, par.result_nodes);
    assert_eq!(seq.empty_results, par.empty_results);
    assert_eq!(seq.cost.scalars(), par.cost.scalars(), "aggregate scalars");
    const PAGES: usize = 5; // pages_read: attribution is schedule-dependent
    for &k in OpKind::ALL.iter() {
        let (s, p) = (seq.cost.ops.get(k), par.cost.ops.get(k));
        assert_eq!(s.invocations, p.invocations, "{} invocations", k.name());
        for i in (0..s.scalars.len()).filter(|&i| i != PAGES) {
            assert_eq!(s.scalars[i], p.scalars[i], "{} scalar #{i}", k.name());
        }
    }
    let (sb, pb) = (seq.buf.expect("pool delta"), par.buf.expect("pool delta"));
    assert_eq!(sb.misses, pb.misses);
    assert_eq!(sb.hits, pb.hits);
    assert!(pb.hits > 0);
}
