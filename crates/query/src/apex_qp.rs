//! The APEX query processor (§6.1 "Query Processor Implementation").
//!
//! * **QTYPE1** — looks up `H_APEX` with the whole query path; if the
//!   longest required suffix equals the path, the answer is read straight
//!   off the located extents. Otherwise the processor keeps shortening
//!   the prefix (`j` from `n` down) collecting the union of extents per
//!   prefix until the prefix is itself a required path, then multi-way
//!   joins the collected edge sets.
//! * **QTYPE2** — query pruning & rewriting: the traversal starts from
//!   the `G_APEX` nodes whose incoming label is `l_i` (found via
//!   `H_APEX`), not from the root as a DataGuide must. Implemented as a
//!   cycle-safe dataflow fixpoint that joins extents along `G_APEX`
//!   edges (equivalent to enumerating the rewritten label paths and
//!   joining per path, but terminates on cyclic class graphs). It keeps
//!   one reached set over data nodes and propagates each reached node
//!   once, draining classes from a FIFO worklist.
//! * **QTYPE3** — QTYPE1 followed by data-table probes.
//!
//! All physical work — extent I/O, unions, semijoins, table probes —
//! runs through the shared operators in [`crate::exec`] over a
//! cross-query [`BufferHandle`] pool.

use std::collections::VecDeque;

use apex::{Apex, PlanStats, XNodeId};
use apex_storage::bufmgr::{BufferHandle, Space};
use apex_storage::{DataTable, EdgeSet, Ends, KernelPolicy};
use xmlgraph::{LabelId, NodeId, XmlGraph};

use crate::ast::Query;
use crate::batch::{QueryOutput, QueryProcessor};
use crate::exec::{self, DataProbe, ExecContext, ExtentScan, IndexNav};
use crate::plan::{self, PlanReport, Planner};

/// Byte stride separating the page-packed node layouts of successive
/// index generations inside [`Space::ApexNode`] (1 TiB per generation —
/// far above any real layout, and a multiple of every page size in use,
/// so the derived page ids of distinct generations never collide).
const NAV_TAG_STRIDE: u64 = 1 << 40;

/// Query processor over an [`Apex`] index.
pub struct ApexProcessor<'a> {
    g: &'a XmlGraph,
    apex: &'a Apex,
    table: &'a DataTable,
    buf: BufferHandle,
    /// Generation tag mixed into every buffer-pool identity (high 32
    /// bits of extent object ids; `NAV_TAG_STRIDE` byte offset of the
    /// node layout). A rebuilt index reuses `XNodeId`s for different
    /// extents, so snapshot swaps without distinct tags would score
    /// phantom pool hits on stale cached objects.
    tag: u64,
    /// Kernel policy for every semijoin this processor runs.
    policy: KernelPolicy,
    /// Absolute per-query deadline armed on every [`ExecContext`] this
    /// processor creates (the network serving layer sets this; batch and
    /// bench runs leave it unset).
    deadline: Option<std::time::Instant>,
    /// Statistics snapshot the planner reads (adaptive serving passes
    /// the published snapshot's stats; `None` falls back to the live
    /// extents' cheap accessors — same numbers, read at plan time).
    stats: Option<&'a PlanStats>,
}

impl<'a> ApexProcessor<'a> {
    /// Creates a processor with a private (unbounded) buffer pool.
    pub fn new(g: &'a XmlGraph, apex: &'a Apex, table: &'a DataTable) -> Self {
        Self::with_buffer(g, apex, table, BufferHandle::unbounded())
    }

    /// Creates a processor charging against a shared buffer pool.
    pub fn with_buffer(
        g: &'a XmlGraph,
        apex: &'a Apex,
        table: &'a DataTable,
        buf: BufferHandle,
    ) -> Self {
        Self::with_buffer_tagged(g, apex, table, buf, 0)
    }

    /// Creates a processor charging against a shared buffer pool under a
    /// generation tag — used by adaptive serving, where processors over
    /// different index snapshots share one pool and `tag` is the
    /// snapshot's generation (must be `< 2³²`; generations are swap
    /// counts, far below that).
    pub fn with_buffer_tagged(
        g: &'a XmlGraph,
        apex: &'a Apex,
        table: &'a DataTable,
        buf: BufferHandle,
        tag: u64,
    ) -> Self {
        ApexProcessor {
            g,
            apex,
            table,
            buf,
            tag,
            policy: KernelPolicy::Adaptive,
            deadline: None,
            stats: None,
        }
    }

    /// Forces a fixed semijoin kernel (tests and benches compare the
    /// kernels; production uses the default adaptive policy).
    pub fn with_kernel_policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms a per-query deadline: evaluation checkpoints at stage
    /// boundaries and stops early once `deadline` passes, returning a
    /// [`QueryOutput`] with `interrupted = true`.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Plans against `stats` (a published snapshot's statistics)
    /// instead of the live extent accessors.
    pub fn with_plan_stats(mut self, stats: &'a PlanStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The planner for this processor's index view.
    fn planner(&self) -> Planner<'a> {
        Planner::new(self.apex, self.stats, self.policy, self.tag)
    }

    /// `(buffer id, extent)` source for class node `x`.
    fn source(&self, x: XNodeId) -> (u64, &'a EdgeSet) {
        let r = self.apex.extent_ref(x);
        ((self.tag << 32) | r.id, r.set)
    }

    /// QTYPE1 evaluation returning the final edge set and the plan
    /// report.
    ///
    /// The §6.1 decreasing-j segmentation runs inside the planner, which
    /// forecasts the kernels and cost from the statistics snapshot; the
    /// plan executes bit-for-bit the legacy seed-union +
    /// [`crate::exec::MultiwayJoin`] pipeline.
    fn eval_path_edges(
        &self,
        labels: &[LabelId],
        ctx: &mut ExecContext<'_>,
    ) -> (EdgeSet, PlanReport) {
        let planner = self.planner();
        let plan = planner.plan_path(labels);
        planner.execute_path(&plan, ctx)
    }

    fn eval_path(
        &self,
        labels: &[LabelId],
        ctx: &mut ExecContext<'_>,
    ) -> (Vec<NodeId>, PlanReport) {
        let (edges, report) = self.eval_path_edges(labels, ctx);
        let mut nodes = edges.end_nodes().to_vec();
        self.g.sort_doc_order(&mut nodes);
        (nodes, report)
    }

    /// Page-packed byte offsets of the `G_APEX` node records (16 bytes
    /// header + 8 per edge) in [`Space::ApexNode`]: node `x` occupies
    /// `layout[x]..layout[x+1]`, shifted by the generation tag's stride.
    /// Only QTYPE2 navigates node records, so only it builds the layout.
    fn node_layout(&self) -> Vec<u64> {
        let mut offsets = exec::record_layout(
            (0..self.apex.graph().allocated())
                .map(|i| 16 + 8 * self.apex.out_edges(XNodeId(i as u32)).len()),
        );
        let base = self.tag * NAV_TAG_STRIDE;
        for off in &mut offsets {
            *off += base;
        }
        offsets
    }

    /// QTYPE2: dataflow fixpoint from the `l_i` classes that propagates
    /// every reached data node exactly once.
    ///
    /// Theorem 1 (every data edge is simulated from *every* class its
    /// source belongs to) and determinism (at most one `G_APEX` out-edge
    /// per label) make one propagation exact: every data out-edge of a
    /// node is found by semijoining it from any class whose extent ends
    /// at it. So the fixpoint keeps one reached set over data nodes, not
    /// per-class pair sets. A node enters its class's pending list the
    /// first time a step reaches it, and a FIFO worklist of classes
    /// drains each class's whole pending delta per pop — one semijoin per
    /// out-edge of the class for every arrival gathered while it waited.
    fn eval_anc_desc(
        &self,
        first: LabelId,
        last: LabelId,
        ctx: &mut ExecContext<'_>,
    ) -> Vec<NodeId> {
        let seg = self.apex.segment_nodes(&[first]);
        ctx.note_hash_lookups(seg.hash_lookups);
        let classes = self.apex.graph().allocated();
        let mut reached = NodeSet::new(self.g.node_count());
        // pending[x]: reached nodes ending in class x, not yet propagated.
        // Invariant: x is queued iff pending[x] is non-empty.
        let mut pending: Vec<Vec<NodeId>> = vec![Vec::new(); classes];
        let mut queue: VecDeque<XNodeId> = VecDeque::new();
        for &x in &seg.xnodes {
            let (id, set) = self.source(x);
            ExtentScan::pairs(Space::ApexExtent, id, set).run(ctx);
            if let Some(slot) = pending.get_mut(x.0 as usize) {
                slot.extend(set.end_nodes().iter().filter(|&v| reached.insert(v)));
                if !slot.is_empty() {
                    queue.push_back(x);
                }
            }
        }
        let mut out: Vec<NodeId> = Vec::new();
        // G_APEX node records are page-packed (Space::ApexNode): the
        // first visit of a node charges its record's pages.
        let layout = self.node_layout();
        let mut touched: Vec<bool> = vec![false; classes];
        while let Some(x) = queue.pop_front() {
            // One class drain is the non-preemptible unit; a tripped
            // deadline surfaces the arrivals collected so far.
            if !ctx.checkpoint() {
                break;
            }
            let Some(slot) = pending.get_mut(x.0 as usize) else {
                continue;
            };
            let mut delta = std::mem::take(slot);
            delta.sort_unstable();
            nav_node(&layout, x, &mut touched, ctx);
            for &(label, y) in self.apex.out_edges(x) {
                ctx.nav_edges(1);
                let (id, extent) = self.source(y);
                let step = exec::semijoin(ctx, Ends::Slice(&delta), Space::ApexExtent, id, extent);
                // Every step pair is a genuine arrival (distance >= 1
                // from an l_i instance): collect it even if its node was
                // already reached — e.g. a seed a cycle re-reaches
                // (//d//d through a back-edge).
                if label == last {
                    out.extend(step.iter().map(|p| p.node));
                }
                let Some(waiting) = pending.get_mut(y.0 as usize) else {
                    continue;
                };
                let before = waiting.len();
                waiting.extend(step.iter().map(|p| p.node).filter(|&v| reached.insert(v)));
                let fresh = waiting.len() - before;
                if fresh > 0 {
                    ctx.note_fixpoint_output(fresh as u64);
                    if before == 0 {
                        queue.push_back(y);
                    }
                }
            }
        }
        self.g.sort_doc_order(&mut out);
        out
    }
}

/// Charges the first visit of class node `x`'s page-packed record.
// apex-lint: allow(panic-reachability): `touched` and `layout` are sized n and n+1 over the same class-node count
fn nav_node(layout: &[u64], x: XNodeId, touched: &mut [bool], ctx: &mut ExecContext<'_>) {
    let i = x.0 as usize;
    if !touched[i] {
        touched[i] = true;
        IndexNav {
            space: Space::ApexNode,
            bytes: layout[i]..layout[i + 1],
        }
        .run(ctx);
    }
}

/// A set of data nodes as a bitset over node ids.
struct NodeSet(Vec<u64>);

impl NodeSet {
    /// An empty set over ids `0..n`.
    fn new(n: usize) -> Self {
        NodeSet(vec![0; n.div_ceil(64)])
    }

    /// Adds `v`; true if it was absent. An id past the range reports
    /// present, so it is never propagated.
    fn insert(&mut self, v: NodeId) -> bool {
        let i = v.0 as usize;
        self.0.get_mut(i / 64).is_some_and(|word| {
            let bit = 1u64 << (i % 64);
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        })
    }
}

impl QueryProcessor for ApexProcessor<'_> {
    fn name(&self) -> &'static str {
        "APEX"
    }

    fn eval(&self, q: &Query) -> QueryOutput {
        let mut ctx = ExecContext::with_policy(&self.buf, self.policy);
        if let Some(d) = self.deadline {
            ctx.set_deadline(d);
        }
        let (nodes, report) = match q {
            Query::PartialPath { labels } => self.eval_path(labels, &mut ctx),
            Query::AncestorDescendant { first, last } => {
                let before = ctx.cost.ops;
                let nodes = self.eval_anc_desc(*first, *last, &mut ctx);
                let (digest, predicted) = self.planner().forecast_anc_desc(*first);
                let report =
                    plan::build_report(digest, "dataflow", &predicted, &before, &ctx.cost.ops);
                (nodes, report)
            }
            Query::ValuePath { labels, value } => {
                let (mut nodes, report) = self.eval_path(labels, &mut ctx);
                nodes.retain(|&n| {
                    ctx.checkpoint()
                        && DataProbe {
                            table: self.table,
                            nid: n,
                            value,
                        }
                        .run(&mut ctx)
                });
                (nodes, report)
            }
        };
        let interrupted = ctx.interrupted();
        QueryOutput {
            nodes,
            cost: ctx.finish(),
            interrupted,
            plan: Some(report),
        }
    }

    fn buffer(&self) -> Option<&BufferHandle> {
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, QuerySets};
    use crate::naive::NaiveProcessor;
    use apex::Workload;
    use apex_storage::{OpKind, PageModel};
    use std::collections::HashSet;
    use std::time::Instant;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn setup(g: &XmlGraph, workload: &[&str]) -> (Apex, DataTable) {
        let mut idx = Apex::build_initial(g);
        if !workload.is_empty() {
            let wl = Workload::parse(g, workload).unwrap();
            idx.refine(g, &wl, 0.1);
        }
        (idx, DataTable::build(g, PageModel::default()))
    }

    fn q1(g: &XmlGraph, p: &str) -> Query {
        Query::PartialPath {
            labels: LabelPath::parse(g, p).unwrap().0,
        }
    }

    #[test]
    fn qtype1_on_apex0_matches_naive() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for p in [
            "actor.name",
            "movie.title",
            "director.movie.title",
            "name",
            "@movie.movie",
            "actor.@movie.movie.title",
            "director.movie.@director.director.name",
        ] {
            let q = q1(&g, p);
            assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes, "query {p}");
        }
    }

    #[test]
    fn qtype1_on_refined_apex_matches_naive_and_is_cheaper() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name", "director.movie", "@movie.movie"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let q = q1(&g, "actor.name");
        let out = ap.eval(&q);
        assert_eq!(out.nodes, nv.eval(&q).nodes);
        // actor.name is required: answered with no joins.
        assert_eq!(out.cost.join_work, 0);
    }

    #[test]
    fn qtype2_matches_naive() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for (a, b) in [
            ("movie", "name"),
            ("director", "title"),
            ("actor", "title"),
            ("movie", "movie"),
        ] {
            let q = Query::AncestorDescendant {
                first: g.label_id(a).unwrap(),
                last: g.label_id(b).unwrap(),
            };
            assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes, "//{a}//{b}");
        }
    }

    /// A cyclic Ged graph (its IDREF edges close cycles through FAM and
    /// INDI records) with its data table and generated query sets.
    fn ged() -> (XmlGraph, DataTable, QuerySets) {
        let g = datagen::gedml(80, 7);
        assert!(g.edge_count() >= g.node_count(), "reference edges present");
        let t = DataTable::build(&g, PageModel::default());
        let cfg = GeneratorConfig {
            qtype1: 200,
            qtype2: 40,
            qtype3: 0,
            seed: 3,
            ..Default::default()
        };
        let qs = QuerySets::generate(&g, &t, cfg);
        (g, t, qs)
    }

    /// Nodes reachable by at least one edge from `seeds`, minus `seeds`.
    fn reached_beyond(g: &XmlGraph, seeds: &HashSet<NodeId>) -> usize {
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = seeds
            .iter()
            .flat_map(|&v| g.out_edges(v).iter().map(|e| e.to))
            .collect();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                stack.extend(g.out_edges(v).iter().map(|e| e.to));
            }
        }
        seen.difference(seeds).count()
    }

    #[test]
    fn qtype2_propagates_each_reached_node_once() {
        let (g, t, qs) = ged();
        let nv = NaiveProcessor::new(&g, &t);
        let apex0 = Apex::build_initial(&g);
        let mut refined = Apex::build_initial(&g);
        refined.refine(&g, &qs.workload, 0.005);
        assert!(refined.graph().allocated() > apex0.graph().allocated());
        for idx in [&apex0, &refined] {
            let ap = ApexProcessor::new(&g, idx, &t);
            for q in &qs.qtype2 {
                let Query::AncestorDescendant { first, .. } = *q else {
                    panic!("generated QTYPE2 query expected");
                };
                let seeds: HashSet<NodeId> = g
                    .edges()
                    .filter(|&(_, l, _)| l == first)
                    .map(|(_, _, to)| to)
                    .collect();
                let out = ap.eval(q);
                assert_eq!(out.nodes, nv.eval(q).nodes, "{}", q.render(&g));
                // join_output of IndexNav counts fresh nodes: every node
                // reached beyond the l_i targets is counted exactly once.
                assert_eq!(
                    out.cost.ops.get(OpKind::IndexNav).join_output(),
                    reached_beyond(&g, &seeds) as u64,
                    "{}",
                    q.render(&g)
                );
            }
        }
    }

    #[test]
    fn qtype2_deadline_interrupts_with_a_subset() {
        let (g, t, qs) = ged();
        let idx = Apex::build_initial(&g);
        let nv = NaiveProcessor::new(&g, &t);
        for q in &qs.qtype2 {
            let expect = nv.eval(q).nodes;
            let cut = ApexProcessor::new(&g, &idx, &t)
                .with_deadline(Instant::now())
                .eval(q);
            assert!(cut.interrupted, "{}", q.render(&g));
            assert!(cut.nodes.iter().all(|n| expect.contains(n)));
            let full = ApexProcessor::new(&g, &idx, &t).eval(q);
            assert!(!full.interrupted);
            assert_eq!(full.nodes, expect, "{}", q.render(&g));
        }
    }

    #[test]
    fn qtype3_matches_naive() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let q = Query::ValuePath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
            value: "Star Wars".into(),
        };
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
        assert_eq!(ap.eval(&q).nodes, vec![NodeId(10)]);
    }

    #[test]
    fn single_label_queries_are_exact_unions() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // //name must union the actor.name class and the remainder class
        // with no joins.
        let q = q1(&g, "name");
        let out = ap.eval(&q);
        assert_eq!(
            out.nodes,
            vec![NodeId(3), NodeId(5), NodeId(11), NodeId(13)]
        );
        assert_eq!(out.cost.join_work, 0);
        assert!(out.cost.pages_read >= 1);
    }

    #[test]
    fn queries_longer_than_any_required_path() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        // 4-step query across reference edges, far longer than the
        // longest required path (2).
        let q = q1(&g, "director.movie.@director.director");
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
        assert_eq!(ap.eval(&q).nodes, vec![NodeId(12)]);
    }

    #[test]
    fn empty_intermediate_join_short_circuits() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // `year` exists only under movie 8; `year.title` has no instance.
        let q = q1(&g, "year.title");
        let out = ap.eval(&q);
        assert!(out.nodes.is_empty());
    }

    #[test]
    fn qtype2_self_label_through_cycle() {
        // //movie//movie across reference edges; verify against naive
        // rather than hand-reasoning the cycle structure.
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let movie = g.label_id("movie").unwrap();
        let q = Query::AncestorDescendant {
            first: movie,
            last: movie,
        };
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
    }

    #[test]
    fn unknown_label_yields_empty() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // `PLAYS` does not exist in moviedb — build a query with a label
        // id that is valid in another graph. Use a fresh label by parsing
        // against the same graph is impossible; instead use a path whose
        // combination yields empty.
        let q = q1(&g, "title.actor");
        assert!(ap.eval(&q).nodes.is_empty());
    }

    #[test]
    fn generation_tags_partition_the_shared_pool() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let buf = BufferHandle::unbounded();
        let q = q1(&g, "actor.name");
        let gen0 = ApexProcessor::with_buffer_tagged(&g, &idx, &t, buf.clone(), 0);
        let cold0 = gen0.eval(&q);
        assert!(cold0.cost.pages_read > 0);
        assert_eq!(gen0.eval(&q).cost.pages_read, 0, "same tag re-runs hit");
        // A processor over the *same* index under a different tag models
        // a freshly published snapshot: its objects are distinct, so the
        // first run must miss instead of phantom-hitting gen-0 pages.
        let gen1 = ApexProcessor::with_buffer_tagged(&g, &idx, &t, buf.clone(), 1);
        let cold1 = gen1.eval(&q);
        assert_eq!(cold1.cost.pages_read, cold0.cost.pages_read);
        assert_eq!(gen1.eval(&q).cost.pages_read, 0);
    }

    #[test]
    fn operators_attribute_all_pages_and_pool_is_cross_query() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let q = q1(&g, "director.movie.title");
        let cold = ap.eval(&q);
        assert!(cold.cost.pages_read > 0);
        // Every page charged by the query is attributed to an operator.
        let attributed: u64 = OpKind::ALL
            .iter()
            .map(|&k| cold.cost.ops.get(k).pages_read())
            .sum();
        assert_eq!(attributed, cold.cost.pages_read);
        assert!(cold.cost.ops.get(OpKind::MultiwayJoin).invocations >= 1);
        // The pool outlives queries: re-running is all buffer hits.
        let warm = ap.eval(&q);
        assert_eq!(warm.cost.pages_read, 0, "warm run must hit the pool");
        let s = ap.buffer().unwrap().stats();
        assert!(s.hits > 0 && s.misses > 0);
    }
}
