//! Query planning over live statistics.
//!
//! The planner sits between parsing and [`crate::exec`]. A QTYPE1/3
//! chain is evaluated the one way §6.1 describes: segment the path
//! against `H_APEX` from the longest prefix down, union the exact
//! seed's extents, then semijoin forward through the later segments
//! ([`MultiwayJoin`]).
//! Planning adds three things to that order, all from a [`PlanStats`]
//! snapshot (or, absent one, the same numbers read through the
//! `EdgeSet` cheap accessors):
//!
//! * **Static emptiness.** A stage with exactly zero pairs (or a first
//!   label the index does not know) proves the answer empty before any
//!   page is read; such a plan executes for free.
//! * **A forecast.** Per-operator work and pages are predicted from
//!   extent cardinalities, block counts, distinct-end hints and
//!   parent/node interval overlap. The kernel of each join boundary
//!   comes from [`KernelPolicy::pick`], the same rule the executor
//!   applies, so `explain` can render the plan's kernels as-is.
//! * **Feedback.** Execution records a [`PlanReport`]: the predicted
//!   per-operator cost column next to the actual one (diffed from the
//!   [`OpBreakdown`] around execution), a stable digest of the plan
//!   shape, and the mispredict ratio `Σ|predicted − actual| / Σactual`
//!   that the feedback layer pushes back into the workload monitor.

use apex::{Apex, PlanStats, XNodeId};
use apex_storage::bufmgr::Space;
use apex_storage::{EdgeSet, Kernel, KernelPolicy, OpBreakdown, OpKind};
use xmlgraph::{LabelId, NodeId};

use crate::exec::{ExecContext, MultiwayJoin};

/// The order label every path plan reports; also the first bytes its
/// digest folds, so wire `plan_digest` values stay comparable across
/// builds.
const FORWARD: &str = "forward";

/// One operator's predicted-vs-actual row in a [`PlanReport`].
#[derive(Debug, Clone, Copy)]
pub struct OpForecast {
    /// The operator.
    pub kind: OpKind,
    /// Predicted non-page work units (pairs read + comparisons +
    /// output, i.e. every scalar counter except pages).
    pub predicted_work: u64,
    /// Predicted pages read.
    pub predicted_pages: u64,
    /// Actual non-page work units, diffed around execution.
    pub actual_work: u64,
    /// Actual pages read.
    pub actual_pages: u64,
}

/// What a plan predicted and what its execution actually cost — the
/// feedback layer's unit of exchange. Carried on every
/// [`QueryOutput`](crate::batch::QueryOutput) evaluated through the
/// planner and folded back into the workload monitor.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// Stable digest of the plan shape (stage count and sizes,
    /// kernels) — the net tier carries this so tail latency can be
    /// attributed to planning choices.
    pub digest: u64,
    /// Order label: `forward` for path plans, the strategy name for
    /// the navigation processors' single-strategy forecasts.
    pub order: String,
    /// Per-operator predicted and actual costs (active rows only).
    pub forecasts: Vec<OpForecast>,
}

impl PlanReport {
    /// `Σ|predicted − actual| / max(1, Σactual)` over work + pages —
    /// 0.0 means the cost model was exact.
    pub fn mispredict_ratio(&self) -> f64 {
        let mut err = 0u64;
        let mut act = 0u64;
        for f in &self.forecasts {
            let p = f.predicted_work + f.predicted_pages;
            let a = f.actual_work + f.actual_pages;
            err += p.abs_diff(a);
            act += a;
        }
        err as f64 / act.max(1) as f64
    }

    /// Flattens to `(op, predicted, actual)` rows for
    /// [`WorkloadMonitor::record_plan`](apex::WorkloadMonitor::record_plan).
    pub fn feedback(&self) -> impl Iterator<Item = (OpKind, u64, u64)> + '_ {
        self.forecasts.iter().map(|f| {
            (
                f.kind,
                f.predicted_work + f.predicted_pages,
                f.actual_work + f.actual_pages,
            )
        })
    }

    /// Renders the predicted/actual table (the `explain` tail).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "plan {:#018x} order={}", self.digest, self.order);
        let _ = writeln!(
            s,
            "  {:<16} {:>10} {:>8} {:>10} {:>8}",
            "op", "pred.work", "pages", "act.work", "pages"
        );
        for f in &self.forecasts {
            let _ = writeln!(
                s,
                "  {:<16} {:>10} {:>8} {:>10} {:>8}",
                f.kind.name(),
                f.predicted_work,
                f.predicted_pages,
                f.actual_work,
                f.actual_pages
            );
        }
        let _ = writeln!(s, "  mispredict ratio = {:.3}", self.mispredict_ratio());
        s
    }
}

/// Builds a [`PlanReport`] from a predicted table plus the
/// [`OpBreakdown`] snapshots taken around execution. Rows where both
/// columns are zero are dropped. Used by the planner itself and by the
/// navigation-style processors (guide / 1-index / fabric), whose
/// "plans" are single-strategy forecasts.
pub fn build_report(
    digest: u64,
    order: impl Into<String>,
    predicted: &[(OpKind, u64, u64)],
    before: &OpBreakdown,
    after: &OpBreakdown,
) -> PlanReport {
    let mut forecasts = Vec::new();
    for &kind in OpKind::ALL.iter() {
        let (pw, pp) = predicted
            .iter()
            .filter(|e| e.0 == kind)
            .fold((0u64, 0u64), |(w, p), e| (w + e.1, p + e.2));
        let b = before.get(kind);
        let a = after.get(kind);
        let (mut aw, mut ap) = (0u64, 0u64);
        for (i, (&av, &bv)) in a.scalars.iter().zip(&b.scalars).enumerate() {
            if i == 5 {
                ap = av - bv; // slot 5 is pages_read: pages, not work
            } else {
                aw += av - bv;
            }
        }
        if pw | pp | aw | ap != 0 {
            forecasts.push(OpForecast {
                kind,
                predicted_work: pw,
                predicted_pages: pp,
                actual_work: aw,
                actual_pages: ap,
            });
        }
    }
    PlanReport {
        digest,
        order: order.into(),
        forecasts,
    }
}

/// FNV-1a fold of `bytes` into `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Cheap summary of one stage (the union of its class extents).
#[derive(Debug, Clone, Copy, Default)]
struct StageEst {
    pairs: u64,
    blocks: u64,
    ends: u64,
    parent_bounds: Option<(NodeId, NodeId)>,
    node_bounds: Option<(NodeId, NodeId)>,
}

/// Fraction of an interval `span` overlapped by `within` (both
/// inclusive), 0.0 when either is absent or they are disjoint.
fn overlap_frac(span: Option<(NodeId, NodeId)>, within: Option<(NodeId, NodeId)>) -> f64 {
    let (Some((alo, ahi)), Some((blo, bhi))) = (span, within) else {
        return 0.0;
    };
    let width = ahi.0.saturating_sub(alo.0) as f64 + 1.0;
    let lo = alo.0.max(blo.0);
    let hi = ahi.0.min(bhi.0);
    if lo > hi {
        return 0.0;
    }
    ((hi - lo) as f64 + 1.0) / width
}

fn merge_bounds(
    a: Option<(NodeId, NodeId)>,
    b: Option<(NodeId, NodeId)>,
) -> Option<(NodeId, NodeId)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
    }
}

/// Predicted pairs of a stage whose parent falls in the frontier's
/// node bounds — the interval-overlap selectivity estimate.
fn est_matched(frontier_pairs: u64, frontier_nb: Option<(NodeId, NodeId)>, st: &StageEst) -> u64 {
    if frontier_pairs == 0 {
        return 0;
    }
    let frac = overlap_frac(st.parent_bounds, frontier_nb);
    ((st.pairs as f64 * frac).ceil() as u64).min(st.pairs)
}

/// Accumulates predicted `(work, pages)` per op kind.
#[derive(Debug, Default, Clone)]
struct Forecast {
    rows: Vec<(OpKind, u64, u64)>,
}

impl Forecast {
    fn add(&mut self, kind: OpKind, work: u64, pages: u64) {
        if let Some(r) = self.rows.iter_mut().find(|r| r.0 == kind) {
            r.1 += work;
            r.2 += pages;
        } else {
            self.rows.push((kind, work, pages));
        }
    }

    fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.1 + r.2).sum()
    }
}

/// A typed, executable plan for one QTYPE1/3 segment chain.
#[derive(Debug, Clone)]
pub struct PathPlan {
    /// Class nodes per stage, evaluation order (seed first).
    pub stages: Vec<Vec<XNodeId>>,
    /// H_APEX lookups spent segmenting; charged at execution.
    pub hash_lookups: u64,
    /// True when some stage has exactly zero pairs (or the path's first
    /// label is unknown): the answer is empty and execution is free.
    pub static_empty: bool,
    /// Stable digest of the plan shape.
    pub digest: u64,
    /// Predicted total (work + pages).
    pub predicted_total: u64,
    /// Predicted kernel name per join boundary (`stages.len() - 1`
    /// entries; none when statically empty). `explain` renders these.
    pub kernels: Vec<&'static str>,
    /// Per-op predicted `(work, pages)`.
    predicted: Vec<(OpKind, u64, u64)>,
}

/// The planner: borrows the index, an optional statistics
/// snapshot (falling back to the live cheap accessors per extent), the
/// kernel policy in force, and the generation tag that scopes buffer
/// identities.
pub struct Planner<'a> {
    apex: &'a Apex,
    stats: Option<&'a PlanStats>,
    policy: KernelPolicy,
    tag: u64,
}

impl<'a> Planner<'a> {
    /// A planner over `apex`, optionally reading `stats` instead of the
    /// live extents.
    pub fn new(
        apex: &'a Apex,
        stats: Option<&'a PlanStats>,
        policy: KernelPolicy,
        tag: u64,
    ) -> Self {
        Planner {
            apex,
            stats,
            policy,
            tag,
        }
    }

    /// `(buffer id, extent)` source for class node `x` under this
    /// planner's generation tag.
    fn source(&self, x: XNodeId) -> (u64, &'a EdgeSet) {
        let r = self.apex.extent_ref(x);
        ((self.tag << 32) | r.id, r.set)
    }

    /// Summarizes one stage from the snapshot, or (per missing extent)
    /// from the live cheap accessors — identical numbers either way.
    fn stage_est(&self, classes: &[XNodeId]) -> StageEst {
        let mut e = StageEst::default();
        for &x in classes {
            let (pairs, blocks, ends, pb, nb) = match self.stats.and_then(|s| s.extent(x.0)) {
                Some(st) => (
                    st.pairs,
                    st.blocks,
                    st.ends,
                    st.parent_bounds,
                    st.node_bounds,
                ),
                None => {
                    let set = self.apex.extent(x);
                    (
                        set.len(),
                        set.blocks_hint(),
                        set.ends_len_hint(),
                        set.parent_bounds(),
                        set.node_bounds(),
                    )
                }
            };
            e.pairs += pairs as u64;
            e.blocks += blocks as u64;
            e.ends += ends as u64;
            e.parent_bounds = merge_bounds(e.parent_bounds, pb);
            e.node_bounds = merge_bounds(e.node_bounds, nb);
        }
        e
    }

    /// Predicts one stored-stage semijoin: returns
    /// `(kernel, work, pages, matched)` given the frontier estimate.
    fn predict_semijoin(
        &self,
        frontier_pairs: u64,
        frontier_ends: u64,
        frontier_nb: Option<(NodeId, NodeId)>,
        st: &StageEst,
    ) -> (Kernel, u64, u64, u64) {
        let kernel = self.policy.pick(frontier_ends, st.pairs, st.blocks);
        let matched = est_matched(frontier_pairs, frontier_nb, st);
        let n = frontier_ends.max(1);
        let m = st.pairs;
        let blocks = st.blocks.max(1);
        let gap_log = (64 - (m / n).max(1).leading_zeros()) as u64;
        let (work, pages) = match kernel {
            Kernel::Merge => (m + n + m, blocks),
            Kernel::Gallop => {
                let pages = blocks.min(n);
                let pairs_read = m * pages / blocks;
                (n * (2 * gap_log + 4) + pairs_read, pages)
            }
            Kernel::BlockSkip => {
                let pages = blocks.min(n);
                let pairs_read = m * pages / blocks;
                (blocks + n * (2 * gap_log + 4) + pairs_read, pages)
            }
        };
        (kernel, work + matched, pages, matched)
    }

    /// Predicts the forward order over `ests`.
    fn predict_forward(&self, ests: &[StageEst]) -> (Forecast, Vec<&'static str>) {
        let mut f = Forecast::default();
        let seed = &ests[0];
        f.add(OpKind::ExtentUnion, seed.pairs, seed.blocks);
        let mut fp = seed.pairs;
        let mut fe = seed.ends.min(seed.pairs);
        let mut fnb = seed.node_bounds;
        let mut kernels = Vec::new();
        for st in &ests[1..] {
            let (kernel, work, pages, matched) = self.predict_semijoin(fp, fe, fnb, st);
            f.add(kernel.op_kind(), work, pages);
            kernels.push(kernel.name());
            fp = matched;
            fe = matched.min(st.ends);
            fnb = if matched > 0 { st.node_bounds } else { None };
        }
        (f, kernels)
    }

    /// Plans `labels` (a QTYPE1/3 chain): §6.1 segmentation, the
    /// static-empty check, and the forward forecast.
    pub fn plan_path(&self, labels: &[LabelId]) -> PathPlan {
        let n = labels.len();
        let mut segments: Vec<Vec<XNodeId>> = Vec::new();
        let mut hash_lookups = 0u64;
        let mut exact_found = false;
        for j in (1..=n).rev() {
            let seg = self.apex.segment_nodes(&labels[..j]);
            hash_lookups += seg.hash_lookups;
            segments.push(seg.xnodes);
            if seg.exact {
                exact_found = true;
                break;
            }
        }
        segments.reverse();
        let empty_plan = |stages: Vec<Vec<XNodeId>>, hash_lookups: u64| {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut digest, b"empty");
            fnv(&mut digest, &(stages.len() as u64).to_le_bytes());
            PathPlan {
                stages,
                hash_lookups,
                static_empty: true,
                digest,
                predicted_total: hash_lookups,
                kernels: Vec::new(),
                predicted: vec![(OpKind::IndexNav, hash_lookups, 0)],
            }
        };
        if !exact_found {
            // The single-label prefix is always exact when the label
            // exists; reaching here means it is unknown.
            return empty_plan(Vec::new(), hash_lookups);
        }
        let ests: Vec<StageEst> = segments.iter().map(|s| self.stage_est(s)).collect();
        if ests.iter().any(|e| e.pairs == 0) {
            // Exact cardinalities: a zero-pair stage proves the answer
            // empty before any page is faulted.
            return empty_plan(segments, hash_lookups);
        }
        let (f, kernels) = self.predict_forward(&ests);
        let mut predicted = f.rows.clone();
        predicted.push((OpKind::IndexNav, hash_lookups, 0));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut digest, FORWARD.as_bytes());
        fnv(&mut digest, &(ests.len() as u64 - 1).to_le_bytes());
        for e in &ests {
            fnv(&mut digest, &e.pairs.to_le_bytes());
        }
        for kn in &kernels {
            fnv(&mut digest, kn.as_bytes());
        }
        PathPlan {
            stages: segments,
            hash_lookups,
            static_empty: false,
            digest,
            predicted_total: f.total() + hash_lookups,
            kernels,
            predicted,
        }
    }

    /// Executes `plan`, returning the final edge set plus the report
    /// pairing the plan's predictions with what actually ran.
    pub fn execute_path(
        &self,
        plan: &PathPlan,
        ctx: &mut ExecContext<'_>,
    ) -> (EdgeSet, PlanReport) {
        let before = ctx.cost.ops;
        ctx.note_hash_lookups(plan.hash_lookups);
        let edges = if plan.static_empty {
            EdgeSet::new()
        } else {
            self.run_forward(plan, ctx)
        };
        let report = build_report(
            plan.digest,
            FORWARD,
            &plan.predicted,
            &before,
            &ctx.cost.ops,
        );
        (edges, report)
    }

    /// Seed union, then the forward semijoin chain ([`MultiwayJoin`]).
    fn run_forward(&self, plan: &PathPlan, ctx: &mut ExecContext<'_>) -> EdgeSet {
        let mut it = plan.stages.iter();
        let Some(seed) = it.next() else {
            return EdgeSet::new();
        };
        MultiwayJoin {
            seed: seed.iter().map(|&x| self.source(x)).collect(),
            stages: it
                .map(|classes| classes.iter().map(|&x| self.source(x)).collect())
                .collect(),
            space: Space::ApexExtent,
        }
        .run(ctx)
    }

    /// Forecast for a QTYPE2 dataflow evaluation: the seed extent scans
    /// plus the segmentation lookups are predicted exactly; the fixpoint
    /// itself is navigation whose cost the report surfaces as-is (an
    /// honest mispredict).
    pub fn forecast_anc_desc(&self, first: LabelId) -> (u64, Vec<(OpKind, u64, u64)>) {
        let seg = self.apex.segment_nodes(&[first]);
        let est = self.stage_est(&seg.xnodes);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut digest, b"dataflow");
        fnv(&mut digest, &u64::from(first.0).to_le_bytes());
        fnv(&mut digest, &est.pairs.to_le_bytes());
        (
            digest,
            vec![
                (OpKind::ExtentScan, est.pairs, est.blocks),
                (OpKind::IndexNav, seg.hash_lookups, 0),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::Workload;
    use apex_storage::bufmgr::BufferHandle;
    use xmlgraph::builder::moviedb;
    use xmlgraph::{LabelPath, XmlGraph};

    fn setup(g: &XmlGraph, workload: &[&str]) -> Apex {
        let mut idx = Apex::build_initial(g);
        if !workload.is_empty() {
            let wl = Workload::parse(g, workload).unwrap();
            idx.refine(g, &wl, 0.1);
        }
        idx
    }

    fn labels(g: &XmlGraph, p: &str) -> Vec<LabelId> {
        LabelPath::parse(g, p).unwrap().0
    }

    #[test]
    fn forward_plans_agree_with_their_reports() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let stats = PlanStats::assemble(&idx);
        let planner = Planner::new(&idx, Some(&stats), KernelPolicy::Adaptive, 0);
        for p in [
            "actor.name",
            "director.movie.title",
            "@movie.movie",
            "actor.@movie.movie.title",
            "director.movie.@director.director.name",
        ] {
            let plan = planner.plan_path(&labels(&g, p));
            assert_eq!(plan.kernels.len(), plan.stages.len() - 1, "{p}");
            let buf = BufferHandle::unbounded();
            let mut ctx = ExecContext::new(&buf);
            let (out, report) = planner.execute_path(&plan, &mut ctx);
            assert!(!out.is_empty(), "{p}");
            assert_eq!(report.order, "forward");
            assert_eq!(report.digest, plan.digest);
            // Every scalar the execution moved is in the report.
            let cost = ctx.finish();
            let attributed: u64 = report
                .forecasts
                .iter()
                .map(|f| f.actual_work + f.actual_pages)
                .sum();
            assert_eq!(attributed, cost.total(), "{p}");
        }
    }

    #[test]
    fn unknown_label_and_zero_stage_plans_are_static_empty() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let stats = PlanStats::assemble(&idx);
        let planner = Planner::new(&idx, Some(&stats), KernelPolicy::Adaptive, 0);
        // `title.actor` exists label-wise but has an empty class list in
        // some stage only if cardinality is zero; craft the guaranteed
        // case instead: a stage whose extents are all empty cannot occur
        // in moviedb, so check the unknown-label path (no exact prefix).
        let ls = labels(&g, "title.actor");
        let plan = planner.plan_path(&ls);
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let (out, report) = planner.execute_path(&plan, &mut ctx);
        if plan.static_empty {
            assert_eq!(ctx.cost.pages_read, 0);
        }
        assert!(out.is_empty() || !plan.static_empty);
        assert!(report.mispredict_ratio().is_finite());
    }

    #[test]
    fn digest_is_stable() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let ls = labels(&g, "director.movie.title");
        let a = planner.plan_path(&ls);
        let b = planner.plan_path(&ls);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.predicted_total, b.predicted_total);
        assert_ne!(
            a.digest,
            planner.plan_path(&labels(&g, "movie.title")).digest
        );
    }

    #[test]
    fn planned_forward_execution_matches_legacy_multiway_costs() {
        // A forward plan must be bit-for-bit the legacy pipeline: same
        // result, same cost scalars.
        let g = moviedb();
        let idx = setup(&g, &["actor.name"]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let ls = labels(&g, "director.movie.title");
        let plan = planner.plan_path(&ls);
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let (out, _) = planner.execute_path(&plan, &mut ctx);
        let planned_cost = ctx.finish();

        // Legacy: explicit segmentation + MultiwayJoin.
        let buf2 = BufferHandle::unbounded();
        let mut ctx2 = ExecContext::new(&buf2);
        let n = ls.len();
        let mut segments: Vec<Vec<XNodeId>> = Vec::new();
        for j in (1..=n).rev() {
            let seg = idx.segment_nodes(&ls[..j]);
            ctx2.note_hash_lookups(seg.hash_lookups);
            segments.push(seg.xnodes);
            if seg.exact {
                break;
            }
        }
        let mut it = segments.into_iter().rev();
        let seed = it.next().unwrap();
        let legacy = MultiwayJoin {
            seed: seed.iter().map(|&x| planner.source(x)).collect(),
            stages: it
                .map(|cs| cs.iter().map(|&x| planner.source(x)).collect())
                .collect(),
            space: Space::ApexExtent,
        }
        .run(&mut ctx2);
        assert_eq!(out, legacy);
        let legacy_cost = ctx2.finish();
        assert_eq!(planned_cost.scalars(), legacy_cost.scalars());
    }

    #[test]
    fn report_feedback_flattens_rows() {
        let rep = PlanReport {
            digest: 7,
            order: "forward".into(),
            forecasts: vec![OpForecast {
                kind: OpKind::ExtentUnion,
                predicted_work: 10,
                predicted_pages: 2,
                actual_work: 9,
                actual_pages: 2,
            }],
        };
        let rows: Vec<_> = rep.feedback().collect();
        assert_eq!(rows, vec![(OpKind::ExtentUnion, 12, 11)]);
        assert!((rep.mispredict_ratio() - 1.0 / 11.0).abs() < 1e-9);
        let s = rep.render();
        assert!(s.contains("mispredict ratio"));
        assert!(s.contains("ExtentUnion"));
    }
}
