//! Query-plan explanation for the APEX processor.
//!
//! `EXPLAIN` support mirrors the §6.1 evaluation strategy: a QTYPE1 plan
//! shows how the query path was segmented against `H_APEX` (the
//! decreasing-`j` lookup loop), which class nodes feed each segment, and
//! whether the query is answered *directly* from one extent union (the
//! whole path is a required path) or needs a join chain. Path plans are
//! rendered from the planner's own [`crate::plan::PathPlan`], so the
//! segments, kernels and predicted total shown are the ones execution
//! runs. Useful for understanding why a particular `minSup` setting
//! helps a workload.

use apex::Apex;
use apex_storage::bufmgr::BufferStats;
use apex_storage::KernelPolicy;
use xmlgraph::{LabelId, XmlGraph};

use crate::ast::Query;
use crate::plan::Planner;

/// One segment of a QTYPE1 plan: the query prefix `labels[..prefix_len]`
/// resolved through `H_APEX`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Length of the query prefix this segment covers.
    pub prefix_len: usize,
    /// Number of `G_APEX` class nodes whose extents are unioned.
    pub classes: usize,
    /// Total extent pairs behind those classes.
    pub extent_pairs: usize,
    /// True if the prefix is itself a required path (exact — terminates
    /// the segmentation loop).
    pub exact: bool,
    /// The planner's kernel for joining into this segment. `None` for
    /// the seed segment, which is unioned, not joined, and for every
    /// segment of a statically empty plan.
    pub kernel: Option<&'static str>,
}

/// An explained plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// QTYPE1/QTYPE3: either answered directly off one segment
    /// (`segments.len() == 1`) or via a join chain.
    PathJoin {
        /// Segments in evaluation order (exact seed first).
        segments: Vec<SegmentPlan>,
        /// Number of semijoin steps to perform.
        joins: usize,
        /// QTYPE3 only: the value predicate requiring table probes.
        value_filter: bool,
        /// Some segment has zero pairs: the answer is empty and
        /// execution reads nothing.
        static_empty: bool,
        /// The planner's predicted total cost.
        predicted_total: u64,
    },
    /// QTYPE2: dataflow from the `first`-labeled classes, propagating
    /// each reached data node once.
    AncestorDescendant {
        /// Number of seed classes (incoming label = `l_i`).
        start_classes: usize,
        /// Pairs in the seed extents.
        seed_pairs: usize,
    },
    /// The query references a label unknown to the index: empty result.
    Empty,
}

impl Plan {
    /// True if no joins and no graph traversal are needed (single exact
    /// segment — the "direct answer" case the paper optimizes for).
    pub fn is_direct(&self) -> bool {
        matches!(
            self,
            Plan::PathJoin { segments, joins: 0, .. } if segments.len() == 1
        )
    }

    /// Human-readable rendering, naming the physical operators of the
    /// shared execution layer ([`crate::exec`]) the plan runs through.
    pub fn render(&self, g: &XmlGraph, q: &Query) -> String {
        let mut s = format!("EXPLAIN {}\n", q.render(g));
        match self {
            Plan::Empty => s.push_str("  -> empty (unknown label)\n"),
            Plan::AncestorDescendant {
                start_classes,
                seed_pairs,
            } => {
                s.push_str(&format!(
                    "  -> dataflow from {start_classes} class node(s), {seed_pairs} seed pair(s)\n"
                ));
                s.push_str(
                    "  -> Semijoin(merge|gallop|block-skip, adaptive) per G_APEX edge from a FIFO class worklist; each reached data node propagates once\n",
                );
            }
            Plan::PathJoin {
                segments,
                joins,
                value_filter,
                static_empty,
                predicted_total,
            } => {
                for seg in segments {
                    s.push_str(&format!(
                        "  -> prefix[..{}]: {} class(es), {} pair(s){}{}\n",
                        seg.prefix_len,
                        seg.classes,
                        seg.extent_pairs,
                        if seg.exact { " [exact]" } else { "" },
                        match seg.kernel {
                            Some(k) => format!(" [semijoin: {k}]"),
                            None => String::new(),
                        }
                    ));
                }
                if *static_empty {
                    s.push_str("  -> statically empty: a segment has no pairs, nothing is read\n");
                } else if *joins == 0 {
                    s.push_str("  -> ExtentUnion: direct answer from extents (no joins)\n");
                } else {
                    s.push_str(&format!(
                        "  -> MultiwayJoin: ExtentUnion seed + {joins} Semijoin step(s), kernels as above\n"
                    ));
                    s.push_str(&format!("  -> predicted total {predicted_total}\n"));
                }
                if *value_filter {
                    s.push_str("  -> DataProbe value filter\n");
                }
            }
        }
        s
    }

    /// [`Plan::render`] followed by the cross-query buffer pool's state,
    /// so `explain` output shows how much of the plan's I/O the pool
    /// would absorb.
    pub fn render_with_buffer(&self, g: &XmlGraph, q: &Query, stats: &BufferStats) -> String {
        let mut s = self.render(g, q);
        s.push_str(&format!("  -> buffer pool: {stats}\n"));
        s
    }
}

/// Produces the plan APEX would execute for `q` (without executing it).
pub fn explain_apex(apex: &Apex, q: &Query) -> Plan {
    match q {
        Query::AncestorDescendant { first, .. } => {
            let seg = apex.segment_nodes(&[*first]);
            if seg.xnodes.is_empty() {
                return Plan::Empty;
            }
            let seed_pairs = seg.xnodes.iter().map(|&x| apex.extent(x).len()).sum();
            Plan::AncestorDescendant {
                start_classes: seg.xnodes.len(),
                seed_pairs,
            }
        }
        Query::PartialPath { labels } => plan_path(apex, labels, false),
        Query::ValuePath { labels, .. } => plan_path(apex, labels, true),
    }
}

fn plan_path(apex: &Apex, labels: &[LabelId], value_filter: bool) -> Plan {
    // The planner's plan over live extent statistics (`explain` has no
    // snapshot), so what is rendered is what execution runs.
    let plan = Planner::new(apex, None, KernelPolicy::Adaptive, 0).plan_path(labels);
    if plan.stages.is_empty() {
        return Plan::Empty;
    }
    // Segmentation stops at the first exact prefix, so stage `i` covers
    // the prefix `first + i` and only the seed is exact.
    let first = labels.len() + 1 - plan.stages.len();
    let segments = plan
        .stages
        .iter()
        .enumerate()
        .map(|(i, classes)| SegmentPlan {
            prefix_len: first + i,
            classes: classes.len(),
            extent_pairs: classes.iter().map(|&x| apex.extent(x).len()).sum(),
            exact: i == 0,
            kernel: i.checked_sub(1).and_then(|b| plan.kernels.get(b).copied()),
        })
        .collect();
    Plan::PathJoin {
        segments,
        joins: plan.stages.len() - 1,
        value_filter,
        static_empty: plan.static_empty,
        predicted_total: plan.predicted_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::Workload;
    use xmlgraph::builder::moviedb;

    fn figure2() -> (XmlGraph, Apex) {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name"]).unwrap();
        idx.refine(&g, &wl, 0.5);
        (g, idx)
    }

    #[test]
    fn required_path_is_direct() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//actor/name").unwrap();
        let plan = explain_apex(&idx, &q);
        assert!(plan.is_direct(), "{plan:?}");
        let rendered = plan.render(&g, &q);
        assert!(rendered.contains("direct answer"));
        assert!(rendered.contains("[exact]"));
    }

    #[test]
    fn non_required_path_needs_joins() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//director/movie/title").unwrap();
        let plan = explain_apex(&idx, &q);
        assert!(!plan.is_direct());
        let Plan::PathJoin {
            segments,
            joins,
            value_filter,
            ..
        } = &plan
        else {
            panic!("expected path plan")
        };
        assert_eq!(*joins, segments.len() - 1);
        assert!(*joins >= 1);
        assert!(!value_filter);
        // Seed (first segment) is the exact one.
        assert!(segments[0].exact);
        assert!(segments.iter().skip(1).all(|s| !s.exact));
        // The seed is unioned; every join stage shows its predicted kernel.
        assert!(segments[0].kernel.is_none());
        assert!(segments.iter().skip(1).all(|s| s.kernel.is_some()));
        let rendered = plan.render(&g, &q);
        assert!(rendered.contains("[semijoin: "), "{rendered}");
        // The planner's forecast is part of the plan.
        assert!(rendered.contains("predicted total "), "{rendered}");
    }

    #[test]
    fn value_path_plans_table_filter() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//title[text() = \"Star Wars\"]").unwrap();
        let plan = explain_apex(&idx, &q);
        let Plan::PathJoin { value_filter, .. } = &plan else {
            panic!()
        };
        assert!(value_filter);
        assert!(plan.render(&g, &q).contains("value filter"));
    }

    #[test]
    fn render_with_buffer_appends_pool_state() {
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);
        let q = Query::parse(&g, "//actor/name").unwrap();
        let _ = qp.eval(&q);
        let stats = qp.buffer().unwrap().stats();
        let s = explain_apex(&idx, &q).render_with_buffer(&g, &q, &stats);
        assert!(s.contains("buffer pool"));
        assert!(s.contains("hit_rate"));
    }

    #[test]
    fn executed_plan_report_shows_predicted_and_actual() {
        // The `explain` tail: evaluating the query yields a PlanReport
        // whose rendering puts predicted and actual cost side by side
        // with the mispredict ratio.
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);
        let q = Query::parse(&g, "//director/movie/title").unwrap();
        let out = qp.eval(&q);
        let rep = out.plan.expect("apex plans every path query");
        let rendered = rep.render();
        assert!(rendered.contains("pred.work"), "{rendered}");
        assert!(rendered.contains("act.work"), "{rendered}");
        assert!(rendered.contains("mispredict ratio"), "{rendered}");
        assert!(!rep.forecasts.is_empty());
    }

    #[test]
    fn qtype2_plan_counts_seeds() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//movie//name").unwrap();
        let plan = explain_apex(&idx, &q);
        let Plan::AncestorDescendant {
            start_classes,
            seed_pairs,
        } = plan
        else {
            panic!()
        };
        assert!(start_classes >= 1);
        // T(movie) = {<0,14>, <7,8>, <9,8>, <16,14>}.
        assert_eq!(seed_pairs, 4);
    }

    #[test]
    fn plan_matches_execution_cost_shape() {
        // A direct plan must execute with zero join work; a join plan
        // with nonzero join work.
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);

        let direct = Query::parse(&g, "//actor/name").unwrap();
        assert!(explain_apex(&idx, &direct).is_direct());
        assert_eq!(qp.eval(&direct).cost.join_work, 0);

        let joined = Query::parse(&g, "//director/movie/title").unwrap();
        assert!(!explain_apex(&idx, &joined).is_direct());
        assert!(qp.eval(&joined).cost.join_work > 0);
    }
}
