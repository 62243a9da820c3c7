//! # apex-query — queries, workloads, and query processors
//!
//! Implements §6.1 of the APEX paper end to end:
//!
//! * [`ast::Query`] — the three evaluated query types: QTYPE1
//!   (`//l_i/l_{i+1}/…/l_n`, optionally with the `=>` dereference
//!   operator), QTYPE2 (`//l_i//l_j`), QTYPE3
//!   (`//l_1/…/l_n[text() = value]`);
//! * [`generator`] — the random query/workload generators described in
//!   "Query Workloads" (5000 QTYPE1 with ~25 % simple expressions, 500
//!   QTYPE2, 1000 non-empty QTYPE3; workload = 20 % sample);
//! * [`apex_qp`] — the APEX query processor: longest-suffix segmentation
//!   over `H_APEX`, extent unions, multi-way joins of edge sets;
//! * [`guide_qp`] — the strong-DataGuide / 1-index processor: query
//!   pruning & rewriting by (memoized) exhaustive navigation of the index
//!   graph, as an automaton-product traversal;
//! * [`fabric_qp`] — the Index Fabric processor (key search / whole-trie
//!   traversal);
//! * [`naive`] — a direct graph-traversal evaluator used as the
//!   correctness oracle for every other processor;
//! * [`exec`] — the shared physical execution layer (extent scans,
//!   unions, semijoins, table probes) every processor evaluates
//!   through, charging a cross-query buffer pool and attributing cost
//!   per operator;
//! * [`batch`] — batch runner collecting wall time + logical costs per
//!   query set (the unit Figures 13–15 report);
//! * [`stats`] — the shared nearest-rank percentile / unit-conversion
//!   helpers every latency reporter (batch, bench, net) uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apex_qp;
pub mod ast;
pub mod batch;
pub mod exec;
pub mod explain;
pub mod fabric_qp;
pub mod generator;
pub mod guide_qp;
pub mod naive;
pub mod plan;
pub mod stats;

pub use ast::Query;
pub use batch::{
    run_adaptive, run_batch, run_batch_parallel, AdaptiveStats, BatchStats, GenerationRow,
    QueryOutput, QueryProcessor,
};
pub use exec::ExecContext;
pub use explain::{explain_apex, Plan, SegmentPlan};
pub use generator::{GeneratorConfig, QuerySets};
pub use plan::{OpForecast, PathPlan, PlanReport, Planner};
