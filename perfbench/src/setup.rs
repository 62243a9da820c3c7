//! Seeded inputs and the correctness oracle.
//!
//! Every input is derived from `--seed` alone: the datasets are the
//! fixed Table 1 generators, the query pools come from the paper's §6.1
//! generator seeded from `--seed`, and every list or schedule is drawn
//! with [`Rng`]. Nothing reads the environment.
//!
//! APEX answers are exact and independent of the index generation, so
//! one untimed single-threaded `eval` per distinct query fixes the
//! expected row count and 64-row sample that every timed call and
//! socket response must reproduce; a seeded sample of those answers is
//! cross-checked against the naive graph-walking evaluator.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use apex::Apex;
use apex_net::wire::MAX_ROW_SAMPLE;
use apex_query::apex_qp::ApexProcessor;
use apex_query::generator::{GeneratorConfig, QuerySets};
use apex_query::naive::NaiveProcessor;
use apex_query::{Query, QueryProcessor};
use apex_storage::{DataTable, PageModel};
use datagen::Dataset;
use xmlgraph::paths::EnumLimits;
use xmlgraph::{NodeId, XmlGraph};

use crate::measure::{QType, Rng};

/// A dataset with its value table and seeded query pools.
pub struct Data {
    /// The data graph.
    pub g: Arc<XmlGraph>,
    /// The value table (QTYPE3 probes).
    pub table: Arc<DataTable>,
    /// QTYPE1/2/3 pools plus the 20 % tuning sample of QTYPE1.
    pub sets: QuerySets,
}

/// Generates `d` and its query pools (`counts` = QTYPE1/2/3 sizes) the
/// way the paper's §6.1 does, seeded from the benchmark seed.
pub fn build_data(d: Dataset, seed: u64, counts: (usize, usize, usize)) -> Data {
    let g = d.generate();
    let table = DataTable::build(&g, PageModel::default());
    let sets = QuerySets::generate(
        &g,
        &table,
        GeneratorConfig {
            qtype1: counts.0,
            qtype2: counts.1,
            qtype3: counts.2,
            workload_fraction: 0.20,
            seed: Rng::new(seed, d.paper_nodes() as u64).next_u64(),
            limits: EnumLimits {
                max_len: 12,
                max_paths: 100_000,
            },
        },
    );
    Data {
        g: Arc::new(g),
        table: Arc::new(table),
        sets,
    }
}

/// One query of a workload list.
#[derive(Debug, Clone)]
pub struct Item {
    /// Query type.
    pub kind: QType,
    /// The parsed query (in-process calls).
    pub query: Query,
    /// Its text (socket and `Engine::execute` calls).
    pub text: String,
    /// Index of its expected answer in [`Oracle::answers`].
    pub expect: usize,
}

/// What a correct answer looks like: the row count and the first
/// [`MAX_ROW_SAMPLE`] node ids in document order — exactly what a wire
/// response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Total result rows.
    pub total: u32,
    /// The row sample.
    pub rows: Vec<u32>,
}

impl Expected {
    /// The expected form of a full in-process answer.
    pub fn of(nodes: &[NodeId]) -> Expected {
        Expected {
            total: nodes.len() as u32,
            rows: nodes.iter().take(MAX_ROW_SAMPLE).map(|n| n.0).collect(),
        }
    }

    /// Whether an in-process answer matches.
    pub fn matches_nodes(&self, nodes: &[NodeId]) -> bool {
        nodes.len() as u32 == self.total
            && nodes.len().min(MAX_ROW_SAMPLE) == self.rows.len()
            && nodes.iter().zip(&self.rows).all(|(n, &r)| n.0 == r)
    }

    /// Whether a wire response's count and sample match.
    pub fn matches_rows(&self, total: u32, rows: &[u32]) -> bool {
        total == self.total && rows == self.rows.as_slice()
    }
}

/// Expected answers of a list's distinct queries.
pub struct Oracle {
    /// The distinct queries, first-seen order.
    pub distinct: Vec<(QType, Query)>,
    /// Their answers, same order.
    pub answers: Vec<Expected>,
    /// The join work each one costs on the oracle's index.
    pub join_work: Vec<u64>,
}

impl Oracle {
    /// Join work the oracle's index spends on `items`, summed.
    pub fn join_work_of(&self, items: &[Item]) -> u64 {
        items.iter().map(|i| self.join_work[i.expect]).sum()
    }
}

/// Builds the list items for `queries`, deduplicating by text so each
/// distinct query is evaluated once by the oracle.
pub fn items(g: &XmlGraph, queries: &[(QType, Query)]) -> (Vec<Item>, Vec<(QType, Query)>) {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let items = queries
        .iter()
        .map(|(kind, q)| {
            let text = q.render(g);
            let expect = *index.entry(text.clone()).or_insert_with(|| {
                distinct.push((*kind, q.clone()));
                distinct.len() - 1
            });
            Item {
                kind: *kind,
                query: q.clone(),
                text,
                expect,
            }
        })
        .collect();
    (items, distinct)
}

/// Evaluates every distinct query once, single-threaded, on a private
/// unbounded pool (so the timed pool's statistics start clean). The
/// workloads pass `APEX⁰`, so the oracle's index is never the adapted
/// one being timed, and its join work is the unadapted baseline.
pub fn oracle(data: &Data, index: &Apex, distinct: Vec<(QType, Query)>) -> Oracle {
    let p = ApexProcessor::new(&data.g, index, &data.table);
    let (answers, join_work) = distinct
        .iter()
        .map(|(_, q)| {
            let out = p.eval(q);
            (Expected::of(&out.nodes), out.cost.join_work)
        })
        .unzip();
    Oracle {
        distinct,
        answers,
        join_work,
    }
}

/// Cross-checks `per_type` seeded picks of each query type against the
/// naive evaluator.
pub fn cross_check_naive(
    data: &Data,
    oracle: &Oracle,
    seed: u64,
    per_type: [usize; 3],
) -> Result<(), String> {
    let naive = NaiveProcessor::new(&data.g, &data.table);
    let mut rng = Rng::new(seed, 0x4E41_4956);
    for kind in [QType::Q1, QType::Q2, QType::Q3] {
        let mut of_kind: Vec<usize> = (0..oracle.distinct.len())
            .filter(|&i| oracle.distinct[i].0 == kind)
            .collect();
        rng.shuffle(&mut of_kind);
        for &i in of_kind.iter().take(per_type[kind.idx()]) {
            let q = &oracle.distinct[i].1;
            if !oracle.answers[i].matches_nodes(&naive.eval(q).nodes) {
                return Err(format!("naive and APEX disagree on {}", q.render(&data.g)));
            }
        }
    }
    Ok(())
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `.perfbench/<tag>-<pid>` afresh.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
