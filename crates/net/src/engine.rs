//! The serving bridge between the wire protocol and the query layer.
//!
//! An [`Engine`] owns shared handles to everything one query needs —
//! graph, data table, [`IndexCell`], workload monitor, optional
//! refresher — and exposes a single [`Engine::execute`] that mirrors
//! one iteration of `apex_query::batch::run_adaptive`: snapshot the
//! cell, evaluate through the shared operators against that snapshot's
//! generation-tagged buffer identity, record the query into the
//! monitor, and nudge the refresher when the policy says a refine is
//! due. Workers on different threads share one `Engine` through the
//! server's `Arc`; every handle inside is `Sync` or internally locked.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use apex::{IndexCell, Refresher, WorkloadMonitor};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::recordable_path;
use apex_query::{Query, QueryProcessor};
use apex_storage::{BufferHandle, DataTable};
use xmlgraph::XmlGraph;

use crate::wire::{Status, MAX_ROW_SAMPLE};

/// What one execution produced, before the server stamps transport
/// fields (request id, service time) onto the wire response.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Disposition: `Ok`, `DeadlineExceeded` (interrupted at a
    /// checkpoint) or `ParseError`. Admission sheds never reach here.
    pub status: Status,
    /// The generation that served (or refused) the query.
    pub generation: u64,
    /// Total result rows (0 on parse errors; partial on interrupts).
    pub total_rows: u32,
    /// Prefix sample of result node ids, ≤ [`MAX_ROW_SAMPLE`].
    pub rows: Vec<u32>,
    /// Pages read by this query (logical cost model).
    pub pages_read: u64,
    /// Join work charged to this query (logical cost model).
    pub join_work: u64,
    /// Digest of the plan that served the query (0 when no
    /// planner ran — parse errors, unplanned query shapes).
    pub plan_digest: u64,
}

/// Shared query-serving state behind the TCP server.
#[derive(Debug, Clone)]
pub struct Engine {
    g: Arc<XmlGraph>,
    table: Arc<DataTable>,
    cell: Arc<IndexCell>,
    monitor: Arc<Mutex<WorkloadMonitor>>,
    refresher: Option<Arc<Refresher>>,
    buf: BufferHandle,
}

impl Engine {
    /// Builds an engine over shared serving state. The cross-query
    /// buffer pool is unbounded, like the batch layer's adaptive runs.
    pub fn new(
        g: Arc<XmlGraph>,
        table: Arc<DataTable>,
        cell: Arc<IndexCell>,
        monitor: Arc<Mutex<WorkloadMonitor>>,
    ) -> Engine {
        Engine {
            g,
            table,
            cell,
            monitor,
            refresher: None,
            buf: BufferHandle::unbounded(),
        }
    }

    /// Attaches the background refresher so recorded workload drift
    /// triggers snapshot swaps under live traffic. Without one, queries
    /// are still recorded but nothing rebuilds.
    pub fn with_refresher(mut self, refresher: Arc<Refresher>) -> Engine {
        self.refresher = Some(refresher);
        self
    }

    /// The current published generation.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Drain hook: stops the attached refresher accepting new rebuild
    /// requests (its in-flight cycle still completes). The owner of the
    /// `Refresher` joins it after the server has drained.
    /// [`crate::Server::restart`] does not call this: replicas over one
    /// engine keep adapting while one of them rebinds.
    pub fn begin_drain(&self) {
        if let Some(r) = &self.refresher {
            r.begin_shutdown();
        }
    }

    /// Parses and executes one query against the current snapshot.
    ///
    /// `deadline` arms mid-execution checkpoints: evaluation that
    /// crosses it stops early and reports `DeadlineExceeded` with the
    /// partial rows collected so far. Expiry *before* execution is the
    /// server's dequeue check, not this method's concern.
    pub fn execute(&self, query_text: &str, deadline: Option<Instant>) -> ExecOutcome {
        let snap = self.cell.snapshot();
        let generation = snap.generation();
        let q = match Query::parse(&self.g, query_text) {
            Ok(q) => q,
            Err(_) => {
                return ExecOutcome {
                    status: Status::ParseError,
                    generation,
                    total_rows: 0,
                    rows: Vec::new(),
                    pages_read: 0,
                    join_work: 0,
                    plan_digest: 0,
                }
            }
        };
        let mut p = ApexProcessor::with_buffer_tagged(
            &self.g,
            snap.index(),
            &self.table,
            self.buf.clone(),
            generation,
        )
        .with_plan_stats(snap.stats());
        if let Some(d) = deadline {
            p = p.with_deadline(d);
        }
        let out = p.eval(&q);

        // Record the query and nudge the refresher exactly like the
        // batch layer's adaptive driver: monitoring is part of serving,
        // so remote workloads steer the index too. Plan feedback
        // (predicted vs actual per operator) rides the same lock.
        //
        // Durability (log-before-ack): when the monitor has a WAL
        // attached (`WorkloadMonitor::attach_wal`), `record` appends
        // the query to the log under this same monitor lock — before
        // `execute` returns and therefore before the server writes the
        // response bytes. Every acknowledged query is in the log (or
        // was never acknowledged), and the log order is the monitor's
        // serialization order, which is what replay reapplies.
        let path = recordable_path(&q);
        if path.is_some() || out.plan.is_some() {
            let due = {
                let mut m = self.monitor.lock().unwrap_or_else(|p| p.into_inner());
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
                if let Some(r) = &self.refresher {
                    r.request_refresh();
                }
            }
        }

        let status = if out.interrupted {
            Status::DeadlineExceeded
        } else {
            Status::Ok
        };
        ExecOutcome {
            status,
            generation,
            total_rows: out.nodes.len().min(u32::MAX as usize) as u32,
            rows: out.nodes.iter().take(MAX_ROW_SAMPLE).map(|n| n.0).collect(),
            pages_read: out.cost.pages_read,
            join_work: out.cost.join_work,
            plan_digest: out.plan.as_ref().map_or(0, |r| r.digest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::{Apex, RefreshPolicy};
    use apex_storage::PageModel;
    use xmlgraph::builder::moviedb;

    fn engine() -> Engine {
        let g = Arc::new(moviedb());
        let table = Arc::new(DataTable::build(&g, PageModel::default()));
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.3,
            RefreshPolicy::Manual,
        )));
        Engine::new(g, table, cell, monitor)
    }

    #[test]
    fn executes_and_reports_cost() {
        let e = engine();
        let out = e.execute("//actor/name", None);
        assert_eq!(out.status, Status::Ok);
        assert!(out.total_rows > 0);
        assert_eq!(out.rows.len() as u32, out.total_rows.min(64));
        assert!(out.pages_read > 0, "extent scans must charge pages");
        assert_eq!(out.generation, 0);
        assert_ne!(out.plan_digest, 0, "path queries carry a plan digest");
    }

    #[test]
    fn plan_feedback_reaches_the_monitor() {
        let e = engine();
        e.execute("//director/movie/title", None);
        let m = e.monitor.lock().expect("monitor");
        let fb = m.plan_feedback();
        assert!(
            fb.plans() > 0 && fb.actual_total() > 0,
            "executed plans must report predicted-vs-actual cost"
        );
    }

    #[test]
    fn parse_errors_are_a_status_not_a_panic() {
        let e = engine();
        let out = e.execute("actor/name", None); // missing leading //
        assert_eq!(out.status, Status::ParseError);
        assert_eq!(out.total_rows, 0);
        let out = e.execute("//no_such_label_anywhere", None);
        // Unknown labels parse to an error too (labels are interned).
        assert_eq!(out.status, Status::ParseError);
    }

    #[test]
    fn expired_deadline_interrupts_mid_execution() {
        let e = engine();
        // A deadline already in the past trips the first checkpoint.
        let out = e.execute("//actor/name", Some(Instant::now()));
        assert_eq!(out.status, Status::DeadlineExceeded);
    }

    #[test]
    fn queries_are_recorded_into_the_monitor() {
        let e = engine();
        let before = e.monitor.lock().expect("monitor").total_recorded();
        e.execute("//actor/name", None);
        e.execute("//movie/title", None);
        let after = e.monitor.lock().expect("monitor").total_recorded();
        assert_eq!(after - before, 2);
    }
}
