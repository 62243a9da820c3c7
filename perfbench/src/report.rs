//! Metric names, units and the result line.
//!
//! The end-to-end metrics are measured with tracing off and apply to
//! every workload. The per-layer metrics come from the traced run; a
//! layer a workload never reaches (the WAL on `serve_point`, the socket
//! on `lib_mixed`) reads 0 there, which is the measured amount of work.

use std::collections::BTreeMap;

/// A metric's name, unit, and which direction is better.
pub type Metric = (&'static str, &'static str, &'static str);

/// `(name, unit, better)` of every end-to-end metric, in print order.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "lower"),
    ("throughput_qps", "q/s", "higher"),
    ("p50_us", "us", "lower"),
    ("cpu_us_per_q", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const PER_LAYER: &[Metric] = &[
    ("kernels.join_work_per_q", "count", "lower"),
    ("kernels.pairs_read_per_q", "count", "lower"),
    ("kernels.yield", "ratio", "higher"),
    ("kernels.merge_calls_per_q", "count", "lower"),
    ("kernels.gallop_calls_per_q", "count", "lower"),
    ("kernels.skip_calls_per_q", "count", "lower"),
    ("kernels.reverse_calls_per_q", "count", "lower"),
    ("plan.mispredict_ratio", "ratio", "lower"),
    ("plan.backward_share", "ratio", "lower"),
    ("exec.eval_us_p50", "us", "lower"),
    ("exec.results_per_pair", "ratio", "higher"),
    ("exec.nav_calls_per_q2", "count", "lower"),
    ("exec.q2_p50_us", "us", "lower"),
    ("exec.q3_p50_us", "us", "lower"),
    ("datatable.probes_per_q3", "count", "lower"),
    ("index.hash_lookups_per_q", "count", "lower"),
    ("index.resident_bytes", "bytes", "lower"),
    ("index.join_work_vs_apex0", "ratio", "lower"),
    ("bufmgr.hit_rate", "ratio", "higher"),
    ("bufmgr.evictions_per_q", "count", "lower"),
    ("bufmgr.pages_read_per_q", "count", "lower"),
    ("engine.execute_us_p50", "us", "lower"),
    ("engine.self_us_p50", "us", "lower"),
    ("wal.appends_per_q", "count", "lower"),
    ("wal.fsyncs_per_q", "count", "lower"),
    ("wal.bytes_per_q", "bytes", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("serve.swaps", "count", "higher"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.swap_ms_p50", "ms", "lower"),
    ("serve.swap_ms_max", "ms", "lower"),
    ("serve.generations_seen", "count", "higher"),
    ("serve.drift_join_work_per_q", "count", "lower"),
    ("recover.recover_s", "s", "lower"),
    ("recover.applied_records", "count", "lower"),
    ("recover.wal_bytes", "bytes", "lower"),
    ("server.service_us_p50", "us", "lower"),
    ("server.outside_us_p50", "us", "lower"),
    ("server.queue_hwm", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("loadgen.p99_us", "us", "lower"),
    ("loadgen.lag_p50_us", "us", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("loadgen.request_self_us_p50", "us", "lower"),
    ("loadgen.trace_overhead", "ratio", "lower"),
    ("loadgen.fail_ratio", "ratio", "lower"),
    ("loadgen.samples", "count", "higher"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name (either table).
    pub values: BTreeMap<&'static str, f64>,
    /// Timed calls or requests attempted.
    pub attempted: u64,
    /// Attempts that did not end `Ok` (sheds, timeouts, transport).
    pub failed: u64,
    /// Wrong answers and unbalanced ledgers; any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed correctness or ledger check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Human-readable table of every value measured, one metric a line.
pub fn table(workload: &str, o: &Outcome) -> String {
    let mut out = format!("== {workload}\n");
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = o.values.get(name) {
            out.push_str(&format!("{name:<32} {v:>16.4} {unit}\n"));
        }
    }
    out.push_str(&format!(
        "{:<32} {:>16} of {} attempted\n",
        "failed", o.failed, o.attempted
    ));
    for e in &o.errors {
        out.push_str(&format!("ERROR {e}\n"));
    }
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics
/// of `set` (missing values read 0).
pub fn result_line(o: &Outcome, set: &[Metric]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit, _)| {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.errors.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit `f64` holds.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(*better == "higher" || *better == "lower");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.set("p50_us", 12.5);
        let line = result_line(&o, &END_TO_END[..3]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"throughput_qps\": {\"value\": 0.0, \"unit\": \"q/s\"}, \
             \"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        o.check(false, || "wrong".into());
        assert!(result_line(&o, END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the benchmark's own directory, checked out alone
        };
        let compact: String = json.split_whitespace().collect();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the benchmark does not report"
        );
    }
}
