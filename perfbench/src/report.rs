//! What a workload run hands back, and how it is printed: every metric as
//! a human-readable line with its unit and sample count, then one JSON
//! object as the last line of standard output.

use std::time::Instant;
use tm_telemetry::json::JsonBuf;

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count, base or definition, for the human-readable line.
    pub note: String,
}

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted (transactions or documents).
    pub attempted: u64,
    /// Requests that failed: a wrong or `Unknown` verdict, a missed planted
    /// level, a decode error, a failed self-check, or a transaction that
    /// gave up.
    pub failed: u64,
    /// Broken output oracles; any entry fails the command.
    pub oracle_failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Add an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name, value, unit, note });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.layers.push(Metric { name, value, unit, note });
    }

    /// Record a broken oracle.
    pub fn oracle(&mut self, failure: String) {
        self.oracle_failures.push(failure);
    }

    /// Look a metric up by name in either list.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().chain(&self.layers).find(|m| m.name == name)
    }

    /// Print every metric, then the JSON result line carrying the `keys`
    /// (a missing key is an error in the benchmark itself).
    pub fn print(&self, workload: &str, keys: &[&str]) {
        println!("workload {workload}: attempted {} failed {}", self.attempted, self.failed);
        for m in self.metrics.iter().chain(&self.layers) {
            println!("  {:<34} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        for failure in &self.oracle_failures {
            println!("  ORACLE FAILED: {failure}");
        }
        let mut json = JsonBuf::new();
        json.begin_obj()
            .key("correct")
            .bool(self.oracle_failures.is_empty())
            .kv_u64("attempted", self.attempted)
            .kv_u64("failed", self.failed)
            .key("metrics")
            .begin_obj();
        for key in keys {
            let m = self.get(key).unwrap_or_else(|| panic!("workload {workload} lacks {key}"));
            json.key(m.name).begin_obj().kv_f64("value", m.value).kv_str("unit", m.unit).end_obj();
        }
        json.end_obj().end_obj();
        println!("{}", json.finish());
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `tm-telemetry` counter of the global registry (populated only while
/// telemetry is on, i.e. in the traced half of a run).
pub fn counter(name: &str) -> u64 {
    tm_telemetry::global().counter(name, &[], "").get()
}

/// What the `audit.*` and `sat.*` layer metrics need from the stream
/// reports the auditors return, tallied as they arrive so reports need not
/// be kept.
#[derive(Debug, Default)]
pub struct AuditTally {
    auditors: u64,
    windows: u64,
    evicted: u64,
    peak_closure_bytes: usize,
    sat_decided: u64,
    undecided: u64,
}

impl AuditTally {
    /// Count one auditor's report.
    pub fn add(&mut self, stream: &tm_audit::StreamReport) {
        use tm_audit::{DecidedBy, Outcome};
        self.auditors += 1;
        self.windows += stream.windows.len() as u64;
        self.evicted += stream.evicted_attributions;
        self.peak_closure_bytes = self.peak_closure_bytes.max(stream.peak_closure_bytes);
        for level in stream.windows.iter().flat_map(|w| &w.report.levels) {
            match (&level.outcome, level.decided_by) {
                (Outcome::Unknown { .. }, _) => self.undecided += 1,
                (_, DecidedBy::Sat) => self.sat_decided += 1,
                _ => {}
            }
        }
    }

    /// Emit the `audit.*` and `sat.*` layer metrics.
    pub fn report(&self, report: &mut Report) {
        report.layer(
            "audit.windows",
            self.windows as f64,
            "count",
            format!("{} auditors", self.auditors),
        );
        report.layer(
            "audit.search_states",
            counter("audit_search_states_total") as f64,
            "count",
            "DFS states spent by inconclusive searches".into(),
        );
        report.layer(
            "audit.budget_slashed_windows",
            counter("audit_budget_slashed_windows_total") as f64,
            "count",
            String::new(),
        );
        report.layer("audit.evicted_attributions", self.evicted as f64, "count", String::new());
        report.layer(
            "audit.peak_closure_bytes",
            self.peak_closure_bytes as f64,
            "B",
            "max over auditors".into(),
        );
        report.layer(
            "sat.windows",
            counter("audit_sat_windows_total") as f64,
            "count",
            "windows escalated to the solver".into(),
        );
        report.layer(
            "sat.conflicts",
            counter("audit_sat_conflicts_total") as f64,
            "count",
            String::new(),
        );
        let left = self.sat_decided + self.undecided;
        report.layer(
            "sat.decided_ratio",
            self.sat_decided as f64 / left.max(1) as f64,
            "ratio",
            format!("{} solver-decided / {left} window levels the DFS left open", self.sat_decided),
        );
    }
}
