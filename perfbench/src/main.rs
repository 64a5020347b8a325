//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <stm-zipf|serve-wal|ingest-mixed|ingest-hard|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the layers in-process through the public calls the
//! `audit` CLI makes, times every call from outside, and checks every output
//! against an oracle.  With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it measures half the time untraced and half traced, and
//! prints the per-layer metrics, the tracing overhead, and dumps the spans
//! to `.bench_run/`.  The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; a broken oracle makes the
//! exit code non-zero.  See README.md for the layer → metric → workload map.

mod ingest;
mod report;
mod serve_wal;
mod stats;
mod stm_zipf;
mod trace;

use report::{Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Trace;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["stm-zipf", "serve-wal", "ingest-mixed", "ingest-hard"];

/// End-to-end metrics printed in the JSON line of an untraced run — the
/// ones `BENCHMARK.json` gates.  Every workload measures all of them.
const GATED: [&str; 3] = ["setup_s", "txns_per_s", "request_p50_ms"];

/// Per-layer metrics printed in the JSON line of a traced run, with their
/// units.  A workload that bypasses a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 40] = [
    ("stm.run_busy_s", "s"),
    ("stm.commit_ratio", "ratio"),
    ("stm.aborts.read_validation", "count"),
    ("stm.aborts.lock_conflict", "count"),
    ("stm.phase_read_ns_p50", "ns"),
    ("stm.phase_validate_ns_p50", "ns"),
    ("stm.phase_publish_ns_p50", "ns"),
    ("recorder.recv_wait_s", "s"),
    ("recorder.merge_busy_s", "s"),
    ("wal.append_busy_s", "s"),
    ("wal.seal_busy_s", "s"),
    ("wal.seals", "count"),
    ("wal.seal_p90_ms", "ms"),
    ("wal.bytes_per_txn", "B/txn"),
    ("history.decode_busy_s", "s"),
    ("history.bytes_per_txn", "B/txn"),
    ("history.generate_s", "s"),
    ("audit.push_busy_s", "s"),
    ("audit.finish_busy_s", "s"),
    ("audit.windows", "count"),
    ("audit.search_states", "count"),
    ("audit.budget_slashed_windows", "count"),
    ("audit.evicted_attributions", "count"),
    ("audit.peak_closure_bytes", "B"),
    ("audit.beyond_planted_ratio", "ratio"),
    ("partition.route_busy_s", "s"),
    ("partition.drain_wait_s", "s"),
    ("partition.escalated_ratio", "ratio"),
    ("partition.queued_max", "count"),
    ("partition.lane_skew", "ratio"),
    ("sat.windows", "count"),
    ("sat.conflicts", "count"),
    ("sat.decided_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_txns_per_s_pct", "%"),
    ("trace.overhead_request_p50_pct", "%"),
    ("trace.untraced_txns_per_s", "txns/s"),
    ("trace.traced_txns_per_s", "txns/s"),
    ("trace.untraced_request_p50_ms", "ms"),
    ("trace.traced_request_p50_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn measure(workload: &str, seed: u64, seconds: f64, tracing: bool) -> (Report, Trace) {
    match workload {
        "stm-zipf" => stm_zipf::measure(seed, seconds, tracing),
        "serve-wal" => serve_wal::measure(seed, seconds, tracing),
        "ingest-mixed" => ingest::measure_mixed(seed, seconds, tracing),
        "ingest-hard" => ingest::measure_hard(seed, seconds, tracing),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Where runs leave their scratch files and span dumps: `.bench_run/` in
/// the working directory (the checkout root).
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// Untraced: one measurement.  Traced: half untraced, half traced with the
/// runtime's telemetry on; the per-layer figures come from the traced half
/// and the overhead is the difference between the halves.
fn run(workload: &str, seed: u64, seconds: f64, tracing: bool) -> Report {
    if !tracing {
        let (mut report, _) = measure(workload, seed, seconds, false);
        report.layers.clear();
        return report;
    }
    let (plain, _) = measure(workload, seed, seconds / 2.0, false);
    tm_telemetry::set_enabled(true);
    let (mut traced, trace) = measure(workload, seed, seconds / 2.0, true);
    tm_telemetry::set_enabled(false);
    let value = |r: &Report, name: &str| r.get(name).map_or(0.0, |m| m.value);
    for (metric, unit, sign, [overhead, untraced, traced_name]) in [
        (
            "txns_per_s",
            "txns/s",
            1.0,
            [
                "trace.overhead_txns_per_s_pct",
                "trace.untraced_txns_per_s",
                "trace.traced_txns_per_s",
            ],
        ),
        (
            "request_p50_ms",
            "ms",
            -1.0,
            [
                "trace.overhead_request_p50_pct",
                "trace.untraced_request_p50_ms",
                "trace.traced_request_p50_ms",
            ],
        ),
    ] {
        let (base, with) = (value(&plain, metric), value(&traced, metric));
        let pct = if base > 0.0 { sign * (base - with) / base * 100.0 } else { 0.0 };
        traced.layer(
            overhead,
            pct,
            "%",
            format!("tracing costs {pct:.2}% of the untraced {metric}"),
        );
        traced.layer(untraced, base, unit, "untraced half".into());
        traced.layer(traced_name, with, unit, "traced half".into());
    }
    traced.layer("trace.spans", trace.recorded() as f64, "count", "spans recorded".into());
    for (name, time) in trace.layers() {
        println!(
            "  span {name:<24} calls {:>10}  total {:>12.6} s  self {:>12.6} s",
            time.calls,
            time.total_ns as f64 / 1e9,
            time.self_ns as f64 / 1e9
        );
    }
    let dump = run_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(run_dir()).and_then(|()| trace.dump(&dump)) {
        Ok(()) => println!("  spans dumped to {}", dump.display()),
        Err(e) => eprintln!("warning: could not dump spans to {}: {e}", dump.display()),
    }
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.oracle_failures.extend(plain.oracle_failures);
    traced
}

/// Fill the per-layer metrics a workload bypasses with zeros.
fn complete_layers(report: &mut Report) {
    for (name, unit) in PER_LAYER {
        if report.get(name).is_none() {
            report.layers.push(Metric { name, value: 0.0, unit, note: "layer bypassed".into() });
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    workloads::register_workload_backends();
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![WORKLOADS.iter().copied().find(|w| *w == args.workload).expect("validated")]
    };
    let mut correct = true;
    for workload in selected {
        let mut report = run(workload, args.seed, args.seconds, args.trace);
        let keys: Vec<&str> = if args.trace {
            complete_layers(&mut report);
            PER_LAYER.iter().map(|(name, _)| *name).collect()
        } else {
            GATED.to_vec()
        };
        report.print(workload, &keys);
        correct &= report.oracle_failures.is_empty();
    }
    // Leave nothing behind but span dumps: the directory goes if empty.
    let _ = std::fs::remove_dir(run_dir());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output oracle failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_audit::JsonValue;

    fn names(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(JsonValue::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = tm_audit::parse_json(&text).expect("BENCHMARK.json parses");
        let gated: Vec<String> = names(&doc, "end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(gated, GATED);
        let layers = names(&doc, "per_layer");
        let ours: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(layers, ours);
        for workload in doc.get("workloads").and_then(JsonValue::as_arr).expect("workloads") {
            let name = workload.get("name").and_then(JsonValue::as_str).expect("name");
            assert!(WORKLOADS.contains(&name), "BENCHMARK.json runs unknown workload {name}");
        }
    }
}
