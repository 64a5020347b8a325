//! Watch the streaming auditor convict a weak backend *mid-run*.
//!
//! Run with `cargo run --release --example audit_stream`.  Two demonstrations:
//!
//! 1. **PramLocal convicted mid-run** — the "give up Consistency" corner of
//!    the P/C/L triangle runs 4 threads × 25,000 transactions (10⁵ commits)
//!    while a concurrent [`tm_audit::WindowedAuditor`] audits rolling
//!    2,048-transaction windows.  The first definite violation (a lost
//!    update) lands after a few hundred transactions — long before the run
//!    ends — and the merged report pins the window and the transaction pair.
//! 2. **Tl2Blocking attested** — the same pipeline on a consistent backend
//!    passes every level in every window, with closure memory bounded by the
//!    window (the whole-run dense closure at 10⁵ transactions would need
//!    ~1.25 GB; the streaming pipeline stays in kilobytes).
//!
//! This is the scaling story the ROADMAP asks for: whole-run batch auditing
//! rebuilds an O(V²) closure and cannot reach millions of transactions;
//! windowed streaming holds memory at the window and keeps verdict latency
//! per window in milliseconds.

use stm_runtime::registry::{PRAM_LOCAL, TL2_BLOCKING};
use stm_runtime::BackendId;
use tm_audit::digraph::Reach;
use tm_audit::{Level, StreamReport, WindowConfig, WindowedAuditor};
use workloads::{run_scenario_streamed, RegistersScenario, ScenarioConfig, StreamedRunReport};

/// 4 threads × 25,000 register transactions on `backend`, audited in
/// rolling `window`s while they run.
fn stream(backend: BackendId, window: WindowConfig) -> StreamedRunReport<StreamReport> {
    let config = ScenarioConfig {
        threads: 4,
        txns_per_thread: 25_000,
        vars: 64,
        seed: 2_024,
        ..ScenarioConfig::new(backend)
    };
    run_scenario_streamed(&RegistersScenario, &config, false, |vars| {
        Ok(WindowedAuditor::new(vars, 0, window))
    })
    .expect("registers is recordable")
}

fn main() {
    let window = WindowConfig::sized(2_048);
    println!(
        "=== streaming audit: rolling {}-txn windows (overlap {}) ===\n",
        window.size, window.overlap
    );

    // 1. The wait-free no-synchronization backend, convicted mid-run.
    let report = stream(PRAM_LOCAL, window);
    println!("backend: {PRAM_LOCAL} ({} txns)", report.audit.total_txns);
    println!(
        "  workload: {:.3?} ({:.0} commits/s); merged verdict {:.3?} after run end",
        report.run.elapsed, report.run.throughput, report.drain_elapsed
    );
    let conviction = report.audit.first_conviction.as_ref().expect("PramLocal must be convicted");
    println!(
        "  convicted mid-run: {} refuted in window {} after {} of {} txns",
        conviction.level.name(),
        conviction.window,
        conviction.txns_seen,
        report.audit.total_txns
    );
    println!("    evidence: {}", conviction.violation);
    println!("  verdict: {}\n", report.audit.summary());
    // On a many-core box this lands in the first few windows; even when CI
    // serializes the worker threads it must land strictly mid-stream.
    assert!(
        conviction.txns_seen < report.audit.total_txns,
        "conviction after {} txns must land mid-stream",
        conviction.txns_seen
    );
    assert!(report.audit.fails(Level::SnapshotIsolation));
    assert!(report.audit.fails(Level::Serializable));
    assert!(report.audit.passes(Level::Causal), "never synchronizing is vacuously causal");

    // 2. The consistent blocking backend, attested window by window.
    let report = stream(TL2_BLOCKING, window);
    println!("backend: {TL2_BLOCKING} ({} txns)", report.audit.total_txns);
    println!(
        "  workload: {:.3?} ({:.0} commits/s); merged verdict {:.3?} after run end",
        report.run.elapsed, report.run.throughput, report.drain_elapsed
    );
    println!(
        "  {} windows, verdict latency mean {:.3?} / max {:.3?}",
        report.audit.windows.len(),
        report.audit.verdict_latency_mean(),
        report.audit.verdict_latency_max()
    );
    let dense = Reach::dense_equivalent_bytes(report.audit.total_txns as usize);
    println!(
        "  peak closure memory: {} KiB (dense whole-run closure would be {} MiB)",
        report.audit.peak_closure_bytes / 1024,
        dense / (1 << 20)
    );
    println!("  verdict: {}\n", report.audit.summary());
    for level in Level::ALL {
        assert!(!report.audit.fails(level), "{TL2_BLOCKING}: {level} must not fail");
    }
    assert!(report.audit.first_conviction.is_none());
    assert!(
        report.audit.peak_closure_bytes < dense / 100,
        "windowed closure ({}) must be orders of magnitude under dense ({dense})",
        report.audit.peak_closure_bytes
    );

    println!("The PCL trade-off, observed live: the backend that gave up consistency");
    println!("is convicted while its run is still going — with a named witness pair —");
    println!("and the consistent backend is attested window by window in bounded memory.");
}
