//! `serve-wal`: the `--serve --wal` round, rebuilt from the public pieces
//! `workloads::run_scenario_audited_walled` uses.  Each round runs
//! `registers` on `tl2` from two closed-loop clients through a
//! `StreamingRecorder`; one auditor thread drains it through a
//! `StreamMerger` into a write-ahead tee that appends every record to a
//! `WalSink` before the `WindowedAuditor` (window 2048) sees it.
//!
//! The two clients are pinned one to each CPU and released together, and
//! the auditor starts draining once both are done (the recorder's queue
//! holds a whole round, so no client waits for it).  How finely the
//! clients' commits interleave sets how much cross-session order the audit
//! has to check; left to the scheduler, that interleaving — and with it a
//! round's audit cost, by up to 2× — would follow whichever thread happened
//! to get a CPU first.
//!
//! Flush policy: the log is fsync-sealed at every window close (segment
//! fsync, seal sidecar and frontier snapshot each published with
//! temp/fsync/rename/dir-fsync) and once more when the round finishes —
//! the same policy as the serve endpoint.  After the verdict,
//! `recover_round` must verify every seal and return every appended record.

use crate::report::{secs, AuditTally, Report};
use crate::stats::{self, Histogram};
use crate::stm_zipf::StmTally;
use crate::trace::{SpanLog, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use stm_runtime::policy::ImmediateRetry;
use stm_runtime::registry::TL2_BLOCKING;
use stm_runtime::wal::{recover_round, WalSink};
use stm_runtime::{recorder, Stm, StreamingRecorder};
use tm_audit::{AuditTxn, Level, StreamMerger, TxnSink, WindowConfig, WindowedAuditor};
use workloads::recovery::frontier_file;
use workloads::{RegistersScenario, Scenario, ScenarioConfig};

/// Closed-loop client threads (= audit sessions).
const CLIENTS: usize = 2;
/// Register pool.
const VARS: usize = 64;
/// Transactions each client commits per round.
const TXNS_PER_CLIENT: usize = 4_096;
/// Audit window.
const WINDOW: usize = 2_048;
/// Rounds every run completes, whatever the time: 100 seals, enough for a
/// p90 with 10 beyond it.
const MIN_ROUNDS: usize = 20;

/// Pin the calling thread to the `nth` CPU it may run on, if there is one.
/// A round's clients commit for only a few milliseconds; left to the
/// scheduler, the second client usually starts on the first one's CPU and
/// the two run one after the other.
#[cfg(target_os = "linux")]
fn pin_to_nth_cpu(nth: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16]; // a 1024-bit cpu_set_t
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: both calls read or write exactly `size` bytes of the array,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).nth(nth) else {
        return;
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.  Pinning is best effort; on failure the thread
    // stays where it was.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_nth_cpu(_: usize) {}

/// The write-ahead tee: log first, audit second, seal at window close —
/// `workloads::WalTee`'s order, with every layer call timed.
struct TimedTee {
    wal: WalSink,
    auditor: WindowedAuditor,
    seqs: Vec<u64>,
    sealed_windows: usize,
    log: SpanLog,
    round: u64,
    /// Window close → verdict, per closed window (ms).
    window_ms: Vec<f64>,
    /// Seal durations (ms), the final tail seal included.
    seal_ms: Vec<f64>,
    io_error: Option<io::Error>,
}

impl TimedTee {
    fn seal(&mut self) {
        let t = Instant::now();
        let span = self.log.open("wal.seal", self.round);
        let snap = self.log.open("audit.snapshot", self.round);
        let snapshot = self.auditor.boundary_snapshot();
        self.log.close(snap);
        let result = self.wal.seal_segment().and_then(|sealed| {
            self.wal.write_blob(&frontier_file(sealed), snapshot.to_json().as_bytes())
        });
        self.log.close(span);
        self.seal_ms.push(secs(t) * 1e3);
        if let Err(e) = result {
            self.io_error.get_or_insert(e);
        }
    }
}

impl TxnSink for TimedTee {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        let seq = self.seqs[session];
        self.seqs[session] += 1;
        let span = self.log.open("wal.append", self.round);
        if let Err(e) = self.wal.append_txn(session, seq, txn.hint, &txn.reads, &txn.writes) {
            self.io_error.get_or_insert(e);
        }
        self.log.close(span);
        let t = Instant::now();
        let span = self.log.open("audit.push", self.round);
        self.auditor.push(session, txn);
        self.log.close(span);
        let closed = self.auditor.windows_closed();
        if closed != self.sealed_windows {
            self.window_ms.push(secs(t) * 1e3);
            self.sealed_windows = closed;
            self.seal();
        }
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    txns: u64,
    gave_up: u64,
    /// Round start (clients released) → merged verdict.
    audited_s: f64,
    /// Round start → last client done.
    clients_s: f64,
    latencies: Histogram,
    window_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    wal_bytes: u64,
    failures: Vec<String>,
}

/// What every round of a run adds to.
struct Totals {
    epoch: Instant,
    tracing: bool,
    trace: Trace,
    audit: AuditTally,
    stm: StmTally,
}

fn round(index: u64, seed: u64, dir: &Path, totals: &mut Totals) -> Round {
    let (epoch, tracing) = (totals.epoch, totals.tracing);
    let config = ScenarioConfig {
        backend: TL2_BLOCKING,
        threads: CLIENTS,
        txns_per_thread: TXNS_PER_CLIENT,
        vars: VARS,
        seed: seed.wrapping_add(index),
        policy: Arc::new(ImmediateRetry),
    };
    let setup = Instant::now();
    let recorder_arc = Arc::new(StreamingRecorder::new(CLIENTS, 256));
    let consumer = recorder_arc.consumer();
    let mut stm = Stm::with_recorder(config.backend, Arc::clone(&recorder_arc) as _)
        .with_policy(Arc::clone(&config.policy));
    let state = RegistersScenario.build(&stm, &config);
    let vars = state.words();
    let wal = WalSink::create(dir, CLIENTS, vars, 0).expect("creating the round's WAL directory");
    let auditor = WindowedAuditor::new(vars, 0, WindowConfig::sized(WINDOW));
    let mut tee = TimedTee {
        wal,
        auditor,
        seqs: vec![0; CLIENTS],
        sealed_windows: 0,
        log: SpanLog::new(tracing, epoch),
        round: index,
        window_ms: Vec::new(),
        seal_ms: Vec::new(),
        io_error: None,
    };
    let setup_s = secs(setup);

    let (arrived, done) = (AtomicUsize::new(0), Barrier::new(CLIENTS + 1));
    let start = Instant::now();
    let (clients, clients_s) = std::thread::scope(|scope| {
        let tee = &mut tee;
        let done = &done;
        let auditor = scope.spawn(move || {
            done.wait();
            let mut merger = StreamMerger::new(CLIENTS);
            loop {
                let span = tee.log.open("recorder.recv", index);
                let batch = consumer.recv();
                tee.log.close(span);
                let Some(batch) = batch else { break };
                let span = tee.log.open("recorder.merge", index);
                merger.push_batch(&batch, &mut *tee);
                tee.log.close(span);
            }
            let span = tee.log.open("recorder.merge", index);
            merger.finish(&mut *tee);
            tee.log.close(span);
        });
        let (state, stm, arrived) = (state.as_ref(), &stm, &arrived);
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                scope.spawn(move || {
                    pin_to_nth_cpu(thread);
                    recorder::set_session(thread);
                    let mut rng = StdRng::seed_from_u64(config.seed ^ ((thread as u64) << 32));
                    let mut hist = Histogram::default();
                    let mut log = SpanLog::new(tracing, epoch);
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < CLIENTS {
                        std::hint::spin_loop();
                    }
                    for seq in 0..TXNS_PER_CLIENT as u64 {
                        let t0 = Instant::now();
                        state.run_txn(stm, thread, seq, &mut rng);
                        let t1 = Instant::now();
                        hist.record((t1 - t0).as_nanos() as u64);
                        log.record(
                            "stm.run",
                            (index << 32) | ((thread as u64) << 24) | seq,
                            t0,
                            t1,
                        );
                    }
                    recorder::clear_session();
                    done.wait();
                    (hist, log)
                })
            })
            .collect();
        let clients: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let clients_s = secs(start);
        recorder_arc.finish();
        auditor.join().expect("auditor thread panicked");
        (clients, clients_s)
    });

    // Close the round: seal the tail and mark the round complete, then
    // take the merged verdict.
    let appended: u64 = tee.seqs.iter().sum();
    let TimedTee { wal, auditor, mut log, mut window_ms, mut seal_ms, io_error, .. } = tee;
    let t = Instant::now();
    let span = log.open("wal.seal", index);
    let finished = wal.finish();
    log.close(span);
    seal_ms.push(secs(t) * 1e3);
    let before = auditor.windows_closed();
    let t = Instant::now();
    let span = log.open("audit.finish", index);
    let stream = auditor.finish();
    log.close(span);
    if stream.windows.len() > before {
        window_ms.push(secs(t) * 1e3);
    }
    let audited_s = secs(start);
    totals.audit.add(&stream);
    totals.trace.absorb(format!("auditor-{index}"), log);

    let mut failures = Vec::new();
    if let Some(e) = io_error.or(finished.err()) {
        failures.push(format!("round {index}: WAL I/O error: {e}"));
    }
    stm.take_recorder();
    totals.stm.add(&stm);
    let mut latencies = Histogram::default();
    for (thread, (hist, log)) in clients.into_iter().enumerate() {
        latencies.merge(&hist);
        totals.trace.absorb(format!("client-{index}-{thread}"), log);
    }
    let stats = stm.stats();
    let gave_up = stats.attempts_recorded().saturating_sub(stats.commits());
    let check = state.verify(&stm);
    if check.invariant != Some(true) {
        failures.push(format!("round {index}: registers self-check: {}", check.detail));
    }
    for level in Level::ALL {
        if !stream.passes(level) {
            failures.push(format!("round {index}: {level} did not pass: {}", stream.summary()));
        }
    }
    let txns = latencies.count();
    if appended != txns - gave_up {
        failures.push(format!(
            "round {index}: appended {appended} of {} committed txns",
            txns - gave_up
        ));
    }
    let wal_bytes = match verify_log(dir, appended) {
        Ok(bytes) => bytes,
        Err(e) => {
            failures.push(format!("round {index}: {e}"));
            0
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    Round {
        setup_s,
        txns,
        gave_up,
        audited_s,
        clients_s,
        latencies,
        window_ms,
        seal_ms,
        wal_bytes,
        failures,
    }
}

/// `recover_round` must verify every seal, find the round complete, and
/// return exactly the `appended` records; returns the log's size.
fn verify_log(dir: &Path, appended: u64) -> Result<u64, String> {
    let round = recover_round(dir).map_err(|e| format!("recover_round: {e}"))?;
    if !round.complete || round.segments.iter().any(|s| !s.sealed) {
        return Err(format!(
            "recover_round: complete={} sealed {}/{} segments",
            round.complete,
            round.segments.iter().filter(|s| s.sealed).count(),
            round.segments.len()
        ));
    }
    let history = tm_history::decode(&round.text).map_err(|e| format!("recovered log: {e}"))?;
    if history.txn_count() as u64 != appended {
        return Err(format!("recovered {} txns, {appended} were appended", history.txn_count()));
    }
    Ok(round.segments.iter().map(|s| s.kept_bytes).sum())
}

/// One measured run of `serve-wal`: back-to-back rounds until `seconds`
/// have passed (the round in flight at the deadline completes).
pub fn measure(seed: u64, seconds: f64, tracing: bool) -> (Report, Trace) {
    let base = crate::run_dir().join(format!("wal-{}", std::process::id()));
    let mut totals = Totals {
        epoch: Instant::now(),
        tracing,
        trace: Trace::default(),
        audit: AuditTally::default(),
        stm: StmTally::default(),
    };
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || secs(totals.epoch) < seconds {
        let index = rounds.len() as u64;
        let dir = base.join(workloads::round_dir_name(index));
        rounds.push(round(index, seed, &dir, &mut totals));
    }
    let _ = std::fs::remove_dir_all(&base);

    let mut report = Report::default();
    for r in &rounds {
        report.attempted += r.txns;
        report.failed += r.gave_up;
        if !r.failures.is_empty() {
            report.failed += r.txns;
        }
        for failure in &r.failures {
            report.oracle(failure.clone());
        }
    }
    let n = rounds.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup = per_round(&|r| r.setup_s);
    let commits = per_round(&|r| r.txns as f64 / r.clients_s);
    let audited = per_round(&|r| r.txns as f64 / r.audited_s);
    let p50 = per_round(&|r| r.latencies.percentile(0.5).unwrap_or(0.0) / 1e3);
    let p99 = per_round(&|r| r.latencies.percentile(0.99).unwrap_or(0.0) / 1e3);
    let windows: Vec<f64> = rounds.iter().flat_map(|r| r.window_ms.iter().copied()).collect();
    let w50 = stats::percentile(&windows, 0.5).unwrap_or(0.0);
    let w90 = stats::percentile(&windows, 0.9).unwrap_or(0.0);
    let txns_per_round = rounds[0].txns;
    report.metric("setup_s", setup, "s", format!("median of {n} round set-ups"));
    report.metric(
        "commits_per_s",
        commits,
        "txns/s",
        format!("median of {n} rounds, clients only"),
    );
    report.metric(
        "txn_p50_us",
        p50,
        "us",
        format!("median of {n} rounds of {txns_per_round} txns"),
    );
    report.metric(
        "txn_p99_us",
        p99,
        "us",
        format!("median of {n} rounds of {txns_per_round} txns"),
    );
    report.metric(
        "audited_txns_per_s",
        audited,
        "txns/s",
        format!("median of {n} rounds, round start to verdict"),
    );
    report.metric("window_verdict_p50_ms", w50, "ms", format!("n={} windows", windows.len()));
    report.metric("window_verdict_p90_ms", w90, "ms", format!("n={} windows", windows.len()));
    report.metric(
        "failed_ratio",
        stats::failed_ratio(report.failed, report.attempted),
        "ratio",
        format!("{} failed / {} attempted", report.failed, report.attempted),
    );
    report.metric("txns_per_s", audited, "txns/s", "= audited_txns_per_s".into());
    report.metric("request_p50_ms", p50 / 1e3, "ms", "= txn_p50_us".into());
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb(),
        "MB",
        "peak resident set of the process".into(),
    );

    let Totals { trace, audit, stm, .. } = totals;
    let busy = |name: &str| trace.layer(name).total_ns as f64 / 1e9;
    stm.report(&mut report, &trace);
    report.layer(
        "recorder.recv_wait_s",
        busy("recorder.recv"),
        "s",
        "auditor blocked in recv".into(),
    );
    report.layer(
        "recorder.merge_busy_s",
        trace.layer("recorder.merge").self_ns as f64 / 1e9,
        "s",
        "self time of StreamMerger::push_batch/finish".into(),
    );
    let logged: u64 = rounds.iter().map(|r| r.txns).sum();
    let seals: Vec<f64> = rounds.iter().flat_map(|r| r.seal_ms.iter().copied()).collect();
    report.layer("wal.append_busy_s", busy("wal.append"), "s", format!("{logged} appends"));
    report.layer(
        "wal.seal_busy_s",
        trace.layer("wal.seal").self_ns as f64 / 1e9,
        "s",
        "seal self time (frontier snapshot excluded)".into(),
    );
    report.layer("wal.seals", seals.len() as f64, "count", format!("{n} rounds"));
    report.layer(
        "wal.seal_p90_ms",
        stats::percentile(&seals, 0.9).unwrap_or(0.0),
        "ms",
        format!("n={} seals", seals.len()),
    );
    let bytes: u64 = rounds.iter().map(|r| r.wal_bytes).sum();
    report.layer(
        "wal.bytes_per_txn",
        bytes as f64 / logged.max(1) as f64,
        "B/txn",
        format!("{bytes} B / {logged} txns"),
    );
    report.layer(
        "audit.push_busy_s",
        busy("audit.push"),
        "s",
        format!("{} pushes", trace.layer("audit.push").calls),
    );
    report.layer("audit.finish_busy_s", busy("audit.finish"), "s", format!("{n} finishes"));
    audit.report(&mut report);
    (report, trace)
}
