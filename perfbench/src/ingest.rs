//! The ingest workloads: one closed-loop client submits wire documents,
//! each decoded with `tm_history::Decoder` and audited to a verdict, the
//! way `audit --ingest` does.  Document `i` is generated from the seed and
//! encoded right before it is submitted — that is the document's set-up,
//! timed apart from its verdict — and documents are submitted until the time
//! is up.
//!
//! * `ingest-mixed` — `tm_history::generate` documents of 200–4000 txns
//!   over 3–4 sessions and 64 variables, a third of them carrying planted
//!   lost-update, write-skew, causal-cycle or long-fork anomalies aligned
//!   to the 2-way split (`shard_align: Some(2)`), audited by a
//!   `ShardedAuditor` (K=2, window 2048, SAT on).
//! * `ingest-hard` — `generate_hard` documents of 5×6 to 8×8 chains,
//!   audited by one `WindowedAuditor` (window 2048, 200k-state DFS budget,
//!   SAT on): the DFS exhausts its budget and the solver decides.

use crate::report::{secs, AuditTally, Report};
use crate::stats;
use crate::trace::{SpanLog, Trace};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tm_audit::{
    AuditHistory, AuditReport, AuditTxn, DecidedBy, Level, SatConfig, ShardConfig, ShardedAuditor,
    StreamReport, WindowConfig, WindowedAuditor,
};
use tm_history::generate::generate_hard;
use tm_history::{generate, Decoder, GenConfig, Generated, Planted};

/// Global-horizon audit window of both ingest workloads.
const WINDOW: usize = 2_048;
/// Partitions of the mixed workload's sharded auditor.
const SHARDS: usize = 2;
/// Document sizes of the mixed workload, used in turn.  An odd number of
/// equally frequent classes keeps the median document inside the middle
/// class; with an even number it would sit on the boundary between two
/// classes and jump between them from run to run.
const MIXED_SIZES: [usize; 5] = [200, 500, 1_000, 2_000, 4_000];
/// Mixed documents every run submits, whatever the time: failure counts
/// over these repeat exactly for a seed.
const MIXED_MIN_DOCS: usize = 32;
/// `(chains, chain_len)` shapes of the hard workload, used in turn (an odd
/// number, for the same reason as [`MIXED_SIZES`]).
const HARD_SHAPES: [(usize, usize); 5] = [(6, 7), (6, 8), (7, 7), (7, 8), (8, 8)];
/// Hard documents every run submits, whatever the time.
const HARD_MIN_DOCS: usize = 24;
/// DFS state budget of the hard workload (AUDIT6's).
const HARD_BUDGET: u64 = 200_000;

/// The anomaly kinds the mixed workload plants, one kind per planted
/// document.
#[derive(Clone, Copy, Debug)]
enum Plant {
    LostUpdate,
    WriteSkew,
    CausalCycle,
    LongFork,
}

/// The levels a planted kind may fail; every other level must pass.
fn may_fail(planted: &Planted) -> BTreeSet<Level> {
    use Level::*;
    let mut levels = BTreeSet::new();
    if planted.lost_updates > 0 {
        levels.extend([SnapshotIsolation, Serializable]);
    }
    if planted.write_skews > 0 {
        levels.insert(Serializable);
    }
    if planted.causal_cycles > 0 {
        levels.extend([Causal, Prefix, SnapshotIsolation, Serializable]);
    }
    if planted.long_forks > 0 {
        levels.extend([Prefix, SnapshotIsolation, Serializable]);
    }
    levels
}

/// One encoded document and its oracle.
struct Doc {
    wire: String,
    txns: usize,
    planted: Planted,
}

fn doc_seed(seed: u64, i: usize) -> u64 {
    // splitmix64 of (seed, i): distinct, well-mixed generator seeds.
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn encode(generated: Generated) -> Doc {
    Doc {
        txns: generated.history.txn_count(),
        wire: tm_history::encode(&generated.history),
        planted: generated.planted,
    }
}

/// Mixed document `i`.
fn mixed_doc(seed: u64, i: usize) -> Doc {
    let class = i % MIXED_SIZES.len();
    let size = MIXED_SIZES[class];
    // 3 and 4 sessions alternate over the size classes, so every document
    // of the middle class has the same shape.
    let sessions = 3 + class % 2;
    // Every third document carries plants; the kinds rotate so each kind
    // lands on several sizes.
    let plant = (i + i / MIXED_SIZES.len()).is_multiple_of(3).then(|| {
        [Plant::LostUpdate, Plant::WriteSkew, Plant::CausalCycle, Plant::LongFork][(i / 3) % 4]
    });
    let rate = (3_000 / size).max(1) as u32; // about three plants per document
    let mut config = GenConfig {
        sessions,
        vars: 64,
        txns_per_session: size / sessions,
        events_per_txn: 3,
        seed: doc_seed(seed, i),
        shard_align: Some(SHARDS),
        ..GenConfig::default()
    };
    match plant {
        Some(Plant::LostUpdate) => config.lost_update_per_mille = rate,
        Some(Plant::WriteSkew) => config.write_skew_per_mille = rate,
        Some(Plant::CausalCycle) => config.causal_cycle_per_mille = rate,
        Some(Plant::LongFork) => config.long_fork_per_mille = rate,
        None => {}
    }
    encode(generate(&config))
}

/// Hard document `i`.
fn hard_doc(seed: u64, i: usize) -> Doc {
    let (chains, len) = HARD_SHAPES[i % HARD_SHAPES.len()];
    encode(generate_hard(doc_seed(seed, i), chains, len))
}

/// Transactions of `history` in recording order, as `audit --ingest`
/// replays them.
fn in_recording_order(history: AuditHistory) -> Vec<(usize, AuditTxn)> {
    let mut all: Vec<(usize, AuditTxn)> = history
        .sessions
        .into_iter()
        .enumerate()
        .flat_map(|(s, session)| session.into_iter().map(move |t| (s, t)))
        .collect();
    all.sort_by_key(|(s, t)| (t.hint, *s));
    all
}

/// What auditing one document produced.
struct Audited {
    merged: AuditReport,
    /// Every auditor's stream report (partitions, escalation lane last).
    streams: Vec<StreamReport>,
    escalated: u64,
    queued_max: u64,
}

/// How one document's verdict compares with what was planted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Judged {
    /// Planted levels that did not fail.
    missed: u64,
    /// Levels left `Unknown`.
    unknown: u64,
    /// Levels that failed although no planted kind fails them.  The
    /// generator makes no promise about these levels, so they are reported
    /// but are not a wrong verdict.
    beyond: u64,
}

impl Judged {
    /// A wrong verdict: a planted level missed or a level left `Unknown`.
    fn failed(&self) -> bool {
        self.missed + self.unknown > 0
    }

    fn add(&mut self, other: Judged) {
        self.missed += other.missed;
        self.unknown += other.unknown;
        self.beyond += other.beyond;
    }
}

/// Which auditor the client feeds.
#[derive(Clone, Copy)]
enum Engine {
    Sharded,
    Windowed,
}

fn window_config(engine: Engine) -> WindowConfig {
    let mut window = WindowConfig::sized(WINDOW);
    window.sat = Some(SatConfig::default());
    if let Engine::Windowed = engine {
        window.budget = HARD_BUDGET;
    }
    window
}

fn audit(engine: Engine, history: AuditHistory, log: &mut SpanLog, req: u64) -> Audited {
    let (n_vars, initial) = (history.n_vars, history.initial);
    let txns = in_recording_order(history);
    match engine {
        Engine::Sharded => {
            let mut auditor = ShardedAuditor::new(
                n_vars,
                initial,
                ShardConfig::new(SHARDS, window_config(engine)),
            );
            let probe = auditor.lag_probe();
            let span = log.open("partition.route", req);
            for (session, txn) in txns {
                auditor.push(session, txn);
            }
            log.close(span);
            let span = log.open("partition.finish", req);
            let report = auditor.finish();
            log.close(span);
            Audited {
                merged: report.merged,
                escalated: report.escalated_txns,
                queued_max: probe.sample().iter().map(|l| l.queued_max).max().unwrap_or(0),
                streams: report.partitions.into_iter().map(|p| p.stream).collect(),
            }
        }
        Engine::Windowed => {
            let mut auditor = WindowedAuditor::new(n_vars, initial, window_config(engine));
            let span = log.open("audit.push", req);
            for (session, txn) in txns {
                auditor.push(session, txn);
            }
            log.close(span);
            let span = log.open("audit.finish", req);
            let report = auditor.finish();
            log.close(span);
            Audited {
                merged: report.merged.clone(),
                streams: vec![report],
                escalated: 0,
                queued_max: 0,
            }
        }
    }
}

/// Checks one verdict; an `Err` is a broken oracle that fails the command.
type Oracle = fn(&Doc, &AuditReport) -> Result<Judged, String>;

/// Mixed: a document with nothing planted is serializable by construction,
/// so any conviction there is false and breaks the command.  On planted
/// documents a missed planted level or an `Unknown` is a wrong verdict,
/// counted in `failed`.  A conviction at a level none of the planted kinds
/// fails is counted apart, in `beyond`: `Planted::expected_failures`
/// promises only the planted levels, and the levels it does not list
/// "carry no expectation either way".
fn mixed_oracle(doc: &Doc, report: &AuditReport) -> Result<Judged, String> {
    let may = may_fail(&doc.planted);
    let mut judged = Judged::default();
    for level in &report.levels {
        if level.outcome.failed() && doc.planted.total() == 0 {
            return Err(format!("false conviction at {} of a clean document", level.level));
        }
        judged.unknown += u64::from(!level.outcome.passed() && !level.outcome.failed());
        judged.beyond += u64::from(level.outcome.failed() && !may.contains(&level.level));
    }
    judged.missed =
        doc.planted.expected_failures().iter().filter(|&&l| !report.fails(l)).count() as u64;
    Ok(judged)
}

/// Hard: Read Committed, Read Atomic and Causal pass; Prefix, SI and SER
/// fail, decided by the solver.
fn hard_oracle(_: &Doc, report: &AuditReport) -> Result<Judged, String> {
    for level in &report.levels {
        let ok = match level.level {
            Level::ReadCommitted | Level::ReadAtomic | Level::Causal => level.outcome.passed(),
            Level::Prefix | Level::SnapshotIsolation | Level::Serializable => {
                level.outcome.failed() && level.decided_by == DecidedBy::Sat
            }
        };
        if !ok {
            return Err(format!(
                "{} {} (decided by {})",
                level.level,
                if level.outcome.failed() { "failed" } else { "did not fail" },
                level.decided_by.as_str()
            ));
        }
    }
    Ok(Judged::default())
}

/// Everything the client loop measured.
#[derive(Default)]
struct Run {
    /// Per-document generate-and-encode time (s).
    setup_s: Vec<f64>,
    wire_bytes: u64,
    txns: u64,
    failed: u64,
    /// Verdicts compared with the plants, over every document and over the
    /// first `min_docs` documents (these repeat exactly for a seed).
    judged: Judged,
    judged_min: Judged,
    /// Documents with a conviction beyond their planted kinds.
    beyond_docs: u64,
    wall_s: f64,
    doc_ms: Vec<f64>,
    /// Per-document audit rate (txns/s).
    doc_rate: Vec<f64>,
    window_ms: Vec<f64>,
    escalated: u64,
    queued_max: u64,
    lane_busy: Vec<f64>,
    tally: AuditTally,
    oracle: Vec<String>,
    trace: Trace,
}

/// Generate and submit documents in order until `seconds` have passed,
/// but at least `min_docs` of them.
fn drive(
    make_doc: fn(u64, usize) -> Doc,
    seed: u64,
    engine: Engine,
    oracle: Oracle,
    min_docs: usize,
    seconds: f64,
    tracing: bool,
) -> Run {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut log = SpanLog::new(tracing, epoch);
    let mut run = Run::default();
    let mut i = 0usize;
    while i < min_docs || Instant::now() < deadline {
        let req = i as u64;
        let t = Instant::now();
        let span = log.open("history.generate", req);
        let doc = &make_doc(seed, i);
        log.close(span);
        run.setup_s.push(secs(t));
        run.wire_bytes += doc.wire.len() as u64;
        let t0 = Instant::now();
        let root = log.open("ingest.document", req);
        let span = log.open("history.decode", req);
        let decoded = Decoder::new(doc.wire.as_bytes()).next_history();
        log.close(span);
        let verdict = match decoded {
            Ok(Some(history)) => Ok(audit(engine, history, &mut log, req)),
            other => Err(format!("did not decode: {other:?}")),
        };
        log.close(root);
        let seconds = secs(t0);
        run.doc_ms.push(seconds * 1e3);
        run.doc_rate.push(doc.txns as f64 / seconds);
        let judged = verdict.and_then(|audited| {
            if run.lane_busy.len() < audited.streams.len() {
                run.lane_busy.resize(audited.streams.len(), 0.0);
            }
            for (lane, stream) in audited.streams.iter().enumerate() {
                for w in &stream.windows {
                    run.window_ms.push(w.audit_elapsed.as_secs_f64() * 1e3);
                    run.lane_busy[lane] += w.audit_elapsed.as_secs_f64();
                }
                run.tally.add(stream);
            }
            run.escalated += audited.escalated;
            run.queued_max = run.queued_max.max(audited.queued_max);
            oracle(doc, &audited.merged)
        });
        match judged {
            Ok(judged) => {
                run.failed += u64::from(judged.failed());
                run.beyond_docs += u64::from(judged.beyond > 0);
                run.judged.add(judged);
                if i < min_docs {
                    run.judged_min.add(judged);
                }
            }
            Err(broken) => {
                run.failed += 1;
                run.oracle.push(format!("document {i} ({:?}): {broken}", doc.planted));
            }
        }
        run.txns += doc.txns as u64;
        i += 1;
    }
    run.wall_s = secs(epoch);
    run.trace.absorb("client", log);
    run
}

fn measure(
    make_doc: fn(u64, usize) -> Doc,
    engine: Engine,
    oracle: Oracle,
    min_docs: usize,
    seed: u64,
    seconds: f64,
    tracing: bool,
) -> (Report, Trace) {
    let mut run = drive(make_doc, seed, engine, oracle, min_docs, seconds, tracing);
    let docs = run.doc_ms.len() as u64;
    let mut report = Report {
        attempted: docs,
        failed: run.failed,
        oracle_failures: std::mem::take(&mut run.oracle),
        ..Report::default()
    };

    let setup = stats::median(&run.setup_s).unwrap_or(0.0);
    let busy_s: f64 = run.doc_ms.iter().sum::<f64>() / 1e3;
    let rate = stats::median(&run.doc_rate).unwrap_or(0.0);
    let d50 = stats::percentile(&run.doc_ms, 0.5).unwrap_or(0.0);
    report.metric(
        "setup_s",
        setup,
        "s",
        format!("median of {docs} per-document generate + encode times"),
    );
    report.metric(
        "audited_txns_per_s",
        run.txns as f64 / busy_s,
        "txns/s",
        format!("{} txns / summed submit-to-verdict time of {docs} documents", run.txns),
    );
    if let Engine::Sharded = engine {
        let n = run.window_ms.len();
        for (name, q) in [("window_verdict_p50_ms", 0.5), ("window_verdict_p90_ms", 0.9)] {
            if let Some(v) = stats::percentile(&run.window_ms, q) {
                report.metric(name, v, "ms", format!("n={n} lane windows (auditor-timed)"));
            }
        }
    }
    report.metric("docs_per_s", docs as f64 / run.wall_s, "docs/s", format!("{docs} documents"));
    report.metric("doc_verdict_p50_ms", d50, "ms", format!("n={docs} documents"));
    if let Some(d90) = stats::percentile(&run.doc_ms, 0.9) {
        report.metric("doc_verdict_p90_ms", d90, "ms", format!("n={docs} documents"));
    }
    let (all, first) = (run.judged, run.judged_min);
    report.metric(
        "failed_ratio",
        stats::failed_ratio(report.failed, report.attempted),
        "ratio",
        format!(
            "{} failed / {} attempted: {} missed planted levels, {} unknown levels \
             (first {min_docs} documents: {}, {})",
            report.failed, report.attempted, all.missed, all.unknown, first.missed, first.unknown
        ),
    );
    report.metric(
        "txns_per_s",
        rate,
        "txns/s",
        format!("median over {docs} documents of txns / verdict time"),
    );
    report.metric("request_p50_ms", d50, "ms", "= doc_verdict_p50_ms".into());
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb(),
        "MB",
        "peak resident set of the process".into(),
    );

    let trace = run.trace;
    let busy = |name: &str| trace.layer(name).total_ns as f64 / 1e9;
    let decode = trace.layer("history.decode");
    report.layer(
        "history.decode_busy_s",
        busy("history.decode"),
        "s",
        format!("{} decodes", decode.calls),
    );
    report.layer(
        "history.bytes_per_txn",
        run.wire_bytes as f64 / run.txns.max(1) as f64,
        "B/txn",
        format!("{} B / {} txns", run.wire_bytes, run.txns),
    );
    report.layer(
        "history.generate_s",
        busy("history.generate"),
        "s",
        format!("summed over {docs} documents (median = setup_s)"),
    );
    report.layer("audit.push_busy_s", busy("audit.push"), "s", String::new());
    report.layer("audit.finish_busy_s", busy("audit.finish"), "s", String::new());
    report.layer("partition.route_busy_s", busy("partition.route"), "s", String::new());
    report.layer("partition.drain_wait_s", busy("partition.finish"), "s", String::new());
    if let Engine::Sharded = engine {
        report.layer(
            "partition.escalated_ratio",
            run.escalated as f64 / run.txns.max(1) as f64,
            "ratio",
            format!("{} straddlers / {} txns", run.escalated, run.txns),
        );
        report.layer(
            "partition.queued_max",
            run.queued_max as f64,
            "count",
            "max over lanes".into(),
        );
        report.layer(
            "partition.lane_skew",
            stats::skew(&run.lane_busy),
            "ratio",
            format!("busiest / mean lane window-audit time over {} lanes", run.lane_busy.len()),
        );
    }
    if let Engine::Sharded = engine {
        report.layer(
            "audit.beyond_planted_ratio",
            run.beyond_docs as f64 / docs.max(1) as f64,
            "ratio",
            format!(
                "{} of {docs} documents convicted beyond their planted kinds ({} levels; \
                 first {min_docs} documents: {} levels)",
                run.beyond_docs, all.beyond, first.beyond
            ),
        );
    }
    run.tally.report(&mut report);
    (report, trace)
}

/// One measured run of `ingest-mixed`.
pub fn measure_mixed(seed: u64, seconds: f64, tracing: bool) -> (Report, Trace) {
    measure(mixed_doc, Engine::Sharded, mixed_oracle, MIXED_MIN_DOCS, seed, seconds, tracing)
}

/// One measured run of `ingest-hard`.
pub fn measure_hard(seed: u64, seconds: f64, tracing: bool) -> (Report, Trace) {
    measure(hard_doc, Engine::Windowed, hard_oracle, HARD_MIN_DOCS, seed, seconds, tracing)
}
