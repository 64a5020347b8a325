//! `stm-zipf`: the commit path alone.  Two closed-loop clients run
//! `kv-zipf` (θ 0.99, 90 % reads) on `tl2` over 2^20 keys with immediate
//! retry — no recorder, auditor or log.  The key pool outgrows the L2
//! cache, so `VarTable` lookups miss while the Zipf head contends.

use crate::report::{secs, Report};
use crate::stats::{self, Histogram};
use crate::trace::{SpanLog, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_runtime::policy::ImmediateRetry;
use stm_runtime::registry::TL2_BLOCKING;
use stm_runtime::{AbortReason, Stm};
use workloads::{KvZipfScenario, Scenario, ScenarioConfig, ScenarioState};

/// Keys in the store.
pub const KEYS: usize = 1 << 20;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// Per-slice transaction latencies of every client, merged.
struct Slices {
    hists: Vec<Histogram>,
    length: Duration,
}

impl Slices {
    fn new(seconds: f64) -> Self {
        let n = seconds.round().max(1.0) as usize;
        Slices {
            hists: vec![Histogram::default(); n],
            length: Duration::from_secs_f64(seconds / n as f64),
        }
    }

    fn slice_of(&self, since_start: Duration) -> usize {
        ((since_start.as_nanos() / self.length.as_nanos().max(1)) as usize)
            .min(self.hists.len() - 1)
    }

    fn merge(&mut self, other: &Slices) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Median over slices of completed transactions per second.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> =
            self.hists.iter().map(|h| h.count() as f64 / self.length.as_secs_f64()).collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Median over slices of the per-slice `q`-latency, in microseconds,
    /// with the smallest per-slice sample count.
    fn latency_us(&self, q: f64) -> (f64, u64) {
        let values: Vec<f64> =
            self.hists.iter().filter_map(|h| h.percentile(q)).map(|ns| ns / 1e3).collect();
        let min_n = self.hists.iter().map(Histogram::count).min().unwrap_or(0);
        (stats::median(&values).unwrap_or(0.0), min_n)
    }

    /// Every sample.
    fn total(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

/// Drive `state` from [`CLIENTS`] closed-loop threads for `seconds`,
/// timing every transaction into one-second slices.
fn drive(
    stm: &Stm,
    state: &dyn ScenarioState,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    tracing: bool,
) -> Slices {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut slices = Slices::new(seconds);
    let results: Vec<(Slices, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((thread as u64) << 32));
                    let mut mine = Slices::new(seconds);
                    let mut log = SpanLog::new(tracing, epoch);
                    let mut seq = 0u64;
                    loop {
                        let t0 = Instant::now();
                        state.run_txn(stm, thread, seq, &mut rng);
                        let t1 = Instant::now();
                        let slice = mine.slice_of(t1 - epoch);
                        mine.hists[slice].record((t1 - t0).as_nanos() as u64);
                        log.record("stm.run", ((thread as u64) << 40) | seq, t0, t1);
                        seq += 1;
                        if t1 >= deadline {
                            return (mine, log);
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for (thread, (mine, log)) in results.into_iter().enumerate() {
        slices.merge(&mine);
        trace.absorb(format!("client-{thread}"), log);
    }
    slices
}

/// Commit and abort counts of the STM instances a run used, plus the
/// runtime's phase histograms (telemetry on, i.e. the traced half only).
#[derive(Debug, Default)]
pub struct StmTally {
    commits: u64,
    aborts: u64,
    read_validation: u64,
    lock_conflict: u64,
}

impl StmTally {
    /// Count `stm`'s statistics.
    pub fn add(&mut self, stm: &Stm) {
        let stats = stm.stats();
        self.commits += stats.commits();
        self.aborts += stats.aborts();
        self.read_validation += stats.aborts_by(AbortReason::ReadValidation);
        self.lock_conflict += stats.aborts_by(AbortReason::LockConflict);
    }

    /// Emit the `stm.*` layer metrics; `stm.run` spans give the busy time.
    pub fn report(&self, report: &mut Report, trace: &Trace) {
        let run = trace.layer("stm.run");
        let busy = run.total_ns as f64 / 1e9;
        report.layer(
            "stm.run_busy_s",
            busy,
            "s",
            format!("summed over {} client calls", run.calls),
        );
        let attempts = self.commits + self.aborts;
        report.layer(
            "stm.commit_ratio",
            self.commits as f64 / attempts.max(1) as f64,
            "ratio",
            format!("{} commits / {attempts} attempts", self.commits),
        );
        report.layer(
            "stm.aborts.read_validation",
            self.read_validation as f64,
            "count",
            String::new(),
        );
        report.layer("stm.aborts.lock_conflict", self.lock_conflict as f64, "count", String::new());
        for (name, phase) in [
            ("stm.phase_read_ns_p50", "read"),
            ("stm.phase_validate_ns_p50", "validate"),
            ("stm.phase_publish_ns_p50", "publish"),
        ] {
            let labels = [("backend", TL2_BLOCKING.name()), ("phase", phase)];
            let buckets = tm_telemetry::global().histogram("stm_phase_ns", &labels, "ns").buckets();
            let n: u64 = buckets.iter().sum();
            report.layer(
                name,
                stats::log2_percentile(&buckets, 0.5).unwrap_or(0.0),
                "ns",
                format!("n={n} sampled attempts, interpolated in log2 buckets"),
            );
        }
    }
}

/// Run `setup` at least three times and until half a second has gone into
/// it (at most 16 times), timing each; returns every timing and the last
/// product.  Earlier products are dropped outside the timed region.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut timings = Vec::new();
    let spent = Instant::now();
    loop {
        let t = Instant::now();
        let product = setup();
        timings.push(secs(t));
        if timings.len() >= 16 || (timings.len() >= 3 && secs(spent) >= 0.5) {
            return (timings, product);
        }
        drop(product);
    }
}

/// One measured run of `stm-zipf`.
pub fn measure(seed: u64, seconds: f64, tracing: bool) -> (Report, Trace) {
    let scenario = KvZipfScenario::default();
    let config = ScenarioConfig {
        backend: TL2_BLOCKING,
        threads: CLIENTS,
        txns_per_thread: 0,
        vars: KEYS,
        seed,
        policy: Arc::new(ImmediateRetry),
    };
    let (setups, (stm, state)) = repeated_setup(|| {
        let stm = Stm::new(config.backend).with_policy(Arc::clone(&config.policy));
        let state = scenario.build(&stm, &config);
        (stm, state)
    });
    let mut trace = Trace::default();
    let slices = drive(&stm, state.as_ref(), seed, seconds, &mut trace, tracing);
    let mut report = Report::default();
    let stats = stm.stats();
    let gave_up = stats.attempts_recorded().saturating_sub(stats.commits());
    let all = slices.total();
    report.attempted = all.count();
    report.failed = gave_up;
    let check = state.verify(&stm);
    if check.invariant != Some(true) {
        report.failed += 1;
        report.oracle(format!("stm-zipf self-check: {}", check.detail));
    }

    let setup = stats::median(&setups).unwrap_or(0.0);
    let n = slices.hists.len();
    let tps = slices.rate();
    let (p50, min_n) = slices.latency_us(0.5);
    let (p99, _) = slices.latency_us(0.99);
    report.metric("setup_s", setup, "s", format!("median of {} set-ups", setups.len()));
    report.metric("commits_per_s", tps, "txns/s", format!("median of {n} one-second slices"));
    report.metric("txn_p50_us", p50, "us", format!("median of {n} slices, >= {min_n} txns each"));
    report.metric("txn_p99_us", p99, "us", format!("median of {n} slices, >= {min_n} txns each"));
    report.metric(
        "failed_ratio",
        stats::failed_ratio(report.failed, report.attempted),
        "ratio",
        format!("{} failed / {} attempted", report.failed, report.attempted),
    );
    report.metric("txns_per_s", tps, "txns/s", "= commits_per_s".into());
    report.metric("request_p50_ms", p50 / 1e3, "ms", "= txn_p50_us".into());
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb(),
        "MB",
        "peak resident set of the process".into(),
    );

    let mut tally = StmTally::default();
    tally.add(&stm);
    tally.report(&mut report, &trace);
    (report, trace)
}
