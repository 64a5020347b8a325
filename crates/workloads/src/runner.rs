//! The scenario runner and the stalled-writer liveness experiment.
//!
//! A scenario runs in one of three ways:
//!
//! * [`run_scenario`] — unrecorded: throughput, attempt percentiles and the
//!   scenario's own invariant check;
//! * [`run_scenario_captured`] — every commit recorded into an
//!   [`AuditHistory`], for a whole-history batch audit or an export;
//! * [`run_scenario_streamed`] — every commit streamed, while the workload
//!   runs, through a [`StreamMerger`] into any [`AuditSink`]: the windowed
//!   auditor, the sharded pipeline, or the WAL tee in front of a windowed
//!   auditor (bounded memory, mid-run convictions).

use crate::scenario::{Scenario, ScenarioCheck, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_runtime::{recorder, BackendId, Stm, StreamingRecorder};
use tm_audit::{
    AuditHistory, HistoryCollector, HistoryRecorder, ShardedAuditor, ShardedStreamReport,
    StreamMerger, StreamReport, TeeSink, TxnSink, WindowedAuditor,
};

/// What one scenario run measured, plus the scenario's own self-check.
#[derive(Debug, Clone)]
pub struct ScenarioRunReport {
    /// Which scenario ran.
    pub scenario: &'static str,
    /// The configuration that produced the report.
    pub config: ScenarioConfig,
    /// Wall-clock duration of the workload (excluding verification/audit).
    pub elapsed: Duration,
    /// Committed transactions per second during the run.
    pub throughput: f64,
    /// Committed transactions (workers only).
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Median attempts one transaction needed to commit.
    pub attempts_p50: u32,
    /// 99th-percentile attempts per transaction.
    pub attempts_p99: u32,
    /// Worst-case attempts one transaction needed (histogram bucket lower
    /// bound).  The livelock statistic: a burst of doomed re-attempts
    /// against a preempted lock holder lands on too few transactions to
    /// move p99, but it moves this.
    pub attempts_max: u32,
    /// Mean attempts per transaction.
    pub attempts_mean: f64,
    /// Transactions abandoned because the retry policy gave up
    /// (always 0 under `immediate`/`backoff`; bounded policies drop work
    /// here instead of retrying forever).
    pub gave_up: u64,
    /// Aborts broken down by [`stm_runtime::AbortReason`], in reporting
    /// order; the counts sum to [`ScenarioRunReport::aborts`].
    pub abort_reasons: [(stm_runtime::AbortReason, u64); stm_runtime::AbortReason::ALL.len()],
    /// The scenario's post-run self-check.
    pub check: ScenarioCheck,
}

/// Spawn the worker threads and drive `state` through the configured
/// transaction count; returns the workload's wall-clock duration.
fn execute_scenario(
    stm: &Stm,
    state: &dyn crate::scenario::ScenarioState,
    config: &ScenarioConfig,
    register_sessions: bool,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..config.threads {
            scope.spawn(move || {
                if register_sessions {
                    recorder::set_session(thread);
                }
                let mut rng = StdRng::seed_from_u64(config.seed ^ ((thread as u64) << 32));
                for seq in 0..config.txns_per_thread as u64 {
                    state.run_txn(stm, thread, seq, &mut rng);
                }
                if register_sessions {
                    recorder::clear_session();
                }
            });
        }
    });
    start.elapsed()
}

/// Snapshot the statistics *before* running the scenario's self-check (the
/// check itself runs transactions) and assemble the report.
fn finish_scenario_report(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
    stm: &Stm,
    state: &dyn crate::scenario::ScenarioState,
    elapsed: Duration,
) -> ScenarioRunReport {
    let stats = stm.stats();
    let commits = stats.commits();
    ScenarioRunReport {
        scenario: scenario.name(),
        config: config.clone(),
        elapsed,
        throughput: commits as f64 / elapsed.as_secs_f64().max(1e-9),
        commits,
        aborts: stats.aborts(),
        attempts_p50: stats.attempts_p50(),
        attempts_p99: stats.attempts_p99(),
        attempts_max: stats.attempts_quantile(1.0),
        attempts_mean: stats.attempts_mean(),
        // Every scenario transaction ends in a commit or a policy give-up,
        // and both record an attempt count — the difference is the give-ups.
        gave_up: stats.attempts_recorded().saturating_sub(commits),
        abort_reasons: stats.abort_reason_counts(),
        check: state.verify(stm),
    }
}

/// Run a scenario unaudited: throughput, attempt percentiles and the
/// scenario's own invariant check.
pub fn run_scenario(scenario: &dyn Scenario, config: &ScenarioConfig) -> ScenarioRunReport {
    let stm = Stm::new(config.backend).with_policy(Arc::clone(&config.policy));
    let state = scenario.build(&stm, config);
    let elapsed = execute_scenario(&stm, state.as_ref(), config, false);
    finish_scenario_report(scenario, config, &stm, state.as_ref(), elapsed)
}

fn require_recordable(scenario: &dyn Scenario) -> Result<(), String> {
    if scenario.recordable() {
        Ok(())
    } else {
        Err(format!(
            "scenario {:?} does not keep the unique-write contract audited runs require; \
             run it without --audit",
            scenario.name()
        ))
    }
}

/// Run a recordable scenario with every commit recorded and hand back the
/// captured [`AuditHistory`] *without* auditing it.  A batch audit is this
/// run plus [`tm_audit::audit_with_options`] on the history, which assumes
/// the recording contract [`Scenario::recordable`] declares: unique write
/// values and an all-zero initial state.
pub fn run_scenario_captured(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
) -> Result<(ScenarioRunReport, AuditHistory), String> {
    require_recordable(scenario)?;
    let recorder_arc = Arc::new(HistoryRecorder::new(config.threads, 0));
    let mut stm = Stm::with_recorder(config.backend, Arc::clone(&recorder_arc) as _)
        .with_policy(Arc::clone(&config.policy));
    let state = scenario.build(&stm, config);
    let elapsed = execute_scenario(&stm, state.as_ref(), config, true);
    // Detach the recorder before the self-check: verification transactions
    // must not pollute the captured history.
    stm.take_recorder();
    let history = Arc::try_unwrap(recorder_arc)
        .unwrap_or_else(|_| panic!("recorder still shared after the run"))
        .into_history(state.words());
    let run = finish_scenario_report(scenario, config, &stm, state.as_ref(), elapsed);
    Ok((run, history))
}

/// A streaming audit sink [`run_scenario_streamed`] can feed and close.
pub trait AuditSink: TxnSink + Send {
    /// What closing the sink yields.
    type Report: Send;

    /// Audit whatever the sink still holds and hand back its final report.
    fn close(self) -> Result<Self::Report, String>;
}

impl AuditSink for WindowedAuditor {
    type Report = StreamReport;

    fn close(self) -> Result<StreamReport, String> {
        Ok(self.finish())
    }
}

impl AuditSink for ShardedAuditor {
    type Report = ShardedStreamReport;

    fn close(self) -> Result<ShardedStreamReport, String> {
        Ok(self.finish())
    }
}

/// A scenario run audited by a streaming sink while it ran.
#[derive(Debug, Clone)]
pub struct StreamedRunReport<R> {
    /// The workload-side measurements.
    pub run: ScenarioRunReport,
    /// Time from workload end to the sink's final report — the audit tail
    /// the streaming pipeline leaves behind.
    pub drain_elapsed: Duration,
    /// The sink's final report.
    pub audit: R,
    /// The merged stream the sink saw, when capture was requested.
    pub history: Option<AuditHistory>,
}

/// Run a recordable scenario while its commits stream through a
/// [`StreamMerger`] into the sink `sink` builds from the scenario's word
/// count, on a consumer thread concurrent with the workload.
///
/// With `capture`, the merged stream is also collected into
/// [`StreamedRunReport::history`].  The capture tees off *after* the
/// merger, so hints, order and attribution are exactly the sink's view —
/// recorder-level taps cannot give that, because parallel recorders number
/// hints independently.
pub fn run_scenario_streamed<S: AuditSink>(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
    capture: bool,
    sink: impl FnOnce(usize) -> Result<S, String>,
) -> Result<StreamedRunReport<S::Report>, String> {
    require_recordable(scenario)?;
    let recorder_arc = Arc::new(StreamingRecorder::new(config.threads, 256));
    let consumer = recorder_arc.consumer();
    let mut stm = Stm::with_recorder(config.backend, Arc::clone(&recorder_arc) as _)
        .with_policy(Arc::clone(&config.policy));
    let state = scenario.build(&stm, config);
    let (vars, sessions) = (state.words(), config.threads);
    let mut sink = sink(vars)?;
    let start = Instant::now();
    let (elapsed, tail) = std::thread::scope(|scope| {
        let auditor = scope.spawn(move || {
            // Shard batches arrive per-session-bursty; the merger restores
            // global recording order so windows cut across sessions.
            let mut merger = StreamMerger::new(sessions);
            let mut collector = capture.then(|| HistoryCollector::new(vars, 0, sessions));
            let mut tee;
            let mut target: &mut dyn TxnSink = match collector.as_mut() {
                Some(collector) => {
                    tee = TeeSink::new(&mut sink, collector);
                    &mut tee
                }
                None => &mut sink,
            };
            while let Some(batch) = consumer.recv() {
                merger.push_batch(&batch, &mut target);
            }
            merger.finish(&mut target);
            Ok::<_, String>((sink.close()?, collector.map(HistoryCollector::into_history)))
        });
        let elapsed = execute_scenario(&stm, state.as_ref(), config, true);
        recorder_arc.finish();
        (elapsed, auditor.join().expect("auditor thread panicked"))
    });
    let total = start.elapsed();
    let (audit, history) = tail?;
    stm.take_recorder();
    let run = finish_scenario_report(scenario, config, &stm, state.as_ref(), elapsed);
    Ok(StreamedRunReport { run, drain_elapsed: total.saturating_sub(elapsed), audit, history })
}

/// The stalled-writer liveness experiment: one thread opens a transaction, writes the
/// hot variable and then stalls for `stall` (holding its encounter-time lock on the
/// blocking backend), while `victims` other threads keep incrementing their own
/// private variables *plus* one read of the hot variable.  Returns the number of
/// victim transactions that managed to commit during the stall — the experimental
/// face of the liveness axis: near zero for the blocking backend, unaffected for the
/// obstruction-free and PRAM backends.
pub fn stalled_writer_experiment(
    backend: impl Into<BackendId>,
    victims: usize,
    stall: Duration,
) -> u64 {
    let stm = Arc::new(Stm::new(backend));
    let hot = stm.alloc(0);
    let privates: Vec<_> = (0..victims).map(|_| stm.alloc(0)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(std::sync::atomic::AtomicU64::new(0));

    std::thread::scope(|scope| {
        // The stalled writer: write the hot variable, then sleep inside the closure.
        {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let _ = stm.try_run(|tx| {
                    tx.write(hot, 99)?;
                    std::thread::sleep(stall);
                    Ok(())
                });
                stop.store(true, Ordering::SeqCst);
            });
        }
        // Victims: each repeatedly reads the hot variable and bumps its own counter.
        for (i, private) in privates.iter().enumerate() {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let private = *private;
            let _ = i;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let ok = stm.try_run(|tx| {
                        let _ = tx.read(hot)?;
                        tx.update(private, |v| v + 1)?;
                        Ok(())
                    });
                    if ok.is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    committed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankConfig;
    use crate::scenarios::{BankScenario, KvZipfScenario, RegistersScenario};
    use stm_runtime::BackendKind;
    use tm_audit::{
        audit_with_budget, AuditRunConfig, Level, ShardConfig, ShardEvent, WindowConfig,
    };

    fn bank(
        backend: BackendKind,
        threads: usize,
        txns: usize,
        bank: BankConfig,
    ) -> ScenarioRunReport {
        let config = ScenarioConfig {
            threads,
            txns_per_thread: txns,
            vars: bank.accounts,
            ..ScenarioConfig::new(backend)
        };
        run_scenario(&BankScenario { template: bank }, &config)
    }

    fn registers(
        backend: BackendKind,
        threads: usize,
        txns: usize,
        vars: usize,
        seed: u64,
    ) -> ScenarioConfig {
        ScenarioConfig {
            threads,
            txns_per_thread: txns,
            vars,
            seed,
            ..ScenarioConfig::new(backend)
        }
    }

    fn windowed(window: WindowConfig) -> impl FnOnce(usize) -> Result<WindowedAuditor, String> {
        move |vars| Ok(WindowedAuditor::new(vars, 0, window))
    }

    #[test]
    fn disjoint_partitions_preserve_balance_on_consistent_backends() {
        for backend in [BackendKind::Tl2Blocking, BackendKind::ObstructionFree] {
            let report = bank(
                backend,
                4,
                200,
                BankConfig { accounts: 32, cross_fraction: 0.0, ..Default::default() },
            );
            assert_eq!(report.check.invariant, Some(true), "{backend:?}: {report:?}");
            assert!(report.throughput > 0.0);
        }
    }

    #[test]
    fn contended_transfers_still_preserve_balance_but_cause_aborts_or_waits() {
        let report = bank(
            BackendKind::ObstructionFree,
            4,
            300,
            BankConfig { accounts: 4, cross_fraction: 1.0, ..Default::default() },
        );
        assert_eq!(report.check.invariant, Some(true), "{report:?}");
    }

    #[test]
    fn pram_backend_visibly_breaks_the_global_invariant() {
        let report = bank(
            BackendKind::PramLocal,
            4,
            100,
            BankConfig { accounts: 8, cross_fraction: 1.0, ..Default::default() },
        );
        // Transfers only move money inside each thread's private replicas, so the
        // auditing thread still sees every account at its initial balance; the global
        // invariant holds *vacuously* for the auditor but cross-thread effects are
        // lost.  What must NOT happen is an abort: the backend is wait-free.
        assert_eq!(report.aborts, 0);
    }

    #[test]
    fn audited_runs_report_throughput_and_verdicts() {
        let config = registers(BackendKind::ObstructionFree, 2, 100, 16, 11);
        let (run, history) = run_scenario_captured(&RegistersScenario, &config).unwrap();
        let audit = audit_with_budget(&history, tm_audit::linearization::DEFAULT_STATE_BUDGET);
        assert!(run.throughput > 0.0);
        assert!(audit.passes(Level::Serializable), "{audit}");
    }

    #[test]
    fn registers_scenario_runs_the_recorded_register_mix() {
        // One session keeps the run deterministic: the scenario and
        // `tm_audit::record_run` must then record the identical history.
        let (vars, seed) = (8, 17);
        let recorded = tm_audit::record_run(AuditRunConfig {
            backend: BackendKind::Tl2Blocking.id(),
            sessions: 1,
            txns_per_session: 200,
            vars,
            seed,
        });
        let config = registers(BackendKind::Tl2Blocking, 1, 200, vars, seed);
        let (_, captured) = run_scenario_captured(&RegistersScenario, &config).unwrap();
        assert_eq!(captured, recorded);
    }

    #[test]
    fn streaming_audited_runs_agree_with_batch_on_a_consistent_backend() {
        let config = registers(BackendKind::ObstructionFree, 2, 300, 16, 11);
        let report = run_scenario_streamed(
            &RegistersScenario,
            &config,
            false,
            windowed(WindowConfig::sized(100)),
        )
        .unwrap();
        assert!(report.run.throughput > 0.0);
        assert_eq!(report.audit.total_txns, 600);
        assert!(report.audit.windows.len() >= 5, "windows: {}", report.audit.windows.len());
        for level in Level::ALL {
            assert!(report.audit.passes(level), "{level}: {}", report.audit.merged);
        }
        assert!(report.audit.first_conviction.is_none());
        assert!(report.history.is_none(), "no capture was requested");
    }

    #[test]
    fn streaming_audits_convict_pram_mid_run() {
        let config = registers(BackendKind::PramLocal, 4, 500, 16, 5);
        let report = run_scenario_streamed(
            &RegistersScenario,
            &config,
            false,
            windowed(WindowConfig::sized(250)),
        )
        .unwrap();
        let conviction = report.audit.first_conviction.as_ref().expect("pram must be convicted");
        assert!(
            conviction.txns_seen < report.audit.total_txns,
            "conviction after {} of {} txns must land mid-stream",
            conviction.txns_seen,
            report.audit.total_txns
        );
        assert!(report.audit.fails(Level::Serializable), "{}", report.audit.merged);
        assert!(report.audit.passes(Level::Causal), "{}", report.audit.merged);
    }

    #[test]
    fn scenarios_run_on_an_externally_registered_backend() {
        // The coarse-global-lock backend comes from this crate, not from
        // stm-runtime: running the bank scenario on it end-to-end proves the
        // registry is open.
        let glock = crate::glock::register();
        let scenario = BankScenario::default();
        let config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 150,
            vars: 16,
            ..ScenarioConfig::new(glock)
        };
        let report = run_scenario(&scenario, &config);
        // Self-transfers commit nothing, so commits ≤ threads × txns.
        assert!(report.commits > 0 && report.commits <= 600, "{}", report.commits);
        assert_eq!(report.check.invariant, Some(true), "{}", report.check.detail);
        assert!(report.attempts_p99 >= report.attempts_p50);
    }

    #[test]
    fn audited_scenarios_produce_verdicts_batch_and_streaming() {
        let scenario = KvZipfScenario::default();
        let config = ScenarioConfig {
            threads: 2,
            txns_per_thread: 150,
            vars: 16,
            ..ScenarioConfig::new(BackendKind::ObstructionFree)
        };
        let (run, history) = run_scenario_captured(&scenario, &config).unwrap();
        let audit = audit_with_budget(&history, 2_000_000);
        assert_eq!(run.commits, 300);
        assert!(audit.passes(Level::Serializable), "{audit}");
        assert_eq!(run.check.invariant, Some(true), "{}", run.check.detail);

        let streaming =
            run_scenario_streamed(&scenario, &config, false, windowed(WindowConfig::sized(100)))
                .unwrap();
        assert_eq!(streaming.audit.total_txns, 300);
        assert!(streaming.audit.passes(Level::Serializable), "{}", streaming.audit.merged);
    }

    #[test]
    fn sharded_audited_scenarios_agree_and_stream_events() {
        let config = registers(BackendKind::Tl2Blocking, 2, 200, 16, 2_024);
        let shard = ShardConfig::new(4, WindowConfig::sized(64));
        let (tx, rx) = std::sync::mpsc::channel();
        let report = run_scenario_streamed(&RegistersScenario, &config, false, |vars| {
            Ok(ShardedAuditor::live(vars, 0, shard, Some(tx)))
        })
        .unwrap();
        assert_eq!(report.audit.total_txns, 400);
        for level in Level::ALL {
            assert!(report.audit.passes(level), "{level}: {}", report.audit.merged);
        }
        let events: Vec<ShardEvent> = rx.try_iter().collect();
        let windows = events.iter().filter(|e| matches!(e, ShardEvent::Window { .. })).count();
        assert_eq!(
            windows,
            report.audit.partitions.iter().map(|p| p.stream.windows.len()).sum::<usize>()
        );
        assert!(
            matches!(events.last(), Some(ShardEvent::Lag { .. })),
            "the event stream closes with a drained lag sample"
        );

        // The sharded pipeline convicts an inconsistent backend, mid-stream.
        let pram = registers(BackendKind::PramLocal, 4, 300, 8, 2_024);
        let report = run_scenario_streamed(&RegistersScenario, &pram, false, |vars| {
            Ok(ShardedAuditor::live(vars, 0, shard, None))
        })
        .unwrap();
        assert!(report.audit.fails(Level::Serializable), "{}", report.audit.merged);
        assert!(report.audit.first_conviction.is_some());
    }

    #[test]
    fn audited_scenarios_convict_the_pram_backend() {
        let config = registers(BackendKind::PramLocal, 4, 300, 8, 2_024);
        let (_, history) = run_scenario_captured(&RegistersScenario, &config).unwrap();
        let audit = audit_with_budget(&history, 2_000_000);
        assert!(audit.passes(Level::Causal), "{audit}");
        assert!(audit.fails(Level::Serializable), "{audit}");
    }

    #[test]
    fn unrecordable_scenarios_are_rejected_by_audited_runs() {
        let scenario = BankScenario::default();
        let config = ScenarioConfig::new(BackendKind::ObstructionFree);
        let window = WindowConfig::sized(64);
        let wal_dir =
            std::env::temp_dir().join(format!("workloads-unrecordable-{}", std::process::id()));
        let results = [
            ("captured", run_scenario_captured(&scenario, &config).map(drop)),
            (
                "windowed",
                run_scenario_streamed(&scenario, &config, false, windowed(window)).map(drop),
            ),
            (
                "sharded",
                run_scenario_streamed(&scenario, &config, true, |vars| {
                    Ok(ShardedAuditor::live(vars, 0, ShardConfig::new(2, window), None))
                })
                .map(drop),
            ),
            (
                "wal",
                run_scenario_streamed(&scenario, &config, false, |vars| {
                    let auditor = WindowedAuditor::new(vars, 0, window);
                    let round = wal_dir.join(crate::recovery::round_dir_name(0));
                    crate::recovery::WalTee::create(&round, config.threads, vars, auditor, || {})
                        .map_err(|e| e.to_string())
                })
                .map(drop),
            ),
        ];
        for (entry, result) in results {
            let err = result.expect_err(entry);
            assert!(err.contains("unique-write contract"), "{entry}: {err}");
        }
        let rounds = crate::recovery::round_dirs(&wal_dir).unwrap();
        assert!(rounds.is_empty(), "a rejected run must log no round: {rounds:?}");
    }
    #[test]
    fn retry_policies_shape_the_attempt_histogram() {
        use stm_runtime::policy::ExponentialBackoff;
        let scenario = crate::scenarios::KvZipfScenario { theta: 0.99, read_fraction: 0.0 };
        let mut config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 250,
            vars: 4,
            ..ScenarioConfig::new(BackendKind::ObstructionFree)
        };
        config.policy = Arc::new(ExponentialBackoff::default());
        let report = run_scenario(&scenario, &config);
        assert_eq!(report.commits, 1_000);
        // All-write hotspot traffic: the histogram must have been populated
        // and be internally consistent; backoff never gives up.
        assert!(report.attempts_mean >= 1.0);
        assert!(report.attempts_p99 >= report.attempts_p50);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.config.policy.name(), "backoff");
    }

    #[test]
    fn bounded_policies_actually_give_up_in_scenario_runs() {
        use crate::scenario::{Scenario, ScenarioCheck, ScenarioState};
        use stm_runtime::policy::BoundedRetry;
        use stm_runtime::TVar;

        // A scenario whose transactions always request an abort: under a
        // bounded policy every one must be dropped after exactly the bound,
        // deterministically — the regression shape for GiveUp being treated
        // as "retry forever".
        struct AlwaysAbort;
        struct AlwaysAbortState {
            var: TVar<i64>,
        }
        impl Scenario for AlwaysAbort {
            fn name(&self) -> &'static str {
                "always-abort"
            }
            fn summary(&self) -> &'static str {
                "test-only"
            }
            fn recordable(&self) -> bool {
                false
            }
            fn build(&self, stm: &Stm, _config: &ScenarioConfig) -> Box<dyn ScenarioState> {
                Box::new(AlwaysAbortState { var: stm.alloc(0i64) })
            }
        }
        impl ScenarioState for AlwaysAbortState {
            fn run_txn(&self, stm: &Stm, _thread: usize, _seq: u64, _rng: &mut StdRng) {
                let _ = stm.run_policy(|tx| {
                    tx.write(self.var, 1)?;
                    tx.abort::<()>()
                });
            }
            fn words(&self) -> usize {
                1
            }
            fn verify(&self, stm: &Stm) -> ScenarioCheck {
                ScenarioCheck {
                    invariant: Some(stm.read_now(self.var) == 0),
                    detail: "aborted writes never land".into(),
                }
            }
        }

        let mut config = ScenarioConfig {
            threads: 2,
            txns_per_thread: 50,
            vars: 1,
            ..ScenarioConfig::new(BackendKind::ObstructionFree)
        };
        config.policy = Arc::new(BoundedRetry { max_attempts: 3 });
        let report = run_scenario(&AlwaysAbort, &config);
        assert_eq!(report.commits, 0);
        assert_eq!(report.gave_up, 100, "{report:?}");
        assert_eq!(report.attempts_p50, 3, "give-ups land at the bound in the histogram");
        assert_eq!(report.aborts, 300, "3 attempts per transaction, no more");
        assert_eq!(report.check.invariant, Some(true));
    }

    #[test]
    fn stalled_writer_starves_victims_only_on_the_blocking_backend() {
        let stall = Duration::from_millis(120);
        let blocking = stalled_writer_experiment(BackendKind::Tl2Blocking, 2, stall);
        let ofree = stalled_writer_experiment(BackendKind::ObstructionFree, 2, stall);
        // The obstruction-free backend keeps committing while the writer sleeps; the
        // blocking backend's victims spend the stall spinning on the hot lock.
        assert!(
            ofree > blocking.saturating_mul(3).max(10),
            "expected OF ({ofree}) to dominate blocking ({blocking})"
        );
    }
}
