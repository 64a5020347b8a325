//! Satellite: ingestion equivalence.  A live audited run and a replay of its
//! exported-then-decoded history must agree **byte for byte** — same merged
//! verdict JSON — across seeds, backends and all three audit topologies.
//!
//! The capture tees off *after* the stream merger, so the exported document
//! records exactly the transaction stream the live auditor consumed (same
//! order, same hints); replaying it through the pure audit functions must
//! therefore reproduce the live verdicts, not merely agree on pass/fail.

use std::sync::Arc;
use stm_runtime::{policy, BackendId};
use tm_audit::{
    audit_sharded, audit_streamed, audit_with_budget, ShardConfig, ShardedAuditor, WindowConfig,
    WindowedAuditor,
};
use tm_history::{decode, encode};
use workloads::{run_scenario_captured, run_scenario_streamed, scenario_by_name, ScenarioConfig};

const BUDGET: u64 = 2_000_000;
const BACKENDS: [BackendId; 4] = [
    stm_runtime::registry::TL2_BLOCKING,
    stm_runtime::registry::OBSTRUCTION_FREE,
    stm_runtime::registry::PRAM_LOCAL,
    stm_runtime::registry::MVCC,
];

fn run_config(backend: BackendId, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        backend,
        threads: 2,
        txns_per_thread: 60,
        vars: 12,
        seed,
        policy: Arc::new(policy::ImmediateRetry),
    }
}

fn window() -> WindowConfig {
    let mut wc = WindowConfig::sized(64);
    wc.budget = BUDGET;
    wc
}

/// 50 seeds, backends rotated so every backend sees many seeds, and all
/// three topologies checked per seed.
#[test]
fn exported_histories_replay_to_identical_verdicts() {
    let scenario = scenario_by_name("registers").expect("built-in scenario");
    for seed in 0..50u64 {
        let backend = BACKENDS[(seed % BACKENDS.len() as u64) as usize];
        let config = run_config(backend, 0x5EED ^ seed);

        // Batch topology.
        let (_, history) = run_scenario_captured(scenario.as_ref(), &config).expect("recorded run");
        let live = audit_with_budget(&history, BUDGET);
        let decoded = decode(&encode(&history)).expect("export decodes");
        assert_eq!(decoded, history, "seed {seed} on {backend}: wire round trip");
        let replay = audit_with_budget(&decoded, BUDGET);
        assert_eq!(
            replay.to_json(),
            live.to_json(),
            "seed {seed} on {backend}: batch replay verdict diverged"
        );

        // Rolling-window topology.
        let live = run_scenario_streamed(scenario.as_ref(), &config, true, |vars| {
            Ok(WindowedAuditor::new(vars, 0, window()))
        })
        .expect("streamed run");
        let decoded = decode(&encode(live.history.as_ref().expect("captured"))).expect("decodes");
        let replay = audit_streamed(&decoded, window());
        assert_eq!(
            replay.merged.to_json(),
            live.audit.merged.to_json(),
            "seed {seed} on {backend}: streaming replay verdict diverged"
        );

        // Sharded topology.
        let shard = ShardConfig::new(2, window());
        let live = run_scenario_streamed(scenario.as_ref(), &config, true, |vars| {
            Ok(ShardedAuditor::live(vars, 0, shard, None))
        })
        .expect("sharded run");
        let decoded = decode(&encode(live.history.as_ref().expect("captured"))).expect("decodes");
        let replay = audit_sharded(&decoded, shard);
        assert_eq!(
            replay.merged.to_json(),
            live.audit.merged.to_json(),
            "seed {seed} on {backend}: sharded replay verdict diverged"
        );
    }
}

/// The capture must see exactly what the auditor saw even for scenarios
/// whose live verdict is a conviction: the SI/SER-separating write-skew
/// scenario on mvcc replays to the same violation witness text.
#[test]
fn convicting_runs_replay_their_violations_verbatim() {
    let scenario = scenario_by_name("write-skew").expect("built-in scenario");
    let config = run_config(stm_runtime::registry::MVCC, 2024);
    let (_, history) = run_scenario_captured(scenario.as_ref(), &config).expect("recorded run");
    let live = audit_with_budget(&history, BUDGET);
    let decoded = decode(&encode(&history)).expect("export decodes");
    let replay = audit_with_budget(&decoded, BUDGET);
    assert_eq!(replay.to_json(), live.to_json(), "conviction replay diverged");
}
