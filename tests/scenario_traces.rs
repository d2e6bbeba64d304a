//! Full-trace pins for every protocol scenario: the one-shot and chaos
//! exercises, on the reference and the generated code, plain and under a
//! fixed crash/restart/flap schedule, each on all five library topologies.
//!
//! One line per cell holds the sweep's deterministic view — scenario,
//! topology, verdict, events, deliveries, originated packets, virtual
//! duration and the FNV-1a digest of the rendered trace — so any change to
//! a scenario's virtual-time behaviour shows up as a diff against
//! `tests/golden/scenario_traces.txt`.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test scenario_traces` — then review the diff.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use sage_repro::core::fuzz::generated_responders;
use sage_repro::core::sweep::{full_registry, run_sweep};
use sage_repro::interp::generated_chaos_scenarios;
use sage_repro::netsim::fuzz::{FaultSchedule, FuzzedScenario, LifecycleEntry};
use sage_repro::netsim::scenario::{Scenario, ScenarioRegistry};
use sage_repro::netsim::sim::Topology;
use sage_repro::netsim::tools::chaos_reference_scenarios;

/// Crash node 1 at 600ms and restart it at 900ms, then flap link 0 down
/// for 300ms at 1.2s.
fn crash_restart_flap() -> FaultSchedule {
    FaultSchedule {
        seed: 0,
        entries: vec![],
        lifecycle: vec![
            LifecycleEntry::Crash {
                node: 1,
                at_ns: 600_000_000,
            },
            LifecycleEntry::Restart {
                node: 1,
                at_ns: 900_000_000,
            },
            LifecycleEntry::Flap {
                link: 0,
                at_ns: 1_200_000_000,
                down_ns: 300_000_000,
            },
        ],
    }
}

/// The one-shot scenarios (reference + generated), the chaos scenarios
/// (reference + generated), and each chaos scenario under the fixed
/// crash/restart/flap schedule.
fn pinned_registry() -> ScenarioRegistry {
    let mut registry = full_registry();
    let mut chaos: Vec<Arc<dyn Scenario>> = chaos_reference_scenarios();
    chaos.extend(
        generated_chaos_scenarios(&generated_responders())
            .scenarios()
            .iter()
            .cloned(),
    );
    for scenario in &chaos {
        registry.register(scenario.clone());
    }
    for scenario in chaos {
        registry.register(Arc::new(FuzzedScenario::new(
            scenario,
            crash_restart_flap(),
        )));
    }
    registry
}

fn render_cells() -> String {
    let report = run_sweep(&pinned_registry(), &Topology::library(), 1, 0);
    let mut out = String::new();
    for cell in &report.cells {
        let (scenario, topology, ok, events, delivered, originated, virtual_ns, digest) =
            cell.deterministic_view();
        out.push_str(&format!(
            "{scenario} {topology} ok={ok} events={events} delivered={delivered} \
             originated={originated} virtual_ns={virtual_ns} digest={digest:016x}\n"
        ));
    }
    out
}

#[test]
fn every_scenario_trace_matches_the_committed_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenario_traces.txt");
    let text = render_cells();
    assert_eq!(
        text.lines().count(),
        24 * 5,
        "registry or topology set changed"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}\n(run with UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    let diffs: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want: {want}\n  got:  {got}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == text.lines().count(),
        "{} of {} scenario traces drifted from {}:\n{}",
        diffs.len(),
        text.lines().count(),
        path.display(),
        diffs.join("\n")
    );
}
