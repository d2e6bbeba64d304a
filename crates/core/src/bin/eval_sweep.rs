//! `eval-sweep`: run every registered scenario on every library topology.
//!
//! ```text
//! cargo run -p sage-core --release --bin eval-sweep [-- flags]
//!
//!   --smoke        quick CI mode: Appendix-A topology only, no timing loop
//!   --workers N    worker threads (default: available parallelism)
//!   --json PATH    also write a sage-bench-baseline/v1 document to PATH
//!   --fuzz         also sweep fuzzed cells: every scenario under a seeded
//!                  fault schedule (PROPTEST_SEED), judged by the per-step
//!                  state-machine properties
//!   --chaos        run the chaos recovery campaign instead of the sweep:
//!                  4 protocols x 2 engines x 5 topologies under seeded
//!                  crash/restart/flap schedules, judged by safety plus
//!                  liveness; with --json, writes the recovery-time
//!                  baseline (BENCH_chaos.json)
//!   --soak         run the overload-resilience soak campaign instead of
//!                  the sweep: thousands of concurrent sessions per
//!                  protocol across steady/chaos/overload/canary shards
//!                  in Summary trace mode; with --smoke, the CI-scale
//!                  grid (1,024 sessions, >1M packets); with --json,
//!                  writes the throughput/latency/resilience baseline
//!                  (BENCH_soak.json)
//! ```
//!
//! Prints the sweep grid and exits nonzero if any cell fails a check.
//! Every mode then prints a wall-clock line (`wall_s=…` with
//! `events_per_s_wall`, `cells_per_s_wall` or `delivered_pps_wall`) on
//! stdout; it never goes into the `--json` baselines, which hold only
//! machine-independent figures.

use sage_core::fuzz::{fuzzed_scenarios, run_chaos_campaign, ChaosConfig};
use sage_core::pool::available_workers;
use sage_core::soak::{run_soak_campaign, SoakConfig};
use sage_core::sweep::{full_registry, run_sweep};
use sage_netsim::fuzz::seed_from_env;
use sage_netsim::sim::Topology;
use std::time::Instant;

/// Timed repeats per cell when recording a baseline (`--json`); the grid
/// cells are microsecond-scale, so single-shot timings are all jitter.
const BASELINE_ITERATIONS: u32 = 64;

fn main() {
    let mut smoke = false;
    let mut fuzz = false;
    let mut chaos = false;
    let mut soak = false;
    let mut workers: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fuzz" => fuzz = true,
            "--chaos" => chaos = true,
            "--soak" => soak = true,
            "--workers" => {
                let value = args.next().unwrap_or_default();
                match value.parse() {
                    Ok(n) => workers = Some(n),
                    Err(_) => {
                        eprintln!("eval-sweep: --workers needs a number, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("eval-sweep: --json needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "eval-sweep: unknown flag '{other}' \
                     (try --smoke, --fuzz, --chaos, --soak, --workers N, --json PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    let workers = workers.unwrap_or_else(available_workers);

    if soak {
        // --smoke is the committed CI grid; without it, scale the same
        // shape up 4x for a longer local soak.
        let mut config = SoakConfig {
            workers,
            ..SoakConfig::smoke()
        };
        if !smoke {
            config.sessions_per_shard *= 2;
            config.rounds *= 2;
        }
        let start = Instant::now();
        let report = run_soak_campaign(&config);
        let wall_s = start.elapsed().as_secs_f64();
        print!("{}", report.render());
        // Wall-clock figures vary by machine, so they stay out of the
        // virtual-time baseline JSON.
        println!(
            "wall_s={wall_s:.3} delivered_pps_wall={:.0}",
            report.total_delivered() as f64 / wall_s.max(1e-9)
        );
        if let Some(path) = json_path {
            let note = format!(
                "Overload-resilience soak baseline: 4 protocols x {} shards \
                 (steady/chaos/overload/canary) x {} sessions, {} rounds (seed 0x{:x}); \
                 all figures are virtual-time-derived, so the file is machine- and \
                 worker-count-independent; produced by cargo run -p sage-core --release \
                 --bin eval-sweep -- --soak --smoke --json BENCH_soak.json.",
                config.shards_per_protocol, config.sessions_per_shard, config.rounds, config.seed,
            );
            match std::fs::write(&path, report.to_baseline_json(&note)) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("eval-sweep: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        let sessions = report.total_sessions();
        let delivered = report.total_delivered();
        if sessions < 1000 || delivered < 1_000_000 {
            eprintln!(
                "eval-sweep: soak scale floor missed: {sessions} sessions \
                 (need >= 1000), {delivered} packets delivered (need >= 1000000)"
            );
            std::process::exit(1);
        }
        if report.shards.iter().any(|s| s.delivered == 0) {
            eprintln!("eval-sweep: a soak shard collapsed (zero deliveries)");
            std::process::exit(1);
        }
        return;
    }

    if chaos {
        let config = ChaosConfig {
            workers,
            ..ChaosConfig::default()
        };
        let start = Instant::now();
        let report = run_chaos_campaign(&config);
        let wall_s = start.elapsed().as_secs_f64();
        print!("{}", report.render());
        println!(
            "wall_s={wall_s:.3} cells_per_s_wall={:.1}",
            report.cells.len() as f64 / wall_s.max(1e-9)
        );
        if let Some(path) = json_path {
            let note = format!(
                "Chaos recovery baseline: 4 protocols x 2 engines x 5 topologies under \
                 seeded crash/restart/flap schedules (seed 0x{:x}); all figures are virtual \
                 recovery nanoseconds, so the file is machine-independent; produced by \
                 cargo run -p sage-core --release --bin eval-sweep -- --chaos --json \
                 BENCH_chaos.json.",
                config.seed,
            );
            match std::fs::write(&path, report.to_baseline_json(&note)) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("eval-sweep: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        if !report.all_ok() {
            eprintln!(
                "eval-sweep: {} chaos cell(s) violated a property",
                report.failed_cells().len()
            );
            std::process::exit(1);
        }
        return;
    }

    let mut registry = full_registry();
    if fuzz {
        let seed = seed_from_env();
        for scenario in fuzzed_scenarios(&registry, seed, 1).scenarios() {
            registry.register(scenario.clone());
        }
        println!("fuzzed cells appended (seed=0x{seed:x})");
    }
    let topologies = if smoke {
        vec![Topology::appendix_a()]
    } else {
        Topology::library()
    };
    let iterations = if smoke { 0 } else { BASELINE_ITERATIONS };
    let start = Instant::now();
    let report = run_sweep(&registry, &topologies, workers, iterations);
    let wall_s = start.elapsed().as_secs_f64();
    print!("{}", report.render());
    let events: usize = report.cells.iter().map(|c| c.events).sum();
    println!(
        "wall_s={wall_s:.3} events_per_s_wall={:.0}",
        events as f64 / wall_s.max(1e-9)
    );

    if let Some(path) = json_path {
        let note = format!(
            "Discrete-event kernel sweep baseline: {} scenarios x {} topologies, \
             {} timing iterations/cell; produced by cargo run -p sage-core --release \
             --bin eval-sweep -- --json {path} (single-CPU container, shim harness).",
            registry.len(),
            topologies.len(),
            iterations,
        );
        match std::fs::write(&path, report.to_baseline_json(&note)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("eval-sweep: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if !report.all_ok() {
        eprintln!("eval-sweep: {} cell(s) failed", report.failed_cells().len());
        std::process::exit(1);
    }
}
