//! Overload-resilient soak campaigns: thousands of concurrent sessions
//! per protocol, millions of packets, chaos injected mid-run — ROADMAP
//! item 2's production-scale serving milestone as a robustness harness.
//!
//! A campaign is a grid of (protocol × shard) cells.  Each shard is an
//! independent [`soak_pair_topology`] simulation of
//! `sessions_per_shard` client/server pairs, run in
//! [`TraceMode::Summary`] so memory stays O(sessions), not O(packets).
//! Shards cycle through four roles:
//!
//! * `steady` — nominal load through contained generated responders;
//! * `chaos` — the same load with a seeded [`FaultSchedule`] (link
//!   faults, crashes, flaps) applied mid-soak, per-client watchdogs,
//!   and one server deterministically muted to exercise the stall
//!   detector;
//! * `overload` — burst load into undersized ingress queues (drop-tail
//!   shed) over a slow link, so clients observe backpressure and skip
//!   rounds instead of amplifying the collapse;
//! * `canary` — every responder deliberately fails after a few packets,
//!   exhausting its error budget and quarantining to the reference
//!   engine mid-session.
//!
//! Shards run on [`pool::par_map`], which returns them in grid order, and
//! every reported figure is virtual-time-derived, so the report — and its
//! `BENCH_soak.json` serialisation — is byte-identical for any worker
//! count on any machine.

use sage_interp::quarantine::{
    contained_soak_service, reference_soak_service, CanarySoakResponder, Contained,
    DEFAULT_ERROR_BUDGET,
};
use sage_interp::ResponderRegistry;
use sage_netsim::fuzz::{seed_from_env, ChaosPlan, FaultSchedule, SchedulePlan};
use sage_netsim::sim::{LatencyHistogram, NodeId, SimBuilder, SimTime, TraceMode};
use sage_netsim::tools::soak::{
    soak_pair_topology, SoakClientNode, SoakProtocol, SoakResponder, SoakServerNode,
};

use crate::fuzz::{cell_seed, generated_responders};
use crate::pool;
use crate::sweep::baseline_json;

/// The shard roles a campaign cycles through, in grid order.
pub const SOAK_ROLES: [&str; 4] = ["steady", "chaos", "overload", "canary"];

/// Packets a canary responder serves before it starts failing.
const CANARY_FAIL_AFTER: u64 = 4;
/// Ingress queue capacity in overload shards (drop-tail beyond it).
const OVERLOAD_QUEUE_CAPACITY: usize = 4;
/// Requests per round in overload shards.
const OVERLOAD_BURST: u32 = 8;
/// Watchdog budget in chaos shards, in client round intervals.
const WATCHDOG_INTERVALS: u64 = 8;

/// Soak campaign bounds; [`SoakConfig::smoke`] is the CI configuration.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Campaign seed; defaults to [`seed_from_env`].
    pub seed: u64,
    /// Concurrent client/server sessions per shard.
    pub sessions_per_shard: usize,
    /// Shards per protocol (roles cycle through [`SOAK_ROLES`]).
    pub shards_per_protocol: usize,
    /// Request rounds each client runs.
    pub rounds: u32,
    /// Virtual nanoseconds between a client's rounds.
    pub interval_ns: u64,
    /// Worker threads claiming shards (capped by the machine).
    pub workers: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig::smoke()
    }
}

impl SoakConfig {
    /// The CI smoke configuration: 4 protocols × 4 shards × 64 sessions
    /// = 1,024 concurrent sessions pushing over a million packets.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            seed: seed_from_env(),
            sessions_per_shard: 64,
            shards_per_protocol: 4,
            rounds: 560,
            interval_ns: 1_000_000,
            workers: 1,
        }
    }
}

/// The outcome of one (protocol, shard) cell.
#[derive(Debug, Clone)]
pub struct SoakShardStats {
    /// Protocol name.
    pub protocol: String,
    /// Shard role (one of [`SOAK_ROLES`]).
    pub role: String,
    /// Concurrent sessions the shard ran.
    pub sessions: usize,
    /// Packets delivered to a handler.
    pub delivered: u64,
    /// Packets originated by nodes.
    pub originated: u64,
    /// Packets shed at full ingress queues.
    pub shed: u64,
    /// Responder quarantine swaps recorded in the trace.
    pub quarantines: u64,
    /// Watchdog stall detections.
    pub watchdog_trips: u64,
    /// Virtual duration of the shard run.
    pub duration_ns: u64,
    /// Per-delivery virtual latency histogram.
    pub latency: LatencyHistogram,
}

/// Per-protocol aggregate across a campaign's shards.
#[derive(Debug, Clone)]
pub struct ProtocolSoakStats {
    /// Protocol name.
    pub protocol: String,
    /// Total concurrent sessions across the protocol's shards.
    pub sessions: usize,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets shed.
    pub shed: u64,
    /// Total quarantine swaps.
    pub quarantines: u64,
    /// Total watchdog trips.
    pub watchdog_trips: u64,
    /// Longest shard duration (shards run concurrently in spirit).
    pub duration_ns: u64,
    /// Delivered packets per virtual second.
    pub throughput_vpps: u64,
    /// Virtual delivery latency, 50th percentile (nanoseconds).
    pub latency_p50_ns: u64,
    /// Virtual delivery latency, 99th percentile (nanoseconds).
    pub latency_p99_ns: u64,
}

/// A full soak campaign outcome.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The campaign seed.
    pub seed: u64,
    /// One entry per (protocol, shard) cell, in grid order.
    pub shards: Vec<SoakShardStats>,
}

impl SoakReport {
    /// Total sessions across all shards.
    pub fn total_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.sessions).sum()
    }

    /// Total packets delivered across all shards.
    pub fn total_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.delivered).sum()
    }

    /// Aggregate the campaign per protocol, in grid order.
    pub fn protocol_stats(&self) -> Vec<ProtocolSoakStats> {
        SoakProtocol::all()
            .iter()
            .map(|protocol| {
                let name = protocol.name();
                let mut latency = LatencyHistogram::default();
                let mut agg = ProtocolSoakStats {
                    protocol: name.to_string(),
                    sessions: 0,
                    delivered: 0,
                    shed: 0,
                    quarantines: 0,
                    watchdog_trips: 0,
                    duration_ns: 0,
                    throughput_vpps: 0,
                    latency_p50_ns: 0,
                    latency_p99_ns: 0,
                };
                for shard in self.shards.iter().filter(|s| s.protocol == name) {
                    agg.sessions += shard.sessions;
                    agg.delivered += shard.delivered;
                    agg.shed += shard.shed;
                    agg.quarantines += shard.quarantines;
                    agg.watchdog_trips += shard.watchdog_trips;
                    agg.duration_ns = agg.duration_ns.max(shard.duration_ns);
                    latency.merge(&shard.latency);
                }
                if agg.duration_ns > 0 {
                    agg.throughput_vpps = (u128::from(agg.delivered) * 1_000_000_000
                        / u128::from(agg.duration_ns))
                        as u64;
                }
                agg.latency_p50_ns = latency.percentile(0.50).unwrap_or(0);
                agg.latency_p99_ns = latency.percentile(0.99).unwrap_or(0);
                agg
            })
            .collect()
    }

    /// A human-readable campaign summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak campaign seed={:#x}: {} sessions, {} packets delivered\n",
            self.seed,
            self.total_sessions(),
            self.total_delivered()
        );
        for stats in self.protocol_stats() {
            out.push_str(&format!(
                "  {:<5} sessions={:<5} delivered={:<8} vpps={:<9} p50={}ns p99={}ns shed={} quarantines={} watchdog={}\n",
                stats.protocol,
                stats.sessions,
                stats.delivered,
                stats.throughput_vpps,
                stats.latency_p50_ns,
                stats.latency_p99_ns,
                stats.shed,
                stats.quarantines,
                stats.watchdog_trips,
            ));
        }
        out
    }

    /// Serialise the campaign as a `sage-bench-baseline/v1` document.
    /// Every figure is virtual-time-derived, so the committed
    /// `BENCH_soak.json` is byte-identical on every machine and for any
    /// worker count, and sits in the bench-drift delta table alongside
    /// the wall-clock baselines.
    pub fn to_baseline_json(&self, note: &str) -> String {
        let rows: Vec<_> = self
            .protocol_stats()
            .iter()
            .flat_map(|stats| {
                [
                    ("delivered", stats.delivered),
                    ("throughput_vpps", stats.throughput_vpps),
                    ("latency_p50_ns", stats.latency_p50_ns),
                    ("latency_p99_ns", stats.latency_p99_ns),
                    ("shed", stats.shed),
                    ("quarantines", stats.quarantines),
                    ("watchdog_trips", stats.watchdog_trips),
                ]
                .map(|(metric, value)| {
                    let id = format!("soak/{}/{metric}", stats.protocol);
                    (id, stats.sessions as u64, value as f64, value as f64)
                })
            })
            .collect();
        baseline_json("soak", note, &rows)
    }
}

/// Build the session service for one server in a shard.
fn shard_service(
    registry: &ResponderRegistry,
    protocol: SoakProtocol,
    role: &str,
    session: u32,
    server_addr: u32,
) -> Box<dyn SoakResponder> {
    if role == "canary" {
        let canary = CanarySoakResponder::new(
            reference_soak_service(protocol, session, server_addr),
            CANARY_FAIL_AFTER,
            false,
        );
        Box::new(Contained::new(
            protocol.name(),
            Box::new(canary),
            reference_soak_service(protocol, session, server_addr),
            DEFAULT_ERROR_BUDGET,
        ))
    } else {
        contained_soak_service(
            registry,
            protocol,
            session,
            server_addr,
            DEFAULT_ERROR_BUDGET,
        )
    }
}

/// Run one (protocol, shard) cell of the campaign grid.
fn run_soak_shard(
    registry: &ResponderRegistry,
    config: &SoakConfig,
    protocol_index: usize,
    shard_index: usize,
) -> SoakShardStats {
    let protocol = SoakProtocol::all()[protocol_index];
    let role = SOAK_ROLES[shard_index % SOAK_ROLES.len()];
    let sessions = config.sessions_per_shard.max(1);
    let shard_seed = cell_seed(config.seed, protocol_index, shard_index as u32);
    let (delay_ns, burst, capacity) = if role == "overload" {
        (
            config.interval_ns * 2,
            OVERLOAD_BURST,
            OVERLOAD_QUEUE_CAPACITY,
        )
    } else {
        (config.interval_ns, 1, sessions.max(64))
    };
    let topology = soak_pair_topology(
        &format!("soak/{}/{}-{}", protocol.name(), role, shard_index),
        sessions,
        delay_ns.max(1),
        None,
    );
    let mut builder = SimBuilder::new(topology);
    builder
        .trace_mode(TraceMode::Summary)
        .queue_capacity(capacity)
        .max_events(50_000_000);
    for i in 0..sessions {
        let client = NodeId(i * 2);
        let server = NodeId(i * 2 + 1);
        let client_addr = builder.topology().addr_of(client);
        let server_addr = builder.topology().addr_of(server);
        // Stagger session start offsets across one round interval so
        // the shard's load is spread, not phase-locked.
        let stagger = (config.interval_ns / 16).max(1) * ((i as u64 % 16) + 1);
        builder.bind(
            client,
            Box::new(SoakClientNode::new(
                i as u32,
                client_addr,
                server_addr,
                server,
                protocol,
                config.rounds,
                burst,
                config.interval_ns,
                stagger,
            )),
        );
        builder.bind(
            server,
            Box::new(SoakServerNode {
                service: shard_service(registry, protocol, role, i as u32, server_addr),
            }),
        );
        if role == "chaos" {
            builder.watchdog(client, config.interval_ns * WATCHDOG_INTERVALS);
        }
    }
    if role == "chaos" {
        let span = u64::from(config.rounds) * config.interval_ns;
        let plan = SchedulePlan {
            links: builder.topology().links.len(),
            max_entries: 8,
            horizon: 32,
        };
        let chaos = ChaosPlan {
            nodes: builder.topology().nodes.len(),
            links: builder.topology().links.len(),
            max_faults: 3,
            window_ns: (span / 2).max(1),
            min_down_ns: config.interval_ns * 20,
            down_spread_ns: config.interval_ns * 50,
        };
        FaultSchedule::generate_chaos(shard_seed, &plan, &chaos).apply(&mut builder);
        // Mute session 0's server for the rest of the run: its client's
        // watchdog must detect the stall — the deterministic half of the
        // chaos story, independent of what the schedule drew.
        builder.crash_at(NodeId(1), SimTime((span / 2).max(1)));
    }
    let trace = builder.build().run();
    SoakShardStats {
        protocol: protocol.name().to_string(),
        role: role.to_string(),
        sessions,
        delivered: trace.summary.delivered,
        originated: trace.summary.originated,
        shed: trace.summary.shed,
        quarantines: trace.summary.quarantines,
        watchdog_trips: trace.summary.watchdog_trips,
        duration_ns: trace.duration().0,
        latency: trace.summary.latency.clone(),
    }
}

/// Run a soak campaign: the (protocol × shard) grid shared across
/// `config.workers` threads by [`pool::par_map`], merged in grid order —
/// the report is byte-identical for any worker count.
pub fn run_soak_campaign(config: &SoakConfig) -> SoakReport {
    let registry = generated_responders();
    let grid: Vec<(usize, usize)> = (0..SoakProtocol::all().len())
        .flat_map(|p| (0..config.shards_per_protocol.max(1)).map(move |s| (p, s)))
        .collect();
    let workers = pool::effective_workers(config.workers, grid.len());
    let shards = pool::par_map(&mut vec![(); workers], &grid, |_, _, &(p, s)| {
        run_soak_shard(&registry, config, p, s)
    });
    SoakReport {
        seed: config.seed,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SoakConfig {
        SoakConfig {
            seed: 0x5A6E,
            sessions_per_shard: 4,
            shards_per_protocol: 4,
            rounds: 24,
            interval_ns: 1_000_000,
            workers: 1,
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_worker_counts() {
        let mut config = tiny_config();
        let solo = run_soak_campaign(&config);
        config.workers = 3;
        let pooled = run_soak_campaign(&config);
        assert_eq!(
            solo.to_baseline_json("t"),
            pooled.to_baseline_json("t"),
            "worker count leaked into the report"
        );
    }

    #[test]
    fn every_role_produces_its_signature() {
        let report = run_soak_campaign(&tiny_config());
        let by_role = |role: &str| -> Vec<&SoakShardStats> {
            report.shards.iter().filter(|s| s.role == role).collect()
        };
        for shard in by_role("steady") {
            assert!(
                shard.delivered > 0,
                "steady {} delivered nothing",
                shard.protocol
            );
            assert_eq!(shard.shed, 0, "steady {} shed packets", shard.protocol);
        }
        assert!(
            by_role("overload").iter().any(|s| s.shed > 0),
            "overload shards never shed"
        );
        assert!(
            by_role("canary")
                .iter()
                .all(|s| s.quarantines == s.sessions as u64),
            "every canary session must quarantine exactly once"
        );
        assert!(
            by_role("chaos").iter().any(|s| s.watchdog_trips > 0),
            "muted chaos server never tripped a watchdog"
        );
        // Degradation is graceful: even overloaded shards keep serving.
        for shard in &report.shards {
            assert!(
                shard.delivered > 0,
                "{}/{} collapsed",
                shard.protocol,
                shard.role
            );
        }
    }
}
