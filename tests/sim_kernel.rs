//! Discrete-event kernel guarantees: determinism (same seed + topology =>
//! byte-identical trace, across repeated runs and across sweep worker
//! counts) and the delay-ordering property (packets are delivered in
//! per-link-delay order, ties broken by link enumeration order).

use proptest::prelude::*;
use sage_repro::core::sweep::{full_registry, run_sweep};
use sage_repro::netsim::faulty::FaultyLink;
use sage_repro::netsim::headers::{icmp, ipv4};
use sage_repro::netsim::scenario::{reference_scenarios, run_scenario_on};
use sage_repro::netsim::sim::{
    Ctx, EventTrace, Node, NodeId, Routes, SimBuilder, Topology, TraceMode, TRACE_RING_CAPACITY,
};

#[test]
fn every_reference_scenario_replays_byte_identically_on_every_topology() {
    let registry = reference_scenarios();
    for scenario in registry.scenarios() {
        for topology in Topology::library() {
            let first = run_scenario_on(scenario.as_ref(), topology.clone()).unwrap();
            let second = run_scenario_on(scenario.as_ref(), topology.clone()).unwrap();
            assert_eq!(
                first.trace.render(),
                second.trace.render(),
                "{}/{} diverged between runs",
                scenario.name(),
                topology.name,
            );
        }
    }
}

/// A host that fires a burst of echo requests at its peer when started.
struct Burst {
    src: u32,
    dst: u32,
    count: u16,
}

impl Node for Burst {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &sage_repro::netsim::buffer::PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for seq in 0..self.count {
            let echo = icmp::build_echo(false, 0x42, seq, b"determinism");
            ctx.send(ipv4::build_packet(
                self.src,
                self.dst,
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            ));
        }
    }
}

/// Build the two-host burst sim with a seeded faulty link and run it.
fn faulty_burst_trace(seed: u64) -> String {
    let mut topo = Topology::named("faulty-pair");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    let link = topo.link(a, b, 1_000);
    let mut sim = SimBuilder::new(topo);
    sim.bind(
        a,
        Box::new(Burst {
            src: ipv4::addr(10, 0, 1, 1),
            dst: ipv4::addr(10, 0, 1, 2),
            count: 64,
        }),
    );
    // Aggressive rates so every fault kind (loss, duplication, corruption)
    // actually occurs within the burst.
    sim.bind_link_model(link, Box::new(FaultyLink::new(250, 250, 250, seed)));
    sim.build().run().render()
}

#[test]
fn seeded_faulty_link_replays_the_same_trace() {
    let first = faulty_burst_trace(0x5A6E);
    let second = faulty_burst_trace(0x5A6E);
    assert_eq!(first, second, "same seed must replay byte-identically");
    let other = faulty_burst_trace(0x5A6F);
    assert_ne!(
        first, other,
        "a different seed should perturb the fault schedule"
    );
}

#[test]
fn sweep_results_are_identical_across_worker_counts() {
    let registry = full_registry();
    let topologies = Topology::library();
    let baseline = run_sweep(&registry, &topologies, 1, 0);
    for workers in [2, 4, 8] {
        let sweep = run_sweep(&registry, &topologies, workers, 0);
        let view = |r: &sage_repro::core::sweep::SweepReport| {
            r.cells
                .iter()
                .map(|c| {
                    let (sc, topo, ok, ev, de, or, vn, dig) = c.deterministic_view();
                    format!("{sc} {topo} {ok} {ev} {de} {or} {vn} {dig:016x}")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            view(&baseline),
            view(&sweep),
            "sweep diverged at {workers} workers"
        );
    }
}

/// A hub node that multicasts one packet at start; every spoke receives it
/// after exactly its own link delay.
struct Caster {
    src: u32,
}

impl Node for Caster {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &sage_repro::netsim::buffer::PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let echo = icmp::build_echo(false, 1, 1, b"fanout");
        ctx.send(ipv4::build_packet(
            self.src,
            ipv4::addr(224, 0, 0, 5),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        ));
    }
}

proptest! {
    /// Deliveries come out of the kernel ordered by per-link delay, with
    /// equal delays resolved in link enumeration order — the (time, seq)
    /// heap discipline observed from outside.
    #[test]
    fn delivery_order_respects_per_link_delays(
        delays in prop::collection::vec(1_000u64..5_000_000, 2..12)
    ) {
        let mut topo = Topology::named("prop-star");
        let hub = topo.host("hub", ipv4::addr(10, 0, 0, 1), 8);
        let spokes: Vec<_> = (0..delays.len())
            .map(|i| {
                let spoke = topo.host(
                    &format!("s{i}"),
                    ipv4::addr(10, 0, 1, 1 + i as u8),
                    8,
                );
                topo.link(hub, spoke, delays[i]);
                spoke
            })
            .collect();
        let mut sim = SimBuilder::new(topo);
        sim.bind(hub, Box::new(Caster { src: ipv4::addr(10, 0, 0, 1) }));
        let trace = sim.build().run();

        // Observed order: Deliver events on the spokes, as (time, node).
        let observed: Vec<(u64, usize)> = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    sage_repro::netsim::sim::TraceEventKind::Deliver(_)
                )
            })
            .map(|e| (e.time.0, e.node.0))
            .collect();
        prop_assert_eq!(observed.len(), delays.len());

        // Expected order: spokes sorted by (delay, link index); link index
        // order equals spoke creation order here.
        let mut expected: Vec<(u64, usize)> = delays
            .iter()
            .zip(&spokes)
            .map(|(d, s)| (*d, s.0))
            .collect();
        expected.sort_by_key(|&(d, i)| (d, i));
        prop_assert_eq!(observed, expected);

        // And each arrival lands exactly at its link delay.
        for event in &trace.events {
            if let sage_repro::netsim::sim::TraceEventKind::Deliver(_) = event.kind {
                let spoke_index = spokes.iter().position(|s| *s == event.node).unwrap();
                prop_assert_eq!(event.time.0, delays[spoke_index]);
            }
        }
    }
}

/// The icmp sequence numbers of the packets delivered to `node`, in
/// processing order — the observable the (time, seq) heap discipline is
/// judged by.
fn delivered_sequence(trace: &sage_repro::netsim::sim::EventTrace, node: &str) -> Vec<u16> {
    trace
        .delivered_to(node)
        .iter()
        .map(|bytes| {
            let packet = sage_repro::netsim::buffer::PacketBuf::from_bytes(bytes.clone());
            let message =
                sage_repro::netsim::buffer::PacketBuf::from_bytes(ipv4::payload(&packet).to_vec());
            message.get_field(icmp::FIELDS, "sequence_number").unwrap() as u16
        })
        .collect()
}

/// Run a two-host burst with a [`ScheduledLink`] and return the trace.
fn scheduled_burst_trace(
    count: u16,
    entries: Vec<(u32, sage_repro::netsim::fuzz::FaultAction)>,
) -> sage_repro::netsim::sim::EventTrace {
    use sage_repro::netsim::fuzz::ScheduledLink;
    let mut topo = Topology::named("scheduled-pair");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    let link = topo.link(a, b, 1_000);
    let mut sim = SimBuilder::new(topo);
    sim.bind(
        a,
        Box::new(Burst {
            src: ipv4::addr(10, 0, 1, 1),
            dst: ipv4::addr(10, 0, 1, 2),
            count,
        }),
    );
    sim.bind_link_model(link, Box::new(ScheduledLink::new(entries)));
    sim.build().run()
}

#[test]
fn zero_extra_delay_duplicates_keep_scheduling_order() {
    use sage_repro::netsim::fuzz::FaultAction;
    // Every transmit is duplicated with zero extra delay: each original
    // and its copy arrive at the *same* virtual time, so only the seq
    // tiebreak (assignment in scheduling order) orders them.  The
    // observable order must be per-transmit pairs, never interleaved or
    // reshuffled: 0,0,1,1,2,2.
    let entries = (0..3)
        .map(|t| (t, FaultAction::Duplicate { extra_delay_ns: 0 }))
        .collect();
    let trace = scheduled_burst_trace(3, entries);
    assert_eq!(delivered_sequence(&trace, "b"), vec![0, 0, 1, 1, 2, 2]);
    // All six deliveries land at one timestamp — the ties are real.
    let times: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, sage_repro::netsim::sim::TraceEventKind::Deliver(_)))
        .map(|e| e.time.0)
        .collect();
    assert_eq!(times.len(), 6);
    assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    // And the whole ordering is stable across runs.
    let entries = (0..3)
        .map(|t| (t, FaultAction::Duplicate { extra_delay_ns: 0 }))
        .collect();
    assert_eq!(trace.render(), scheduled_burst_trace(3, entries).render());
}

#[test]
fn delayed_duplicates_sort_by_time_before_seq() {
    use sage_repro::netsim::fuzz::FaultAction;
    // The first transmit's copy is delayed past the second transmit's
    // arrival: time dominates seq, so the copy lands last even though it
    // was scheduled before the second packet.
    let trace = scheduled_burst_trace(
        2,
        vec![(
            0,
            FaultAction::Duplicate {
                extra_delay_ns: 500,
            },
        )],
    );
    assert_eq!(delivered_sequence(&trace, "b"), vec![0, 1, 0]);
}

/// `FaultyLink` honours `PROPTEST_SEED`-style seeding at the API level too:
/// two links with the same seed produce the same schedule over the same
/// packet sequence.
#[test]
fn faulty_link_schedule_is_a_pure_function_of_the_seed() {
    use sage_repro::netsim::sim::LinkModel;
    let echo = icmp::build_echo(false, 9, 9, b"seeded");
    let packet = ipv4::build_packet(
        ipv4::addr(10, 0, 1, 1),
        ipv4::addr(10, 0, 1, 2),
        ipv4::PROTO_ICMP,
        64,
        echo.as_bytes(),
    );
    let schedule = |seed: u64| -> Vec<Vec<(Vec<u8>, u64)>> {
        let mut link = FaultyLink::new(200, 200, 200, seed);
        (0..32)
            .map(|_| {
                link.transmit(&packet)
                    .into_iter()
                    .map(|d| (d.packet.as_bytes().to_vec(), d.extra_delay_ns))
                    .collect()
            })
            .collect()
    };
    assert_eq!(schedule(7), schedule(7));
    assert_ne!(schedule(7), schedule(8));
}

/// The last `min(TRACE_RING_CAPACITY, n)` lines of a Full-mode render.
fn last_rendered_lines(full: &EventTrace) -> String {
    let rendered = full.render();
    let lines: Vec<&str> = rendered.lines().collect();
    let tail = &lines[lines.len().saturating_sub(TRACE_RING_CAPACITY)..];
    tail.iter().map(|l| format!("{l}\n")).collect()
}

/// Judge one Summary-mode run against the Full-mode run of the same sim:
/// the ring renders as the tail of the full trace, and the counters agree.
fn assert_ring_matches_full(label: &str, summary: &EventTrace, full: &EventTrace) {
    assert!(summary.events.is_empty(), "{label}: Summary kept events");
    assert_eq!(
        summary.summary.last_events.len() as u64,
        full.summary.events_recorded.min(TRACE_RING_CAPACITY as u64),
        "{label}: ring length"
    );
    assert_eq!(
        summary.summary.render_recent(),
        last_rendered_lines(full),
        "{label}: ring differs from the tail of the Full trace"
    );
    assert_eq!(
        summary.summary.events_recorded, full.summary.events_recorded,
        "{label}: event counts differ"
    );
}

#[test]
fn summary_ring_renders_the_tail_of_the_full_trace_on_every_library_topology() {
    let registry = reference_scenarios();
    for scenario in registry.scenarios() {
        for topology in Topology::library() {
            let run = |mode: TraceMode| {
                let mut sim = SimBuilder::new(topology.clone());
                scenario.bind(&mut sim).unwrap();
                sim.trace_mode(mode);
                sim.build().run()
            };
            let label = format!("{}/{}", scenario.name(), topology.name);
            assert_ring_matches_full(&label, &run(TraceMode::Summary), &run(TraceMode::Full));
        }
    }
}

#[test]
fn summary_ring_renders_the_tail_of_an_overloaded_soak_shard() {
    use sage_repro::interp::quarantine::reference_soak_service;
    use sage_repro::netsim::tools::soak::{
        soak_pair_topology, SoakClientNode, SoakProtocol, SoakServerNode,
    };
    const SESSIONS: usize = 8;
    const INTERVAL_NS: u64 = 1_000_000;
    let run = |mode: TraceMode| {
        // Bursts of 8 over a slow link into 4-slot ingress queues: the
        // overload shape of the soak campaign, which sheds.
        let topology = soak_pair_topology("ring-overload", SESSIONS, INTERVAL_NS * 2, None);
        let mut sim = SimBuilder::new(topology);
        sim.trace_mode(mode).queue_capacity(4).max_events(1_000_000);
        for i in 0..SESSIONS {
            let (client, server) = (NodeId(i * 2), NodeId(i * 2 + 1));
            let client_addr = sim.topology().addr_of(client);
            let server_addr = sim.topology().addr_of(server);
            sim.bind(
                client,
                Box::new(SoakClientNode::new(
                    i as u32,
                    client_addr,
                    server_addr,
                    server,
                    SoakProtocol::Icmp,
                    20,
                    8,
                    INTERVAL_NS,
                    (i as u64 + 1) * 10_000,
                )),
            );
            let service = reference_soak_service(SoakProtocol::Icmp, i as u32, server_addr);
            sim.bind(server, Box::new(SoakServerNode { service }));
        }
        sim.build().run()
    };
    let (summary, full) = (run(TraceMode::Summary), run(TraceMode::Full));
    assert!(summary.summary.shed > 0, "the shard never shed");
    assert!(full.summary.events_recorded > TRACE_RING_CAPACITY as u64);
    assert_ring_matches_full("overload", &summary, &full);
}

/// Every interface address of `topology`.
fn interface_addrs(topology: &Topology) -> Vec<u32> {
    topology
        .nodes
        .iter()
        .flat_map(|n| n.addrs.iter().map(|(a, _)| *a))
        .collect()
}

#[test]
fn owner_index_agrees_with_the_topology_scan() {
    use sage_repro::netsim::tools::soak::soak_pair_topology;
    let mut topologies = Topology::library();
    topologies.push(soak_pair_topology("owner-index", 64, 1_000, None));
    assert_eq!(topologies.last().unwrap().nodes.len(), 128);
    for topology in &topologies {
        let routes = Routes::compute(topology);
        for addr in interface_addrs(topology) {
            assert!(topology.owner_of(addr).is_some());
            assert_eq!(
                routes.owner_of(addr),
                topology.owner_of(addr),
                "{}: owner of {addr:#010x}",
                topology.name
            );
        }
        let unknown = ipv4::addr(203, 0, 113, 7);
        assert_eq!(topology.owner_of(unknown), None);
        assert_eq!(routes.owner_of(unknown), None, "{}", topology.name);
    }
}

#[test]
fn owner_index_resolves_a_duplicated_address_to_the_lower_node() {
    let dup = ipv4::addr(10, 9, 9, 9);
    let mut topo = Topology::named("duplicate");
    let first = topo.router("r1", &[(ipv4::addr(10, 9, 8, 1), 24), (dup, 24)]);
    let second = topo.host("h1", dup, 24);
    topo.link(first, second, 1_000);
    let routes = Routes::compute(&topo);
    assert_eq!(topo.owner_of(dup), Some(first));
    assert_eq!(routes.owner_of(dup), Some(first));
}
