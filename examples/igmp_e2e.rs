//! The §6.3 IGMP generality study end to end: generate host-side IGMP code
//! from the RFC 1112 Appendix I corpus, plug it into the virtual network,
//! and answer a multicast router's Host Membership Query with a report.
//!
//! ```sh
//! cargo run --example igmp_e2e
//! ```

// Deliberately runs the deprecated synchronous driver: it is the oracle the
// kernel `Scenario` traces are pinned against (tests/scenario_parity.rs).
#![allow(deprecated)]

use sage_repro::core::programs::generate_program;
use sage_repro::interp::GeneratedIgmpResponder;
use sage_repro::netsim::headers::ipv4;
use sage_repro::netsim::net::Network;
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::netsim::tools::igmp::membership_exchange;
use sage_repro::spec::corpus::Protocol;

fn main() {
    println!("generating IGMP host code from the RFC 1112 Appendix I corpus...\n");
    let program = generate_program(Protocol::Igmp);

    println!("generated header structs: {}", program.structs.len());
    println!("generated functions:");
    for f in &program.functions {
        println!("  {} ({} statements)", f.name, f.stmt_count());
    }

    println!("\n--- generated C-like source ---");
    if let Some(f) = program.function("igmp") {
        println!("{}", f.to_c());
    }

    println!("--- membership query/report exchange (Appendix A subnet) ---");
    let group = ipv4::addr(224, 0, 0, 251);
    let mut host = GeneratedIgmpResponder::new(program, group);
    let report = membership_exchange(&Network::appendix_a(), &mut host, group);

    for (i, packet) in report.packets.iter().enumerate() {
        let decoded = decode_packet(packet);
        println!("  packet {i}: {}", decoded.summary);
    }
    println!("  query decoded clean        {}", ok(report.query_clean));
    println!("  report sent                {}", ok(report.report_sent));
    println!("  report type = 2            {}", ok(report.report_type_ok));
    println!("  group address echoed       {}", ok(report.group_echoed));
    println!("  IGMP checksum valid        {}", ok(report.checksum_ok));
    println!("  report decoded clean       {}", ok(report.report_clean));
    println!(
        "\noverall: {}",
        if report.all_ok() && host.errors.is_empty() {
            "generated IGMP code interoperates with the membership query"
        } else {
            "FAILURE — see above"
        }
    );
}

fn ok(flag: bool) -> &'static str {
    if flag {
        "ok"
    } else {
        "FAILED"
    }
}
