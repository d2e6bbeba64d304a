//! Each protocol's IPv4 framing, written once for the one-shot scenario
//! nodes, the chaos recovery state machines and the soak sessions.
//!
//! Every function makes exactly the copies and allocations its callers
//! made inline: the soak adapters run on the steady-state serving path.

use crate::buffer::PacketBuf;
use crate::headers::{icmp, igmp, ipv4, ntp, udp};
use crate::tools::bfd_session::BFD_CONTROL_PORT;

/// The echo identifier the ping scenarios use.
pub(crate) const PING_IDENT: u16 = 0x77;
/// The echo payload every ping carries (the classic 16-byte pattern).
pub(crate) const PING_PAYLOAD: &[u8] = b"0123456789abcdef";
/// The ephemeral port NTP clients poll from.
pub(crate) const NTP_CLIENT_PORT: u16 = 45123;
/// The source port BFD control packets are sent from.
pub(crate) const BFD_SRC_PORT: u16 = 49152;

/// An ICMP echo request from `src` to `dst` carrying [`PING_PAYLOAD`].
pub(crate) fn echo_request(src: u32, dst: u32, ident: u16, seq: u16) -> PacketBuf {
    let echo = icmp::build_echo(false, ident, seq, PING_PAYLOAD);
    ipv4::build_packet(src, dst, ipv4::PROTO_ICMP, 64, echo.as_bytes())
}

/// An IGMP general membership query from `router_addr` to all hosts.
pub(crate) fn igmp_general_query(router_addr: u32) -> PacketBuf {
    let query = igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0);
    let all_hosts = ipv4::addr(224, 0, 0, 1);
    ipv4::build_packet(
        router_addr,
        all_hosts,
        ipv4::PROTO_IGMP,
        1,
        query.as_bytes(),
    )
}

/// A host's IGMP message `msg` addressed to `group`.
pub(crate) fn igmp_report(host_addr: u32, group: u32, msg: &PacketBuf) -> PacketBuf {
    ipv4::build_packet(host_addr, group, ipv4::PROTO_IGMP, 1, msg.as_bytes())
}

/// An NTP client-mode poll from [`NTP_CLIENT_PORT`] to the server's port
/// 123.
pub(crate) fn ntp_request(
    client_addr: u32,
    server_addr: u32,
    transmit_timestamp: u64,
) -> PacketBuf {
    let request = ntp::build_packet(0, 1, ntp::mode::CLIENT, 0, transmit_timestamp);
    let datagram = ntp::encapsulate_in_udp(client_addr, server_addr, NTP_CLIENT_PORT, &request);
    ipv4::build_packet(
        client_addr,
        server_addr,
        ipv4::PROTO_UDP,
        64,
        datagram.as_bytes(),
    )
}

/// An NTP server's `reply`.  Appendix A: the reply's destination port is
/// copied from the request's source port.
pub(crate) fn ntp_reply(
    server_addr: u32,
    client_addr: u32,
    client_port: u16,
    reply: &PacketBuf,
) -> PacketBuf {
    let datagram = udp::build_datagram(
        server_addr,
        client_addr,
        udp::NTP_PORT,
        client_port,
        reply.as_bytes(),
    );
    ipv4::build_packet(
        server_addr,
        client_addr,
        ipv4::PROTO_UDP,
        64,
        datagram.as_bytes(),
    )
}

/// A BFD control packet from `src` to `dst`'s control port, at TTL 255.
pub(crate) fn bfd_datagram(src: u32, dst: u32, control: &PacketBuf) -> PacketBuf {
    let datagram =
        udp::build_datagram(src, dst, BFD_SRC_PORT, BFD_CONTROL_PORT, control.as_bytes());
    ipv4::build_packet(src, dst, ipv4::PROTO_UDP, 255, datagram.as_bytes())
}

/// A UDP datagram unwrapped from its IPv4 packet: the IPv4 addresses, the
/// UDP source port and the UDP payload.
pub(crate) struct UdpRequest {
    pub(crate) src_addr: u32,
    pub(crate) dst_addr: u32,
    pub(crate) src_port: u16,
    pub(crate) payload: PacketBuf,
}

/// The UDP datagram `packet` carries to `port`; `None` for any other
/// protocol or port.
pub(crate) fn udp_request(packet: &PacketBuf, port: u16) -> Option<UdpRequest> {
    let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0) as u8;
    if proto != ipv4::PROTO_UDP {
        return None;
    }
    let datagram = PacketBuf::from_bytes(ipv4::payload(packet).to_vec());
    let dst_port = datagram
        .get_field(udp::FIELDS, "destination_port")
        .unwrap_or(0) as u16;
    if dst_port != port {
        return None;
    }
    Some(UdpRequest {
        src_addr: packet
            .get_field(ipv4::FIELDS, "source_address")
            .unwrap_or(0) as u32,
        dst_addr: packet
            .get_field(ipv4::FIELDS, "destination_address")
            .unwrap_or(0) as u32,
        src_port: datagram.get_field(udp::FIELDS, "source_port").unwrap_or(0) as u16,
        payload: PacketBuf::from_bytes(udp::payload(&datagram).to_vec()),
    })
}
