//! Simulated Linux network tools and protocol scenario drivers.
//!
//! §6.2 tests SAGE-generated ICMP code against `ping` and `traceroute`;
//! [`mod@ping`] and [`mod@traceroute`] reproduce the relevant client-side behaviour
//! of those tools against the virtual network in [`crate::net`].  The
//! generality studies add one scenario driver per protocol, each with a
//! pluggable responder trait so the same exchange runs against the
//! hand-written reference or SAGE-generated code: [`igmp`] (§6.3 host
//! membership query/report), [`ntp_exchange`] (§6.3 client/server exchange
//! triggered by the Table 11 timeout rule) and [`bfd_session`] (§6.4
//! session bring-up, Down → Init → Up).
//!
//! [`chaos`] holds the per-protocol recovery state machines that the
//! [`crate::scenario`] types bind under
//! [`Drive::Recover`](crate::scenario::Drive::Recover), and [`soak`] the
//! session-scale client/server nodes and responder adapters.  All of them
//! frame packets through one crate-private module, so each protocol's
//! wire format is written once.
//!
//! The synchronous drivers (`ping_once`, `membership_exchange`,
//! `client_server_exchange`, `session_bring_up`) are deprecated in favour of
//! the [`crate::scenario`] API over the event kernel; they remain as
//! independent oracles for the trace-parity tests.

pub mod bfd_session;
pub mod chaos;
pub mod igmp;
pub mod ntp_exchange;
pub mod ping;
pub mod soak;
pub mod traceroute;

#[allow(deprecated)]
pub use bfd_session::session_bring_up;
pub use bfd_session::{BfdEndpoint, BringUpReport, ReferenceBfdEndpoint};
pub use chaos::{
    chaos_reference_scenario, chaos_reference_scenarios, CHAOS_HORIZON_NS, CHAOS_RECOVERY_BOUND_NS,
};
#[allow(deprecated)]
pub use igmp::membership_exchange;
pub use igmp::{IgmpExchangeReport, IgmpResponder, ReferenceIgmpResponder};
#[allow(deprecated)]
pub use ntp_exchange::client_server_exchange;
pub use ntp_exchange::{
    NtpExchangeReport, NtpServer, NtpTimeoutPolicy, ReferenceNtpServer, ReferenceTimeoutPolicy,
};
#[allow(deprecated)]
pub use ping::ping_once;
pub use ping::PingOutcome;
pub use soak::{
    soak_discriminators, soak_group, soak_pair_topology, BfdSoakResponder, IcmpSoakResponder,
    IgmpSoakResponder, NtpSoakResponder, SoakClientNode, SoakProtocol, SoakResponder,
    SoakServerNode,
};
pub use traceroute::{traceroute, Hop, TracerouteReport};
