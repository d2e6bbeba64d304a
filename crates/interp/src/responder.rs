//! Adapters that plug generated programs into the network substrate.
//!
//! One adapter per protocol scenario — [`GeneratedResponder`] (ICMP router
//! events), [`GeneratedIgmpResponder`] (membership queries),
//! [`GeneratedNtpTimeoutPolicy`] / [`GeneratedNtpServer`] (the Table 11
//! client trigger and the server reply), [`GeneratedBfdEndpoint`] (session
//! state management) — plus the [`ResponderRegistry`] that holds the four
//! generated programs side by side and hands out the right adapter per
//! protocol.
//!
//! Every adapter is a thin mapping over one private runner, the static
//! framework of §5.1: the adapter names the state variables it exchanges
//! with the generated code once, and the runner seeds them, runs the
//! generated functions on the bytecode VM or the tree-walker, and reads
//! them back.

use crate::env::{self, Env};
use crate::exec::{exec_function, ExecError};
use crate::lower::lower_program;
use crate::vm::{self, CompiledProgram, VmScratch, VmState};
use sage_codegen::ir::{Function, Program};
use sage_netsim::buffer::PacketBuf;
use sage_netsim::headers::{bfd, ntp};
use sage_netsim::net::{IcmpEvent, IcmpResponder};
use sage_netsim::scenario::{self, Drive, ScenarioRegistry};
use sage_netsim::tools::bfd_session::BfdEndpoint;
use sage_netsim::tools::igmp::IgmpResponder as IgmpResponderTrait;
use sage_netsim::tools::ntp_exchange::{NtpServer, NtpTimeoutPolicy};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which engine an adapter executes its generated program on.
///
/// Every adapter lowers its program to bytecode at construction and runs
/// the VM by default; the tree-walking interpreter remains available as
/// the semantic oracle (parity suites run both and compare bit-for-bit).
/// A program outside the lowerable subset silently stays on the
/// tree-walker regardless of the requested mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run the compiled register bytecode (the per-packet fast path).
    #[default]
    Vm,
    /// Run the tree-walking interpreter (the oracle path).
    TreeWalk,
}

/// The per-call framework state a run starts from, besides the seeded
/// variables.
struct Frame<'a> {
    /// The received IP datagram (empty where the generated code only edits
    /// the received message in place).
    request: &'a [u8],
    /// The reply buffer before the generated code runs.
    reply: PacketBuf,
    /// Reply source address.
    src: u32,
    /// Reply destination address.
    dst: u32,
    /// Discriminators of the locally existing BFD sessions.
    sessions: &'a [i64],
}

impl Frame<'_> {
    /// A frame whose reply buffer is the received message itself, with no
    /// request datagram, addresses or sessions.
    fn message(reply: PacketBuf) -> Self {
        Frame {
            request: &[],
            reply,
            src: 0,
            dst: 0,
            sessions: &[],
        }
    }
}

/// What one run of the generated functions left behind.
struct Outcome<const N: usize> {
    reply: PacketBuf,
    discarded: bool,
    transmission_ceased: bool,
    /// The declared variables, in declaration order.
    vars: [i64; N],
}

impl<const N: usize> Outcome<N> {
    /// The reply, unless the generated code discarded the packet.
    fn reply(self) -> Option<PacketBuf> {
        (!self.discarded).then_some(self.reply)
    }
}

/// One generated program bound to the `N` state variables its adapter
/// exchanges with it: the names are the lowering externals, so each has a
/// slot resolved once here, and [`Runner::run`] seeds and reads them back
/// identically on both engines.
#[derive(Debug, Clone)]
struct Runner<const N: usize> {
    program: Program,
    protocol: &'static str,
    names: [&'static str; N],
    compiled: Option<CompiledProgram>,
    slots: [Option<u16>; N],
    mode: ExecMode,
    scratch: VmScratch,
}

impl<const N: usize> Runner<N> {
    fn new(program: Program, protocol: &'static str, names: [&'static str; N]) -> Self {
        let compiled = lower_program(&program, protocol, &names).ok();
        let slots = names.map(|name| compiled.as_ref().and_then(|c| c.slot(name)));
        Runner {
            program,
            protocol,
            names,
            compiled,
            slots,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
        }
    }

    fn engine(&self) -> ExecMode {
        match (&self.compiled, self.mode) {
            (Some(_), ExecMode::Vm) => ExecMode::Vm,
            _ => ExecMode::TreeWalk,
        }
    }

    /// Seed the declared variables with `seeds`, run `functions` in order
    /// (stopping at the first discard) and read the variables back.  An
    /// execution error is pushed onto `errors` and yields `None`.
    fn run(
        &mut self,
        functions: &[usize],
        seeds: [i64; N],
        frame: Frame<'_>,
        errors: &mut Vec<ExecError>,
    ) -> Option<Outcome<N>> {
        let outcome = match (self.mode, &self.compiled) {
            (ExecMode::Vm, Some(compiled)) => {
                self.scratch.reset(compiled);
                for (&slot, seed) in self.slots.iter().zip(seeds) {
                    VmState::seed(&mut self.scratch, slot, seed);
                }
                let mut st = VmState::new(
                    &mut self.scratch,
                    frame.request,
                    frame.reply,
                    frame.src,
                    frame.dst,
                    frame.sessions,
                );
                functions
                    .iter()
                    .try_for_each(|&i| {
                        if st.discarded {
                            return Ok(());
                        }
                        vm::run(&compiled.functions[i], compiled, &mut st)
                    })
                    .map(|()| Outcome {
                        vars: std::array::from_fn(|k| st.slot_or(self.slots[k], seeds[k])),
                        discarded: st.discarded,
                        transmission_ceased: st.transmission_ceased,
                        reply: st.reply,
                    })
            }
            _ => {
                let mut env = Env {
                    request_ip: PacketBuf::from_bytes(frame.request.to_vec()),
                    reply: frame.reply,
                    reply_src: frame.src,
                    reply_dst: frame.dst,
                    vars: HashMap::new(),
                    discarded: false,
                    sent: false,
                    transmission_ceased: false,
                    reply_proto: self.protocol.to_string(),
                };
                for (name, seed) in self.names.iter().zip(seeds) {
                    env.set_var(name, seed);
                }
                for discr in frame.sessions {
                    env.set_var(&format!("session.{discr}"), 1);
                }
                functions
                    .iter()
                    .try_for_each(|&i| {
                        if env.discarded {
                            return Ok(());
                        }
                        exec_function(&mut env, &self.program.functions[i])
                    })
                    .map(|()| Outcome {
                        vars: self.names.map(|name| env.var(name)),
                        discarded: env.discarded,
                        transmission_ceased: env.transmission_ceased,
                        reply: env.reply,
                    })
            }
        };
        outcome.map_err(|e| errors.push(e)).ok()
    }
}

/// The message-name fragments router events correspond to, indexed by
/// [`event_kind`]; function names are derived from section titles.
const EVENT_FRAGMENTS: [&str; 8] = [
    "echo",
    "timestamp",
    "information",
    "destination_unreachable",
    "time_exceeded",
    "parameter_problem",
    "source_quench",
    "redirect",
];

/// Dense index of an event's kind into [`EVENT_FRAGMENTS`] and the
/// per-adapter function-index cache (payload-carrying variants share a
/// kind regardless of payload).
fn event_kind(event: IcmpEvent) -> usize {
    match event {
        IcmpEvent::EchoRequest => 0,
        IcmpEvent::TimestampRequest => 1,
        IcmpEvent::InfoRequest => 2,
        IcmpEvent::DestinationUnreachable => 3,
        IcmpEvent::TimeExceeded => 4,
        IcmpEvent::ParameterProblem(_) => 5,
        IcmpEvent::SourceQuench => 6,
        IcmpEvent::Redirect(_) => 7,
    }
}

/// An [`IcmpResponder`] backed by a SAGE-generated program: the role the
/// generated code plays in the §6.2 end-to-end experiments.
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedResponder {
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    runner: Runner<2>,
    fn_index: [Option<usize>; 8],
}

/// Resolve the function index for one event fragment: prefer the
/// receiver-side function for the matching message, falling back to the
/// first role-less match.
fn resolve_fragment(functions: &[Function], fragment: &str) -> Option<usize> {
    let mut first = None;
    for (i, f) in functions.iter().enumerate() {
        if f.name.contains(fragment) {
            if f.role == "receiver" {
                return Some(i);
            }
            if first.is_none() {
                first = Some(i);
            }
        }
    }
    first
}

impl GeneratedResponder {
    /// Wrap a generated program, lowering it to bytecode.
    pub fn new(program: Program) -> GeneratedResponder {
        let fn_index =
            EVENT_FRAGMENTS.map(|fragment| resolve_fragment(&program.functions, fragment));
        GeneratedResponder {
            errors: Vec::new(),
            runner: Runner::new(program, "icmp", ["next_gateway", "error_octet"]),
            fn_index,
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> GeneratedResponder {
        self.runner.mode = mode;
        self
    }

    /// The engine packets actually execute on.
    pub fn engine(&self) -> ExecMode {
        self.runner.engine()
    }

    /// The compiled bytecode, when the program lowered.
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.runner.compiled.as_ref()
    }

    /// Select the function for an event: prefer the receiver-side function
    /// for the matching message, falling back to the role-less one.
    pub fn function_for(&self, event: IcmpEvent) -> Option<&Function> {
        self.fn_index[event_kind(event)].map(|i| &self.runner.program.functions[i])
    }
}

impl IcmpResponder for GeneratedResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_index[event_kind(event)]?;
        let seeds = match event {
            IcmpEvent::Redirect(gateway) => [i64::from(gateway), 0],
            IcmpEvent::ParameterProblem(pointer) => [0, i64::from(pointer)],
            _ => [0, 0],
        };
        let (reply, src, dst) = env::reply_scaffold(event, original);
        let frame = Frame {
            request: original.as_bytes(),
            reply,
            src,
            dst,
            sessions: &[],
        };
        self.runner
            .run(&[idx], seeds, frame, &mut self.errors)?
            .reply()
    }
}

/// The state-variable names a BFD endpoint exchanges with generated code,
/// in slot order: pre-allocated as lowering externals so each gets a slot
/// even when a program never mentions it.  The order fixes the slot
/// layout of every lowered BFD program.
const BFD_EXTERNALS: [&str; 12] = [
    "bfd.SessionState",
    "bfd.RemoteSessionState",
    "bfd.RemoteDiscr",
    "bfd.RemoteDemandMode",
    "periodic_transmission_active",
    "admindown",
    "down",
    "init",
    "up",
    "Up",
    "nonzero",
    "session_found",
];

/// An IGMP host backed by a SAGE-generated program: answers Host Membership
/// Queries with reports for the group it belongs to (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedIgmpResponder {
    /// The host group this host reports membership of.
    pub group: u32,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    runner: Runner<1>,
    fn_idx: Option<usize>,
}

impl GeneratedIgmpResponder {
    /// Wrap a generated program for a host in `group`.
    pub fn new(program: Program, group: u32) -> GeneratedIgmpResponder {
        GeneratedIgmpResponder {
            group,
            errors: Vec::new(),
            fn_idx: program
                .functions
                .iter()
                .position(|f| f.name.starts_with("igmp")),
            runner: Runner::new(program, "igmp", ["reported_group"]),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.runner.mode = mode;
        self
    }
}

impl IgmpResponderTrait for GeneratedIgmpResponder {
    fn respond(&mut self, query: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        let seeds = [i64::from(self.group)];
        let frame = Frame::message(query.clone());
        self.runner
            .run(&[idx], seeds, frame, &mut self.errors)?
            .reply()
    }
}

/// The Table 11 timeout decision made by SAGE-generated code (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedNtpTimeoutPolicy {
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    runner: Runner<5>,
    fn_idx: Option<usize>,
}

impl GeneratedNtpTimeoutPolicy {
    /// Wrap a generated program.
    pub fn new(program: Program) -> GeneratedNtpTimeoutPolicy {
        GeneratedNtpTimeoutPolicy {
            errors: Vec::new(),
            fn_idx: program
                .functions
                .iter()
                .position(|f| f.name.contains("timeout")),
            runner: Runner::new(
                program,
                "ntp",
                [
                    "peer.timer",
                    "peer.threshold",
                    "client_mode",
                    "symmetric_mode",
                    "timeout_procedure_called",
                ],
            ),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.runner.mode = mode;
        self
    }
}

impl NtpTimeoutPolicy for GeneratedNtpTimeoutPolicy {
    fn timeout_due(&mut self, peer: &ntp::PeerVariables) -> bool {
        let Some(idx) = self.fn_idx else {
            return false;
        };
        let seeds = [
            peer.timer as i64,
            peer.threshold as i64,
            i64::from(peer.mode == ntp::mode::CLIENT),
            i64::from(matches!(
                peer.mode,
                ntp::mode::SYMMETRIC_ACTIVE | ntp::mode::SYMMETRIC_PASSIVE
            )),
            0,
        ];
        let frame = Frame::message(PacketBuf::new());
        self.runner
            .run(&[idx], seeds, frame, &mut self.errors)
            .is_some_and(|out| out.vars[4] != 0)
    }
}

/// An NTP server backed by a SAGE-generated program: forms the server-mode
/// reply to a client request (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedNtpServer {
    /// The stratum the server answers with.
    pub stratum: u8,
    /// The server clock, used for the receive and transmit timestamps.
    pub clock: u64,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    runner: Runner<2>,
    fn_idx: Option<usize>,
}

impl GeneratedNtpServer {
    /// Wrap a generated program for a server at `stratum` with `clock`.
    pub fn new(program: Program, stratum: u8, clock: u64) -> GeneratedNtpServer {
        GeneratedNtpServer {
            stratum,
            clock,
            errors: Vec::new(),
            fn_idx: program
                .functions
                .iter()
                .position(|f| f.name.contains("data_format")),
            runner: Runner::new(program, "ntp", ["server_stratum", "server_clock"]),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.runner.mode = mode;
        self
    }
}

impl NtpServer for GeneratedNtpServer {
    fn respond(&mut self, request: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        let seeds = [i64::from(self.stratum), self.clock as i64];
        let frame = Frame::message(request.clone());
        self.runner
            .run(&[idx], seeds, frame, &mut self.errors)?
            .reply()
    }
}

/// One side of a BFD session driven by SAGE-generated state-management code
/// (§6.4): plugs into [`sage_netsim::tools::bfd_session::session_bring_up`].
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedBfdEndpoint {
    /// The local session variables, updated by the generated code.
    pub session: bfd::SessionVariables,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    runner: Runner<12>,
    reception_indices: Vec<usize>,
    reply_buf: PacketBuf,
}

impl GeneratedBfdEndpoint {
    /// A Down session with the given local/remote discriminator pair.
    pub fn new(program: Program, local_discr: u32, remote_discr: u32) -> GeneratedBfdEndpoint {
        let reception_indices = program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.contains("reception"))
            .map(|(i, _)| i)
            .collect();
        GeneratedBfdEndpoint {
            session: bfd::SessionVariables {
                local_discr,
                remote_discr,
                ..bfd::SessionVariables::default()
            },
            errors: Vec::new(),
            runner: Runner::new(program, "bfd", BFD_EXTERNALS),
            reception_indices,
            reply_buf: PacketBuf::new(),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.runner.mode = mode;
        self
    }
}

impl BfdEndpoint for GeneratedBfdEndpoint {
    fn state(&self) -> bfd::SessionState {
        self.session.session_state
    }

    fn receive(&mut self, packet: &PacketBuf) {
        let session = &mut self.session;
        let code = |state: bfd::SessionState| i64::from(state.code());
        // The session variables, then the state-name constants; `Up`,
        // `nonzero` and `session_found` start at 0.
        let seeds = [
            code(session.session_state),
            code(session.remote_session_state),
            i64::from(session.remote_discr),
            i64::from(session.remote_demand_mode),
            i64::from(session.periodic_transmission_active),
            code(bfd::SessionState::AdminDown),
            code(bfd::SessionState::Down),
            code(bfd::SessionState::Init),
            code(bfd::SessionState::Up),
            0,
            0,
            0,
        ];
        let sessions = [i64::from(session.local_discr)];
        let mut reply = std::mem::take(&mut self.reply_buf);
        reply.copy_from(packet.as_bytes());
        let frame = Frame {
            sessions: &sessions,
            ..Frame::message(reply)
        };
        let Some(out) = self
            .runner
            .run(&self.reception_indices, seeds, frame, &mut self.errors)
        else {
            return;
        };
        self.reply_buf = out.reply;
        if out.discarded {
            return;
        }
        let [state, remote_state, remote_discr, remote_demand, periodic, ..] = out.vars;
        session.session_state =
            bfd::SessionState::from_code(state as u8).unwrap_or(session.session_state);
        session.remote_session_state = bfd::SessionState::from_code(remote_state as u8)
            .unwrap_or(session.remote_session_state);
        session.remote_discr = remote_discr as u32;
        session.remote_demand_mode = remote_demand != 0;
        session.periodic_transmission_active = periodic != 0 && !out.transmission_ceased;
    }

    fn control_packet(&self) -> PacketBuf {
        bfd::build_control_packet(
            self.session.session_state,
            self.session.local_discr,
            self.session.remote_discr,
            3,
            self.session.demand_mode,
        )
    }
}

/// A protocol-dispatching registry of generated programs: the multi-protocol
/// responder surface.  Register one [`Program`] per protocol (keyed by name,
/// case-insensitive), then hand out the protocol-specific adapter.
#[derive(Debug, Clone, Default)]
pub struct ResponderRegistry {
    programs: BTreeMap<String, Program>,
}

impl ResponderRegistry {
    /// An empty registry.
    pub fn new() -> ResponderRegistry {
        ResponderRegistry::default()
    }

    /// Register (or replace) the generated program for `protocol`.
    pub fn register(&mut self, protocol: &str, program: Program) {
        self.programs.insert(protocol.to_ascii_lowercase(), program);
    }

    /// The program registered for `protocol`, if any.
    pub fn program(&self, protocol: &str) -> Option<&Program> {
        self.programs.get(&protocol.to_ascii_lowercase())
    }

    /// The registered protocol names, sorted.
    pub fn protocols(&self) -> Vec<&str> {
        self.programs.keys().map(String::as_str).collect()
    }

    /// An ICMP responder over the registered ICMP program.
    pub fn icmp_responder(&self) -> Option<GeneratedResponder> {
        Some(GeneratedResponder::new(self.program("icmp")?.clone()))
    }

    /// An IGMP host (member of `group`) over the registered IGMP program.
    pub fn igmp_responder(&self, group: u32) -> Option<GeneratedIgmpResponder> {
        Some(GeneratedIgmpResponder::new(
            self.program("igmp")?.clone(),
            group,
        ))
    }

    /// The Table 11 timeout policy over the registered NTP program.
    pub fn ntp_timeout_policy(&self) -> Option<GeneratedNtpTimeoutPolicy> {
        Some(GeneratedNtpTimeoutPolicy::new(self.program("ntp")?.clone()))
    }

    /// An NTP server over the registered NTP program.
    pub fn ntp_server(&self, stratum: u8, clock: u64) -> Option<GeneratedNtpServer> {
        Some(GeneratedNtpServer::new(
            self.program("ntp")?.clone(),
            stratum,
            clock,
        ))
    }

    /// A BFD endpoint over the registered BFD program.
    pub fn bfd_endpoint(
        &self,
        local_discr: u32,
        remote_discr: u32,
    ) -> Option<GeneratedBfdEndpoint> {
        Some(GeneratedBfdEndpoint::new(
            self.program("bfd")?.clone(),
            local_discr,
            remote_discr,
        ))
    }
}

/// Build kernel scenarios wired to this registry's generated programs: one
/// per registered protocol, named `<protocol>/generated`, each exercising
/// the same exchange as its `<protocol>/reference` counterpart but with the
/// SAGE-generated code in the pluggable role.  Adapters run on the bytecode
/// VM (the default [`ExecMode`]).
pub fn generated_scenarios(registry: &ResponderRegistry) -> ScenarioRegistry {
    generated_registry(registry, ExecMode::Vm, Drive::Once)
}

/// [`generated_scenarios`] with every adapter pinned to `mode`: parity
/// suites build one registry per engine and compare kernel traces
/// bit-for-bit.
pub fn generated_scenarios_in_mode(
    registry: &ResponderRegistry,
    mode: ExecMode,
) -> ScenarioRegistry {
    generated_registry(registry, mode, Drive::Once)
}

/// The chaos-recovery scenarios with SAGE-generated code in the pluggable
/// roles, named `<protocol>/chaos-generated`: the same protocol scenarios
/// under [`Drive::Recover`], so the chaos campaign exercises the generated
/// responders under crashes, restarts and flaps.
pub fn generated_chaos_scenarios_in_mode(
    registry: &ResponderRegistry,
    mode: ExecMode,
) -> ScenarioRegistry {
    generated_registry(registry, mode, Drive::Recover)
}

/// [`generated_chaos_scenarios_in_mode`] on the bytecode VM (the default
/// engine the chaos campaign runs generated code on).
pub fn generated_chaos_scenarios(registry: &ResponderRegistry) -> ScenarioRegistry {
    generated_registry(registry, ExecMode::Vm, Drive::Recover)
}

/// One protocol scenario under `drive` per registered program, every
/// adapter on `mode`.
fn generated_registry(
    registry: &ResponderRegistry,
    mode: ExecMode,
    drive: Drive,
) -> ScenarioRegistry {
    let name = |protocol: &str| match drive {
        Drive::Once => format!("{protocol}/generated"),
        Drive::Recover => format!("{protocol}/chaos-generated"),
    };
    let mut scenarios = ScenarioRegistry::new();
    if registry.program("icmp").is_some() {
        let reg = registry.clone();
        scenarios.register(Arc::new(scenario::PingScenario::new(
            &name("ping"),
            drive,
            Arc::new(move || Box::new(reg.icmp_responder().expect("icmp program").with_mode(mode))),
        )));
    }
    if registry.program("igmp").is_some() {
        let reg = registry.clone();
        let group = sage_netsim::headers::ipv4::addr(224, 0, 0, 251);
        scenarios.register(Arc::new(scenario::IgmpScenario::new(
            &name("igmp"),
            drive,
            group,
            Arc::new(move || {
                Box::new(
                    reg.igmp_responder(group)
                        .expect("igmp program")
                        .with_mode(mode),
                )
            }),
        )));
    }
    if registry.program("ntp").is_some() {
        let policy_reg = registry.clone();
        let server_reg = registry.clone();
        scenarios.register(Arc::new(scenario::NtpScenario::new(
            &name("ntp"),
            drive,
            Arc::new(move || {
                Box::new(
                    policy_reg
                        .ntp_timeout_policy()
                        .expect("ntp program")
                        .with_mode(mode),
                )
            }),
            Arc::new(move || {
                Box::new(
                    server_reg
                        .ntp_server(2, 0x1000)
                        .expect("ntp program")
                        .with_mode(mode),
                )
            }),
            ntp::PeerVariables {
                timer: 64,
                threshold: 64,
                mode: ntp::mode::CLIENT,
            },
            0xDEAD_BEEF,
        )));
    }
    if registry.program("bfd").is_some() {
        let reg = registry.clone();
        let factory: scenario::BfdFactory = Arc::new(move |local, remote| {
            Box::new(
                reg.bfd_endpoint(local, remote)
                    .expect("bfd program")
                    .with_mode(mode),
            )
        });
        scenarios.register(Arc::new(scenario::BfdScenario::new(
            &name("bfd"),
            drive,
            factory.clone(),
            factory,
            (7, 9),
            (9, 7),
        )));
    }
    scenarios
}

#[cfg(test)]
#[allow(deprecated)] // the legacy driver stays as the oracle these adapters are tested against
mod tests {
    use super::*;
    use sage_codegen::ir::{Expr, Stmt};
    use sage_netsim::headers::{icmp, ipv4};
    use sage_netsim::net::{Network, ReferenceResponder, RouterAction};
    use sage_netsim::tools::ping::ping_once;

    /// A hand-assembled program equivalent to what the pipeline generates
    /// for the echo-reply sentence G (used to test the adapter in isolation;
    /// the full pipeline is exercised in `sage-core` and the integration
    /// tests).
    fn echo_reply_program() -> Program {
        Program {
            structs: vec![],
            functions: vec![Function {
                name: "icmp_echo_or_echo_reply_message_receiver".into(),
                role: "receiver".into(),
                body: vec![
                    Stmt::Call {
                        name: "reverse_source_and_destination".into(),
                        args: vec![],
                    },
                    Stmt::Assign {
                        target: Expr::field("icmp", "type"),
                        value: Expr::Num(0),
                    },
                    Stmt::Call {
                        name: "compute_checksum".into(),
                        args: vec![],
                    },
                ],
            }],
        }
    }

    #[test]
    fn generated_echo_reply_interoperates_with_ping() {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(echo_reply_program());
        let outcome = ping_once(
            &mut net,
            &mut responder,
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            0x99,
            5,
            b"0123456789abcdef",
        );
        assert!(outcome.success(), "{outcome:?}");
        assert!(responder.errors.is_empty());
    }

    #[test]
    fn generated_reply_matches_reference_reply() {
        let mut net = Network::appendix_a();
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let req = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let gen_action =
            net.router_process(&req, 0, &mut GeneratedResponder::new(echo_reply_program()));
        let ref_action = net.router_process(&req, 0, &mut ReferenceResponder);
        let (RouterAction::IcmpReply(g), RouterAction::IcmpReply(r)) = (gen_action, ref_action)
        else {
            panic!("expected replies");
        };
        assert_eq!(ipv4::payload(&g), ipv4::payload(&r));
    }

    #[test]
    fn missing_function_yields_no_reply() {
        let mut responder = GeneratedResponder::new(Program::default());
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let req = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        assert!(responder.respond(IcmpEvent::EchoRequest, &req).is_none());
    }

    #[test]
    fn function_selection_prefers_receiver_role() {
        let mut program = echo_reply_program();
        program.functions.push(Function {
            name: "icmp_echo_or_echo_reply_message_sender".into(),
            role: "sender".into(),
            body: vec![],
        });
        let responder = GeneratedResponder::new(program);
        let f = responder.function_for(IcmpEvent::EchoRequest).unwrap();
        assert_eq!(f.role, "receiver");
    }

    fn bfd_reception_program() -> Program {
        // if (bfd_hdr->your_discriminator != 0) { if (!select_session()) discard; }
        // bfd.RemoteDiscr = bfd_hdr->my_discriminator;
        // if (demand && state==up && remote==up) cease_periodic_transmission();
        Program {
            structs: vec![],
            functions: vec![Function {
                name: "bfd_reception_of_bfd_control_packets_receiver".into(),
                role: "receiver".into(),
                body: vec![
                    Stmt::If {
                        cond: Expr::binop(
                            "!=",
                            Expr::field("bfd", "your_discriminator"),
                            Expr::Num(0),
                        ),
                        then: vec![Stmt::If {
                            cond: Expr::Not(Box::new(Expr::Call {
                                name: "select_session".into(),
                                args: vec![],
                            })),
                            then: vec![Stmt::Call {
                                name: "discard_packet".into(),
                                args: vec![],
                            }],
                            els: vec![],
                        }],
                        els: vec![],
                    },
                    Stmt::Assign {
                        target: Expr::Var("bfd.RemoteDiscr".into()),
                        value: Expr::field("bfd", "my_discriminator"),
                    },
                    Stmt::Assign {
                        target: Expr::Var("bfd.RemoteDemandMode".into()),
                        value: Expr::field("bfd", "demand"),
                    },
                    Stmt::If {
                        cond: Expr::binop(
                            "&&",
                            Expr::binop(
                                "&&",
                                Expr::binop(
                                    "==",
                                    Expr::Var("bfd.RemoteDemandMode".into()),
                                    Expr::Num(1),
                                ),
                                Expr::binop(
                                    "==",
                                    Expr::Var("bfd.SessionState".into()),
                                    Expr::Var("up".into()),
                                ),
                            ),
                            Expr::binop(
                                "==",
                                Expr::Var("bfd.RemoteSessionState".into()),
                                Expr::Var("up".into()),
                            ),
                        ),
                        then: vec![Stmt::Call {
                            name: "cease_periodic_transmission".into(),
                            args: vec![],
                        }],
                        els: vec![],
                    },
                ],
            }],
        }
    }

    /// An Up endpoint for local discriminator `local` on `mode`, checked
    /// to really execute there.
    fn up_endpoint(local: u32, mode: ExecMode) -> GeneratedBfdEndpoint {
        let mut ep = GeneratedBfdEndpoint::new(bfd_reception_program(), local, 0).with_mode(mode);
        assert_eq!(ep.runner.engine(), mode);
        ep.session.session_state = bfd::SessionState::Up;
        ep
    }

    #[test]
    fn generated_bfd_endpoint_selects_sessions_and_updates_state() {
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(5, mode);
            ep.session.remote_session_state = bfd::SessionState::Up;
            // Known session, remote in demand mode and Up: accept + cease.
            ep.receive(&bfd::build_control_packet(
                bfd::SessionState::Up,
                42,
                5,
                3,
                true,
            ));
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
            assert_eq!(ep.session.remote_discr, 42, "{mode:?}");
            assert!(ep.session.remote_demand_mode, "{mode:?}");
            assert!(!ep.session.periodic_transmission_active, "{mode:?}");
            assert_eq!(ep.state(), bfd::SessionState::Up, "{mode:?}");
        }
    }

    #[test]
    fn generated_bfd_endpoint_discards_unknown_sessions() {
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(5, mode);
            ep.receive(&bfd::build_control_packet(
                bfd::SessionState::Up,
                42,
                999,
                3,
                false,
            ));
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
            assert_eq!(ep.session.remote_discr, 0, "{mode:?}: bookkeeping ran");
            assert!(ep.session.periodic_transmission_active, "{mode:?}");
            assert_eq!(ep.state(), bfd::SessionState::Up, "{mode:?}");
        }
    }

    #[test]
    fn registry_dispatches_by_protocol_name() {
        let mut reg = ResponderRegistry::new();
        reg.register("ICMP", echo_reply_program());
        reg.register("bfd", bfd_reception_program());
        assert_eq!(reg.protocols(), vec!["bfd", "icmp"]);
        assert!(reg.program("Icmp").is_some());
        assert!(reg.icmp_responder().is_some());
        assert!(
            reg.igmp_responder(1).is_none(),
            "no IGMP program registered"
        );
        assert!(reg.ntp_server(2, 1).is_none());
        assert!(reg.bfd_endpoint(1, 2).is_some());
    }

    #[test]
    fn generated_bfd_endpoint_discards_malformed_packets() {
        let mut ep = GeneratedBfdEndpoint::new(bfd_reception_program(), 9, 7);
        // Unknown session: state must not move, bookkeeping must not run.
        ep.receive(&bfd::build_control_packet(
            bfd::SessionState::Down,
            7,
            999,
            3,
            false,
        ));
        assert_eq!(ep.state(), bfd::SessionState::Down);
        assert_eq!(ep.session.remote_discr, 7);
        assert!(ep.errors.is_empty());
    }

    #[test]
    fn generated_bfd_endpoint_matches_reference_behaviour() {
        // The generated behaviour must agree with the hand-written
        // reference receiver in netsim for the same packets: a packet is
        // accepted exactly when its bookkeeping updates the remote
        // discriminator.
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(7, mode);
            let mut table = bfd::SessionTable::new();
            table.add(bfd::SessionVariables {
                session_state: bfd::SessionState::Up,
                local_discr: 7,
                ..Default::default()
            });
            for (my, your, demand) in [(41u32, 7u32, true), (42, 7, false), (43, 999, false)] {
                let pkt = bfd::build_control_packet(bfd::SessionState::Up, my, your, 3, demand);
                ep.receive(&pkt);
                let accepted = ep.session.remote_discr == my;
                match bfd::receive_control_packet(&mut table, &pkt) {
                    bfd::ReceiveAction::Accepted => assert!(accepted, "{mode:?} my={my}"),
                    bfd::ReceiveAction::Discarded(_) => assert!(!accepted, "{mode:?} my={my}"),
                }
            }
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
        }
    }
}
