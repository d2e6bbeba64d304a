//! The §6.4 BFD study end to end: generate the RFC 5880 §6.8.6 reception
//! procedure from the state-management corpus, then let two generated
//! endpoints bring a session up (Down → Init → Up) while the hand-written
//! reference pair does the same, and compare the traces.
//!
//! ```sh
//! cargo run --example bfd_session
//! ```

// Deliberately runs the deprecated synchronous driver: it is the oracle the
// kernel `Scenario` traces are pinned against (tests/scenario_parity.rs).
#![allow(deprecated)]

use sage_repro::core::programs::generate_program;
use sage_repro::interp::GeneratedBfdEndpoint;
use sage_repro::netsim::tools::bfd_session::{session_bring_up, ReferenceBfdEndpoint};
use sage_repro::spec::corpus::Protocol;

fn main() {
    println!("generating BFD reception code from the RFC 5880 §6.8.6 corpus...\n");
    let program = generate_program(Protocol::Bfd);

    println!("--- generated C-like source ---");
    if let Some(f) = program.function("reception") {
        println!("{}", f.to_c());
    }

    println!("--- session bring-up: generated endpoints ---");
    let mut a = GeneratedBfdEndpoint::new(program.clone(), 7, 9);
    let mut b = GeneratedBfdEndpoint::new(program, 9, 7);
    let generated = session_bring_up(&mut a, &mut b, 4);
    for (i, (sa, sb)) in generated.states.iter().enumerate() {
        println!("  after packet {i}: a={sa:?} b={sb:?}");
    }
    println!("  b state path: {:?}", generated.b_state_path());
    println!(
        "  session up: {}, captures clean: {}, exec errors: {}",
        generated.came_up,
        generated.decoded_clean,
        a.errors.len() + b.errors.len()
    );

    println!("\n--- session bring-up: reference endpoints ---");
    let mut ra = ReferenceBfdEndpoint::new(7, 9);
    let mut rb = ReferenceBfdEndpoint::new(9, 7);
    let reference = session_bring_up(&mut ra, &mut rb, 4);
    println!("  reference state trace: {:?}", reference.states);

    println!(
        "\noverall: {}",
        if generated.all_ok() && generated.states == reference.states {
            "generated BFD code matches the reference bring-up, Down -> Init -> Up"
        } else {
            "FAILURE — traces diverged or captures were not clean"
        }
    );
}
