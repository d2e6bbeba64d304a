//! Code generation is pinned byte for byte: every protocol's emitted C and
//! bytecode lowering summary must match the benchmark oracle files under
//! `perfbench/expected/`, whether the program is generated from the
//! protocol's own corpus or from one batch analysis of the whole
//! four-corpus mixed batch.  The mixed-batch tests pin the protocol filter
//! of `generate_program_from`: another corpus's `type` or `code` sentences
//! must not leak into a program once the reports are mixed.

use sage_repro::core::batch::{BatchItem, BatchPipeline};
use sage_repro::core::pipeline::{PipelineReport, Sage};
use sage_repro::core::programs::{generate_program, generate_program_from, lowering_summary};
use sage_repro::logic::Lf;
use sage_repro::spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;

fn expected(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("perfbench/expected")
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn expected_c(protocol: Protocol) -> String {
    expected(&format!("{}.c", protocol.name().to_ascii_lowercase()))
}

#[test]
fn generated_programs_match_the_committed_c() {
    for protocol in Protocol::all() {
        assert!(
            generate_program(protocol).to_c() == expected_c(protocol),
            "{} emitted C differs from perfbench/expected",
            protocol.name()
        );
    }
}

#[test]
fn lowering_summaries_match_the_committed_lines() {
    let lines: Vec<String> = Protocol::all()
        .into_iter()
        .map(|protocol| {
            let s = lowering_summary(protocol)
                .unwrap_or_else(|e| panic!("{} refused to lower: {e}", protocol.name()));
            format!(
                "{} functions={} instructions={} slots={} max_regs={}",
                protocol.name().to_ascii_lowercase(),
                s.functions,
                s.instructions,
                s.slots,
                s.max_regs
            )
        })
        .collect();
    assert_eq!(lines.join("\n") + "\n", expected("lowering.txt"));
}

fn mixed_report() -> PipelineReport {
    let sage = Sage::default();
    BatchPipeline::new(&sage)
        .run(&BatchItem::mixed_corpus())
        .into_pipeline_report()
}

#[test]
fn programs_generated_from_the_mixed_batch_match_the_committed_c() {
    let report = mixed_report();
    for protocol in Protocol::all() {
        assert!(
            generate_program_from(protocol, &report).to_c() == expected_c(protocol),
            "{} generated from the mixed batch differs from perfbench/expected",
            protocol.name()
        );
    }
}

#[test]
fn another_corpus_type_assignment_does_not_leak_into_icmp() {
    // No other corpus resolves a plain `type` assignment today, so plant
    // one: a copy of an ICMP Type-idiom analysis, relabelled as IGMP and
    // resolved to a value no ICMP message uses.
    let mut report = mixed_report();
    let mut foreign = report
        .analyses
        .iter()
        .find(|a| {
            a.context.protocol == Protocol::Icmp.name()
                && a.resolved_lf() == Some(&Lf::is(Lf::atom("type"), Lf::num(3)))
        })
        .expect("an ICMP Type idiom sentence")
        .clone();
    foreign.context.protocol = Protocol::Igmp.name().to_string();
    foreign.trace.survivors = vec![Lf::is(Lf::atom("type"), Lf::num(99))];
    report.analyses.insert(0, foreign);
    let c = generate_program_from(Protocol::Icmp, &report).to_c();
    assert!(!c.contains("= 99;"), "IGMP analysis leaked into ICMP:\n{c}");
    assert!(c == expected_c(Protocol::Icmp));
}
