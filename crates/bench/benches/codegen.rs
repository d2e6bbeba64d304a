//! Criterion benchmarks for code generation (Tables 4 and 11) and the full
//! RFC-792 program-generation workload.

use criterion::{criterion_group, criterion_main, Criterion};
use sage_codegen::handlers::generate_stmts;
use sage_codegen::program::{assemble_message_functions, AnnotatedLf};
use sage_core::generate_program;
use sage_logic::parse_lf;
use sage_spec::context::{ContextDict, Role};
use sage_spec::corpus::Protocol;

fn bench_single_lf_to_code(c: &mut Criterion) {
    let ctx = ContextDict {
        protocol: "ICMP".into(),
        message: "Destination Unreachable Message".into(),
        field: "type".into(),
        role: Role::Both,
    };
    let table4 = parse_lf("@Is('type', '3')").unwrap();
    let table11 = parse_lf(
        "@If(@And(@Compare('>=', 'peer.timer', 'peer.threshold'), @Or('client mode', 'symmetric mode')), @Action('timeout_procedure'))",
    )
    .unwrap();
    let mut group = c.benchmark_group("lf_to_code");
    group.bench_function("table4_assignment", |b| {
        b.iter(|| generate_stmts(&table4, &ctx))
    });
    group.bench_function("table11_conditional", |b| {
        b.iter(|| generate_stmts(&table11, &ctx))
    });
    group.finish();
}

fn bench_message_assembly(c: &mut Criterion) {
    let annotated: Vec<AnnotatedLf> = sage_core::icmp::rewritten_resolutions()
        .into_iter()
        .map(|(section, role, sentence, lf)| AnnotatedLf {
            lf,
            context: ContextDict {
                protocol: "ICMP".into(),
                message: section,
                field: String::new(),
                role,
            },
            sentence: sentence.to_string(),
        })
        .collect();
    c.bench_function("assemble_icmp_functions", |b| {
        b.iter(|| assemble_message_functions(&annotated))
    });
}

fn bench_full_program_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("program_generation");
    group.sample_size(10);
    for (id, protocol) in [
        ("rfc792_full_program", Protocol::Icmp),
        ("rfc1112_igmp_program", Protocol::Igmp),
        ("rfc1059_ntp_program", Protocol::Ntp),
        ("rfc5880_bfd_program", Protocol::Bfd),
    ] {
        group.bench_function(id, |b| b.iter(|| generate_program(protocol)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_lf_to_code,
    bench_message_assembly,
    bench_full_program_generation
);
criterion_main!(benches);
