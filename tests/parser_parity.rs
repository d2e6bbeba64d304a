//! Differential parity suite for the interned CKY engine.
//!
//! The chart parser was rewritten around interned, id-compared items
//! (`sage_ccg::parser`); the pre-refactor boxed engine survives as
//! `sage_ccg::reference` and acts as the behavioural specification.  These
//! tests drive **every sentence of all four RFC corpora** through both
//! engines and assert they agree — first exactly (logical-form list, order,
//! fragment flag and chart-item count), then at the representation level
//! the refactor is allowed to guarantee: identical LF *sets* as canonical
//! arena ids.

use sage_ccg::{parse_sentence_cached, reference, Lexicon, ParserConfig, ParserWorkspace};
use sage_core::batch::BatchItem;
use sage_logic::{LfArena, LfId};
use sage_nlp::{ChunkerConfig, TermDictionary};
use sage_spec::corpus::Protocol;
use std::collections::BTreeSet;

/// Every sentence of the evaluation: the ICMP/IGMP/NTP documents plus the
/// BFD state-management sentence list, labelled by protocol.
fn corpus_sentences() -> Vec<(&'static str, Vec<String>)> {
    let mut out = Vec::new();
    for protocol in Protocol::all() {
        let sentences: Vec<String> = BatchItem::corpus(protocol)
            .into_iter()
            .map(|item| item.sentence.text)
            .collect();
        out.push((protocol.name(), sentences));
    }
    out
}

fn canonical_ids(forms: &[sage_logic::Lf], arena: &mut LfArena) -> BTreeSet<LfId> {
    forms
        .iter()
        .map(|lf| {
            let id = arena.intern_lf(lf);
            arena.canonical(id)
        })
        .collect()
}

fn assert_parity(config: ParserConfig, lexicon: &Lexicon) -> usize {
    let dict = TermDictionary::networking();
    let mut ws = ParserWorkspace::new(lexicon);
    let mut arena = LfArena::new();
    let mut compared = 0usize;
    for (label, sentences) in corpus_sentences() {
        for text in sentences {
            let oracle =
                reference::parse_sentence(&text, lexicon, &dict, ChunkerConfig::default(), config);
            let interned =
                parse_sentence_cached(&text, &mut ws, &dict, ChunkerConfig::default(), config);
            // Strict layer: the engines agree on everything, including LF
            // order, the fragment flag and the chart-effort counter.
            assert_eq!(interned, oracle, "{label}: engines diverged on {text:?}");
            // Representation layer (the refactor's contract): identical LF
            // sets as canonical arena ids.
            assert_eq!(
                canonical_ids(&interned.logical_forms, &mut arena),
                canonical_ids(&oracle.logical_forms, &mut arena),
                "{label}: canonical LF sets diverged on {text:?}"
            );
            compared += 1;
        }
    }
    compared
}

#[test]
fn interned_parser_matches_reference_on_all_corpora() {
    let compared = assert_parity(ParserConfig::default(), &Lexicon::bfd());
    assert!(
        compared > 100,
        "expected the four corpora to contribute >100 sentences, got {compared}"
    );
}

#[test]
fn parity_holds_with_fragments_disabled() {
    let config = ParserConfig {
        allow_fragments: false,
        ..ParserConfig::default()
    };
    assert_parity(config, &Lexicon::bfd());
}

#[test]
fn parity_holds_without_nominal_fallback() {
    let config = ParserConfig {
        unknown_nominals_as_np: false,
        ..ParserConfig::default()
    };
    assert_parity(config, &Lexicon::bfd());
}

#[test]
fn parity_holds_with_tight_cell_cap_and_icmp_lexicon() {
    // A small beam exercises the cap/dedup interaction; the ICMP-only
    // lexicon exercises the unknown-phrase fallback paths.
    let config = ParserConfig {
        max_items_per_cell: 6,
        ..ParserConfig::default()
    };
    assert_parity(config, &Lexicon::icmp());
}

#[test]
fn one_workspace_recycled_across_all_corpora_stays_deterministic() {
    // Parse the whole evaluation twice through one workspace; the second
    // pass (arenas warm, memo full) must reproduce the first bit-for-bit.
    let lexicon = Lexicon::bfd();
    let dict = TermDictionary::networking();
    let mut ws = ParserWorkspace::new(&lexicon);
    let config = ParserConfig::default();
    let mut first = Vec::new();
    for (_, sentences) in corpus_sentences() {
        for text in sentences {
            first.push(parse_sentence_cached(
                &text,
                &mut ws,
                &dict,
                ChunkerConfig::default(),
                config,
            ));
        }
    }
    let mut second = Vec::new();
    for (_, sentences) in corpus_sentences() {
        for text in sentences {
            second.push(parse_sentence_cached(
                &text,
                &mut ws,
                &dict,
                ChunkerConfig::default(),
                config,
            ));
        }
    }
    assert_eq!(first, second);
}
