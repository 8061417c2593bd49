//! The `wdpf` translation pinned to a recorded dump: every forest below is
//! translated from text and printed with `Wdpf`'s `Display`, node order
//! included, and the whole dump must equal `fixtures/translate_golden.txt`
//! byte for byte. The fixture was written by the translation that built
//! an intermediate tree, unioned t-graphs pairwise and NR-normalised by
//! repeated rescans; any faster translation must give the same forests.
//!
//! One test function, so that the process interns names in one fixed
//! order: a node's triples print in the order of their terms' ids.
//!
//! Each forest is also held to `validate()` and `is_nr_normal_form()`,
//! which release builds of the translation no longer run.

use std::fmt::Write as _;
use wdsparql::algebra::{parse_pattern, parse_sparql, GraphPattern};
use wdsparql::tree::{pattern_from_wdpf, Wdpf};
use wdsparql::workloads::{
    chain_tree, clique_child_tree, example1_p1, example1_p2, example2_pattern, fk_forest,
    grid_child_tree, path_child_tree, random_wdpf, tprime_tree, RandomTreeParams,
};

const FIXTURE: &str = include_str!("fixtures/translate_golden.txt");

/// The depth of the right-nested OPT chain.
const CHAIN: usize = 500;

/// Appends `name`, then the forest of `p` (or the translation error).
fn dump(out: &mut String, name: &str, p: &GraphPattern) {
    writeln!(out, "== {name}").unwrap();
    match Wdpf::from_pattern(p) {
        Ok(f) => {
            for t in &f.trees {
                assert!(t.validate().is_ok(), "{name}: {:?}", t.validate());
                assert!(t.is_nr_normal_form(), "{name}");
            }
            write!(out, "{f}").unwrap();
        }
        Err(e) => writeln!(out, "error: {e}").unwrap(),
    }
}

/// A hand-built forest printed back as text, re-parsed and translated.
fn dump_reparsed(out: &mut String, name: &str, f: &Wdpf) {
    let text = pattern_from_wdpf(f).to_string();
    dump(
        out,
        name,
        &parse_pattern(&text).expect("printed patterns parse"),
    );
}

/// `(?v0, p, ?v1) OPT ((?v1, p, ?v2) OPT (… (?vn, p, ?vn+1)))`.
fn right_nested_chain(n: usize) -> String {
    let mut text = format!("(?v{n}, p, ?v{})", n + 1);
    for i in (0..n).rev() {
        text = format!("(?v{i}, p, ?v{}) OPT ({text})", i + 1);
    }
    text
}

/// FNV-1a, 64 bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn translations_match_the_recorded_forests() {
    let mut out = String::new();

    // The paper's families.
    dump(&mut out, "example1_p1", &example1_p1());
    dump(&mut out, "example1_p2", &example1_p2());
    dump(&mut out, "example2", &example2_pattern());
    for k in 2..=5 {
        dump_reparsed(&mut out, &format!("fk_forest({k})"), &fk_forest(k));
    }
    for k in [2, 3, 5] {
        let one = |t| Wdpf::new(vec![t]);
        dump_reparsed(&mut out, &format!("tprime({k})"), &one(tprime_tree(k)));
        dump_reparsed(
            &mut out,
            &format!("clique({k})"),
            &one(clique_child_tree(k)),
        );
        dump_reparsed(&mut out, &format!("path({k})"), &one(path_child_tree(k)));
        dump_reparsed(&mut out, &format!("chain({k})"), &one(chain_tree(k)));
    }
    dump_reparsed(
        &mut out,
        "grid(2x3)",
        &Wdpf::new(vec![grid_child_tree(2, 3)]),
    );

    // Random forests, printed back as text.
    for seed in 0..320 {
        let f = random_wdpf(RandomTreeParams::default(), seed);
        dump_reparsed(&mut out, &format!("random_wdpf({seed})"), &f);
    }

    // The query shapes of the `wd_eval` and `membership` benchmarks, and
    // the shapes the translation merges or drops nodes on.
    for text in [
        "((person1, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)",
        "((person1, knows, ?y) AND (?y, knows, ?z)) OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))",
        "((person1, knows, ?y) OPT (?y, email, ?e)) UNION ((person2, knows, ?y) OPT (?y, city, ?c))",
        "((?x, city, city1) AND (?x, knows, ?y)) OPT ((?y, wrote, ?w) OPT (?w, topic, topic2))",
        "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)",
        "((?x, knows, ?y) AND (?y, knows, ?z) AND (?z, knows, ?x)) OPT (?x, email, ?e)",
        "((?x, p, ?y) OPT (?y, q, ?x)) OPT ((?y, q, ?x) OPT (?x, r, ?w))",
        "(((?x, p, ?y) OPT (?z, q, ?x)) AND ((?y, r, ?u) OPT (?u, s, ?v))) OPT (?x, t, ?y)",
        "((?x, p, ?y) OPT (((?y, q, ?x) OPT (?x, r, ?a)) OPT (?y, r, ?b))) OPT (?y, q, ?c)",
        "((?x, p, ?y) OPT (?z, q, ?x)) AND (?z, r, ?w)",
        "((?x, p, ?y) UNION (?x, q, ?y)) AND (?y, r, ?z)",
    ] {
        dump(&mut out, text, &parse_pattern(text).expect("parses"));
    }
    for text in [
        "{ ?x city city1 OPTIONAL { ?x email ?e OPTIONAL { ?x wrote ?w } } }",
        "SELECT * WHERE { ?x knows ?y OPTIONAL { ?y email ?e } ?x city ?c }",
        "{ { ?x p ?y OPTIONAL { ?y q ?z } } UNION { ?x r ?y } }",
    ] {
        dump(&mut out, text, &parse_sparql(text).expect("parses"));
    }

    // A deep chain, as a digest of its dump: one node per level.
    let mut chain = String::new();
    let text = right_nested_chain(CHAIN);
    dump(&mut chain, "chain", &parse_pattern(&text).expect("parses"));
    writeln!(
        out,
        "== right-nested chain({CHAIN}): {} lines, fnv1a {:016x}",
        chain.lines().count(),
        fnv1a(chain.as_bytes())
    )
    .unwrap();

    if out != FIXTURE {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("translate_golden.txt");
        std::fs::write(&actual, &out).expect("write the actual dump");
        let line = out
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "the translation differs from the fixture from line {} on; the dump is in {}",
            line + 1,
            actual.display()
        );
    }
}
