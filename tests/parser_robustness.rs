//! Parser robustness: seeded random edits of the example queries, fed to
//! every text entry point (`Query::parse`, `Query::parse_with_filter`,
//! `ProjectedQuery::parse`). Each input must come back `Ok` or as a typed
//! error; a parse error must name a byte offset inside the input. A
//! tokenizer that stops advancing hangs this test instead of passing it.
//!
//! What the entry points answer on the edited inputs is pinned as well, by
//! a digest recorded before the parsers and the well-designedness check
//! were rewritten: the same forests, the same errors at the same offsets,
//! the same first violation of well-designedness.

use std::sync::Once;
use wdsparql::core::QueryError;
use wdsparql::project::ProjectError;
use wdsparql::{ProjectedQuery, Query};

/// The query texts of `examples/`, both surface syntaxes.
const SEEDS: &[&str] = &[
    "((?x, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)",
    "(((?p, venue, PODS) OPT (?p, abstract, ?a)) OPT (?p, award, ?w))",
    "((?p, cites, ?q) AND (?q, award, BestPaper)) OPT ((?q, cites, ?r) OPT (?r, abstract, ?ra))",
    "((?p, venue, PODS) OPT (?p, year, ?y)) UNION ((?p, venue, ICDT) OPT (?p, year, ?y))",
    "(((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c))",
    "((?a, knows, ?b) OPT ((?b, wrote, ?post) OPT (?post, topic, ?t)))",
    "((?p, knows, ?q) OPT (?q, email, ?e)) UNION ((?p, knows, ?q) OPT (?q, city, ?c))",
    "(?x, <http://ex/p>, ?y)",
    "{ ?x knows ?y OPTIONAL { ?y email ?e } OPTIONAL { ?y city ?c } }",
    "{ ?x knows ?y OPTIONAL { ?y email ?e } FILTER(?x != ?y && BOUND(?e)) }",
    "SELECT ?p ?o WHERE { ?p type Professor . ?p teaches ?c OPTIONAL { ?p office ?o } }",
    "SELECT * WHERE { { ?x p ?y } UNION { ?x <q> ?y } }",
];

/// What an edit may insert: every byte the two grammars give a meaning
/// to, keyword fragments, plain words and a multi-byte character.
const PIECES: &[&str] = &[
    "(", ")", ",", "<", ">", "?", "{", "}", ".", "*", "=", "!", "&", "|", "!=", "&&", "||", " ",
    "x", "?v", "<a>", "AND", "OPT", "UNION", "SELECT", "WHERE", "FILTER", "BOUND", "é", "\t",
];

const INPUTS: usize = 20_000;

/// FNV-1a over every input and the `Display` of each entry point's answer
/// on it (the forest, or the error), recorded before the rewrite.
const ANSWERS_DIGEST: u64 = 0x7476_19d4_5d78_94e3;

/// A forest prints its nodes' triples in the order of their terms'
/// interned ids, and an `OptScope` error names the violating variable
/// with the smallest id, so the digest needs one interning order per
/// process. Every test here first parses the seeds, in order, and the
/// two loops over the edited inputs make the same calls in the same
/// order: the names then enter the vocabulary in one order, however the
/// test threads interleave.
fn intern_the_seeds() {
    static SEEDED: Once = Once::new();
    SEEDED.call_once(|| {
        for text in SEEDS {
            let _ = Query::parse(text);
            let _ = Query::parse_with_filter(text);
            let _ = ProjectedQuery::parse(text);
        }
    });
}

/// splitmix64: a dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to four random edits (insert, delete, replace, duplicate a span,
/// truncate) of `text`, on character boundaries.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(chars.len() + 1);
        match rng.below(5) {
            0 => {
                let piece = PIECES[rng.below(PIECES.len())];
                chars.splice(at..at, piece.chars());
            }
            1 if at < chars.len() => {
                chars.remove(at);
            }
            2 if at < chars.len() => {
                let piece = PIECES[rng.below(PIECES.len())];
                chars.splice(at..at + 1, piece.chars());
            }
            3 => {
                let end = (at + 1 + rng.below(8)).min(chars.len());
                let span: Vec<char> = chars[at.min(end)..end].to_vec();
                chars.splice(end..end, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// A parse error message must read `parse error at byte N: …` with `N`
/// no further than the end of the input.
fn assert_positioned(message: &str, input: &str) {
    let offset = message
        .strip_prefix("parse error at byte ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("unpositioned parse error {message:?} on {input:?}"));
    assert!(
        offset <= input.len(),
        "offset {offset} past the end of {input:?}"
    );
}

#[test]
fn edited_example_queries_parse_or_fail_with_a_position() {
    intern_the_seeds();
    let mut rng = Rng(42);
    for i in 0..INPUTS {
        let input = mutate(SEEDS[i % SEEDS.len()], &mut rng);
        if let Err(QueryError::Parse(m)) = Query::parse(&input) {
            assert_positioned(&m, &input);
        }
        if let Err(QueryError::Parse(m)) = Query::parse_with_filter(&input) {
            assert_positioned(&m, &input);
        }
        if let Err(ProjectError::Parse(m)) = ProjectedQuery::parse(&input) {
            assert_positioned(&m, &input);
        }
    }
}

#[test]
fn the_unedited_example_queries_parse() {
    intern_the_seeds();
    for text in SEEDS {
        let parsed = if text.contains("FILTER") {
            Query::parse_with_filter(text).map(|(q, _)| q)
        } else {
            Query::parse(text)
        };
        assert!(parsed.is_ok(), "{text}: {:?}", parsed.err());
    }
}

/// FNV-1a, 64 bits, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn edited_example_queries_answer_as_recorded() {
    intern_the_seeds();
    let mut rng = Rng(42);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for i in 0..INPUTS {
        let input = mutate(SEEDS[i % SEEDS.len()], &mut rng);
        let answers = [
            Query::parse(&input).map_or_else(|e| e.to_string(), |q| q.forest().to_string()),
            Query::parse_with_filter(&input)
                .map_or_else(|e| e.to_string(), |(q, _)| q.forest().to_string()),
            ProjectedQuery::parse(&input)
                .map_or_else(|e| e.to_string(), |q| q.forest().to_string()),
        ];
        h = fnv1a(h, input.as_bytes());
        for answer in &answers {
            // 0xff never occurs in UTF-8: it keeps the fields apart.
            h = fnv1a(h, &[0xff]);
            h = fnv1a(h, answer.as_bytes());
        }
    }
    assert_eq!(h, ANSWERS_DIGEST, "answers differ: digest {h:#018x}");
}
