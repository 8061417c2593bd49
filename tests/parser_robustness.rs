//! Parser robustness: seeded random edits of the example queries, fed to
//! every text entry point (`Query::parse`, `Query::parse_with_filter`,
//! `ProjectedQuery::parse`). Each input must come back `Ok` or as a typed
//! error; a parse error must name a byte offset inside the input. A
//! tokenizer that stops advancing hangs this test instead of passing it.

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
    for text in SEEDS {
        let parsed = if text.contains("FILTER") {
            Query::parse_with_filter(text).map(|(q, _)| q)
        } else {
            Query::parse(text)
        };
        assert!(parsed.is_ok(), "{text}: {:?}", parsed.err());
    }
}
