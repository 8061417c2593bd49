//! Differential tests: the one-pass N-Triples parser against the parser
//! it replaced (`old_parser`, test-only) — the same graph on `Ok`, the
//! same line *and* message on `Err` — and against garbage, which must
//! never panic.
//!
//! Generated texts never start with U+FEFF: the new parser skips one
//! leading byte-order mark and the old one interned it into the first
//! subject, by design the only input they disagree on (unit-tested in
//! `src/ntriples.rs`).
//!
//! Replay a failure with `PROPTEST_SEED=<seed> cargo test -p wdsparql-rdf
//! --test ntriples_diff`.

mod old_parser;

use proptest::prelude::*;
use wdsparql_rdf::parse_ntriples;

/// Everything the grammar treats specially, and a few things it must not.
const PIECES: &[&str] = &[
    // Terms: bare, dotted, bracketed, with a `#` inside and outside
    // brackets, empty, unterminated, a bracket inside a bare word.
    "a", "b.", "p", "é", "日本", "<x y>", "<h#f>", "<a<b>", "<>", "<", ">", "w<x", "w>x", "x#y",
    "#", "# note", ".", "..",
    // Separators: ASCII, and the three wide ones named in the issue.
    " ", "  ", "\t", "\r", "\u{b}", "\u{a0}", "\u{2003}", "\u{3000}",
    // Letters that only look like separators or signatures.
    "\u{200b}", "\u{feff}",
];

fn agree(text: &str) -> Result<(), TestCaseError> {
    prop_assume!(!text.starts_with('\u{feff}'));
    let (new, old) = (parse_ntriples(text), old_parser::parse_ntriples(text));
    prop_assert_eq!(new, old, "on {:?}", text);
    Ok(())
}

/// A statement-shaped line: 0–7 terms (`wild`: of any kind; otherwise
/// three sound ones, so that texts also get past their first line), each
/// followed by one separator, with or without the dot and a comment.
fn arb_statement(wild: bool) -> impl Strategy<Value = String> {
    let term = if wild {
        prop_oneof![
            (0..14usize).prop_map(|i| PIECES[i].to_string()),
            "[a-z<>#.]{1,4}",
            "<[a-z #.<]{0,4}>",
            "<[a-z #.]{0,3}",
        ]
        .boxed()
    } else {
        prop_oneof![
            (0..8usize).prop_map(|i| PIECES[i].to_string()),
            "[a-c.]{1,3}",
            "<[a-c #.<]{1,4}>",
        ]
        .boxed()
    };
    let sep = (18..26usize).prop_map(|i| PIECES[i]);
    let arity = if wild { 0..8 } else { 3..4 };
    (
        proptest::collection::vec((term, sep), arity),
        0..4usize,
        0..3usize,
    )
        .prop_map(move |(terms, dot, comment)| {
            let mut line = String::new();
            for (term, sep) in terms {
                line.push_str(&term);
                line.push_str(sep);
            }
            line.push_str([".", " .", ". ", ""][if wild { dot } else { dot % 3 }]);
            line.push_str(["", "# c", " #<"][comment]);
            line
        })
}

/// A line of pieces in any order: mostly malformed, in every way at once.
fn arb_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

fn arb_text() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        arb_statement(false),
        arb_statement(false),
        arb_statement(false),
        arb_statement(true),
        arb_soup(),
        Just(String::new())
    ];
    proptest::collection::vec((line, any::<bool>()), 0..6).prop_map(|lines| {
        let mut text = String::new();
        for (line, crlf) in lines {
            text.push_str(&line);
            text.push_str(if crlf { "\r\n" } else { "\n" });
        }
        text
    })
}

/// splitmix64: the fuzz loops draw thousands of bytes per case.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_texts_parse_as_they_used_to(text in arb_text()) {
        agree(&text)?;
    }

    /// A text whose last line has no newline, and one that is a single
    /// line: `lines()` treats both ends specially.
    #[test]
    fn a_lone_line_parses_as_it_used_to(
        sound in arb_statement(false),
        wild in arb_statement(true),
        soup in arb_soup(),
    ) {
        agree(&sound)?;
        agree(&wild)?;
        agree(&soup)?;
        agree(&format!("a p b .\n{wild}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random bytes, skewed towards the grammar's own, made a string the
    /// way a careless caller would: no panic, and still the old answer.
    #[test]
    fn random_bytes_never_panic(seed in any::<u64>(), len in 0..200usize) {
        const OWN: &[u8] = b"<>#. \t\r\n\xc2\xa0\xe3\x80\x80\xef\xbb\xbf";
        let mut state = seed;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                let r = next(&mut state);
                match r % 4 {
                    0 => OWN[(r >> 8) as usize % OWN.len()],
                    1 => b'a' + ((r >> 8) % 4) as u8,
                    _ => (r >> 8) as u8,
                }
            })
            .collect();
        agree(&String::from_utf8_lossy(&bytes))?;
    }

    /// Valid lines cut and glued at random char boundaries.
    #[test]
    fn spliced_valid_lines_never_panic(seed in any::<u64>(), cuts in 1..12usize) {
        let valid = "a p b .\n<http://x#f> <p q> c. # t\r\n\u{3000}é\u{a0}p\u{2003}<ü b>\t.\n# only\n\n";
        let bounds: Vec<usize> = valid.char_indices().map(|(i, _)| i).chain([valid.len()]).collect();
        let mut state = seed;
        let mut text = String::new();
        for _ in 0..cuts {
            let a = bounds[next(&mut state) as usize % bounds.len()];
            let b = bounds[next(&mut state) as usize % bounds.len()];
            text.push_str(&valid[a.min(b)..a.max(b)]);
        }
        agree(&text)?;
    }
}
