//! A minimal N-Triples-style reader/writer for ground RDF graphs.
//!
//! Accepted line grammar (one statement per line):
//!
//! ```text
//! statement := term term term '.'
//! term      := '<' [^>]* '>'        # bracketed IRI
//!            | bare-word            # unquoted IRI, no whitespace/brackets
//! comment   := '#' ... end-of-line
//! ```
//!
//! This is deliberately a subset of W3C N-Triples (no literals, no blank
//! nodes: the paper works with ground RDF graphs over IRIs only), extended
//! with bare words so test fixtures stay readable. Whitespace is whatever
//! [`char::is_whitespace`] says; one leading U+FEFF (a byte-order mark) is
//! skipped.
//!
//! **Who pays for what.** [`parse_statements`] walks the bytes of each
//! line once and allocates nothing per line. Names are looked up in a
//! table local to the parse, keyed by slices of the input, so the
//! process-wide interner ([`Iri::new`]: a lock and a hash of the
//! spelling) is touched once per *distinct* name per parse, not once per
//! occurrence — and only for statements that validated: a rejected line
//! leaves none of its names behind in the vocabulary. The table's hash
//! is paid once per occurrence, though, and files list a subject's
//! statements together (a predicate's often), so the parse also keeps
//! the last validated statement's subject and predicate with their ids:
//! a line that spells the same name in the same place takes the id after
//! one comparison of the spellings and skips the table. It returns the
//! statements in file order, repeats included, for a consumer that makes
//! its own set (the store's bulk load does). [`parse_ntriples`] collects
//! them into an [`RdfGraph`], which has not built its positional indexes
//! (see [`crate::graph`]); the first reader does.

use crate::graph::RdfGraph;
use crate::term::Iri;
use crate::triple::Triple;
use std::collections::HashMap;
use std::fmt;

/// A parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for NtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

fn err(line: usize, message: impl Into<String>) -> NtError {
    NtError {
        line,
        message: message.into(),
    }
}

/// Parses a graph from N-Triples-style text.
pub fn parse_ntriples(input: &str) -> Result<RdfGraph, NtError> {
    parse_statements(input).map(RdfGraph::from_triples)
}

/// Parses N-Triples-style text into its statements, in file order,
/// repeats included.
pub fn parse_statements(input: &str) -> Result<Vec<Triple>, NtError> {
    // An encoding signature, not the first letter of the first subject.
    let input = input.strip_prefix('\u{feff}').unwrap_or(input);
    // Keyed by spellings from outside the program, so under the standard
    // keyed hasher (which also beat the id hasher of `rows` on strings).
    let mut ids: HashMap<&str, Iri> = HashMap::new();
    // Statements only: filling a graph's membership set between lookups
    // would keep pushing the name table out of cache.
    let mut statements = Vec::new();
    // The last validated statement's subject and predicate, as spelled:
    // a run of lines sharing one reuses its id without hashing it again.
    let mut last: [Option<(&str, Iri)>; 2] = [None; 2];
    for (lineno, line) in input.lines().enumerate() {
        if let Some(names) = scan_statement(line, lineno + 1)? {
            let mut id = |name| *ids.entry(name).or_insert_with(|| Iri::new(name));
            let [s, p] = [0, 1].map(|i| match last[i] {
                Some((spelling, iri)) if spelling == names[i] => iri,
                _ => last[i].insert((names[i], id(names[i]))).1,
            });
            statements.push(Triple::new(s, p, id(names[2])));
        }
    }
    Ok(statements)
}

/// What a byte means to the scanner.
#[derive(Clone, Copy)]
enum Class {
    Plain,
    Space,
    /// `<` or `>`.
    Angle,
    Hash,
    /// The first byte of a non-ASCII char, to be decoded before judging.
    Wide,
}

const CLASS: [Class; 256] = {
    let mut table = [Class::Wide; 256];
    let mut b = 0u8;
    while b < 0x80 {
        table[b as usize] = match b {
            b'<' | b'>' => Class::Angle,
            b'#' => Class::Hash,
            _ if (b as char).is_whitespace() => Class::Space,
            _ => Class::Plain,
        };
        b += 1;
    }
    table
};

/// The non-ASCII char starting at byte `at`: its width, and whether it is
/// whitespace (U+00A0, U+2003, U+3000, ...).
fn wide_char(line: &str, at: usize) -> (usize, bool) {
    let c = line[at..].chars().next().expect("`at` is inside the line");
    (c.len_utf8(), c.is_whitespace())
}

/// The first byte at or after `at` that is not whitespace.
fn skip_space(line: &str, mut at: usize) -> usize {
    let bytes = line.as_bytes();
    while at < bytes.len() {
        match CLASS[bytes[at] as usize] {
            Class::Space => at += 1,
            Class::Wide => match wide_char(line, at) {
                (width, true) => at += width,
                (_, false) => break,
            },
            _ => break,
        }
    }
    at
}

/// The three names of the statement on `line`, or `None` if the line is
/// blank or all comment — in one left-to-right walk.
///
/// A `#` starts a comment unless the last angle bracket before it was a
/// `<` (`open`), whichever token that bracket sat in. Whether the
/// statement ends in `.` is known only at the end of the walk, and a
/// missing dot outranks a malformed term, so the first term error waits
/// in `bad` until the dot has been seen.
fn scan_statement(line: &str, lineno: usize) -> Result<Option<[&str; 3]>, NtError> {
    let bytes = line.as_bytes();
    let at_end = |at: usize, open: bool| at == bytes.len() || (bytes[at] == b'#' && !open);
    let mut at = skip_space(line, 0);
    if at_end(at, false) {
        return Ok(None);
    }
    let mut names = [""; 3];
    let mut count = 0usize;
    let mut bad: Option<NtError> = None;
    let mut open = false;
    let mut dot = false;
    while !at_end(at, open) {
        let name;
        if bytes[at] == b'<' {
            let Some(len) = line[at + 1..].find('>') else {
                // In brackets to the end of the line: nothing cuts it short.
                dot = line.trim_end().ends_with('.');
                bad.get_or_insert_with(|| err(lineno, "unterminated '<'"));
                break;
            };
            name = &line[at + 1..at + 1 + len];
            if name.is_empty() {
                bad.get_or_insert_with(|| err(lineno, "empty IRI '<>'"));
            }
            open = false;
            at = skip_space(line, at + len + 2);
        } else {
            let start = at;
            let mut angles = false;
            while at < bytes.len() {
                match CLASS[bytes[at] as usize] {
                    Class::Plain => at += 1,
                    Class::Space => break,
                    Class::Angle => {
                        angles = true;
                        open = bytes[at] == b'<';
                        at += 1;
                    }
                    Class::Hash if open => at += 1,
                    Class::Hash => break,
                    Class::Wide => match wide_char(line, at) {
                        (_, true) => break,
                        (width, false) => at += width,
                    },
                }
            }
            let word = &line[start..at];
            at = skip_space(line, at);
            // The statement's dot is the last byte of its last word.
            name = match word.strip_suffix('.') {
                Some(stem) if at_end(at, open) => {
                    dot = true;
                    if stem.is_empty() {
                        break;
                    }
                    stem
                }
                _ => word,
            };
            if angles {
                bad.get_or_insert_with(|| err(lineno, format!("malformed term {name:?}")));
            }
        }
        if let Some(slot) = names.get_mut(count) {
            *slot = name;
        }
        count += 1;
    }
    if !dot {
        return Err(err(lineno, "statement must end with '.'"));
    }
    if let Some(e) = bad {
        return Err(e);
    }
    if count != 3 {
        return Err(err(
            lineno,
            format!("expected exactly 3 terms, found {count}"),
        ));
    }
    Ok(Some(names))
}

/// Serialises a graph in sorted order; bare words are used when safe,
/// brackets otherwise. The output round-trips through [`parse_ntriples`].
pub fn write_ntriples(g: &RdfGraph) -> String {
    let mut triples: Vec<Triple> = g.iter().copied().collect();
    triples.sort();
    let mut out = String::new();
    for t in triples {
        for term in t.terms() {
            let s = term.as_str();
            let bare = !s.is_empty()
                && !s
                    .chars()
                    .any(|c| c.is_whitespace() || c == '<' || c == '>' || c == '#')
                && s != "."
                && !s.ends_with('.');
            if bare {
                out.push_str(s);
            } else {
                out.push('<');
                out.push_str(s);
                out.push('>');
            }
            out.push(' ');
        }
        out.push_str(".\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_and_bracketed_terms() {
        let g = parse_ntriples("a p b .\n<http://x> <p q> c .\n").unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::from_strs("a", "p", "b")));
        assert!(g.contains(&Triple::from_strs("http://x", "p q", "c")));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let g = parse_ntriples("# header\n\na p b . # trailing\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn hash_inside_brackets_is_not_a_comment() {
        let g = parse_ntriples("<http://x#frag> p b .\n").unwrap();
        assert!(g.contains(&Triple::from_strs("http://x#frag", "p", "b")));
    }

    #[test]
    fn missing_dot_is_an_error() {
        let e = parse_ntriples("a p b\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("'.'"));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        assert!(parse_ntriples("a p .\n").is_err());
        assert!(parse_ntriples("a p b c .\n").is_err());
    }

    #[test]
    fn unterminated_bracket_is_an_error() {
        let e = parse_ntriples("<a p b .\n").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn error_reports_correct_line() {
        let e = parse_ntriples("a p b .\nbogus\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn one_leading_byte_order_mark_is_skipped() {
        let g = parse_ntriples("\u{feff}a p b .\n").unwrap();
        assert!(g.contains(&Triple::from_strs("a", "p", "b")));
        // Only one, and only at the very start: anywhere else U+FEFF is
        // a letter like any other.
        let g = parse_ntriples("\u{feff}\u{feff}a p b .\n\u{feff}c p d .\n").unwrap();
        assert!(g.contains(&Triple::from_strs("\u{feff}a", "p", "b")));
        assert!(g.contains(&Triple::from_strs("\u{feff}c", "p", "d")));
        assert!(parse_ntriples("\u{feff}").unwrap().is_empty());
    }

    #[test]
    fn non_ascii_whitespace_separates_terms() {
        let g = parse_ntriples("\u{3000}é\u{a0}p\u{2003}<ü b>\t.\u{a0}\r\n").unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.contains(&Triple::from_strs("é", "p", "ü b")));
    }

    #[test]
    fn a_missing_dot_outranks_a_malformed_term() {
        let e = parse_ntriples("a<b p c\n").unwrap_err();
        assert_eq!(e.message, "statement must end with '.'");
        let e = parse_ntriples("a<b p c .\n").unwrap_err();
        assert_eq!(e.message, "malformed term \"a<b\"");
        let e = parse_ntriples("<> a<b <c .\n").unwrap_err();
        assert_eq!(e.message, "empty IRI '<>'");
        let e = parse_ntriples("a p b c d.\n").unwrap_err();
        assert_eq!(e.message, "expected exactly 3 terms, found 5");
    }

    /// The vocabulary is shared with every test of this binary, so this
    /// asks about names nothing else spells rather than comparing sizes.
    #[test]
    fn a_rejected_line_interns_none_of_its_names() {
        use crate::term::is_interned;
        for (tag, bad_line) in [
            ("arity", "nt-arity-s nt-arity-p <nt-arity-o> nt-arity-x ."),
            ("dot", "nt-dot-s nt-dot-p nt-dot-o"),
            ("angle", "nt-angle-s nt-angle-p nt-angle-o nt<angle ."),
            ("open", "nt-open-s nt-open-p <nt-open-o ."),
            ("empty", "nt-empty-s <nt-empty-p> <> ."),
        ] {
            let text = format!("nt-{tag}-kept p o . # fine\n{bad_line}\n");
            let e = parse_ntriples(&text).unwrap_err();
            assert_eq!(e.line, 2, "{tag}");
            // Statements before the bad line had validated.
            assert!(is_interned(&format!("nt-{tag}-kept")));
            for name in bad_line.split(|c| " <>.".contains(c)) {
                assert!(name.is_empty() || !is_interned(name), "{tag}: {name:?}");
            }
        }
    }

    /// The memo of the last subject and predicate: interleaved subjects,
    /// one name bare then bracketed, a predicate's name then as subject,
    /// and a rejected line after a memo'd name.
    #[test]
    fn the_subject_and_predicate_memo_changes_no_statement() {
        use crate::term::is_interned;
        let text = "a p b .\nc p d .\na p e .\n<a> <p> b .\na p <b> .\np a q .\np <a> a .\n";
        let want = [
            ("a", "p", "b"),
            ("c", "p", "d"),
            ("a", "p", "e"),
            ("a", "p", "b"),
            ("a", "p", "b"),
            ("p", "a", "q"),
            ("p", "a", "a"),
        ]
        .map(|(s, p, o)| Triple::from_strs(s, p, o));
        assert_eq!(parse_statements(text).unwrap(), want);
        let text = "nt-memo-s nt-memo-p o .\nnt-memo-s nt-memo-p nt-memo-bad<o .\n";
        let e = parse_statements(text).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "malformed term \"nt-memo-bad<o\"")
        );
        assert!(!is_interned("nt-memo-bad<o") && !is_interned("nt-memo-bad"));
    }

    #[test]
    fn roundtrip_through_writer() {
        let g = RdfGraph::from_strs([("a", "p", "b"), ("with space", "p", "b"), ("x#y", "q", "z")]);
        let text = write_ntriples(&g);
        let g2 = parse_ntriples(&text).unwrap();
        assert_eq!(g, g2);
    }
}
