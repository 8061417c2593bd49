//! The N-Triples parser `wdsparql_rdf::parse_ntriples` replaced, body
//! verbatim (only the imports differ): three passes over each line — a
//! `char_indices` comment cut, `trim`, then a term loop into a `Vec` —
//! and one `Iri::new` per term occurrence. Test-only: `../ntriples_diff.rs`
//! holds the one-pass parser to it, graph for graph and error for error.

use wdsparql_rdf::{Iri, NtError, RdfGraph, Triple};

fn err(line: usize, message: impl Into<String>) -> NtError {
    NtError {
        line,
        message: message.into(),
    }
}

/// Parses a graph from N-Triples-style text.
pub fn parse_ntriples(input: &str) -> Result<RdfGraph, NtError> {
    let mut g = RdfGraph::new();
    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let body = line
            .strip_suffix('.')
            .ok_or_else(|| err(lineno, "statement must end with '.'"))?
            .trim_end();
        let mut rest = body;
        let mut terms = Vec::with_capacity(3);
        while !rest.is_empty() {
            let (term, tail) = next_term(rest, lineno)?;
            terms.push(term);
            rest = tail.trim_start();
        }
        match <[Iri; 3]>::try_from(terms) {
            Ok([s, p, o]) => {
                g.insert(Triple::new(s, p, o));
            }
            Err(got) => {
                return Err(err(
                    lineno,
                    format!("expected exactly 3 terms, found {}", got.len()),
                ))
            }
        }
    }
    Ok(g)
}

fn strip_comment(line: &str) -> &str {
    // '#' only starts a comment outside of a bracketed IRI.
    let mut in_brackets = false;
    for (i, c) in line.char_indices() {
        match c {
            '<' => in_brackets = true,
            '>' => in_brackets = false,
            '#' if !in_brackets => return &line[..i],
            _ => {}
        }
    }
    line
}

fn next_term(input: &str, lineno: usize) -> Result<(Iri, &str), NtError> {
    let input = input.trim_start();
    if let Some(rest) = input.strip_prefix('<') {
        let end = rest
            .find('>')
            .ok_or_else(|| err(lineno, "unterminated '<'"))?;
        let name = &rest[..end];
        if name.is_empty() {
            return Err(err(lineno, "empty IRI '<>'"));
        }
        Ok((Iri::new(name), &rest[end + 1..]))
    } else {
        let end = input
            .find(|c: char| c.is_whitespace())
            .unwrap_or(input.len());
        let word = &input[..end];
        if word.is_empty() {
            return Err(err(lineno, "expected a term"));
        }
        if word.contains('<') || word.contains('>') {
            return Err(err(lineno, format!("malformed term {word:?}")));
        }
        Ok((Iri::new(word), &input[end..]))
    }
}
