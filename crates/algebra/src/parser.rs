//! A parser for the paper's textual pattern syntax.
//!
//! Grammar (whitespace-insensitive, keywords case-insensitive):
//!
//! ```text
//! pattern := operand (('AND' | 'OPT' | 'OPTIONAL' | 'UNION') operand)*
//! operand := '(' term ',' term ',' term ')'     # triple pattern
//!          | '(' pattern ')'                    # grouping
//! term    := '?'name | '<' iri '>' | bareword
//! ```
//!
//! Operators at the same nesting level chain *left-associatively* with a
//! single precedence level, matching the paper's fully parenthesised style:
//! `A OPT B AND C` reads as `(A OPT B) AND C`. `OPTIONAL` is an alias for
//! `OPT`. `AND`, `OPT`, `OPTIONAL` and `UNION` are reserved words.

use crate::pattern::GraphPattern;
use std::fmt;
use wdsparql_rdf::{tp, Term};

/// A parse error with byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    LParen,
    RParen,
    Comma,
    And,
    Opt,
    Union,
    Var(String),
    Iri(String),
}

fn tokenize(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let is_word_byte =
        |b: u8| !b.is_ascii_whitespace() && !matches!(b, b'(' | b')' | b',' | b'<' | b'>' | b'?');
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b if b.is_ascii_whitespace() => i += 1,
            b'(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            b')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            b',' => {
                out.push((i, Tok::Comma));
                i += 1;
            }
            b'<' => {
                let start = i + 1;
                let end = input[start..]
                    .find('>')
                    .map(|j| start + j)
                    .ok_or(ParseError {
                        offset: i,
                        message: "unterminated '<'".into(),
                    })?;
                if end == start {
                    return Err(ParseError {
                        offset: i,
                        message: "empty IRI '<>'".into(),
                    });
                }
                out.push((i, Tok::Iri(input[start..end].to_string())));
                i = end + 1;
            }
            b'?' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && is_word_byte(bytes[j]) {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError {
                        offset: i,
                        message: "expected a variable name after '?'".into(),
                    });
                }
                out.push((i, Tok::Var(input[start..j].to_string())));
                i = j;
            }
            _ => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_word_byte(bytes[j]) {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError {
                        offset: i,
                        message: format!("unexpected character '{}'", b as char),
                    });
                }
                let word = &input[start..j];
                let tok = match word.to_ascii_uppercase().as_str() {
                    "AND" => Tok::And,
                    "OPT" | "OPTIONAL" => Tok::Opt,
                    "UNION" => Tok::Union,
                    _ => Tok::Iri(word.to_string()),
                };
                out.push((start, tok));
                i = j;
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.input_len, |&(o, _)| o)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Var(name)) => Ok(wdsparql_rdf::var(&name)),
            Some(Tok::Iri(name)) => Ok(wdsparql_rdf::iri(&name)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a term (variable or IRI)"))
            }
        }
    }

    fn parse_operand(&mut self) -> Result<GraphPattern, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        // Lookahead: a triple pattern is `term ',' ...`.
        let save = self.pos;
        if let Ok(s) = self.parse_term() {
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                let p = self.parse_term()?;
                self.expect(&Tok::Comma, "','")?;
                let o = self.parse_term()?;
                self.expect(&Tok::RParen, "')'")?;
                return Ok(GraphPattern::Triple(tp(s, p, o)));
            }
        }
        self.pos = save;
        let inner = self.parse_pattern()?;
        self.expect(&Tok::RParen, "')'")?;
        Ok(inner)
    }

    fn parse_pattern(&mut self) -> Result<GraphPattern, ParseError> {
        let mut acc = self.parse_operand()?;
        loop {
            let op = match self.peek() {
                Some(Tok::And) => GraphPattern::and as fn(_, _) -> _,
                Some(Tok::Opt) => GraphPattern::opt,
                Some(Tok::Union) => GraphPattern::union,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_operand()?;
            acc = op(acc, rhs);
        }
        Ok(acc)
    }
}

/// Parses a graph pattern from text.
pub fn parse_pattern(input: &str) -> Result<GraphPattern, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        input_len: input.len(),
    };
    let pat = p.parse_pattern()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after pattern"));
    }
    Ok(pat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::well_designed::is_well_designed;
    use wdsparql_rdf::term::{iri, var};

    #[test]
    fn parses_single_triple() {
        let p = parse_pattern("(?x, p, ?y)").unwrap();
        assert_eq!(p, GraphPattern::Triple(tp(var("x"), iri("p"), var("y"))));
    }

    #[test]
    fn parses_bracketed_iris() {
        let p = parse_pattern("(?x, <http://ex/p>, <c d>)").unwrap();
        assert_eq!(
            p,
            GraphPattern::Triple(tp(var("x"), iri("http://ex/p"), iri("c d")))
        );
    }

    #[test]
    fn operators_and_grouping() {
        let p = parse_pattern("((?x, p, ?y) OPT (?z, q, ?x)) AND (?y, r, ?w)").unwrap();
        match &p {
            GraphPattern::And(l, _) => assert!(matches!(**l, GraphPattern::Opt(_, _))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn left_associative_chaining() {
        let p = parse_pattern("(?a, p, ?b) AND (?b, p, ?c) AND (?c, p, ?d)").unwrap();
        assert_eq!(
            p.to_string(),
            "(((?a, p, ?b) AND (?b, p, ?c)) AND (?c, p, ?d))"
        );
    }

    #[test]
    fn optional_is_an_alias_for_opt() {
        let a = parse_pattern("(?x, p, ?y) OPTIONAL (?y, q, ?z)").unwrap();
        let b = parse_pattern("(?x, p, ?y) OPT (?y, q, ?z)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let a = parse_pattern("(?x, p, ?y) union (?x, q, ?y)").unwrap();
        assert!(matches!(a, GraphPattern::Union(_, _)));
    }

    #[test]
    fn example1_parses_and_classifies() {
        let p1 =
            parse_pattern("((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2))")
                .unwrap();
        assert!(is_well_designed(&p1));
        let p2 = parse_pattern("((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2))")
            .unwrap();
        assert!(!is_well_designed(&p2));
    }

    #[test]
    fn display_roundtrips() {
        for text in [
            "(?x, p, ?y)",
            "((?x, p, ?y) AND (?y, q, ?z))",
            "((?x, p, ?y) OPT ((?y, q, ?z) UNION (?z, r, c)))",
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
        ] {
            let p = parse_pattern(text).unwrap();
            let p2 = parse_pattern(&p.to_string()).unwrap();
            assert_eq!(p, p2, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_pattern("(?x, p ?y)").unwrap_err();
        assert!(e.message.contains("','"), "{e}");
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("(?x, p, ?y) AND").is_err());
        assert!(parse_pattern("(?x, p, ?y) (?y, q, ?z)").is_err());
        assert!(parse_pattern("(?x, p, ?y,)").is_err());
    }

    #[test]
    fn reserved_words_cannot_be_terms() {
        // `AND` as a subject is parsed as an operator and must fail.
        assert!(parse_pattern("(AND, p, b)").is_err());
    }

    #[test]
    fn unterminated_iri_is_an_error() {
        let e = parse_pattern("(?x, <p, ?y)").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    /// `>` is neither a word byte nor a token of its own: it used to lex
    /// as an empty word forever, without advancing.
    #[test]
    fn stray_closing_angle_is_a_positioned_error() {
        let e = parse_pattern("(?x, p, >)").unwrap_err();
        assert_eq!(e.offset, 8, "{e}");
        assert!(e.message.contains("unexpected character '>'"), "{e}");
    }

    #[test]
    fn deep_nesting_parses() {
        let mut text = String::from("(?v0, p, ?v1)");
        for i in 1..30 {
            text = format!("({text} OPT (?v{i}, p, ?v{}))", i + 1);
        }
        let p = parse_pattern(&text).unwrap();
        assert_eq!(p.triples().len(), 30);
    }
}
