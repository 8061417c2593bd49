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
//! `OPT`. `AND`, `OPT`, `OPTIONAL` and `UNION` are reserved words. Groups
//! nest at most [`MAX_NESTING`] deep, and a pattern is at most
//! [`MAX_DEPTH`] operators deep.

use crate::pattern::GraphPattern;
use std::fmt;
use wdsparql_rdf::{tp, Term, TriplePattern};

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

/// The deepest nesting either query syntax accepts: groups `( … )` of
/// the paper's syntax, groups `{ … }` of the SPARQL-style syntax, and the
/// parentheses of a `FILTER` expression each count one level. Both parsers
/// keep their open groups on a heap stack, so any depth parses in constant
/// stack; the limit is for what runs on the pattern afterwards. The
/// well-designedness check, the translation, evaluation, printing and
/// dropping all recurse once per level, and 2 048 levels fit the 8 MiB of
/// a main thread with room to spare. A deeper text is refused with a
/// positioned [`ParseError`] at the group that opens level 2 049.
pub const MAX_NESTING: usize = 2048;

/// The deepest pattern either query syntax builds, counted in operators:
/// a triple pattern is 0 deep, and an `AND`, `OPT` or `UNION` is one
/// deeper than its deeper operand. Groups are not operators, and operators
/// at one nesting level chain, so a flat chain of `n` operands is `n - 1`
/// deep inside a single group: [`MAX_NESTING`] alone does not bound it.
/// The well-designedness check, the translation, printing and dropping
/// recurse once per operator: in a debug build on the 8 MiB of a main
/// thread, `AND` and `OPT` chains 4 096 deep, left- or right-deep, were
/// checked, translated, printed and dropped, and 6 144 deep overflowed,
/// so 2 048 leaves twice the room. A deeper pattern is refused with a
/// positioned [`ParseError`] at the operator that would cross the bound
/// (for the curly syntax's implicit `AND`, at the element it joins).
pub const MAX_DEPTH: usize = 2048;

/// A binary operator of either syntax.
pub(crate) type Op = fn(GraphPattern, GraphPattern) -> GraphPattern;

/// A pattern under construction and its depth (see [`MAX_DEPTH`]).
pub(crate) struct Deep {
    pub(crate) pattern: GraphPattern,
    depth: usize,
}

impl Deep {
    pub(crate) fn triple(t: TriplePattern) -> Deep {
        Deep {
            pattern: GraphPattern::Triple(t),
            depth: 0,
        }
    }

    /// `op(self, right)`, for the operator at byte `at`: refused there
    /// when it would be deeper than [`MAX_DEPTH`].
    pub(crate) fn apply(self, op: Op, right: Deep, at: usize) -> Result<Deep, ParseError> {
        let depth = self.depth.max(right.depth) + 1;
        if depth > MAX_DEPTH {
            return Err(ParseError {
                offset: at,
                message: format!("pattern deeper than {MAX_DEPTH} operators"),
            });
        }
        Ok(Deep {
            pattern: op(self.pattern, right.pattern),
            depth,
        })
    }
}

/// The error for a group, opened at `offset`, that would nest deeper than
/// [`MAX_NESTING`].
pub(crate) fn too_deep(offset: usize) -> ParseError {
    ParseError {
        offset,
        message: format!("nesting deeper than {MAX_NESTING} levels"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    LParen,
    RParen,
    Comma,
    And,
    Opt,
    Union,
    Var(&'a str),
    Iri(&'a str),
}

/// A term of either query syntax, as its lexer core scans it.
pub(crate) enum Lexeme<'a> {
    /// `<…>`: the IRI between the brackets.
    Iri(&'a str),
    /// `?name`: the name.
    Var(&'a str),
    /// A run of word bytes: a keyword or a bare IRI, as the syntax says.
    Word(&'a str),
}

/// The lexer core of both query syntaxes: scans the `<…>` IRI, `?var`
/// or bare word at byte `i` of `input`, with `is_word` the syntax's word
/// bytes, and returns it with the offset just past it. Any other byte
/// at `i` is an unexpected character.
pub(crate) fn scan_term(
    input: &str,
    i: usize,
    is_word: impl Fn(u8) -> bool,
) -> Result<(Lexeme<'_>, usize), ParseError> {
    let bytes = input.as_bytes();
    let err = |message: String| ParseError { offset: i, message };
    let word_end = |from: usize| {
        (from..bytes.len())
            .find(|&j| !is_word(bytes[j]))
            .unwrap_or(bytes.len())
    };
    match bytes[i] {
        b'<' => {
            let end = (input[i + 1..].find('>').map(|j| i + 1 + j))
                .ok_or_else(|| err("unterminated '<'".into()))?;
            if end == i + 1 {
                return Err(err("empty IRI '<>'".into()));
            }
            Ok((Lexeme::Iri(&input[i + 1..end]), end + 1))
        }
        b'?' => {
            let end = word_end(i + 1);
            if end == i + 1 {
                return Err(err("expected a variable name after '?'".into()));
            }
            Ok((Lexeme::Var(&input[i + 1..end]), end))
        }
        b => {
            let end = word_end(i);
            if end == i {
                return Err(err(format!("unexpected character '{}'", b as char)));
            }
            Ok((Lexeme::Word(&input[i..end]), end))
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<(usize, Tok<'_>)>, ParseError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let is_word_byte =
        |b: u8| !b.is_ascii_whitespace() && !matches!(b, b'(' | b')' | b',' | b'<' | b'>' | b'?');
    while i < bytes.len() {
        let (tok, end) = match bytes[i] {
            b if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'(' => (Tok::LParen, i + 1),
            b')' => (Tok::RParen, i + 1),
            b',' => (Tok::Comma, i + 1),
            _ => {
                let (lexeme, end) = scan_term(input, i, is_word_byte)?;
                let tok = match lexeme {
                    Lexeme::Iri(iri) => Tok::Iri(iri),
                    Lexeme::Var(name) => Tok::Var(name),
                    Lexeme::Word(w) if w.eq_ignore_ascii_case("AND") => Tok::And,
                    Lexeme::Word(w)
                        if w.eq_ignore_ascii_case("OPT") || w.eq_ignore_ascii_case("OPTIONAL") =>
                    {
                        Tok::Opt
                    }
                    Lexeme::Word(w) if w.eq_ignore_ascii_case("UNION") => Tok::Union,
                    Lexeme::Word(w) => Tok::Iri(w),
                };
                (tok, end)
            }
        };
        out.push((i, tok));
        i = end;
    }
    Ok(out)
}

/// One open pattern: what its operands have built so far, and the
/// operator waiting for the next operand, with its offset.
#[derive(Default)]
struct Level {
    acc: Option<Deep>,
    op: Option<(Op, usize)>,
}

struct Parser<'a> {
    toks: Vec<(usize, Tok<'a>)>,
    pos: usize,
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.input_len, |&(o, _)| o)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    /// A term, consumed. Anything else is an error at it, or at the last
    /// token once the input has run out.
    fn parse_term(&mut self) -> Result<Term, ParseError> {
        let term = match self.peek() {
            Some(Tok::Var(name)) => wdsparql_rdf::var(name),
            Some(Tok::Iri(name)) => wdsparql_rdf::iri(name),
            other => {
                if other.is_none() {
                    self.pos = self.pos.saturating_sub(1);
                }
                return Err(self.err("expected a term (variable or IRI)"));
            }
        };
        self.pos += 1;
        Ok(term)
    }

    /// After an operand's `(`: the rest of a triple pattern, or `None`
    /// with nothing consumed when a grouped pattern follows instead.
    fn parse_triple(&mut self) -> Result<Option<Deep>, ParseError> {
        let save = self.pos;
        if let Ok(s) = self.parse_term() {
            if self.peek() == Some(Tok::Comma) {
                self.pos += 1;
                let p = self.parse_term()?;
                self.expect(Tok::Comma, "','")?;
                let o = self.parse_term()?;
                self.expect(Tok::RParen, "')'")?;
                return Ok(Some(Deep::triple(tp(s, p, o))));
            }
        }
        self.pos = save;
        Ok(None)
    }

    /// `pattern := operand (op operand)*` with `operand := '(' triple ')'
    /// | '(' pattern ')'`, the open groups kept on a stack.
    fn parse_pattern(&mut self) -> Result<Deep, ParseError> {
        let mut open = vec![Level::default()];
        loop {
            // An operand.
            self.expect(Tok::LParen, "'('")?;
            let Some(mut operand) = self.parse_triple()? else {
                if open.len() > MAX_NESTING {
                    return Err(too_deep(self.toks[self.pos - 1].0));
                }
                open.push(Level::default());
                continue;
            };
            // Fold the finished operand into its pattern; close every
            // pattern that has no operator after it.
            loop {
                let level = open.last_mut().expect("the outermost pattern stays open");
                level.acc = Some(match (level.acc.take(), level.op.take()) {
                    (Some(acc), Some((op, at))) => acc.apply(op, operand, at)?,
                    _ => operand,
                });
                let op: Op = match self.peek() {
                    Some(Tok::And) => GraphPattern::and,
                    Some(Tok::Opt) => GraphPattern::opt,
                    Some(Tok::Union) => GraphPattern::union,
                    _ => {
                        let done = open
                            .pop()
                            .and_then(|l| l.acc)
                            .expect("an operand was folded");
                        if open.is_empty() {
                            return Ok(done);
                        }
                        self.expect(Tok::RParen, "')'")?;
                        operand = done;
                        continue;
                    }
                };
                let at = self.toks[self.pos].0;
                self.pos += 1;
                open.last_mut().expect("still open").op = Some((op, at));
                break;
            }
        }
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
    Ok(pat.pattern)
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
