//! A SPARQL-flavoured surface syntax, compiled to [`GraphPattern`].
//!
//! ```text
//! query     := ('SELECT' ('*' | var+) 'WHERE')? group
//! group     := '{' body '}'
//! body      := block ('UNION' block)*
//! block     := element ( '.'? element )*
//! element   := triple | 'OPTIONAL' group | group | 'FILTER' fexpr
//! triple    := term term term
//! term      := '?'name | '<' iri '>' | bareword
//! fexpr     := fand ('||' fand)*
//! fand      := funary ('&&' funary)*
//! funary    := '!' funary | '(' fexpr ')' | 'BOUND' '(' var ')'
//!            | term ('=' | '!=') term
//! ```
//!
//! Elements of a block combine left-to-right: a triple or group joins with
//! AND, an `OPTIONAL` group applies OPT to everything accumulated so far —
//! the standard SPARQL reading, under which
//! `{ A . OPTIONAL { B } C }` means `((A OPT B) AND C)`.
//!
//! `FILTER` clauses are accepted **only in the top-level group** (where
//! their SPARQL semantics is the unambiguous "filter the final solution
//! set"; filters nested under `OPTIONAL` have scope-dependent semantics
//! the paper does not treat, so they are rejected rather than silently
//! reinterpreted). Use [`parse_sparql_filtered`] to obtain them;
//! [`parse_sparql`]/[`parse_sparql_select`] reject queries with filters
//! so that no caller can drop one by accident.

use crate::filter::FilterExpr;
use crate::parser::ParseError;
use crate::pattern::GraphPattern;
use wdsparql_rdf::{tp, Term, Variable};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Eq,
    Neq,
    AndAnd,
    OrOr,
    Bang,
    Select,
    Star,
    Where,
    Optional,
    Union,
    Filter,
    BoundKw,
    Var(String),
    Iri(String),
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

fn tokenize(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let is_word = |b: u8| {
        !b.is_ascii_whitespace()
            && !matches!(
                b,
                b'{' | b'}'
                    | b'.'
                    | b'<'
                    | b'>'
                    | b'?'
                    | b'*'
                    | b'('
                    | b')'
                    | b'='
                    | b'!'
                    | b'&'
                    | b'|'
            )
    };
    while i < bytes.len() {
        match bytes[i] {
            b if b.is_ascii_whitespace() => i += 1,
            b'{' => {
                out.push((i, Tok::LBrace));
                i += 1;
            }
            b'}' => {
                out.push((i, Tok::RBrace));
                i += 1;
            }
            b'(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            b')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            b'=' => {
                out.push((i, Tok::Eq));
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Neq));
                    i += 2;
                } else {
                    out.push((i, Tok::Bang));
                    i += 1;
                }
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push((i, Tok::AndAnd));
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push((i, Tok::OrOr));
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            b'.' => {
                out.push((i, Tok::Dot));
                i += 1;
            }
            b'*' => {
                out.push((i, Tok::Star));
                i += 1;
            }
            b'<' => {
                let start = i + 1;
                let end = input[start..]
                    .find('>')
                    .map(|j| start + j)
                    .ok_or_else(|| err(i, "unterminated '<'"))?;
                if end == start {
                    return Err(err(i, "empty IRI '<>'"));
                }
                out.push((i, Tok::Iri(input[start..end].to_string())));
                i = end + 1;
            }
            b'?' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && is_word(bytes[j]) {
                    j += 1;
                }
                if j == start {
                    return Err(err(i, "expected a variable name after '?'"));
                }
                out.push((i, Tok::Var(input[start..j].to_string())));
                i = j;
            }
            _ => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_word(bytes[j]) {
                    j += 1;
                }
                if j == start {
                    return Err(err(
                        i,
                        format!("unexpected character '{}'", bytes[i] as char),
                    ));
                }
                let word = &input[start..j];
                let tok = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Tok::Select,
                    "WHERE" => Tok::Where,
                    "OPTIONAL" | "OPT" => Tok::Optional,
                    "UNION" => Tok::Union,
                    "FILTER" => Tok::Filter,
                    "BOUND" => Tok::BoundKw,
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
    len: usize,
    /// Group-nesting depth (1 = the top-level group).
    depth: usize,
    /// FILTER clauses collected from the top-level group.
    filters: Vec<FilterExpr>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.len, |&(o, _)| o)
    }

    fn eat(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.offset(), format!("expected {what}")))
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        let t = match self.peek() {
            Some(Tok::Var(name)) => wdsparql_rdf::var(name),
            Some(Tok::Iri(name)) => wdsparql_rdf::iri(name),
            _ => return Err(err(self.offset(), "expected a term (variable or IRI)")),
        };
        self.pos += 1;
        Ok(t)
    }

    fn parse_group(&mut self) -> Result<GraphPattern, ParseError> {
        let at = self.offset();
        self.eat(&Tok::LBrace, "'{'")?;
        self.depth += 1;
        let mut branches = vec![self.parse_block()?];
        while self.peek() == Some(&Tok::Union) {
            self.pos += 1;
            branches.push(self.parse_block()?);
        }
        self.depth -= 1;
        self.eat(&Tok::RBrace, "'}'")?;
        // A filter inside one branch of a bare top-level UNION would be
        // silently hoisted over the other branches; SPARQL scopes it to
        // its branch, so reject the ambiguous form outright.
        if self.depth == 0 && branches.len() > 1 && !self.filters.is_empty() {
            return Err(err(
                at,
                "FILTER cannot be combined with a top-level UNION \
                 (wrap the UNION in an inner group: { { A } UNION { B } } FILTER ...)",
            ));
        }
        Ok(GraphPattern::union_all(branches))
    }

    fn parse_block(&mut self) -> Result<GraphPattern, ParseError> {
        let mut acc: Option<GraphPattern> = None;
        loop {
            match self.peek() {
                Some(Tok::Optional) => {
                    self.pos += 1;
                    let left = acc
                        .take()
                        .ok_or_else(|| err(self.offset(), "OPTIONAL needs a preceding pattern"))?;
                    let right = self.parse_group()?;
                    acc = Some(GraphPattern::opt(left, right));
                }
                Some(Tok::LBrace) => {
                    let sub = self.parse_group()?;
                    acc = Some(match acc.take() {
                        None => sub,
                        Some(left) => GraphPattern::and(left, sub),
                    });
                }
                Some(Tok::Var(_)) | Some(Tok::Iri(_)) => {
                    let s = self.parse_term()?;
                    let p = self.parse_term()?;
                    let o = self.parse_term()?;
                    let triple = GraphPattern::Triple(tp(s, p, o));
                    acc = Some(match acc.take() {
                        None => triple,
                        Some(left) => GraphPattern::and(left, triple),
                    });
                }
                Some(Tok::Filter) => {
                    let at = self.offset();
                    self.pos += 1;
                    if self.depth != 1 {
                        return Err(err(
                            at,
                            "FILTER is only supported in the top-level group \
                             (nested filter scope is outside the paper's fragment)",
                        ));
                    }
                    let expr = self.parse_filter_or()?;
                    self.filters.push(expr);
                }
                Some(Tok::Dot) => {
                    self.pos += 1; // separators are optional and skippable
                }
                _ => break,
            }
        }
        acc.ok_or_else(|| err(self.offset(), "empty group"))
    }

    // ---- FILTER expressions -------------------------------------------

    fn parse_filter_or(&mut self) -> Result<FilterExpr, ParseError> {
        let mut acc = self.parse_filter_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            acc = FilterExpr::or(acc, self.parse_filter_and()?);
        }
        Ok(acc)
    }

    fn parse_filter_and(&mut self) -> Result<FilterExpr, ParseError> {
        let mut acc = self.parse_filter_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            acc = FilterExpr::and(acc, self.parse_filter_unary()?);
        }
        Ok(acc)
    }

    fn parse_filter_unary(&mut self) -> Result<FilterExpr, ParseError> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(FilterExpr::not(self.parse_filter_unary()?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.parse_filter_or()?;
                self.eat(&Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::BoundKw) => {
                self.pos += 1;
                self.eat(&Tok::LParen, "'(' after BOUND")?;
                let at = self.offset();
                let t = self.parse_term()?;
                let v = t
                    .as_var()
                    .ok_or_else(|| err(at, "BOUND expects a variable"))?;
                self.eat(&Tok::RParen, "')'")?;
                Ok(FilterExpr::Bound(v))
            }
            _ => self.parse_filter_comparison(),
        }
    }

    fn parse_filter_comparison(&mut self) -> Result<FilterExpr, ParseError> {
        let at = self.offset();
        let lhs = self.parse_term()?;
        let negated = match self.peek() {
            Some(Tok::Eq) => false,
            Some(Tok::Neq) => true,
            _ => return Err(err(self.offset(), "expected '=' or '!=' in FILTER")),
        };
        self.pos += 1;
        let rhs = self.parse_term()?;
        // `!=` maps to the dedicated Neq atoms, NOT to `!(=)`: under
        // SPARQL's error-as-false semantics `?x != ?y` requires both
        // variables bound, whereas `!(?x = ?y)` would hold on unbound
        // variables.
        match (lhs, rhs, negated) {
            (Term::Var(a), Term::Var(b), false) => Ok(FilterExpr::EqVar(a, b)),
            (Term::Var(a), Term::Var(b), true) => Ok(FilterExpr::NeqVar(a, b)),
            (Term::Var(a), Term::Iri(c), false) | (Term::Iri(c), Term::Var(a), false) => {
                Ok(FilterExpr::EqConst(a, c))
            }
            (Term::Var(a), Term::Iri(c), true) | (Term::Iri(c), Term::Var(a), true) => {
                Ok(FilterExpr::NeqConst(a, c))
            }
            (Term::Iri(a), Term::Iri(b), negated) => {
                // Constant comparison folds statically; the always-false
                // conjunct is flagged as the likely mistake it is.
                if (a == b) != negated {
                    Ok(FilterExpr::True)
                } else {
                    Err(err(at, "FILTER constant comparison is always false"))
                }
            }
        }
    }
}

/// Parses the SPARQL-flavoured syntax (with or without the
/// `SELECT * WHERE` prefix) into a [`GraphPattern`].
///
/// A projection list (`SELECT ?x ?y WHERE`) is accepted and ignored here;
/// use [`parse_sparql_select`] to retrieve it. Queries containing
/// `FILTER` are rejected (use [`parse_sparql_filtered`]) so the filter
/// cannot be dropped by accident.
pub fn parse_sparql(input: &str) -> Result<GraphPattern, ParseError> {
    parse_sparql_select(input).map(|(pat, _)| pat)
}

/// Parses the SPARQL-flavoured syntax, returning the pattern together with
/// the projection: `None` for `SELECT *` (or no `SELECT` prefix at all),
/// `Some(vars)` for an explicit `SELECT ?x ?y ... WHERE` list.
///
/// The explicit list must be non-empty and duplicate-free; variables not
/// occurring in the pattern are a semantic concern left to the caller
/// (`wdsparql-project` rejects them when building a projected query).
/// Queries containing `FILTER` are rejected here — use
/// [`parse_sparql_filtered`].
pub fn parse_sparql_select(
    input: &str,
) -> Result<(GraphPattern, Option<Vec<Variable>>), ParseError> {
    let (pat, proj, filter) = parse_sparql_filtered(input)?;
    if filter != FilterExpr::True {
        return Err(err(
            0,
            "query contains FILTER; parse it with parse_sparql_filtered",
        ));
    }
    Ok((pat, proj))
}

/// Parses the full surface syntax: pattern, optional projection list, and
/// the conjunction of all top-level `FILTER` clauses
/// ([`FilterExpr::True`] when there are none). Evaluate with
/// `eval_filter` / `filter_solutions` (error-as-false semantics).
pub fn parse_sparql_filtered(
    input: &str,
) -> Result<(GraphPattern, Option<Vec<Variable>>, FilterExpr), ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        len: input.len(),
        depth: 0,
        filters: Vec::new(),
    };
    let mut projection = None;
    if p.peek() == Some(&Tok::Select) {
        p.pos += 1;
        match p.peek() {
            Some(Tok::Star) => {
                p.pos += 1;
            }
            Some(Tok::Var(_)) => {
                let mut vars: Vec<Variable> = Vec::new();
                while let Some(Tok::Var(name)) = p.peek() {
                    let v = Variable::new(name);
                    if vars.contains(&v) {
                        return Err(err(
                            p.offset(),
                            format!("duplicate variable ?{name} in SELECT list"),
                        ));
                    }
                    vars.push(v);
                    p.pos += 1;
                }
                projection = Some(vars);
            }
            _ => {
                return Err(err(
                    p.offset(),
                    "expected '*' or a variable list after SELECT",
                ))
            }
        }
        p.eat(&Tok::Where, "'WHERE'")?;
    }
    let pat = p.parse_group()?;
    if p.peek().is_some() {
        return Err(err(p.offset(), "trailing input after query"));
    }
    let filter = p
        .filters
        .into_iter()
        .fold(FilterExpr::True, FilterExpr::and);
    Ok((pat, projection, filter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use crate::semantics::eval;
    use crate::well_designed::is_well_designed;
    use wdsparql_rdf::RdfGraph;

    #[test]
    fn single_triple() {
        let p = parse_sparql("{ ?x knows ?y }").unwrap();
        assert_eq!(p, parse_pattern("(?x, knows, ?y)").unwrap());
    }

    #[test]
    fn select_star_where_prefix() {
        let a = parse_sparql("SELECT * WHERE { ?x knows ?y . ?y knows ?z }").unwrap();
        let b = parse_sparql("{ ?x knows ?y . ?y knows ?z }").unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            parse_pattern("(?x, knows, ?y) AND (?y, knows, ?z)").unwrap()
        );
    }

    #[test]
    fn optional_applies_to_accumulated_left() {
        let p = parse_sparql("{ ?x knows ?y OPTIONAL { ?y email ?e } ?x city ?c }").unwrap();
        let expected =
            parse_pattern("((?x, knows, ?y) OPT (?y, email, ?e)) AND (?x, city, ?c)").unwrap();
        assert_eq!(p, expected);
    }

    #[test]
    fn nested_optionals() {
        let p = parse_sparql("{ ?x p ?y OPTIONAL { ?y q ?z OPTIONAL { ?z r ?w } } }").unwrap();
        let expected = parse_pattern("(?x, p, ?y) OPT ((?y, q, ?z) OPT (?z, r, ?w))").unwrap();
        assert_eq!(p, expected);
        assert!(is_well_designed(&p));
    }

    #[test]
    fn union_of_blocks() {
        let p = parse_sparql("{ { ?x p ?y } UNION { ?x q ?y } }").unwrap();
        assert_eq!(p.union_branches().unwrap().len(), 2);
    }

    #[test]
    fn dots_are_optional_separators() {
        let a = parse_sparql("{ ?x p ?y . ?y q ?z . }").unwrap();
        let b = parse_sparql("{ ?x p ?y ?y q ?z }").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bracketed_iris_and_keyword_case() {
        let p =
            parse_sparql("select * where { ?x <http://ex/p> ?y optional { ?y <q> ?z } }").unwrap();
        let expected = parse_pattern("(?x, <http://ex/p>, ?y) OPT (?y, q, ?z)").unwrap();
        assert_eq!(p, expected);
    }

    #[test]
    fn semantics_match_paper_syntax() {
        let g = RdfGraph::from_strs([
            ("alice", "knows", "bob"),
            ("bob", "email", "b@x.org"),
            ("alice", "knows", "carol"),
        ]);
        let sparql = parse_sparql("{ ?x knows ?y OPTIONAL { ?y email ?e } }").unwrap();
        let paper = parse_pattern("(?x, knows, ?y) OPT (?y, email, ?e)").unwrap();
        assert_eq!(eval(&sparql, &g), eval(&paper, &g));
    }

    #[test]
    fn errors() {
        assert!(parse_sparql("{ }").is_err());
        assert!(parse_sparql("{ ?x p }").is_err());
        assert!(parse_sparql("{ ?x p ?y").is_err());
        assert!(parse_sparql("{ OPTIONAL { ?x p ?y } }").is_err());
        assert!(parse_sparql("{ ?x p ?y } trailing").is_err());
    }

    #[test]
    fn select_list_is_parsed() {
        let (pat, proj) =
            parse_sparql_select("SELECT ?x ?e WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
                .unwrap();
        assert_eq!(
            pat,
            parse_pattern("(?x, knows, ?y) OPT (?y, email, ?e)").unwrap()
        );
        assert_eq!(proj, Some(vec![Variable::new("x"), Variable::new("e")]));
    }

    #[test]
    fn select_star_and_bare_group_report_no_projection() {
        let (_, star) = parse_sparql_select("SELECT * WHERE { ?x p ?y }").unwrap();
        assert_eq!(star, None);
        let (_, bare) = parse_sparql_select("{ ?x p ?y }").unwrap();
        assert_eq!(bare, None);
    }

    #[test]
    fn filter_clauses_are_parsed_and_applied() {
        use crate::filter::{eval_filter, FilterExpr};
        let (pat, proj, f) = parse_sparql_filtered(
            "{ ?x knows ?y OPTIONAL { ?y email ?e } FILTER(?x != ?y && BOUND(?e)) }",
        )
        .unwrap();
        assert_eq!(proj, None);
        assert_ne!(f, FilterExpr::True);
        let g = RdfGraph::from_strs([
            ("alice", "knows", "bob"),
            ("alice", "knows", "alice"),
            ("bob", "email", "b@x.org"),
            ("alice", "knows", "carol"),
        ]);
        let sols = eval_filter(&pat, &f, &g);
        // (alice,alice) fails ?x != ?y; (alice,carol) fails BOUND(?e).
        assert_eq!(sols.len(), 1);
        let mu = sols.iter().next().unwrap();
        assert_eq!(
            mu.get(wdsparql_rdf::Variable::new("y")),
            Some(wdsparql_rdf::Iri::new("bob"))
        );
    }

    #[test]
    fn filter_expression_grammar() {
        // Operators, precedence, parentheses, negation, constants.
        let (_, _, f) =
            parse_sparql_filtered("{ ?x p ?y FILTER(!(?x = c1) || ?y = c2 && ?x != ?y) }").unwrap();
        let yes = wdsparql_rdf::Mapping::from_strs([("x", "c9"), ("y", "c2")]);
        assert!(f.holds(&yes));
        let no = wdsparql_rdf::Mapping::from_strs([("x", "c1"), ("y", "c3")]);
        assert!(!f.holds(&no));
        // Multiple FILTER clauses conjoin.
        let (_, _, f2) =
            parse_sparql_filtered("{ ?x p ?y FILTER(?x != c1) FILTER(?y != c2) }").unwrap();
        assert!(f2.holds(&wdsparql_rdf::Mapping::from_strs([("x", "a"), ("y", "b")])));
        assert!(!f2.holds(&wdsparql_rdf::Mapping::from_strs([("x", "a"), ("y", "c2")])));
        // Constant folding: equal constants are True, distinct are errors.
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(c = c) }").is_ok());
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(c = d) }").is_err());
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(c != c) }").is_err());
    }

    #[test]
    fn neq_is_not_negated_eq() {
        // Error-as-false: ?e != c fails (not holds) when ?e is unbound,
        // while !(?e = c) holds.
        let (_, _, neq) = parse_sparql_filtered("{ ?x p ?y FILTER(?e != c) }").unwrap();
        let (_, _, noteq) = parse_sparql_filtered("{ ?x p ?y FILTER(!(?e = c)) }").unwrap();
        let unbound = wdsparql_rdf::Mapping::from_strs([("x", "a")]);
        assert!(!neq.holds(&unbound));
        assert!(noteq.holds(&unbound));
    }

    #[test]
    fn filter_scope_restrictions() {
        // Nested FILTER is rejected, not reinterpreted.
        assert!(parse_sparql_filtered("{ ?x p ?y OPTIONAL { ?y q ?z FILTER(?z != c) } }").is_err());
        // Top-level UNION with a branch filter is ambiguous: rejected.
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(?x != ?y) UNION ?x q ?y }").is_err());
        // The unambiguous grouped form works.
        assert!(
            parse_sparql_filtered("{ { { ?x p ?y } UNION { ?x q ?y } } FILTER(?x != ?y) }").is_ok()
        );
        // The filter-less entry points refuse to drop a filter.
        assert!(parse_sparql("{ ?x p ?y FILTER(?x != ?y) }").is_err());
        assert!(parse_sparql_select("SELECT ?x WHERE { ?x p ?y FILTER(?x != ?y) }").is_err());
        // Lexer errors for stray operators.
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(?x = ?y &) }").is_err());
        assert!(parse_sparql_filtered("{ ?x p ?y FILTER(BOUND(c)) }").is_err());
    }

    #[test]
    fn select_list_errors() {
        // Empty list: neither '*' nor a variable follows SELECT.
        assert!(parse_sparql_select("SELECT WHERE { ?x p ?y }").is_err());
        // Duplicate projection variable.
        assert!(parse_sparql_select("SELECT ?x ?x WHERE { ?x p ?y }").is_err());
        // Missing WHERE after the list.
        assert!(parse_sparql_select("SELECT ?x { ?x p ?y }").is_err());
        // Projection is accepted by parse_sparql (and dropped).
        assert!(parse_sparql("SELECT ?x WHERE { ?x p ?y }").is_ok());
    }

    /// `>` is neither a word byte nor a token of its own: it used to lex
    /// as an empty word forever, without advancing.
    #[test]
    fn stray_closing_angle_is_a_positioned_error() {
        let e = parse_sparql("SELECT * WHERE { ?x p > }").unwrap_err();
        assert_eq!(e.offset, 22, "{e}");
        assert!(e.message.contains("unexpected character '>'"), "{e}");
        assert_eq!(parse_sparql("{ > }").unwrap_err().offset, 2);
    }

    #[test]
    fn group_conjunction() {
        let p = parse_sparql("{ { ?x p ?y . ?y p ?z } ?z p ?w }").unwrap();
        let expected = parse_pattern("((?x, p, ?y) AND (?y, p, ?z)) AND (?z, p, ?w)").unwrap();
        assert_eq!(p, expected);
    }
}
