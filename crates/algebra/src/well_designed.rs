//! Well-designedness (§2, "Well-designed SPARQL").
//!
//! A UNION-free pattern `P` is *well-designed* if for every subpattern
//! `P' = (P1 OPT P2)` of `P`, every variable occurring in `P2` but not in
//! `P1` does not occur outside `P'` in `P`. A general pattern is
//! well-designed if it is `P1 UNION ··· UNION Pm` with every branch a
//! UNION-free well-designed pattern (UNION normal form).
//!
//! The check is linear in `|P|` times the number of 64-variable words.
//! The leaves (triple patterns) of a branch are numbered left to right,
//! so every subpattern `P'` covers a contiguous range `[lo, hi)` of them,
//! and a variable occurs outside `P'` iff it first occurs before `lo` or
//! last occurs at `hi` or later. The variables are numbered twice: by
//! first occurrence, under which "first occurs before `lo`" is a prefix
//! of the numbers, and by last occurrence, under which "last occurs at
//! `hi` or later" is a suffix. One post-order pass carries each
//! subpattern's variables as a bitset in both numberings and tests every
//! OPT against the prefix and the suffix of its range, a word at a time.

use crate::pattern::GraphPattern;
use std::fmt;
use wdsparql_rdf::Variable;

/// Why a pattern fails to be well-designed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WdViolation {
    /// A UNION occurs below an AND or OPT, so the pattern has no UNION
    /// normal form.
    UnionNotTopLevel,
    /// Some `(P1 OPT P2)` has a variable in `P2 \ P1` that also occurs
    /// outside the OPT subpattern.
    OptScope {
        variable: Variable,
        subpattern: String,
    },
}

impl fmt::Display for WdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WdViolation::UnionNotTopLevel => {
                write!(f, "UNION occurs below AND/OPT (no UNION normal form)")
            }
            WdViolation::OptScope {
                variable,
                subpattern,
            } => write!(
                f,
                "variable {variable} of the optional side of {subpattern} occurs outside it"
            ),
        }
    }
}

impl std::error::Error for WdViolation {}

/// Checks whether `p` is well-designed; `Err` explains the first violation:
/// the first branch that has one, in it the first `OPT` subpattern in
/// pre-order that violates the condition, and of that one the offending
/// variable that comes first in [`Variable`]'s order.
pub fn check_well_designed(p: &GraphPattern) -> Result<(), WdViolation> {
    let branches = p.union_branches().ok_or(WdViolation::UnionNotTopLevel)?;
    for b in branches {
        Scope::new(b).check(b)?;
    }
    Ok(())
}

/// Convenience boolean wrapper around [`check_well_designed`].
pub fn is_well_designed(p: &GraphPattern) -> bool {
    check_well_designed(p).is_ok()
}

/// Where the variables of one UNION-free pattern occur: the leaves in
/// order, each variable numbered by first and by last occurrence.
struct Scope {
    /// `(variable, number by first occurrence)`, ascending by variable.
    ids: Vec<(Variable, usize)>,
    /// Per number by first occurrence: the variable, and its number by
    /// last occurrence.
    vars: Vec<(Variable, usize)>,
    /// Per leaf `i`: how many variables first occur before leaf `i`, and
    /// how many last occur before it.
    before: Vec<(usize, usize)>,
    /// 64-bit words per variable set.
    words: usize,
}

/// The post-order pass of [`Scope::check`]: the variable sets of the
/// subpatterns whose parent is still open, `2 · words` each (by first,
/// then by last occurrence), and the earliest violation in pre-order so
/// far.
struct Pass<'p> {
    sets: Vec<u64>,
    next_leaf: usize,
    next_node: usize,
    found: Option<(usize, Variable, &'p GraphPattern)>,
}

/// The words of the bits `0..k` (`below`) or `k..` (`!below`).
fn prefix_word(w: usize, k: usize, below: bool) -> u64 {
    let ones = match k.saturating_sub(w * 64) {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    };
    if below {
        ones
    } else {
        !ones
    }
}

/// The bits set in `words`.
fn bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            let b = word.trailing_zeros() as usize;
            word &= word.checked_sub(1)?;
            Some(w * 64 + b)
        })
    })
}

impl Scope {
    fn new(p: &GraphPattern) -> Scope {
        let triples = p.triples();
        let mut ids: Vec<(Variable, usize)> = Vec::new();
        // Per number by first occurrence: the variable, its first and
        // last leaf.
        let mut occurs: Vec<(Variable, usize, usize)> = Vec::new();
        for (leaf, t) in triples.iter().enumerate() {
            for v in t.var_occurrences() {
                match ids.binary_search_by_key(&v, |&(u, _)| u) {
                    Ok(k) => occurs[ids[k].1].2 = leaf,
                    Err(k) => {
                        ids.insert(k, (v, occurs.len()));
                        occurs.push((v, leaf, leaf));
                    }
                }
            }
        }
        let mut by_last: Vec<usize> = (0..occurs.len()).collect();
        by_last.sort_by_key(|&id| occurs[id].2);
        let mut vars: Vec<(Variable, usize)> = occurs.iter().map(|&(v, ..)| (v, 0)).collect();
        for (rank, &id) in by_last.iter().enumerate() {
            vars[id].1 = rank;
        }
        let mut before = vec![(0, 0); triples.len() + 1];
        for &(_, first, last) in &occurs {
            before[first + 1].0 += 1;
            before[last + 1].1 += 1;
        }
        for i in 1..before.len() {
            before[i].0 += before[i - 1].0;
            before[i].1 += before[i - 1].1;
        }
        Scope {
            ids,
            vars,
            before,
            words: occurs.len().div_ceil(64),
        }
    }

    /// The numbers of `v` by first and by last occurrence.
    fn numbers(&self, v: Variable) -> (usize, usize) {
        let k = self.ids.binary_search_by_key(&v, |&(u, _)| u);
        let first = self.ids[k.expect("every variable of the pattern has a number")].1;
        (first, self.vars[first].1)
    }

    fn check(&self, p: &GraphPattern) -> Result<(), WdViolation> {
        let mut pass = Pass {
            sets: Vec::new(),
            next_leaf: 0,
            next_node: 0,
            found: None,
        };
        self.walk(p, &mut pass);
        match pass.found {
            None => Ok(()),
            Some((_, variable, opt)) => Err(WdViolation::OptScope {
                variable,
                subpattern: opt.to_string(),
            }),
        }
    }

    /// Pushes the variables of `p` onto `pass.sets` and returns its range
    /// of leaves; on the way, records the earliest violating `OPT`.
    fn walk<'p>(&self, p: &'p GraphPattern, pass: &mut Pass<'p>) -> (usize, usize) {
        let w = self.words;
        let node = pass.next_node;
        pass.next_node += 1;
        let (l, r) = match p {
            GraphPattern::Triple(t) => {
                let at = pass.sets.len();
                pass.sets.resize(at + 2 * w, 0);
                for v in t.var_occurrences() {
                    let (first, last) = self.numbers(v);
                    pass.sets[at + first / 64] |= 1 << (first % 64);
                    pass.sets[at + w + last / 64] |= 1 << (last % 64);
                }
                pass.next_leaf += 1;
                return (pass.next_leaf - 1, pass.next_leaf);
            }
            GraphPattern::And(l, r) | GraphPattern::Opt(l, r) => (l, r),
            GraphPattern::Union(_, _) => unreachable!("a UNION-free branch"),
        };
        let (lo, _) = self.walk(l, pass);
        let (_, hi) = self.walk(r, pass);
        let right = pass.sets.len() - 2 * w;
        let left = right - 2 * w;
        if matches!(p, GraphPattern::Opt(_, _)) && pass.found.is_none_or(|(n, ..)| node < n) {
            // `vars(P2) \ vars(P1)` that first occur before `p`, and
            // those that last occur after it.
            let sets = &pass.sets;
            let (first_before, last_before) = (self.before[lo].0, self.before[hi].1);
            let new = |i: usize| sets[right + i] & !sets[left + i];
            let early = bits((0..w).map(|i| new(i) & prefix_word(i, first_before, true)));
            let late = bits((0..w).map(|i| new(w + i) & prefix_word(i, last_before, false)));
            let by_last = |rank: usize| self.vars.iter().find(|&&(_, r)| r == rank);
            let bad = (early.map(|id| self.vars[id].0))
                .chain(late.filter_map(|rank| by_last(rank).map(|&(v, _)| v)))
                .min();
            if let Some(v) = bad {
                pass.found = Some((node, v, p));
            }
        }
        for i in 0..2 * w {
            pass.sets[left + i] |= pass.sets[right + i];
        }
        pass.sets.truncate(right);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;

    fn t(s: &str, p: &str, o: &str) -> GraphPattern {
        let term = |x: &str| {
            if let Some(name) = x.strip_prefix('?') {
                var(name)
            } else {
                iri(x)
            }
        };
        GraphPattern::triple(tp(term(s), term(p), term(o)))
    }

    /// P1 from Example 1 — well-designed.
    fn example1_p1() -> GraphPattern {
        GraphPattern::opt(
            GraphPattern::opt(t("?x", "p", "?y"), t("?z", "q", "?x")),
            GraphPattern::and(t("?y", "r", "?o1"), t("?o1", "r", "?o2")),
        )
    }

    /// P2 from Example 1 — NOT well-designed (`?z` escapes its OPT).
    fn example1_p2() -> GraphPattern {
        GraphPattern::opt(
            GraphPattern::opt(t("?x", "p", "?y"), t("?z", "q", "?x")),
            GraphPattern::and(t("?y", "r", "?z"), t("?z", "r", "?o2")),
        )
    }

    #[test]
    fn example1_classification() {
        assert!(is_well_designed(&example1_p1()));
        let err = check_well_designed(&example1_p2()).unwrap_err();
        match err {
            WdViolation::OptScope { variable, .. } => {
                assert_eq!(variable, Variable::new("z"));
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn single_triple_is_well_designed() {
        assert!(is_well_designed(&t("?x", "p", "?y")));
    }

    #[test]
    fn and_only_patterns_are_well_designed() {
        let p = GraphPattern::and(
            GraphPattern::and(t("?x", "p", "?y"), t("?y", "q", "?z")),
            t("?z", "r", "c"),
        );
        assert!(is_well_designed(&p));
    }

    #[test]
    fn top_level_union_of_wd_branches_is_wd() {
        let p = GraphPattern::union(
            example1_p1(),
            GraphPattern::opt(
                t("?x", "p", "?y"),
                GraphPattern::and(t("?z", "q", "?x"), t("?w", "q", "?z")),
            ),
        );
        assert!(is_well_designed(&p));
    }

    #[test]
    fn union_under_and_is_rejected() {
        let p = GraphPattern::and(
            GraphPattern::union(t("?x", "p", "?y"), t("?x", "q", "?y")),
            t("?y", "r", "?z"),
        );
        assert_eq!(check_well_designed(&p), Err(WdViolation::UnionNotTopLevel));
    }

    #[test]
    fn violation_through_and_sibling() {
        // (A OPT B) AND C where B's private var reappears in C.
        let p = GraphPattern::and(
            GraphPattern::opt(t("?x", "p", "?y"), t("?z", "q", "?x")),
            t("?z", "r", "?w"),
        );
        assert!(!is_well_designed(&p));
    }

    #[test]
    fn shared_lhs_variable_is_fine() {
        // Variable shared between OPT's left side and outside is allowed.
        let p = GraphPattern::and(
            GraphPattern::opt(t("?x", "p", "?y"), t("?y", "q", "?w")),
            t("?x", "r", "?u"),
        );
        assert!(is_well_designed(&p));
    }

    #[test]
    fn nested_opt_inner_private_vars() {
        // ((A OPT B) OPT C) where C reuses B's private variable: violation
        // because the inner OPT's ?z occurs outside it (in C).
        let p = GraphPattern::opt(
            GraphPattern::opt(t("?x", "p", "?y"), t("?z", "q", "?x")),
            t("?z", "r", "?o"),
        );
        assert!(!is_well_designed(&p));
        // But a deeper OPT extending its own branch is fine:
        // (A OPT (B OPT C)) with C using B's vars.
        let q = GraphPattern::opt(
            t("?x", "p", "?y"),
            GraphPattern::opt(t("?z", "q", "?x"), t("?z", "r", "?o")),
        );
        assert!(is_well_designed(&q));
    }

    #[test]
    fn violation_display_mentions_variable() {
        let err = check_well_designed(&example1_p2()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("?z"), "message was {msg}");
    }
}
