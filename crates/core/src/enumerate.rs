//! Full solution enumeration `⟦T⟧_G` / `⟦F⟧_G` over pattern trees, set at
//! a time.
//!
//! ## The algorithm
//!
//! Lemma 1 says how a homomorphism of a node extends downwards: each
//! child either has no compatible extension — and then *must* be skipped
//! — or contributes one of its recursively maximal extensions — and then
//! *must* extend. Sibling subtrees share no private variables (condition
//! (3) of wdPTs), so their extensions combine by cartesian product.
//!
//! A child sees the bindings above it only through its **interface**:
//! the variables its subtree shares with the nodes on its branch, which
//! condition (3) confines to `vars(child) ∩ vars(parent)`. So the
//! extensions of a child depend on the interface binding alone, and OPT
//! is a left outer join on the interface: every node is evaluated *once
//! per distinct interface binding* of all its parent's rows, the parent's
//! rows look their extensions up by key, and a key with no extension
//! leaves the child's columns unbound — the outer join's null is exactly
//! Lemma 1's "must be skipped". This is the per-mapping recursion with
//! its loops exchanged; the solutions are the same.
//!
//! Everything runs on [`RowTable`]s (flat rows over a sorted variable
//! schema). A subtree's table is sorted in [`Mapping`](wdsparql_rdf::Mapping)
//! order while still flat and decoded once, and a forest's union merges
//! the trees' sorted sets.
//!
//! ## One node: the store's keyed join
//!
//! A node's own rows are the solutions of its BGP under each of its keys,
//! computed by [`join_keyed`] — the set-at-a-time driver of the store's
//! node join, which shares its plan order, step resolution and
//! [`JoinStrategy::Auto`] rule with the BGP service (see
//! [`wdsparql_store::join`] for the order, the scan-or-probe rule and
//! when the leapfrog triejoin runs). This module keeps the tree walk:
//! interfaces, distinct keys, the outer join per child, and the sort.

use wdsparql_algebra::SolutionSet;
use wdsparql_rdf::{ExecError, QueryBudget, RowTable, TripleIndex, TriplePattern, Variable};
use wdsparql_store::{join_keyed, JoinStrategy};
use wdsparql_tree::{NodeId, Wdpf, Wdpt};

/// Enumerates `⟦F⟧_G = ⋃_i ⟦T_i⟧_G` (nested-loop node joins).
pub fn enumerate_forest(f: &Wdpf, g: &dyn TripleIndex) -> SolutionSet {
    enumerate_forest_with(f, g, JoinStrategy::Pairwise)
}

/// As [`enumerate_forest`], with a [`JoinStrategy`] knob for the
/// per-node query cores: each node's pattern set is a BGP, and under
/// `Wco` — or `Auto`, for a core that is cyclic *once the interface is
/// bound* or whose pairwise plan is predicted to blow up — it evaluates
/// through the store's worst-case-optimal leapfrog join instead of the
/// nested loop (see the module docs).
pub fn enumerate_forest_with(f: &Wdpf, g: &dyn TripleIndex, strategy: JoinStrategy) -> SolutionSet {
    enumerate_forest_budgeted(f, g, strategy, &QueryBudget::unlimited())
        .expect("an unlimited budget never fails a checkpoint")
}

/// As [`enumerate_forest_with`], under a [`QueryBudget`]: enumeration
/// checkpoints once per node evaluation and once per produced row (and
/// the leapfrog join checkpoints inside its seek loops), so a deadline or
/// cancellation surfaces as a typed [`ExecError`] instead of running to
/// completion.
pub fn enumerate_forest_budgeted(
    f: &Wdpf,
    g: &dyn TripleIndex,
    strategy: JoinStrategy,
    budget: &QueryBudget,
) -> Result<SolutionSet, ExecError> {
    let mut out = SolutionSet::new();
    for t in &f.trees {
        // A linear merge of two sorted sets (a move when `out` is empty).
        out.append(&mut enumerate_tree(t, g, strategy, budget)?);
    }
    Ok(out)
}

/// `⟦T⟧_G` for one tree of the forest: the tree walk from the root.
fn enumerate_tree(
    t: &Wdpt,
    g: &dyn TripleIndex,
    strategy: JoinStrategy,
    budget: &QueryBudget,
) -> Result<SolutionSet, ExecError> {
    debug_assert!(
        t.check_connectedness().is_ok(),
        "interfaces are read off condition (3) of wdPTs"
    );
    let mut below = vec![Vec::new(); t.len()];
    vars_below(t, t.root(), &mut below);
    let eval = TreeEval {
        t,
        g,
        strategy,
        budget,
        below,
    };
    let (mut rows, _) = eval.subtree(t.root(), &RowTable::unit())?;
    rows.sort_as_mappings();
    // Sorted and distinct already: the set is built in one pass.
    Ok(rows.into_mappings().into_iter().collect())
}

/// Fills `below[n]` with the variables of the subtree rooted at `n`,
/// ascending, for `n` and every node under it.
fn vars_below(t: &Wdpt, n: NodeId, below: &mut [Vec<Variable>]) {
    let mut vars: Vec<Variable> = t.pat(n).iter().flat_map(|p| p.var_occurrences()).collect();
    for &c in t.children(n) {
        vars_below(t, c, below);
        vars.extend_from_slice(&below[c.0]);
    }
    vars.sort_unstable();
    vars.dedup();
    below[n.0] = vars;
}

/// Rows of one node evaluation, each tagged with the index of the key it
/// extends.
type Tagged = (RowTable, Vec<u32>);

/// The extensions of one child, ready for its parent's outer join.
struct Extensions {
    /// Per parent row, the index of its interface key.
    key_of: Vec<u32>,
    /// The child's subtree rows, those of key `k` at
    /// `offsets[k]..offsets[k + 1]`.
    rows: RowTable,
    offsets: Vec<u32>,
    /// `(column in rows, column in the parent's output)` of the variables
    /// the child's subtree adds to the parent's.
    adds: Vec<(usize, usize)>,
}

/// One tree's evaluation: the tree, the index, and what is fixed per run.
struct TreeEval<'a> {
    t: &'a Wdpt,
    g: &'a dyn TripleIndex,
    strategy: JoinStrategy,
    budget: &'a QueryBudget,
    /// Per node, the variables of its subtree, ascending.
    below: Vec<Vec<Variable>>,
}

impl TreeEval<'_> {
    /// The maximal solutions of the subtree rooted at `n` under each of
    /// `keys` — distinct bindings of the subtree's interface, the
    /// variables it shares with the nodes above it. Returns rows over the
    /// subtree's variables, those extending key `k` at
    /// `offsets[k]..offsets[k + 1]`.
    fn subtree(&self, n: NodeId, keys: &RowTable) -> Result<Tagged, ExecError> {
        // Before any index work, so that a dead budget fails first.
        self.budget.check()?;
        let pats: Vec<TriplePattern> = self.t.pat(n).iter().copied().collect();
        let (own, tags) = join_keyed(self.g, &pats, keys, self.strategy, self.budget)?;
        let children = self.t.children(n);
        if children.is_empty() || own.is_empty() {
            return Ok(own.group_by(&tags, keys.len()));
        }
        let mut out = RowTable::new(self.below[n.0].clone());
        let mut kids = Vec::with_capacity(children.len());
        for &c in children {
            // The child's interface: what its subtree shares with this
            // node's rows, which carry this node's own interface along.
            let shared = &self.below[c.0];
            let cols: Vec<usize> = (0..own.width())
                .filter(|&i| shared.binary_search(&own.vars()[i]).is_ok())
                .collect();
            // The rows of a node are distinct (distinct keys, distinct
            // homomorphisms of each), so on all columns they are the keys.
            let projected;
            let (child_keys, key_of) = if cols.len() == own.width() {
                (&own, (0..own.len() as u32).collect())
            } else {
                let (keys, key_of) = own.distinct_on(&cols);
                projected = keys;
                (&projected, key_of)
            };
            let (rows, offsets) = self.subtree(c, child_keys)?;
            let adds = (rows.columns_in(out.vars()).into_iter().enumerate())
                .filter(|&(src, _)| own.column(rows.vars()[src]).is_none())
                .filter_map(|(src, dst)| Some((src, dst?)))
                .collect();
            kids.push(Extensions {
                key_of,
                rows,
                offsets,
                adds,
            });
        }
        // The left outer join with every child, as a product per row.
        let spread: Vec<usize> = own.columns_in(out.vars()).into_iter().flatten().collect();
        let mut out_tags = Vec::with_capacity(own.len());
        for (r, row) in own.rows().enumerate() {
            self.budget.check()?;
            let start = out.len();
            out.push_spread(row, &spread);
            for kid in &kids {
                let k = kid.key_of[r] as usize;
                let (lo, hi) = (kid.offsets[k] as usize, kid.offsets[k + 1] as usize);
                if lo == hi {
                    // No extension: the child is skipped, its columns
                    // stay unbound.
                    continue;
                }
                // One copy of the rows so far per extension.
                let block = out.len() - start;
                out.repeat_tail(start, hi - lo - 1);
                for (copy, ext) in (lo..hi).enumerate() {
                    let ext = kid.rows.row(ext);
                    for b in 0..block {
                        self.budget.check()?;
                        let dst = out.row_mut(start + copy * block + b);
                        for &(src, at) in &kid.adds {
                            dst[at] = ext[src];
                        }
                    }
                }
            }
            out_tags.resize(out.len(), tags[r]);
        }
        Ok(out.group_by(&out_tags, keys.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::{eval, parse_pattern};
    use wdsparql_rdf::RdfGraph;

    fn assert_matches_reference(text: &str, g: &RdfGraph) {
        let p = parse_pattern(text).unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        assert_eq!(
            enumerate_forest(&f, g),
            eval(&p, g),
            "enumeration diverges from reference semantics for {text}"
        );
    }

    fn sample_graph() -> RdfGraph {
        RdfGraph::from_strs([
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("z0", "q", "a"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
            ("w0", "q", "z0"),
            ("d", "q", "a"),
        ])
    }

    #[test]
    fn matches_reference_on_simple_patterns() {
        let g = sample_graph();
        assert_matches_reference("(?x, p, ?y)", &g);
        assert_matches_reference("((?x, p, ?y) AND (?y, r, ?u))", &g);
        assert_matches_reference("((?x, p, ?y) OPT (?y, r, ?u))", &g);
    }

    #[test]
    fn matches_reference_on_nested_opts() {
        let g = sample_graph();
        assert_matches_reference(
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
            &g,
        );
        assert_matches_reference("((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z)))", &g);
        assert_matches_reference("((?x, p, ?y) OPT ((?y, r, ?u) OPT (?u, r, ?v)))", &g);
    }

    #[test]
    fn matches_reference_on_unions() {
        let g = sample_graph();
        assert_matches_reference(
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION ((?x, q, ?y) OPT (?y, p, ?u))",
            &g,
        );
    }

    #[test]
    fn sibling_children_multiply() {
        // Two independent OPT branches, both extendable twice.
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "q", "c1"),
            ("b", "q", "c2"),
            ("a", "r", "d1"),
            ("a", "r", "d2"),
        ]);
        assert_matches_reference("(((?x, p, ?y) OPT (?y, q, ?u)) OPT (?x, r, ?v))", &g);
        let f = Wdpf::from_pattern(
            &parse_pattern("(((?x, p, ?y) OPT (?y, q, ?u)) OPT (?x, r, ?v))").unwrap(),
        )
        .unwrap();
        assert_eq!(enumerate_forest(&f, &g).len(), 4);
    }

    #[test]
    fn empty_graph_has_no_solutions() {
        let f = Wdpf::from_pattern(&parse_pattern("(?x, p, ?y)").unwrap()).unwrap();
        assert!(enumerate_forest(&f, &RdfGraph::new()).is_empty());
    }

    /// A budget that can never be satisfied fails every enumeration
    /// with the typed error before doing index work, and an unlimited
    /// budget reproduces the unbudgeted result exactly — across all
    /// three join strategies.
    #[test]
    fn budgeted_enumeration_types_its_failures_and_agrees_when_unlimited() {
        use std::time::Duration;
        use wdsparql_rdf::CancelToken;
        let g = sample_graph();
        let p =
            parse_pattern("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            let want = enumerate_forest_with(&f, &g, strategy);
            assert_eq!(
                enumerate_forest_budgeted(&f, &g, strategy, &QueryBudget::unlimited()),
                Ok(want),
                "{strategy}: unlimited budget must not change the result"
            );
            // Fresh budget per query: the first checkpoint is the one
            // call guaranteed to consult the clock.
            assert_eq!(
                enumerate_forest_budgeted(
                    &f,
                    &g,
                    strategy,
                    &QueryBudget::with_deadline(Duration::ZERO)
                ),
                Err(ExecError::DeadlineExceeded),
                "{strategy}: a zero deadline must fail typed"
            );
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                enumerate_forest_budgeted(
                    &f,
                    &g,
                    strategy,
                    &QueryBudget::unlimited().and_cancel(token)
                ),
                Err(ExecError::Cancelled),
                "{strategy}: a tripped token must fail typed"
            );
        }
    }

    /// An index that runs `then` at the start of its second
    /// `match_pattern`: whatever it does happens mid-flight, after the
    /// root's rows exist and before any child's do.
    struct Tripwire<'a, F: Fn()> {
        inner: &'a RdfGraph,
        calls: std::cell::Cell<usize>,
        then: F,
    }

    impl<F: Fn()> TripleIndex for Tripwire<'_, F> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn contains(&self, t: &wdsparql_rdf::Triple) -> bool {
            self.inner.contains(t)
        }
        fn triples(&self) -> Box<dyn Iterator<Item = wdsparql_rdf::Triple> + '_> {
            TripleIndex::triples(self.inner)
        }
        fn dom(&self) -> Box<dyn Iterator<Item = wdsparql_rdf::Iri> + '_> {
            TripleIndex::dom(self.inner)
        }
        fn dom_contains(&self, i: wdsparql_rdf::Iri) -> bool {
            self.inner.dom_contains(i)
        }
        fn candidate_count(&self, pat: &TriplePattern) -> usize {
            self.inner.candidate_count(pat)
        }
        fn match_pattern(&self, pat: &TriplePattern) -> Vec<wdsparql_rdf::Triple> {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() == 2 {
                (self.then)();
            }
            self.inner.match_pattern(pat)
        }
    }

    /// A deadline that passes, or a token tripped, while the 10 000-row
    /// three-way OPT is under way stops it typed — under every strategy,
    /// whether the children are scanned (`Pairwise`, `Auto`) or run one
    /// leapfrog join per key (`Wco`).
    #[test]
    fn budget_failing_mid_flight_stops_a_large_enumeration() {
        use std::time::Duration;
        use wdsparql_rdf::{CancelToken, Triple};
        let mut g = RdfGraph::new();
        for i in 0..10_000 {
            let person = format!("person{i}");
            g.insert(Triple::from_strs(&person, "type", "Person"));
            if i % 5 < 3 {
                g.insert(Triple::from_strs(&person, "email", &format!("mail{i}")));
            }
            if i % 2 == 0 {
                g.insert(Triple::from_strs(
                    &person,
                    "city",
                    &format!("city{}", i % 5),
                ));
            }
        }
        let p =
            parse_pattern("((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)").unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            let late = Tripwire {
                inner: &g,
                calls: Default::default(),
                then: || std::thread::sleep(Duration::from_millis(80)),
            };
            let budget = QueryBudget::with_deadline(Duration::from_millis(60));
            assert_eq!(
                enumerate_forest_budgeted(&f, &late, strategy, &budget),
                Err(ExecError::DeadlineExceeded),
                "{strategy}: the deadline passed after the root was joined"
            );
            assert!(late.calls.get() >= 2 && budget.ops() > 1, "{strategy}");
            let token = CancelToken::new();
            let cancelled = Tripwire {
                inner: &g,
                calls: Default::default(),
                then: || token.cancel(),
            };
            assert_eq!(
                enumerate_forest_budgeted(
                    &f,
                    &cancelled,
                    strategy,
                    &QueryBudget::with_cancel(token.clone())
                ),
                Err(ExecError::Cancelled),
                "{strategy}: cancelled after the root was joined"
            );
            assert!(cancelled.calls.get() >= 2, "{strategy}");
        }
        assert_eq!(enumerate_forest(&f, &g).len(), 10_000);
    }

    /// Every join strategy enumerates the same solution sets — on
    /// cyclic node cores (where `Auto` and `Wco` route through the
    /// leapfrog join) and on OPT trees whose branch bindings shrink the
    /// core.
    #[test]
    fn join_strategies_agree_on_cyclic_cores() {
        let g = RdfGraph::from_strs([
            ("1", "r", "2"),
            ("2", "r", "3"),
            ("1", "r", "3"),
            ("3", "r", "1"),
            ("2", "r", "4"),
            ("3", "q", "x"),
        ]);
        for text in [
            // A triangle core in the root.
            "((?a, r, ?b) AND (?b, r, ?c)) AND (?a, r, ?c)",
            // Triangle root with an OPT arm.
            "(((?a, r, ?b) AND (?b, r, ?c)) AND (?a, r, ?c)) OPT (?c, q, ?w)",
            // Acyclic chain under OPT (Auto keeps the hom solver).
            "(?a, r, ?b) OPT ((?b, r, ?c) AND (?c, q, ?w))",
        ] {
            let p = parse_pattern(text).unwrap();
            let f = Wdpf::from_pattern(&p).unwrap();
            let want = eval(&p, &g);
            assert!(!want.is_empty(), "{text} should have solutions");
            for strategy in [
                wdsparql_store::JoinStrategy::Pairwise,
                wdsparql_store::JoinStrategy::Wco,
                wdsparql_store::JoinStrategy::Auto,
            ] {
                assert_eq!(
                    enumerate_forest_with(&f, &g, strategy),
                    want,
                    "{strategy} diverges on {text}"
                );
            }
        }
    }
}
