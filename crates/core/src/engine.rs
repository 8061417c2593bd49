//! The public evaluation API: [`Query`] (a parsed, translated, analysable
//! well-designed pattern) and [`Engine`] (an RDF graph with evaluation
//! strategies).

use crate::enumerate::{enumerate_forest_budgeted, enumerate_forest_with};
use crate::naive::check_forest;
use crate::pebble_eval::check_forest_pebble;
use std::fmt;
use std::sync::{Arc, OnceLock};
use wdsparql_algebra::{
    eval as reference_eval, filter_solutions, parse_pattern, FilterExpr, GraphPattern, SolutionSet,
};
use wdsparql_rdf::{ExecError, Mapping, QueryBudget, RdfGraph, TripleIndex};
use wdsparql_store::{JoinStrategy, ShardedStore, TripleStore};
use wdsparql_tree::{TranslateError, Wdpf};
use wdsparql_width::{branch_treewidth_forest, domination_width, local_width_forest};

/// Errors building a [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    Parse(String),
    Translate(TranslateError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Translate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A well-designed query: the surface pattern plus its wdPF translation
/// and lazily-computed width measures.
pub struct Query {
    pattern: GraphPattern,
    forest: Wdpf,
    dw: OnceLock<usize>,
    bw: OnceLock<usize>,
}

impl Query {
    /// Parses and translates a well-designed pattern. Accepts both the
    /// paper's parenthesised syntax and the SPARQL-style curly syntax
    /// (`SELECT * WHERE { ... }` / `{ ... }`).
    pub fn parse(text: &str) -> Result<Query, QueryError> {
        let trimmed = text.trim_start();
        let pattern = if trimmed.starts_with('{')
            || trimmed
                .get(..6)
                .is_some_and(|p| p.eq_ignore_ascii_case("select"))
        {
            wdsparql_algebra::parse_sparql(text)
        } else {
            parse_pattern(text)
        }
        .map_err(|e| QueryError::Parse(e.to_string()))?;
        Query::from_pattern(pattern)
    }

    /// Parses a SPARQL-style query that may carry top-level `FILTER`
    /// clauses, returning the query together with the filter conjunction
    /// (`FilterExpr::True` when there is none). Evaluate with
    /// [`Engine::evaluate_filtered`].
    pub fn parse_with_filter(text: &str) -> Result<(Query, FilterExpr), QueryError> {
        let (pattern, _, filter) = wdsparql_algebra::parse_sparql_filtered(text)
            .map_err(|e| QueryError::Parse(e.to_string()))?;
        Ok((Query::from_pattern(pattern)?, filter))
    }

    /// Wraps an already-built pattern (checked for well-designedness).
    pub fn from_pattern(pattern: GraphPattern) -> Result<Query, QueryError> {
        let forest = Wdpf::from_pattern(&pattern).map_err(QueryError::Translate)?;
        Ok(Query {
            pattern,
            forest,
            dw: OnceLock::new(),
            bw: OnceLock::new(),
        })
    }

    /// Wraps a hand-built forest (the pattern is reconstructed).
    pub fn from_forest(forest: Wdpf) -> Query {
        let pattern = wdsparql_tree::pattern_from_wdpf(&forest);
        Query {
            pattern,
            forest,
            dw: OnceLock::new(),
            bw: OnceLock::new(),
        }
    }

    pub fn pattern(&self) -> &GraphPattern {
        &self.pattern
    }

    pub fn forest(&self) -> &Wdpf {
        &self.forest
    }

    /// `dw(P)` (cached; exponential in the query size).
    pub fn domination_width(&self) -> usize {
        *self.dw.get_or_init(|| domination_width(&self.forest))
    }

    /// `bw(P)` (cached; meaningful for UNION-free queries, where it equals
    /// `dw(P)` by Proposition 5).
    pub fn branch_treewidth(&self) -> usize {
        *self
            .bw
            .get_or_init(|| branch_treewidth_forest(&self.forest))
    }

    /// The local-tractability width (Letelier et al.).
    pub fn local_width(&self) -> usize {
        local_width_forest(&self.forest)
    }

    pub fn is_union_free(&self) -> bool {
        self.pattern.is_union_free()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pattern.fmt(f)
    }
}

/// How to decide `µ ∈ ⟦P⟧_G`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bottom-up reference semantics (exponential; ground truth).
    Reference,
    /// Lemma-1 algorithm with exact homomorphism checks (coNP).
    Naive,
    /// Theorem-1 algorithm with the (k+1)-pebble game; complete iff
    /// `dw(P) ≤ k`, sound always. `k = 0` is played as `k = 1`: the game
    /// needs two pebbles and no pattern has `dw < 1`.
    Pebble { k: usize },
    /// `Pebble` with `k = dw(P)` — polynomial for any class of bounded
    /// domination width, exact for every query (Theorem 3).
    Auto,
}

/// The data backend an [`Engine`] evaluates against.
enum Backend {
    /// An in-process [`RdfGraph`] with hash-indexed pattern matching
    /// (boxed: a graph is an order of magnitude larger than the store
    /// handle).
    Memory(Box<RdfGraph>),
    /// A shared [`TripleStore`]: the matcher delegates to the store's
    /// sorted-permutation ranges, under the store's read lock.
    Store(Arc<TripleStore>),
    /// A shared [`ShardedStore`]: the matcher scatter-gathers over the
    /// hash-partitioned shards through a
    /// [`wdsparql_store::ShardedSnapshot`] — subject-bound patterns
    /// route to one shard, the rest fan out.
    Sharded(Arc<ShardedStore>),
}

/// An RDF data backend together with evaluation entry points.
pub struct Engine {
    backend: Backend,
    /// How each tree node's query core is joined during enumeration
    /// ([`JoinStrategy::Auto`] by default: cyclic cores take the
    /// worst-case-optimal leapfrog join, acyclic ones an index
    /// nested-loop join in a fixed order — see [`crate::enumerate`]).
    strategy: JoinStrategy,
}

impl Engine {
    pub fn new(graph: RdfGraph) -> Engine {
        Engine {
            backend: Backend::Memory(Box::new(graph)),
            strategy: JoinStrategy::default(),
        }
    }

    /// A store-backed engine: every triple-pattern match inside the
    /// evaluation algorithms resolves through the store's
    /// [`wdsparql_store::EncodedGraph`] range lookups instead of
    /// [`RdfGraph`]'s hash indexes. The store stays shared — concurrent
    /// queries and bulk loads through other handles remain possible.
    pub fn from_store(store: Arc<TripleStore>) -> Engine {
        Engine {
            backend: Backend::Store(store),
            strategy: JoinStrategy::default(),
        }
    }

    /// A sharded-store-backed engine: triple-pattern matches resolve
    /// through a scatter-gather snapshot of the hash-partitioned shards
    /// (subject-bound patterns touch exactly one shard). The store stays
    /// shared — concurrent queries and scattered bulk loads through
    /// other handles remain possible.
    pub fn from_sharded_store(store: Arc<ShardedStore>) -> Engine {
        Engine {
            backend: Backend::Sharded(store),
            strategy: JoinStrategy::default(),
        }
    }

    /// Builder-style [`JoinStrategy`] override for [`Engine::evaluate`] /
    /// [`Engine::count`]'s per-node query cores.
    pub fn with_join_strategy(mut self, strategy: JoinStrategy) -> Engine {
        self.strategy = strategy;
        self
    }

    /// Sets how enumeration joins each node's query core.
    pub fn set_join_strategy(&mut self, strategy: JoinStrategy) {
        self.strategy = strategy;
    }

    /// The configured per-node [`JoinStrategy`].
    pub fn join_strategy(&self) -> JoinStrategy {
        self.strategy
    }

    /// The in-memory graph of a [`Engine::new`]-built engine, or `None`
    /// for a store-backed one — use [`Engine::with_index`],
    /// [`Engine::store`] or [`Engine::sharded_store`] there.
    pub fn graph(&self) -> Option<&RdfGraph> {
        match &self.backend {
            Backend::Memory(g) => Some(g),
            Backend::Store(_) | Backend::Sharded(_) => None,
        }
    }

    /// The shared store of a [`Engine::from_store`]-built engine.
    pub fn store(&self) -> Option<&Arc<TripleStore>> {
        match &self.backend {
            Backend::Memory(_) | Backend::Sharded(_) => None,
            Backend::Store(s) => Some(s),
        }
    }

    /// The shared store of a [`Engine::from_sharded_store`]-built engine.
    pub fn sharded_store(&self) -> Option<&Arc<ShardedStore>> {
        match &self.backend {
            Backend::Memory(_) | Backend::Store(_) => None,
            Backend::Sharded(s) => Some(s),
        }
    }

    /// Runs `f` against the backend's [`TripleIndex`] view (for a store
    /// backend, on a lock-free snapshot).
    pub fn with_index<R>(&self, f: impl FnOnce(&dyn TripleIndex) -> R) -> R {
        match &self.backend {
            Backend::Memory(g) => f(g.as_ref()),
            Backend::Store(s) => s.with_index(|g| f(g)),
            Backend::Sharded(s) => s.with_index(|snap| f(snap)),
        }
    }

    /// Decides `µ ∈ ⟦P⟧_G` with the requested strategy.
    pub fn check(&self, q: &Query, mu: &Mapping, strategy: Strategy) -> bool {
        self.with_index(|g| match strategy {
            Strategy::Reference => reference_eval(q.pattern(), g).contains(mu),
            Strategy::Naive => check_forest(q.forest(), g, mu),
            Strategy::Pebble { k } => check_forest_pebble(q.forest(), g, mu, k),
            Strategy::Auto => {
                let k = q.domination_width();
                check_forest_pebble(q.forest(), g, mu, k)
            }
        })
    }

    /// Enumerates all solutions `⟦P⟧_G`. Each tree node's query core is
    /// joined per the engine's [`JoinStrategy`] — under the default
    /// `Auto`, cyclic cores (triangles, cliques) run through the
    /// worst-case-optimal leapfrog join over the backend's tries.
    pub fn evaluate(&self, q: &Query) -> SolutionSet {
        self.with_index(|g| enumerate_forest_with(q.forest(), g, self.strategy))
    }

    /// As [`Engine::evaluate`], under a [`QueryBudget`]: enumeration
    /// checkpoints the budget throughout the OPT/UNION forest walk (and
    /// inside the leapfrog join's seek loops), so a deadline or a
    /// tripped cancellation token surfaces as a typed [`ExecError`]
    /// instead of running the query to completion.
    pub fn evaluate_budgeted(
        &self,
        q: &Query,
        budget: &QueryBudget,
    ) -> Result<SolutionSet, ExecError> {
        self.with_index(|g| enumerate_forest_budgeted(q.forest(), g, self.strategy, budget))
    }

    /// Enumerates `⟦P FILTER R⟧_G` for a top-level filter (error-as-false
    /// semantics; the §5 FILTER extension). Note that filtering breaks
    /// the width-based tractability guarantees — see
    /// `wdsparql-hardness::emb`.
    pub fn evaluate_filtered(&self, q: &Query, filter: &FilterExpr) -> SolutionSet {
        filter_solutions(self.evaluate(q), filter)
    }

    /// Counts the solutions `|⟦P⟧_G|` (the counting variant discussed in
    /// §5; computed via enumeration).
    pub fn count(&self, q: &Query) -> usize {
        self.evaluate(q).len()
    }

    /// Produces a membership certificate: the Lemma 1 witness subtree on
    /// acceptance, or a per-tree rejection reason (with a counterexample
    /// extension where applicable).
    pub fn explain(&self, q: &Query, mu: &Mapping) -> crate::explain::Explanation {
        self.with_index(|g| crate::explain::explain_forest(q.forest(), g, mu))
    }

    /// A width/tractability report for the query (used by the CLI and the
    /// examples).
    pub fn analyze(&self, q: &Query) -> WidthReport {
        WidthReport {
            union_free: q.is_union_free(),
            trees: q.forest().len(),
            nodes: q.forest().iter().map(|t| t.len()).sum(),
            domination_width: q.domination_width(),
            branch_treewidth: q.branch_treewidth(),
            local_width: q.local_width(),
        }
    }
}

/// Width measures of a query, as reported by [`Engine::analyze`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WidthReport {
    pub union_free: bool,
    pub trees: usize,
    pub nodes: usize,
    pub domination_width: usize,
    pub branch_treewidth: usize,
    pub local_width: usize,
}

impl fmt::Display for WidthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "union-free: {} | trees: {} | nodes: {}",
            self.union_free, self.trees, self.nodes
        )?;
        writeln!(f, "domination width dw(P) = {}", self.domination_width)?;
        writeln!(f, "branch treewidth bw(P) = {}", self.branch_treewidth)?;
        write!(f, "local width            = {}", self.local_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(RdfGraph::from_strs([
            ("a", "p", "b"),
            ("z0", "q", "a"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ]))
    }

    #[test]
    fn strategies_agree_on_bounded_width_query() {
        let e = engine();
        let q =
            Query::parse("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        let sols = e.evaluate(&q);
        assert!(!sols.is_empty());
        for mu in &sols {
            for s in [
                Strategy::Reference,
                Strategy::Naive,
                Strategy::Pebble { k: 1 },
                Strategy::Auto,
            ] {
                assert!(e.check(&q, mu, s), "{s:?} rejected {mu}");
            }
        }
        let non = Mapping::from_strs([("x", "a"), ("y", "b")]);
        for s in [
            Strategy::Reference,
            Strategy::Naive,
            Strategy::Pebble { k: 1 },
            Strategy::Auto,
        ] {
            assert!(!e.check(&q, &non, s), "{s:?} accepted non-solution");
        }
    }

    #[test]
    fn analyze_reports_widths() {
        let e = engine();
        let q = Query::parse("((?x, p, ?y) OPT (?y, r, ?u))").unwrap();
        let r = e.analyze(&q);
        assert!(r.union_free);
        assert_eq!(r.trees, 1);
        assert_eq!(r.nodes, 2);
        assert_eq!(r.domination_width, 1);
        assert_eq!(r.branch_treewidth, 1);
        assert_eq!(r.local_width, 1);
        // Proposition 5 on this query.
        assert_eq!(r.domination_width, r.branch_treewidth);
        let text = r.to_string();
        assert!(text.contains("dw(P) = 1"));
    }

    #[test]
    fn both_surface_syntaxes_parse_to_the_same_query() {
        let paper = Query::parse("(?x, p, ?y) OPT (?y, r, ?u)").unwrap();
        let sparql = Query::parse("SELECT * WHERE { ?x p ?y OPTIONAL { ?y r ?u } }").unwrap();
        let curly = Query::parse("{ ?x p ?y OPTIONAL { ?y r ?u } }").unwrap();
        assert_eq!(paper.pattern(), sparql.pattern());
        assert_eq!(paper.pattern(), curly.pattern());
        let e = engine();
        assert_eq!(e.evaluate(&paper), e.evaluate(&sparql));
    }

    #[test]
    fn count_and_explain_are_consistent() {
        let e = engine();
        let q = Query::parse("{ ?x p ?y OPTIONAL { ?y r ?u } }").unwrap();
        let sols = e.evaluate(&q);
        assert_eq!(e.count(&q), sols.len());
        for mu in &sols {
            assert!(e.explain(&q, mu).is_member());
        }
        assert!(!e
            .explain(&q, &Mapping::from_strs([("x", "zzz"), ("y", "zzz")]))
            .is_member());
    }

    #[test]
    fn query_errors_are_reported() {
        assert!(matches!(Query::parse("(?x, p"), Err(QueryError::Parse(_))));
        assert!(matches!(
            Query::parse("((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2))"),
            Err(QueryError::Translate(_))
        ));
    }

    #[test]
    fn filtered_queries_parse_and_evaluate() {
        let e = engine();
        let (q, f) =
            Query::parse_with_filter("{ ?x p ?y OPTIONAL { ?y r ?u } FILTER(BOUND(?u)) }").unwrap();
        let filtered = e.evaluate_filtered(&q, &f);
        let unfiltered = e.evaluate(&q);
        assert!(filtered.len() < unfiltered.len());
        assert!(filtered
            .iter()
            .all(|mu| mu.contains(wdsparql_rdf::Variable::new("u"))));
        // A filter-free query round-trips through the same entry point.
        let (q2, f2) = Query::parse_with_filter("{ ?x p ?y }").unwrap();
        assert_eq!(f2, wdsparql_algebra::FilterExpr::True);
        assert_eq!(e.evaluate_filtered(&q2, &f2), e.evaluate(&q2));
    }

    #[test]
    fn store_backed_engine_agrees_with_memory_backend() {
        let graph = engine().graph().expect("memory-backed engine").clone();
        let store = Arc::new(TripleStore::from_rdf(&graph));
        let mem = Engine::new(graph);
        let via_store = Engine::from_store(Arc::clone(&store));
        assert!(via_store.store().is_some());
        let q =
            Query::parse("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        let sols = via_store.evaluate(&q);
        assert_eq!(sols, mem.evaluate(&q));
        assert!(!sols.is_empty());
        for mu in &sols {
            for s in [
                Strategy::Reference,
                Strategy::Naive,
                Strategy::Pebble { k: 1 },
                Strategy::Auto,
            ] {
                assert!(via_store.check(&q, mu, s), "{s:?} rejected {mu}");
            }
            assert!(via_store.explain(&q, mu).is_member());
        }
        assert_eq!(via_store.count(&q), mem.count(&q));
        // A bulk load through the shared store is visible immediately.
        store.bulk_load([wdsparql_rdf::Triple::from_strs("g", "p", "h")]);
        assert_eq!(via_store.count(&q), mem.count(&q) + 1);
    }

    #[test]
    fn sharded_backed_engine_agrees_with_memory_backend() {
        let graph = engine().graph().expect("memory-backed engine").clone();
        let store = Arc::new(ShardedStore::from_rdf(3, &graph));
        let mem = Engine::new(graph);
        let via_sharded = Engine::from_sharded_store(Arc::clone(&store));
        assert!(via_sharded.sharded_store().is_some());
        assert!(via_sharded.store().is_none());
        assert!(via_sharded.graph().is_none());
        let q =
            Query::parse("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        let sols = via_sharded.evaluate(&q);
        assert_eq!(sols, mem.evaluate(&q));
        assert!(!sols.is_empty());
        for mu in &sols {
            for s in [
                Strategy::Reference,
                Strategy::Naive,
                Strategy::Pebble { k: 1 },
                Strategy::Auto,
            ] {
                assert!(via_sharded.check(&q, mu, s), "{s:?} rejected {mu}");
            }
        }
        assert_eq!(via_sharded.count(&q), mem.count(&q));
        // A scattered bulk load through the shared store is visible
        // immediately.
        store.bulk_load([wdsparql_rdf::Triple::from_strs("g", "p", "h")]);
        assert_eq!(via_sharded.count(&q), mem.count(&q) + 1);
    }

    #[test]
    fn evaluate_budgeted_agrees_and_honours_deadlines() {
        let e = engine();
        let q =
            Query::parse("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        assert_eq!(
            e.evaluate_budgeted(&q, &QueryBudget::unlimited()),
            Ok(e.evaluate(&q))
        );
        assert_eq!(
            e.evaluate_budgeted(&q, &QueryBudget::with_deadline(std::time::Duration::ZERO)),
            Err(ExecError::DeadlineExceeded)
        );
    }

    #[test]
    fn evaluate_matches_reference() {
        let e = engine();
        let q = Query::parse("((?x, p, ?y) OPT (?y, r, ?u)) UNION ((?z, q, ?x) OPT (?x, p, ?y))")
            .unwrap();
        let reference =
            wdsparql_algebra::eval(q.pattern(), e.graph().expect("memory-backed engine"));
        assert_eq!(e.evaluate(&q), reference);
    }
}
