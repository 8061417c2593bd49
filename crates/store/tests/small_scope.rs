//! The BGP join checked exhaustively on a small scope (the small-scope
//! hypothesis: most join bugs show on a tiny vocabulary, and there every
//! case can be tried, so the first failure is a minimal one).
//!
//! * **BGPs:** every set of one to three triple patterns whose subject
//!   and object are drawn from `{?x, ?y, ?z, a}` and whose predicate is
//!   `p` or `q`, each counted once up to renaming its variables.
//! * **Graphs:** every subset of `{a, b} × {p, q} × {a, b}` (256 graphs),
//!   each as a compacted [`EncodedGraph`] and as one whose triples all sit
//!   in pending delta segments.
//! * **Routes:** the stream under every pairwise plan order, under the
//!   leapfrog (`Wco`) and under `Auto`, each run to the end and to every
//!   `LIMIT` prefix; and [`join_keyed`] under all three strategies, with a
//!   key table over each proper subset of the BGP's variables (every
//!   assignment of that subset over `{a, b}`).
//! * **Checks:** every run equals the definition — every mapping µ of the
//!   BGP's variables with µ(BGP) ⊆ G — computed here by trying every
//!   assignment; every prefix is the head of its full run; every keyed
//!   run holds, per key, the solutions that agree with that key.
//!
//! A release build sweeps every graph (CI runs it as a step of its own,
//! about 30 s on two cores); a debug build, as `cargo test` runs it,
//! sweeps only the empty graph, the eight one-triple graphs and the full
//! graph, which keeps it to seconds.

use wdsparql_rdf::{
    Iri, Mapping, QueryBudget, RowTable, SolutionStream, Term, Triple, TripleIndex, TriplePattern,
    Variable,
};
use wdsparql_store::{
    join_keyed, open_bgp_stream, EncodedGraph, JoinStrategy, JoinStream, PairwisePlan,
};

/// A subject or object: `?x`, `?y`, `?z` (0–2) or the constant `a` (3).
type Node = u8;
/// `(subject, predicate, object)`, the predicate 0 for `p`, 1 for `q`.
type Pat = (Node, u8, Node);

/// The vocabulary, interned once.
struct Vocab {
    vars: [Variable; 3],
    nodes: [Iri; 2],
    preds: [Iri; 2],
}

impl Vocab {
    fn new() -> Vocab {
        Vocab {
            vars: ["x", "y", "z"].map(Variable::new),
            nodes: ["a", "b"].map(Iri::new),
            preds: ["p", "q"].map(Iri::new),
        }
    }

    fn term(&self, n: Node) -> Term {
        match n {
            3 => Term::Iri(self.nodes[0]),
            v => Term::Var(self.vars[usize::from(v)]),
        }
    }

    fn pattern(&self, (s, p, o): Pat) -> TriplePattern {
        TriplePattern::new(
            self.term(s),
            Term::Iri(self.preds[usize::from(p)]),
            self.term(o),
        )
    }

    /// Triple `i` of the eight in `{a, b} × {p, q} × {a, b}`.
    fn triple(&self, i: u32) -> Triple {
        let bit = |b: u32| usize::from(i & (1 << b) != 0);
        Triple::new(self.nodes[bit(2)], self.preds[bit(1)], self.nodes[bit(0)])
    }
}

/// The index of `(s, p, o)` among the eight triples of [`Vocab::triple`].
fn triple_index(s: usize, p: usize, o: usize) -> u32 {
    (s << 2 | p << 1 | o) as u32
}

/// Every BGP of one to three distinct patterns, once up to variable
/// renaming: a pattern set is kept when no renaming of `{x, y, z}` maps it
/// to a smaller sorted set.
fn bgps() -> Vec<Vec<Pat>> {
    let mut pats: Vec<Pat> = Vec::new();
    for s in 0..4 {
        for p in 0..2 {
            for o in 0..4 {
                pats.push((s, p, o));
            }
        }
    }
    const RENAMINGS: [[Node; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let rename = |set: &[Pat], r: &[Node; 3]| {
        let node = |n: Node| if n == 3 { 3 } else { r[usize::from(n)] };
        let mut out: Vec<Pat> = set.iter().map(|&(s, p, o)| (node(s), p, node(o))).collect();
        out.sort_unstable();
        out
    };
    let canonical = |set: &[Pat]| RENAMINGS.iter().all(|r| rename(set, r).as_slice() >= set);
    let n = pats.len();
    let mut sets: Vec<Vec<Pat>> = Vec::new();
    for i in 0..n {
        sets.push(vec![pats[i]]);
        for j in i + 1..n {
            sets.push(vec![pats[i], pats[j]]);
            for k in j + 1..n {
                sets.push(vec![pats[i], pats[j], pats[k]]);
            }
        }
    }
    sets.retain(|set| canonical(set));
    sets
}

/// The definition: every assignment µ of the BGP's variables over
/// `{a, b}` with every pattern's image among the graph's triples (the bits
/// of `graph`), as sorted mappings.
fn reference(v: &Vocab, bgp: &[Pat], graph: u32) -> Vec<Mapping> {
    let mut used = [false; 3];
    for &(s, _, o) in bgp {
        for n in [s, o] {
            if n < 3 {
                used[usize::from(n)] = true;
            }
        }
    }
    let free: Vec<usize> = (0..3).filter(|&i| used[i]).collect();
    let mut out = Vec::new();
    for bits in 0..1u32 << free.len() {
        let mut value = [0usize; 3];
        for (at, &var) in free.iter().enumerate() {
            value[var] = usize::from(bits & (1 << at) != 0);
        }
        let node = |n: Node| if n == 3 { 0 } else { value[usize::from(n)] };
        let holds = bgp
            .iter()
            .all(|&(s, p, o)| graph & (1 << triple_index(node(s), usize::from(p), node(o))) != 0);
        if holds {
            out.push(Mapping::from_pairs(
                free.iter().map(|&var| (v.vars[var], v.nodes[value[var]])),
            ));
        }
    }
    out.sort();
    out
}

/// Every ordering of `0..n`.
fn plan_orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in plan_orders(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

/// The pairwise stream under an explicit plan.
fn pairwise<'a>(
    ix: &'a dyn TripleIndex,
    pats: &'a [TriplePattern],
    plan: &PairwisePlan,
    budget: &'a QueryBudget,
) -> impl SolutionStream + 'a {
    JoinStream::pairwise(ix, pats, plan.clone(), budget, false)
}

/// Runs `open` to the end and to every `LIMIT` prefix: the full run is
/// `want` up to order, and each prefix is the head of the full run.
fn check_prefixes<S: SolutionStream>(
    want: &[Mapping],
    what: &dyn Fn() -> String,
    open: impl Fn() -> S,
) {
    let full = open().collect_limit(None).expect("unlimited");
    let mut sorted = full.clone();
    sorted.sort();
    assert_eq!(sorted, want, "{}", what());
    for k in 0..=full.len() + 1 {
        let prefix = open().collect_limit(Some(k)).expect("unlimited");
        assert_eq!(prefix, full[..k.min(full.len())], "{} LIMIT {k}", what());
    }
}

/// Every key table the keyed join is checked under: one per proper
/// subset of the BGP's variables, holding every assignment of the subset
/// over `{a, b}` (the empty subset is the unit table).
fn key_tables(v: &Vocab, pats: &[TriplePattern]) -> Vec<RowTable> {
    let mut vars: Vec<Variable> = pats.iter().flat_map(|p| p.var_occurrences()).collect();
    vars.sort_unstable();
    vars.dedup();
    let mut tables = Vec::new();
    for subset in 0..(1u32 << vars.len()) - 1 {
        let key: Vec<Variable> = (0..vars.len())
            .filter(|&i| subset & (1 << i) != 0)
            .map(|i| vars[i])
            .collect();
        if key.is_empty() {
            tables.push(RowTable::unit());
            continue;
        }
        let mut table = RowTable::new(key.clone());
        for bits in 0..1u32 << key.len() {
            let row: Vec<Option<Iri>> = (0..key.len())
                .map(|at| Some(v.nodes[usize::from(bits & (1 << at) != 0)]))
                .collect();
            table.push(&row);
        }
        tables.push(table);
    }
    tables
}

/// One BGP on one layout of one graph, through every route.
fn check(v: &Vocab, ix: &dyn TripleIndex, bgp: &[Pat], want: &[Mapping], label: &str) {
    let pats: Vec<TriplePattern> = bgp.iter().map(|&p| v.pattern(p)).collect();
    let budget = QueryBudget::unlimited();
    let counts: Vec<usize> = pats.iter().map(|p| ix.candidate_count(p)).collect();
    for order in plan_orders(pats.len()) {
        let plan = PairwisePlan {
            order: order.clone(),
            counts: counts.clone(),
        };
        let what = || format!("{label} pairwise plan {order:?} of {pats:?}");
        check_prefixes(want, &what, || pairwise(ix, &pats, &plan, &budget));
    }
    for strategy in [JoinStrategy::Wco, JoinStrategy::Auto] {
        let what = || format!("{label} {strategy} stream of {pats:?}");
        check_prefixes(want, &what, || {
            open_bgp_stream(ix, &pats, strategy, &budget)
        });
    }
    for keys in key_tables(v, &pats) {
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            let (rows, tags) = join_keyed(ix, &pats, &keys, strategy, &budget).expect("unlimited");
            assert_eq!(rows.len(), tags.len());
            for (k, key) in keys.rows().enumerate() {
                let agrees = |mu: &Mapping| {
                    (keys.vars().iter().zip(key)).all(|(&var, &cell)| mu.get(var) == cell)
                };
                let want_k: Vec<&Mapping> = want.iter().filter(|mu| agrees(mu)).collect();
                let mut got: Vec<Mapping> = (0..rows.len())
                    .filter(|&r| tags[r] as usize == k)
                    .map(|r| rows.mapping(r))
                    .collect();
                got.sort();
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    want_k,
                    "{label} {strategy} keyed {:?} = {key:?} of {pats:?}",
                    keys.vars()
                );
            }
        }
    }
}

/// Every BGP on one graph (the bits of `graph`), on both layouts.
fn sweep_graph(v: &Vocab, bgps: &[Vec<Pat>], graph: u32) {
    let triples: Vec<Triple> = (0..8)
        .filter(|&i| graph & (1 << i) != 0)
        .map(|i| v.triple(i))
        .collect();
    let compacted = EncodedGraph::from_triples(triples.iter().copied());
    let mut pending = EncodedGraph::new();
    for batch in triples.chunks(2) {
        pending
            .insert_batch(batch.iter().copied())
            .expect("tiny batch");
    }
    assert_eq!(pending.base_len(), 0, "tiny batches never fold");
    let (on_compacted, on_pending) = (
        format!("compacted {graph:#010b}"),
        format!("pending {graph:#010b}"),
    );
    for bgp in bgps {
        let want = reference(v, bgp, graph);
        check(v, &compacted, bgp, &want, &on_compacted);
        check(v, &pending, bgp, &want, &on_pending);
    }
}

#[test]
fn every_small_bgp_on_every_small_graph() {
    let v = Vocab::new();
    let bgps = bgps();
    let graphs: Vec<u32> = (0..256u32)
        .filter(|g| !cfg!(debug_assertions) || g.count_ones() <= 1 || *g == 255)
        .collect();
    // A few workers, each taking every `workers`-th graph: the cases are
    // independent, and a failure names its graph and BGP.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (v, bgps, graphs) = (&v, &bgps, &graphs);
            scope.spawn(move || {
                for &graph in graphs.iter().skip(w).step_by(workers) {
                    sweep_graph(v, bgps, graph);
                }
            });
        }
    });
    eprintln!(
        "{} BGPs x {} graphs = {} (BGP, graph) pairs",
        bgps.len(),
        graphs.len(),
        bgps.len() * graphs.len()
    );
}
