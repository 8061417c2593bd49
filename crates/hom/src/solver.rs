//! The homomorphism solver.
//!
//! Decides and enumerates:
//!
//! * `(S, X) → (S', X)` — homomorphisms between generalised t-graphs that
//!   fix `X` pointwise (§3 of the paper);
//! * `(S, X) →µ G` — homomorphisms into an RDF graph extending a mapping µ.
//!
//! Both are NP-complete in general (this is CQ containment / evaluation);
//! the solver is a triple-at-a-time backtracking search with a fail-first
//! ordering: at every step it picks the uncovered source triple with the
//! fewest candidate images under the current partial assignment. RDF-graph
//! targets use the store's positional indexes for candidate counting and
//! retrieval; t-graph targets are scanned (they are small by construction).

use crate::tgraph::{GenTGraph, TGraph, VarMap};
use std::collections::{BTreeMap, HashMap};
use wdsparql_rdf::{Mapping, Term, TripleIndex, TriplePattern, Variable};

/// A homomorphism target: either a t-graph (variables may map to terms) or
/// an RDF graph (variables map to IRIs).
#[derive(Clone, Copy)]
pub enum Target<'a> {
    TGraph(&'a TGraph),
    Rdf(&'a dyn TripleIndex),
}

/// A positional index over a t-graph target: for each position, the triple
/// ids carrying a given term there. Built once per search; RDF targets use
/// the store's own indexes instead.
struct TGraphIndex {
    triples: Vec<TriplePattern>,
    by_pos: [HashMap<Term, Vec<u32>>; 3],
}

impl TGraphIndex {
    fn new(s: &TGraph) -> TGraphIndex {
        let triples: Vec<TriplePattern> = s.iter().copied().collect();
        let mut by_pos: [HashMap<Term, Vec<u32>>; 3] = Default::default();
        for (i, t) in triples.iter().enumerate() {
            for (pos, term) in t.positions().into_iter().enumerate() {
                by_pos[pos].entry(term).or_default().push(i as u32);
            }
        }
        TGraphIndex { triples, by_pos }
    }

    /// The shortest candidate list among the fixed positions, or all
    /// triples when every position is free.
    fn shortlist(&self, slots: &[Slot; 3]) -> Option<&[u32]> {
        let mut best: Option<&[u32]> = None;
        for (pos, slot) in slots.iter().enumerate() {
            let Slot::Fixed(term) = slot else { continue };
            let list = self.by_pos[pos].get(term).map(Vec::as_slice).unwrap_or(&[]);
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        best
    }

    fn candidate_count(&self, slots: &[Slot; 3]) -> usize {
        self.shortlist(slots)
            .map_or(self.triples.len(), <[u32]>::len)
    }

    fn candidates(&self, slots: &[Slot; 3]) -> Vec<[Term; 3]> {
        let check = |t: &TriplePattern| slots_unifiable(slots, t);
        match self.shortlist(slots) {
            None => self
                .triples
                .iter()
                .filter(|t| check(t))
                .map(|t| t.positions())
                .collect(),
            Some(list) => list
                .iter()
                .map(|&i| self.triples[i as usize])
                .filter(|t| check(t))
                .map(|t| t.positions())
                .collect(),
        }
    }
}

enum TargetIndex<'a> {
    TGraph(TGraphIndex),
    Rdf(&'a dyn TripleIndex),
}

impl<'a> TargetIndex<'a> {
    fn new(target: Target<'a>) -> TargetIndex<'a> {
        match target {
            Target::TGraph(s) => TargetIndex::TGraph(TGraphIndex::new(s)),
            Target::Rdf(g) => TargetIndex::Rdf(g),
        }
    }

    fn candidate_count(&self, slots: &[Slot; 3]) -> usize {
        match self {
            TargetIndex::Rdf(g) => g.candidate_count(&rdf_pattern(slots)),
            TargetIndex::TGraph(ix) => ix.candidate_count(slots),
        }
    }

    fn candidates(&self, slots: &[Slot; 3]) -> Vec<[Term; 3]> {
        match self {
            TargetIndex::Rdf(g) => g
                .match_pattern(&rdf_pattern(slots))
                .into_iter()
                .map(|t| [Term::Iri(t.s), Term::Iri(t.p), Term::Iri(t.o)])
                .collect(),
            TargetIndex::TGraph(ix) => ix.candidates(slots),
        }
    }
}

/// Renders slots as a triple pattern for the RDF store's matcher. For RDF
/// targets every fixed slot is an IRI (assignments bind variables to IRIs
/// only), and distinct free variables keep repeated-variable constraints.
fn rdf_pattern(slots: &[Slot; 3]) -> TriplePattern {
    let f = |s: &Slot| match s {
        Slot::Fixed(t) => {
            debug_assert!(t.is_iri(), "RDF targets fix variables to IRIs");
            *t
        }
        Slot::Free(v) => Term::Var(*v),
    };
    TriplePattern::new(f(&slots[0]), f(&slots[1]), f(&slots[2]))
}

/// One position of a source triple under the current partial assignment.
///
/// The distinction matters when source and target share variable names
/// (e.g. when folding a t-graph into its own subgraph during core
/// computation): a *bound* source variable contributes its image as a hard
/// constraint — even when that image is itself a variable — while a *free*
/// source variable matches anything and gets bound.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A constant or the image of an already-bound source variable.
    Fixed(Term),
    /// An unbound source variable.
    Free(Variable),
}

/// Positional pre-filter: every fixed position must equal the target
/// position; repeated-free-variable consistency is checked during binding.
fn slots_unifiable(slots: &[Slot; 3], target: &TriplePattern) -> bool {
    slots.iter().zip(target.positions()).all(|(s, t)| match s {
        Slot::Free(_) => true,
        Slot::Fixed(term) => *term == t,
    })
}

/// A budgeted search ran out of steps before it could decide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Undecided;

struct Searcher<'a> {
    triples: Vec<TriplePattern>,
    covered: Vec<bool>,
    assign: VarMap,
    target: TargetIndex<'a>,
    /// Candidate images the search may still try; `None` is unbounded.
    steps: Option<usize>,
    /// Set when `steps` ran out: the search stopped without deciding.
    gave_up: bool,
}

impl<'a> Searcher<'a> {
    fn new(src: &TGraph, target: Target<'a>, fixed: VarMap) -> Searcher<'a> {
        Searcher {
            triples: src.iter().copied().collect(),
            covered: vec![false; src.len()],
            assign: fixed,
            target: TargetIndex::new(target),
            steps: None,
            gave_up: false,
        }
    }

    /// The source triple at `idx` as slots under the current assignment.
    fn slots(&self, idx: usize) -> [Slot; 3] {
        let t = self.triples[idx];
        let f = |term: Term| match term {
            Term::Iri(_) => Slot::Fixed(term),
            Term::Var(v) => match self.assign.get(&v) {
                Some(&image) => Slot::Fixed(image),
                None => Slot::Free(v),
            },
        };
        [f(t.s), f(t.p), f(t.o)]
    }

    /// Picks the next uncovered triple, fail-first: the one with the
    /// fewest candidate images under the current partial assignment.
    fn pick(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for idx in 0..self.triples.len() {
            if self.covered[idx] {
                continue;
            }
            let count = self.target.candidate_count(&self.slots(idx));
            match best {
                Some((_, c)) if c <= count => {}
                _ => best = Some((idx, count)),
            }
            if count == 0 {
                break;
            }
        }
        best
    }

    /// Exhaustive search; `cb` is called once per complete homomorphism and
    /// returns `true` to continue enumerating. Returns `false` if the
    /// callback aborted the search or the step budget ran out (then
    /// `gave_up` is set).
    fn search(&mut self, cb: &mut dyn FnMut(&VarMap) -> bool) -> bool {
        let Some((idx, _)) = self.pick() else {
            return cb(&self.assign);
        };
        self.covered[idx] = true;
        let slots = self.slots(idx);
        for cand in self.target.candidates(&slots) {
            if let Some(left) = &mut self.steps {
                if *left == 0 {
                    self.gave_up = true;
                    self.covered[idx] = false;
                    return false;
                }
                *left -= 1;
            }
            let mut newly_bound: Vec<Variable> = Vec::new();
            let mut ok = true;
            for (slot, value) in slots.iter().zip(cand) {
                match slot {
                    Slot::Fixed(term) => {
                        if *term != value {
                            ok = false;
                            break;
                        }
                    }
                    Slot::Free(v) => match self.assign.get(v) {
                        Some(&prev) => {
                            // Repeated free variable within this triple,
                            // bound a moment ago.
                            if prev != value {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            self.assign.insert(*v, value);
                            newly_bound.push(*v);
                        }
                    },
                }
            }
            let keep_going = if ok { self.search(cb) } else { true };
            for v in newly_bound {
                self.assign.remove(&v);
            }
            if !keep_going {
                self.covered[idx] = false;
                return false;
            }
        }
        self.covered[idx] = false;
        true
    }
}

/// Finds a homomorphism `(S, X) → (S', X)`: a map `h` with
/// `dom(h) = vars(S)`, `h(?x) = ?x` for `?x ∈ X`, and `h(t) ∈ S'` for every
/// `t ∈ S`. The returned map includes the identity bindings on `X`.
pub fn find_hom(src: &GenTGraph, dst: &TGraph) -> Option<VarMap> {
    let fixed: VarMap = src.x.iter().map(|&v| (v, Term::Var(v))).collect();
    let mut searcher = Searcher::new(&src.s, Target::TGraph(dst), fixed);
    let mut found: Option<VarMap> = None;
    searcher.search(&mut |h| {
        found = Some(h.clone());
        false
    });
    found
}

/// `(S, X) → (S', X)`?
pub fn maps_to(src: &GenTGraph, dst: &GenTGraph) -> bool {
    debug_assert_eq!(src.x, dst.x, "homomorphism requires identical X");
    find_hom(src, &dst.s).is_some()
}

/// Finds a homomorphism witnessing `(S, X) →µ G`: `h : vars(S) → I` with
/// `h(?x) = µ(?x)` for `?x ∈ X` and `h(t) ∈ G` for every `t ∈ S`.
///
/// `fixed` may bind additional variables beyond `X` (they are treated as
/// further fixed points); bindings on variables not occurring in `S` are
/// ignored. Returns the full mapping on `vars(S)`.
pub fn find_hom_into_graph(
    src: &GenTGraph,
    g: &dyn TripleIndex,
    fixed: &Mapping,
) -> Option<Mapping> {
    first_hom_into_graph(src, g, fixed, None).expect("an unbounded search always decides")
}

/// [`find_hom_into_graph`] under a budget: the search may try at most
/// `steps` candidate images (one per target triple it attempts to map a
/// source triple onto) and answers `Err(Undecided)` when it would need
/// one more. An answer it does give is exact. Deciding at `steps` implies
/// deciding at every larger budget, and a budget of at least the number
/// of candidates the unbounded search tries always decides.
pub fn find_hom_into_graph_within(
    src: &GenTGraph,
    g: &dyn TripleIndex,
    fixed: &Mapping,
    steps: usize,
) -> Result<Option<Mapping>, Undecided> {
    first_hom_into_graph(src, g, fixed, Some(steps))
}

fn first_hom_into_graph(
    src: &GenTGraph,
    g: &dyn TripleIndex,
    fixed: &Mapping,
    steps: Option<usize>,
) -> Result<Option<Mapping>, Undecided> {
    let mut searcher = graph_searcher(&src.s, g, fixed);
    searcher.steps = steps;
    let mut out: Option<Mapping> = None;
    searcher.search(&mut |h| {
        out = Some(varmap_to_mapping(h));
        false
    });
    match out {
        None if searcher.gave_up => Err(Undecided),
        found => Ok(found),
    }
}

/// A searcher from `src` into `g` with `fixed`'s bindings on the
/// variables of `src` pinned.
fn graph_searcher<'a>(src: &TGraph, g: &'a dyn TripleIndex, fixed: &Mapping) -> Searcher<'a> {
    let vars = src.vars();
    let fixed_map: VarMap = fixed
        .iter()
        .filter(|(v, _)| vars.contains(v))
        .map(|(v, i)| (v, Term::Iri(i)))
        .collect();
    Searcher::new(src, Target::Rdf(g), fixed_map)
}

/// Enumerates every homomorphism from the t-graph `src` into `g` that
/// extends `fixed` (restricted to variables of `src`). `cb` returns `true`
/// to continue; the function returns `false` iff the callback aborted.
pub fn enumerate_homs_into_graph(
    src: &TGraph,
    g: &dyn TripleIndex,
    fixed: &Mapping,
    cb: &mut dyn FnMut(Mapping) -> bool,
) -> bool {
    graph_searcher(src, g, fixed).search(&mut |h| cb(varmap_to_mapping(h)))
}

/// Collects all homomorphisms from `src` into `g` extending `fixed`.
pub fn all_homs_into_graph(src: &TGraph, g: &dyn TripleIndex, fixed: &Mapping) -> Vec<Mapping> {
    let mut out = Vec::new();
    enumerate_homs_into_graph(src, g, fixed, &mut |mu| {
        out.push(mu);
        true
    });
    out
}

fn varmap_to_mapping(h: &VarMap) -> Mapping {
    Mapping::from_pairs(h.iter().map(|(&v, &t)| match t {
        Term::Iri(i) => (v, i),
        Term::Var(_) => unreachable!("RDF-graph homomorphisms bind variables to IRIs"),
    }))
}

/// The composition `g ∘ h` of two substitutions (apply `h` first).
pub fn compose(h: &VarMap, g: &VarMap) -> VarMap {
    let mut out: VarMap = BTreeMap::new();
    for (&v, &t) in h {
        let image = match t {
            Term::Var(u) => g.get(&u).copied().unwrap_or(Term::Var(u)),
            iri => iri,
        };
        out.insert(v, image);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::RdfGraph;
    use wdsparql_rdf::{tp, Iri};

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn k3_pattern() -> TGraph {
        // A triangle as a t-graph over predicate r.
        TGraph::from_patterns([
            tp(var("a"), iri("r"), var("b")),
            tp(var("b"), iri("r"), var("c")),
            tp(var("c"), iri("r"), var("a")),
        ])
    }

    #[test]
    fn hom_into_graph_finds_triangle() {
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        let src = GenTGraph::new(k3_pattern(), []);
        let h = find_hom_into_graph(&src, &g, &Mapping::new()).unwrap();
        assert!(src.s.maps_into_under(&h, &g));
    }

    #[test]
    fn hom_into_graph_respects_mu() {
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        let src = GenTGraph::new(k3_pattern(), [v("a")]);
        let mu = Mapping::from_strs([("a", "2")]);
        let h = find_hom_into_graph(&src, &g, &mu).unwrap();
        assert_eq!(h.get(v("a")), Some(Iri::new("2")));
        // No homomorphism when µ pins a to a vertex outside any triangle.
        let g2 = RdfGraph::from_strs([
            ("1", "r", "2"),
            ("2", "r", "3"),
            ("3", "r", "1"),
            ("9", "r", "1"),
        ]);
        let mu9 = Mapping::from_strs([("a", "9")]);
        assert!(find_hom_into_graph(&src, &g2, &mu9).is_none());
    }

    #[test]
    fn no_hom_into_bipartite_graph() {
        // Odd cycle cannot map into a bipartite (directed both ways) graph
        // without loops.
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "1")]);
        let src = GenTGraph::new(k3_pattern(), []);
        assert!(find_hom_into_graph(&src, &g, &Mapping::new()).is_none());
    }

    #[test]
    fn hom_collapses_onto_loop() {
        let g = RdfGraph::from_strs([("1", "r", "1")]);
        let src = GenTGraph::new(k3_pattern(), []);
        let h = find_hom_into_graph(&src, &g, &Mapping::new()).unwrap();
        for x in ["a", "b", "c"] {
            assert_eq!(h.get(v(x)), Some(Iri::new("1")));
        }
    }

    #[test]
    fn enumerate_counts_all_path_homs() {
        // (?x)-r->(?y) into a 3-cycle: 3 homomorphisms.
        let src = TGraph::from_patterns([tp(var("x"), iri("r"), var("y"))]);
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        assert_eq!(all_homs_into_graph(&src, &g, &Mapping::new()).len(), 3);
    }

    #[test]
    fn enumeration_can_be_aborted() {
        let src = TGraph::from_patterns([tp(var("x"), iri("r"), var("y"))]);
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        let mut seen = 0;
        let exhausted = enumerate_homs_into_graph(&src, &g, &Mapping::new(), &mut |_| {
            seen += 1;
            seen < 2
        });
        assert!(!exhausted);
        assert_eq!(seen, 2);
    }

    #[test]
    fn tgraph_hom_fixes_x() {
        // (S, {x}): x-p->y  maps into  S': x-p->z (rename y ↦ z).
        let s = TGraph::from_patterns([tp(var("x"), iri("p"), var("y"))]);
        let s2 = TGraph::from_patterns([tp(var("x"), iri("p"), var("z"))]);
        let src = GenTGraph::new(s.clone(), [v("x")]);
        let h = find_hom(&src, &s2).unwrap();
        assert_eq!(h[&v("x")], Term::Var(v("x")));
        assert_eq!(h[&v("y")], Term::Var(v("z")));
        // But (S, {x, y}) does not map: y must stay fixed.
        let src_xy = GenTGraph::new(s, [v("x"), v("y")]);
        assert!(find_hom(&src_xy, &s2).is_none());
    }

    #[test]
    fn tgraph_hom_constants_must_match() {
        let s = TGraph::from_patterns([tp(var("x"), iri("p"), iri("c"))]);
        let ok = TGraph::from_patterns([tp(var("u"), iri("p"), iri("c"))]);
        let bad = TGraph::from_patterns([tp(var("u"), iri("p"), iri("d"))]);
        let src = GenTGraph::new(s, []);
        assert!(find_hom(&src, &ok).is_some());
        assert!(find_hom(&src, &bad).is_none());
    }

    #[test]
    fn tgraph_hom_can_map_var_to_iri() {
        let s = TGraph::from_patterns([tp(var("x"), iri("p"), var("y"))]);
        let dst = TGraph::from_patterns([tp(iri("a"), iri("p"), iri("b"))]);
        let src = GenTGraph::new(s, []);
        let h = find_hom(&src, &dst).unwrap();
        assert_eq!(h[&v("x")], Term::Iri(Iri::new("a")));
        assert_eq!(h[&v("y")], Term::Iri(Iri::new("b")));
    }

    #[test]
    fn maps_to_is_transitive_on_examples() {
        // Embeddings: P1 → P2 → P3, hence P1 → P3; and any directed path
        // maps into a directed 3-cycle by walking around it.
        let p = |n: usize| {
            TGraph::from_patterns(
                (0..n).map(|i| tp(var(&format!("v{i}")), iri("r"), var(&format!("v{}", i + 1)))),
            )
        };
        let cyc = TGraph::from_patterns([
            tp(var("c0"), iri("r"), var("c1")),
            tp(var("c1"), iri("r"), var("c2")),
            tp(var("c2"), iri("r"), var("c0")),
        ]);
        let a = GenTGraph::new(p(1), []);
        let b = GenTGraph::new(p(2), []);
        let c = GenTGraph::new(p(3), []);
        assert!(maps_to(&a, &b));
        assert!(maps_to(&b, &c));
        assert!(maps_to(&a, &c));
        // Longer paths do NOT fold onto shorter ones...
        assert!(!maps_to(&c, &b));
        // ...but every path winds into a cycle.
        assert!(find_hom(&c, &cyc).is_some());
        assert!(find_hom(&GenTGraph::new(p(7), []), &cyc).is_some());
    }

    #[test]
    fn repeated_variables_in_source_triple() {
        // (?x, r, ?x) needs a loop in the target.
        let s = TGraph::from_patterns([tp(var("x"), iri("r"), var("x"))]);
        let src = GenTGraph::new(s, []);
        let no_loop = RdfGraph::from_strs([("1", "r", "2")]);
        let has_loop = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "2")]);
        assert!(find_hom_into_graph(&src, &no_loop, &Mapping::new()).is_none());
        let h = find_hom_into_graph(&src, &has_loop, &Mapping::new()).unwrap();
        assert_eq!(h.get(v("x")), Some(Iri::new("2")));
    }

    #[test]
    fn fold_into_own_subgraph_is_sound() {
        // Regression test: when source and target share variable names
        // (core folding), the image of a bound variable must act as a hard
        // constraint even though it is itself a variable. A buggy solver
        // treats the substituted position as free and emits a corrupted
        // witness.
        let s = TGraph::from_patterns([
            tp(var("rx"), iri("p"), var("ry")),
            tp(var("ry"), iri("r"), var("rf6")),
            tp(var("ry"), iri("r"), var("rf9")),
            tp(var("rf6"), iri("r"), var("rf7")),
            tp(var("rf7"), iri("r"), var("rf8")),
            tp(var("rf9"), iri("r"), var("rf10")),
            tp(var("rf9"), iri("r"), var("rf11")),
            tp(var("rf10"), iri("r"), var("rf11")),
        ]);
        let s_v = s.without_var(v("rf6"));
        let src = GenTGraph::new(s.clone(), [v("rx"), v("ry")]);
        let h = find_hom(&src, &s_v).expect("the branch folds onto its sibling");
        let image = s.apply(&h);
        assert!(
            image.is_subset(&s_v),
            "witness must map into the target: {image} ⊄ {s_v}"
        );
    }

    #[test]
    fn every_enumerated_tgraph_hom_is_valid() {
        // Enumerate homs between overlapping-name t-graphs and validate
        // each one (uses the internal enumeration through find_hom by
        // folding different variables).
        let s = TGraph::from_patterns([
            tp(var("qa"), iri("r"), var("qb")),
            tp(var("qa"), iri("r"), var("qc")),
            tp(var("qb"), iri("r"), var("qd")),
            tp(var("qc"), iri("r"), var("qd")),
        ]);
        for drop in ["qb", "qc", "qd"] {
            let s_v = s.without_var(v(drop));
            let src = GenTGraph::new(s.clone(), []);
            if let Some(h) = find_hom(&src, &s_v) {
                assert!(s.apply(&h).is_subset(&s_v), "folding {drop}");
            }
        }
    }

    #[test]
    fn compose_substitutions() {
        let h: VarMap = [(v("x"), var("y"))].into_iter().collect();
        let g: VarMap = [(v("y"), iri("a"))].into_iter().collect();
        let gh = compose(&h, &g);
        assert_eq!(gh[&v("x")], Term::Iri(Iri::new("a")));
    }

    #[test]
    fn empty_source_has_exactly_the_empty_hom() {
        let src = TGraph::new();
        let g = RdfGraph::from_strs([("1", "r", "2")]);
        let all = all_homs_into_graph(&src, &g, &Mapping::new());
        assert_eq!(all, vec![Mapping::new()]);
    }

    #[test]
    fn fixed_bindings_outside_src_are_ignored() {
        let src = TGraph::from_patterns([tp(var("x"), iri("r"), var("y"))]);
        let g = RdfGraph::from_strs([("1", "r", "2")]);
        let fixed = Mapping::from_strs([("unrelated", "7"), ("x", "1")]);
        let all = all_homs_into_graph(&src, &g, &fixed);
        assert_eq!(all.len(), 1);
        let dom: BTreeSet<_> = all[0].domain().collect();
        assert_eq!(dom, [v("x"), v("y")].into_iter().collect());
    }

    #[test]
    fn search_orders_agree_on_satisfiability() {
        // The directed 3-cycle pattern has a hom into the directed
        // triangle but none into the transitive (acyclic) one.
        let cycle = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        let acyclic = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("1", "r", "3")]);
        let src = GenTGraph::new(k3_pattern(), []);
        for (g, want) in [(&cycle, true), (&acyclic, false)] {
            assert_eq!(
                find_hom_into_graph(&src, g, &Mapping::new()).is_some(),
                want
            );
        }
        // With an anchored binding, the found mapping extends it.
        let fixed = Mapping::from_strs([("a", "1")]);
        let h = find_hom_into_graph(&src, &cycle, &fixed).unwrap();
        assert_eq!(h.get(v("a")), Some(Iri::new("1")));
        assert_eq!(h.len(), 3);
    }
}
