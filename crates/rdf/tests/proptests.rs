//! Property tests for the RDF substrate: mapping laws, graph indexing
//! consistency, and N-Triples round-trips.

use proptest::prelude::*;
use wdsparql_rdf::{
    binding_of, parse_ntriples, tp, write_ntriples, Iri, Mapping, RdfGraph, Term, Triple,
    TripleIndex, Variable,
};

fn arb_mapping() -> impl Strategy<Value = Mapping> {
    proptest::collection::btree_map(0..6usize, 0..6usize, 0..5).prop_map(|m| {
        Mapping::from_pairs(m.into_iter().map(|(v, i)| {
            (
                Variable::new(&format!("mv{v}")),
                Iri::new(&format!("mi{i}")),
            )
        }))
    })
}

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..5usize, 0..3usize, 0..5usize), 0..14).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("gn{s}"), &format!("gp{p}"), &format!("gn{o}"))
        }))
    })
}

/// IRI strings that are valid in our N-Triples subset (bracketed form
/// covers anything without '>' or newlines).
fn arb_iri_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 :/#._-]{1,12}".prop_filter("non-empty trimmed", |s| !s.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compatibility is symmetric; union is commutative on compatible
    /// mappings and has the empty mapping as identity.
    #[test]
    fn mapping_union_laws(a in arb_mapping(), b in arb_mapping()) {
        prop_assert_eq!(a.compatible(&b), b.compatible(&a));
        prop_assert_eq!(a.union(&b), b.union(&a));
        let empty = Mapping::new();
        prop_assert_eq!(a.union(&empty), Some(a.clone()));
        if let Some(u) = a.union(&b) {
            // The union restricted to each domain gives back the parts.
            for (v, i) in a.iter() {
                prop_assert_eq!(u.get(v), Some(i));
            }
            for (v, i) in b.iter() {
                prop_assert_eq!(u.get(v), Some(i));
            }
            prop_assert!(u.len() <= a.len() + b.len());
        } else {
            prop_assert!(!a.compatible(&b));
        }
    }

    /// Restriction is idempotent and domain-correct.
    #[test]
    fn restriction_laws(a in arb_mapping()) {
        let dom: Vec<Variable> = a.domain().collect();
        let half: Vec<Variable> = dom.iter().copied().take(dom.len() / 2).collect();
        let r = a.restrict(half.iter().copied());
        prop_assert_eq!(r.len(), half.len());
        prop_assert_eq!(r.restrict(half.iter().copied()), r.clone());
        for v in half {
            prop_assert_eq!(r.get(v), a.get(v));
        }
    }

    /// Every triple reported by match_pattern actually matches, and the
    /// full scan agrees with the indexed path.
    #[test]
    fn match_pattern_is_sound_and_complete(g in arb_graph(), s in 0..6usize, p in 0..4usize) {
        use wdsparql_rdf::{iri, var};
        // A pattern with a constant subject (maybe absent) and predicate.
        let pat = tp(
            if s < 5 { iri(&format!("gn{s}")) } else { var("ms") },
            if p < 3 { iri(&format!("gp{p}")) } else { var("mp") },
            var("mo"),
        );
        let indexed: std::collections::BTreeSet<Triple> =
            g.match_pattern(&pat).into_iter().collect();
        let scanned: std::collections::BTreeSet<Triple> = g
            .iter()
            .filter(|t| binding_of(&pat, t).is_some())
            .copied()
            .collect();
        prop_assert_eq!(indexed, scanned);
    }

    /// binding_of produces a mapping that reproduces the triple.
    #[test]
    fn binding_roundtrip(g in arb_graph()) {
        use wdsparql_rdf::var;
        let pat = tp(var("bs"), var("bp"), var("bo"));
        for t in g.iter() {
            let mu = binding_of(&pat, t).expect("open pattern matches everything");
            prop_assert_eq!(pat.apply(&mu), Some(*t));
        }
    }

    /// A pattern with a repeated variable only matches triples with equal
    /// positions.
    #[test]
    fn repeated_variable_semantics(g in arb_graph()) {
        use wdsparql_rdf::var;
        let pat = tp(var("rx"), var("rp"), var("rx"));
        for t in g.match_pattern(&pat) {
            prop_assert_eq!(t.s, t.o);
        }
    }

    /// write → parse is the identity on graphs, for arbitrary IRI
    /// spellings (spaces, hashes, slashes...).
    #[test]
    fn ntriples_roundtrip(names in proptest::collection::vec(arb_iri_string(), 3..9)) {
        let mut g = RdfGraph::new();
        for w in names.windows(3) {
            g.insert(Triple::from_strs(&w[0], &w[1], &w[2]));
        }
        let text = write_ntriples(&g);
        let parsed = parse_ntriples(&text).expect("writer output parses");
        prop_assert_eq!(parsed, g);
    }

    /// Term ordering is total and consistent with equality.
    #[test]
    fn term_ordering(a in 0..8usize, b in 0..8usize) {
        let term = |i: usize| -> Term {
            if i.is_multiple_of(2) {
                Term::Iri(Iri::new(&format!("ti{i}")))
            } else {
                Term::Var(Variable::new(&format!("tv{i}")))
            }
        };
        let (x, y) = (term(a), term(b));
        prop_assert_eq!(x == y, x.cmp(&y) == std::cmp::Ordering::Equal);
    }
}

// ---------------------------------------------------------------------
// The lazy index against an eager model
// ---------------------------------------------------------------------

fn lazy_triple((s, p, o): (usize, usize, usize)) -> Triple {
    // One universe for every position, so `dom` sees a name arrive in
    // one position after it was known in another.
    Triple::from_strs(&format!("lz{s}"), &format!("lz{p}"), &format!("lz{o}"))
}

/// Every reader of `g`, against a graph built afresh from `model` (the
/// distinct triples so far, in arrival order) and read at once — plus a
/// scan of `model` itself, which involves no index at all. `probe` names
/// the constants; all eight constant shapes are asked.
fn same_answers(g: &RdfGraph, model: &[Triple], probe: Triple) -> Result<(), TestCaseError> {
    use wdsparql_rdf::{pattern_matches, var};
    let fresh = RdfGraph::from_triples(model.iter().copied());
    prop_assert_eq!(g, &fresh);
    prop_assert_eq!(g.len(), model.len());
    for shape in 0..8 {
        let pick = |bit: usize, c: Iri, v: &str| -> Term {
            if shape & bit != 0 {
                Term::Iri(c)
            } else {
                var(v)
            }
        };
        let pat = tp(
            pick(1, probe.s, "lzs"),
            pick(2, probe.p, "lzp"),
            pick(4, probe.o, "lzo"),
        );
        let got = g.match_pattern(&pat);
        prop_assert_eq!(&got, &fresh.match_pattern(&pat), "shape {}", shape);
        let scanned: Vec<Triple> = model
            .iter()
            .filter(|t| pattern_matches(&pat, t))
            .copied()
            .collect();
        prop_assert_eq!(&got, &scanned, "shape {}", shape);
        // With distinct variables the constants decide alone — except
        // on a ground pattern, which is counted by its (s, p) list.
        let count = g.candidate_count(&pat);
        prop_assert_eq!(count, fresh.candidate_count(&pat), "shape {}", shape);
        prop_assert!(count == scanned.len() || (shape == 7 && count >= scanned.len()));
        prop_assert_eq!(g.solutions(&pat), fresh.solutions(&pat), "shape {}", shape);
    }
    let loops = tp(var("lzx"), Term::Iri(probe.p), var("lzx"));
    prop_assert_eq!(g.match_pattern(&loops), fresh.match_pattern(&loops));
    prop_assert_eq!(g.candidate_count(&loops), fresh.candidate_count(&loops));
    let dom: std::collections::BTreeSet<Iri> = model.iter().flat_map(|t| t.terms()).collect();
    prop_assert_eq!(
        g.dom().collect::<Vec<_>>(),
        dom.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(g.dom_size(), dom.len());
    for i in probe.terms() {
        prop_assert_eq!(g.dom_contains(i), dom.contains(&i));
    }
    prop_assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `insert`, `clone` and every reader interleaved at random on a
    /// graph that starts unindexed (built in bulk from `bulk`, which may
    /// be empty): the first read may come before any insert, between
    /// inserts or never; a clone is taken before and after it, and each
    /// clone is read again at the end, after the original has moved on.
    #[test]
    fn lazy_index_matches_an_eager_model(
        bulk in proptest::collection::vec((0..5usize, 0..5usize, 0..5usize), 0..8),
        ops in proptest::collection::vec((0..6usize, (0..5usize, 0..5usize, 0..5usize)), 0..40),
    ) {
        let mut g = RdfGraph::from_triples(bulk.into_iter().map(lazy_triple));
        let mut model: Vec<Triple> = g.iter().copied().collect();
        let mut clones: Vec<(RdfGraph, Vec<Triple>)> = Vec::new();
        for (kind, names) in ops {
            let t = lazy_triple(names);
            match kind {
                // Half the ops insert, so reads land between inserts.
                0..=2 => {
                    let new = !model.contains(&t);
                    prop_assert_eq!(g.insert(t), new);
                    if new {
                        model.push(t);
                    }
                    prop_assert!(g.contains(&t));
                }
                3 => clones.push((g.clone(), model.clone())),
                // One reader alone, so the others meet an index it built.
                4 => prop_assert_eq!(
                    g.dom_contains(t.s),
                    model.iter().any(|m| m.terms().contains(&t.s))
                ),
                _ => same_answers(&g, &model, t)?,
            }
        }
        same_answers(&g, &model, lazy_triple((0, 1, 2)))?;
        for (i, (mut clone, mut then)) in clones.into_iter().enumerate() {
            same_answers(&clone, &then, lazy_triple((1, 0, 1)))?;
            // A clone keeps its own index current from here on.
            let t = lazy_triple((i % 5, 4, 4));
            if clone.insert(t) {
                then.push(t);
            }
            same_answers(&clone, &then, t)?;
        }
    }

    /// Two threads race the first read of a shared graph: one index is
    /// built, and both see all of it.
    #[test]
    fn racing_first_reads_agree(
        triples in proptest::collection::vec((0..5usize, 0..5usize, 0..5usize), 0..30),
        probe in (0..5usize, 0..5usize, 0..5usize),
    ) {
        let g = RdfGraph::from_triples(triples.into_iter().map(lazy_triple));
        let model: Vec<Triple> = g.iter().copied().collect();
        let probe = lazy_triple(probe);
        let gate = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let reader = || {
                gate.wait();
                same_answers(&g, &model, probe)
            };
            let (a, b) = (scope.spawn(reader), scope.spawn(reader));
            (a.join().expect("reader"), b.join().expect("reader"))
        });
        a?;
        b?;
    }
}
