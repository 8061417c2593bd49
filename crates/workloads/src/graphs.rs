//! Seeded RDF graph generators: random graphs, Turán adversaries, and two
//! realistic domains (a social network and a bibliography) for the
//! examples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdsparql_rdf::{Iri, RdfGraph, Triple};

/// A uniformly random graph: `n_triples` triples over `n_nodes` node IRIs
/// and the given predicates. Deterministic in `seed`.
pub fn random_graph(n_nodes: usize, n_triples: usize, predicates: &[&str], seed: u64) -> RdfGraph {
    assert!(n_nodes > 0 && !predicates.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RdfGraph::new();
    while g.len() < n_triples {
        let s = format!("n{}", rng.gen_range(0..n_nodes));
        let p = predicates[rng.gen_range(0..predicates.len())];
        let o = format!("n{}", rng.gen_range(0..n_nodes));
        g.insert(Triple::from_strs(&s, p, &o));
    }
    g
}

/// The Turán-style adversary: `n` vertices split into `parts` classes, with
/// `predicate`-edges in *both directions* between every two vertices of
/// different classes (and none inside a class, no loops). Contains
/// `K_parts` but no `K_{parts+1}`, which makes refuting a
/// `(parts+1)`-clique pattern the worst case for backtracking solvers.
pub fn turan_graph(n: usize, parts: usize, predicate: &str) -> RdfGraph {
    assert!(parts >= 1 && n >= parts);
    let mut g = RdfGraph::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && u % parts != v % parts {
                g.insert(Triple::from_strs(
                    &format!("t{u}"),
                    predicate,
                    &format!("t{v}"),
                ));
            }
        }
    }
    g
}

/// Names of the Turán vertices in class `class`.
pub fn turan_class(n: usize, parts: usize, class: usize) -> Vec<Iri> {
    (0..n)
        .filter(|u| u % parts == class)
        .map(|u| Iri::new(&format!("t{u}")))
        .collect()
}

/// A small social network: people with `knows` edges, partial profiles
/// (`email`, `city`), posts (`wrote`) and likes. The OPT-shaped queries of
/// the examples exercise exactly the partial profile data.
pub fn social_network(n_people: usize, seed: u64) -> RdfGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RdfGraph::new();
    let person = |i: usize| format!("person{i}");
    for i in 0..n_people {
        g.insert(Triple::from_strs(&person(i), "type", "Person"));
        // ~60% have an email, ~50% a city: OPTIONAL data.
        if rng.gen_bool(0.6) {
            g.insert(Triple::from_strs(
                &person(i),
                "email",
                &format!("mail{i}@example.org"),
            ));
        }
        if rng.gen_bool(0.5) {
            g.insert(Triple::from_strs(
                &person(i),
                "city",
                &format!("city{}", rng.gen_range(0..5)),
            ));
        }
        // Posts.
        for p in 0..rng.gen_range(0..3) {
            let post = format!("post{i}_{p}");
            g.insert(Triple::from_strs(&person(i), "wrote", &post));
            if rng.gen_bool(0.5) {
                g.insert(Triple::from_strs(
                    &post,
                    "topic",
                    &format!("topic{}", rng.gen_range(0..4)),
                ));
            }
        }
    }
    // knows edges (directed).
    for _ in 0..n_people * 2 {
        let a = rng.gen_range(0..n_people);
        let b = rng.gen_range(0..n_people);
        if a != b {
            g.insert(Triple::from_strs(&person(a), "knows", &person(b)));
        }
    }
    g
}

/// A bibliographic graph: papers with authors, venues, years and citation
/// edges; some papers have optional abstracts or award marks.
pub fn bibliography(n_papers: usize, seed: u64) -> RdfGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RdfGraph::new();
    let n_authors = (n_papers / 2).max(1);
    for i in 0..n_papers {
        let paper = format!("paper{i}");
        g.insert(Triple::from_strs(&paper, "type", "Paper"));
        g.insert(Triple::from_strs(
            &paper,
            "venue",
            ["PODS", "SIGMOD", "VLDB", "ICDT"][rng.gen_range(0..4usize)],
        ));
        g.insert(Triple::from_strs(
            &paper,
            "year",
            &format!("{}", 2000 + rng.gen_range(0..20)),
        ));
        for _ in 0..rng.gen_range(1..4) {
            g.insert(Triple::from_strs(
                &paper,
                "author",
                &format!("author{}", rng.gen_range(0..n_authors)),
            ));
        }
        if rng.gen_bool(0.4) {
            g.insert(Triple::from_strs(&paper, "abstract", &format!("abs{i}")));
        }
        if rng.gen_bool(0.1) {
            g.insert(Triple::from_strs(&paper, "award", "BestPaper"));
        }
        // Citations point backwards.
        if i > 0 {
            for _ in 0..rng.gen_range(0..3) {
                g.insert(Triple::from_strs(
                    &paper,
                    "cites",
                    &format!("paper{}", rng.gen_range(0..i)),
                ));
            }
        }
    }
    g
}

/// A LUBM-flavoured university dataset: departments with professors,
/// students, courses, `teaches`/`takes`/`advisor` edges and *optional*
/// attributes (office, homepage, TA-ship) shaped for OPT queries.
pub fn university(n_depts: usize, seed: u64) -> RdfGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RdfGraph::new();
    for d in 0..n_depts {
        let dept = format!("dept{d}");
        g.insert(Triple::from_strs(&dept, "type", "Department"));
        let n_profs = rng.gen_range(2..5);
        let n_students = rng.gen_range(6..12);
        let n_courses = rng.gen_range(3..6);
        for c in 0..n_courses {
            let course = format!("course{d}_{c}");
            g.insert(Triple::from_strs(&course, "type", "Course"));
            g.insert(Triple::from_strs(&course, "offeredBy", &dept));
        }
        for p in 0..n_profs {
            let prof = format!("prof{d}_{p}");
            g.insert(Triple::from_strs(&prof, "type", "Professor"));
            g.insert(Triple::from_strs(&prof, "worksFor", &dept));
            g.insert(Triple::from_strs(
                &prof,
                "teaches",
                &format!("course{d}_{}", rng.gen_range(0..n_courses)),
            ));
            // Optional attributes: not every professor has them.
            if rng.gen_bool(0.5) {
                g.insert(Triple::from_strs(&prof, "office", &format!("room{d}{p}")));
            }
            if rng.gen_bool(0.4) {
                g.insert(Triple::from_strs(
                    &prof,
                    "homepage",
                    &format!("http://uni.example/{prof}"),
                ));
            }
        }
        for s in 0..n_students {
            let student = format!("student{d}_{s}");
            g.insert(Triple::from_strs(&student, "type", "Student"));
            g.insert(Triple::from_strs(&student, "memberOf", &dept));
            for _ in 0..rng.gen_range(1..4) {
                g.insert(Triple::from_strs(
                    &student,
                    "takes",
                    &format!("course{d}_{}", rng.gen_range(0..n_courses)),
                ));
            }
            // ~half the students have an advisor; a few TA a course.
            if rng.gen_bool(0.5) {
                g.insert(Triple::from_strs(
                    &student,
                    "advisor",
                    &format!("prof{d}_{}", rng.gen_range(0..n_profs)),
                ));
            }
            if rng.gen_bool(0.2) {
                g.insert(Triple::from_strs(
                    &student,
                    "assists",
                    &format!("course{d}_{}", rng.gen_range(0..n_courses)),
                ));
            }
        }
    }
    g
}

/// A streaming bulk-load workload: `n_triples` pseudo-random triple
/// draws over `n_nodes` node IRIs and `n_predicates` predicates,
/// deterministic in `seed`. Unlike [`random_graph`] nothing is
/// materialised or deduplicated — the iterator feeds
/// `wdsparql-store`-style batched loaders at million-triple scale
/// without an intermediate [`RdfGraph`] (duplicates are the loader's
/// problem, as with any real ingest feed).
pub fn triple_stream(
    n_nodes: usize,
    n_triples: usize,
    n_predicates: usize,
    seed: u64,
) -> impl Iterator<Item = Triple> {
    assert!(n_nodes > 0 && n_predicates > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_triples).map(move |_| {
        let s = format!("n{}", rng.gen_range(0..n_nodes));
        let p = format!("p{}", rng.gen_range(0..n_predicates));
        let o = format!("n{}", rng.gen_range(0..n_nodes));
        Triple::from_strs(&s, &p, &o)
    })
}

/// An incremental-ingest workload: the draws of [`triple_stream`]
/// delivered as ready-made batches of `batch_size` triples — the shape
/// the store's log-structured write path consumes. The concatenation of
/// all batches equals the stream; the final batch may be short.
/// Deterministic in `seed`.
pub fn batched_triple_stream(
    n_nodes: usize,
    n_triples: usize,
    n_predicates: usize,
    batch_size: usize,
    seed: u64,
) -> impl Iterator<Item = Vec<Triple>> {
    assert!(batch_size > 0);
    let mut stream = triple_stream(n_nodes, n_triples, n_predicates, seed);
    std::iter::from_fn(move || {
        let batch: Vec<Triple> = stream.by_ref().take(batch_size).collect();
        (!batch.is_empty()).then_some(batch)
    })
}

/// A subject-skewed variant of [`triple_stream`]: subjects are drawn as
/// the minimum of three uniform draws, so the density at rank `x` is
/// `3(1 − x)²` — a hot head (the first tenth of the node range receives
/// ~27% of the writes) with a long tail, the shape real ingest feeds
/// have. Predicates and objects stay uniform. Deterministic in `seed`.
///
/// The hot subjects stress exactly what hash partitioning is supposed to
/// absorb: a sharded store must spread the head's *names* across shards
/// even though their *ranks* cluster, keeping per-shard loads balanced.
pub fn skewed_triple_stream(
    n_nodes: usize,
    n_triples: usize,
    n_predicates: usize,
    seed: u64,
) -> impl Iterator<Item = Triple> {
    assert!(n_nodes > 0 && n_predicates > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_triples).map(move |_| {
        let draw = rng
            .gen_range(0..n_nodes)
            .min(rng.gen_range(0..n_nodes))
            .min(rng.gen_range(0..n_nodes));
        let s = format!("n{draw}");
        let p = format!("p{}", rng.gen_range(0..n_predicates));
        let o = format!("n{}", rng.gen_range(0..n_nodes));
        Triple::from_strs(&s, &p, &o)
    })
}

/// A preferential-attachment ("scale-free") graph: each new vertex
/// attaches `m` out-edges, preferring endpoints that already have many
/// edges (Barabási–Albert flavour, over a single predicate). Produces the
/// skewed degree distributions under which fail-first hom search shines.
pub fn scale_free(n: usize, m: usize, predicate: &str, seed: u64) -> RdfGraph {
    assert!(n >= 2 && m >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RdfGraph::new();
    // Endpoint pool: one entry per edge endpoint (classic BA trick).
    let mut pool: Vec<usize> = vec![0, 1];
    g.insert(Triple::from_strs("v0", predicate, "v1"));
    for v in 2..n {
        for _ in 0..m.min(v) {
            let target = pool[rng.gen_range(0..pool.len())];
            if target != v {
                g.insert(Triple::from_strs(
                    &format!("v{v}"),
                    predicate,
                    &format!("v{target}"),
                ));
                pool.push(v);
                pool.push(target);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, TripleIndex};

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph(10, 30, &["p", "q"], 7);
        let b = random_graph(10, 30, &["p", "q"], 7);
        let c = random_graph(10, 30, &["p", "q"], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn turan_has_no_large_clique() {
        // K_3 exists in T(9, 3) but K_4 does not (directed i<j pattern).
        let g = turan_graph(9, 3, "r");
        let clique = |k: usize| {
            let mut pats = Vec::new();
            for i in 1..=k {
                for j in (i + 1)..=k {
                    pats.push(tp(var(&format!("c{i}")), iri("r"), var(&format!("c{j}"))));
                }
            }
            wdsparql_hom::TGraph::from_patterns(pats)
        };
        let g3 = wdsparql_hom::GenTGraph::new(clique(3), []);
        let g4 = wdsparql_hom::GenTGraph::new(clique(4), []);
        let mu = wdsparql_rdf::Mapping::new();
        assert!(wdsparql_hom::find_hom_into_graph(&g3, &g, &mu).is_some());
        assert!(wdsparql_hom::find_hom_into_graph(&g4, &g, &mu).is_none());
    }

    #[test]
    fn turan_classes_partition() {
        let all: usize = (0..3).map(|c| turan_class(10, 3, c).len()).sum();
        assert_eq!(all, 10);
    }

    #[test]
    fn social_network_has_optional_profiles() {
        let g = social_network(50, 42);
        let people = g.solutions(&tp(var("p"), iri("type"), iri("Person")));
        assert_eq!(people.len(), 50);
        let emails = g.solutions(&tp(var("p"), iri("email"), var("e")));
        assert!(!emails.is_empty() && emails.len() < 50);
    }

    #[test]
    fn bibliography_has_citations_and_awards() {
        let g = bibliography(60, 1);
        assert!(!g
            .solutions(&tp(var("p"), iri("cites"), var("q")))
            .is_empty());
        assert!(!g
            .solutions(&tp(var("p"), iri("award"), iri("BestPaper")))
            .is_empty());
        assert!(!g
            .solutions(&tp(var("p"), iri("abstract"), var("a")))
            .is_empty());
    }

    #[test]
    fn university_has_partial_profiles_and_advisors() {
        let g = university(4, 11);
        let profs = g.solutions(&tp(var("p"), iri("type"), iri("Professor")));
        assert!(!profs.is_empty());
        let offices = g.solutions(&tp(var("p"), iri("office"), var("o")));
        assert!(!offices.is_empty() && offices.len() < profs.len());
        assert!(!g
            .solutions(&tp(var("s"), iri("advisor"), var("p")))
            .is_empty());
        // Deterministic in the seed.
        assert_eq!(university(4, 11), university(4, 11));
        assert_ne!(university(4, 11), university(4, 12));
    }

    #[test]
    fn skewed_stream_is_deterministic_with_a_hot_head() {
        let a: Vec<Triple> = skewed_triple_stream(100, 4000, 3, 11).collect();
        let b: Vec<Triple> = skewed_triple_stream(100, 4000, 3, 11).collect();
        assert_eq!(a, b, "deterministic in the seed");
        assert_eq!(a.len(), 4000);
        // min-of-3 subjects: the first decile of the node range draws
        // 1 − 0.9³ ≈ 27% of the writes — well above a uniform 10%.
        let head = a
            .iter()
            .filter(|t| {
                let rank: usize = t.s.as_str()[1..].parse().unwrap();
                rank < 10
            })
            .count();
        assert!(
            head * 5 >= a.len(),
            "expected a hot head, got {head}/{} in the first decile",
            a.len()
        );
        // Objects stay uniform: the first decile holds nothing special.
        let obj_head = a
            .iter()
            .filter(|t| t.o.as_str()[1..].parse::<usize>().unwrap() < 10)
            .count();
        assert!(obj_head * 5 < a.len(), "objects must not inherit the skew");
    }

    #[test]
    fn triple_stream_is_deterministic_and_lazy() {
        let a: Vec<Triple> = triple_stream(50, 1000, 3, 9).collect();
        let b: Vec<Triple> = triple_stream(50, 1000, 3, 9).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        let c: Vec<Triple> = triple_stream(50, 1000, 3, 10).collect();
        assert_ne!(a, c);
        // The stream (unlike random_graph) may repeat triples; a set
        // build of the same draws is therefore no larger.
        let g = RdfGraph::from_triples(a.iter().copied());
        assert!(g.len() <= 1000);
    }

    #[test]
    fn batched_stream_concatenates_to_the_stream() {
        let flat: Vec<Triple> = triple_stream(40, 500, 3, 5).collect();
        let batches: Vec<Vec<Triple>> = batched_triple_stream(40, 500, 3, 64, 5).collect();
        assert_eq!(batches.len(), 500usize.div_ceil(64));
        assert!(batches[..batches.len() - 1].iter().all(|b| b.len() == 64));
        let joined: Vec<Triple> = batches.concat();
        assert_eq!(joined, flat);
        // An exact multiple leaves no short tail.
        let even: Vec<Vec<Triple>> = batched_triple_stream(40, 500, 3, 100, 5).collect();
        assert!(even.iter().all(|b| b.len() == 100));
    }

    #[test]
    fn scale_free_is_skewed_and_deterministic() {
        let g = scale_free(80, 2, "link", 3);
        assert_eq!(g, scale_free(80, 2, "link", 3));
        // In-degree of the hubs exceeds the average markedly.
        let mut indeg = std::collections::BTreeMap::new();
        for t in g.iter() {
            *indeg.entry(t.o).or_insert(0usize) += 1;
        }
        let max = indeg.values().copied().max().unwrap();
        let avg = g.len() as f64 / indeg.len() as f64;
        assert!(
            (max as f64) >= 3.0 * avg,
            "expected a hub: max {max}, avg {avg:.2}"
        );
    }
}
