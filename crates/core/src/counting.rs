//! Counting and instrumented enumeration — the two evaluation variants
//! the paper's §5 lists as open directions beyond membership testing
//! (citing Kroll–Pichler–Skritek for enumeration and Pichler–Skritek for
//! the hardness of counting).
//!
//! Counting solutions of a wdPT is #·P-hard in general, so [`count_forest`]
//! and friends go through enumeration; their value here is as ground
//! truth and as the measurement harness for experiment E14 (enumeration
//! delay on bounded- vs unbounded-width families).
//!
//! [`enumerate_with_stats`] is also the workspace's tuple-at-a-time
//! reference walker, kept because its step counters are what is being
//! measured.

use crate::enumerate::enumerate_forest;
use std::collections::BTreeMap;
use wdsparql_algebra::SolutionSet;
use wdsparql_hom::all_homs_into_graph;
use wdsparql_rdf::{Mapping, TripleIndex, Variable};
use wdsparql_tree::{NodeId, Wdpf, Wdpt};

/// `|⟦F⟧_G|` (distinct mappings; trees of a forest may overlap).
pub fn count_forest(f: &Wdpf, g: &dyn TripleIndex) -> usize {
    enumerate_forest(f, g).len()
}

/// Solution counts grouped by mapping domain. Distinct domains arise from
/// distinct witness subtrees, so this histogram shows which OPT-extension
/// patterns actually fire on `G`. Keys are sorted by variable *name* so
/// the histogram is stable across runs (variable ids depend on interning
/// order).
pub fn count_by_domain(f: &Wdpf, g: &dyn TripleIndex) -> BTreeMap<Vec<Variable>, usize> {
    count_solutions_by_domain(&enumerate_forest(f, g))
}

/// [`count_by_domain`]'s histogram over solutions already enumerated
/// (say, by [`enumerate_with_stats`]), keyed the same way.
pub fn count_solutions_by_domain(sols: &SolutionSet) -> BTreeMap<Vec<Variable>, usize> {
    let mut out: BTreeMap<Vec<Variable>, usize> = BTreeMap::new();
    for mu in sols {
        let mut key: Vec<Variable> = mu.domain().collect();
        key.sort_by_key(|v| v.name());
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

/// Work counters for one instrumented enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Solutions emitted (before cross-tree deduplication).
    pub emitted: usize,
    /// Distinct solutions after deduplication.
    pub solutions: usize,
    /// Homomorphism-solver invocations.
    pub hom_calls: usize,
    /// Tree-node visits (the traversal's step counter).
    pub steps: usize,
    /// Largest number of steps between consecutive emission batches
    /// (including the lead-in to the first batch and the tail after the
    /// last) — the empirical *delay* of the enumeration. Solutions are
    /// emitted once their root homomorphism's subtree has been fully
    /// explored, and a root's own step is a gap of its own, so the delay
    /// measures the work per root-level candidate, whichever order the
    /// backend yields the candidates in.
    pub max_delay_steps: usize,
}

struct Walker<'a> {
    g: &'a dyn TripleIndex,
    stats: EnumStats,
    last_emit_steps: usize,
    out: SolutionSet,
}

impl<'a> Walker<'a> {
    fn tick(&mut self) {
        self.stats.steps += 1;
    }

    fn emit(&mut self, mu: Mapping) {
        self.stats.emitted += 1;
        self.end_gap();
        self.out.insert(mu);
    }

    /// Closes the gap since the last emission (or the last closed gap).
    fn end_gap(&mut self) {
        let delay = self.stats.steps - self.last_emit_steps;
        self.stats.max_delay_steps = self.stats.max_delay_steps.max(delay);
        self.last_emit_steps = self.stats.steps;
    }

    /// The tuple-at-a-time reference: all maximal solutions of the
    /// subtree rooted at `n` that extend `base`, one homomorphism search
    /// per node per mapping accumulated on the branch. `enumerate` answers
    /// the same question once per distinct interface binding; this walk
    /// is kept as written because its counters *are* the measure (E14's
    /// delay, the benchmark's `core.enum.*`), and as the oracle
    /// `tests/enumerate_setwise.rs` holds the set-at-a-time evaluator to.
    fn solutions_below(&mut self, t: &Wdpt, n: NodeId, base: &Mapping) -> Vec<Mapping> {
        self.tick();
        self.stats.hom_calls += 1;
        let mut out = Vec::new();
        for nu in all_homs_into_graph(t.pat(n), self.g, base) {
            let combined = base
                .union(&nu)
                .expect("solver extensions agree with their fixed bindings");
            out.extend(self.with_children(t, n, &combined));
        }
        out
    }

    /// The maximal extensions of `mu`, a solution of node `n`, over `n`'s
    /// children: a child with no extension is skipped, and the others
    /// multiply (siblings share only branch variables).
    fn with_children(&mut self, t: &Wdpt, n: NodeId, mu: &Mapping) -> Vec<Mapping> {
        let mut partials = vec![mu.clone()];
        for &c in t.children(n) {
            let exts = self.solutions_below(t, c, mu);
            if exts.is_empty() {
                continue;
            }
            let mut next = Vec::with_capacity(partials.len() * exts.len());
            for p in &partials {
                for e in &exts {
                    next.push(
                        p.union(e)
                            .expect("sibling extensions share only branch variables"),
                    );
                }
            }
            partials = next;
        }
        partials
    }
}

/// Enumerates `⟦F⟧_G` while recording work counters, including the
/// empirical per-solution delay.
pub fn enumerate_with_stats(f: &Wdpf, g: &dyn TripleIndex) -> (SolutionSet, EnumStats) {
    let mut w = Walker {
        g,
        stats: EnumStats::default(),
        last_emit_steps: 0,
        out: SolutionSet::new(),
    };
    for t in &f.trees {
        // `solutions_below` unrolled at the root, so that each root
        // homomorphism's batch is emitted as soon as its subtree is
        // explored — this is what makes `max_delay_steps` a per-candidate
        // measure rather than the whole run.
        w.tick();
        w.stats.hom_calls += 1;
        // The root's step is not charged to its first candidate.
        w.end_gap();
        for nu in all_homs_into_graph(t.pat(t.root()), g, &Mapping::new()) {
            for mu in w.with_children(t, t.root(), &nu) {
                w.emit(mu);
            }
        }
    }
    // Tail delay: steps after the last emission also count.
    let tail = w.stats.steps - w.last_emit_steps;
    w.stats.max_delay_steps = w.stats.max_delay_steps.max(tail);
    w.stats.solutions = w.out.len();
    (w.out, w.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::parse_pattern;
    use wdsparql_rdf::RdfGraph;

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    fn sample_graph() -> RdfGraph {
        RdfGraph::from_strs([
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ])
    }

    #[test]
    fn counts_match_enumeration() {
        let g = sample_graph();
        for text in [
            "(?x, p, ?y)",
            "((?x, p, ?y) OPT (?y, r, ?u))",
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION (?x, r, ?y)",
        ] {
            let f = forest(text);
            assert_eq!(
                count_forest(&f, &g),
                enumerate_forest(&f, &g).len(),
                "{text}"
            );
        }
    }

    #[test]
    fn domain_histogram_partitions_the_solutions() {
        let g = sample_graph();
        let f = forest("((?x, p, ?y) OPT (?y, r, ?u))");
        let by_domain = count_by_domain(&f, &g);
        // Domains: {x,y} (no r-extension) and {x,y,u} (extended).
        assert_eq!(by_domain.len(), 2);
        assert_eq!(by_domain.values().sum::<usize>(), count_forest(&f, &g));
        let vars =
            |names: &[&str]| -> Vec<Variable> { names.iter().map(|n| Variable::new(n)).collect() };
        // Keys are name-sorted.
        assert_eq!(by_domain[&vars(&["x", "y"])], 1); // (e,p,f): f has no r-edge
        assert_eq!(by_domain[&vars(&["u", "x", "y"])], 2);
    }

    #[test]
    fn stats_agree_with_plain_enumeration() {
        let g = sample_graph();
        for text in [
            "(?x, p, ?y)",
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION (?x, r, ?y)",
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
        ] {
            let f = forest(text);
            let (sols, stats) = enumerate_with_stats(&f, &g);
            assert_eq!(sols, enumerate_forest(&f, &g), "{text}");
            assert_eq!(stats.solutions, sols.len());
            assert!(stats.emitted >= stats.solutions);
            assert!(stats.hom_calls >= 1);
            assert!(stats.steps >= f.trees.len());
        }
    }

    #[test]
    fn delay_covers_leading_and_trailing_work() {
        // A graph with no solutions: all steps are 'tail' delay.
        let f = forest("(?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "q", "b")]);
        let (sols, stats) = enumerate_with_stats(&f, &g);
        assert!(sols.is_empty());
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.max_delay_steps, stats.steps);
    }

    /// Each root candidate is charged for the steps under it only, so
    /// the delay does not depend on which candidate the backend yields
    /// first: here the `(e, p, f)` candidate takes one step below the
    /// root and the other two take two.
    #[test]
    fn delay_does_not_depend_on_the_order_of_the_root_matches() {
        let f = forest("((?x, p, ?y) OPT ((?y, r, ?u) OPT (?u, r, ?w)))");
        let triples = [
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ]
        .map(|(s, p, o)| wdsparql_rdf::Triple::from_strs(s, p, o));
        let mut forward = RdfGraph::new();
        let mut backward = RdfGraph::new();
        for (t, u) in triples.iter().zip(triples.iter().rev()) {
            forward.insert(*t);
            backward.insert(*u);
        }
        let (sols, stats) = enumerate_with_stats(&f, &forward);
        let (back_sols, back_stats) = enumerate_with_stats(&f, &backward);
        assert_eq!(sols, back_sols);
        assert_eq!(stats.max_delay_steps, 2);
        assert_eq!(back_stats.max_delay_steps, stats.max_delay_steps);
    }

    #[test]
    fn duplicate_solutions_across_trees_are_deduplicated() {
        let f = forest("(?x, p, ?y) UNION (?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "p", "b")]);
        let (sols, stats) = enumerate_with_stats(&f, &g);
        assert_eq!(sols.len(), 1);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.solutions, 1);
    }
}
