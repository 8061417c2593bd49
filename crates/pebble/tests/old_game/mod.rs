//! The k-consistency game as it stood before the one-level rewrite, kept
//! verbatim as the oracle of `diff.rs`: every subset of at most `k`
//! variables, every value of `dom(G)` tried against `contains`, live
//! assignments in hash sets. Nothing under `src/` refers to it.

use std::collections::{HashMap, HashSet, VecDeque};
use wdsparql_hom::{GenTGraph, TGraph};
use wdsparql_pebble::PebbleStats;
use wdsparql_rdf::{Iri, Mapping, Term, TripleIndex, TriplePattern, Variable};

/// As [`duplicator_wins`], also returning statistics.
pub fn pebble_game(
    src: &GenTGraph,
    g: &dyn TripleIndex,
    mu: &Mapping,
    k: usize,
) -> (bool, PebbleStats) {
    assert!(k >= 2, "the existential pebble game needs k ≥ 2");
    debug_assert!(
        src.x.iter().all(|&v| mu.contains(v)),
        "µ must be defined on X"
    );
    let vars: Vec<Variable> = src.existential_vars().into_iter().collect();
    let mut stats = PebbleStats::default();

    // Degenerate case: no existential variables — direct homomorphism test.
    if vars.is_empty() {
        let wins = src.s.maps_into_under(&mu.restrict(src.s.vars()), g);
        return (wins, stats);
    }

    // Triples fully determined by µ must hold outright: they belong to every
    // configuration of the game, including the initial one.
    let mu_x = mu.restrict(src.x.iter().copied());
    for t in src.s.iter() {
        if let Some(ground) = t.apply(&mu_x) {
            if !g.contains(&ground) {
                return (false, stats);
            }
        }
    }

    let mut solver = Consistency::new(src, g, mu, k, vars);
    let wins = solver.run(&mut stats);
    (wins, stats)
}

/// Sorted list of variable indices — the domain of a partial assignment.
type Domain = Vec<u8>;
/// IRIs assigned to the domain variables, aligned positionally.
type Assignment = Vec<Iri>;

struct SubsetEntry {
    domain: Domain,
    /// Triples of `S` whose variables are covered by `X ∪ domain` —
    /// the constraints active for this subset.
    constraints: Vec<TriplePattern>,
    live: HashSet<Assignment>,
}

struct Consistency<'a> {
    g: &'a dyn TripleIndex,
    k: usize,
    vars: Vec<Variable>,
    domain_values: Vec<Iri>,
    entries: Vec<SubsetEntry>,
    index: HashMap<Domain, usize>,
}

impl<'a> Consistency<'a> {
    fn new(
        src: &GenTGraph,
        g: &'a dyn TripleIndex,
        mu: &Mapping,
        k: usize,
        vars: Vec<Variable>,
    ) -> Consistency<'a> {
        let mu = mu.restrict(src.x.iter().copied());
        // Pre-substitute µ into S once: remaining variables are existential.
        let s_mu: TGraph = src.s.apply_mapping(&mu);
        let domain_values: Vec<Iri> = g.dom().collect();
        let mut solver = Consistency {
            g,
            k,
            vars,
            domain_values,
            entries: Vec::new(),
            index: HashMap::new(),
        };
        // Enumerate all subsets of size ≤ k.
        let n = solver.vars.len();
        let kk = k.min(n);
        let mut current: Domain = Vec::new();
        solver.enumerate_subsets(&s_mu, &mut current, 0, kk);
        solver
    }

    fn enumerate_subsets(&mut self, s_mu: &TGraph, current: &mut Domain, start: usize, k: usize) {
        self.register_subset(s_mu, current.clone());
        if current.len() == k {
            return;
        }
        for i in start..self.vars.len() {
            current.push(i as u8);
            self.enumerate_subsets(s_mu, current, i + 1, k);
            current.pop();
        }
    }

    fn register_subset(&mut self, s_mu: &TGraph, domain: Domain) {
        let covered: Vec<Variable> = domain.iter().map(|&i| self.vars[i as usize]).collect();
        let constraints: Vec<TriplePattern> = s_mu
            .iter()
            .filter(|t| t.vars().iter().all(|v| covered.contains(v)))
            .copied()
            .collect();
        let idx = self.entries.len();
        self.index.insert(domain.clone(), idx);
        self.entries.push(SubsetEntry {
            domain,
            constraints,
            live: HashSet::new(),
        });
    }

    /// Generates the initial partial homomorphisms of one subset by
    /// backtracking over its variables, checking each constraint as soon as
    /// it is fully assigned.
    fn generate_initial(&mut self, idx: usize) -> usize {
        let domain = self.entries[idx].domain.clone();
        let constraints = self.entries[idx].constraints.clone();
        let mut assignment: Assignment = Vec::with_capacity(domain.len());
        let mut out: Vec<Assignment> = Vec::new();
        self.gen_rec(&domain, &constraints, &mut assignment, &mut out);
        let count = out.len();
        self.entries[idx].live = out.into_iter().collect();
        count
    }

    fn gen_rec(
        &self,
        domain: &Domain,
        constraints: &[TriplePattern],
        assignment: &mut Assignment,
        out: &mut Vec<Assignment>,
    ) {
        if assignment.len() == domain.len() {
            out.push(assignment.clone());
            return;
        }
        for &val in &self.domain_values {
            assignment.push(val);
            if self.prefix_consistent(domain, constraints, assignment) {
                self.gen_rec(domain, constraints, assignment, out);
            }
            assignment.pop();
        }
    }

    /// Checks the constraints whose variables are all within the assigned
    /// prefix (the last assigned variable being the interesting one).
    fn prefix_consistent(
        &self,
        domain: &Domain,
        constraints: &[TriplePattern],
        assignment: &Assignment,
    ) -> bool {
        let assigned = assignment.len();
        let value_of = |v: Variable| -> Option<Iri> {
            domain[..assigned]
                .iter()
                .position(|&i| self.vars[i as usize] == v)
                .map(|p| assignment[p])
        };
        let last_var = self.vars[domain[assigned - 1] as usize];
        'next: for t in constraints {
            // Only re-check constraints that involve the newest variable
            // and are fully assigned.
            let mut involves_last = false;
            let mut ground = [Iri::new("_"); 3];
            for (slot, term) in ground.iter_mut().zip(t.positions()) {
                match term {
                    Term::Iri(i) => *slot = i,
                    Term::Var(v) => {
                        if v == last_var {
                            involves_last = true;
                        }
                        match value_of(v) {
                            Some(i) => *slot = i,
                            None => continue 'next, // not fully assigned yet
                        }
                    }
                }
            }
            if involves_last
                && !self
                    .g
                    .contains(&wdsparql_rdf::Triple::new(ground[0], ground[1], ground[2]))
            {
                return false;
            }
        }
        true
    }

    fn run(&mut self, stats: &mut PebbleStats) -> bool {
        stats.subsets = self.entries.len();
        for idx in 0..self.entries.len() {
            stats.initial_assignments += self.generate_initial(idx);
        }
        // Worklist of deletions to process: (subset index, assignment).
        let mut work: VecDeque<(usize, Assignment)> = VecDeque::new();
        // Initial forth check on every assignment.
        for idx in 0..self.entries.len() {
            let doomed: Vec<Assignment> = self.entries[idx]
                .live
                .iter()
                .filter(|f| !self.has_forth(idx, f))
                .cloned()
                .collect();
            for f in doomed {
                if self.entries[idx].live.remove(&f) {
                    work.push_back((idx, f));
                }
            }
        }
        while let Some((idx, f)) = work.pop_front() {
            stats.deleted += 1;
            let domain = self.entries[idx].domain.clone();
            // (a) Downward closure: supersets extending f by one variable
            // must lose every extension of f.
            if domain.len() < self.k.min(self.vars.len()) {
                for x in 0..self.vars.len() as u8 {
                    if domain.contains(&x) {
                        continue;
                    }
                    let (sup_dom, pos) = insert_sorted(&domain, x);
                    let sup_idx = self.index[&sup_dom];
                    for &a in &self.domain_values.clone() {
                        let mut g = f.clone();
                        g.insert(pos, a);
                        if self.entries[sup_idx].live.remove(&g) {
                            work.push_back((sup_idx, g));
                        }
                    }
                }
            }
            // (b) Forth support: each restriction of f may have lost its
            // last extension through the removed variable.
            for (pos, _) in domain.iter().enumerate() {
                let mut sub_dom = domain.clone();
                let removed = sub_dom.remove(pos);
                let mut f_sub = f.clone();
                f_sub.remove(pos);
                let sub_idx = self.index[&sub_dom];
                if !self.entries[sub_idx].live.contains(&f_sub) {
                    continue;
                }
                if !self.supports(idx, &sub_dom, &f_sub, removed) {
                    self.entries[sub_idx].live.remove(&f_sub);
                    work.push_back((sub_idx, f_sub));
                }
            }
        }
        // Duplicator wins iff the empty assignment survives.
        let empty_idx = self.index[&Vec::new()];
        !self.entries[empty_idx].live.is_empty()
    }

    /// Does assignment `f` over `sub_dom` still extend by variable `x`
    /// inside the live set of the superset `sub_dom ∪ {x}` (= entry `idx`)?
    fn supports(&self, sup_idx: usize, sub_dom: &Domain, f: &Assignment, x: u8) -> bool {
        let (_, pos) = insert_sorted(sub_dom, x);
        self.domain_values.iter().any(|&a| {
            let mut g = f.clone();
            g.insert(pos, a);
            self.entries[sup_idx].live.contains(&g)
        })
    }

    /// Forth property for `f` over its entry's domain: every outside
    /// variable has at least one live extension.
    fn has_forth(&self, idx: usize, f: &Assignment) -> bool {
        let domain = &self.entries[idx].domain;
        if domain.len() >= self.k.min(self.vars.len()) {
            return true;
        }
        (0..self.vars.len() as u8)
            .filter(|x| !domain.contains(x))
            .all(|x| {
                let (sup_dom, pos) = insert_sorted(domain, x);
                let sup_idx = self.index[&sup_dom];
                self.domain_values.iter().any(|&a| {
                    let mut g = f.clone();
                    g.insert(pos, a);
                    self.entries[sup_idx].live.contains(&g)
                })
            })
    }
}

/// Inserts `x` into a sorted domain, returning the new domain and the
/// insertion position.
fn insert_sorted(domain: &Domain, x: u8) -> (Domain, usize) {
    let pos = domain.partition_point(|&y| y < x);
    let mut out = domain.clone();
    out.insert(pos, x);
    (out, pos)
}
