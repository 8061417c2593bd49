//! `bgp_join`: AND-only queries against a compacted `TripleStore` — the
//! store's read path (plan, snapshot, scans, pairwise and leapfrog joins,
//! `Mapping` materialisation) with the paper-side crates idle. The query
//! population is far larger than the 128-entry result cache, so this is
//! the cache's *miss* path.

use crate::lifecycle::{self, Dataset, Env, Expected};
use crate::stats::{class_sequence, format_rows, quarter_sample, SplitMix};
use crate::trace::Tracer;
use crate::workload::{
    counted_probes, lifecycle_layers, mean_us, scaled, scan_probes, sink, stream_layers, timed_ms,
    Block, Layers, Workload,
};
use wdsparql_rdf::{tp, write_ntriples, Iri, QueryBudget, RdfGraph, Term, TriplePattern, Variable};
use wdsparql_store::{
    eval_bgp_pairwise, eval_bgp_wco, eval_bgp_with_strategy, JoinStrategy, ShardedStore,
    TripleStore,
};
use wdsparql_workloads::skewed_triple_stream;

const NODES: usize = 6_000;
const DRAWS: usize = 110_000;
pub const PREDICATES: usize = 8;
const OPS: usize = 1_200;

pub const CLASSES: [&str; 5] = ["star2", "path2", "path3", "triangle", "open_path"];
/// p50 falls inside the three selective classes (85 % of ops, tens of
/// µs), p90 inside `triangle` (85–97 %, the leapfrog join), and
/// `open_path` (tens of thousands of rows each) dominates `rows_per_s`.
pub const SHARES: [f64; 5] = [0.30, 0.25, 0.30, 0.12, 0.03];
const TRIANGLE: usize = 3;
const OPEN_PATH: usize = 4;

/// One AND-only query: its class, the anchor `c` (unused by the two
/// unanchored classes) and up to three predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub class: usize,
    pub c: Iri,
    pub p: [Iri; 3],
}

fn node(i: usize) -> Iri {
    Iri::new(&format!("n{i}"))
}

fn pred(i: usize) -> Iri {
    Iri::new(&format!("p{i}"))
}

/// Every choice of `arity` predicates out of the eight (unused places 0).
fn predicate_choices(arity: u32) -> Vec<[usize; 3]> {
    (0..PREDICATES.pow(arity))
        .map(|i| [i % 8, i / 8 % 8, i / 64])
        .collect()
}

/// The block's op sequence. Class counts are exact; the unanchored
/// classes walk a shuffled list of all predicate combinations, so every
/// seed runs the same number of distinct triangles and open paths.
pub fn gen_ops(nodes: usize, n: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix::new(seed);
    let (mut combos, mut pairs) = (predicate_choices(3), predicate_choices(2));
    rng.shuffle(&mut combos);
    rng.shuffle(&mut pairs);
    let (mut next_combo, mut next_pair) = (0, 0);
    class_sequence(&SHARES, n, &mut rng)
        .into_iter()
        .map(|class| {
            let p = match class {
                TRIANGLE => {
                    next_combo += 1;
                    combos[(next_combo - 1) % combos.len()]
                }
                OPEN_PATH => {
                    next_pair += 1;
                    pairs[(next_pair - 1) % pairs.len()]
                }
                _ => [
                    rng.below(PREDICATES),
                    rng.below(PREDICATES),
                    rng.below(PREDICATES),
                ],
            };
            Op {
                class,
                c: node(rng.skewed(nodes)),
                p: p.map(pred),
            }
        })
        .collect()
}

/// Every triangle and every open path over the eight predicates, in a
/// fixed order: the same queries for every seed.
pub fn large_queries() -> Vec<Op> {
    let combos = predicate_choices(3).into_iter().map(|p| (TRIANGLE, p));
    let pairs = predicate_choices(2).into_iter().map(|p| (OPEN_PATH, p));
    combos
        .chain(pairs)
        .map(|(class, p)| Op {
            class,
            c: pred(0),
            p: p.map(pred),
        })
        .collect()
}

/// The query's triple patterns — built per op, inside the timed region,
/// as a caller of `TripleStore::query` would.
pub fn patterns(op: &Op, v: &[Variable; 4]) -> Vec<TriplePattern> {
    let [x, y, z, w] = v.map(Term::Var);
    let (c, [pa, pb, pc]) = (Term::Iri(op.c), op.p.map(Term::Iri));
    match op.class {
        0 => vec![tp(c, pa, y), tp(c, pb, z)],
        1 => vec![tp(c, pa, y), tp(y, pb, z)],
        2 => vec![tp(c, pa, y), tp(y, pb, z), tp(z, pc, w)],
        TRIANGLE => vec![tp(x, pa, y), tp(y, pb, z), tp(x, pc, z)],
        _ => vec![tp(x, pa, y), tp(y, pb, z)],
    }
}

/// The paper-syntax text of a pattern list, for the CLI.
pub fn bgp_text(pats: &[TriplePattern]) -> String {
    let parts: Vec<String> = pats
        .iter()
        .map(|t| format!("({}, {}, {})", t.s, t.p, t.o))
        .collect();
    parts.join(" AND ")
}

pub fn query_vars() -> [Variable; 4] {
    ["x", "y", "z", "w"].map(Variable::new)
}

/// The lifecycle description of a BGP dataset: reopen and the CLI both
/// answer `query`, whose answer comes from the plain graph.
pub fn bgp_dataset(graph: &RdfGraph, query: Vec<TriplePattern>, env: &Env, seed: u64) -> Dataset {
    let text = write_ntriples(graph);
    let path = env.tmp.join("data.nt");
    std::fs::write(&path, &text).expect("write the N-Triples file");
    let rows = eval_bgp_pairwise(graph, &query);
    let answer = format_rows(&rows, &mut String::new());
    let file = path.to_string_lossy().into_owned();
    let qtext = bgp_text(&query);
    Dataset {
        text,
        distinct: graph.len(),
        reads: Vec::new(),
        reads_expected: Vec::new(),
        firsts: Vec::new(),
        probes: counted_probes(graph, 64, &mut SplitMix::new(seed ^ 0x9e0b)),
        cli_args: vec!["store".into(), file.clone(), qtext.clone()],
        cli_expect: (format!("{} solution(s)", answer.rows), String::new()),
        cli_print_args: vec!["eval".into(), file, qtext],
        after_reopen: Expected {
            pats: query,
            answer,
        },
    }
}

pub struct BgpJoin {
    seed: u64,
    plain: RdfGraph,
    store: TripleStore,
    sharded: ShardedStore,
    ops: Vec<Op>,
    vars: [Variable; 4],
    ds: Dataset,
}

impl BgpJoin {
    pub fn setup(seed: u64, scale: f64, env: &Env) -> BgpJoin {
        let nodes = scaled(NODES, scale, 50);
        let plain = RdfGraph::from_triples(skewed_triple_stream(
            nodes,
            scaled(DRAWS, scale, 500),
            PREDICATES,
            seed,
        ));
        let store = TripleStore::from_rdf(&plain);
        let sharded = ShardedStore::from_rdf(2, &plain);
        let ops = gen_ops(nodes, scaled(OPS, scale, 120), seed);
        let vars = query_vars();
        let path3 = ops.iter().find(|o| o.class == 2).expect("a path3 op");
        let ds = bgp_dataset(&plain, patterns(path3, &vars), env, seed);
        BgpJoin {
            seed,
            plain,
            store,
            sharded,
            ops,
            vars,
            ds,
        }
    }

    fn of_class(&self, class: usize, n: usize) -> Vec<Vec<TriplePattern>> {
        self.ops
            .iter()
            .filter(|o| o.class == class)
            .take(n)
            .map(|o| patterns(o, &self.vars))
            .collect()
    }
}

impl Workload for BgpJoin {
    fn classes(&self) -> (&'static [&'static str], Vec<usize>) {
        (&CLASSES, self.ops.iter().map(|o| o.class).collect())
    }

    fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// 40 queries per class against `eval_bgp_pairwise` over the plain
    /// `RdfGraph`: another index, another join order, no leapfrog.
    fn verify(&self) -> Result<u64, String> {
        let mut buf = String::new();
        let mut checks = 0;
        for (class, name) in CLASSES.iter().enumerate() {
            for pats in self.of_class(class, 40) {
                let want = format_rows(&eval_bgp_pairwise(&self.plain, &pats), &mut buf);
                let got = format_rows(self.store.query(&pats).iter(), &mut buf);
                if got != want {
                    return Err(format!(
                        "{name}: store answered {got:?}, oracle {want:?} for {}",
                        bgp_text(&pats)
                    ));
                }
                checks += 1;
            }
        }
        Ok(checks)
    }

    fn block(&mut self, env: &Env, sides: bool) -> Block {
        let mut buf = String::new();
        let mut b = Block::replay(self.ops.len(), |i| {
            let pats = patterns(&self.ops[i], &self.vars);
            format_rows(self.store.query(&pats).iter(), &mut buf)
        });
        if !sides {
            return b;
        }
        // First solution of every large query there is — all 8³ triangles
        // and 8² open paths, not the block's sample of them, whose median
        // would move with the seed's draw — streamed: uncached by
        // construction (`query_limited` never reads or fills the cache).
        let budget = QueryBudget::unlimited();
        for op in large_queries() {
            let pats = patterns(&op, &self.vars);
            let (first, ms) = timed_ms(|| self.store.query_limited(&pats, 1, &budget));
            b.ttfs_ms.push(ms);
            let first = first.expect("unlimited budget");
            let holds = |mu| {
                pats.iter()
                    .all(|p| p.apply(mu).is_some_and(|t| self.plain.contains(&t)))
            };
            // Any first row is a right answer as long as it is one.
            b.checks.check(
                first.len() <= 1 && first.iter().all(holds),
                "first solution",
            );
        }
        // A quarter of the block, every class in proportion, against two
        // shards.
        for i in quarter_sample(&self.classes().1) {
            let (got, ms) = timed_ms(|| {
                let rows = self.sharded.query(&patterns(&self.ops[i], &self.vars));
                format_rows(rows.iter(), &mut buf)
            });
            b.sharded_ms.push(ms);
            b.checks.check(
                got == b.answers[i],
                "sharded answer equals the single store's",
            );
        }
        b.lifecycle = lifecycle::run(&self.ds, env, None);
        b
    }

    fn traced(&mut self, env: &Env, tr: &mut Tracer) -> Layers {
        let mut out = Layers::new();
        let mut buf = String::new();
        // The op replay, layer by layer: snapshot, join, format.
        let mut rows_total = 0u64;
        for op in &self.ops {
            tr.next_op();
            let id = tr.enter("op");
            let pats = patterns(op, &self.vars);
            let snap = tr.span("store.snapshot", || self.store.read_snapshot());
            let rows = tr.span("store.join", || {
                eval_bgp_with_strategy(snap.graph(), &pats, JoinStrategy::Auto)
            });
            rows_total += tr.span("rdf.format", || format_rows(&rows, &mut buf)).rows;
            tr.exit(id);
        }
        out.insert(
            "rdf.format.ns_per_row",
            tr.layer("rdf.format").total_ns as f64 / rows_total.max(1) as f64,
        );

        // Calls timed on their own, outside the op spans.
        let all: Vec<Vec<TriplePattern>> =
            self.ops.iter().map(|o| patterns(o, &self.vars)).collect();
        let snap = self.store.read_snapshot();
        let g = snap.graph();
        out.insert(
            "store.plan_us",
            mean_us(&all, |p| sink(self.store.plan(p).len())),
        );
        let triangles = self.of_class(TRIANGLE, 32);
        out.insert(
            "store.join.pairwise_ms",
            mean_us(&triangles, |p| sink(eval_bgp_pairwise(g, p).len())) / 1e3,
        );
        out.insert(
            "store.join.wco_ms",
            mean_us(&triangles, |p| sink(eval_bgp_wco(g, p).len())) / 1e3,
        );
        let paths = self.of_class(OPEN_PATH, 16);
        let mut path_rows = 0usize;
        out.insert(
            "store.join.path_ms",
            mean_us(&paths, |p| {
                path_rows += eval_bgp_with_strategy(g, p, JoinStrategy::Auto).len()
            }) / 1e3,
        );
        out.insert(
            "store.join.path_rows",
            path_rows as f64 / paths.len().max(1) as f64,
        );
        let large: Vec<Vec<TriplePattern>> = [triangles.clone(), paths].concat();
        stream_layers(&self.store, &large, &mut out);
        out.insert(
            "store.shard.routed_us",
            mean_us(&self.of_class(0, 64), |p| sink(self.sharded.query(p).len())),
        );
        out.insert(
            "store.shard.fanout_ms",
            mean_us(&triangles, |p| sink(self.sharded.query(p).len())) / 1e3,
        );

        // The cache over one replay through the facade, then its hit path:
        // the last 100 queries again while they are still resident.
        let before = self.store.cache_stats();
        for p in &all {
            sink(self.store.query(p).len());
        }
        let after = self.store.cache_stats();
        let lookups = (after.hits + after.misses - before.hits - before.misses) as f64;
        out.insert(
            "store.cache.hit_share",
            (after.hits - before.hits) as f64 / lookups,
        );
        out.insert(
            "store.cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        let tail = &all[all.len().saturating_sub(100)..];
        out.insert(
            "store.cache.hit_us",
            mean_us(tail, |p| sink(self.store.query(p).len())),
        );

        scan_probes(g, &self.plain, self.seed, &mut out);
        let lc = lifecycle::run(&self.ds, env, Some(tr));
        lifecycle_layers(&lc, &self.ds, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::inside_one_group;
    use crate::workload::test_env;

    #[test]
    fn ops_and_dataset_are_a_function_of_the_seed() {
        assert_eq!(gen_ops(300, 200, 7), gen_ops(300, 200, 7));
        assert_ne!(gen_ops(300, 200, 7), gen_ops(300, 200, 8));
        let text = |seed| {
            write_ntriples(&RdfGraph::from_triples(skewed_triple_stream(
                300, 5_000, PREDICATES, seed,
            )))
        };
        let (a, b, a_again) = (text(7), text(8), text(7));
        assert_eq!(a, a_again, "equal seeds must give byte-identical text");
        assert_ne!(a, b);
    }

    /// Ordered by latency, the classes are the groups themselves: p50
    /// must sit strictly inside one of the selective classes and p90
    /// strictly inside `triangle`.
    #[test]
    fn p50_and_p90_each_fall_inside_one_class() {
        let groups: Vec<f64> = SHARES.to_vec();
        assert_eq!(inside_one_group(&groups, 0.50), Some(1));
        assert_eq!(inside_one_group(&groups, 0.90), Some(TRIANGLE));
        let seq = gen_ops(300, OPS, 1);
        let triangles = seq.iter().filter(|o| o.class == TRIANGLE).count();
        assert_eq!(triangles, (SHARES[TRIANGLE] * OPS as f64).round() as usize);
    }

    /// A wrong oracle must fail the run: here the oracle's graph gains a
    /// triple the store never saw, on a query the sample verifies.
    #[test]
    fn a_wrong_oracle_value_fails_verification() {
        let env = test_env("bgp-wrong-oracle");
        let mut w = BgpJoin::setup(3, 0.05, &env);
        assert!(w.verify().is_ok());
        let star = w.ops.iter().find(|o| o.class == 0).expect("a star2 op");
        let (c, p) = (star.c, star.p[0]);
        w.plain
            .insert(wdsparql_rdf::Triple::new(c, p, Iri::new("never-loaded")));
        w.plain.insert(wdsparql_rdf::Triple::new(
            c,
            star.p[1],
            Iri::new("never-loaded"),
        ));
        let err = w.verify().expect_err("the tampered oracle must disagree");
        assert!(err.contains("star2"), "{err}");
        std::fs::remove_dir_all(&env.tmp).unwrap();
    }
}
