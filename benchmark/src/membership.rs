//! `membership`: is µ a solution? — decided by the paper's Theorem 1
//! algorithm (`Strategy::Auto`: domination width, then the existential
//! pebble game) on a store-backed engine, with a fresh `Query` per op so
//! width recognition is paid as `wdsparql check` pays it. Joins, row
//! materialisation and parsing do almost nothing here.

use crate::bgp_join::bgp_dataset;
use crate::counting::{CountingIndex, IndexCounts};
use crate::lifecycle::{self, Dataset, Env};
use crate::stats::{class_sequence, quarter_sample, Answer, SplitMix};
use crate::trace::Tracer;
use crate::wd_eval::root_bgp;
use crate::workload::{
    index_layers, lifecycle_layers, mean_us, scaled, scan_probes, sink, stream_layers, timed_ms,
    Block, Layers, Workload,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use wdsparql_algebra::parse_pattern;
use wdsparql_core::{check_forest, check_forest_pebble, mu_subtree, Engine, Query, Strategy};
use wdsparql_hom::GenTGraph;
use wdsparql_pebble::pebble_game;
use wdsparql_rdf::{Iri, Mapping, QueryBudget, RdfGraph, TriplePattern};
use wdsparql_store::{ShardedStore, StoreSnapshot, TripleStore};
use wdsparql_tree::{pattern_from_wdpf, subtree_children, subtree_pat, subtree_vars, Wdpf, ROOT};
use wdsparql_width::{branch_treewidth_forest, domination_width};
use wdsparql_workloads::{
    clique_instance, fk_instance, fk_instance_negative, social_network, Instance,
};

const PEOPLE: usize = 1_000;
const OPS: usize = 600;
/// Distinct realistic (query, µ) pairs and F_k instances; ops cycle them.
const REALISTIC: usize = 150;
const FK: usize = 24;
/// Naive membership is the oracle wherever it is fast; once one instance
/// of a clique size takes longer than this, larger ones rely on
/// `Instance::expected` alone.
const NAIVE_LIMIT_S: f64 = 0.2;

pub const CLASSES: [&str; 3] = ["realistic", "fk", "heavy"];
/// p50 falls among the realistic and small-F_k checks (85 % of ops,
/// sub-millisecond to a few ms), p90 inside `heavy` (85–100 %).
pub const SHARES: [f64; 3] = [0.45, 0.40, 0.15];

/// A query as the op receives it: text to parse, or a forest to wrap.
enum Source {
    Text(String),
    Forest(Wdpf),
}

/// One membership question with its ground truth.
struct Item {
    class: usize,
    source: Source,
    /// Index into the per-graph stores and engines.
    graph: usize,
    mu: Mapping,
    expected: bool,
    /// The instance family's clique size (0 for realistic items).
    k: usize,
}

impl Item {
    fn query(&self) -> Query {
        match &self.source {
            Source::Text(t) => Query::parse(t).expect("generated texts are well-designed"),
            Source::Forest(f) => Query::from_forest(f.clone()),
        }
    }
}

/// One graph in every form the workload needs it.
struct Backend {
    plain: RdfGraph,
    store: Arc<TripleStore>,
    engine: Engine,
    sharded_engine: Engine,
}

impl Backend {
    fn new(plain: RdfGraph) -> Backend {
        let store = Arc::new(TripleStore::from_rdf(&plain));
        let sharded = Arc::new(ShardedStore::from_rdf(2, &plain));
        Backend {
            engine: Engine::from_store(store.clone()),
            sharded_engine: Engine::from_sharded_store(sharded),
            store,
            plain,
        }
    }
}

pub struct Membership {
    seed: u64,
    backends: Vec<Backend>,
    items: Vec<Item>,
    /// Item index per op.
    ops: Vec<usize>,
    ds: Dataset,
}

/// Realistic questions over the social graph: dw-1 OPT queries anchored
/// at a person; µ an actual solution, a non-maximal restriction of one, or
/// a perturbed one. Ground truth is the naive algorithm on the plain graph.
/// The two query shapes alternate and the kinds of µ take turns within each
/// shape, so every seed asks the same mix of questions; only the people,
/// the solution picked and the perturbation are drawn.
fn realistic_items(plain: &RdfGraph, engine: &Engine, n: usize, rng: &mut SplitMix) -> Vec<Item> {
    let people = plain
        .match_pattern(&wdsparql_rdf::tp(
            wdsparql_rdf::var("p"),
            wdsparql_rdf::iri("type"),
            wdsparql_rdf::iri("Person"),
        ))
        .len();
    let mut items = Vec::with_capacity(n);
    while items.len() < n {
        let k = rng.below(people);
        let text = if items.len() % 2 == 0 {
            format!("((person{k}, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)")
        } else {
            format!(
                "((person{k}, knows, ?y) AND (?y, knows, ?z)) \
                 OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))"
            )
        };
        let q = Query::parse(&text).expect("generated texts are well-designed");
        let sols: Vec<Mapping> = engine.evaluate(&q).into_iter().collect();
        if sols.is_empty() {
            continue;
        }
        let sol = &sols[rng.below(sols.len())];
        let mu = match items.len() / 2 % 10 {
            0..=5 => sol.clone(),
            6 | 7 => sol.restrict(q.forest().trees[0].vars(ROOT)),
            _ => {
                let vars: Vec<_> = sol.domain().collect();
                let mut mu = sol.clone();
                mu.bind(
                    vars[rng.below(vars.len())],
                    Iri::new(&format!("person{}", rng.below(people))),
                );
                mu
            }
        };
        items.push(Item {
            class: 0,
            expected: check_forest(q.forest(), plain, &mu),
            source: Source::Text(text),
            graph: 0,
            mu,
            k: 0,
        });
    }
    items
}

impl Membership {
    pub fn setup(seed: u64, scale: f64, env: &Env) -> Membership {
        let mut rng = SplitMix::new(seed ^ 0x3e3b);
        let social = Backend::new(social_network(scaled(PEOPLE, scale, 100), seed));
        let mut items = realistic_items(
            &social.plain,
            &social.engine,
            scaled(REALISTIC, scale, 20),
            &mut rng,
        );
        let mut backends = vec![social];
        let mut add = |class: usize, k: usize, inst: Instance, items: &mut Vec<Item>| {
            items.push(Item {
                class,
                source: Source::Forest(inst.forest),
                graph: backends.len(),
                mu: inst.mu,
                expected: inst.expected,
                k,
            });
            backends.push(Backend::new(inst.graph));
        };
        // The same ladder of sizes under every k and as many negative as
        // positive instances, for every seed: a check's cost is set by
        // (k, n, polarity), and a free draw of 24 of them moved `op_p50_ms`
        // and `ops_per_s` by a tenth from seed to seed. Drawn: which half
        // of a k's ladder is negative, and the last step of each size.
        let per_k = scaled(FK, scale, 6) / 3;
        for k in 3..=5 {
            let odd_negative = rng.below(2);
            for j in 0..per_k {
                let n = 12 + 16 * j / per_k + rng.below(2);
                let inst = if j % 2 == odd_negative {
                    fk_instance(k, n)
                } else {
                    fk_instance_negative(k, n)
                };
                add(1, k, inst, &mut items);
            }
        }
        let heavy_n = scaled(60, scale.sqrt(), 12);
        for k in 4..=6 {
            add(2, k, fk_instance(k, heavy_n), &mut items);
        }
        add(2, 4, clique_instance(4, 12), &mut items);

        // Exact class counts; within a class, ops cycle its items in order.
        let mut next = [0usize; CLASSES.len()];
        let by_class: Vec<Vec<usize>> = (0..CLASSES.len())
            .map(|c| (0..items.len()).filter(|&i| items[i].class == c).collect())
            .collect();
        let ops = class_sequence(&SHARES, scaled(OPS, scale, 100), &mut rng)
            .into_iter()
            .map(|c| {
                next[c] += 1;
                by_class[c][(next[c] - 1) % by_class[c].len()]
            })
            .collect();

        // The lifecycle dataset: every graph a verdict is asked about.
        let mut all = RdfGraph::new();
        for b in &backends {
            for t in b.plain.iter() {
                all.insert(*t);
            }
        }
        let first = &items[0];
        let mut ds = bgp_dataset(&all, root_bgp(&first.query()), env, seed);
        // The cold CLI run is `wdsparql check`: both algorithms' verdicts
        // on the first realistic question. The other graphs share no
        // vocabulary with the social one, so the verdict is unchanged.
        let file = ds.cli_args[1].clone();
        let Source::Text(text) = &first.source else {
            unreachable!("realistic items carry texts")
        };
        let bindings: Vec<String> = first
            .mu
            .iter()
            .map(|(v, i)| format!("{}={i}", v.name()))
            .collect();
        ds.cli_args = vec![
            "check".into(),
            file.clone(),
            text.clone(),
            bindings.join(","),
        ];
        ds.cli_expect = ("pebble".into(), first.expected.to_string());
        ds.cli_print_args = vec!["eval".into(), file, text.clone()];
        Membership {
            seed,
            backends,
            items,
            ops,
            ds,
        }
    }

    fn check(&self, item: &Item, sharded: bool, buf: &mut String) -> bool {
        let b = &self.backends[item.graph];
        let engine = if sharded {
            &b.sharded_engine
        } else {
            &b.engine
        };
        let verdict = engine.check(&item.query(), &item.mu, Strategy::Auto);
        buf.clear();
        write!(buf, "{} : {verdict}", item.mu).expect("writing to a String cannot fail");
        verdict
    }
}

impl Workload for Membership {
    fn classes(&self) -> (&'static [&'static str], Vec<usize>) {
        (
            &CLASSES,
            self.ops.iter().map(|&i| self.items[i].class).collect(),
        )
    }

    fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// `Instance::expected` is the families' analytic ground truth; the
    /// naive coNP algorithm (exact homomorphism tests) on the plain graph
    /// is the oracle wherever it finishes quickly. The realistic items'
    /// expectations already come from it.
    fn verify(&self) -> Result<u64, String> {
        let mut checks = 0;
        let mut too_slow_from_k = usize::MAX;
        let mut order: Vec<&Item> = self.items.iter().filter(|i| i.class > 0).collect();
        order.sort_by_key(|i| (i.k, self.backends[i.graph].plain.len()));
        for item in order {
            if item.k >= too_slow_from_k {
                continue;
            }
            let Source::Forest(f) = &item.source else {
                unreachable!("instance items carry forests")
            };
            let start = Instant::now();
            let naive = check_forest(f, &self.backends[item.graph].plain, &item.mu);
            if start.elapsed().as_secs_f64() > NAIVE_LIMIT_S {
                too_slow_from_k = item.k;
            }
            if naive != item.expected {
                return Err(format!(
                    "instance (k = {}) expects {}, naive says {naive}",
                    item.k, item.expected
                ));
            }
            checks += 1;
        }
        let mut buf = String::new();
        for item in &self.items {
            let got = self.check(item, false, &mut buf);
            if got != item.expected {
                return Err(format!(
                    "{} item on graph {}: pebble says {got}, expected {}",
                    CLASSES[item.class], item.graph, item.expected
                ));
            }
            checks += 1;
        }
        Ok(checks)
    }

    fn block(&mut self, env: &Env, sides: bool) -> Block {
        let mut buf = String::new();
        // One verdict row per op.
        let mut b = Block::replay(self.ops.len(), |n| {
            Answer::verdict(self.check(&self.items[self.ops[n]], false, &mut buf))
        });
        for (n, &i) in self.ops.iter().enumerate() {
            let want = Answer::verdict(self.items[i].expected);
            b.checks
                .check(b.answers[n] == want, "verdict equals the ground truth");
        }
        if !sides {
            return b;
        }
        // A quarter of the block, every class in proportion.
        let quarter = quarter_sample(&self.classes().1);
        // First solution of each question's mandatory part, streamed from
        // the store its engine reads.
        let budget = QueryBudget::unlimited();
        for &n in &quarter {
            let item = &self.items[self.ops[n]];
            let root = root_bgp(&item.query());
            let store = &self.backends[item.graph].store;
            let (first, ms) = timed_ms(|| store.query_limited(&root, 1, &budget));
            b.ttfs_ms.push(ms);
            b.checks.check(first.is_ok(), "first solution of the root");
        }
        for &n in &quarter {
            let (got, ms) = timed_ms(|| self.check(&self.items[self.ops[n]], true, &mut buf));
            b.sharded_ms.push(ms);
            b.checks.check(
                Answer::verdict(got) == b.answers[n],
                "sharded verdict equals the single store's",
            );
        }
        b.lifecycle = lifecycle::run(&self.ds, env, None);
        b
    }

    fn traced(&mut self, env: &Env, tr: &mut Tracer) -> Layers {
        let mut out = Layers::new();
        let mut buf = String::new();
        let snaps: Vec<StoreSnapshot> = self
            .backends
            .iter()
            .map(|b| b.store.read_snapshot())
            .collect();
        let ixs: Vec<CountingIndex> = snaps
            .iter()
            .map(|s| CountingIndex::new(s.graph()))
            .collect();
        // The facade (`Query::parse` / `from_forest`, `Engine::check` with
        // `Strategy::Auto`) taken apart.
        for &i in &self.ops {
            let item = &self.items[i];
            let ix = &ixs[item.graph];
            tr.next_op();
            let id = tr.enter("op");
            let forest = match &item.source {
                Source::Text(t) => {
                    let p = tr.span("algebra.parse", || parse_pattern(t).expect("parses"));
                    tr.span("tree.translate", || {
                        Wdpf::from_pattern(&p).expect("well-designed")
                    })
                }
                Source::Forest(f) => tr.span("tree.translate", || {
                    let f = f.clone();
                    std::hint::black_box(pattern_from_wdpf(&f));
                    f
                }),
            };
            let k = tr.span("width.dw", || domination_width(&forest));
            let e = tr.enter("core.check_pebble");
            let verdict = check_forest_pebble(&forest, ix, &item.mu, k);
            tr.child_total("index", ix.take_time());
            tr.exit(e);
            tr.span("rdf.format", || {
                buf.clear();
                write!(buf, "{} : {verdict}", item.mu).expect("writing to a String cannot fail");
            });
            tr.exit(id);
        }
        let mut counts = IndexCounts::default();
        for ix in &ixs {
            counts.absorb(ix.counts());
        }
        out.insert("algebra.parse_us", tr.layer("algebra.parse").mean_us());
        out.insert("tree.translate_us", tr.layer("tree.translate").mean_us());
        out.insert("width.dw_us", tr.layer("width.dw").mean_us());
        out.insert(
            "core.check_pebble_us",
            tr.layer("core.check_pebble").mean_us(),
        );
        out.insert(
            "rdf.format.ns_per_row",
            tr.layer("rdf.format").total_ns as f64 / self.ops.len() as f64,
        );
        index_layers(&counts, tr, &mut out);

        // Calls timed on their own, outside the op spans, over a quarter
        // of the block.
        let quarter: Vec<&Item> = quarter_sample(&self.classes().1)
            .into_iter()
            .map(|n| &self.items[self.ops[n]])
            .collect();
        let forests: Vec<Wdpf> = quarter.iter().map(|i| i.query().forest().clone()).collect();
        out.insert(
            "width.bw_us",
            mean_us(&forests, |f| sink(branch_treewidth_forest(f))),
        );
        let light: Vec<(&Item, &Wdpf)> = quarter
            .iter()
            .copied()
            .zip(&forests)
            .filter(|(i, _)| i.class == 0)
            .collect();
        out.insert(
            "core.check_naive_us",
            mean_us(&light, |(i, f)| {
                sink(check_forest(f, snaps[i.graph].graph(), &i.mu) as usize)
            }),
        );
        // The pebble games the evaluator issues, rebuilt the way
        // `check_tree_pebble` builds them.
        let (mut games, mut game_ns) = (0u64, 0u128);
        let (mut initial, mut deleted, mut subsets) = (0usize, 0usize, 0usize);
        for (item, f) in quarter.iter().zip(&forests) {
            let g = snaps[item.graph].graph();
            let k = domination_width(f);
            for t in &f.trees {
                let Some(st) = mu_subtree(t, g, &item.mu) else {
                    continue;
                };
                let (x, base) = (subtree_vars(t, &st), subtree_pat(t, &st));
                for n in subtree_children(t, &st) {
                    let src = GenTGraph::new(base.union(t.pat(n)), x.iter().copied());
                    let start = Instant::now();
                    let (_, stats) = pebble_game(&src, g, &item.mu, k + 1);
                    game_ns += start.elapsed().as_nanos();
                    games += 1;
                    initial += stats.initial_assignments;
                    deleted += stats.deleted;
                    subsets += stats.subsets;
                }
            }
        }
        out.insert("pebble.game_us", game_ns as f64 / 1e3 / games.max(1) as f64);
        out.insert("pebble.initial_assignments", initial as f64);
        out.insert("pebble.deleted", deleted as f64);
        out.insert("pebble.subsets", subsets as f64);

        let social = &self.backends[0];
        let roots: Vec<Vec<TriplePattern>> = quarter
            .iter()
            .filter(|i| i.class == 0)
            .map(|i| root_bgp(&i.query()))
            .collect();
        out.insert(
            "store.plan_us",
            mean_us(&roots, |p| sink(social.store.plan(p).len())),
        );
        stream_layers(&social.store, &roots, &mut out);
        let sharded = social
            .sharded_engine
            .sharded_store()
            .expect("sharded engine");
        out.insert(
            "store.shard.routed_us",
            mean_us(&roots, |p| sink(sharded.query(p).len())),
        );

        scan_probes(snaps[0].graph(), &social.plain, self.seed, &mut out);
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
    fn p50_and_p90_each_fall_inside_one_latency_group() {
        // Realistic and small F_k checks overlap; `heavy` stands apart.
        let groups = [SHARES[0] + SHARES[1], SHARES[2]];
        assert_eq!(inside_one_group(&groups, 0.50), Some(0));
        assert_eq!(inside_one_group(&groups, 0.90), Some(1));
    }

    #[test]
    fn questions_are_a_function_of_the_seed_and_a_wrong_truth_fails() {
        let env = test_env("membership-items");
        let key = |w: &Membership| -> Vec<(usize, String, bool)> {
            w.ops
                .iter()
                .map(|&i| {
                    let it = &w.items[i];
                    (it.graph, it.mu.to_string(), it.expected)
                })
                .collect()
        };
        let (a, b, c) = (
            Membership::setup(11, 0.05, &env),
            Membership::setup(11, 0.05, &env),
            Membership::setup(12, 0.05, &env),
        );
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // Another seed asks other questions of the same mix: as many of
        // each query shape, and under each k as many negative instances.
        let mix = |w: &Membership| -> Vec<(usize, usize, usize)> {
            let mut shape: Vec<(usize, usize, usize)> = w
                .items
                .iter()
                .map(|i| match &i.source {
                    Source::Text(t) => (0, t.matches("knows").count(), 0),
                    Source::Forest(_) => (i.class, i.k, i.expected as usize),
                })
                .collect();
            shape.sort();
            shape
        };
        assert_eq!(mix(&a), mix(&c));
        assert!(a.items.iter().any(|i| i.expected) && a.items.iter().any(|i| !i.expected));
        assert!(a.verify().is_ok());
        let mut wrong = a;
        wrong.items[0].expected ^= true;
        assert!(wrong.verify().is_err());
        std::fs::remove_dir_all(&env.tmp).unwrap();
    }
}
