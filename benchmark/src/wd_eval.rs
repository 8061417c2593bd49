//! `wd_eval`: well-designed AND/OPT/UNION query texts, parsed and
//! enumerated on a store-backed `Engine` — the paper's pipeline end to
//! end (`algebra` parse, `tree` translation, `core::enumerate` with its
//! maximality checks, `hom` per-node search), reaching the store only
//! through `&dyn TripleIndex` probes. No result cache on this path.

use crate::bgp_join::bgp_dataset;
use crate::counting::CountingIndex;
use crate::lifecycle::{self, Dataset, Env};
use crate::stats::{class_sequence, format_rows, quarter_sample, SplitMix};
use crate::trace::Tracer;
use crate::workload::{
    index_layers, lifecycle_layers, mean_us, scaled, scan_probes, sink, stream_layers, timed_ms,
    Block, Layers, Workload,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use wdsparql_algebra::{check_well_designed, parse_pattern, parse_sparql, GraphPattern};
use wdsparql_core::{enumerate_forest_with, enumerate_with_stats, Engine, JoinStrategy, Query};
use wdsparql_hom::{core_of, find_hom_into_graph, GenTGraph};
use wdsparql_rdf::{Mapping, QueryBudget, RdfGraph, TriplePattern};
use wdsparql_store::{eval_bgp_pairwise, eval_bgp_wco, ShardedStore, TripleStore};
use wdsparql_tree::{Wdpf, ROOT};
use wdsparql_workloads::social_network;

const PEOPLE: usize = 10_000;
const OPS: usize = 800;

pub const CLASSES: [&str; 7] = [
    "opt_star",
    "opt_nested",
    "union_opt",
    "opt_in",
    "opt_filtered_scan",
    "opt_full_scan",
    "cyclic_opt",
];
/// The three person-anchored classes are 70 % of ops (tens of µs including
/// parsing). Two hops cost about twice one hop, so by latency `opt_star`
/// and `union_opt` fill 0–30 % and `opt_nested` 30–70 %: the p50 band sits
/// in the middle of `opt_nested`, not on the step between the two. p90
/// falls inside `opt_filtered_scan` (85–95 %).
pub const SHARES: [f64; 7] = [0.15, 0.40, 0.15, 0.15, 0.10, 0.03, 0.02];
/// The root BGPs of the classes from here on are joins and scans whose
/// first row is worth streaming for: the traced run's `store.stream.*`
/// probes.
const FIRST_SCAN_CLASS: usize = 4;
const CYCLIC: usize = 6;

pub struct Op {
    pub class: usize,
    pub text: String,
    /// The mandatory part: the BGP at the root of the first tree.
    root: Vec<TriplePattern>,
}

/// `n` query texts over `social_network(people, _)`, exact class counts.
/// People are drawn; the five cities and four topics are walked in turn
/// within each class, so every seed scans each city equally often (the
/// scans' cost is their city's size, and there are only five).
pub fn gen_texts(people: usize, n: usize, seed: u64) -> Vec<(usize, String)> {
    let mut rng = SplitMix::new(seed ^ 0x77d0);
    let mut nth = [0usize; CLASSES.len()];
    class_sequence(&SHARES, n, &mut rng)
        .into_iter()
        .map(|class| {
            let (k, j) = (rng.below(people), rng.below(people));
            nth[class] += 1;
            let (city, topic) = (nth[class] % 5, nth[class] / 5 % 4);
            let text = match class {
                0 => format!("((person{k}, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)"),
                1 => format!(
                    "((person{k}, knows, ?y) AND (?y, knows, ?z)) \
                     OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))"
                ),
                2 => format!(
                    "((person{k}, knows, ?y) OPT (?y, email, ?e)) \
                     UNION ((person{j}, knows, ?y) OPT (?y, city, ?c))"
                ),
                3 => format!(
                    "{{ ?x city city{city} OPTIONAL {{ ?x email ?e OPTIONAL {{ ?x wrote ?w }} }} }}"
                ),
                4 => format!(
                    "((?x, city, city{city}) AND (?x, knows, ?y)) \
                     OPT ((?y, wrote, ?w) OPT (?w, topic, topic{topic}))"
                ),
                5 => "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)".to_string(),
                _ => "((?x, knows, ?y) AND (?y, knows, ?z) AND (?z, knows, ?x)) \
                      OPT (?x, email, ?e)"
                    .to_string(),
            };
            (class, text)
        })
        .collect()
}

pub fn root_bgp(q: &Query) -> Vec<TriplePattern> {
    q.forest().trees[0].pat(ROOT).iter().copied().collect()
}

/// The pattern of a text, by the same syntax dispatch `Query::parse` does.
fn parse_text(text: &str) -> GraphPattern {
    if text.starts_with('{') {
        parse_sparql(text)
    } else {
        parse_pattern(text)
    }
    .expect("generated query texts parse")
}

pub struct WdEval {
    seed: u64,
    plain: RdfGraph,
    people: usize,
    store: Arc<TripleStore>,
    sharded: Arc<ShardedStore>,
    engine: Engine,
    sharded_engine: Engine,
    ops: Vec<Op>,
    ds: Dataset,
}

impl WdEval {
    pub fn setup(seed: u64, scale: f64, env: &Env) -> WdEval {
        let people = scaled(PEOPLE, scale, 100);
        let plain = social_network(people, seed);
        let store = Arc::new(TripleStore::from_rdf(&plain));
        let sharded = Arc::new(ShardedStore::from_rdf(2, &plain));
        let ops: Vec<Op> = gen_texts(people, scaled(OPS, scale, 100), seed)
            .into_iter()
            .map(|(class, text)| {
                let q = Query::parse(&text).expect("generated texts are well-designed");
                Op {
                    class,
                    root: root_bgp(&q),
                    text,
                }
            })
            .collect();
        let scan = ops.iter().find(|o| o.class == 4).expect("a filtered scan");
        let mut ds = bgp_dataset(&plain, scan.root.clone(), env, seed);
        // The cold CLI run answers an OPT query through the store-backed
        // engine; the print run enumerates and prints every person.
        let star = ops.iter().find(|o| o.class == 0).expect("an opt_star");
        let file = ds.cli_args[1].clone();
        let want = wdsparql_algebra::eval(&parse_text(&star.text), &plain).len();
        ds.cli_args = vec!["store".into(), file.clone(), star.text.clone()];
        ds.cli_expect = (format!("{want} solution(s)"), String::new());
        let full = ops.iter().find(|o| o.class == 5).expect("a full scan");
        ds.cli_print_args = vec!["eval".into(), file, full.text.clone()];
        WdEval {
            seed,
            people,
            engine: Engine::from_store(store.clone()),
            sharded_engine: Engine::from_sharded_store(sharded.clone()),
            plain,
            store,
            sharded,
            ops,
            ds,
        }
    }

    fn roots_of(&self, classes: std::ops::Range<usize>, n: usize) -> Vec<Vec<TriplePattern>> {
        self.ops
            .iter()
            .filter(|o| classes.contains(&o.class))
            .take(n)
            .map(|o| o.root.clone())
            .collect()
    }
}

fn evaluate(engine: &Engine, text: &str, buf: &mut String) -> crate::stats::Answer {
    let q = Query::parse(text).expect("generated texts are well-designed");
    format_rows(engine.evaluate(&q).iter(), buf)
}

impl Workload for WdEval {
    fn classes(&self) -> (&'static [&'static str], Vec<usize>) {
        (&CLASSES, self.ops.iter().map(|o| o.class).collect())
    }

    fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Two independent routes: the Pérez et al. reference semantics
    /// (`wdsparql_algebra::eval`, bottom-up joins and left outer joins) on
    /// a 1/25-scale graph for every class, and on the full graph the
    /// enumeration over the plain `RdfGraph` with pairwise node joins.
    fn verify(&self) -> Result<u64, String> {
        let mut buf = String::new();
        let mut checks = 0;
        let small_people = (self.people / 25).max(40);
        let small = social_network(small_people, self.seed);
        let small_engine = Engine::from_store(Arc::new(TripleStore::from_rdf(&small)));
        let texts: BTreeSet<(usize, String)> =
            gen_texts(small_people, 10 * CLASSES.len(), self.seed)
                .into_iter()
                .collect();
        for (class, text) in &texts {
            let want = format_rows(&wdsparql_algebra::eval(&parse_text(text), &small), &mut buf);
            let got = evaluate(&small_engine, text, &mut buf);
            if got != want {
                return Err(format!(
                    "{}: engine {got:?}, reference semantics {want:?} for {text}",
                    CLASSES[*class]
                ));
            }
            checks += 1;
        }
        let memory = Engine::new(self.plain.clone()).with_join_strategy(JoinStrategy::Pairwise);
        for (class, name) in CLASSES.iter().enumerate() {
            let distinct: BTreeSet<&str> = self
                .ops
                .iter()
                .filter(|o| o.class == class)
                .take(20)
                .map(|o| o.text.as_str())
                .collect();
            for text in distinct {
                let want = evaluate(&memory, text, &mut buf);
                let got = evaluate(&self.engine, text, &mut buf);
                if got != want {
                    return Err(format!(
                        "{name}: store-backed {got:?}, memory-backed {want:?} for {text}"
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
            evaluate(&self.engine, &self.ops[i].text, &mut buf)
        });
        if !sides {
            return b;
        }
        // A quarter of the block, every class in proportion.
        let quarter = quarter_sample(&self.classes().1);
        // First solution of each query's mandatory part, streamed from
        // the store the engine reads.
        let budget = QueryBudget::unlimited();
        for &i in &quarter {
            let root = &self.ops[i].root;
            let (first, ms) = timed_ms(|| self.store.query_limited(root, 1, &budget));
            b.ttfs_ms.push(ms);
            let n = first.expect("unlimited budget").len() as u64;
            // A UNION query's first tree may be empty where its second is not.
            let want = b.answers[i].rows.min(1);
            b.checks.check(
                n == want || self.ops[i].class == 2,
                "first solution of the root",
            );
        }
        // The same quarter through the engine on two shards.
        for i in quarter {
            let text = &self.ops[i].text;
            let (got, ms) = timed_ms(|| evaluate(&self.sharded_engine, text, &mut buf));
            b.sharded_ms.push(ms);
            b.checks.check(
                got == b.answers[i],
                "sharded engine equals the single store's",
            );
        }
        b.lifecycle = lifecycle::run(&self.ds, env, None);
        b
    }

    fn traced(&mut self, env: &Env, tr: &mut Tracer) -> Layers {
        let mut out = Layers::new();
        let mut buf = String::new();
        let snap = self.store.read_snapshot();
        let g = snap.graph();
        let ix = CountingIndex::new(g);
        let mut rows_total = 0u64;
        // The facade (`Query::parse`, `Engine::evaluate`) taken apart.
        for op in &self.ops {
            tr.next_op();
            let id = tr.enter("op");
            let pattern = tr.span("algebra.parse", || parse_text(&op.text));
            let forest = tr.span("tree.translate", || {
                Wdpf::from_pattern(&pattern).expect("well-designed")
            });
            let e = tr.enter("core.enumerate");
            let sols = enumerate_forest_with(&forest, &ix, JoinStrategy::Auto);
            // The store's share of the enumeration, as one child span.
            tr.child_total("index", ix.take_time());
            tr.exit(e);
            rows_total += tr
                .span("rdf.format", || format_rows(sols.iter(), &mut buf))
                .rows;
            tr.exit(id);
        }
        out.insert("algebra.parse_us", tr.layer("algebra.parse").mean_us());
        out.insert("tree.translate_us", tr.layer("tree.translate").mean_us());
        out.insert(
            "core.enumerate_ms",
            tr.layer("core.enumerate").mean_us() / 1e3,
        );
        out.insert(
            "rdf.format.ns_per_row",
            tr.layer("rdf.format").total_ns as f64 / rows_total.max(1) as f64,
        );
        index_layers(&ix.counts(), tr, &mut out);

        // Calls timed on their own, outside the op spans.
        let patterns: Vec<GraphPattern> = quarter_sample(&self.classes().1)
            .into_iter()
            .map(|i| parse_text(&self.ops[i].text))
            .collect();
        out.insert(
            "algebra.wd_check_us",
            mean_us(&patterns, |p| sink(check_well_designed(p).is_ok() as usize)),
        );
        let forests: Vec<Wdpf> = patterns
            .iter()
            .map(|p| Wdpf::from_pattern(p).expect("well-designed"))
            .collect();
        let (mut hom_calls, mut steps) = (0, 0);
        for f in &forests {
            let stats = enumerate_with_stats(f, g).1;
            hom_calls += stats.hom_calls;
            steps += stats.steps;
        }
        out.insert("core.enum.hom_calls", hom_calls as f64);
        out.insert("core.enum.steps", steps as f64);
        let nodes: Vec<GenTGraph> = forests
            .iter()
            .flat_map(|f| f.trees.iter())
            .flat_map(|t| t.node_ids().map(|n| GenTGraph::new(t.pat(n).clone(), [])))
            .collect();
        let empty = Mapping::new();
        out.insert(
            "hom.find_us",
            mean_us(&nodes, |s| {
                sink(find_hom_into_graph(s, g, &empty).is_some() as usize)
            }),
        );
        out.insert("hom.core_us", mean_us(&nodes, |s| sink(core_of(s).len())));

        let roots: Vec<Vec<TriplePattern>> = self.ops.iter().map(|o| o.root.clone()).collect();
        out.insert(
            "store.plan_us",
            mean_us(&roots, |p| sink(self.store.plan(p).len())),
        );
        let cyclic = self.roots_of(CYCLIC..CYCLIC + 1, 3);
        out.insert(
            "store.join.pairwise_ms",
            mean_us(&cyclic, |p| sink(eval_bgp_pairwise(g, p).len())) / 1e3,
        );
        out.insert(
            "store.join.wco_ms",
            mean_us(&cyclic, |p| sink(eval_bgp_wco(g, p).len())) / 1e3,
        );
        let scans = self.roots_of(FIRST_SCAN_CLASS..CLASSES.len(), 64);
        stream_layers(&self.store, &scans, &mut out);
        out.insert(
            "store.shard.routed_us",
            mean_us(&self.roots_of(0..1, 64), |p| {
                sink(self.sharded.query(p).len())
            }),
        );
        out.insert(
            "store.shard.fanout_ms",
            mean_us(&cyclic, |p| sink(self.sharded.query(p).len())) / 1e3,
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

    #[test]
    fn texts_are_a_function_of_the_seed_and_well_designed() {
        assert_eq!(gen_texts(400, 140, 5), gen_texts(400, 140, 5));
        assert_ne!(gen_texts(400, 140, 5), gen_texts(400, 140, 6));
        for (class, text) in gen_texts(400, 140, 5) {
            let q = Query::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", CLASSES[class]));
            assert!(!root_bgp(&q).is_empty());
            assert_eq!(q.pattern(), &parse_text(&text));
        }
    }

    /// By latency the classes group as: the one-hop anchored ones (~17 µs),
    /// the two-hop `opt_nested` (~33 µs), `opt_in` (~3 ms), the filtered
    /// scan and the cyclic root (~5 ms), the full scan (~30 ms).
    #[test]
    fn p50_and_p90_each_fall_inside_one_latency_group() {
        let groups = [
            SHARES[0] + SHARES[2],
            SHARES[1],
            SHARES[3],
            SHARES[4] + SHARES[CYCLIC],
            SHARES[5],
        ];
        assert_eq!(inside_one_group(&groups, 0.50), Some(1));
        assert_eq!(inside_one_group(&groups, 0.90), Some(3));
        // The whole reported bands, not just their centres.
        assert_eq!(inside_one_group(&groups, 0.45), Some(1));
        assert_eq!(inside_one_group(&groups, 0.55), Some(1));
        assert_eq!(inside_one_group(&groups, 0.875), Some(3));
        assert_eq!(inside_one_group(&groups, 0.925), Some(3));
    }
}
