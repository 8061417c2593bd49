//! `wdsparql` — a command-line interface to the library.
//!
//! ```text
//! wdsparql analyze  <query>                 width report for a query
//! wdsparql eval     <data.nt> <query>       enumerate all solutions
//! wdsparql check    <data.nt> <query> <µ>   membership, all strategies
//! wdsparql count    <data.nt> <query>       solution counts by domain
//! wdsparql select   <data.nt> <select-q>    projected (SELECT) evaluation
//! wdsparql contain  <query1> <query2>       containment verdicts, both ways
//! wdsparql forest   <query>                 print the wdPF translation
//! wdsparql store [--shards N] [--max-triples N]
//!                [--join-strategy pairwise|wco|auto]
//!                [--limit K] [--deadline-ms T]
//!                [--profile] [--metrics-json PATH]
//!                [--dir PATH] [--open]
//!                   <data.nt> [query]       bulk-load into the triple store
//!                                           (hash-sharded when N > 1),
//!                                           report stats, run the query
//!                                           through the service with the
//!                                           chosen BGP join strategy;
//!                                           `--limit K` streams only the
//!                                           first K solutions (LIMIT
//!                                           pushdown), `--deadline-ms T`
//!                                           budgets the query — exceeding
//!                                           it is a clean error;
//!                                           `--profile` prints the query's
//!                                           execution profile (span tree),
//!                                           `--metrics-json` dumps the
//!                                           process-wide metrics registry;
//!                                           `--dir PATH` persists every
//!                                           ingest batch durably to PATH,
//!                                           `--open` reopens such a store
//!                                           (then only `[query]` follows)
//! wdsparql demo                             run a tiny built-in scenario
//! ```
//!
//! `<query>` is a pattern in the paper's syntax, e.g.
//! `"(?x, knows, ?y) OPT (?y, email, ?e)"`, or SPARQL-style curly syntax.
//! `<select-q>` is `"SELECT ?x ?y WHERE { ... }"`. `<µ>` is a
//! comma-separated binding list, e.g. `"x=alice,y=bob"`.

#![forbid(unsafe_code)]

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use wdsparql_contain::{decide_containment, SearchBudget, Verdict};
use wdsparql_core::{count_by_domain, enumerate_with_stats, Engine, Query, Strategy};
use wdsparql_project::{enumerate_projected, ProjectedQuery};
use wdsparql_rdf::{parse_ntriples, ExecError, Mapping, QueryBudget, Triple, TriplePattern};
use wdsparql_store::{
    CacheStats, JoinStrategy, PlannedQuery, ShardedStore, StoreError, TripleStore,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped early.
enum Failure {
    /// Reported on stderr with the usage text, exit status 1.
    Message(String),
    /// The reader of stdout closed it while rows were being written.
    StdoutClosed,
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Message(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Message(msg.to_string())
    }
}

/// Runs `lines` against stdout locked and buffered once — one `write`
/// per eight kilobytes of rows instead of one per row — and flushes.
/// Every row-printing loop goes through here; a closed pipe ends the
/// command quietly instead of panicking inside `println!`.
fn print_lines(lines: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Result<(), Failure> {
    let mut out = BufWriter::new(io::stdout().lock());
    lines(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::StdoutClosed,
            _ => Failure::Message(format!("stdout: {e}")),
        })
}

const USAGE: &str = "usage:
  wdsparql analyze <query>
  wdsparql eval    <data.nt> <query>
  wdsparql check   <data.nt> <query> <bindings>   (e.g. \"x=alice,y=bob\")
  wdsparql count   <data.nt> <query>
  wdsparql select  <data.nt> <select-query>       (e.g. \"SELECT ?x WHERE { ... }\")
  wdsparql contain <query1> <query2>
  wdsparql forest  <query>
  wdsparql store   [--shards N] [--max-triples N]
                   [--join-strategy pairwise|wco|auto]
                   [--limit K] [--deadline-ms T]
                   [--profile] [--metrics-json PATH]
                   [--dir PATH] [--open] <data.nt> [query]
  wdsparql demo";

fn run(args: &[String]) -> Result<(), String> {
    match dispatch(args) {
        // Whoever read stdout has what it wanted (`| head`): not an error.
        Ok(()) | Err(Failure::StdoutClosed) => Ok(()),
        Err(Failure::Message(msg)) => Err(msg),
    }
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "analyze" => {
            let query = parse_query(args.get(1))?;
            // Width analysis needs no data; use an empty engine.
            let engine = Engine::new(wdsparql_rdf::RdfGraph::new());
            println!("query: {query}");
            println!("{}", engine.analyze(&query));
            Ok(())
        }
        "forest" => {
            let query = parse_query(args.get(1))?;
            print!("{}", query.forest());
            Ok(())
        }
        "eval" => {
            let graph = load_graph(args.get(1))?;
            let text = args.get(2).ok_or("missing query argument")?;
            let engine = Engine::new(graph);
            // Curly-syntax queries may carry top-level FILTER clauses.
            let sols = if text.trim_start().starts_with('{') {
                let (query, filter) = Query::parse_with_filter(text).map_err(|e| e.to_string())?;
                engine.evaluate_filtered(&query, &filter)
            } else {
                engine.evaluate(&parse_query(args.get(2))?)
            };
            print_lines(|out| {
                writeln!(out, "{} solution(s):", sols.len())?;
                sols.iter().try_for_each(|mu| writeln!(out, "  {mu}"))
            })
        }
        "check" => {
            let graph = load_graph(args.get(1))?;
            let query = parse_query(args.get(2))?;
            let mu = parse_bindings(args.get(3))?;
            let engine = Engine::new(graph);
            println!("µ = {mu}");
            let reference = engine.check(&query, &mu, Strategy::Naive);
            println!("naive (Lemma 1, exact homomorphisms): {reference}");
            let dw = query.domination_width();
            let pebble = engine.check(&query, &mu, Strategy::Pebble { k: dw });
            println!("pebble (Theorem 1, k = dw = {dw}):      {pebble}");
            if reference != pebble {
                return Err("internal disagreement between strategies (bug)".into());
            }
            Ok(())
        }
        "count" => {
            let graph = load_graph(args.get(1))?;
            let query = parse_query(args.get(2))?;
            let (sols, stats) = enumerate_with_stats(query.forest(), &graph);
            print_lines(|out| {
                writeln!(out, "{} solution(s)", sols.len())?;
                for (domain, count) in count_by_domain(query.forest(), &graph) {
                    let names: Vec<String> = domain.iter().map(|v| v.to_string()).collect();
                    writeln!(out, "  {{{}}}: {count}", names.join(", "))?;
                }
                writeln!(
                    out,
                    "(work: {} hom calls, {} steps, max delay {} steps)",
                    stats.hom_calls, stats.steps, stats.max_delay_steps
                )
            })
        }
        "select" => {
            let graph = load_graph(args.get(1))?;
            let text = args.get(2).ok_or("missing SELECT query argument")?;
            let query = ProjectedQuery::parse(text).map_err(|e| e.to_string())?;
            let sols = enumerate_projected(&query, &graph);
            print_lines(|out| {
                writeln!(out, "query: {query}")?;
                writeln!(out, "{} projected solution(s):", sols.len())?;
                sols.iter().try_for_each(|mu| writeln!(out, "  {mu}"))
            })
        }
        "contain" => {
            let q1 = parse_query(args.get(1))?;
            let q2 = parse_query(args.get(2))?;
            let budget = SearchBudget::default();
            for (label, a, b) in [("P1 ⊆ P2", &q1, &q2), ("P2 ⊆ P1", &q2, &q1)] {
                match decide_containment(a.forest(), b.forest(), &budget) {
                    Verdict::Contained => println!("{label}: contained (proved)"),
                    Verdict::NotContained(ce) => {
                        println!("{label}: NOT contained; witness µ = {} on:", ce.mu);
                        for t in ce.graph.iter() {
                            println!("    {t}");
                        }
                    }
                    Verdict::Unknown => println!("{label}: unknown (within budget)"),
                }
            }
            Ok(())
        }
        "store" => run_store(&args[1..]),
        "demo" => {
            demo();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

/// The `store` subcommand: bulk-load an N-Triples file into the triple
/// store — one [`wdsparql_store::TripleStore`] by default, a
/// hash-by-subject [`wdsparql_store::ShardedStore`] under `--shards N` —
/// report the ingest lifecycle, and run an optional query through the
/// store-backed engine and the service's planned BGP path.
/// `--max-triples N` caps ingest (per shard when sharded); the capacity
/// guard surfaces as a clean error instead of a panic. `--join-strategy`
/// picks how the service joins BGPs: `pairwise`, `wco` (the
/// worst-case-optimal leapfrog join) or `auto` (the default: cyclic
/// cores take the WCOJ). `--profile` runs the BGP through the profiled
/// query path and prints the execution span tree (EXPLAIN ANALYZE
/// style); `--metrics-json PATH` dumps the process-wide metrics
/// registry as JSON after the run. `--limit K` and `--deadline-ms T`
/// take the streaming service path instead: the evaluation stops after
/// the first K solutions (LIMIT pushdown — later solutions are never
/// computed), and a missed deadline surfaces as a clean
/// `query deadline exceeded` error rather than running to completion.
/// `--dir PATH` makes the store durable: every ingest batch commits to
/// disk (crash-safe tmp→fsync→rename protocol) before it is
/// acknowledged. `--open` reopens a store previously persisted with
/// `--dir` — no data file is read; the single positional argument is
/// the optional query. Corruption on reopen is a clean error.
fn run_store(args: &[String]) -> Result<(), Failure> {
    let mut shards = 1usize;
    let mut max_triples: Option<usize> = None;
    let mut strategy = JoinStrategy::default();
    let mut profile = false;
    let mut limit: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut metrics_json: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut open = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag = |name: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--shards" => shards = flag("--shards")?,
            "--max-triples" => max_triples = Some(flag("--max-triples")?),
            "--join-strategy" => {
                let value = it.next().ok_or("--join-strategy needs a value")?;
                strategy = JoinStrategy::parse(value).ok_or_else(|| {
                    format!("--join-strategy: {value:?} is not pairwise, wco or auto")
                })?;
            }
            "--profile" => profile = true,
            "--limit" => limit = Some(flag("--limit")?),
            "--deadline-ms" => deadline_ms = Some(flag("--deadline-ms")? as u64),
            "--metrics-json" => {
                metrics_json = Some(it.next().ok_or("--metrics-json needs a path")?.to_string());
            }
            "--dir" => dir = Some(it.next().ok_or("--dir needs a path")?.to_string()),
            "--open" => open = true,
            _ => positional.push(arg),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if open && dir.is_none() {
        return Err("--open needs --dir PATH to know which store to reopen".into());
    }
    store_command(
        shards,
        max_triples,
        strategy,
        profile,
        limit,
        deadline_ms,
        dir.as_deref(),
        open,
        &positional,
    )?;
    if let Some(path) = metrics_json {
        std::fs::write(&path, wdsparql_store::metrics_json())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("(metrics registry written to {path})");
    }
    Ok(())
}

type Rows = Arc<Vec<Mapping>>;
type Budgeted<T> = Result<T, ExecError>;

/// [`store_command`]'s view of the service it drives. [`TripleStore`] and
/// [`ShardedStore`] answer these steps with identically named methods
/// but share no trait, so each layout binds them once, by closure; only
/// `compact_and_report`, `engine` and `provenance` legitimately differ.
#[allow(clippy::type_complexity)] // plain signatures of the methods bound
struct Service<'a> {
    try_bulk_load: &'a dyn Fn(Vec<Triple>) -> Result<usize, StoreError>,
    /// Folds whatever the adaptive policy left pending, then prints the
    /// stats, the durable epoch(s) and the ingest lifecycle.
    compact_and_report: &'a dyn Fn(),
    engine: &'a dyn Fn() -> Engine,
    /// `epoch N` for the single store, the `(shard, epoch)` read vector
    /// for the sharded facade.
    provenance: &'a dyn Fn(&[(usize, u64)]) -> String,
    query: &'a dyn Fn(&[TriplePattern]) -> Rows,
    query_with_plan: &'a dyn Fn(&[TriplePattern]) -> PlannedQuery,
    query_with_profile: &'a dyn Fn(&[TriplePattern]) -> PlannedQuery,
    query_budgeted: &'a dyn Fn(&[TriplePattern], &QueryBudget) -> Budgeted<Rows>,
    query_limited: &'a dyn Fn(&[TriplePattern], usize, &QueryBudget) -> Budgeted<Vec<Mapping>>,
    cache_stats: &'a dyn Fn() -> CacheStats,
}

#[allow(clippy::too_many_arguments)]
fn store_command(
    shards: usize,
    max_triples: Option<usize>,
    strategy: JoinStrategy,
    profile: bool,
    limit: Option<usize>,
    deadline_ms: Option<u64>,
    dir: Option<&str>,
    open: bool,
    positional: &[&String],
) -> Result<(), Failure> {
    // `--open` reads no data file: the store's contents come from disk
    // and the only positional is the optional query.
    let (graph, query_text) = if open {
        (wdsparql_rdf::RdfGraph::new(), positional.first().copied())
    } else {
        (
            load_graph(positional.first().copied())?,
            positional.get(1).copied(),
        )
    };
    let streaming = limit.is_some() || deadline_ms.is_some();
    if streaming && query_text.is_none() {
        return Err("--limit/--deadline-ms need a query to run".into());
    }
    // The one ingest → stats → compact → report → query sequence, over
    // whichever service the layout below binds.
    let run = |store: &Service<'_>| -> Result<(), Failure> {
        // Load in batches, as an ingest pipeline would: each batch
        // appends sorted delta segments (scattered across the shards
        // when sharded); the explicit compact folds whatever the
        // adaptive policy left pending. Capacity exhaustion is a clean
        // error, not a panic.
        let mut stream = graph.iter().copied();
        let mut batches = std::iter::from_fn(|| {
            let batch: Vec<_> = stream.by_ref().take(4096).collect();
            (!batch.is_empty()).then_some(batch)
        });
        batches.try_for_each(|batch| {
            (store.try_bulk_load)(batch)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        (store.compact_and_report)();
        let Some(text) = query_text else {
            return Ok(());
        };
        let query = Query::parse(text).map_err(|e| e.to_string())?;
        if streaming {
            let pats = bgp_patterns(query.pattern())
                .ok_or("--limit/--deadline-ms need an AND-only (BGP) query")?;
            let budget = budget_from(deadline_ms);
            match limit {
                Some(k) => {
                    let rows =
                        (store.query_limited)(&pats, k, &budget).map_err(|e| e.to_string())?;
                    print_streamed(&rows, Some(k))?;
                }
                None => {
                    let rows = (store.query_budgeted)(&pats, &budget).map_err(|e| e.to_string())?;
                    print_streamed(&rows, None)?;
                }
            }
            return Ok(());
        }
        let engine = (store.engine)().with_join_strategy(strategy);
        print_solutions(&query, &engine.evaluate(&query))?;
        // AND-only queries additionally go through the service's planned,
        // cached BGP path — plan and solutions from one snapshot; a second
        // run shows the cache.
        if let Some(pats) = bgp_patterns(query.pattern()) {
            let planned = if profile {
                (store.query_with_profile)(&pats)
            } else {
                (store.query_with_plan)(&pats)
            };
            let again = (store.query)(&pats);
            assert_eq!(planned.solutions.len(), again.len());
            report_bgp_service(
                &pats,
                &planned.plan,
                planned.strategy,
                planned.solutions.len(),
                &(store.provenance)(&planned.read),
                (store.cache_stats)(),
            );
            print_profile(planned.profile.as_ref());
        }
        Ok(())
    };
    // On reopen the layout on disk decides single vs sharded: a
    // `shard-0/` subdirectory marks a sharded store regardless of what
    // `--shards` says today. A directory with neither that nor a
    // manifest holds no store: reopening it is an error, where the
    // services' open-or-create `open` would format an empty one there.
    let sharded = match dir {
        Some(d) if open => {
            let path = std::path::Path::new(d);
            let sharded = path.join("shard-0").is_dir();
            if !sharded && !path.join(wdsparql_store::persist::MANIFEST).exists() {
                return Err(format!("--open: no store at {d} (no manifest, no shard-0/)").into());
            }
            sharded
        }
        _ => shards > 1,
    };
    if sharded {
        let store = Arc::new(match dir {
            Some(d) if open => ShardedStore::open(d).map_err(|e| e.to_string())?,
            _ => {
                let store = ShardedStore::new(shards);
                if let Some(d) = dir {
                    store.persist_to(d).map_err(|e| e.to_string())?;
                }
                store
            }
        });
        store.set_capacity_limit(max_triples);
        store.set_join_strategy(strategy);
        run(&Service {
            try_bulk_load: &|batch| store.try_bulk_load(batch),
            compact_and_report: &|| {
                let staged = store.stats();
                store.compact();
                let stats = store.stats();
                print!("{stats}");
                if let Some(d) = dir {
                    println!("(durable store at {d}: shard epochs {:?})", store.epochs());
                }
                report_ingest_lifecycle(
                    staged.shards.iter().map(|s| s.delta_rows).sum(),
                    staged.shards.iter().map(|s| s.segments).sum(),
                    stats.shards.iter().map(|s| s.compactions).sum(),
                );
            },
            engine: &|| Engine::from_sharded_store(Arc::clone(&store)),
            provenance: &|read| format!("epochs {read:?}"),
            query: &|pats| store.query(pats),
            query_with_plan: &|pats| store.query_with_plan(pats),
            query_with_profile: &|pats| store.query_with_profile(pats),
            query_budgeted: &|pats, budget| store.query_budgeted(pats, budget),
            query_limited: &|pats, k, budget| store.query_limited(pats, k, budget),
            cache_stats: &|| store.cache_stats(),
        })
    } else {
        let store = Arc::new(match dir {
            Some(d) if open => TripleStore::open(d).map_err(|e| e.to_string())?,
            _ => {
                let store = TripleStore::new();
                if let Some(d) = dir {
                    store.persist_to(d).map_err(|e| e.to_string())?;
                }
                store
            }
        });
        store.set_capacity_limit(max_triples);
        store.set_join_strategy(strategy);
        run(&Service {
            try_bulk_load: &|batch| store.try_bulk_load(batch),
            compact_and_report: &|| {
                let staged = store.stats();
                store.compact();
                let stats = store.stats();
                println!("{stats}");
                if let Some(d) = dir {
                    println!("(durable store at {d}: epoch {})", store.epoch());
                }
                report_ingest_lifecycle(staged.delta_rows, staged.segments, stats.compactions);
            },
            engine: &|| Engine::from_store(Arc::clone(&store)),
            provenance: &|read| format!("epoch {}", read[0].1),
            query: &|pats| store.query(pats),
            query_with_plan: &|pats| store.query_with_plan(pats),
            query_with_profile: &|pats| store.query_with_profile(pats),
            query_budgeted: &|pats, budget| store.query_budgeted(pats, budget),
            query_limited: &|pats, k, budget| store.query_limited(pats, k, budget),
            cache_stats: &|| store.cache_stats(),
        })
    }
}

/// The query budget implied by `--deadline-ms` (unlimited without it).
fn budget_from(deadline_ms: Option<u64>) -> wdsparql_rdf::QueryBudget {
    match deadline_ms {
        Some(ms) => wdsparql_rdf::QueryBudget::with_deadline(std::time::Duration::from_millis(ms)),
        None => wdsparql_rdf::QueryBudget::unlimited(),
    }
}

/// Prints the solutions of the streaming (`--limit`/`--deadline-ms`)
/// service path: every row under a limit (the user asked for exactly
/// these), the first 10 otherwise.
fn print_streamed(rows: &[Mapping], limit: Option<usize>) -> Result<(), Failure> {
    print_lines(|out| match limit {
        Some(k) => {
            writeln!(out, "streamed {} solution(s) under limit {k}:", rows.len())?;
            rows.iter().try_for_each(|mu| writeln!(out, "  -> {mu}"))
        }
        None => {
            writeln!(out, "streamed {} solution(s) within deadline:", rows.len())?;
            for mu in rows.iter().take(10) {
                writeln!(out, "  -> {mu}")?;
            }
            if rows.len() > 10 {
                writeln!(out, "  ... ({} more)", rows.len() - 10)?;
            }
            Ok(())
        }
    })
}

/// Prints the execution profile requested by `--profile`, if any.
fn print_profile(profile: Option<&wdsparql_obs::QueryProfile>) {
    if let Some(p) = profile {
        println!("execution profile:");
        print!("{p}");
    }
}

fn report_ingest_lifecycle(staged_deltas: usize, staged_segments: usize, compactions: u64) {
    println!(
        "(ingest staged {staged_deltas} delta row(s) in {staged_segments} segment(s); \
         {compactions} compaction(s) total)"
    );
}

/// The shared tail of both `store` flavours: the executed plan and the
/// cached-service summary, with the epoch provenance rendered by the
/// caller (`epoch N` for the single store, the `(shard, epoch)` read
/// vector for the sharded facade).
fn report_bgp_service(
    pats: &[wdsparql_rdf::TriplePattern],
    plan: &[usize],
    strategy: wdsparql_store::JoinStrategy,
    solutions: usize,
    provenance: &str,
    cs: wdsparql_store::CacheStats,
) {
    let plan: Vec<String> = plan.iter().map(|&i| pats[i].to_string()).collect();
    println!("service plan (most selective first): {}", plan.join(" ⋈ "));
    println!("service join strategy: {strategy}");
    println!(
        "service BGP path: {solutions} solution(s) at {provenance}; cache {} hit(s) / {} miss(es)",
        cs.hits, cs.misses
    );
}

fn print_solutions(
    query: &Query,
    sols: &std::collections::BTreeSet<Mapping>,
) -> Result<(), Failure> {
    print_lines(|out| {
        writeln!(out, "\nquery: {query}")?;
        writeln!(
            out,
            "{} solution(s) via the store-backed engine:",
            sols.len()
        )?;
        for mu in sols.iter().take(10) {
            writeln!(out, "  {mu}")?;
        }
        if sols.len() > 10 {
            writeln!(out, "  ... ({} more)", sols.len() - 10)?;
        }
        Ok(())
    })
}

/// The triple patterns of an AND-only (BGP) pattern, `None` when the
/// query uses OPT or UNION.
fn bgp_patterns(p: &wdsparql_core::GraphPattern) -> Option<Vec<wdsparql_rdf::TriplePattern>> {
    use wdsparql_core::GraphPattern;
    match p {
        GraphPattern::Triple(t) => Some(vec![*t]),
        GraphPattern::And(l, r) => {
            let mut out = bgp_patterns(l)?;
            out.extend(bgp_patterns(r)?);
            Some(out)
        }
        GraphPattern::Opt(..) | GraphPattern::Union(..) => None,
    }
}

fn parse_query(arg: Option<&String>) -> Result<Query, String> {
    let text = arg.ok_or("missing query argument")?;
    Query::parse(text).map_err(|e| e.to_string())
}

fn load_graph(arg: Option<&String>) -> Result<wdsparql_rdf::RdfGraph, String> {
    let path = arg.ok_or("missing data file argument")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // A data error names its line, whichever layer finds it.
    let text = std::str::from_utf8(&bytes).map_err(|e| {
        let newlines = bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n');
        format!("{path}: line {}: invalid UTF-8", newlines.count() + 1)
    })?;
    parse_ntriples(text).map_err(|e| format!("{path}: {e}"))
}

fn parse_bindings(arg: Option<&String>) -> Result<Mapping, String> {
    let text = arg.ok_or("missing bindings argument")?;
    let mut mu = Mapping::new();
    for part in text.split(',').filter(|s| !s.trim().is_empty()) {
        let (var, val) = part
            .split_once('=')
            .ok_or_else(|| format!("bad binding {part:?} (expected var=iri)"))?;
        let name = var.trim();
        if name.strip_prefix('?').unwrap_or(name).is_empty() {
            return Err(format!("bad binding {part:?} (empty variable name)"));
        }
        let (var, val) = (
            wdsparql_rdf::Variable::new(name),
            wdsparql_rdf::Iri::new(val.trim()),
        );
        match mu.get(var) {
            Some(bound) if bound != val => {
                return Err(format!(
                    "bad bindings: {var} is bound to both {bound} and {val}"
                ));
            }
            _ => mu.bind(var, val),
        }
    }
    Ok(mu)
}

fn demo() {
    let graph = wdsparql_workloads::social_network(30, 1);
    let engine = Engine::new(graph);
    let query = Query::parse("((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)")
        .expect("demo query is well-designed");
    println!("demo query: {query}\n");
    println!("{}\n", engine.analyze(&query));
    let sols = engine.evaluate(&query);
    println!("{} solutions; first 5:", sols.len());
    for mu in sols.iter().take(5) {
        println!("  {mu}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn bindings_parse() {
        let mu = parse_bindings(Some(&"x=alice, y=bob".to_string())).unwrap();
        assert_eq!(mu.len(), 2);
        assert_eq!(
            mu.get(wdsparql_rdf::Variable::new("y")),
            Some(wdsparql_rdf::Iri::new("bob"))
        );
        assert!(parse_bindings(Some(&"xalice".to_string())).is_err());
        assert!(parse_bindings(None).is_err());
        // An empty name and a conflicting rebinding are errors, not a
        // panic or a silent last-one-wins; the same IRI twice is fine.
        assert!(parse_bindings(Some(&"=a".to_string())).is_err());
        assert!(parse_bindings(Some(&"?=a".to_string())).is_err());
        assert!(parse_bindings(Some(&"x=a,x=b,y=b".to_string())).is_err());
        let mu = parse_bindings(Some(&"x=a, ?x=a".to_string())).unwrap();
        assert_eq!(mu.len(), 1);
    }

    #[test]
    fn analyze_and_forest_subcommands() {
        assert!(run(&s(&["analyze", "(?x, p, ?y) OPT (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&["forest", "(?x, p, ?y) OPT (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&["analyze", "(?x, p"])).is_err());
    }

    #[test]
    fn eval_and_check_subcommands() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb q c .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        assert!(run(&s(&["eval", &p, "(?x, p, ?y) OPT (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&[
            "check",
            &p,
            "(?x, p, ?y) OPT (?y, q, ?z)",
            "x=a,y=b,z=c"
        ]))
        .is_ok());
        assert!(run(&s(&["eval", "/nonexistent.nt", "(?x, p, ?y)"])).is_err());
        // Curly syntax with a FILTER clause.
        assert!(run(&s(&[
            "eval",
            &p,
            "{ ?x p ?y OPTIONAL { ?y q ?z } FILTER(BOUND(?z)) }",
        ]))
        .is_ok());
    }

    #[test]
    fn count_select_and_contain_subcommands() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb q c .\nd p e .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        assert!(run(&s(&["count", &p, "(?x, p, ?y) OPT (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&[
            "select",
            &p,
            "SELECT ?x WHERE { ?x p ?y OPTIONAL { ?y q ?z } }",
        ]))
        .is_ok());
        assert!(run(&s(&["select", &p, "SELECT ?nope WHERE { ?x p ?y }"])).is_err());
        assert!(run(&s(&[
            "contain",
            "(?x, p, ?y)",
            "(?x, p, ?y) OPT (?y, q, ?z)"
        ]))
        .is_ok());
        assert!(run(&s(&["contain", "(?x, p, ?y)"])).is_err());
    }

    #[test]
    fn store_subcommand_loads_and_queries() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb q c .\nd p e .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        assert!(run(&s(&["store", &p])).is_ok());
        assert!(run(&s(&["store", &p, "(?x, p, ?y) OPT (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&["store", &p, "(?x, p, ?y) AND (?y, q, ?z)"])).is_ok());
        assert!(run(&s(&["store", "/nonexistent.nt"])).is_err());
        assert!(run(&s(&["store", &p, "(?x, p"])).is_err());
    }

    #[test]
    fn store_subcommand_shards_and_caps() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb q c .\nd p e .\ne q a .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        // Sharded ingest + engine query + service BGP path.
        assert!(run(&s(&["store", "--shards", "2", &p])).is_ok());
        assert!(run(&s(&[
            "store",
            "--shards",
            "3",
            &p,
            "(?x, p, ?y) AND (?y, q, ?z)"
        ]))
        .is_ok());
        assert!(run(&s(&[
            "store",
            "--shards",
            "2",
            &p,
            "(?x, p, ?y) OPT (?y, q, ?z)"
        ]))
        .is_ok());
        // Flag validation.
        assert!(run(&s(&["store", "--shards", "0", &p])).is_err());
        assert!(run(&s(&["store", "--shards", "two", &p])).is_err());
        assert!(run(&s(&["store", &p, "--shards"])).is_err());
        // The capacity guard is a clean error (was: a panic), sharded or
        // not.
        let err = run(&s(&["store", "--max-triples", "1", &p])).unwrap_err();
        assert!(err.contains("capacity"), "unexpected error: {err}");
        let err = run(&s(&["store", "--shards", "2", "--max-triples", "1", &p])).unwrap_err();
        assert!(err.contains("capacity"), "unexpected error: {err}");
        // A generous cap passes.
        assert!(run(&s(&["store", "--max-triples", "100", &p])).is_ok());
    }

    #[test]
    fn store_subcommand_join_strategies() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb p c .\na p c .\nc p a .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        let triangle = "((?x, p, ?y) AND (?y, p, ?z)) AND (?x, p, ?z)";
        for strategy in ["pairwise", "wco", "auto"] {
            assert!(run(&s(&["store", "--join-strategy", strategy, &p, triangle])).is_ok());
            assert!(run(&s(&[
                "store",
                "--shards",
                "2",
                "--join-strategy",
                strategy,
                &p,
                triangle
            ]))
            .is_ok());
        }
        // Flag validation.
        let err = run(&s(&["store", "--join-strategy", "bogus", &p])).unwrap_err();
        assert!(err.contains("join-strategy"), "unexpected error: {err}");
        assert!(run(&s(&["store", &p, "--join-strategy"])).is_err());
    }

    #[test]
    fn store_subcommand_profile_and_metrics() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb p c .\na p c .\nc p a .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        let triangle = "((?x, p, ?y) AND (?y, p, ?z)) AND (?x, p, ?z)";
        // --profile runs the profiled BGP path, single and sharded.
        assert!(run(&s(&["store", "--profile", &p, triangle])).is_ok());
        assert!(run(&s(&["store", "--shards", "2", "--profile", &p, triangle])).is_ok());
        // --metrics-json writes a registry snapshot.
        let out = dir.join("metrics.json");
        let out_s = out.to_string_lossy().to_string();
        assert!(run(&s(&["store", "--metrics-json", &out_s, &p, triangle])).is_ok());
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"schema\": 3"), "{json}");
        assert!(json.contains("\"store.queries_total\""), "{json}");
        assert!(json.contains("\"query.total_ns\""), "{json}");
        // Flag validation.
        assert!(run(&s(&["store", &p, "--metrics-json"])).is_err());
        assert!(run(&s(&[
            "store",
            "--metrics-json",
            "/nonexistent-dir/x.json",
            &p
        ]))
        .is_err());
    }

    #[test]
    fn store_subcommand_limit_and_deadline() {
        let dir = std::env::temp_dir().join("wdsparql-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.nt");
        std::fs::write(&path, "a p b .\nb p c .\na p c .\nc p a .\n").unwrap();
        let p = path.to_string_lossy().to_string();
        let triangle = "((?x, p, ?y) AND (?y, p, ?z)) AND (?x, p, ?z)";
        // The streamed paths run green under a generous budget, single
        // and sharded.
        assert!(run(&s(&["store", "--limit", "1", &p, triangle])).is_ok());
        assert!(run(&s(&["store", "--deadline-ms", "10000", &p, triangle])).is_ok());
        assert!(run(&s(&[
            "store",
            "--shards",
            "2",
            "--limit",
            "1",
            "--deadline-ms",
            "10000",
            &p,
            triangle
        ]))
        .is_ok());
        // A zero deadline is a clean, typed failure — single and sharded.
        let err = run(&s(&["store", "--deadline-ms", "0", &p, triangle])).unwrap_err();
        assert!(err.contains("deadline exceeded"), "unexpected error: {err}");
        let err = run(&s(&[
            "store",
            "--shards",
            "2",
            "--deadline-ms",
            "0",
            &p,
            triangle,
        ]))
        .unwrap_err();
        assert!(err.contains("deadline exceeded"), "unexpected error: {err}");
        // The streamed path needs a BGP query, and a query at all.
        assert!(run(&s(&[
            "store",
            "--limit",
            "1",
            &p,
            "(?x, p, ?y) OPT (?y, p, ?z)"
        ]))
        .is_err());
        assert!(run(&s(&["store", "--limit", "1", &p])).is_err());
        // Flag validation.
        assert!(run(&s(&["store", &p, "--limit"])).is_err());
        assert!(run(&s(&["store", &p, "--deadline-ms"])).is_err());
    }

    #[test]
    fn bgp_patterns_accept_and_only_queries() {
        let and = Query::parse("(?x, p, ?y) AND (?y, q, ?z)").unwrap();
        assert_eq!(bgp_patterns(and.pattern()).unwrap().len(), 2);
        let opt = Query::parse("(?x, p, ?y) OPT (?y, q, ?z)").unwrap();
        assert!(bgp_patterns(opt.pattern()).is_none());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
    }
}
