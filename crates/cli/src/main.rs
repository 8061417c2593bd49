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
//!                                           `--dir PATH` commits the file
//!                                           to PATH as one durable batch
//!                                           (a refused file commits none),
//!                                           `--open` reopens such a store
//!                                           (then only `[query]` follows)
//! wdsparql demo                             run a tiny built-in scenario
//! ```
//!
//! Every data subcommand loads its file into one [`TripleStore`], as one
//! batch, and evaluates through [`Engine::from_store`]. All output goes
//! through one stdout writer; a reader that closes it (`| head`) ends the
//! command quietly.
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
use wdsparql_core::{
    count_solutions_by_domain, enumerate_with_stats, Engine, Query, Route, Strategy,
};
use wdsparql_project::{enumerate_projected, ProjectedQuery};
use wdsparql_rdf::{parse_statements, ExecError, Mapping, QueryBudget, Triple, TriplePattern};
use wdsparql_store::{JoinStrategy, PlannedQuery, ShardedStore, StoreError, TripleStore};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut BufWriter::new(io::stdout().lock())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let _ = writeln!(io::stderr(), "error: {msg}\n\n{USAGE}"); // exit 1 if stderr is gone
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped early.
enum Failure {
    /// Reported on stderr with the usage text, exit status 1.
    Message(String),
    /// The reader of stdout closed it while output was being written.
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

/// A failed write to stdout: a closed pipe ends the command quietly, not
/// with a panic.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::StdoutClosed,
            _ => Failure::Message(format!("stdout: {e}")),
        }
    }
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
  wdsparql demo
(a <data.nt> loads into the triple store as one batch, one commit under --dir)";

/// Runs the command, every line of its output written to `out` (stdout,
/// buffered once) and flushed at the end, after a failure too.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    match dispatch(args, out).and(out.flush().map_err(Failure::from)) {
        // Whoever read stdout has what it wanted (`| head`): not an error.
        Ok(()) | Err(Failure::StdoutClosed) => Ok(()),
        Err(Failure::Message(msg)) => Err(msg),
    }
}

fn dispatch(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "analyze" => {
            let query = parse_query(args.get(1))?;
            writeln!(out, "query: {query}")?;
            writeln!(out, "{}", query.width_report())?;
        }
        "forest" => {
            let query = parse_query(args.get(1))?;
            write!(out, "{}", query.forest())?;
        }
        // The query commands parse their query before they read the
        // data: a malformed query fails without loading the file.
        "eval" => {
            let text = args.get(2).ok_or("missing query argument")?;
            // Curly-syntax queries may carry top-level FILTER clauses.
            let (query, filter) = if text.trim_start().starts_with('{') {
                let (query, filter) = Query::parse_with_filter(text).map_err(|e| e.to_string())?;
                (query, Some(filter))
            } else {
                (parse_query(args.get(2))?, None)
            };
            let engine = store_engine(read_statements(args.get(1))?)?;
            let sols = match &filter {
                Some(filter) => engine.evaluate_filtered(&query, filter),
                None => engine.evaluate(&query),
            };
            writeln!(out, "{} solution(s):", sols.len())?;
            sols.iter().try_for_each(|mu| writeln!(out, "  {mu}"))?;
        }
        "check" => {
            let query = parse_query(args.get(2))?;
            let mu = parse_bindings(args.get(3))?;
            let engine = store_engine(read_statements(args.get(1))?)?;
            writeln!(out, "µ = {mu}")?;
            let reference = engine.check(&query, &mu, Strategy::Naive);
            writeln!(out, "naive (Lemma 1, exact homomorphisms): {reference}")?;
            let dw = query.domination_width();
            let pebble = engine.check(&query, &mu, Strategy::Pebble { k: dw });
            writeln!(out, "pebble (Theorem 1, k = dw = {dw}):      {pebble}")?;
            let (auto, route) = engine.check_auto(&query, &mu);
            let via = match route {
                Route::Exact => "exact".to_string(),
                Route::Pebble { k } => format!("pebble k = {k}"),
            };
            writeln!(
                out,
                "auto (exact under a step budget, else pebble at dw): {auto} via {via}"
            )?;
            if reference != pebble || reference != auto {
                return Err("internal disagreement between strategies (bug)".into());
            }
        }
        "count" => {
            let query = parse_query(args.get(2))?;
            let engine = store_engine(read_statements(args.get(1))?)?;
            let (sols, stats) = engine.with_index(|g| enumerate_with_stats(query.forest(), g));
            writeln!(out, "{} solution(s)", sols.len())?;
            for (domain, count) in count_solutions_by_domain(&sols) {
                let names: Vec<String> = domain.iter().map(|v| v.to_string()).collect();
                writeln!(out, "  {{{}}}: {count}", names.join(", "))?;
            }
            writeln!(
                out,
                "(work: {} hom calls, {} steps, max delay {} steps)",
                stats.hom_calls, stats.steps, stats.max_delay_steps
            )?;
        }
        "select" => {
            let text = args.get(2).ok_or("missing SELECT query argument")?;
            let query = ProjectedQuery::parse(text).map_err(|e| e.to_string())?;
            let engine = store_engine(read_statements(args.get(1))?)?;
            let sols = engine.with_index(|g| enumerate_projected(&query, g));
            writeln!(out, "query: {query}")?;
            writeln!(out, "{} projected solution(s):", sols.len())?;
            sols.iter().try_for_each(|mu| writeln!(out, "  {mu}"))?;
        }
        "contain" => {
            let q1 = parse_query(args.get(1))?;
            let q2 = parse_query(args.get(2))?;
            let budget = SearchBudget::default();
            for (label, a, b) in [("P1 ⊆ P2", &q1, &q2), ("P2 ⊆ P1", &q2, &q1)] {
                match decide_containment(a.forest(), b.forest(), &budget) {
                    Verdict::Contained => writeln!(out, "{label}: contained (proved)")?,
                    Verdict::NotContained(ce) => {
                        writeln!(out, "{label}: NOT contained; witness µ = {} on:", ce.mu)?;
                        for t in ce.graph.iter() {
                            writeln!(out, "    {t}")?;
                        }
                    }
                    Verdict::Unknown => writeln!(out, "{label}: unknown (within budget)")?,
                }
            }
        }
        "store" => run_store(&args[1..], out)?,
        "demo" => demo(out)?,
        other => return Err(format!("unknown subcommand {other:?}").into()),
    }
    Ok(())
}

/// The `store` subcommand: bulk-load an N-Triples file into the triple
/// store — one [`wdsparql_store::TripleStore`] by default, a
/// hash-by-subject [`wdsparql_store::ShardedStore`] under `--shards N` —
/// report the ingest lifecycle, and run an optional query once: an
/// AND-only query through the service's planned BGP path (which also
/// reports its plan), any other through the store-backed engine.
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
/// The data file is loaded as one batch. `--dir PATH` makes the store
/// durable: that batch commits to disk (crash-safe tmp→fsync→rename
/// protocol) before it is acknowledged, and a file over the capacity
/// commits nothing (on a sharded store, one shard over its cap and no
/// shard commits its part). `--open` reopens a store previously persisted with
/// `--dir` — no data file is read; the single positional argument is
/// the optional query. Corruption on reopen is a clean error.
fn run_store(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
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
        out,
    )?;
    if let Some(path) = metrics_json {
        std::fs::write(&path, wdsparql_store::metrics_json())
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "(metrics registry written to {path})")?;
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
    /// Folds what the adaptive policy left pending, prints the stats and the
    /// durable epoch(s); returns (delta rows, segments) staged, compactions.
    compact_and_report: &'a dyn Fn(&mut dyn Write) -> io::Result<(usize, usize, u64)>,
    engine: &'a dyn Fn() -> Engine,
    /// `epoch N` for the single store, the `(shard, epoch)` read vector
    /// for the sharded facade.
    provenance: &'a dyn Fn(&[(usize, u64)]) -> String,
    query_with_plan: &'a dyn Fn(&[TriplePattern]) -> PlannedQuery,
    query_with_profile: &'a dyn Fn(&[TriplePattern]) -> PlannedQuery,
    query_budgeted: &'a dyn Fn(&[TriplePattern], &QueryBudget) -> Budgeted<Rows>,
    query_limited: &'a dyn Fn(&[TriplePattern], usize, &QueryBudget) -> Budgeted<Vec<Mapping>>,
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
    out: &mut dyn Write,
) -> Result<(), Failure> {
    // `--open` reads no data file: the store's contents come from disk
    // and the only positional is the optional query.
    let (data, query_text) = if open {
        (None, positional.first())
    } else {
        let data = positional.first().ok_or("missing data file argument")?;
        (Some(*data), positional.get(1))
    };
    // The query is parsed, and checked against the streaming path, before
    // any data is read or any store directory is made.
    let query = query_text.map(|text| Query::parse(text)).transpose();
    let query = query.map_err(|e| e.to_string())?;
    let streamed = match (&query, limit.is_some() || deadline_ms.is_some()) {
        (_, false) => None,
        (None, true) => return Err("--limit/--deadline-ms need a query to run".into()),
        (Some(q), true) => Some(
            bgp_patterns(q.pattern())
                .ok_or("--limit/--deadline-ms need an AND-only (BGP) query")?,
        ),
    };
    let statements = match data {
        Some(path) => read_statements(Some(path))?,
        None => Vec::new(),
    };
    // The one ingest → stats → compact → report → query sequence, over
    // whichever service the layout below binds.
    let run = |store: &Service<'_>| -> Result<(), Failure> {
        // The whole file is one batch: the store drops repeats, sorts and
        // commits the rest once (once per shard when sharded), and the
        // compact folds them into the base. A store over its cap takes
        // none of the batch: a clean error.
        (store.try_bulk_load)(statements).map_err(|e| e.to_string())?;
        let (deltas, segments, compactions) = (store.compact_and_report)(out)?;
        writeln!(
            out,
            "(ingest staged {deltas} delta row(s) in {segments} segment(s); \
             {compactions} compaction(s) total)"
        )?;
        if let Some(pats) = &streamed {
            let budget = budget_from(deadline_ms);
            match limit {
                Some(k) => {
                    let rows =
                        (store.query_limited)(pats, k, &budget).map_err(|e| e.to_string())?;
                    print_streamed(out, &rows, Some(k))?;
                }
                None => {
                    let rows = (store.query_budgeted)(pats, &budget).map_err(|e| e.to_string())?;
                    print_streamed(out, &rows, None)?;
                }
            }
            return Ok(());
        }
        let Some(query) = &query else {
            return Ok(());
        };
        // An AND-only query is evaluated once, by the service's planned
        // BGP path: plan and solutions from one snapshot, printed in
        // ascending order as the engine's solution set is. OPT and UNION
        // need the engine.
        let Some(pats) = bgp_patterns(query.pattern()) else {
            let engine = (store.engine)().with_join_strategy(strategy);
            let sols = engine.evaluate(query);
            return print_solutions(out, query, sols.len(), &sols);
        };
        let planned = if profile {
            (store.query_with_profile)(&pats)
        } else {
            (store.query_with_plan)(&pats)
        };
        let mut sols: Vec<&Mapping> = planned.solutions.iter().collect();
        sols.sort_unstable();
        print_solutions(out, query, sols.len(), sols)?;
        report_bgp_service(
            out,
            &pats,
            &planned.plan,
            planned.strategy,
            planned.solutions.len(),
            &(store.provenance)(&planned.read),
        )?;
        if let Some(p) = &planned.profile {
            write!(out, "execution profile:\n{p}")?;
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
            compact_and_report: &|out| {
                let staged = store.stats();
                store.compact();
                let stats = store.stats();
                write!(out, "{stats}")?;
                if let Some(d) = dir {
                    let epochs = store.epochs();
                    writeln!(out, "(durable store at {d}: shard epochs {epochs:?})")?;
                }
                Ok((
                    staged.shards.iter().map(|s| s.delta_rows).sum(),
                    staged.shards.iter().map(|s| s.segments).sum(),
                    stats.shards.iter().map(|s| s.compactions).sum(),
                ))
            },
            engine: &|| Engine::from_sharded_store(Arc::clone(&store)),
            provenance: &|read| format!("epochs {read:?}"),
            query_with_plan: &|pats| store.query_with_plan(pats),
            query_with_profile: &|pats| store.query_with_profile(pats),
            query_budgeted: &|pats, budget| store.query_budgeted(pats, budget),
            query_limited: &|pats, k, budget| store.query_limited(pats, k, budget),
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
            compact_and_report: &|out| {
                let staged = store.stats();
                store.compact();
                let stats = store.stats();
                writeln!(out, "{stats}")?;
                if let Some(d) = dir {
                    writeln!(out, "(durable store at {d}: epoch {})", store.epoch())?;
                }
                Ok((staged.delta_rows, staged.segments, stats.compactions))
            },
            engine: &|| Engine::from_store(Arc::clone(&store)),
            provenance: &|read| format!("epoch {}", read[0].1),
            query_with_plan: &|pats| store.query_with_plan(pats),
            query_with_profile: &|pats| store.query_with_profile(pats),
            query_budgeted: &|pats, budget| store.query_budgeted(pats, budget),
            query_limited: &|pats, k, budget| store.query_limited(pats, k, budget),
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
fn print_streamed(out: &mut dyn Write, rows: &[Mapping], limit: Option<usize>) -> io::Result<()> {
    match limit {
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
    }
}

/// The shared tail of both `store` flavours: the executed plan and the
/// service summary, with the epoch provenance rendered by the
/// caller (`epoch N` for the single store, the `(shard, epoch)` read
/// vector for the sharded facade).
fn report_bgp_service(
    out: &mut dyn Write,
    pats: &[wdsparql_rdf::TriplePattern],
    plan: &[usize],
    strategy: wdsparql_store::JoinStrategy,
    solutions: usize,
    provenance: &str,
) -> io::Result<()> {
    let plan: Vec<String> = plan.iter().map(|&i| pats[i].to_string()).collect();
    writeln!(
        out,
        "service plan (most selective first): {}",
        plan.join(" ⋈ ")
    )?;
    writeln!(out, "service join strategy: {strategy}")?;
    writeln!(
        out,
        "service BGP path: {solutions} solution(s) at {provenance}"
    )
}

/// Prints `count` solutions, given in ascending order: the first ten.
fn print_solutions<'a>(
    out: &mut dyn Write,
    query: &Query,
    count: usize,
    sols: impl IntoIterator<Item = &'a Mapping>,
) -> Result<(), Failure> {
    writeln!(out, "\nquery: {query}")?;
    writeln!(out, "{count} solution(s) via the store-backed engine:")?;
    for mu in sols.into_iter().take(10) {
        writeln!(out, "  {mu}")?;
    }
    if count > 10 {
        writeln!(out, "  ... ({} more)", count - 10)?;
    }
    Ok(())
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

/// A store-backed engine over `triples`: one [`TripleStore`], loaded as
/// one batch and compacted, as `wdsparql store` loads a file.
fn store_engine(triples: impl IntoIterator<Item = Triple>) -> Result<Engine, String> {
    let store = TripleStore::new();
    store.try_bulk_load(triples).map_err(|e| e.to_string())?;
    store.compact();
    Ok(Engine::from_store(Arc::new(store)))
}

/// The statements of the data file, in file order, repeats included.
fn read_statements(arg: Option<&String>) -> Result<Vec<Triple>, String> {
    let path = arg.ok_or("missing data file argument")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // A data error names its line, whichever layer finds it.
    let text = std::str::from_utf8(&bytes).map_err(|e| {
        let newlines = bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n');
        format!("{path}: line {}: invalid UTF-8", newlines.count() + 1)
    })?;
    parse_statements(text).map_err(|e| format!("{path}: {e}"))
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

fn demo(out: &mut dyn Write) -> Result<(), Failure> {
    let engine = store_engine(wdsparql_workloads::social_network(30, 1).iter().copied())?;
    let query = Query::parse("((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)")
        .expect("demo query is well-designed");
    writeln!(out, "demo query: {query}\n")?;
    writeln!(out, "{}\n", query.width_report())?;
    let sols = engine.evaluate(&query);
    writeln!(out, "{} solutions; first 5:", sols.len())?;
    for mu in sols.iter().take(5) {
        writeln!(out, "  {mu}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The command, its output discarded.
    fn run(args: &[String]) -> Result<(), String> {
        super::run(args, &mut io::sink())
    }

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

    /// Each query command parses its query (and `check` its bindings)
    /// before it reads the data: with both inputs bad, the parse error
    /// is the one reported.
    #[test]
    fn a_malformed_query_is_reported_before_the_data_is_read() {
        let bad = "(?x, p";
        let query_err = Query::parse(bad).err().expect("malformed").to_string();
        let select_err = ProjectedQuery::parse(bad)
            .expect_err("malformed")
            .to_string();
        for (args, want) in [
            (vec!["eval", "/nonexistent.nt", bad], &query_err),
            (vec!["check", "/nonexistent.nt", bad, "x=a"], &query_err),
            (vec!["count", "/nonexistent.nt", bad], &query_err),
            (vec!["select", "/nonexistent.nt", bad], &select_err),
        ] {
            assert_eq!(run(&s(&args)).as_ref(), Err(want), "{args:?}");
        }
        let bindings_err = parse_bindings(Some(&"x".to_string())).unwrap_err();
        let args = s(&["check", "/nonexistent.nt", "(?x, p, ?y)", "x"]);
        assert_eq!(run(&args), Err(bindings_err));
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

    /// `count` tallies the one enumeration it prints the work of: the
    /// histogram must be the one `count_by_domain` enumerates again for.
    #[test]
    fn count_tallies_its_enumeration_as_count_by_domain_does() {
        let graph = wdsparql_rdf::RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "q", "c"),
            ("d", "p", "e"),
            ("f", "r", "g"),
            ("f", "s", "h"),
            ("i", "r", "j"),
        ]);
        let text = "((?x, p, ?y) OPT (?y, q, ?z)) UNION ((?x, r, ?y) OPT (?x, s, ?w))";
        let query = Query::parse(text).unwrap();
        let (sols, _) = enumerate_with_stats(query.forest(), &graph);
        let counts = count_solutions_by_domain(&sols);
        assert_eq!(counts.len(), 3, "{counts:?}");
        assert_eq!(
            counts,
            wdsparql_core::count_by_domain(query.forest(), &graph)
        );
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
        assert!(json.contains("\"schema\": 4"), "{json}");
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
