//! End-to-end smoke tests for the `wdsparql` binary: each subcommand
//! path is spawned as a real process and checked for exit code and
//! output shape.

use std::io::Write;
use std::process::{Command, Output};

fn wdsparql(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wdsparql"))
        .args(args)
        .output()
        .expect("failed to spawn the wdsparql binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a small N-Triples file and returns its path.
fn fixture_nt(name: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_{name}.nt", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create fixture");
    writeln!(f, "<alice> <knows> <bob> .").unwrap();
    writeln!(f, "<bob> <email> <bob@example.org> .").unwrap();
    writeln!(f, "<bob> <knows> <carol> .").unwrap();
    path
}

#[test]
fn demo_runs_green() {
    let out = wdsparql(&["demo"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("demo query:"), "unexpected output: {text}");
    assert!(text.contains("solutions"), "unexpected output: {text}");
}

#[test]
fn analyze_reports_widths() {
    let out = wdsparql(&["analyze", "(?x, knows, ?y) OPT (?y, email, ?e)"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("domination width"),
        "unexpected output: {text}"
    );
    assert!(text.contains("dw(P) = 1"), "unexpected output: {text}");
}

#[test]
fn eval_enumerates_solutions() {
    let data = fixture_nt("eval");
    let out = wdsparql(&[
        "eval",
        data.to_str().unwrap(),
        "(?x, knows, ?y) OPT (?y, email, ?e)",
    ]);
    let _ = std::fs::remove_file(&data);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 solution(s)"), "unexpected output: {text}");
    assert!(
        text.contains("bob@example.org"),
        "unexpected output: {text}"
    );
}

/// `wdsparql eval … | head -2`: the reader takes two lines of a 20 000-row
/// answer and closes the pipe. The rows go through one buffered writer
/// that ends the command quietly on `EPIPE` — no `println!` panic
/// ("failed printing to stdout"), no error text, a clean exit.
#[test]
fn eval_into_a_closed_pipe_ends_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let path = std::env::temp_dir().join(format!("wdsparql_smoke_{}_pipe.nt", std::process::id()));
    let text: String = (0..20_000)
        .map(|i| format!("<n{i}> <p> <m{i}> .\n"))
        .collect();
    std::fs::write(&path, text).expect("create fixture");
    let mut child = Command::new(env!("CARGO_BIN_EXE_wdsparql"))
        .args(["eval", path.to_str().unwrap(), "(?x, p, ?y)"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn the wdsparql binary");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = [String::new(), String::new()];
    for line in &mut lines {
        reader.read_line(line).expect("a line of output");
    }
    drop(reader);
    let mut errors = String::new();
    (child.stderr.take().expect("piped stderr"))
        .read_to_string(&mut errors)
        .expect("stderr is text");
    let status = child.wait().expect("the child exits");
    let _ = std::fs::remove_file(&path);
    assert_eq!(lines[0], "20000 solution(s):\n");
    assert!(lines[1].starts_with("  {?x → "), "row line: {:?}", lines[1]);
    assert_eq!(errors, "", "nothing on stderr, least of all a panic");
    assert!(status.success(), "exit status: {status}");
}

/// Every subcommand, spawned with a stdout whose reader is already gone,
/// exits 0 with nothing on stderr: all of its output, the `store` reports
/// included, goes through the one writer that takes `EPIPE` as the end.
#[test]
fn every_subcommand_into_a_closed_pipe_ends_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    let data = fixture_nt("closed_pipe");
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_{name}", std::process::id()))
    };
    let (dir, metrics) = (tmp("closed_pipe_store"), tmp("closed_pipe_metrics.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let (path, at, json) = (
        data.to_str().unwrap(),
        dir.to_str().unwrap(),
        metrics.to_str().unwrap(),
    );
    let (pat, opt) = ("(?x, knows, ?y)", "(?x, knows, ?y) OPT (?y, email, ?e)");
    for args in [
        &["analyze", opt][..],
        &["forest", opt],
        &["eval", path, opt],
        &["check", path, opt, "x=alice,y=bob,e=bob@example.org"],
        &["count", path, opt],
        &["select", path, "SELECT ?x WHERE { ?x knows ?y }"],
        &["contain", pat, opt],
        &["demo"],
        &["store", path],
        &["store", "--profile", "--metrics-json", json, path, pat],
        &["store", "--dir", at, path, opt],
        &["store", "--dir", at, "--open", pat],
        &["store", "--shards", "3", path, pat],
        &["store", "--limit", "1", path, pat],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wdsparql"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn the wdsparql binary");
        drop(child.stdout.take());
        let mut errors = String::new();
        (child.stderr.take().expect("piped stderr"))
            .read_to_string(&mut errors)
            .expect("stderr is text");
        let status = child.wait().expect("the child exits");
        assert_eq!(
            errors, "",
            "{args:?}: nothing on stderr, least of all a panic"
        );
        assert!(status.success(), "{args:?}: exit status {status}");
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_accepts_a_true_binding() {
    let data = fixture_nt("check");
    let out = wdsparql(&[
        "check",
        data.to_str().unwrap(),
        "(?x, knows, ?y)",
        "x=alice,y=bob",
    ]);
    let _ = std::fs::remove_file(&data);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

/// `check` prints a third verdict, `Strategy::Auto`'s, with the route that
/// settled it: the exact search for a profile question, the pebble game
/// at `k = dw` for a triangle child against a triangle-free graph.
#[test]
fn check_prints_the_auto_verdict_and_its_route() {
    let data = fixture_nt("check_auto");
    let out = wdsparql(&[
        "check",
        data.to_str().unwrap(),
        "(?x, knows, ?y) OPT (?y, email, ?e)",
        "x=alice,y=bob,e=bob@example.org",
    ]);
    let _ = std::fs::remove_file(&data);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.lines()
            .any(|l| l.starts_with("pebble") && l.ends_with("true")),
        "unexpected output: {text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("auto (") && l.ends_with(": true via exact")),
        "unexpected output: {text}"
    );

    // A complete bipartite r-graph: the child's triangle never maps, and
    // refuting it takes the search more than its budget.
    let path = std::env::temp_dir().join(format!(
        "wdsparql_smoke_{}_check_auto_game.nt",
        std::process::id()
    ));
    let mut nt = String::from("<a> <p> <b> .\n");
    for u in 0..8 {
        for v in 0..8 {
            if u % 2 != v % 2 {
                nt.push_str(&format!("<t{u}> <r> <t{v}> .\n"));
            }
        }
        if u % 2 == 0 {
            nt.push_str(&format!("<b> <r> <t{u}> .\n"));
        }
    }
    std::fs::write(&path, nt).unwrap();
    let out = wdsparql(&[
        "check",
        path.to_str().unwrap(),
        "(?x, p, ?y) OPT ((?y, r, ?o1) AND ((?o1, r, ?o2) AND ((?o1, r, ?o3) AND (?o2, r, ?o3))))",
        "x=a,y=b",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.lines()
            .any(|l| l.starts_with("auto (") && l.ends_with(": true via pebble k = 2")),
        "unexpected output: {text}"
    );
}

/// A binding with no variable name, or one variable bound to two IRIs,
/// is a usage error — not a panic, and not a silent last-one-wins.
#[test]
fn check_rejects_empty_and_conflicting_bindings() {
    let data = fixture_nt("check_bad_bindings");
    for (bindings, needle) in [
        ("=alice", "empty variable name"),
        ("?=alice", "empty variable name"),
        ("x=alice,x=bob,y=bob", "?x is bound to both alice and bob"),
    ] {
        let out = wdsparql(&["check", data.to_str().unwrap(), "(?x, knows, ?y)", bindings]);
        let errors = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{bindings}: {errors}");
        assert!(
            errors.contains("error: bad binding"),
            "{bindings}: {errors}"
        );
        assert!(errors.contains(needle), "{bindings}: {errors}");
        assert!(!errors.contains("panicked"), "{bindings}: {errors}");
    }
    // The same IRI twice is one binding.
    let out = wdsparql(&[
        "check",
        data.to_str().unwrap(),
        "(?x, knows, ?y)",
        "x=alice,y=bob,?x=alice",
    ]);
    let _ = std::fs::remove_file(&data);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn contain_reports_both_directions() {
    let out = wdsparql(&[
        "contain",
        "(?x, knows, ?y)",
        "(?x, knows, ?y) OPT (?y, email, ?e)",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn forest_prints_the_translation() {
    let out = wdsparql(&["forest", "(?x, knows, ?y) OPT (?y, email, ?e)"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("T1"),
        "unexpected output: {}",
        stdout(&out)
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = wdsparql(&["frobnicate"]);
    assert!(!out.status.success(), "bogus subcommand must fail");
    let text = stderr(&out);
    assert!(text.contains("unknown subcommand"), "stderr: {text}");
    assert!(text.contains("usage:"), "stderr: {text}");
}

#[test]
fn missing_arguments_fail() {
    let out = wdsparql(&[]);
    assert!(!out.status.success(), "no arguments must fail");
    assert!(stderr(&out).contains("usage:"), "stderr: {}", stderr(&out));
}

#[test]
fn malformed_query_fails_cleanly() {
    let out = wdsparql(&["analyze", "(?x, knows"]);
    assert!(!out.status.success(), "parse error must fail");
}

/// A stray `>` once sent the tokenizer into an endless loop that pushed
/// empty tokens until memory ran out; now it is a positioned parse error.
#[test]
fn stray_closing_angle_is_a_parse_error() {
    let out = wdsparql(&["analyze", "(?x, p, >)"]);
    let errors = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {errors}");
    assert!(errors.contains("error:"), "stderr: {errors}");
    assert!(errors.contains("at byte 8"), "stderr: {errors}");
}

/// 50 000 nested groups once overflowed the main thread's stack and
/// aborted the process; past the nesting limit a query is a positioned
/// parse error.
#[test]
fn deep_nesting_is_a_parse_error() {
    let data = fixture_nt("deep");
    let deep = format!(
        "{}(?x, knows, ?y){}",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let out = wdsparql(&["eval", data.to_str().unwrap(), &deep]);
    let errors = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        &errors[..200.min(errors.len())]
    );
    assert!(
        errors.contains("parse error at byte 2048: nesting deeper than 2048 levels"),
        "stderr: {}",
        &errors[..200.min(errors.len())]
    );
}

#[test]
fn store_reports_stats_and_serves_queries() {
    let data = fixture_nt("store");
    let out = wdsparql(&["store", data.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("3 triple(s)") && text.contains("predicate cardinalities:"),
        "unexpected output: {text}"
    );

    // An OPT query runs through the store-backed engine.
    let out = wdsparql(&[
        "store",
        data.to_str().unwrap(),
        "(?x, knows, ?y) OPT (?y, email, ?e)",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("solution(s) via the store-backed engine"),
        "unexpected output: {text}"
    );

    // An AND-only query is evaluated once, by the service's planned
    // path, which reports the epoch it read.
    let out = wdsparql(&[
        "store",
        data.to_str().unwrap(),
        "(?x, knows, ?y) AND (?y, knows, ?z)",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("service plan"), "unexpected output: {text}");
    assert!(
        text.contains("service BGP path: 1 solution(s) at epoch 1\n"),
        "unexpected output: {text}"
    );

    // A missing data file fails cleanly.
    let out = wdsparql(&["store", "/nonexistent.nt"]);
    assert!(!out.status.success());
}

#[test]
fn store_shards_scatter_and_answer_queries() {
    let data = fixture_nt("store_shards");
    let out = wdsparql(&["store", "--shards", "2", data.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("3 triple(s)") && text.contains("2 shard(s)"),
        "unexpected output: {text}"
    );
    assert!(text.contains("shard 1:"), "unexpected output: {text}");

    // The same AND-only query runs through the sharded engine and the
    // facade's planned BGP path, epoch vector and all.
    let out = wdsparql(&[
        "store",
        "--shards",
        "2",
        data.to_str().unwrap(),
        "(?x, knows, ?y) AND (?y, knows, ?z)",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("service plan"), "unexpected output: {text}");
    assert!(text.contains("epochs ["), "unexpected output: {text}");
}

/// A fixture holding a `p`-triangle, for the cyclic-core queries.
fn triangle_nt(name: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_{name}.nt", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create fixture");
    writeln!(f, "<a> <p> <b> .").unwrap();
    writeln!(f, "<b> <p> <c> .").unwrap();
    writeln!(f, "<a> <p> <c> .").unwrap();
    writeln!(f, "<c> <p> <d> .").unwrap();
    path
}

const TRIANGLE_QUERY: &str = "((?x, p, ?y) AND (?y, p, ?z)) AND (?x, p, ?z)";

#[test]
fn store_join_strategy_wco_end_to_end() {
    let data = triangle_nt("wco");
    // The WCOJ answers the triangle through the service and the
    // store-backed engine...
    let wco = wdsparql(&[
        "store",
        "--join-strategy",
        "wco",
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(wco.status.success(), "stderr: {}", stderr(&wco));
    let wco_text = stdout(&wco);
    assert!(
        wco_text.contains("service join strategy: wco"),
        "unexpected output: {wco_text}"
    );
    assert!(
        wco_text.contains("1 solution(s) via the store-backed engine"),
        "unexpected output: {wco_text}"
    );
    // ...and agrees with the pairwise pipeline on the same data.
    let pairwise = wdsparql(&[
        "store",
        "--join-strategy",
        "pairwise",
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(pairwise.status.success(), "stderr: {}", stderr(&pairwise));
    let pair_text = stdout(&pairwise);
    assert!(
        pair_text.contains("service join strategy: pairwise"),
        "unexpected output: {pair_text}"
    );
    let solutions = |text: &str| -> String {
        text.lines()
            .find(|l| l.contains("service BGP path:"))
            .expect("service summary line")
            .split(';')
            .next()
            .expect("solution count segment")
            .to_string()
    };
    assert_eq!(solutions(&wco_text), solutions(&pair_text));
    // `auto` resolves the cyclic core to the WCOJ — on the sharded
    // facade too.
    let auto = wdsparql(&[
        "store",
        "--shards",
        "2",
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(auto.status.success(), "stderr: {}", stderr(&auto));
    let auto_text = stdout(&auto);
    assert!(
        auto_text.contains("service join strategy: wco"),
        "auto must resolve the triangle to wco: {auto_text}"
    );
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_profile_prints_a_span_tree() {
    let data = triangle_nt("profile");
    let out = wdsparql(&["store", "--profile", data.to_str().unwrap(), TRIANGLE_QUERY]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("execution profile:"),
        "unexpected output: {text}"
    );
    // The root span names the resolved join strategy...
    assert!(text.contains("strategy=wco"), "unexpected output: {text}");
    assert!(text.contains("epoch=1"), "unexpected output: {text}");
    // ...and the execute span carries one `level ?v` child per WCOJ
    // variable level, rows and all.
    assert!(text.contains("execute"), "unexpected output: {text}");
    for level in ["level ?x", "level ?y", "level ?z"] {
        let line = text
            .lines()
            .find(|l| l.contains(level))
            .unwrap_or_else(|| panic!("missing {level}: {text}"));
        assert!(line.contains("rows="), "no row count on {level}: {line}");
        assert!(line.contains("seeks="), "no seek count on {level}: {line}");
    }
    // The sharded facade profiles too, with read provenance.
    let out = wdsparql(&[
        "store",
        "--shards",
        "2",
        "--profile",
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("routing=fan-out") && text.contains("shards_read="),
        "unexpected output: {text}"
    );
    let _ = std::fs::remove_file(&data);
}

/// The pairwise profile's `scan` span says whether the seed's semi-join
/// prune ran and how many candidates it read: an anchored path (one seed
/// row against eleven `knows` edges) skips it, an open path (two seed
/// rows against the same eleven) reads the eleven distinct `knows`
/// objects.
#[test]
fn store_profile_shows_the_seed_prune_decision() {
    let path = std::env::temp_dir().join(format!("wdsparql_smoke_{}_prune.nt", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create fixture");
    writeln!(f, "<a> <knows> <b> .").unwrap();
    writeln!(f, "<b> <knows> <c> .").unwrap();
    for i in 0..9 {
        writeln!(f, "<n{i}> <knows> <n{}> .", i + 1).unwrap();
    }
    writeln!(f, "<b> <email> <e1> .").unwrap();
    writeln!(f, "<c> <email> <e2> .").unwrap();
    drop(f);
    let data = path.to_str().unwrap();
    for (query, prune) in [
        ("(a, knows, ?y) AND (?y, knows, ?z)", "prune=skipped"),
        ("(?x, knows, ?y) AND (?y, email, ?e)", "prune=11"),
    ] {
        let out = wdsparql(&["store", "--profile", data, query]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("strategy=pairwise"), "{query}: {text}");
        let scan = text
            .lines()
            .find(|l| l.contains("scan ["))
            .unwrap_or_else(|| panic!("{query}: no scan span: {text}"));
        assert!(scan.contains(prune), "{query}: {scan}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_metrics_json_dumps_the_registry() {
    let data = triangle_nt("metrics");
    let out_path = std::env::temp_dir().join(format!(
        "wdsparql_smoke_{}_metrics.json",
        std::process::id()
    ));
    let out = wdsparql(&[
        "store",
        "--metrics-json",
        out_path.to_str().unwrap(),
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = std::fs::read_to_string(&out_path).expect("metrics file written");
    for key in [
        "\"schema\": 4",
        "\"store.queries_total\"",
        "\"store.triples\"",
        "\"query.total_ns\"",
        "\"shard_rows\"",
    ] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&out_path);
}

/// A fixture holding the complete directed graph on `n` vertices — the
/// dense worst case for the pairwise 4-clique join.
fn dense_nt(name: &str, n: usize) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_{name}.nt", std::process::id()));
    let mut text = String::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                text.push_str(&format!("<v{i}> <p> <v{j}> .\n"));
            }
        }
    }
    std::fs::write(&path, text).expect("create fixture");
    path
}

const FOUR_CLIQUE_QUERY: &str = "((((?a, p, ?b) AND (?b, p, ?c)) AND ((?c, p, ?d) AND \
                                 (?a, p, ?c))) AND ((?a, p, ?d) AND (?b, p, ?d)))";

#[test]
fn store_deadline_fails_fast_with_a_clean_error() {
    // A pairwise 4-clique over the dense graph enumerates far longer
    // than 10ms; the deadline must cut it short with a typed error
    // (never a panic), well before the full-enumeration runtime.
    let data = dense_nt("deadline", 40);
    let start = std::time::Instant::now();
    let out = wdsparql(&[
        "store",
        "--join-strategy",
        "pairwise",
        "--deadline-ms",
        "10",
        data.to_str().unwrap(),
        FOUR_CLIQUE_QUERY,
    ]);
    let elapsed = start.elapsed();
    let _ = std::fs::remove_file(&data);
    assert!(!out.status.success(), "a missed deadline must fail");
    let err = stderr(&out);
    assert!(
        err.contains("query deadline exceeded"),
        "unexpected stderr: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must be an error, not a panic: {err}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "deadline must cut enumeration short, took {elapsed:?}"
    );
}

#[test]
fn store_limit_echoes_exactly_k_rows() {
    let data = dense_nt("limit", 6);
    for shards in ["1", "2"] {
        let out = wdsparql(&[
            "store",
            "--shards",
            shards,
            "--limit",
            "3",
            data.to_str().unwrap(),
            TRIANGLE_QUERY,
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("streamed 3 solution(s) under limit 3"),
            "unexpected output: {text}"
        );
        assert_eq!(
            text.lines().filter(|l| l.starts_with("  -> ")).count(),
            3,
            "exactly K rows must be echoed: {text}"
        );
    }
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_join_strategy_flag_validates() {
    let data = triangle_nt("wco_flag");
    let out = wdsparql(&["store", "--join-strategy", "bogus", data.to_str().unwrap()]);
    assert!(!out.status.success(), "bogus strategy must fail");
    assert!(
        stderr(&out).contains("join-strategy"),
        "unexpected stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_capacity_guard_is_a_clean_error() {
    // Before the fix this path hit the panicking `bulk_load`; now the
    // guard surfaces as a normal CLI error with a non-zero exit.
    let data = fixture_nt("store_cap");
    let out = wdsparql(&["store", "--max-triples", "1", data.to_str().unwrap()]);
    assert!(!out.status.success(), "capacity overflow must fail");
    let err = stderr(&out);
    assert!(
        err.contains("capacity exceeded") && err.contains("configured limit"),
        "unexpected stderr: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must be an error, not a panic: {err}"
    );
}

/// Writes `bytes` as a data file and returns its path.
fn raw_nt(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_{name}.nt", std::process::id()));
    std::fs::write(&path, bytes).expect("create fixture");
    path
}

#[test]
fn store_skips_a_byte_order_mark() {
    // U+FEFF is not whitespace: before the fix the first subject was
    // interned as "\u{feff}a" and the query below found nothing.
    let data = raw_nt("store_bom", b"\xef\xbb\xbfa p b .\n");
    let out = wdsparql(&["store", data.to_str().unwrap(), "(a, p, ?y)"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 solution(s)"), "unexpected output: {text}");
    assert!(text.contains("{?y → b}"), "unexpected output: {text}");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_names_the_line_of_an_undecodable_byte() {
    // Before the fix: "stream did not contain valid UTF-8", no line.
    let data = raw_nt("store_utf8", b"a p b .\n# fine\nc p \xffd .\ne p f .\n");
    let path = data.to_str().unwrap();
    let out = wdsparql(&["store", path, "(a, p, ?y)"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.starts_with(&format!("error: {path}: line 3: invalid UTF-8")),
        "unexpected stderr: {err}"
    );
    assert!(
        !stdout(&out).contains("loaded"),
        "nothing may load from a file that does not decode"
    );
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_restart_serves_identical_results() {
    // Durable round-trip: ingest with `--dir`, then reopen the same
    // directory with `--open` in a fresh process. The triangle query
    // must return the same solutions at the same durable epoch —
    // nothing about the store may depend on process-lifetime state.
    let data = triangle_nt("restart");
    let dir = std::env::temp_dir().join(format!(
        "wdsparql_smoke_{}_restart_store",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ingest = wdsparql(&[
        "store",
        "--dir",
        dir.to_str().unwrap(),
        data.to_str().unwrap(),
        TRIANGLE_QUERY,
    ]);
    assert!(ingest.status.success(), "stderr: {}", stderr(&ingest));
    let first = stdout(&ingest);
    assert!(first.contains("epoch 1)"), "durable epoch missing: {first}");

    let reopen = wdsparql(&[
        "store",
        "--dir",
        dir.to_str().unwrap(),
        "--open",
        TRIANGLE_QUERY,
    ]);
    assert!(reopen.status.success(), "stderr: {}", stderr(&reopen));
    let second = stdout(&reopen);
    assert!(
        second.contains("epoch 1)"),
        "reopened epoch differs: {second}"
    );

    // The solution rows (engine output lines `  {?x → …}`) must match
    // as sets across the restart.
    let rows = |text: &str| -> Vec<String> {
        let mut v: Vec<String> = text
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(str::to_string)
            .collect();
        v.sort();
        v
    };
    let (a, b) = (rows(&first), rows(&second));
    assert!(!a.is_empty(), "triangle query must have solutions: {first}");
    assert_eq!(a, b, "restart changed the answer set");

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data file that repeats statements close together (within its first
/// 4 096 lines) and far apart (past them): the volatile run, the durable
/// run and the reopened store each count every distinct triple once and
/// give the same answers.
#[test]
fn store_counts_repeated_statements_once() {
    // 4 000 distinct statements plus 96 repeats fill the first 4 096
    // lines; the next 1 000 repeat 500 of them and add 500 more.
    let line = |i: usize| format!("<s{i}> <p> <o{}> .\n", i % 10);
    let mut text: String = (0..4000).chain(0..96).map(line).collect();
    text.extend((0..500).chain(4000..4500).map(line));
    let data = raw_nt("repeats", text.as_bytes());
    let dir = std::env::temp_dir().join(format!(
        "wdsparql_smoke_{}_repeats_store",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (path, at) = (data.to_str().unwrap(), dir.to_str().unwrap());
    // Under `--limit` every answer is printed, not the first ten.
    let query = ["--limit", "1000", "(?x, p, o3)"];
    let runs = [
        [&["store", path][..], &query].concat(),
        [&["store", "--dir", at, path][..], &query].concat(),
        [&["store", "--dir", at, "--open"][..], &query].concat(),
    ];
    let mut answers = Vec::new();
    for args in runs {
        let out = wdsparql(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("4500 triple(s)"), "{args:?}: {text}");
        assert!(
            text.contains("streamed 450 solution(s)"),
            "{args:?}: {text}"
        );
        let mut rows: Vec<&str> = text.lines().filter(|l| l.starts_with("  -> ")).collect();
        rows.sort_unstable();
        answers.push(rows.join("\n"));
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "answers differ");
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

/// 24 000 statements over 2 000 nodes and 4 predicates, in no order, the
/// last 2 000 repeating earlier ones: a file several 4 096-statement
/// streaming-ingest batches long.
fn many_batch_nt(name: &str) -> std::path::PathBuf {
    let mut state = 7u64;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let lines: Vec<String> = (0..22_000)
        .map(|_| format!("<n{}> <p{}> <n{}> .\n", draw(2_000), draw(4), draw(2_000)))
        .collect();
    let repeats = (0..2_000).map(|i| &lines[i * 7 % 22_000]);
    let text: String = lines.iter().chain(repeats).map(String::as_str).collect();
    raw_nt(name, text.as_bytes())
}

/// The count line and the first ten rows of a run's solutions: `eval`
/// prints `N solution(s):`, `store` `N solution(s) via ...:`.
fn head_of_answer(text: &str) -> (String, Vec<String>) {
    let mut lines = text.lines().skip_while(|l| !l.contains(" solution(s)"));
    let count = lines.next().unwrap_or_default();
    let count = count.split(" solution(s)").next().unwrap().to_string();
    let rows = lines.take_while(|l| l.starts_with("  {")).take(10);
    (count, rows.map(str::to_string).collect())
}

/// `eval` and every `store` mode answer a file several ingest batches
/// long as the in-memory engine does: AND, OPT and UNION, single,
/// sharded, durable and reopened. The reference is computed in this
/// process, by `Engine::new` over the file's parsed statements: every
/// mode under test loads into the store. The file loads as one batch,
/// so a durable load over its cap fails and leaves the store empty,
/// though the file's first 8 192 statements alone would have fit.
#[test]
fn store_modes_and_eval_answer_a_many_batch_file_as_the_memory_engine_does() {
    let data = many_batch_nt("many_batch");
    let dir =
        std::env::temp_dir().join(format!("wdsparql_smoke_{}_many_batch", std::process::id()));
    let (path, at) = (data.to_str().unwrap(), dir.to_str().unwrap());
    // Parsed here in file order, as the binary parses it, the terms get
    // the same relative ids, so the solutions sort the same way.
    let text = std::fs::read_to_string(&data).unwrap();
    let statements = wdsparql_rdf::parse_statements(&text).unwrap();
    let engine = wdsparql_core::Engine::new(wdsparql_rdf::RdfGraph::from_triples(statements));
    for query in [
        "(?x, p0, ?y) AND (?y, p1, ?z)",
        "(?x, p0, ?y) OPT (?y, p1, ?z)",
        "(?x, p2, ?y) UNION ((?x, p3, ?y) OPT (?y, p0, ?z))",
    ] {
        let sols = engine.evaluate(&wdsparql_core::Query::parse(query).unwrap());
        let rows = sols.iter().take(10).map(|mu| format!("  {mu}"));
        let want = (sols.len().to_string(), rows.collect::<Vec<_>>());
        assert!(want.0.parse::<usize>().unwrap() > 10, "{query}: {want:?}");
        let _ = std::fs::remove_dir_all(&dir);
        for args in [
            &["eval", path, query][..],
            &["store", path, query],
            &["store", "--shards", "3", path, query],
            &["store", "--dir", at, path, query],
            &["store", "--dir", at, "--open", query],
        ] {
            let out = wdsparql(args);
            assert!(out.status.success(), "{args:?}: {}", stderr(&out));
            assert_eq!(head_of_answer(&stdout(&out)), want, "{args:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let capped = wdsparql(&["store", "--dir", at, "--max-triples", "10000", path]);
    assert_eq!(capped.status.code(), Some(1), "{}", stdout(&capped));
    assert!(
        stderr(&capped).contains("capacity exceeded"),
        "{}",
        stderr(&capped)
    );
    let reopened = wdsparql(&["store", "--dir", at, "--open"]);
    assert!(reopened.status.success(), "{}", stderr(&reopened));
    assert!(
        stdout(&reopened).starts_with("0 triple(s)"),
        "{}",
        stdout(&reopened)
    );
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A query the `store` run cannot answer — it does not parse, or it is
/// not a BGP under `--limit` — fails before the data is read: nothing is
/// ingested or printed, and no durable store is made.
#[test]
fn store_rejects_a_bad_query_before_reading_the_data() {
    let data = fixture_nt("early_reject");
    let dir = std::env::temp_dir().join(format!("wdsparql_smoke_{}_early", std::process::id()));
    let (path, at) = (data.to_str().unwrap(), dir.to_str().unwrap());
    let opt = "(?x, knows, ?y) OPT (?y, email, ?e)";
    for args in [
        vec!["store", "--dir", at, path, "(?x, p"],
        vec!["store", "--dir", at, "--limit", "1", path, opt],
    ] {
        let out = wdsparql(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{args:?} ingested before failing");
        assert!(!dir.exists(), "{args:?} made a store at {at}");
    }
    let _ = std::fs::remove_file(&data);
}

#[test]
fn store_open_with_a_corrupt_manifest_is_a_clean_error() {
    let data = triangle_nt("corrupt");
    let dir = std::env::temp_dir().join(format!(
        "wdsparql_smoke_{}_corrupt_store",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ingest = wdsparql(&[
        "store",
        "--dir",
        dir.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert!(ingest.status.success(), "stderr: {}", stderr(&ingest));

    // Smash the manifest's header page (magic + version live in the
    // first bytes, under the header checksum).
    let manifest = dir.join("manifest");
    let mut bytes = std::fs::read(&manifest).expect("manifest exists");
    for b in bytes.iter_mut().take(8) {
        *b ^= 0xff;
    }
    std::fs::write(&manifest, bytes).expect("rewrite manifest");

    let reopen = wdsparql(&["store", "--dir", dir.to_str().unwrap(), "--open"]);
    assert!(!reopen.status.success(), "corrupt manifest must fail");
    let err = stderr(&reopen);
    assert!(
        err.contains("corrupt manifest"),
        "typed corruption error expected, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must be an error, not a panic: {err}"
    );

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_open_requires_dir() {
    let out = wdsparql(&["store", "--open"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--open needs --dir"),
        "unexpected stderr: {}",
        stderr(&out)
    );
}

/// `--open` on a path that holds no store is an error that leaves the
/// path alone — not a freshly formatted empty store answering nothing.
#[test]
fn store_open_refuses_a_path_without_a_store() {
    let dir = std::env::temp_dir().join(format!("wdsparql_smoke_{}_nostore", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = wdsparql(&[
        "store",
        "--dir",
        dir.to_str().unwrap(),
        "--open",
        "(?x, knows, ?y)",
    ]);
    let errors = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {errors}");
    assert!(errors.contains("error: --open: no store at"), "{errors}");
    assert!(!errors.contains("panicked"), "{errors}");
    assert!(!dir.exists(), "a failed reopen must create nothing");
}
