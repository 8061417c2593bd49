//! The invariant lints: project rules clippy cannot express, encoded as
//! token-stream walks over the workspace source.
//!
//! | lint | rule |
//! |------|------|
//! | `no-unwrap-in-service`  | no `.unwrap()`/`.expect()` in non-test service-layer code |
//! | `one-snapshot-per-path` | at most one snapshot acquisition per function body |
//! | `relaxed-ok-comment`    | every `Ordering::Relaxed` carries a `// relaxed-ok:` justification |
//! | `no-lock-reentry`       | an exclusive-lock scope must not re-enter the same lock |
//! | `must-use-snapshot`     | snapshot / plan / guard types must be `#[must_use]` |
//! | `wcoj-buffer-recycle`   | every trie level buffer popped off the open-level `stack` must return to the `spare` pool (and vice versa) on every exit path |
//! | `budget-checkpoint`     | every `loop`/`while` in the streaming hot paths must checkpoint the query budget (`budget.check()`) so deadlines and cancellation can interrupt it |
//! | `lock-order-cycle`      | the workspace-wide lock-acquisition-order graph must stay acyclic (cross-file: edges follow resolved method calls) |
//! | `io-ordering`           | persistence code must not publish (`rename`/`publish`) without a dominating `fsync`/`sync_all`/`dir_sync` earlier in the function |
//! | `unused-hatch`          | a `// analyzer-allow:` comment that silences nothing is stale and must go (warning; error under `--strict-hatches`) |
//!
//! Which files each lint covers is the one table `LINTS`.
//!
//! Every lint has an inline escape hatch: a comment on the flagged line,
//! or in the contiguous comment block immediately above it, of the form
//! `// analyzer-allow: <lint-name> <reason>`, the name spelled exactly.
//! The reason is mandatory — an allow without a justification is itself
//! a violation. Hatches are
//! tracked: one that no lint ever consulted is reported by
//! `unused-hatch`, so fixes cannot leave silencers behind.
//!
//! Most lints are per-file token walks. The two lock lints are one
//! cross-file analysis (`lint_locks`): [`scan_sources`] lexes the whole
//! in-scope file set first and resolves calls across files (same-file
//! definitions win; a cross-file edge needs the receiver field to name
//! the defining file's stem, e.g. `self.cache.clear()` resolves into
//! `cache.rs`), builds one lock-order graph, reports its self-edges
//! under an exclusive guard as re-entries and rejects any cycle among
//! the rest.

use crate::lex::{self, Comment, Delim, Kind, Token};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// The marker that silences any lint on its line (reason required).
const ALLOW_MARKER: &str = "analyzer-allow:";
/// The justification marker [`RELAXED`] requires.
const RELAXED_MARKER: &str = "relaxed-ok:";

pub const NO_UNWRAP: &str = "no-unwrap-in-service";
pub const ONE_SNAPSHOT: &str = "one-snapshot-per-path";
pub const RELAXED: &str = "relaxed-ok-comment";
pub const LOCK_REENTRY: &str = "no-lock-reentry";
pub const MUST_USE: &str = "must-use-snapshot";
pub const WCOJ_RECYCLE: &str = "wcoj-buffer-recycle";
pub const BUDGET_CHECKPOINT: &str = "budget-checkpoint";
pub const LOCK_ORDER: &str = "lock-order-cycle";
pub const IO_ORDERING: &str = "io-ordering";
pub const UNUSED_HATCH: &str = "unused-hatch";

/// A per-file lint pass.
type Pass = fn(&FileCtx<'_>, &mut Vec<Finding>);

/// Every lint: its name, its scope, and its per-file pass. A file is in
/// a lint's scope when its path (relative to the scan root) contains one
/// of the fragments — `""` matches every file — so one table covers the
/// workspace layout (`crates/store/src/...`) and the seeded fixture tree
/// (`store/src/...`) alike. The lints without a pass run over the whole
/// file set in [`scan_sources`]: the two lock lints are one cross-file
/// analysis, and the stale-hatch sweep must run after every other lint.
const LINTS: [(&str, &[&str], Option<Pass>); 10] = [
    (
        NO_UNWRAP,
        &[
            "store/src/bgp.rs",
            "store/src/service.rs",
            "store/src/shard.rs",
            "store/src/cache.rs",
            "store/src/join.rs",
            "store/src/persist/",
        ],
        Some(lint_no_unwrap),
    ),
    (ONE_SNAPSHOT, &[""], Some(lint_one_snapshot)),
    (RELAXED, &[""], Some(lint_relaxed)),
    (MUST_USE, &[""], Some(lint_must_use)),
    (
        WCOJ_RECYCLE,
        &["store/src/wcoj.rs"],
        Some(lint_wcoj_recycle),
    ),
    (
        BUDGET_CHECKPOINT,
        &[
            "store/src/bgp.rs",
            "store/src/wcoj.rs",
            "store/src/join.rs",
            "store/src/shard.rs",
        ],
        Some(lint_budget_checkpoint),
    ),
    (IO_ORDERING, &["store/src/persist"], Some(lint_io_ordering)),
    (LOCK_REENTRY, &["store/src/"], None),
    (LOCK_ORDER, &["store/src/"], None),
    (UNUSED_HATCH, &[""], None),
];

/// Whether the file at `rel` is in `lint`'s scope (see `LINTS`).
pub fn in_scope(lint: &str, rel: &str) -> bool {
    LINTS
        .iter()
        .any(|(name, frags, _)| *name == lint && frags.iter().any(|f| rel.contains(f)))
}

/// The field pairing [`WCOJ_RECYCLE`] enforces: trie level buffers
/// shuttle between the open-level stack and the recycle pool.
const RECYCLE_STACK: &str = "stack";
const RECYCLE_POOL: &str = "spare";

/// Method names whose call acquires a store snapshot.
const SNAPSHOT_FNS: [&str; 4] = [
    "read_snapshot",
    "snapshot",
    "read_snapshot_for",
    "subject_snapshot",
];

/// Type-name suffixes [`MUST_USE`] requires `#[must_use]` on.
const MUST_USE_SUFFIXES: [&str; 3] = ["Snapshot", "Guard", "PlannedQuery"];

/// How a finding affects the `--check` exit code: errors always fail,
/// warnings fail only under `--strict-hatches`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint violation, pointing at a file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub lint: &'static str,
    pub severity: Severity,
    /// Path relative to the scan root.
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}]{} {}",
            self.file,
            self.line,
            self.lint,
            match self.severity {
                Severity::Error => "",
                Severity::Warning => " warning:",
            },
            self.message
        )
    }
}

/// Scans a directory tree and returns every finding, sorted by file and
/// line. When `root` looks like the workspace (has a `crates/` child),
/// only `src/` and `crates/*/src/` are scanned — tests, benches,
/// examples and the vendored stand-ins are out of scope by design (the
/// lints enforce *production-path* invariants). Any other root is walked
/// whole, which is how the fixture tests point the scanner at seeded
/// violations.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        collect_rs(&root.join("src"), &mut files)?;
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files)?;
        }
    } else {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut sources = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .into_owned();
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a whole file set as one unit: every per-file lint, then the
/// cross-file lock analysis, then the stale-hatch sweep (which must run
/// last — any lint, including the cross-file one, can be what a hatch
/// silences). `files` pairs each reported, scope-matched path with its
/// source text.
pub fn scan_sources(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<_> = files.iter().map(|(_, src)| lex::lex(src)).collect();
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| FileCtx::new(rel, &lx.tokens, &lx.comments))
        .collect();
    let mut findings = Vec::new();
    for ctx in &ctxs {
        for (lint, _, pass) in &LINTS {
            if let Some(pass) = pass {
                if in_scope(lint, ctx.rel) {
                    pass(ctx, &mut findings);
                }
            }
        }
    }
    lint_locks(&ctxs, &mut findings);
    for ctx in ctxs.iter().filter(|c| in_scope(UNUSED_HATCH, c.rel)) {
        lint_unused_hatches(ctx, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Lints one file's source text. `rel` is the path reported in findings
/// and matched against the lint scopes.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    scan_sources(&[(rel.to_string(), src.to_string())])
}

// ---------------------------------------------------------------------
// Shared per-file machinery
// ---------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    toks: &'a [Token],
    /// line → comment text (last comment wins; one per line in practice).
    comment_lines: HashMap<u32, &'a str>,
    /// Open-delimiter token index → matching close index.
    delims: HashMap<usize, usize>,
    /// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
    /// The file's non-test function items, in source order.
    fns: Vec<FnSpan>,
    /// Lines whose `analyzer-allow:` hatch some lint consulted — the
    /// complement (per [`lint_unused_hatches`]) is stale.
    used_hatches: RefCell<BTreeSet<u32>>,
}

impl<'a> FileCtx<'a> {
    fn new(rel: &'a str, toks: &'a [Token], comments: &'a [Comment]) -> FileCtx<'a> {
        let delims = match_delims(toks);
        let test_ranges = test_ranges(toks, &delims);
        let mut ctx = FileCtx {
            rel,
            toks,
            comment_lines: comments.iter().map(|c| (c.line, c.text.as_str())).collect(),
            delims,
            test_ranges,
            fns: Vec::new(),
            used_hatches: RefCell::new(BTreeSet::new()),
        };
        ctx.fns = fn_spans(toks, &ctx.delims)
            .into_iter()
            .filter(|f| !ctx.in_tests(toks[f.body.0].line))
            .collect();
        ctx
    }

    fn in_tests(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// True when the line of token `idx`, or the line its (possibly
    /// multi-line) statement starts on, carries or sits under a hatch
    /// comment: `marker`, then — unless `lint` is empty, as for
    /// `relaxed-ok:` — exactly the lint name and whitespace, then a
    /// non-empty reason.
    fn hatched(&self, marker: &str, lint: &str, idx: usize) -> bool {
        let check = |l: u32| {
            let Some(tail) = self
                .comment_lines
                .get(&l)
                .and_then(|text| text.trim_start().strip_prefix(marker))
            else {
                return false;
            };
            let reason = if lint.is_empty() {
                tail
            } else {
                let tail = tail.trim_start();
                let (name, reason) = tail.split_once(char::is_whitespace).unwrap_or((tail, ""));
                if name != lint {
                    return false;
                }
                // The hatch was consulted for its lint at a real
                // candidate site — not stale, even when the missing
                // reason makes it invalid.
                self.used_hatches.borrow_mut().insert(l);
                reason
            };
            !reason.trim().is_empty()
        };
        // The line itself, then up through the contiguous comment block
        // above it.
        let covers = |line: u32| {
            std::iter::successors(Some(line), |&l| {
                (l > 1 && self.comment_lines.contains_key(&(l - 1))).then(|| l - 1)
            })
            .any(check)
        };
        covers(self.toks[idx].line) || covers(self.stmt_start_line(idx))
    }

    fn allowed(&self, lint: &'static str, idx: usize) -> bool {
        self.hatched(ALLOW_MARKER, lint, idx)
    }

    /// The line the statement containing token `idx` starts on — where
    /// a hatch comment above a multi-line statement actually sits.
    fn stmt_start_line(&self, idx: usize) -> u32 {
        let mut j = idx;
        while j > 0 {
            let t = &self.toks[j - 1];
            if t.is_punct(";")
                || matches!(t.kind, Kind::Open(Delim::Brace) | Kind::Close(Delim::Brace))
            {
                break;
            }
            j -= 1;
        }
        self.toks[j].line
    }

    fn finding(&self, lint: &'static str, line: u32, message: String) -> Finding {
        Finding {
            lint,
            severity: Severity::Error,
            file: self.rel.to_string(),
            line,
            message,
        }
    }

    fn warning(&self, lint: &'static str, line: u32, message: String) -> Finding {
        Finding {
            severity: Severity::Warning,
            ..self.finding(lint, line, message)
        }
    }
}

fn match_delims(toks: &[Token]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Kind::Open(d) => stack.push((d, i)),
            Kind::Close(d) => {
                // Tolerate imbalance (the lexer is approximate): unwind
                // to the nearest open of the same class.
                while let Some((k, j)) = stack.pop() {
                    if k == d {
                        map.insert(j, i);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    map
}

/// Line ranges of items behind `#[cfg(test)]` or `#[test]`: from the
/// attribute to the close of the item's body. Test code is out of scope
/// for every lint — tests exercise panics and orderings on purpose.
fn test_ranges(toks: &[Token], delims: &HashMap<usize, usize>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct("#") && toks[i + 1].kind == Kind::Open(Delim::Bracket) {
            let close = match delims.get(&(i + 1)) {
                Some(&c) => c,
                None => break,
            };
            let inner = &toks[i + 2..close];
            // `#[test]` exactly, or `cfg` immediately followed by `(test`.
            let bare_test = inner.len() == 1 && inner[0].is_ident("test");
            let cfg_test = inner.windows(3).any(|w| {
                w[0].is_ident("cfg")
                    && w[1].kind == Kind::Open(Delim::Paren)
                    && w[2].is_ident("test")
            });
            if bare_test || cfg_test {
                // Skip any further attributes, then span the item body.
                let mut j = close + 1;
                while j + 1 < toks.len()
                    && toks[j].is_punct("#")
                    && toks[j + 1].kind == Kind::Open(Delim::Bracket)
                {
                    match delims.get(&(j + 1)) {
                        Some(&c) => j = c + 1,
                        None => break,
                    }
                }
                if let Some((_, body_close)) = block_after(toks, delims, j) {
                    out.push((toks[i].line, toks[body_close].line));
                    i = body_close + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// A function item: its name and body token span (open/close indices).
struct FnSpan {
    name: String,
    body: (usize, usize),
}

fn fn_spans(toks: &[Token], delims: &HashMap<usize, usize>) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue; // `fn(...)` pointer type, not an item
        }
        // Parameter lists and bracketed return types never open the
        // body; a `;` first is a trait declaration.
        if let Some(body) = block_after(toks, delims, i + 2) {
            out.push(FnSpan {
                name: name_tok.text.clone(),
                body,
            });
        }
    }
    out
}

/// The brace block opened by the first `{` at or after token `from`,
/// skipping whole parenthesised and bracketed groups on the way; `None`
/// when a `;` comes first (an item without a body).
fn block_after(
    toks: &[Token],
    delims: &HashMap<usize, usize>,
    from: usize,
) -> Option<(usize, usize)> {
    let mut j = from;
    while j < toks.len() {
        match toks[j].kind {
            Kind::Open(Delim::Brace) => return delims.get(&j).map(|&close| (j, close)),
            Kind::Open(_) => j = delims.get(&j).copied().unwrap_or(j) + 1,
            Kind::Punct if toks[j].text == ";" => return None,
            _ => j += 1,
        }
    }
    None
}

/// `self . FIELD . METHOD (` starting at token `i`; returns the pair.
fn field_method_at(toks: &[Token], i: usize) -> Option<(&str, &str)> {
    if toks.len() < i + 6 {
        return None;
    }
    (toks[i].is_ident("self")
        && toks[i + 1].is_punct(".")
        && toks[i + 2].kind == Kind::Ident
        && toks[i + 3].is_punct(".")
        && toks[i + 4].kind == Kind::Ident
        && toks[i + 5].kind == Kind::Open(Delim::Paren))
    .then(|| (toks[i + 2].text.as_str(), toks[i + 4].text.as_str()))
}

/// `self . METHOD (` starting at token `i`; returns the method name.
fn self_call_at(toks: &[Token], i: usize) -> Option<&str> {
    if toks.len() < i + 4 {
        return None;
    }
    (toks[i].is_ident("self")
        && toks[i + 1].is_punct(".")
        && toks[i + 2].kind == Kind::Ident
        && toks[i + 3].kind == Kind::Open(Delim::Paren))
    .then(|| toks[i + 2].text.as_str())
}

// ---------------------------------------------------------------------
// Lint: no-unwrap-in-service
// ---------------------------------------------------------------------

fn lint_no_unwrap(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for b in 1..ctx.toks.len().saturating_sub(1) {
        if ctx.toks[b - 1].is_punct(".")
            && (ctx.toks[b].is_ident("unwrap") || ctx.toks[b].is_ident("expect"))
            && ctx.toks[b + 1].kind == Kind::Open(Delim::Paren)
        {
            let line = ctx.toks[b].line;
            if ctx.in_tests(line) || ctx.allowed(NO_UNWRAP, b) {
                continue;
            }
            findings.push(ctx.finding(
                NO_UNWRAP,
                line,
                format!(
                    "`.{}()` in service-layer non-test code: convert to a typed error, or \
                     justify the invariant with `// {} {} <why it cannot fail>`",
                    ctx.toks[b].text, ALLOW_MARKER, NO_UNWRAP
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Lint: one-snapshot-per-path
// ---------------------------------------------------------------------

fn lint_one_snapshot(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let (open, close) = f.body;
        let mut sites: Vec<u32> = Vec::new();
        for i in open + 1..close {
            let tok = &ctx.toks[i];
            if tok.kind != Kind::Ident || !SNAPSHOT_FNS.contains(&tok.text.as_str()) {
                continue;
            }
            // A call (next token `(`) through a receiver or path (prev
            // token `.` or `::`) — declarations and bare fn references
            // do not acquire.
            let is_call = ctx.toks[i + 1].kind == Kind::Open(Delim::Paren);
            let through = ctx.toks[i - 1].is_punct(".") || ctx.toks[i - 1].is_punct("::");
            if !is_call || !through || ctx.allowed(ONE_SNAPSHOT, i) {
                continue;
            }
            sites.push(tok.line);
        }
        if sites.len() >= 2 {
            findings.push(ctx.finding(
                ONE_SNAPSHOT,
                sites[1],
                format!(
                    "fn `{}` acquires {} snapshots; plan and execution must share one snapshot \
                     (the PR 3 epoch-race class) — thread a single snapshot through, or justify \
                     disjoint branches with `// {} {} <reason>`",
                    f.name,
                    sites.len(),
                    ALLOW_MARKER,
                    ONE_SNAPSHOT
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Lint: relaxed-ok-comment
// ---------------------------------------------------------------------

fn lint_relaxed(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for i in 1..ctx.toks.len() {
        if ctx.toks[i].is_ident("Relaxed") && ctx.toks[i - 1].is_punct("::") {
            let line = ctx.toks[i].line;
            if ctx.in_tests(line) || ctx.hatched(RELAXED_MARKER, "", i) || ctx.allowed(RELAXED, i) {
                continue;
            }
            findings.push(ctx.finding(
                RELAXED,
                line,
                format!(
                    "`Ordering::Relaxed` without a `// {} <why no ordering is needed>` \
                     justification",
                    RELAXED_MARKER
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Lint: wcoj-buffer-recycle
// ---------------------------------------------------------------------

/// Trie level buffers shuttle between the open-level `stack` and the
/// `spare` recycle pool (the leapfrog's allocation-free descent). The
/// lint enforces the conservation law per function: every
/// `self.stack.pop(...)` must be matched by a later `self.spare.push(...)`
/// in the same body, every `self.spare.pop(...)` by a later
/// `self.stack.push(...)` — and no `return` may sit between a take and
/// its give (an early exit there drops the buffer on the floor, and the
/// pool never refills: a slow leak per binding step).
fn lint_wcoj_recycle(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let (open, close) = f.body;
        let sites: Vec<(usize, &str, &str)> = (open + 1..close)
            .filter_map(|i| field_method_at(ctx.toks, i).map(|(field, m)| (i, field, m)))
            .collect();
        for (take_field, give_field) in
            [(RECYCLE_STACK, RECYCLE_POOL), (RECYCLE_POOL, RECYCLE_STACK)]
        {
            let calls = |field: &str, method: &str| -> Vec<usize> {
                sites
                    .iter()
                    .filter(|&&(_, f, m)| f == field && m == method)
                    .map(|&(i, _, _)| i)
                    .collect()
            };
            let mut gives = calls(give_field, "push");
            for take in calls(take_field, "pop") {
                if ctx.allowed(WCOJ_RECYCLE, take) {
                    continue;
                }
                // Pair with the first give after the take.
                let Some(pos) = gives.iter().position(|&g| g > take) else {
                    findings.push(ctx.finding(
                        WCOJ_RECYCLE,
                        ctx.toks[take].line,
                        format!(
                            "fn `{}` pops a level buffer off `self.{take_field}` but never \
                             pushes one back to `self.{give_field}`: the buffer leaks and the \
                             recycle pool starves — return it, or justify with \
                             `// {} {} <reason>`",
                            f.name, ALLOW_MARKER, WCOJ_RECYCLE
                        ),
                    ));
                    continue;
                };
                let give = gives.remove(pos);
                // An exit between the take and its give drops the buffer.
                for j in take + 6..give {
                    if ctx.toks[j].is_ident("return") && !ctx.allowed(WCOJ_RECYCLE, j) {
                        findings.push(ctx.finding(
                            WCOJ_RECYCLE,
                            ctx.toks[j].line,
                            format!(
                                "fn `{}` returns between `self.{take_field}.pop()` and \
                                 `self.{give_field}.push()`: this exit path leaks the level \
                                 buffer",
                                f.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint: budget-checkpoint
// ---------------------------------------------------------------------

/// Streaming hot paths must stay interruptible: a `loop`/`while` that
/// never consults the query budget outlives every deadline and ignores
/// cancellation (the PR 8 streaming-core contract — checkpoints at
/// stream-pull granularity *and* inside the join inner loops). The lint
/// requires a `budget.check()` call lexically inside each loop (the
/// keyword through its body close; a check in the loop condition
/// counts), with the usual hatch for planning-time loops whose trip
/// count is bounded by the query size, not the data.
fn lint_budget_checkpoint(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let (open, close) = f.body;
        for i in open + 1..close {
            let kw = &ctx.toks[i];
            if !kw.is_ident("loop") && !kw.is_ident("while") {
                continue;
            }
            // The loop body: the first brace after the keyword (header
            // parens/brackets are skipped whole — Rust bans brace
            // expressions in loop headers, so this brace is the body).
            let Some((_, body_close)) = block_after(ctx.toks, &ctx.delims, i + 1) else {
                continue;
            };
            let checked = (i..body_close).any(|k| {
                ctx.toks[k].is_ident("budget")
                    && ctx.toks[k + 1].is_punct(".")
                    && ctx.toks[k + 2].is_ident("check")
            });
            if checked || ctx.allowed(BUDGET_CHECKPOINT, i) {
                continue;
            }
            findings.push(ctx.finding(
                BUDGET_CHECKPOINT,
                kw.line,
                format!(
                    "`{}` in fn `{}` never checkpoints the query budget: this loop outlives \
                     every deadline and ignores cancellation — call `budget.check()?` inside \
                     it, or justify with `// {} {} <reason>`",
                    kw.text, f.name, ALLOW_MARKER, BUDGET_CHECKPOINT
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Lint: must-use-snapshot
// ---------------------------------------------------------------------

fn lint_must_use(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len().saturating_sub(1) {
        if !ctx.toks[i].is_ident("struct") && !ctx.toks[i].is_ident("enum") {
            continue;
        }
        let name_tok = &ctx.toks[i + 1];
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let name = name_tok.text.as_str();
        if !MUST_USE_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        let line = name_tok.line;
        if ctx.in_tests(line) || ctx.allowed(MUST_USE, i + 1) {
            continue;
        }
        if has_must_use_attr(ctx, i) {
            continue;
        }
        findings.push(ctx.finding(
            MUST_USE,
            line,
            format!(
                "type `{name}` names a snapshot/plan/guard but is not `#[must_use]`: a silently \
                 dropped value of it is a query that never ran or a pin that never held"
            ),
        ));
    }
}

/// Walks backward from the `struct`/`enum` keyword over visibility and
/// attributes, checking any `#[...]` group for `must_use`.
fn has_must_use_attr(ctx: &FileCtx<'_>, kw: usize) -> bool {
    let mut i = kw;
    while i > 0 {
        i -= 1;
        let t = &ctx.toks[i];
        if t.is_ident("pub") {
            continue;
        }
        if t.kind == Kind::Close(Delim::Paren) {
            // `pub(crate)` and friends: rewind to the open.
            let mut depth = 1;
            while i > 0 && depth > 0 {
                i -= 1;
                match ctx.toks[i].kind {
                    Kind::Close(Delim::Paren) => depth += 1,
                    Kind::Open(Delim::Paren) => depth -= 1,
                    _ => {}
                }
            }
            continue;
        }
        if t.kind == Kind::Close(Delim::Bracket) {
            // An attribute group: rewind to its open, check for the
            // marker, and keep walking (multiple attributes stack).
            let mut depth = 1;
            let close = i;
            while i > 0 && depth > 0 {
                i -= 1;
                match ctx.toks[i].kind {
                    Kind::Close(Delim::Bracket) => depth += 1,
                    Kind::Open(Delim::Bracket) => depth -= 1,
                    _ => {}
                }
            }
            if ctx.toks[i..close].iter().any(|t| t.is_ident("must_use")) {
                return true;
            }
            // Expect the `#` before the bracket; consume it if present.
            if i > 0 && ctx.toks[i - 1].is_punct("#") {
                i -= 1;
            }
            continue;
        }
        break;
    }
    false
}

// ---------------------------------------------------------------------
// Lint: io-ordering
// ---------------------------------------------------------------------

/// Calls that make a write visible to recovery.
const PUBLISH_FNS: [&str; 2] = ["rename", "publish"];
/// Calls that make written data durable first.
const SYNC_FNS: [&str; 4] = ["fsync", "sync_all", "sync_data", "dir_sync"];

/// Persistence code must sync before it publishes: a `rename` (or a
/// method named `publish`) with no `fsync`/`sync_all`/`sync_data`/
/// `dir_sync` call earlier in the same function body is exactly the
/// rename-before-fsync crash bug the `fsim` model checker catches
/// dynamically — a crash can persist the new name pointing at data
/// still in the page cache.
fn lint_io_ordering(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let (open, close) = f.body;
        let mut synced = false;
        for i in open + 1..close {
            let tok = &ctx.toks[i];
            if tok.kind != Kind::Ident
                || ctx.toks[i + 1].kind != Kind::Open(Delim::Paren)
                || ctx.toks[i - 1].is_ident("fn")
            {
                continue;
            }
            let name = tok.text.as_str();
            if SYNC_FNS.contains(&name) {
                synced = true;
            } else if PUBLISH_FNS.contains(&name) && !synced {
                if ctx.allowed(IO_ORDERING, i) {
                    continue;
                }
                findings.push(ctx.finding(
                    IO_ORDERING,
                    tok.line,
                    format!(
                        "fn `{}` publishes via `{name}()` with no dominating sync: a crash can \
                         persist the new name before the data it points to (the \
                         rename-before-fsync class) — fsync the file and dir_sync the directory \
                         first, or justify with `// {} {} <reason>`",
                        f.name, ALLOW_MARKER, IO_ORDERING
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint: unused-hatch
// ---------------------------------------------------------------------

/// Every `analyzer-allow:` comment must silence something. A hatch no
/// lint consulted during the scan — because the violation it excused
/// was fixed, the lint name is misspelled, or the file fell out of the
/// lint's scope — is reported as a warning so fixes cannot leave
/// silencers behind. Must run after every other lint (including the
/// cross-file pass), since any of them may be the consumer.
fn lint_unused_hatches(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let used = ctx.used_hatches.borrow();
    let mut lines: Vec<(&u32, &&str)> = ctx.comment_lines.iter().collect();
    lines.sort();
    for (&line, text) in lines {
        let Some(tail) = text.trim_start().strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        if ctx.in_tests(line) || used.contains(&line) {
            continue;
        }
        let name = tail
            .split_whitespace()
            .next()
            .unwrap_or("<missing lint name>");
        findings.push(ctx.warning(
            UNUSED_HATCH,
            line,
            format!(
                "stale `// {ALLOW_MARKER} {name}` hatch: no `{name}` violation is silenced \
                 here — delete it, or fix the lint name"
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// Lints: no-lock-reentry and lock-order-cycle (one cross-file analysis)
// ---------------------------------------------------------------------

/// Methods whose call on a `self.FIELD` acquires that field's lock.
const ACQUIRE_METHODS: [&str; 3] = ["read", "write", "lock"];

/// `self . FIELD . {read|write|lock} (` starting at token `i`; returns
/// the field and the method.
fn acquisition_at(toks: &[Token], i: usize) -> Option<(&str, &str)> {
    field_method_at(toks, i).filter(|(_, method)| ACQUIRE_METHODS.contains(method))
}

/// `"store/src/cache.rs"` → `"cache"`.
fn file_stem(rel: &str) -> &str {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// The one lock analysis, over every file in the [`LOCK_ORDER`] scope:
///
/// 1. build a symbol graph: each function's *lock set* — the lock
///    fields (`self.FIELD.{read|write|lock}()`) it may acquire,
///    directly or through resolved calls. Same-file calls resolve via
///    `self.method()`; cross-file calls via `self.<field>.<method>()`
///    where `<field>` names the defining file's stem (the workspace
///    convention: `self.cache.clear()` lives in `cache.rs`). Anything
///    else stays unresolved — under-approximating edges keeps the lints
///    free of std-method false positives (`.len()`, `.get()`, ...);
/// 2. add an edge `A → B` whenever `B` is acquired (directly or via a
///    resolved call) inside the live scope of a guard for `A`. Locks
///    are named `<file-stem>.<field>`. A self-edge under an exclusive
///    guard (`write`/`lock`) is a [`LOCK_REENTRY`] finding at the
///    re-acquiring site — a deadlock with the std-backed locks; a shared
///    (`read`) guard may be re-read;
/// 3. reject any cycle among the other edges. Each cycle is reported
///    once, at the edge out of its lexicographically smallest lock, and
///    is hatchable there.
fn lint_locks(ctxs: &[FileCtx<'_>], findings: &mut Vec<Finding>) {
    let scoped: Vec<&FileCtx<'_>> = ctxs
        .iter()
        .filter(|c| in_scope(LOCK_ORDER, c.rel))
        .collect();
    // Where is `fn name` defined? (file position in `scoped` → fn idx)
    let mut defs: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, ctx) in scoped.iter().enumerate() {
        for (si, f) in ctx.fns.iter().enumerate() {
            defs.entry(f.name.as_str()).or_default().push((fi, si));
        }
    }
    // Resolve the call starting at token `i` of file `fi`, if any.
    let resolve = |fi: usize, i: usize| -> Option<(usize, usize)> {
        let toks = scoped[fi].toks;
        let (target, name) = match field_method_at(toks, i) {
            Some((_, method)) if ACQUIRE_METHODS.contains(&method) => return None,
            Some((field, method)) => (
                scoped.iter().position(|c| file_stem(c.rel) == field)?,
                method,
            ),
            None => (fi, self_call_at(toks, i)?),
        };
        defs.get(name)?
            .iter()
            .find(|&&(dfi, _)| dfi == target)
            .copied()
    };
    let lock_id = |fi: usize, field: &str| format!("{}.{field}", file_stem(scoped[fi].rel));
    // Fixpoint: each function's transitive lock set, across files.
    let mut lock_sets: HashMap<(usize, usize), BTreeSet<String>> = HashMap::new();
    for (fi, ctx) in scoped.iter().enumerate() {
        for (si, f) in ctx.fns.iter().enumerate() {
            let set = (f.body.0 + 1..f.body.1)
                .filter_map(|i| acquisition_at(ctx.toks, i))
                .map(|(field, _)| lock_id(fi, field))
                .collect();
            lock_sets.insert((fi, si), set);
        }
    }
    loop {
        let mut changed = false;
        for (fi, ctx) in scoped.iter().enumerate() {
            for (si, f) in ctx.fns.iter().enumerate() {
                let inherited: BTreeSet<String> = (f.body.0 + 1..f.body.1)
                    .filter_map(|i| resolve(fi, i))
                    .flat_map(|callee| lock_sets[&callee].iter().cloned())
                    .collect();
                let entry = lock_sets.entry((fi, si)).or_default();
                for l in inherited {
                    changed |= entry.insert(l);
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Edges: B acquired while A's guard is live. Site = (file, token).
    let mut edges: BTreeMap<String, Vec<(String, usize, usize)>> = BTreeMap::new();
    for (fi, ctx) in scoped.iter().enumerate() {
        for f in &ctx.fns {
            let (open, close) = f.body;
            for i in open + 1..close {
                let Some((field, method)) = acquisition_at(ctx.toks, i) else {
                    continue;
                };
                let held = lock_id(fi, field);
                let exclusive = method != "read";
                for j in i + 6..scope_end(ctx, open, close, i) {
                    let (acquired, callee) = match acquisition_at(ctx.toks, j) {
                        Some((f2, _)) => (BTreeSet::from([lock_id(fi, f2)]), None),
                        None => match resolve(fi, j) {
                            Some(c) => (lock_sets[&c].clone(), Some(c)),
                            None => continue,
                        },
                    };
                    for next in acquired {
                        if next != held {
                            edges.entry(held.clone()).or_default().push((next, fi, j));
                        } else if exclusive
                            && in_scope(LOCK_REENTRY, ctx.rel)
                            && !ctx.allowed(LOCK_REENTRY, j)
                        {
                            let how = match callee {
                                None => format!("re-acquires `self.{field}`"),
                                Some((cfi, csi)) => format!(
                                    "calls `{}()` — which acquires `self.{field}` —",
                                    scoped[cfi].fns[csi].name
                                ),
                            };
                            findings.push(ctx.finding(
                                LOCK_REENTRY,
                                ctx.toks[j].line,
                                format!(
                                    "{how} while fn `{}` still holds its exclusive guard \
                                     (deadlock with the vendored std-backed locks)",
                                    f.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    // Cycle rejection: report each cycle once, at the edge out of its
    // smallest lock.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (src, outs) in &edges {
        for (dst, fi, tok) in outs {
            let Some(path) = shortest_path(&edges, dst, src) else {
                continue;
            };
            // `path` is `dst`-exclusive and `src`-inclusive; the cycle
            // node list is src, dst, ..., last-before-src.
            let mut cycle = vec![src.clone(), dst.clone()];
            cycle.extend(path[..path.len() - 1].iter().cloned());
            if cycle.iter().min() != Some(src) || reported.contains(&cycle) {
                continue;
            }
            let ctx = scoped[*fi];
            if ctx.allowed(LOCK_ORDER, *tok) {
                reported.insert(cycle);
                continue;
            }
            let rendered = cycle
                .iter()
                .chain(std::iter::once(src))
                .cloned()
                .collect::<Vec<_>>()
                .join(" -> ");
            findings.push(ctx.finding(
                LOCK_ORDER,
                ctx.toks[*tok].line,
                format!(
                    "lock-order cycle {rendered}: this edge acquires `{dst}` while holding \
                     `{src}`, but another path acquires them in the opposite order — pick one \
                     global order, or justify with `// {} {} <reason>`",
                    ALLOW_MARKER, LOCK_ORDER
                ),
            ));
            reported.insert(cycle);
        }
    }
}

/// Where the guard taken at token `acq` stops being live, approximated:
/// a `let`-bound guard lives to the end of its enclosing block (or an
/// explicit `drop(<name>)`); a temporary (no `let`, or an `if let` /
/// `while let` scrutinee) lives to the end of the statement.
fn scope_end(ctx: &FileCtx<'_>, body_open: usize, body_close: usize, acq: usize) -> usize {
    // Walk back to the statement start, looking for `let` (and whether
    // it is an `if let` / `while let`).
    let mut is_let = false;
    let mut binding: Option<&str> = None;
    let mut j = acq;
    while j > body_open + 1 {
        j -= 1;
        let t = &ctx.toks[j];
        if t.is_punct(";") || matches!(t.kind, Kind::Open(Delim::Brace) | Kind::Close(Delim::Brace))
        {
            break;
        }
        if t.is_ident("let") {
            let conditional = ctx.toks[j - 1].is_ident("if") || ctx.toks[j - 1].is_ident("while");
            if !conditional {
                is_let = true;
                // `let [mut] NAME = ...`: a plain binding we can track
                // through `drop(NAME)`. Destructuring bindings get block
                // scope without drop tracking.
                let mut k = j + 1;
                if ctx.toks[k].is_ident("mut") {
                    k += 1;
                }
                if ctx.toks[k].kind == Kind::Ident && ctx.toks[k + 1].is_punct("=") {
                    binding = Some(ctx.toks[k].text.as_str());
                }
            }
            break;
        }
    }
    if is_let {
        // Innermost block enclosing the acquisition.
        let mut end = body_close;
        let mut best_open = body_open;
        for (&o, &c) in &ctx.delims {
            if ctx.toks[o].kind == Kind::Open(Delim::Brace) && o < acq && acq < c && o > best_open {
                best_open = o;
                end = c;
            }
        }
        // An explicit early drop truncates the scope.
        if let Some(name) = binding {
            let mut k = acq;
            while k + 3 < end {
                if ctx.toks[k].is_ident("drop")
                    && ctx.toks[k + 1].kind == Kind::Open(Delim::Paren)
                    && ctx.toks[k + 2].is_ident(name)
                    && ctx.toks[k + 3].kind == Kind::Close(Delim::Paren)
                {
                    return k;
                }
                k += 1;
            }
        }
        end
    } else {
        // Temporary guard: to the end of the statement — the next `;`
        // at this depth, or the close of the first block the statement
        // opens (`if let ... { ... }`), whichever comes first.
        let mut depth = 0i32;
        let mut k = acq;
        while k < body_close {
            match ctx.toks[k].kind {
                Kind::Open(Delim::Brace) if depth == 0 && k > acq => {
                    return ctx.delims.get(&k).copied().unwrap_or(body_close);
                }
                Kind::Open(_) => depth += 1,
                Kind::Close(_) => {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                }
                Kind::Punct if ctx.toks[k].text == ";" && depth == 0 => return k,
                _ => {}
            }
            k += 1;
        }
        body_close
    }
}

/// BFS shortest node path `from → … → to` over the edge map, inclusive
/// of `to`, exclusive of `from`. `None` when unreachable.
fn shortest_path(
    edges: &BTreeMap<String, Vec<(String, usize, usize)>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        for (next, _, _) in edges.get(node).into_iter().flatten() {
            if next != from && !prev.contains_key(next.as_str()) {
                prev.insert(next, node);
                if next == to {
                    let mut path = vec![to.to_string()];
                    let mut at = to;
                    while let Some(&p) = prev.get(at) {
                        if p == from {
                            break;
                        }
                        path.push(p.to_string());
                        at = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<Finding> {
        scan_source(rel, src)
    }

    #[test]
    fn unwrap_flagged_only_in_service_files_outside_tests() {
        let src = r#"
            fn hot(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) -> u32 { x.unwrap() }
            }
        "#;
        let f = scan("crates/store/src/service.rs", src);
        assert_eq!(f.iter().filter(|f| f.lint == NO_UNWRAP).count(), 1);
        assert_eq!(f[0].line, 2);
        // The same text in a non-service file is out of scope.
        assert!(scan("crates/rdf/src/term.rs", src)
            .iter()
            .all(|f| f.lint != NO_UNWRAP));
    }

    #[test]
    fn allow_comment_needs_a_reason() {
        let hatched = r#"
            fn hot(x: Option<u32>) -> u32 {
                // analyzer-allow: no-unwrap-in-service the caller checked is_some
                x.unwrap()
            }
        "#;
        assert!(scan("store/src/service.rs", hatched).is_empty());
        let bare = r#"
            fn hot(x: Option<u32>) -> u32 {
                // analyzer-allow: no-unwrap-in-service
                x.unwrap()
            }
        "#;
        assert_eq!(scan("store/src/service.rs", bare).len(), 1, "no reason");
    }

    #[test]
    fn allow_comment_must_name_its_lint_exactly() {
        // A misspelled or punctuated name silences nothing: the unwrap
        // is flagged and the hatch is stale.
        for name in ["no-unwrap-in-services", "no-unwrap-in-service."] {
            let src = format!(
                "fn hot(x: Option<u32>) -> u32 {{\n    // analyzer-allow: {name}\n    x.unwrap()\n}}\n"
            );
            let got: Vec<_> = scan("store/src/service.rs", &src)
                .iter()
                .map(|f| (f.lint, f.line))
                .collect();
            assert_eq!(got, [(UNUSED_HATCH, 2), (NO_UNWRAP, 3)], "`{name}`");
        }
    }

    #[test]
    fn relaxed_needs_justification() {
        let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }";
        let f = scan("crates/rdf/src/any.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, RELAXED);
        let ok = "fn f(c: &AtomicU64) -> u64 {\n    // relaxed-ok: monotonic counter\n    c.load(Ordering::Relaxed)\n}";
        assert!(scan("crates/rdf/src/any.rs", ok).is_empty());
    }

    #[test]
    fn two_snapshots_in_one_fn_flagged() {
        let src = r#"
            fn plan_then_run(&self) {
                let plan = self.read_snapshot();
                let out = self.read_snapshot();
            }
            fn fine(&self) {
                let snap = self.read_snapshot();
            }
        "#;
        let f = scan("crates/core/src/engine.rs", src);
        assert_eq!(f.iter().filter(|f| f.lint == ONE_SNAPSHOT).count(), 1);
        assert_eq!(f[0].line, 4, "reported at the second acquisition");
    }

    #[test]
    fn snapshot_declarations_are_not_acquisitions() {
        let src = r#"
            fn read_snapshot(&self) -> Snap { self.snapshot() }
        "#;
        assert!(scan("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_reentry_direct_and_via_method() {
        let src = r#"
            impl S {
                fn epoch(&self) -> u64 { self.inner.read().epoch }
                fn bad_direct(&self) {
                    let mut g = self.inner.write();
                    let x = self.inner.read();
                }
                fn bad_via_method(&self) {
                    let mut g = self.inner.write();
                    let e = self.epoch();
                }
                fn fine_after_drop(&self) {
                    let mut g = self.inner.write();
                    drop(g);
                    let e = self.epoch();
                }
                fn fine_statement_scope(&self) {
                    *self.inner.write() = 1;
                    let e = self.epoch();
                }
            }
        "#;
        let f = scan("store/src/service.rs", src);
        let reentries: Vec<_> = f.iter().filter(|f| f.lint == LOCK_REENTRY).collect();
        assert_eq!(reentries.len(), 2, "{reentries:?}");
        assert_eq!(reentries[0].line, 6);
        assert_eq!(reentries[1].line, 10);
    }

    #[test]
    fn shared_guard_rereading_its_lock_is_not_a_reentry() {
        let src = r#"
            impl S {
                fn epoch(&self) -> u64 { self.inner.read().epoch }
                fn both(&self) -> u64 {
                    let g = self.inner.read();
                    let again = self.inner.read();
                    g.epoch + again.epoch + self.epoch()
                }
            }
        "#;
        let f = scan("store/src/service.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn transitive_lock_sets_propagate() {
        let src = r#"
            impl S {
                fn snapshot(&self) -> u64 { self.inner.read().epoch }
                fn stats(&self) -> u64 { self.snapshot() }
                fn bad(&self) {
                    let mut g = self.inner.write();
                    let s = self.stats();
                }
            }
        "#;
        let f = scan("store/src/service.rs", src);
        assert_eq!(f.iter().filter(|f| f.lint == LOCK_REENTRY).count(), 1);
    }

    #[test]
    fn wcoj_recycle_enforces_the_buffer_conservation_law() {
        // The real open()/up() shape: every pop matched by the opposite
        // push — clean.
        let ok = r#"
            fn open(&mut self) {
                let sub = self.spare.pop().unwrap_or_default();
                self.stack.push(std::mem::replace(&mut self.runs, sub));
            }
            fn up(&mut self) {
                let parent = self.stack.pop().expect("up without open");
                self.spare.push(std::mem::replace(&mut self.runs, parent));
            }
        "#;
        assert!(scan("crates/store/src/wcoj.rs", ok).is_empty());
        // A popped buffer that never returns to the pool leaks.
        let leak = r#"
            fn up(&mut self) {
                let parent = self.stack.pop().expect("up without open");
                self.runs = parent;
            }
        "#;
        let f = scan("crates/store/src/wcoj.rs", leak);
        assert_eq!(f.iter().filter(|f| f.lint == WCOJ_RECYCLE).count(), 1);
        assert_eq!(f[0].line, 3);
        // An early return between the take and the give leaks too.
        let bail = r#"
            fn open(&mut self, empty: bool) {
                let sub = self.spare.pop().unwrap_or_default();
                if empty {
                    return;
                }
                self.stack.push(std::mem::replace(&mut self.runs, sub));
            }
        "#;
        let f = scan("crates/store/src/wcoj.rs", bail);
        assert_eq!(f.iter().filter(|f| f.lint == WCOJ_RECYCLE).count(), 1);
        assert_eq!(f[0].line, 5, "reported at the leaking exit");
        // The hatch silences it, with a reason.
        let hatched = r#"
            fn into_parent(&mut self) -> Vec<u32> {
                // analyzer-allow: wcoj-buffer-recycle the caller owns the
                // buffer and recycles it itself
                self.stack.pop().expect("into_parent without open")
            }
        "#;
        assert!(scan("crates/store/src/wcoj.rs", hatched).is_empty());
        // Out-of-scope files are not checked.
        assert!(scan("crates/store/src/service.rs", leak)
            .iter()
            .all(|f| f.lint != WCOJ_RECYCLE));
        // Unmatched pushes (a fresh buffer entering the cycle) are fine.
        let fresh = r#"
            fn seed(&mut self, runs: Vec<u32>) {
                self.stack.push(runs);
            }
        "#;
        assert!(scan("crates/store/src/wcoj.rs", fresh).is_empty());
    }

    #[test]
    fn budget_checkpoint_required_in_streaming_hot_paths() {
        // A checkpointed pull loop and a `while let` whose body checks
        // through a receiver are both clean.
        let ok = r#"
            fn pull(&mut self) -> Result<Option<u32>, ExecError> {
                loop {
                    self.budget.check()?;
                    if self.done() { return Ok(None); }
                }
            }
            fn drain(&mut self, budget: &QueryBudget) -> Result<(), ExecError> {
                while let Some(x) = self.next() {
                    budget.check()?;
                }
                Ok(())
            }
        "#;
        assert!(scan("crates/store/src/join.rs", ok)
            .iter()
            .all(|f| f.lint != BUDGET_CHECKPOINT));
        // A bare loop and a bare while are each one finding.
        let bare = r#"
            fn spin(&mut self) {
                loop {
                    if self.done() { break; }
                }
                while self.more() {
                    self.step();
                }
            }
        "#;
        let f = scan("crates/store/src/shard.rs", bare);
        let hits: Vec<_> = f.iter().filter(|f| f.lint == BUDGET_CHECKPOINT).collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[1].line, 6);
        // The hatch silences it, with a reason; test code is out of scope.
        let hatched = r#"
            fn order(&self) {
                // analyzer-allow: budget-checkpoint planning-time loop,
                // bounded by the query size
                while self.more() {
                    self.step();
                }
            }
            #[cfg(test)]
            mod tests {
                fn t() { loop { break; } }
            }
        "#;
        assert!(scan("crates/store/src/wcoj.rs", hatched)
            .iter()
            .all(|f| f.lint != BUDGET_CHECKPOINT));
        // Files outside the streaming hot paths are not checked.
        assert!(scan("crates/store/src/service.rs", bare)
            .iter()
            .all(|f| f.lint != BUDGET_CHECKPOINT));
    }

    fn scan_pair(a: (&str, &str), b: (&str, &str)) -> Vec<Finding> {
        scan_sources(&[
            (a.0.to_string(), a.1.to_string()),
            (b.0.to_string(), b.1.to_string()),
        ])
    }

    const SHARD_SIDE: &str = r#"
        impl Shard {
            fn routing_epoch(&self) -> u64 { self.routing.read().epoch }
            fn rebalance(&self) {
                let g = self.routing.write();
                self.cache.purge_slots();
            }
        }
    "#;

    #[test]
    fn lock_order_cycle_detected_across_files() {
        // shard holds `routing` then enters cache (`slots`); cache
        // holds `slots` then enters shard (`routing`): a cross-file
        // ABBA no single-file analysis can see.
        let cache_cyclic = r#"
            impl Cache {
                fn purge_slots(&self) { let g = self.slots.lock(); }
                fn refill(&self) {
                    let g = self.slots.lock();
                    let e = self.shard.routing_epoch();
                }
            }
        "#;
        let f = scan_pair(
            ("store/src/shard.rs", SHARD_SIDE),
            ("store/src/cache.rs", cache_cyclic),
        );
        let cycles: Vec<_> = f.iter().filter(|f| f.lint == LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{f:#?}");
        assert_eq!(
            cycles[0].file, "store/src/cache.rs",
            "reported at the smallest lock's edge"
        );
        assert!(
            cycles[0].message.contains("cache.slots"),
            "{}",
            cycles[0].message
        );
        assert!(
            cycles[0].message.contains("shard.routing"),
            "{}",
            cycles[0].message
        );

        // Dropping the back edge leaves a DAG: clean.
        let cache_dag = r#"
            impl Cache {
                fn purge_slots(&self) { let g = self.slots.lock(); }
            }
        "#;
        let f = scan_pair(
            ("store/src/shard.rs", SHARD_SIDE),
            ("store/src/cache.rs", cache_dag),
        );
        assert!(f.iter().all(|f| f.lint != LOCK_ORDER), "{f:#?}");
    }

    #[test]
    fn lock_order_cycle_is_hatchable_at_the_reported_edge() {
        let cache_hatched = r#"
            impl Cache {
                fn purge_slots(&self) { let g = self.slots.lock(); }
                fn refill(&self) {
                    let g = self.slots.lock();
                    // analyzer-allow: lock-order-cycle the shard side
                    // never runs concurrently with refill (startup only)
                    let e = self.shard.routing_epoch();
                }
            }
        "#;
        let f = scan_pair(
            ("store/src/shard.rs", SHARD_SIDE),
            ("store/src/cache.rs", cache_hatched),
        );
        assert!(
            f.iter()
                .all(|f| f.lint != LOCK_ORDER && f.lint != UNUSED_HATCH),
            "hatched and the hatch counts as used: {f:#?}"
        );
    }

    #[test]
    fn io_ordering_requires_a_sync_before_publish() {
        let bad = r#"
            fn publish_segment(&self, dir: &Dir) -> io::Result<()> {
                self.file.write_all(&self.bytes)?;
                dir.rename("seg.tmp", "seg-1")
            }
        "#;
        let f = scan_source("store/src/persist.rs", bad);
        assert_eq!(
            f.iter().filter(|f| f.lint == IO_ORDERING).count(),
            1,
            "{f:#?}"
        );
        assert_eq!(f[0].line, 4);

        let good = r#"
            fn publish_segment(&self, dir: &Dir) -> io::Result<()> {
                self.file.write_all(&self.bytes)?;
                self.file.sync_all()?;
                dir.rename("seg.tmp", "seg-1")?;
                dir.dir_sync()
            }
        "#;
        assert!(scan_source("store/src/persist.rs", good).is_empty());

        // Out-of-scope files are not checked.
        assert!(scan_source("store/src/service.rs", bad)
            .iter()
            .all(|f| f.lint != IO_ORDERING));
    }

    #[test]
    fn stale_hatches_are_warnings() {
        // The unwrap this hatch once excused is gone: the hatch is
        // stale and must be reported — as a warning, not an error.
        let src = r#"
            fn hot(x: Option<u32>) -> u32 {
                // analyzer-allow: no-unwrap-in-service the caller checked is_some
                x.unwrap_or(0)
            }
        "#;
        let f = scan("store/src/service.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].lint, UNUSED_HATCH);
        assert_eq!(f[0].severity, Severity::Warning);
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("no-unwrap-in-service"),
            "{}",
            f[0].message
        );
        assert!(f[0].to_string().contains("warning:"), "{}", f[0]);

        // A consulted hatch is not stale — even in the same file as a
        // stale one.
        let mixed = r#"
            fn hot(x: Option<u32>) -> u32 {
                // analyzer-allow: no-unwrap-in-service the caller checked is_some
                x.unwrap()
            }
            fn cold(y: u32) -> u32 {
                // analyzer-allow: budget-checkpoint nothing loops here anymore
                y + 1
            }
        "#;
        let f = scan("store/src/service.rs", mixed);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].lint, UNUSED_HATCH);
        assert_eq!(f[0].line, 7);

        // Hatches in test code are out of scope, like the lints.
        let in_tests = r#"
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) -> u32 {
                    // analyzer-allow: no-unwrap-in-service leftover
                    x.unwrap_or(0)
                }
            }
        "#;
        assert!(scan("store/src/service.rs", in_tests).is_empty());
    }

    /// The scope column of the README's lint catalog lists each lint's
    /// fragments exactly as [`LINTS`] has them.
    #[test]
    fn readme_catalog_scopes_match_the_table() {
        let readme = include_str!("../README.md");
        for (lint, frags, _) in LINTS {
            let row = readme
                .lines()
                .find(|l| l.starts_with(&format!("| `{lint}` |")))
                .unwrap_or_else(|| panic!("no catalog row for `{lint}`"));
            let scope = row.trim_end_matches('|').rsplit('|').next().unwrap_or("");
            let want = if frags == [""] {
                "every file".to_string()
            } else {
                frags
                    .iter()
                    .map(|f| format!("`{f}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            assert_eq!(scope.trim(), want, "catalog row for `{lint}`");
        }
    }

    #[test]
    fn must_use_suffixes_enforced() {
        let src = r#"
            pub struct FooSnapshot { x: u32 }
            #[must_use = "holds the pin"]
            pub struct BarGuard;
            #[derive(Clone)]
            #[must_use]
            pub struct BazPlannedQuery;
            pub struct Unrelated;
        "#;
        let f = scan("crates/x/src/lib.rs", src);
        assert_eq!(f.iter().filter(|f| f.lint == MUST_USE).count(), 1);
        assert!(f[0].message.contains("FooSnapshot"));
    }
}
