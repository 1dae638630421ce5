//! `covenant-lint` — workspace invariant linter.
//!
//! The enforcement guarantees this repo reproduces (per-window accounting,
//! combining-tree coordination, sim/live differential replay) rest on
//! invariants `rustc` cannot check. This crate checks them mechanically,
//! token-level (no `syn`; the build is offline), with `file:line`
//! diagnostics:
//!
//! - **R1 `wall-clock`** — no `Instant::now()` / `SystemTime::now()` in
//!   data-plane crates (`enforce`, `sched`, `l7`, `l4`, `coord`, `http`,
//!   `tree`, `wire`, `cluster`, `verify`) outside the clock allowlist.
//!   Data-plane code takes injected time, or the sim/live differential
//!   replay breaks. The wire transport's `WireClock` carries the only
//!   sanctioned reads in its crate (per-line pragmas): RTT and
//!   propagation delay are *measured* quantities there.
//! - **R2 `no-panic`** — no `unwrap()` / `expect(` / `panic!` /
//!   indexing-by-integer-literal in admission-path crates (`enforce`,
//!   `sched`, `l7`, `l4`, `coord`, `tree`, `wire`, `cluster`, `verify`). A
//!   panicked redirector thread silently stops enforcing its agreements.
//! - **R3 `float-eq`** — no `==` / `!=` with a float-literal operand,
//!   workspace-wide. Credit and LP-tableau arithmetic must use epsilon
//!   compares; exact compares belong behind an explicit pragma.
//! - **R5 `reactor-blocking`** — no blocking syscall wrappers
//!   (`.read_to_end(`, `set_nonblocking(false)`, `thread::sleep`) in
//!   reactor callback paths: `crates/reactor/src/` and every source file
//!   that uses `covenant_reactor` — both planes' shard drivers, the L7
//!   machine and the wire runtime, wherever they live. One blocking call
//!   stalls every connection on that shard.
//!
//! Escape hatch: `// covenant: allow(<rule>)` on the offending line, or on
//! its own line directly above, suppresses that rule there. Test code
//! (`#[cfg(test)]` items) is skipped entirely.

mod diag;
mod lexer;
mod rules;

pub use diag::{to_json, Diag, RuleMeta, Severity};
pub use lexer::{lex, Comment, Lexed, TokKind, Token};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: wall-clock reads in data-plane code.
    WallClock,
    /// R2: panic paths in admission code.
    NoPanic,
    /// R3: exact float equality.
    FloatEq,
    /// R5: blocking syscall wrappers in reactor callback paths.
    ReactorBlocking,
}

impl Rule {
    /// The rule's pragma name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::NoPanic => "no-panic",
            Rule::FloatEq => "float-eq",
            Rule::ReactorBlocking => "reactor-blocking",
        }
    }

    /// All rules.
    pub const ALL: [Rule; 4] = [
        Rule::WallClock,
        Rule::NoPanic,
        Rule::FloatEq,
        Rule::ReactorBlocking,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl RuleMeta for Rule {
    fn code(self) -> &'static str {
        self.name()
    }

    fn severity(self) -> Severity {
        // Every workspace-invariant rule guards a correctness property;
        // there are no advisory source lints.
        Severity::Error
    }

    fn registry() -> &'static [Self] {
        &Rule::ALL
    }

    fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock reads in data-plane code",
            Rule::NoPanic => "panic paths in admission code",
            Rule::FloatEq => "exact float equality",
            Rule::ReactorBlocking => "blocking calls in reactor callback paths",
        }
    }
}

/// One violation: a positioned [`Diag`] carrying a source [`Rule`].
pub type Diagnostic = Diag<Rule>;

/// Crates whose data plane must take injected time (R1).
const R1_CRATES: &[&str] = &[
    "enforce", "sched", "l7", "l4", "coord", "http", "reactor", "tree", "wire", "cluster", "verify",
];

/// The clock allowlist: the files that *are* the clock. The http clock
/// module anchors the default wall clock the origin's token bucket takes
/// by injection.
const R1_ALLOW_FILES: &[&str] = &["crates/http/src/clock.rs"];

/// Crates on the admission path that must stay panic-free (R2). The
/// verifier joins the list because `Cluster::launch` runs it on the
/// admission-control startup path.
const R2_CRATES: &[&str] =
    &["enforce", "sched", "l7", "l4", "coord", "reactor", "tree", "wire", "cluster", "verify"];

/// Reactor callback paths (R5): everything in the reactor crate, and every
/// file that names `covenant_reactor` — its shard loop runs their code, so
/// the rule follows a driver or a machine to whatever file it moves to.
/// One blocking call there stalls every connection on the shard.
fn r5_in_scope(rel_path: &str, tokens: &[Token<'_>]) -> bool {
    rel_path.starts_with("crates/reactor/src/")
        || tokens.iter().any(|t| t.kind == TokKind::Ident && t.text == "covenant_reactor")
}

/// The linter: feed it files, then [`Linter::finish`].
#[derive(Default)]
pub struct Linter {
    diagnostics: Vec<Diagnostic>,
}

/// Per-line pragma table for one file.
struct Allows {
    by_line: BTreeMap<u32, BTreeSet<String>>,
}

impl Allows {
    fn from_comments(comments: &[Comment<'_>]) -> Self {
        let mut by_line: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for c in comments {
            for rule in rules::parse_allow_pragma(c.text) {
                by_line.entry(c.line).or_default().insert(rule.clone());
                if c.own_line {
                    // An own-line pragma covers the line below it.
                    by_line.entry(c.line + 1).or_default().insert(rule);
                }
            }
        }
        Allows { by_line }
    }

    fn allowed(&self, line: u32, rule: Rule) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|s| s.contains(rule.name()) || s.contains("all"))
    }
}

impl Linter {
    /// A fresh linter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lints one file. `rel_path` must be workspace-relative with `/`
    /// separators (e.g. `crates/enforce/src/credit.rs`) — rule scoping is
    /// derived from it.
    pub fn add_file(&mut self, rel_path: &str, src: &str) {
        let Some(crate_name) = crate_of(rel_path) else {
            return;
        };
        let lexed = lex(src);
        let allows = Allows::from_comments(&lexed.comments);
        let skip = rules::test_skip_ranges(&lexed.tokens);
        let in_scope = |line: u32| !skip.iter().any(|&(a, b)| (a..=b).contains(&line));

        let mut emit = |rule: Rule, line: u32, message: String| {
            if in_scope(line) && !allows.allowed(line, rule) {
                self.diagnostics
                    .push(Diagnostic::new(rule, rel_path.to_string(), line, 0, message));
            }
        };

        if R1_CRATES.contains(&crate_name) && !R1_ALLOW_FILES.contains(&rel_path) {
            rules::check_wall_clock(&lexed.tokens, &mut emit);
        }
        if R2_CRATES.contains(&crate_name) {
            rules::check_no_panic(&lexed.tokens, &mut emit);
        }
        rules::check_float_eq(&lexed.tokens, &mut emit);
        if r5_in_scope(rel_path, &lexed.tokens) {
            rules::check_reactor_blocking(&lexed.tokens, &mut emit);
        }
    }

    /// Finishes the run: returns every diagnostic, sorted by path and line.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        self.diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        self.diagnostics
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>/src/…`),
/// or `covenant` for the root package's `src/`. Non-source paths (tests,
/// benches, examples, fixtures) are out of scope.
fn crate_of(rel_path: &str) -> Option<&str> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        return tail.starts_with("src/").then_some(name);
    }
    rel_path.starts_with("src/").then_some("covenant")
}

/// Lints every workspace source file under `root` (`crates/*/src/**/*.rs`
/// plus the root package's `src/**/*.rs`). I/O errors on individual files
/// are reported as diagnostics rather than aborting the run.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut files: Vec<PathBuf> = Vec::new();
    for crate_dir in read_dir_sorted(&root.join("crates")) {
        collect_rs(&crate_dir.join("src"), &mut files);
    }
    collect_rs(&root.join("src"), &mut files);

    let mut linter = Linter::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read(path) {
            Ok(bytes) => linter.add_file(&rel, &String::from_utf8_lossy(&bytes)),
            Err(e) => linter.diagnostics.push(Diagnostic::new(
                Rule::WallClock,
                rel,
                0,
                0,
                format!("unreadable file: {e}"),
            )),
        }
    }
    linter.finish()
}

fn read_dir_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in read_dir_sorted(dir) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

