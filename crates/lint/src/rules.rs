//! Token-level rule passes (R1–R3), pragma parsing, and test-code skipping.

use crate::lexer::{TokKind, Token};
use crate::Rule;

/// Parses `covenant: allow(rule-a, rule-b)` pragmas out of one comment,
/// returning the allowed rule names (possibly the wildcard `all`).
pub(crate) fn parse_allow_pragma(comment: &str) -> Vec<String> {
    let Some(rest) = comment.split("covenant:").nth(1) else {
        return Vec::new();
    };
    let rest = rest.trim_start();
    let Some(args) = rest.strip_prefix("allow") else {
        return Vec::new();
    };
    let Some(open) = args.find('(') else {
        return Vec::new();
    };
    let Some(close) = args[open..].find(')') else {
        return Vec::new();
    };
    args[open + 1..open + close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect()
}

/// Line ranges covered by `#[cfg(test)]`-gated items (the linter skips
/// them). A `#![cfg(test)]` inner attribute marks the whole file.
pub(crate) fn test_skip_ranges(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(tokens, i, "#") {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + 1;
        let inner = is_punct(tokens, j, "!");
        if inner {
            j += 1;
        }
        if !is_punct(tokens, j, "[") {
            i += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attr(tokens, j);
        if !is_test {
            i = attr_end;
            continue;
        }
        if inner {
            return vec![(1, u32::MAX)];
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end;
        while is_punct(tokens, k, "#") && is_punct(tokens, k + 1, "[") {
            let (end, _) = scan_attr(tokens, k + 1);
            k = end;
        }
        // Consume the item: up to a top-level `;`, or through the matching
        // `}` of its first top-level brace block.
        let mut depth = 0i32;
        let mut end_line = start_line;
        while k < tokens.len() {
            let t = &tokens[k];
            end_line = t.line;
            if t.kind == TokKind::Punct {
                match t.text {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 && t.text == "}" {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        out.push((start_line, end_line));
        i = k + 1;
    }
    out
}

/// Scans the attribute starting at the `[` at index `open`; returns the
/// index one past the matching `]` and whether the attribute is a
/// `cfg(… test …)`.
fn scan_attr(tokens: &[Token<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut k = open;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.kind == TokKind::Punct {
            match t.text {
                "[" | "(" | "{" => depth += 1,
                "]" | ")" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return (k + 1, saw_cfg && saw_test);
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident {
            saw_cfg |= t.text == "cfg";
            saw_test |= t.text == "test";
        }
        k += 1;
    }
    (k, false)
}

fn is_punct(tokens: &[Token<'_>], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn is_ident(tokens: &[Token<'_>], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// R1: `Instant::now()` / `SystemTime::now()` — wall-clock reads the data
/// plane must receive by injection instead.
pub(crate) fn check_wall_clock(
    tokens: &[Token<'_>],
    emit: &mut impl FnMut(Rule, u32, String),
) {
    for i in 2..tokens.len() {
        if is_ident(tokens, i, "now")
            && is_punct(tokens, i - 1, "::")
            && (is_ident(tokens, i - 2, "Instant") || is_ident(tokens, i - 2, "SystemTime"))
        {
            emit(
                Rule::WallClock,
                tokens[i].line,
                format!(
                    "{}::now() in data-plane code; take injected time (clock fn or explicit `now` parameter)",
                    tokens[i - 2].text
                ),
            );
        }
    }
}

/// R2: `unwrap()` / `expect(` / `panic!` / indexing by integer literal in
/// admission-path code.
pub(crate) fn check_no_panic(
    tokens: &[Token<'_>],
    emit: &mut impl FnMut(Rule, u32, String),
) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "unwrap" | "expect"
                if i > 0 && is_punct(tokens, i - 1, ".") && is_punct(tokens, i + 1, "(") =>
            {
                emit(
                    Rule::NoPanic,
                    t.line,
                    format!(".{}() on an admission path; propagate the error or handle the None", t.text),
                );
            }
            "panic" if is_punct(tokens, i + 1, "!") => {
                emit(
                    Rule::NoPanic,
                    t.line,
                    "panic! on an admission path; a panicked redirector stops enforcing".into(),
                );
            }
            _ => {}
        }
    }
    // Indexing by integer literal: `expr[0]` can panic on a shape change
    // the compiler will not catch. (`[0; n]` array literals, `#[…]`
    // attributes, and `m![…]` macros are not index expressions.)
    for i in 2..tokens.len() {
        if tokens[i].kind == TokKind::Int
            && is_punct(tokens, i - 1, "[")
            && is_punct(tokens, i + 1, "]")
        {
            let prev = &tokens[i - 2];
            let indexable = prev.kind == TokKind::Ident
                || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
            if indexable {
                emit(
                    Rule::NoPanic,
                    tokens[i].line,
                    format!(
                        "indexing by literal `[{}]` on an admission path; use get() or a named accessor",
                        tokens[i].text
                    ),
                );
            }
        }
    }
}

/// R5: blocking syscall wrappers in reactor callback paths. A reactor
/// shard is one thread multiplexing every connection it owns; a single
/// `read_to_end` (blocks until EOF), `set_nonblocking(false)` (reverts a
/// socket to blocking mode), or `thread::sleep` stalls them all.
pub(crate) fn check_reactor_blocking(
    tokens: &[Token<'_>],
    emit: &mut impl FnMut(Rule, u32, String),
) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "read_to_end" if i > 0 && is_punct(tokens, i - 1, ".") && is_punct(tokens, i + 1, "(") => {
                emit(
                    Rule::ReactorBlocking,
                    t.line,
                    ".read_to_end() blocks until EOF; use RecvBuf::drain_from and resume on readiness"
                        .into(),
                );
            }
            "set_nonblocking"
                if is_punct(tokens, i + 1, "(") && is_ident(tokens, i + 2, "false") =>
            {
                emit(
                    Rule::ReactorBlocking,
                    t.line,
                    "set_nonblocking(false) reverts a reactor socket to blocking mode".into(),
                );
            }
            "sleep" if i > 1 && is_punct(tokens, i - 1, "::") && is_ident(tokens, i - 2, "thread") =>
            {
                emit(
                    Rule::ReactorBlocking,
                    t.line,
                    "thread::sleep stalls every connection on the shard; use the epoll timeout"
                        .into(),
                );
            }
            _ => {}
        }
    }
}

/// R3: `==` / `!=` with a float-literal operand. Token-level heuristic:
/// flags comparisons where a float literal sits directly on either side
/// (allowing one unary minus); typed float-variable compares are beyond a
/// lexer and stay the reviewer's job.
pub(crate) fn check_float_eq(
    tokens: &[Token<'_>],
    emit: &mut impl FnMut(Rule, u32, String),
) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let prev_float = i > 0 && tokens[i - 1].kind == TokKind::Float;
        let next_float = tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Float)
            || (is_punct(tokens, i + 1, "-")
                && tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::Float));
        if prev_float || next_float {
            emit(
                Rule::FloatEq,
                t.line,
                format!(
                    "float literal compared with `{}`; use an epsilon compare (e.g. `(a - b).abs() < EPS`)",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, f: impl Fn(&[Token<'_>], &mut dyn FnMut(Rule, u32, String))) -> Vec<u32> {
        let lexed = lex(src);
        let mut lines = Vec::new();
        f(&lexed.tokens, &mut |_, line, _| lines.push(line));
        lines
    }

    #[test]
    fn pragma_parsing() {
        assert_eq!(parse_allow_pragma("// covenant: allow(wall-clock)"), vec!["wall-clock"]);
        assert_eq!(
            parse_allow_pragma("// covenant: allow(no-panic, float-eq): reason"),
            vec!["no-panic", "float-eq"]
        );
        assert!(parse_allow_pragma("// plain comment").is_empty());
    }

    #[test]
    fn skip_ranges_cover_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let ranges = test_skip_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn wall_clock_fires_on_both_clocks() {
        let lines = run(
            "fn f() { let a = Instant::now(); let b = SystemTime::now(); }",
            |t, e| check_wall_clock(t, &mut |r, l, m| e(r, l, m)),
        );
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn float_eq_heuristic_edges() {
        let fire = |src: &str| {
            run(src, |t, e| check_float_eq(t, &mut |r, l, m| e(r, l, m))).len()
        };
        assert_eq!(fire("if x == 0.0 {}"), 1);
        assert_eq!(fire("if 1.5 != y {}"), 1);
        assert_eq!(fire("if x == -1e-6 {}"), 1);
        assert_eq!(fire("if a.0 == 1 {}"), 0, "tuple index is not a float");
        assert_eq!(fire("if n == 10 {}"), 0);
    }
}
