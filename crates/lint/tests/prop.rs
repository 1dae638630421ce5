//! Property tests: the lexer (and the whole linter behind it) must never
//! panic, whatever bytes it is fed — lint runs on work-in-progress trees.

use covenant_lint::{lex, Linter};
use proptest::prelude::*;

proptest! {
    /// Arbitrary (lossily decoded) bytes lex without panicking, and every
    /// token/comment carries a plausible 1-based line number.
    #[test]
    fn lexer_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let src = String::from_utf8_lossy(&bytes);
        let lexed = lex(&src);
        let lines = src.lines().count().max(1) as u32;
        for t in &lexed.tokens {
            prop_assert!((1..=lines).contains(&t.line), "token line {}", t.line);
        }
        for c in &lexed.comments {
            prop_assert!((1..=lines).contains(&c.line), "comment line {}", c.line);
        }
    }

    /// The full rule pipeline survives arbitrary input too (pragma parsing,
    /// test-skip scanning, every token-level rule).
    #[test]
    fn linter_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let src = String::from_utf8_lossy(&bytes);
        let mut linter = Linter::new();
        linter.add_file("crates/l4/src/fuzz.rs", &src);
        let _ = linter.finish();
    }

    /// Rust-ish text (idents, dots, literals, operators) also never panics
    /// — denser in interesting token boundaries than raw bytes.
    #[test]
    fn lexer_survives_rustish_soup(
        picks in proptest::collection::vec(0usize..22, 0..200),
    ) {
        const PARTS: [&str; 22] = [
            "lock", "x1", "0.5", "7", ".", "==", "!=", "::", "\"", "'",
            "r#", "//", "/*", "*/", "(", ")", "{", "}", "[", ";", " ", "\n",
        ];
        let src: String = picks.iter().map(|&i| PARTS[i]).collect();
        let _ = lex(&src);
        let mut linter = Linter::new();
        linter.add_file("crates/coord/src/fuzz.rs", &src);
        let _ = linter.finish();
    }
}
