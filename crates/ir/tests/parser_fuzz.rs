//! Robustness properties of the lexer/parser: arbitrary input never
//! panics, and near-miss mutations of valid sources fail cleanly with
//! positioned errors rather than being silently accepted as something
//! else.

use proptest::prelude::*;
use tytra_ir::parser::lexer::{lex, Token, TokenKind};
use tytra_ir::parser::parse_unvalidated;
use tytra_ir::IrError;

const VALID: &str = r#"
!module = !"m"
!ndrange = !{64}
!nki = !10
!form = !"B"
%mem_p = memobj addrSpace(1) ui18, !size, !64
%strobj_p = streamobj %mem_p, !read, !"CONT"
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
%mem_q = memobj addrSpace(1) ui18, !size, !64
%strobj_q = streamobj %mem_q, !write, !"CONT"
@main.q = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_q"
define void @f0(ui18 %p, out ui18 %q) pipe {
  ui18 %pp1 = ui18 %p, !offset, !+1
  ui18 %t1 = add ui18 %pp1, %p
  ui18 %q__out = or ui18 %t1, 0
}
define void @main() {
  call @f0(%p, %q) pipe
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics(s in ".{0,400}") {
        let _ = lex(&s);
    }

    #[test]
    fn lexer_never_panics_on_tirl_alphabet(
        s in "[%@!{}(),=\\\"a-z0-9_+\\- \\n;.]{0,400}"
    ) {
        let _ = lex(&s);
    }

    #[test]
    fn parser_never_panics(s in ".{0,400}") {
        let _ = parse_unvalidated(&s);
    }

    #[test]
    fn truncations_of_valid_source_fail_cleanly(cut in 1usize..400) {
        // Any prefix of a valid module either parses (comment/blank
        // boundaries) or errors — no panics, no hangs.
        let src = &VALID[..cut.min(VALID.len())];
        let _ = parse_unvalidated(src);
    }

    #[test]
    fn single_character_deletions_never_panic(pos in 0usize..500) {
        if pos < VALID.len() && VALID.is_char_boundary(pos) && VALID.is_char_boundary(pos + 1) {
            let mut s = String::with_capacity(VALID.len());
            s.push_str(&VALID[..pos]);
            s.push_str(&VALID[pos + 1..]);
            let _ = parse_unvalidated(&s);
        }
    }

    #[test]
    fn random_token_injections_never_panic(
        pos in 0usize..500,
        junk in "[a-z!%@0-9]{1,8}",
    ) {
        if pos < VALID.len() && VALID.is_char_boundary(pos) {
            let mut s = String::with_capacity(VALID.len() + junk.len());
            s.push_str(&VALID[..pos]);
            s.push_str(&junk);
            s.push_str(&VALID[pos..]);
            let _ = parse_unvalidated(&s);
        }
    }
}

/// One lexeme-sized piece of `.tirl`-like text. String literals and
/// comments carry 2-, 3- and 4-byte UTF-8 chars; pieces are joined with
/// no separator, so neighbours can merge into longer tokens or errors.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z_][a-z0-9_]{0,6}",
        "[%@][a-z0-9_.]{1,6}",
        "[+\\-]?[0-9]{1,4}",
        "[0-9]{1,3}\\.[0-9]{1,3}",
        "[(){},=!]",
        "\"[a-zé€😀 ]{0,6}\"",
        ";[a-zü€😀 ]{0,8}\n",
        "[ \t\n]{1,3}",
    ]
}

/// Byte offset of 1-based `(line, col)` in `src`, with `col` counted in
/// chars; `None` when the position lies outside the source.
fn offset_of(src: &str, line: u32, col: u32) -> Option<usize> {
    let start = if line == 1 { 0 } else { src.match_indices('\n').nth(line as usize - 2)?.0 + 1 };
    src[start..].char_indices().nth(col as usize - 1).map(|(i, _)| start + i)
}

/// The source text a token must start with, or `None` for a number,
/// whose spelling the token does not keep.
fn spelling(kind: &TokenKind<'_>) -> Option<String> {
    Some(match kind {
        TokenKind::Percent(n) => format!("%{n}"),
        TokenKind::At(n) => format!("@{n}"),
        TokenKind::Ident(s) => s.to_string(),
        TokenKind::Str(s) => format!("\"{s}\""),
        TokenKind::Int(_) | TokenKind::Float(_) => return None,
        TokenKind::LParen => "(".into(),
        TokenKind::RParen => ")".into(),
        TokenKind::LBrace => "{".into(),
        TokenKind::RBrace => "}".into(),
        TokenKind::Comma => ",".into(),
        TokenKind::Eq => "=".into(),
        TokenKind::Bang => "!".into(),
    })
}

/// Every token's `(line, col)` names the char its spelling starts at.
fn assert_tokens_positioned(src: &str, toks: &[Token<'_>]) {
    for t in toks {
        let off =
            offset_of(src, t.line, t.col).unwrap_or_else(|| panic!("{t:?} points outside {src:?}"));
        let rest = &src[off..];
        match spelling(&t.kind) {
            Some(text) => assert!(rest.starts_with(&text), "{t:?} is not at {rest:?} in {src:?}"),
            None => assert!(
                rest.starts_with(|c: char| c.is_ascii_digit() || c == '+' || c == '-'),
                "{t:?} is not at a number: {rest:?} in {src:?}"
            ),
        }
    }
    for w in toks.windows(2) {
        assert!((w[0].line, w[0].col) < (w[1].line, w[1].col), "{w:?} out of order in {src:?}");
    }
}

/// A lex error's position names a char of the source; for a stray
/// character, the very char it reports.
fn assert_error_positioned(src: &str, err: &IrError) {
    let IrError::Lex { line, col, msg } = err else {
        panic!("lex returned a non-lex error {err:?}");
    };
    let off = offset_of(src, *line, *col).unwrap_or_else(|| panic!("{err} points outside {src:?}"));
    if let Some(c) = msg.strip_prefix("unexpected character `") {
        let c = c.strip_suffix('`').expect("message closes its quote");
        assert!(src[off..].starts_with(c), "{err} is not at {c:?} in {src:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_positions_count_chars(pieces in proptest::collection::vec(fragment(), 0..40)) {
        let src = pieces.concat();
        match lex(&src) {
            Ok(toks) => assert_tokens_positioned(&src, &toks),
            Err(e) => assert_error_positioned(&src, &e),
        }
    }

    #[test]
    fn positions_hold_on_arbitrary_utf8(s in "[ -~é€😀ü\\n\\t]{0,300}") {
        match lex(&s) {
            Ok(toks) => assert_tokens_positioned(&s, &toks),
            Err(e) => assert_error_positioned(&s, &e),
        }
    }
}

#[test]
fn the_reference_source_is_actually_valid() {
    // Guard: the fuzz corpus must start from a parsing module, or the
    // mutation properties are vacuous.
    tytra_ir::parse(VALID).expect("reference fuzz corpus parses");
}

#[test]
fn error_positions_point_into_the_source() {
    let src = "define void @f0(ui18 %p) pipe {\n  ui18 %x = add ui18 %p\n}";
    match parse_unvalidated(src) {
        Err(tytra_ir::IrError::Parse { line, col, .. }) => {
            assert!((1..=3).contains(&line), "{line}");
            assert!(col >= 1, "{col}");
        }
        other => panic!("expected a positioned parse error, got {other:?}"),
    }
}
