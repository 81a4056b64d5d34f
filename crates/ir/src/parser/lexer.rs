//! Tokenizer for the `.tirl` textual IR.
//!
//! Tokens borrow from the source. A name, keyword or string payload is
//! a `&'a str` slice of the text being lexed, so [`Token`] is `Copy`
//! and lexing allocates nothing but the token vector; the parser copies
//! tokens, compares keywords as `&str`, and allocates a `String` only
//! for a name the module stores.
//!
//! [`lex`] scans bytes. Every byte that starts a token is ASCII, so
//! non-ASCII text can sit only inside a string literal or a comment, or
//! be the stray character of an error. Columns count chars, not bytes:
//! each UTF-8 continuation byte inside a string literal is subtracted
//! from the byte distance to the start of the line, so a token after a
//! non-ASCII literal is placed where a char-by-char count would put it.

use crate::error::{IrError, Result};

/// A lexical token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// Token payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in chars) of the first character.
    pub col: u32,
}

/// Token payloads; text payloads are slices of the lexed source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// `%name` — local value / object reference (payload without `%`).
    Percent(&'a str),
    /// `@name` — global / function reference; may contain dots
    /// (`main.p`).
    At(&'a str),
    /// Bare identifier or keyword (`define`, `pipe`, `add`, `ui18`, ...).
    Ident(&'a str),
    /// Integer literal, including explicit `+`/`-` signs.
    Int(i64),
    /// Float literal (contains a `.` or exponent).
    Float(f64),
    /// Double-quoted string contents.
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!`
    Bang,
}

impl TokenKind<'_> {
    /// Short description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Percent(n) => format!("%{n}"),
            TokenKind::At(n) => format!("@{n}"),
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::Str(s) => format!("\"{s}\""),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Bang => "`!`".into(),
        }
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// End of the run of bytes from `i` that satisfy `keep`.
fn scan(bytes: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && keep(bytes[i]) {
        i += 1;
    }
    i
}

/// Tokenize a `.tirl` source. Comments run from `;` to end of line;
/// whitespace (including newlines) separates tokens.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // Canonical text averages about one token per four bytes.
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    let mut line: u32 = 1;
    // Byte offset of the current line's first byte, and the number of
    // UTF-8 continuation bytes seen on the line so far.
    let mut line_start = 0;
    let mut skew = 0;

    while i < bytes.len() {
        let b = bytes[i];
        let (tl, tc) = (line, u32::try_from(i - line_start - skew + 1).unwrap_or(u32::MAX));
        let lex_err = |msg: String| IrError::Lex { line: tl, col: tc, msg };
        let (kind, end) = match b {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
                skew = 0;
                continue;
            }
            b';' => {
                // Comment to end of line; the newline is lexed above.
                i = scan(bytes, i, |c| c != b'\n');
                continue;
            }
            b'(' | b')' | b'{' | b'}' | b',' | b'=' | b'!' => {
                let kind = match b {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b',' => TokenKind::Comma,
                    b'=' => TokenKind::Eq,
                    _ => TokenKind::Bang,
                };
                (kind, i + 1)
            }
            b'"' => {
                let close = scan(bytes, i + 1, |c| c != b'"' && c != b'\n');
                if bytes.get(close) != Some(&b'"') {
                    return Err(lex_err("unterminated string literal".into()));
                }
                let s = &src[i + 1..close];
                skew += s.bytes().filter(|&c| c & 0xC0 == 0x80).count();
                (TokenKind::Str(s), close + 1)
            }
            b'%' | b'@' => {
                let end = scan(bytes, i + 1, is_name_byte);
                if end == i + 1 {
                    return Err(lex_err(format!("`{}` must be followed by a name", b as char)));
                }
                let name = &src[i + 1..end];
                let kind = if b == b'%' { TokenKind::Percent(name) } else { TokenKind::At(name) };
                (kind, end)
            }
            b'+' | b'-' | b'0'..=b'9' => {
                let signed = b == b'+' || b == b'-';
                if signed && !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    return Err(lex_err(format!("`{}` must begin a number", b as char)));
                }
                let mut end = i + usize::from(signed);
                let mut is_float = false;
                while let Some(&c) = bytes.get(end) {
                    if c.is_ascii_digit() {
                        end += 1;
                    } else if c == b'.' && !is_float {
                        // Only a digit after the dot makes it a float
                        // (names cannot start mid-number).
                        is_float = true;
                        end += 1;
                    } else if (c == b'e' || c == b'E') && is_float {
                        end += 1;
                        if matches!(bytes.get(end), Some(b'+' | b'-')) {
                            end += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &src[i..end];
                let kind = if is_float {
                    let v =
                        text.parse().map_err(|_| lex_err(format!("bad float literal `{text}`")))?;
                    TokenKind::Float(v)
                } else {
                    let v = text
                        .parse()
                        .map_err(|_| lex_err(format!("bad integer literal `{text}`")))?;
                    TokenKind::Int(v)
                };
                (kind, end)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let end = scan(bytes, i, is_ident_byte);
                (TokenKind::Ident(&src[i..end]), end)
            }
            _ => {
                // Every scan above stops on an ASCII byte or just past a
                // closing quote, so `i` is a char boundary.
                let other = src[i..].chars().next().expect("i is a char boundary inside src");
                return Err(lex_err(format!("unexpected character `{other}`")));
            }
        };
        out.push(Token { kind, line: tl, col: tc });
        i = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_basic_instruction() {
        let k = kinds("ui18 %1 = mul ui18 %p, %cn2l");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("ui18"),
                TokenKind::Percent("1"),
                TokenKind::Eq,
                TokenKind::Ident("mul"),
                TokenKind::Ident("ui18"),
                TokenKind::Percent("p"),
                TokenKind::Comma,
                TokenKind::Percent("cn2l"),
            ]
        );
    }

    #[test]
    fn lex_offsets_and_signs() {
        let k = kinds("!offset, !+1 !-150");
        assert_eq!(
            k,
            vec![
                TokenKind::Bang,
                TokenKind::Ident("offset"),
                TokenKind::Comma,
                TokenKind::Bang,
                TokenKind::Int(1),
                TokenKind::Bang,
                TokenKind::Int(-150),
            ]
        );
    }

    #[test]
    fn lex_strings_and_dotted_names() {
        let k = kinds("@main.p = !\"istream\"");
        assert_eq!(
            k,
            vec![
                TokenKind::At("main.p"),
                TokenKind::Eq,
                TokenKind::Bang,
                TokenKind::Str("istream"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let toks = lex("; a comment\n  add ; trailing\nmul").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[0].col, 3);
        assert_eq!(toks[1].line, 3);
        assert_eq!(toks[1].col, 1);
    }

    #[test]
    fn floats_with_exponents() {
        assert_eq!(kinds("!220.5"), vec![TokenKind::Bang, TokenKind::Float(220.5)]);
        assert_eq!(kinds("1.5e3"), vec![TokenKind::Float(1500.0)]);
        assert_eq!(kinds("2.0e-1"), vec![TokenKind::Float(0.2)]);
    }

    /// The `Display` of the lex error for `src`: message and position.
    fn lex_error(src: &str) -> String {
        lex(src).expect_err("source must not lex").to_string()
    }

    #[test]
    fn columns_count_chars_after_a_non_ascii_string() {
        // `é` is 2 bytes, `€` 3 and `😀` 4, but each is one column.
        let toks = lex("!\"é€😀\", x\n  \"ü\" y").unwrap();
        let at: Vec<(u32, u32)> = toks.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(at, vec![(1, 1), (1, 2), (1, 7), (1, 9), (2, 3), (2, 7)]);
        assert_eq!(toks[1].kind, TokenKind::Str("é€😀"));
        assert_eq!(toks[5].kind, TokenKind::Ident("y"));
    }

    #[test]
    fn non_ascii_comments_do_not_shift_the_next_line() {
        let toks = lex("; ünïcödé €\n  add").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (2, 3));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert_eq!(lex_error("add !\"CONT"), "lexical error at 1:6: unterminated string literal");
        // A string cannot span lines.
        assert_eq!(lex_error("!\"é\nx\""), "lexical error at 1:2: unterminated string literal");
    }

    #[test]
    fn bare_sigil_is_error() {
        assert_eq!(lex_error("add % "), "lexical error at 1:5: `%` must be followed by a name");
        assert_eq!(lex_error("\n @,"), "lexical error at 2:2: `@` must be followed by a name");
    }

    #[test]
    fn stray_character_is_error() {
        assert_eq!(lex_error("add $ mul"), "lexical error at 1:5: unexpected character `$`");
        assert_eq!(lex_error("!\"€\" ü"), "lexical error at 1:6: unexpected character `ü`");
    }

    #[test]
    fn sign_without_digit_is_error() {
        assert_eq!(lex_error("+ x"), "lexical error at 1:1: `+` must begin a number");
        assert_eq!(lex_error("!offset, !-x"), "lexical error at 1:11: `-` must begin a number");
    }

    #[test]
    fn bad_float_is_error() {
        assert_eq!(lex_error("!freq = !2.5e+"), "lexical error at 1:10: bad float literal `2.5e+`");
    }

    #[test]
    fn bad_integer_is_error() {
        assert_eq!(
            lex_error("!nki = !-99999999999999999999"),
            "lexical error at 1:9: bad integer literal `-99999999999999999999`"
        );
    }
}
