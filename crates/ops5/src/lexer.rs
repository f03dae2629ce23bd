//! Lexer for OPS5 source text: a cursor over the source bytes.
//!
//! [`Lexer::next_token`] yields one token at a time; a token's `Sym`, `Var`
//! and `Attr` payloads are slices of the source, so lexing allocates nothing
//! and the parser interns straight from the text. ASCII is scanned as bytes;
//! a non-ASCII char is decoded and asked the same Unicode questions
//! (`is_alphanumeric`, `is_whitespace`) the grammar has always asked. A
//! token carries its byte offset; a line and a column (in `char`s, not
//! bytes) are worked out only for an error.
//!
//! OPS5 is a Lisp-family surface syntax with a few twists that make the
//! lexer stateful-free but fiddly:
//!
//! * `<x>` (no internal whitespace) is a *variable*; a bare `<` followed by
//!   whitespace is the less-than predicate; `<=`, `<>`, `<=>`, `<<`, `>>`,
//!   `>=` are multi-character tokens.
//! * `-` before an open parenthesis in an LHS is condition-element negation;
//!   before a digit it may begin a negative number; otherwise it is a symbol
//!   (the RHS `compute` subtraction operator). The lexer emits a single
//!   `Minus` token and lets the parser decide.
//! * A maximal run of symbol characters is one token, and [`literal`] says
//!   once, for the source and the wire alike, whether it reads as an
//!   integer, a float or a symbol.
//! * `;` starts a comment to end of line.

use crate::error::{Ops5Error, Result};

/// A lexical token and the byte offset of its first char in the source
/// ([`Lexer::line_col`] turns the offset into a position when an error
/// needs one; nothing else does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokKind<'a>,
    pub at: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokKind<'a> {
    LParen,
    RParen,
    LBrace,
    RBrace,
    /// `<<`
    LDisj,
    /// `>>`
    RDisj,
    /// `-->`
    Arrow,
    /// `-` (negation marker or subtraction; parser disambiguates)
    Minus,
    /// `^attr`
    Attr(&'a str),
    /// `<name>`
    Var(&'a str),
    /// `=`, `<>`, `<`, `<=`, `>`, `>=`, `<=>`
    Pred(PredTok),
    Sym(&'a str),
    Int(i64),
    Float(f64),
    Eof,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredTok {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    SameType,
}

/// Byte classes. An ASCII byte may appear in a bare symbol (`SYM`), in an
/// attribute name (`ATTR`: a symbol char other than `\`), inside `<...>`
/// (`VAR`: anything but `>`, a parenthesis or whitespace), or is whitespace
/// (`SPACE`, `char::is_whitespace`). A byte of a non-ASCII char is `WIDE`:
/// the char is decoded and asked instead (alphanumerics are symbol chars).
const SYM: u8 = 1;
const ATTR: u8 = 2;
const VAR: u8 = 4;
const SPACE: u8 = 8;
const WIDE: u8 = 16;

static CLASS: [u8; 256] = {
    let mut t = [WIDE; 256];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        let space = matches!(c, b'\t'..=b'\r' | b' ');
        let attr = c.is_ascii_alphanumeric()
            || matches!(
                c,
                b'-' | b'_' | b'*' | b'+' | b'/' | b'.' | b'?' | b'!' | b':' | b'&' | b'$' | b'%'
            );
        t[b] = 0;
        if attr || c == b'\\' {
            t[b] |= SYM;
        }
        if attr {
            t[b] |= ATTR;
        }
        if space {
            t[b] |= SPACE;
        } else if !matches!(c, b'>' | b'(' | b')') {
            t[b] |= VAR;
        }
        b += 1;
    }
    t
};

/// The one definition of a value literal, shared by the source lexer and
/// [`crate::wire::parse_value`]: a delimiter-free run is an integer if the
/// whole of it parses as `i64`, else a float if it contains a `.` and the
/// whole of it parses as `f64` (so `1e5`, `inf` and `1.2.3` stay symbols),
/// else a symbol.
pub fn literal(run: &str) -> TokKind<'_> {
    // Both grammars start with a sign, a digit or (the float's) a point.
    if !matches!(
        run.as_bytes().first(),
        Some(b'0'..=b'9' | b'+' | b'-' | b'.')
    ) {
        return TokKind::Sym(run);
    }
    if let Ok(i) = run.parse::<i64>() {
        return TokKind::Int(i);
    }
    if run.contains('.') {
        if let Ok(x) = run.parse::<f64>() {
            return TokKind::Float(x);
        }
    }
    TokKind::Sym(run)
}

/// A cursor over OPS5 source text.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// The 1-based line and column of byte offset `at`, a char boundary of
    /// the source. Columns count chars; only `\n` ends a line.
    pub fn line_col(&self, at: usize) -> (u32, u32) {
        let before = &self.src[..at];
        let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
        let line = 1 + before.bytes().filter(|b| *b == b'\n').count();
        let col = 1 + before[line_start..].chars().count();
        (line as u32, col as u32)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.as_bytes().get(at).copied()
    }

    /// The char starting at byte `at`, a char boundary of the source.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src[at..].chars().next()
    }

    /// The end of the run of chars from byte `from` that are ASCII of
    /// `class` or non-ASCII and `wide`.
    fn run_end(&self, from: usize, class: u8, wide: fn(char) -> bool) -> usize {
        let mut i = from;
        while let Some(b) = self.byte(i) {
            let c = CLASS[b as usize];
            if c & class != 0 {
                i += 1;
            } else if c & WIDE != 0 {
                match self.char_at(i) {
                    Some(ch) if wide(ch) => i += ch.len_utf8(),
                    _ => break,
                }
            } else {
                break;
            }
        }
        i
    }

    /// The next token; `Eof` (again and again) at the end of the source.
    pub fn next_token(&mut self) -> Result<Token<'a>> {
        // Whitespace and `;` comments.
        loop {
            self.pos = self.run_end(self.pos, SPACE, char::is_whitespace);
            if self.byte(self.pos) != Some(b';') {
                break;
            }
            let rest = &self.src[self.pos..];
            self.pos += rest.find('\n').unwrap_or(rest.len());
        }
        let at = self.pos;
        let lex_err = |lexer: &Self, msg: String| {
            let (line, col) = lexer.line_col(at);
            Err(Ops5Error::Lex { line, col, msg })
        };
        let Some(b) = self.byte(at) else {
            let kind = TokKind::Eof;
            return Ok(Token { kind, at });
        };
        let symbol_end = |from| self.run_end(from, SYM, char::is_alphanumeric);
        // (kind, the byte offset the token ends at)
        let (kind, end) = match (b, self.byte(at + 1)) {
            (b'(', _) => (TokKind::LParen, at + 1),
            (b')', _) => (TokKind::RParen, at + 1),
            (b'{', _) => (TokKind::LBrace, at + 1),
            (b'}', _) => (TokKind::RBrace, at + 1),
            (b'=', _) => (TokKind::Pred(PredTok::Eq), at + 1),
            (b'>', Some(b'>')) => (TokKind::RDisj, at + 2),
            (b'>', Some(b'=')) => (TokKind::Pred(PredTok::Ge), at + 2),
            (b'>', _) => (TokKind::Pred(PredTok::Gt), at + 1),
            (b'<', Some(b'<')) => (TokKind::LDisj, at + 2),
            (b'<', Some(b'>')) => (TokKind::Pred(PredTok::Ne), at + 2),
            (b'<', Some(b'=')) if self.byte(at + 2) == Some(b'>') => {
                (TokKind::Pred(PredTok::SameType), at + 3)
            }
            (b'<', Some(b'=')) => (TokKind::Pred(PredTok::Le), at + 2),
            (b'<', _)
                if (self.char_at(at + 1)).is_some_and(|c| c.is_alphanumeric() || c == '_') =>
            {
                // A variable: <name>, closed before any whitespace or paren.
                let end = self.run_end(at + 1, VAR, |c| !c.is_whitespace());
                let name = &self.src[at + 1..end];
                if self.byte(end) != Some(b'>') {
                    return lex_err(self, format!("unterminated variable <{name}"));
                }
                (TokKind::Var(name), end + 1)
            }
            (b'<', _) => (TokKind::Pred(PredTok::Lt), at + 1),
            (b'-', Some(b'-')) if self.byte(at + 2) == Some(b'>') => (TokKind::Arrow, at + 3),
            (b'-', Some(b'0'..=b'9')) => {
                let end = symbol_end(at + 1);
                (literal(&self.src[at..end]), end)
            }
            (b'-', _) => (TokKind::Minus, at + 1),
            (b'^', _) => {
                let end = self.run_end(at + 1, ATTR, char::is_alphanumeric);
                if end == at + 1 {
                    return lex_err(self, "expected attribute name after ^".into());
                }
                (TokKind::Attr(&self.src[at + 1..end]), end)
            }
            (b'|', _) => {
                // |quoted symbol| — may contain anything but `|`, and is a
                // symbol whatever it looks like.
                let Some(len) = self.src[at + 1..].find('|') else {
                    return lex_err(self, "unterminated |symbol|".into());
                };
                (TokKind::Sym(&self.src[at + 1..at + 1 + len]), at + len + 2)
            }
            _ => {
                let end = symbol_end(at);
                if end == at {
                    let other = self.char_at(at).expect("a byte was there");
                    return lex_err(self, format!("unexpected character {other:?}"));
                }
                (literal(&self.src[at..end]), end)
            }
        };
        self.pos = end;
        Ok(Token { kind, at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the cursor, the closing `Eof` included.
    pub(super) fn lex(src: &str) -> Result<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lexer.next_token()?;
            toks.push(t);
            if t.kind == TokKind::Eof {
                return Ok(toks);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_production_tokens() {
        let ks = kinds("(p find (goal ^type find-block) --> (halt))");
        assert_eq!(ks[0], TokKind::LParen);
        assert_eq!(ks[1], TokKind::Sym("p"));
        assert_eq!(ks[2], TokKind::Sym("find"));
        assert!(ks.contains(&TokKind::Attr("type")));
        assert!(ks.contains(&TokKind::Arrow));
        assert!(ks.contains(&TokKind::Sym("find-block")));
    }

    #[test]
    fn variables_vs_predicates() {
        let ks = kinds("<x> < <= <> <=> >= > << >>");
        assert_eq!(
            ks,
            vec![
                TokKind::Var("x"),
                TokKind::Pred(PredTok::Lt),
                TokKind::Pred(PredTok::Le),
                TokKind::Pred(PredTok::Ne),
                TokKind::Pred(PredTok::SameType),
                TokKind::Pred(PredTok::Ge),
                TokKind::Pred(PredTok::Gt),
                TokKind::LDisj,
                TokKind::RDisj,
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("12 -4 3.5 -0.25"),
            vec![
                TokKind::Int(12),
                TokKind::Int(-4),
                TokKind::Float(3.5),
                TokKind::Float(-0.25),
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn minus_and_arrow() {
        assert_eq!(
            kinds("- --> -"),
            vec![TokKind::Minus, TokKind::Arrow, TokKind::Minus, TokKind::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("foo ; a comment\nbar"),
            vec![TokKind::Sym("foo"), TokKind::Sym("bar"), TokKind::Eof]
        );
    }

    #[test]
    fn line_tracking() {
        let src = "a\n é b";
        let lexer = Lexer::new(src);
        let ts = lex(src).unwrap();
        assert_eq!(lexer.line_col(ts[0].at), (1, 1));
        assert_eq!(lexer.line_col(ts[1].at), (2, 2));
        assert_eq!(lexer.line_col(ts[2].at), (2, 4), "columns count chars");
    }

    #[test]
    fn braces_for_conjunction() {
        assert_eq!(
            kinds("{ > 2 < 5 }"),
            vec![
                TokKind::LBrace,
                TokKind::Pred(PredTok::Gt),
                TokKind::Int(2),
                TokKind::Pred(PredTok::Lt),
                TokKind::Int(5),
                TokKind::RBrace,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn quoted_symbol() {
        assert_eq!(
            kinds("|hello world|"),
            vec![TokKind::Sym("hello world"), TokKind::Eof]
        );
    }

    #[test]
    fn unterminated_var_is_error() {
        assert!(lex("<oops").is_err());
    }

    #[test]
    fn symbols_with_hyphens() {
        assert_eq!(
            kinds("find-colored-block"),
            vec![TokKind::Sym("find-colored-block"), TokKind::Eof]
        );
    }
}

#[cfg(test)]
mod fuzz {
    use super::tests::lex;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Lexing the rendering of arbitrary symbol-ish words roundtrips.
        #[test]
        fn symbols_roundtrip(words in proptest::collection::vec("[a-z][a-z0-9-]{0,10}", 1..8)) {
            let src = words.join(" ");
            let toks = lex(&src).unwrap();
            let syms: Vec<&str> = toks
                .into_iter()
                .filter_map(|t| match t.kind {
                    TokKind::Sym(s) => Some(s),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(syms, words);
        }
    }
}
