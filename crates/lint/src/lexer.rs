//! A minimal token-level Rust lexer — just enough structure for the D004
//! audit.
//!
//! The lexer produces identifiers, punctuation, literals and lifetimes
//! with exact 1-based line/column positions. Comments, string literals,
//! char literals and raw strings are consumed as opaque units so their
//! *contents* can never produce a false lint match — `"partial_cmp"`
//! inside a string or a doc example is invisible to the lint passes.
//!
//! This is deliberately not a full Rust lexer: numeric literals with
//! exotic exponents may split into several tokens, which is harmless for
//! pattern matching over identifiers and punctuation.

/// What a token is, at the granularity the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`for`, `HashMap`, `iter`, ...).
    Ident,
    /// Punctuation; `::` is coalesced into one token, all else one char.
    Punct,
    /// A numeric, string, char or byte literal (contents are opaque).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text; string/char literals are reported as `"…"` / `'…'`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Tok {
    /// `true` if this is an identifier spelled exactly `text`.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// `true` if this is punctuation spelled exactly `text`.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// Lexes `source` into its non-comment tokens, in source order.
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer::new(source).run()
}

struct Lexer {
    src: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    out: Vec<Tok>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            src: source.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.src.get(self.i + ahead).copied()
    }

    /// Consumes one char, keeping line/col in sync.
    fn bump(&mut self) -> char {
        let c = self.src[self.i];
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.push(Tok { kind, text, line, col });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.bump();
                }
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string_literal(line, col);
            } else if (c == 'r' || c == 'b') && self.raw_or_byte_string(line, col) {
                // consumed by raw_or_byte_string
            } else if c == '\'' {
                self.char_or_lifetime(line, col);
            } else if is_ident_start(c) {
                let mut text = String::new();
                while self.peek(0).is_some_and(is_ident_continue) {
                    text.push(self.bump());
                }
                self.push(TokKind::Ident, text, line, col);
            } else if c.is_ascii_digit() {
                self.number_literal(line, col);
            } else if c == ':' && self.peek(1) == Some(':') {
                self.bump();
                self.bump();
                self.push(TokKind::Punct, "::".to_owned(), line, col);
            } else {
                let c = self.bump();
                self.push(TokKind::Punct, c.to_string(), line, col);
            }
        }
        self.out
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 && self.peek(0).is_some() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a `"…"` string with escapes (the opening quote is next).
    fn string_literal(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump();
                if self.peek(0).is_some() {
                    self.bump();
                }
            } else if c == '"' {
                self.bump();
                break;
            } else {
                self.bump();
            }
        }
        self.push(TokKind::Literal, "\"…\"".to_owned(), line, col);
    }

    /// Tries to consume `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` starting at
    /// the current `r`/`b`; returns `false` (consuming nothing) if the
    /// lookahead is not a string prefix.
    fn raw_or_byte_string(&mut self, line: u32, col: u32) -> bool {
        let mut ahead = 1; // past the 'r' or 'b'
        let first = self.peek(0);
        if first == Some('b') {
            match self.peek(1) {
                Some('"') => {
                    self.bump(); // 'b'
                    self.string_literal(line, col);
                    return true;
                }
                Some('r') => ahead = 2,
                _ => return false,
            }
        }
        // Now expect zero or more '#' then '"'.
        let mut hashes = 0usize;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some('"') {
            return false;
        }
        for _ in 0..(ahead + hashes + 1) {
            self.bump(); // prefix, hashes, opening quote
        }
        // Scan for '"' followed by `hashes` '#'s.
        'outer: while self.peek(0).is_some() {
            if self.bump() == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Literal, "r\"…\"".to_owned(), line, col);
        true
    }

    /// Disambiguates `'a'` / `'\n'` char literals from `'a` lifetimes.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        self.bump();
                        if self.peek(0).is_some() {
                            self.bump();
                        }
                    } else if c == '\'' {
                        self.bump();
                        break;
                    } else {
                        self.bump();
                    }
                }
                self.push(TokKind::Literal, "'…'".to_owned(), line, col);
            }
            Some(c) if is_ident_start(c) => {
                if self.peek(1) == Some('\'') {
                    // 'a'
                    self.bump();
                    self.bump();
                    self.push(TokKind::Literal, "'…'".to_owned(), line, col);
                } else {
                    // 'lifetime
                    let mut text = String::from("'");
                    while self.peek(0).is_some_and(is_ident_continue) {
                        text.push(self.bump());
                    }
                    self.push(TokKind::Lifetime, text, line, col);
                }
            }
            _ => {
                // ' ' / '0' / stray quote: consume to the closing quote.
                while let Some(c) = self.peek(0) {
                    let done = c == '\'';
                    self.bump();
                    if done {
                        break;
                    }
                }
                self.push(TokKind::Literal, "'…'".to_owned(), line, col);
            }
        }
    }

    fn number_literal(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            text.push(self.bump());
        }
        // A fraction part: '.' followed by a digit (so `self.0.iter()`
        // keeps its '.' as punctuation).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            text.push(self.bump());
            while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                text.push(self.bump());
            }
        }
        self.push(TokKind::Literal, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a /* nested */ block */
            let s = "HashMap::iter";
            let r = r#"HashMap"#;
            let c = 'H';
        "##;
        assert!(!idents(src).iter().any(|t| t == "HashMap"));
        assert!(idents(src).iter().any(|t| t == "let"));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("fn main() {}\nlet x = 1;\n");
        let first = &lexed[0];
        assert_eq!((first.line, first.col), (1, 1));
        let let_tok = lexed.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!((let_tok.line, let_tok.col), (2, 1));
    }

    #[test]
    fn path_separator_coalesces() {
        let lexed = lex("std::collections::HashMap");
        let texts: Vec<&str> = lexed.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["std", "::", "collections", "::", "HashMap"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let n = '\\n'; }");
        let lifetimes: Vec<&Tok> =
            lexed.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = lexed.iter().filter(|t| t.text == "'…'").count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn tuple_field_access_keeps_dot() {
        let lexed = lex("self.0.iter()");
        let texts: Vec<&str> = lexed.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["self", ".", "0", ".", "iter", "(", ")"]);
    }

    #[test]
    fn float_literals_lex_as_one_token() {
        let lexed = lex("let x = 1.5 + 2.0_f64;");
        assert!(lexed.iter().any(|t| t.text == "1.5"));
        assert!(lexed.iter().any(|t| t.text == "2.0_f64"));
    }
}
