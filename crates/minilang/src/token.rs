//! Tokens and the hand-written lexer for minilang.
//!
//! Minilang is the small object-oriented language Patty analyses and
//! rewrites; it plays the role the C# front end plays in the paper. The
//! lexer also recognizes `#region` / `#endregion` preprocessor lines so
//! TADL annotations survive a lex-parse round trip exactly as in the paper
//! ("we implemented TADL as a code annotation using preprocessor
//! directives", Section 2.1).

use crate::error::LangError;
use crate::span::Span;
use std::fmt;

/// Token kinds produced by `Lexer`.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    // literals and identifiers
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),

    // keywords
    Class,
    Fn,
    Var,
    If,
    Else,
    While,
    For,
    Foreach,
    In,
    Break,
    Continue,
    Return,
    New,
    True,
    False,
    Null,

    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Dot,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Not,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,

    /// A `#region <text>` preprocessor line; the payload is the text after
    /// `#region` up to the end of line (or up to `#endregion` on the same
    /// line, which is represented by a following [`Tok::EndRegion`]).
    Region(String),
    /// A `#endregion` preprocessor marker.
    EndRegion,

    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Class => write!(f, "class"),
            Tok::Fn => write!(f, "fn"),
            Tok::Var => write!(f, "var"),
            Tok::If => write!(f, "if"),
            Tok::Else => write!(f, "else"),
            Tok::While => write!(f, "while"),
            Tok::For => write!(f, "for"),
            Tok::Foreach => write!(f, "foreach"),
            Tok::In => write!(f, "in"),
            Tok::Break => write!(f, "break"),
            Tok::Continue => write!(f, "continue"),
            Tok::Return => write!(f, "return"),
            Tok::New => write!(f, "new"),
            Tok::True => write!(f, "true"),
            Tok::False => write!(f, "false"),
            Tok::Null => write!(f, "null"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Dot => write!(f, "."),
            Tok::Assign => write!(f, "="),
            Tok::PlusAssign => write!(f, "+="),
            Tok::MinusAssign => write!(f, "-="),
            Tok::StarAssign => write!(f, "*="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::Not => write!(f, "!"),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Region(s) => write!(f, "#region {s}"),
            Tok::EndRegion => write!(f, "#endregion"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus the span it was lexed from.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

/// Hand-written single-pass lexer.
pub(crate) struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
}

impl<'s> Lexer<'s> {
    /// Create a lexer over `src`.
    pub fn new(src: &'s str) -> Lexer<'s> {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1 }
    }

    /// Lex the whole input into a token vector ending with [`Tok::Eof`].
    pub fn lex(mut self) -> Result<Vec<Token>, LangError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.tok == Tok::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    while let Some(b) = self.bump() {
                        if b == b'*' && self.peek() == Some(b'/') {
                            self.bump();
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LangError> {
        self.skip_trivia();
        let lo = self.pos as u32;
        let line = self.line;
        let mk = |tok, lo, hi, line| Token { tok, span: Span::new(lo, hi, line) };

        let Some(b) = self.peek() else {
            return Ok(mk(Tok::Eof, lo, lo, line));
        };

        // preprocessor directives
        if b == b'#' {
            return self.lex_directive(lo, line);
        }

        if b.is_ascii_digit() {
            return self.lex_number(lo, line);
        }
        if b == b'_' || b.is_ascii_alphabetic() {
            return Ok(self.lex_ident_or_kw(lo, line));
        }
        if b == b'"' {
            return self.lex_string(lo, line);
        }

        self.bump();
        let two = |me: &mut Self, t| {
            me.bump();
            t
        };
        let tok = match b {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b',' => Tok::Comma,
            b';' => Tok::Semi,
            b'.' => Tok::Dot,
            b'%' => Tok::Percent,
            b'/' => Tok::Slash,
            b'+' if self.peek() == Some(b'=') => two(self, Tok::PlusAssign),
            b'+' => Tok::Plus,
            b'-' if self.peek() == Some(b'=') => two(self, Tok::MinusAssign),
            b'-' => Tok::Minus,
            b'*' if self.peek() == Some(b'=') => two(self, Tok::StarAssign),
            b'*' => Tok::Star,
            b'=' if self.peek() == Some(b'=') => two(self, Tok::EqEq),
            b'=' => Tok::Assign,
            b'!' if self.peek() == Some(b'=') => two(self, Tok::NotEq),
            b'!' => Tok::Not,
            b'<' if self.peek() == Some(b'=') => two(self, Tok::Le),
            b'<' => Tok::Lt,
            b'>' if self.peek() == Some(b'=') => two(self, Tok::Ge),
            b'>' => Tok::Gt,
            b'&' if self.peek() == Some(b'&') => two(self, Tok::AndAnd),
            b'|' if self.peek() == Some(b'|') => two(self, Tok::OrOr),
            other => {
                return Err(LangError::lex(
                    line,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(mk(tok, lo, self.pos as u32, line))
    }

    fn lex_directive(&mut self, lo: u32, line: u32) -> Result<Token, LangError> {
        // consume '#'
        self.bump();
        let word_start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphabetic()) {
            self.bump();
        }
        let word = &self.src[word_start..self.pos];
        match word {
            "region" => {
                // payload runs to end of line
                let payload_start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'\n' {
                        break;
                    }
                    self.bump();
                }
                let payload = self.src[payload_start..self.pos].trim().to_string();
                Ok(Token {
                    tok: Tok::Region(payload),
                    span: Span::new(lo, self.pos as u32, line),
                })
            }
            "endregion" => Ok(Token {
                tok: Tok::EndRegion,
                span: Span::new(lo, self.pos as u32, line),
            }),
            other => Err(LangError::lex(line, format!("unknown directive #{other}"))),
        }
    }

    fn lex_number(&mut self, lo: u32, line: u32) -> Result<Token, LangError> {
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b) if b.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = &self.src[lo as usize..self.pos];
        let tok = if is_float {
            Tok::Float(
                text.parse::<f64>()
                    .map_err(|e| LangError::lex(line, format!("bad float {text:?}: {e}")))?,
            )
        } else {
            Tok::Int(
                text.parse::<i64>()
                    .map_err(|e| LangError::lex(line, format!("bad integer {text:?}: {e}")))?,
            )
        };
        Ok(Token { tok, span: Span::new(lo, self.pos as u32, line) })
    }

    fn lex_ident_or_kw(&mut self, lo: u32, line: u32) -> Token {
        while matches!(self.peek(), Some(b) if b == b'_' || b.is_ascii_alphanumeric()) {
            self.bump();
        }
        let text = &self.src[lo as usize..self.pos];
        let tok = match text {
            "class" => Tok::Class,
            "fn" => Tok::Fn,
            "var" => Tok::Var,
            "if" => Tok::If,
            "else" => Tok::Else,
            "while" => Tok::While,
            "for" => Tok::For,
            "foreach" => Tok::Foreach,
            "in" => Tok::In,
            "break" => Tok::Break,
            "continue" => Tok::Continue,
            "return" => Tok::Return,
            "new" => Tok::New,
            "true" => Tok::True,
            "false" => Tok::False,
            "null" => Tok::Null,
            _ => Tok::Ident(text.to_string()),
        };
        Token { tok, span: Span::new(lo, self.pos as u32, line) }
    }

    fn lex_string(&mut self, lo: u32, line: u32) -> Result<Token, LangError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(LangError::lex(line, "unterminated string".into())),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    other => {
                        return Err(LangError::lex(
                            line,
                            format!("bad escape {:?}", other.map(|b| b as char)),
                        ))
                    }
                },
                Some(b) => out.push(b as char),
            }
        }
        Ok(Token { tok: Tok::Str(out), span: Span::new(lo, self.pos as u32, line) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        Lexer::new(src).lex().unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            kinds("( ) { } [ ] , ; . = == != < <= > >= && || ! + - * / % += -= *="),
            vec![
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::RBrace,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Comma,
                Tok::Semi,
                Tok::Dot,
                Tok::Assign,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Not,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::PlusAssign,
                Tok::MinusAssign,
                Tok::StarAssign,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class fn var foo if else while foreach in for"),
            vec![
                Tok::Class,
                Tok::Fn,
                Tok::Var,
                Tok::Ident("foo".into()),
                Tok::If,
                Tok::Else,
                Tok::While,
                Tok::Foreach,
                Tok::In,
                Tok::For,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 3.5 0 10.25"),
            vec![Tok::Int(42), Tok::Float(3.5), Tok::Int(0), Tok::Float(10.25), Tok::Eof]
        );
    }

    #[test]
    fn integer_followed_by_dot_method_is_not_float() {
        // `5.abs()` must lex as Int Dot Ident, not as a float.
        assert_eq!(
            kinds("5.abs"),
            vec![Tok::Int(5), Tok::Dot, Tok::Ident("abs".into()), Tok::Eof]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#""hi\n\"x\"""#),
            vec![Tok::Str("hi\n\"x\"".into()), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(Lexer::new("\"oops").lex().is_err());
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("1 // comment\n /* block \n comment */ 2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn lexes_region_directives() {
        let toks = kinds("#region TADL: (A || B) => C\nvar x = 1;\n#endregion");
        assert_eq!(toks[0], Tok::Region("TADL: (A || B) => C".into()));
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
        assert_eq!(toks[toks.len() - 2], Tok::EndRegion);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = Lexer::new("1\n2\n\n3").lex().unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.span.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(Lexer::new("let x = @;").lex().is_err());
    }

    #[test]
    fn rejects_unknown_directive() {
        assert!(Lexer::new("#pragma once").lex().is_err());
    }
}
