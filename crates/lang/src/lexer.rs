//! Hand-rolled lexer for the mini-C language.

use crate::error::{Error, ErrorKind};
use std::fmt;

/// A half-open source region, tracked as 1-based line/column of its start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// The lexical categories of the language. Identifiers are slices of the
/// source text they were read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// Identifier (variable, function, or label name).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Keywords.
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `switch`
    KwSwitch,
    /// `case`
    KwCase,
    /// `default`
    KwDefault,
    /// `goto`
    KwGoto,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `return`
    KwReturn,
    /// `read`
    KwRead,
    /// `write`
    KwWrite,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(n) => write!(f, "integer `{n}`"),
            TokenKind::KwIf => write!(f, "`if`"),
            TokenKind::KwElse => write!(f, "`else`"),
            TokenKind::KwWhile => write!(f, "`while`"),
            TokenKind::KwDo => write!(f, "`do`"),
            TokenKind::KwSwitch => write!(f, "`switch`"),
            TokenKind::KwCase => write!(f, "`case`"),
            TokenKind::KwDefault => write!(f, "`default`"),
            TokenKind::KwGoto => write!(f, "`goto`"),
            TokenKind::KwBreak => write!(f, "`break`"),
            TokenKind::KwContinue => write!(f, "`continue`"),
            TokenKind::KwReturn => write!(f, "`return`"),
            TokenKind::KwRead => write!(f, "`read`"),
            TokenKind::KwWrite => write!(f, "`write`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::NotEq => write!(f, "`!=`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token category and payload.
    pub kind: TokenKind<'src>,
    /// Where the token starts.
    pub span: Span,
}

/// Streaming lexer over source text: a position in the text, so copying
/// it saves the position to come back to.
///
/// Supports `// line` and `/* block */` comments.
///
/// # Examples
///
/// ```
/// use jumpslice_lang::{Lexer, TokenKind};
/// let tokens = Lexer::new("x = 1; // init").tokenize()?;
/// assert_eq!(tokens.len(), 5); // x, =, 1, ;, EOF
/// assert_eq!(tokens[0].kind, TokenKind::Ident("x"));
/// assert_eq!(tokens[1].kind, TokenKind::Assign);
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// The byte after the next character, when that character is ASCII.
    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// Consumes ASCII characters while `keep` accepts them and returns
    /// the text consumed, which starts `from` bytes back.
    fn take_while(&mut self, from: usize, keep: fn(u8) -> bool) -> &'src str {
        let start = self.pos - from;
        while self.src.as_bytes().get(self.pos).copied().is_some_and(keep) {
            self.pos += 1;
            self.col += 1;
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) -> Result<(), Error> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some('/') if self.peek2() == Some(b'*') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.bump();
                    let mut prev = '\0';
                    loop {
                        match self.bump() {
                            Some('/') if prev == '*' => break,
                            Some(c) => prev = c,
                            None => {
                                return Err(Error::new(ErrorKind::UnterminatedComment, line, col))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token.
    ///
    /// # Errors
    ///
    /// Returns an error on characters outside the language, on integer
    /// literals that overflow `i64`, and on a `/*` comment that is never
    /// closed.
    pub fn next_token(&mut self) -> Result<Token<'src>, Error> {
        self.skip_trivia()?;
        let span = Span {
            line: self.line,
            col: self.col,
        };
        let tok = |kind| Ok(Token { kind, span });
        let c = match self.bump() {
            None => return tok(TokenKind::Eof),
            Some(c) => c,
        };
        // A second character completes a two-character operator.
        let mut then = |next: char, two: TokenKind<'src>, one: Option<TokenKind<'src>>| {
            if self.peek() == Some(next) {
                self.bump();
                tok(two)
            } else if let Some(one) = one {
                tok(one)
            } else {
                Err(Error::new(
                    ErrorKind::UnexpectedChar(c),
                    span.line,
                    span.col,
                ))
            }
        };
        match c {
            '(' => tok(TokenKind::LParen),
            ')' => tok(TokenKind::RParen),
            '{' => tok(TokenKind::LBrace),
            '}' => tok(TokenKind::RBrace),
            ';' => tok(TokenKind::Semi),
            ':' => tok(TokenKind::Colon),
            ',' => tok(TokenKind::Comma),
            '+' => tok(TokenKind::Plus),
            '-' => tok(TokenKind::Minus),
            '*' => tok(TokenKind::Star),
            '/' => tok(TokenKind::Slash),
            '%' => tok(TokenKind::Percent),
            '=' => then('=', TokenKind::EqEq, Some(TokenKind::Assign)),
            '!' => then('=', TokenKind::NotEq, Some(TokenKind::Bang)),
            '<' => then('=', TokenKind::Le, Some(TokenKind::Lt)),
            '>' => then('=', TokenKind::Ge, Some(TokenKind::Gt)),
            '&' => then('&', TokenKind::AndAnd, None),
            '|' => then('|', TokenKind::OrOr, None),
            c if c.is_ascii_digit() => {
                let text = self.take_while(1, |d| d.is_ascii_digit());
                match text.parse::<i64>() {
                    Ok(n) => tok(TokenKind::Int(n)),
                    Err(_) => Err(Error::new(
                        ErrorKind::IntOverflow(text.to_owned()),
                        span.line,
                        span.col,
                    )),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let text = self.take_while(1, |d| d.is_ascii_alphanumeric() || d == b'_');
                tok(match text {
                    "if" => TokenKind::KwIf,
                    "else" => TokenKind::KwElse,
                    "while" => TokenKind::KwWhile,
                    "do" => TokenKind::KwDo,
                    "switch" => TokenKind::KwSwitch,
                    "case" => TokenKind::KwCase,
                    "default" => TokenKind::KwDefault,
                    "goto" => TokenKind::KwGoto,
                    "break" => TokenKind::KwBreak,
                    "continue" => TokenKind::KwContinue,
                    "return" => TokenKind::KwReturn,
                    "read" => TokenKind::KwRead,
                    "write" => TokenKind::KwWrite,
                    _ => TokenKind::Ident(text),
                })
            }
            other => Err(Error::new(
                ErrorKind::UnexpectedChar(other),
                span.line,
                span.col,
            )),
        }
    }

    /// The first lexical error in the rest of the input, if any: what a
    /// parser that stopped at a syntax error reports instead of it.
    pub(crate) fn first_error(&mut self) -> Option<Error> {
        loop {
            match self.next_token() {
                Ok(t) if t.kind == TokenKind::Eof => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }

    /// Tokenizes the entire input (including the final [`TokenKind::Eof`]).
    ///
    /// # Errors
    ///
    /// Propagates the first lexical error.
    pub fn tokenize(mut self) -> Result<Vec<Token<'src>>, Error> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            out.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_vs_identifiers() {
        let ks = kinds("if ifx goto L3 eof");
        assert_eq!(
            ks,
            vec![
                TokenKind::KwIf,
                TokenKind::Ident("ifx"),
                TokenKind::KwGoto,
                TokenKind::Ident("L3"),
                TokenKind::Ident("eof"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        let ks = kinds("== != <= >= && || < > = !");
        assert_eq!(
            ks,
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Assign,
                TokenKind::Bang,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("x // all of this vanishes\n = /* and this */ 1 ;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("x\n  y").tokenize().unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn int_overflow_is_reported() {
        let err = Lexer::new("99999999999999999999").tokenize().unwrap_err();
        assert!(matches!(err.kind, ErrorKind::IntOverflow(_)));
    }

    #[test]
    fn unexpected_char_is_reported() {
        let err = Lexer::new("x = @;").tokenize().unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnexpectedChar('@'));
        assert_eq!(err.col, 5);
    }

    #[test]
    fn lone_ampersand_rejected() {
        let err = Lexer::new("x & y").tokenize().unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnexpectedChar('&'));
    }

    /// A `/*` with no `*/` is an error at the comment's start, not the
    /// end of the input.
    #[test]
    fn unterminated_block_comment_is_reported() {
        let err = Lexer::new("read(x);\n  /* note write(x);")
            .tokenize()
            .unwrap_err();
        assert_eq!(
            (err.kind, err.line, err.col),
            (ErrorKind::UnterminatedComment, 2, 3)
        );
        assert_eq!(kinds("x /**/ /* a */ y"), kinds("x y"));
    }

    /// Columns count characters, not bytes.
    #[test]
    fn columns_count_characters() {
        let err = Lexer::new("/* é */ x = ü;").tokenize().unwrap_err();
        assert_eq!((err.kind, err.col), (ErrorKind::UnexpectedChar('ü'), 13));
    }

    #[test]
    fn slash_not_comment_is_division() {
        let ks = kinds("x / y");
        assert_eq!(ks[1], TokenKind::Slash);
    }
}
