//! Error types for parsing and validation.

use std::error::Error as StdError;
use std::fmt;

/// What went wrong while turning source text into a valid [`crate::Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// A character the lexer does not understand.
    UnexpectedChar(char),
    /// An integer literal that does not fit in `i64`.
    IntOverflow(String),
    /// A `/*` comment with no closing `*/`.
    UnterminatedComment,
    /// The parser found `found` where it expected `expected`.
    UnexpectedToken {
        /// Human-readable description of what was expected.
        expected: String,
        /// The token actually found.
        found: String,
    },
    /// `goto L;` names a label that is attached to no statement.
    UndefinedLabel(String),
    /// The same label is attached to two statements.
    DuplicateLabel(String),
    /// `break;` outside any loop or switch.
    BreakOutsideLoop,
    /// `continue;` outside any loop.
    ContinueOutsideLoop,
    /// Two `case` guards with the same value in one `switch`.
    DuplicateCase(i64),
    /// More than one `default:` in one `switch`.
    DuplicateDefault,
    /// The program nests more than [`crate::MAX_DEPTH`] levels deep.
    NestingTooDeep,
}

/// A parse or validation error with its source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// The error category.
    pub kind: ErrorKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (0 when unknown, e.g. builder-produced).
    pub col: u32,
}

impl Error {
    pub(crate) fn new(kind: ErrorKind, line: u32, col: u32) -> Self {
        Error { kind, line, col }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: ", self.line, self.col)?;
        match &self.kind {
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ErrorKind::IntOverflow(s) => write!(f, "integer literal `{s}` overflows i64"),
            ErrorKind::UnterminatedComment => write!(f, "`/*` comment is never closed"),
            ErrorKind::UnexpectedToken { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ErrorKind::UndefinedLabel(l) => write!(f, "goto target `{l}` is not defined"),
            ErrorKind::DuplicateLabel(l) => write!(f, "label `{l}` is defined more than once"),
            ErrorKind::BreakOutsideLoop => write!(f, "`break` outside of loop or switch"),
            ErrorKind::ContinueOutsideLoop => write!(f, "`continue` outside of loop"),
            ErrorKind::DuplicateCase(v) => write!(f, "duplicate case value {v}"),
            ErrorKind::DuplicateDefault => write!(f, "duplicate `default` arm"),
            ErrorKind::NestingTooDeep => {
                write!(f, "nesting deeper than {} levels", crate::MAX_DEPTH)
            }
        }
    }
}

impl StdError for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = Error::new(ErrorKind::UndefinedLabel("L9".into()), 4, 7);
        assert_eq!(e.to_string(), "4:7: goto target `L9` is not defined");
        let e = Error::new(ErrorKind::UnterminatedComment, 2, 3);
        assert_eq!(e.to_string(), "2:3: `/*` comment is never closed");
    }
}
