//! Error types for the SQL frontend.
//!
//! Parse errors carry byte positions and a human-readable message; the
//! message text is what SQLBarber's check-and-rewrite loop (Algorithm 1)
//! feeds back to the LLM as "DBMS error messages", so it is written the way
//! a database server would phrase it.

use std::fmt;

/// A lexing or parsing failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub position: usize,
    /// Server-style message, e.g. `syntax error at or near ")"`.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(position: usize, message: impl Into<String>) -> Self {
        ParseError { position, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ERROR: {} (at character {})", self.message, self.position + 1)
    }
}

impl std::error::Error for ParseError {}

/// Frontend-level errors beyond parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexer/parser failure.
    Parse(ParseError),
    /// Template instantiation referenced a placeholder with no binding.
    MissingPlaceholder(u32),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::MissingPlaceholder(id) => {
                write!(f, "no value supplied for placeholder p_{id}")
            }
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_message_is_server_style() {
        let e = ParseError::new(4, "syntax error at or near \")\"");
        assert_eq!(e.to_string(), "ERROR: syntax error at or near \")\" (at character 5)");
    }

    #[test]
    fn sql_error_wraps_parse_error() {
        let e: SqlError = ParseError::new(0, "boom").into();
        assert!(matches!(e, SqlError::Parse(_)));
        assert!(e.to_string().contains("boom"));
    }
}
