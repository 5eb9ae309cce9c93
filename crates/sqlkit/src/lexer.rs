//! Hand-written SQL lexer.
//!
//! Produces a flat token stream with byte positions. Keywords are
//! recognized case-insensitively; identifiers preserve their original
//! spelling (lowercased, matching PostgreSQL's folding of unquoted
//! identifiers). The nonstandard token `{p_N}` lexes to
//! [`Token::Placeholder`] — this is the paper's template placeholder
//! syntax (Example 2.2).

use crate::error::ParseError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Case-folded keyword, e.g. `SELECT`.
    Keyword(Keyword),
    /// Lowercased unquoted identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal, unescaped.
    Str(String),
    /// `{p_N}` template placeholder.
    Placeholder(u32),
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// SQL keywords recognized by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    Distinct,
    Unique,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Asc,
    Desc,
    Join,
    Inner,
    Left,
    Outer,
    Cross,
    On,
    As,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Is,
    Null,
    Exists,
    Case,
    When,
    Then,
    Else,
    End,
    True,
    False,
}

impl Keyword {
    fn from_str(word: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Select,
            "DISTINCT" => Distinct,
            "UNIQUE" => Unique,
            "FROM" => From,
            "WHERE" => Where,
            "GROUP" => Group,
            "BY" => By,
            "HAVING" => Having,
            "ORDER" => Order,
            "LIMIT" => Limit,
            "ASC" => Asc,
            "DESC" => Desc,
            "JOIN" => Join,
            "INNER" => Inner,
            "LEFT" => Left,
            "OUTER" => Outer,
            "CROSS" => Cross,
            "ON" => On,
            "AS" => As,
            "AND" => And,
            "OR" => Or,
            "NOT" => Not,
            "IN" => In,
            "BETWEEN" => Between,
            "LIKE" => Like,
            "IS" => Is,
            "NULL" => Null,
            "EXISTS" => Exists,
            "CASE" => Case,
            "WHEN" => When,
            "THEN" => Then,
            "ELSE" => Else,
            "END" => End,
            "TRUE" => True,
            "FALSE" => False,
            _ => return None,
        })
    }
}

/// A token paired with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub pos: usize,
}

/// Tokenize `input` into a vector of spanned tokens.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Spanned { token: Token::LParen, pos: start });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned { token: Token::RParen, pos: start });
                i += 1;
            }
            ',' => {
                tokens.push(Spanned { token: Token::Comma, pos: start });
                i += 1;
            }
            '.' => {
                tokens.push(Spanned { token: Token::Dot, pos: start });
                i += 1;
            }
            ';' => {
                tokens.push(Spanned { token: Token::Semicolon, pos: start });
                i += 1;
            }
            '*' => {
                tokens.push(Spanned { token: Token::Star, pos: start });
                i += 1;
            }
            '+' => {
                tokens.push(Spanned { token: Token::Plus, pos: start });
                i += 1;
            }
            '-' => {
                tokens.push(Spanned { token: Token::Minus, pos: start });
                i += 1;
            }
            '/' => {
                tokens.push(Spanned { token: Token::Slash, pos: start });
                i += 1;
            }
            '%' => {
                tokens.push(Spanned { token: Token::Percent, pos: start });
                i += 1;
            }
            '=' => {
                tokens.push(Spanned { token: Token::Eq, pos: start });
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::LtEq, pos: start });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Spanned { token: Token::NotEq, pos: start });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Lt, pos: start });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::GtEq, pos: start });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Gt, pos: start });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::NotEq, pos: start });
                    i += 2;
                } else {
                    return Err(ParseError::new(start, "syntax error at or near \"!\""));
                }
            }
            '\'' => {
                let mut value = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::new(start, "unterminated quoted string"));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            value.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        value.push(bytes[i] as char);
                        i += 1;
                    }
                }
                tokens.push(Spanned { token: Token::Str(value), pos: start });
            }
            '{' => {
                // {p_N} placeholder
                let close = input[i..]
                    .find('}')
                    .map(|off| i + off)
                    .ok_or_else(|| ParseError::new(start, "unterminated placeholder"))?;
                let body = &input[i + 1..close];
                let id = body.strip_prefix("p_").and_then(|n| n.parse::<u32>().ok()).ok_or_else(
                    || {
                        ParseError::new(
                            start,
                            format!("invalid placeholder \"{{{body}}}\"; expected {{p_N}}"),
                        )
                    },
                )?;
                tokens.push(Spanned { token: Token::Placeholder(id), pos: start });
                i = close + 1;
            }
            '0'..='9' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() {
                    match bytes[end] {
                        b'0'..=b'9' => end += 1,
                        b'.' if !is_float
                            && end + 1 < bytes.len()
                            && bytes[end + 1].is_ascii_digit() =>
                        {
                            is_float = true;
                            end += 1;
                        }
                        b'e' | b'E'
                            if end + 1 < bytes.len()
                                && (bytes[end + 1].is_ascii_digit()
                                    || ((bytes[end + 1] == b'+' || bytes[end + 1] == b'-')
                                        && end + 2 < bytes.len()
                                        && bytes[end + 2].is_ascii_digit())) =>
                        {
                            is_float = true;
                            end += if bytes[end + 1].is_ascii_digit() { 2 } else { 3 };
                            while end < bytes.len() && bytes[end].is_ascii_digit() {
                                end += 1;
                            }
                            break;
                        }
                        _ => break,
                    }
                }
                let text = &input[i..end];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|_| {
                        ParseError::new(start, format!("invalid numeric literal \"{text}\""))
                    })?)
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => Token::Int(v),
                        Err(_) => Token::Float(text.parse().map_err(|_| {
                            ParseError::new(start, format!("invalid numeric literal \"{text}\""))
                        })?),
                    }
                };
                tokens.push(Spanned { token, pos: start });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let word = &input[i..end];
                let token = match Keyword::from_str(word) {
                    Some(kw) => Token::Keyword(kw),
                    None => Token::Ident(word.to_ascii_lowercase()),
                };
                tokens.push(Spanned { token, pos: start });
                i = end;
            }
            other => {
                return Err(ParseError::new(start, format!("syntax error at or near \"{other}\"")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_fold_case_and_identifiers_lowercase() {
        assert_eq!(
            toks("SeLeCt Foo"),
            vec![Token::Keyword(Keyword::Select), Token::Ident("foo".into())]
        );
    }

    #[test]
    fn placeholder_round_trip() {
        assert_eq!(toks("{p_12}"), vec![Token::Placeholder(12)]);
    }

    #[test]
    fn malformed_placeholder_is_an_error() {
        assert!(tokenize("{q_1}").is_err());
        assert!(tokenize("{p_}").is_err());
        assert!(tokenize("{p_1").is_err());
    }

    #[test]
    fn numbers_int_float_and_exponent() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("4.5"), vec![Token::Float(4.5)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("2.5e-1"), vec![Token::Float(0.25)]);
    }

    #[test]
    fn huge_integer_falls_back_to_float() {
        assert_eq!(toks("99999999999999999999"), vec![Token::Float(1e20)]);
    }

    #[test]
    fn string_with_escaped_quote() {
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into())]);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = tokenize("'abc").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = <> !="),
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::NotEq,
                Token::NotEq
            ]
        );
    }

    #[test]
    fn line_comments_are_skipped() {
        assert_eq!(
            toks("select -- hi\n x"),
            vec![Token::Keyword(Keyword::Select), Token::Ident("x".into())]
        );
    }

    #[test]
    fn unknown_character_reports_position() {
        let err = tokenize("select #").unwrap_err();
        assert_eq!(err.position, 7);
    }
}
