//! Recursive-descent parser for the SQLBarber SQL subset.
//!
//! Grammar (informally):
//!
//! ```text
//! select     := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
//!               [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
//!               [LIMIT int] [;]
//! join       := [INNER|LEFT [OUTER]|CROSS] JOIN table_ref [ON expr]
//! expr       := or_expr, with standard SQL precedence:
//!               OR < AND < NOT < (comparison | IS | IN | BETWEEN | LIKE)
//!               < additive < multiplicative < unary minus < primary
//! primary    := literal | {p_N} | column | function(args) | CASE …
//!             | ( expr ) | ( select )
//! ```
//!
//! The paper's `SELECT UNIQUE(expr)` idiom (Example 2.2) is accepted as a
//! synonym for `SELECT DISTINCT expr`.
//!
//! Nesting is bounded by [`MAX_DEPTH`], so neither the parser nor any
//! later recursive pass over the tree (printing, planning, evaluation,
//! `Drop`) can overflow its stack on hostile input.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{tokenize, Keyword, Spanned, Token};
use crate::template::Template;

/// Deepest nesting the parser accepts. Parentheses, unary operators and
/// subqueries each open one level while they are parsed, and no
/// expression — left-associative binary spines included — may be
/// deeper than this many AST nodes. Deeper input is a [`ParseError`].
/// Unoptimized builds spend up to ~20 KiB of stack per parenthesis
/// level, so 64 levels stay well inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 64;

/// Parse a single `SELECT` statement. Fails on trailing input.
pub fn parse_select(input: &str) -> Result<Select, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, input_len: input.len(), depth: 0 };
    let select = parser.parse_select()?;
    parser.eat_optional(&Token::Semicolon);
    if let Some(tok) = parser.peek() {
        return Err(ParseError::new(
            tok.pos,
            format!("syntax error at or near {}", describe(&tok.token)),
        ));
    }
    Ok(select)
}

/// Parse a SQL template: a `SELECT` statement that may contain `{p_N}`
/// placeholders (Definition 2.1).
pub fn parse_template(input: &str) -> Result<Template, ParseError> {
    Ok(Template::new(parse_select(input)?))
}

fn describe(token: &Token) -> String {
    match token {
        Token::Keyword(kw) => format!("\"{kw:?}\"").to_uppercase(),
        Token::Ident(name) => format!("\"{name}\""),
        Token::Int(v) => format!("\"{v}\""),
        Token::Float(v) => format!("\"{v}\""),
        Token::Str(s) => format!("'{s}'"),
        Token::Placeholder(id) => format!("\"{{p_{id}}}\""),
        Token::LParen => "\"(\"".into(),
        Token::RParen => "\")\"".into(),
        Token::Comma => "\",\"".into(),
        Token::Dot => "\".\"".into(),
        Token::Semicolon => "\";\"".into(),
        Token::Star => "\"*\"".into(),
        Token::Plus => "\"+\"".into(),
        Token::Minus => "\"-\"".into(),
        Token::Slash => "\"/\"".into(),
        Token::Percent => "\"%\"".into(),
        Token::Eq => "\"=\"".into(),
        Token::NotEq => "\"<>\"".into(),
        Token::Lt => "\"<\"".into(),
        Token::LtEq => "\"<=\"".into(),
        Token::Gt => "\">\"".into(),
        Token::GtEq => "\">=\"".into(),
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    input_len: usize,
    /// Levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

/// AST depth of `expr`, subquery bodies included: 1 for a leaf, one more
/// than the deepest child otherwise. The parser calls it only on trees
/// it has already bounded, so the recursion is bounded too.
fn depth(expr: &Expr) -> usize {
    let children = |exprs: &mut dyn Iterator<Item = &Expr>| exprs.map(depth).max().unwrap_or(0);
    1 + match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Placeholder(_) | Expr::Wildcard => 0,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => depth(expr),
        Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
            depth(a).max(depth(b))
        }
        Expr::Between { expr, low, high, .. } => depth(expr).max(depth(low)).max(depth(high)),
        Expr::InList { expr, list, .. } => depth(expr).max(children(&mut list.iter())),
        Expr::InSubquery { expr, subquery, .. } => depth(expr).max(select_depth(subquery)),
        Expr::ScalarSubquery(subquery) | Expr::Exists { subquery, .. } => select_depth(subquery),
        Expr::Function { args, .. } => children(&mut args.iter()),
        Expr::Case { operand, branches, else_branch } => children(
            &mut operand
                .iter()
                .chain(else_branch)
                .map(|e| &**e)
                .chain(branches.iter().flat_map(|(when, then)| [when, then])),
        ),
    }
}

/// One more than the depth of the deepest expression in `select`.
fn select_depth(select: &Select) -> usize {
    let exprs = select
        .projections
        .iter()
        .map(|p| &p.expr)
        .chain(select.joins.iter().filter_map(|j| j.on.as_ref()))
        .chain(&select.where_clause)
        .chain(&select.group_by)
        .chain(&select.having)
        .chain(select.order_by.iter().map(|o| &o.expr));
    1 + exprs.map(depth).max().unwrap_or(0)
}

impl Parser {
    fn too_deep(&self) -> ParseError {
        ParseError::new(
            self.here(),
            format!("nesting exceeds the maximum depth of {MAX_DEPTH}"),
        )
    }

    /// Run `parse` one level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Fold `right` onto a left-associative spine whose depth so far is
    /// `spine`, failing once the spine passes [`MAX_DEPTH`].
    fn extend_spine(
        &self,
        left: Expr,
        spine: &mut usize,
        op: BinaryOp,
        right: Expr,
    ) -> Result<Expr, ParseError> {
        *spine = 1 + (*spine).max(depth(&right));
        if *spine > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(Expr::binary(left, op, right))
    }

    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn peek_token(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn advance(&mut self) -> Option<Spanned> {
        let tok = self.tokens.get(self.pos).cloned();
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn here(&self) -> usize {
        self.peek().map(|s| s.pos).unwrap_or(self.input_len)
    }

    fn error_here(&self, what: &str) -> ParseError {
        match self.peek() {
            Some(tok) => ParseError::new(
                tok.pos,
                format!("{what}, found {}", describe(&tok.token)),
            ),
            None => ParseError::new(self.input_len, format!("{what} at end of input")),
        }
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek_token() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error_here(what))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        let name = format!("{kw:?}").to_uppercase();
        self.expect(&Token::Keyword(kw), &format!("expected {name}"))
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek_token() == Some(&Token::Keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_optional(&mut self, token: &Token) -> bool {
        if self.peek_token() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek_token().cloned() {
            Some(Token::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.error_here(what)),
        }
    }

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.nested(Self::parse_select_body)
    }

    fn parse_select_body(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let mut distinct = self.eat_keyword(Keyword::Distinct);

        // `SELECT UNIQUE(expr, …)` — nonstandard DISTINCT synonym used in
        // the paper's running example.
        let mut projections = Vec::new();
        if self.eat_keyword(Keyword::Unique) {
            distinct = true;
            self.expect(&Token::LParen, "expected \"(\" after UNIQUE")?;
            loop {
                projections.push(self.parse_select_item()?);
                if !self.eat_optional(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "expected \")\" to close UNIQUE")?;
        } else {
            loop {
                projections.push(self.parse_select_item()?);
                if !self.eat_optional(&Token::Comma) {
                    break;
                }
            }
        }

        self.expect_keyword(Keyword::From)?;
        let from = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_optional(&Token::Comma) {
                // comma join → cross join
                let table = self.parse_table_ref()?;
                joins.push(Join { kind: JoinKind::Cross, table, on: None });
                continue;
            }
            let kind = if self.eat_keyword(Keyword::Join) {
                Some(JoinKind::Inner)
            } else if self.eat_keyword(Keyword::Inner) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Inner)
            } else if self.eat_keyword(Keyword::Left) {
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Left)
            } else if self.eat_keyword(Keyword::Cross) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Cross)
            } else {
                None
            };
            let Some(kind) = kind else { break };
            let table = self.parse_table_ref()?;
            let on = if kind != JoinKind::Cross {
                self.expect_keyword(Keyword::On)?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(Join { kind, table, on });
        }

        let where_clause =
            if self.eat_keyword(Keyword::Where) { Some(self.parse_expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_optional(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword(Keyword::Having) { Some(self.parse_expr()?) } else { None };

        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderByItem { expr, ascending });
                if !self.eat_optional(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.advance().map(|s| s.token) {
                Some(Token::Int(v)) if v >= 0 => Some(v as u64),
                _ => {
                    return Err(ParseError::new(
                        self.here(),
                        "LIMIT must be followed by a non-negative integer",
                    ))
                }
            }
        } else {
            None
        };

        Ok(Select {
            distinct,
            projections,
            from: Some(from),
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.peek_token() == Some(&Token::Star) {
            self.pos += 1;
            return Ok(SelectItem { expr: Expr::Wildcard, alias: None });
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("expected alias after AS")?)
        } else if let Some(Token::Ident(name)) = self.peek_token().cloned() {
            // bare alias: `SELECT expr name`
            self.pos += 1;
            Some(name)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.expect_ident("expected table name")?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("expected alias after AS")?)
        } else if let Some(Token::Ident(name)) = self.peek_token().cloned() {
            self.pos += 1;
            Some(name)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    /// Entry point for expression parsing (lowest precedence: OR). Opens
    /// one level, and rejects a result deeper than [`MAX_DEPTH`].
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let expr = self.nested(Self::parse_or)?;
        if depth(&expr) > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(expr)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        let mut spine = depth(&left);
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = self.extend_spine(left, &mut spine, BinaryOp::Or, right)?;
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        let mut spine = depth(&left);
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = self.extend_spine(left, &mut spine, BinaryOp::And, right)?;
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        // postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }

        let negated = if self.peek_token() == Some(&Token::Keyword(Keyword::Not))
            && matches!(
                self.peek2(),
                Some(Token::Keyword(Keyword::In))
                    | Some(Token::Keyword(Keyword::Between))
                    | Some(Token::Keyword(Keyword::Like))
            ) {
            self.pos += 1;
            true
        } else {
            false
        };

        if self.eat_keyword(Keyword::In) {
            self.expect(&Token::LParen, "expected \"(\" after IN")?;
            if self.peek_token() == Some(&Token::Keyword(Keyword::Select)) {
                let subquery = self.parse_select()?;
                self.expect(&Token::RParen, "expected \")\" to close subquery")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    negated,
                    subquery: Box::new(subquery),
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_optional(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "expected \")\" to close IN list")?;
            return Ok(Expr::InList { expr: Box::new(left), negated, list });
        }

        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            });
        }

        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { expr: Box::new(left), negated, pattern: Box::new(pattern) });
        }

        if negated {
            return Err(self.error_here("expected IN, BETWEEN, or LIKE after NOT"));
        }

        let op = match self.peek_token() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        let mut spine = depth(&left);
        loop {
            let op = match self.peek_token() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = self.extend_spine(left, &mut spine, op, right)?;
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        let mut spine = depth(&left);
        loop {
            let op = match self.peek_token() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = self.extend_spine(left, &mut spine, op, right)?;
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek_token() == Some(&Token::Minus) {
            self.pos += 1;
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.peek_token() == Some(&Token::Plus) {
            self.pos += 1;
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let Some(spanned) = self.peek().cloned() else {
            return Err(self.error_here("expected expression"));
        };
        match spanned.token {
            Token::Int(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(v)))
            }
            Token::Float(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(v)))
            }
            Token::Str(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Token::Placeholder(id) => {
                self.pos += 1;
                Ok(Expr::Placeholder(id))
            }
            Token::Keyword(Keyword::Null) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Token::Keyword(Keyword::True) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Token::Keyword(Keyword::False) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Token::Keyword(Keyword::Exists) => {
                self.pos += 1;
                self.expect(&Token::LParen, "expected \"(\" after EXISTS")?;
                let subquery = self.parse_select()?;
                self.expect(&Token::RParen, "expected \")\" to close subquery")?;
                Ok(Expr::Exists { negated: false, subquery: Box::new(subquery) })
            }
            Token::Keyword(Keyword::Not)
                if self.peek2() == Some(&Token::Keyword(Keyword::Exists)) =>
            {
                self.pos += 2;
                self.expect(&Token::LParen, "expected \"(\" after EXISTS")?;
                let subquery = self.parse_select()?;
                self.expect(&Token::RParen, "expected \")\" to close subquery")?;
                Ok(Expr::Exists { negated: true, subquery: Box::new(subquery) })
            }
            Token::Keyword(Keyword::Case) => {
                self.pos += 1;
                self.parse_case()
            }
            Token::LParen => {
                self.pos += 1;
                if self.peek_token() == Some(&Token::Keyword(Keyword::Select)) {
                    let subquery = self.parse_select()?;
                    self.expect(&Token::RParen, "expected \")\" to close subquery")?;
                    Ok(Expr::ScalarSubquery(Box::new(subquery)))
                } else {
                    let expr = self.parse_expr()?;
                    self.expect(&Token::RParen, "expected \")\"")?;
                    Ok(expr)
                }
            }
            Token::Ident(name) => {
                self.pos += 1;
                // function call?
                if self.peek_token() == Some(&Token::LParen) {
                    self.pos += 1;
                    let distinct = self.eat_keyword(Keyword::Distinct);
                    let mut args = Vec::new();
                    if self.peek_token() == Some(&Token::Star) {
                        self.pos += 1;
                        args.push(Expr::Wildcard);
                    } else if self.peek_token() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_optional(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen, "expected \")\" to close argument list")?;
                    return Ok(Expr::Function { name: name.to_ascii_uppercase(), distinct, args });
                }
                // qualified column?
                if self.peek_token() == Some(&Token::Dot) {
                    self.pos += 1;
                    let column = self.expect_ident("expected column name after \".\"")?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, column)));
                }
                Ok(Expr::Column(ColumnRef::bare(name)))
            }
            _ => Err(ParseError::new(
                spanned.pos,
                format!("syntax error at or near {}", describe(&spanned.token)),
            )),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        let operand = if self.peek_token() != Some(&Token::Keyword(Keyword::When)) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_keyword(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.error_here("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case { operand, branches, else_branch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `sql`, expecting the max-depth error.
    fn assert_too_deep(sql: &str) {
        let err = parse_select(sql).unwrap_err();
        assert!(err.message.contains("maximum depth of 64"), "{err}");
    }

    #[test]
    fn nesting_past_max_depth_is_a_parse_error() {
        let n = 100_000;
        assert_too_deep(&format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n)));
        assert_too_deep(&format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n)));
        assert_too_deep(&format!("SELECT {}1 FROM t", "- ".repeat(n)));
        assert_too_deep(&format!("SELECT 1{} FROM t", " + 1".repeat(n)));
        assert_too_deep(&format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(n)));
        assert_too_deep(&format!(
            "SELECT a FROM t WHERE {}SELECT a FROM t{}",
            "EXISTS (SELECT a FROM t WHERE ".repeat(n),
            ")".repeat(n),
        ));
    }

    #[test]
    fn nesting_within_max_depth_parses_and_prints() {
        // The select item opens one level and the select another.
        let nested = format!("SELECT {}1{} FROM t", "(".repeat(62), ")".repeat(62));
        let select = parse_select(&nested).unwrap();
        assert_eq!(parse_select(&select.to_string()).unwrap(), select);
        assert_too_deep(&format!("SELECT {}1{} FROM t", "(".repeat(63), ")".repeat(63)));
        // Each `a = 1` is two deep, and each AND adds one above it.
        let spine = format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(62));
        let select = parse_select(&spine).unwrap();
        assert_eq!(parse_select(&select.to_string()).unwrap(), select);
        assert_too_deep(&format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(63)));
        let negations = format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(60));
        assert!(parse_select(&negations).is_ok());
    }

    #[test]
    fn parses_paper_example_2_2() {
        let s = parse_select(
            "SELECT UNIQUE(user_id) FROM orders WHERE orders.order_amount > {p_1};",
        )
        .unwrap();
        assert!(s.distinct);
        assert_eq!(s.from.as_ref().unwrap().table, "orders");
        assert!(matches!(
            s.where_clause,
            Some(Expr::Binary { op: BinaryOp::Gt, .. })
        ));
    }

    #[test]
    fn parses_paper_example_2_8_nested_subquery() {
        let sql = "SELECT u.user_name, SUM(o.order_amount) \
                   FROM users AS u \
                   JOIN orders AS o ON u.user_id = o.user_id \
                   WHERE u.user_id IN ( \
                       SELECT user_id FROM orders GROUP BY user_id \
                       HAVING COUNT(order_id) > {p_1} ) \
                   AND o.order_amount >= {p_2};";
        let s = parse_select(sql).unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.subqueries().len(), 1);
        let subs = s.subqueries();
        assert_eq!(subs[0].group_by.len(), 1);
        assert!(subs[0].having.is_some());
    }

    #[test]
    fn comma_from_desugars_to_cross_join() {
        let s = parse_select("SELECT * FROM a, b WHERE a.x = b.y").unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Cross);
    }

    #[test]
    fn operator_precedence_and_or() {
        let s = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // OR is top-level: (a=1) OR ((b=2) AND (c=3))
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT 1 + 2 * 3 FROM t").unwrap();
        match &s.projections[0].expr {
            Expr::Binary { op: BinaryOp::Add, right, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn between_not_in_like_is_null() {
        let s = parse_select(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT IN (1,2) \
             AND c LIKE 'x%' AND d IS NOT NULL",
        )
        .unwrap();
        let mut kinds = Vec::new();
        s.where_clause.as_ref().unwrap().walk(&mut |e| match e {
            Expr::Between { .. } => kinds.push("between"),
            Expr::InList { negated: true, .. } => kinds.push("not_in"),
            Expr::Like { .. } => kinds.push("like"),
            Expr::IsNull { negated: true, .. } => kinds.push("is_not_null"),
            _ => {}
        });
        kinds.sort_unstable();
        assert_eq!(kinds, vec!["between", "is_not_null", "like", "not_in"]);
    }

    #[test]
    fn count_star_and_distinct_arguments() {
        let s = parse_select("SELECT COUNT(*), COUNT(DISTINCT x) FROM t").unwrap();
        match &s.projections[0].expr {
            Expr::Function { name, args, .. } => {
                assert_eq!(name, "COUNT");
                assert!(matches!(args[0], Expr::Wildcard));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &s.projections[1].expr {
            Expr::Function { distinct, .. } => assert!(distinct),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn case_expression() {
        let s = parse_select(
            "SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t",
        )
        .unwrap();
        assert!(matches!(s.projections[0].expr, Expr::Case { .. }));
    }

    #[test]
    fn order_by_limit_group_by_having() {
        let s = parse_select(
            "SELECT x, COUNT(*) FROM t GROUP BY x HAVING COUNT(*) > 3 \
             ORDER BY x DESC, y LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].ascending);
        assert!(s.order_by[1].ascending);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn left_join_and_cross_join() {
        let s = parse_select(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x CROSS JOIN c",
        )
        .unwrap();
        assert_eq!(s.joins[0].kind, JoinKind::Left);
        assert_eq!(s.joins[1].kind, JoinKind::Cross);
        assert!(s.joins[1].on.is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected_with_position() {
        let err = parse_select("SELECT * FROM t WHERE").unwrap_err();
        assert!(err.message.contains("expected expression"));
        let err = parse_select("SELECT * FROM t 42").unwrap_err();
        assert!(err.message.contains("syntax error"));
    }

    #[test]
    fn missing_on_clause_is_rejected() {
        let err = parse_select("SELECT * FROM a JOIN b WHERE a.x = 1").unwrap_err();
        assert!(err.message.to_uppercase().contains("ON"));
    }

    #[test]
    fn exists_and_not_exists() {
        let s = parse_select(
            "SELECT * FROM a WHERE EXISTS (SELECT * FROM b) AND NOT EXISTS (SELECT * FROM c)",
        )
        .unwrap();
        assert_eq!(s.subqueries().len(), 2);
    }

    #[test]
    fn scalar_subquery_in_projection() {
        let s = parse_select("SELECT (SELECT MAX(x) FROM b) FROM a").unwrap();
        assert!(matches!(s.projections[0].expr, Expr::ScalarSubquery(_)));
    }

    #[test]
    fn bare_alias_in_projection_and_from() {
        let s = parse_select("SELECT x total FROM orders o").unwrap();
        assert_eq!(s.projections[0].alias.as_deref(), Some("total"));
        assert_eq!(s.from.as_ref().unwrap().alias.as_deref(), Some("o"));
    }
}
