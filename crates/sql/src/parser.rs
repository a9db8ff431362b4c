//! Recursive-descent parser: tokens → [`SelectStmt`].

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::tokenizer::{tokenize, Token};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{DataType, Value};

/// How deeply an expression may nest. Each parenthesis, function argument,
/// `NOT` or sign is a level, and so is each operator of a chain such as
/// `a = 0 OR a = 1 OR ...`, which builds one tree level per operator.
/// Planning and evaluation recurse once per level, so an expression at the
/// limit still plans and runs on a 2 MiB thread stack in a debug build; a
/// deeper one is a parse error, not a stack overflow. (SQLite's
/// `SQLITE_MAX_EXPR_DEPTH` does the same, at 1 000.)
pub const MAX_EXPR_DEPTH: usize = 100;

/// Parse one SELECT statement (a trailing semicolon is allowed).
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.parse_select()?;
    p.consume_if(&Token::Semicolon);
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Table names a statement reads (FROM + JOINs + subqueries), in
/// first-appearance order. This is what the code-intelligence layer uses to
/// build the pipeline DAG from "implicit references" (paper §4.4.1).
pub fn referenced_tables(stmt: &SelectStmt) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for rel in stmt
        .from
        .iter()
        .chain(stmt.joins.iter().map(|j| &j.relation))
    {
        let names = match rel {
            Relation::Table { name, .. } => vec![name.clone()],
            Relation::Subquery { query, .. } => referenced_tables(query),
        };
        for name in names {
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression levels open around the current token.
    depth: usize,
}

/// An operator that chains left to right.
#[derive(Clone, Copy)]
enum Chained {
    Logical(LogicalOp),
    Arith(ArithOp),
}

fn too_deep() -> SqlError {
    SqlError::Parse(format!(
        "expression nested deeper than {MAX_EXPR_DEPTH} levels"
    ))
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn peek_keyword(&self) -> Option<String> {
        self.peek().and_then(Token::keyword)
    }

    /// Consume a specific keyword, or error.
    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consume a keyword if present; returns whether it was.
    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword().as_deref() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn consume_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.consume_if(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_identifier(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Word(w)) => Ok(w),
            Some(Token::QuotedIdent(w)) => Ok(w),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.consume_keyword("DISTINCT");
        let projection = self.parse_projection()?;
        let mut from = None;
        let mut joins = Vec::new();
        if self.consume_keyword("FROM") {
            from = Some(self.parse_relation()?);
            loop {
                let join_type = if self.consume_keyword("JOIN") {
                    JoinType::Inner
                } else if self.peek_keyword().as_deref() == Some("INNER") {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    JoinType::Inner
                } else if self.peek_keyword().as_deref() == Some("LEFT") {
                    self.pos += 1;
                    self.consume_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinType::Left
                } else {
                    break;
                };
                let relation = self.parse_relation()?;
                self.expect_keyword("ON")?;
                let on = self.parse_join_on()?;
                joins.push(Join {
                    join_type,
                    relation,
                    on,
                });
            }
        }
        let where_clause = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.consume_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.consume_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.consume_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.consume_keyword("DESC") {
                    true
                } else {
                    self.consume_keyword("ASC");
                    false
                };
                order_by.push(OrderByExpr { expr, descending });
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.consume_keyword("LIMIT") {
            limit = Some(self.parse_usize()?);
        }
        if self.consume_keyword("OFFSET") {
            offset = Some(self.parse_usize()?);
        }
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_usize(&mut self) -> Result<usize> {
        match self.advance() {
            Some(Token::Number(n)) => n
                .parse::<usize>()
                .map_err(|_| SqlError::Parse(format!("expected integer, found {n}"))),
            other => Err(SqlError::Parse(format!(
                "expected integer, found {other:?}"
            ))),
        }
    }

    fn parse_projection(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.consume_if(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.consume_keyword("AS") {
                    Some(self.parse_identifier()?)
                } else {
                    // Implicit alias: bare identifier that isn't a clause
                    // keyword.
                    match self.peek() {
                        Some(Token::Word(w)) if !is_clause_keyword(w) => {
                            let w = w.clone();
                            self.pos += 1;
                            Some(w)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_relation(&mut self) -> Result<Relation> {
        if self.consume_if(&Token::LParen) {
            let query = self.parse_select()?;
            self.expect_token(&Token::RParen)?;
            self.consume_keyword("AS");
            let alias = self.parse_identifier()?;
            return Ok(Relation::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let mut name = self.parse_identifier()?;
        // Dotted table names (`system.queries`) keep the dot in the name —
        // providers resolve the full string, there is no catalog/schema
        // hierarchy here.
        while self.consume_if(&Token::Dot) {
            name.push('.');
            name.push_str(&self.parse_identifier()?);
        }
        let alias = match self.peek() {
            Some(Token::Word(w)) if !is_clause_keyword(w) => {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
            _ => None,
        };
        Ok(Relation::Table { name, alias })
    }

    /// Parse `a.x = b.y [AND c.z = d.w ...]` from an ON clause.
    fn parse_join_on(&mut self) -> Result<Vec<(Expr, Expr)>> {
        let mut pairs = Vec::new();
        loop {
            let left = self.parse_additive()?;
            self.expect_token(&Token::Eq)?;
            let right = self.parse_additive()?;
            pairs.push((left, right));
            if !self.consume_keyword("AND") {
                break;
            }
        }
        Ok(pairs)
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    /// `parse`, one expression level deeper.
    fn nested(&mut self, parse: fn(&mut Parser) -> Result<Expr>) -> Result<Expr> {
        self.depth += 1;
        let expr = match self.depth > MAX_EXPR_DEPTH {
            true => Err(too_deep()),
            false => parse(self),
        };
        self.depth -= 1;
        expr
    }

    /// A left-deep chain of `operand`s joined by the operators `op`
    /// consumes. Each operator is a tree level above its operands.
    fn chain(
        &mut self,
        operand: fn(&mut Parser) -> Result<Expr>,
        op: fn(&mut Parser) -> Option<Chained>,
    ) -> Result<Expr> {
        let mut left = operand(self)?;
        let mut height = None;
        while let Some(op) = op(self) {
            let right = operand(self)?;
            let h = height.unwrap_or_else(|| left.depth()).max(right.depth()) + 1;
            if self.depth + h > MAX_EXPR_DEPTH {
                return Err(too_deep());
            }
            height = Some(h);
            let (l, r) = (Box::new(left), Box::new(right));
            left = match op {
                Chained::Logical(op) => Expr::Logical {
                    op,
                    left: l,
                    right: r,
                },
                Chained::Arith(op) => Expr::Arith {
                    op,
                    left: l,
                    right: r,
                },
            };
        }
        Ok(left)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.chain(Self::parse_and, |p| {
            p.consume_keyword("OR")
                .then_some(Chained::Logical(LogicalOp::Or))
        })
    }

    fn parse_and(&mut self) -> Result<Expr> {
        self.chain(Self::parse_not, |p| {
            p.consume_keyword("AND")
                .then_some(Chained::Logical(LogicalOp::And))
        })
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.consume_keyword("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::parse_not)?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] BETWEEN/IN/LIKE.
        if self.consume_keyword("IS") {
            let negated = self.consume_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_keyword().as_deref() == Some("NOT")
            && matches!(
                self.tokens
                    .get(self.pos + 1)
                    .and_then(Token::keyword)
                    .as_deref(),
                Some("BETWEEN") | Some("IN") | Some("LIKE")
            ) {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.consume_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.consume_keyword("IN") {
            self.expect_token(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.consume_keyword("LIKE") {
            let pattern = match self.advance() {
                Some(Token::String(s)) => s,
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIKE requires a string literal, found {other:?}"
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT before non-predicate".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::NotEq) => Some(CmpOp::NotEq),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::LtEq) => Some(CmpOp::LtEq),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::GtEq) => Some(CmpOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::Compare {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        self.chain(Self::parse_multiplicative, |p| {
            let op = match p.peek()? {
                Token::Plus => ArithOp::Add,
                Token::Minus => ArithOp::Sub,
                _ => return None,
            };
            p.pos += 1;
            Some(Chained::Arith(op))
        })
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        self.chain(Self::parse_unary, |p| {
            let op = match p.peek()? {
                Token::Star => ArithOp::Mul,
                Token::Slash => ArithOp::Div,
                Token::Percent => ArithOp::Mod,
                _ => return None,
            };
            p.pos += 1;
            Some(Chained::Arith(op))
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.consume_if(&Token::Minus) {
            return Ok(Expr::Negate(Box::new(self.nested(Self::parse_unary)?)));
        }
        if self.consume_if(&Token::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Token::Number(n)) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    n.parse::<f64>()
                        .map(|v| Expr::Literal(Value::Float64(v)))
                        .map_err(|_| SqlError::Parse(format!("bad float literal {n}")))
                } else {
                    n.parse::<i64>()
                        .map(|v| Expr::Literal(Value::Int64(v)))
                        .map_err(|_| SqlError::Parse(format!("bad integer literal {n}")))
                }
            }
            Some(Token::String(s)) => Ok(Expr::Literal(Value::Utf8(s))),
            Some(Token::LParen) => {
                let e = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Word(w)) => self.parse_word(w),
            Some(Token::QuotedIdent(w)) => self.finish_column(w),
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_word(&mut self, word: String) -> Result<Expr> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => return Ok(Expr::Literal(Value::Bool(true))),
            "FALSE" => return Ok(Expr::Literal(Value::Bool(false))),
            "NULL" => return Ok(Expr::Literal(Value::Null)),
            "CAST" => {
                self.expect_token(&Token::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_keyword("AS")?;
                let type_name = self.parse_identifier()?;
                let to = DataType::parse(&type_name)
                    .ok_or_else(|| SqlError::Parse(format!("unknown type {type_name}")))?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::Cast {
                    expr: Box::new(expr),
                    to,
                });
            }
            "CASE" => {
                let mut branches = Vec::new();
                while self.consume_keyword("WHEN") {
                    let cond = self.parse_expr()?;
                    self.expect_keyword("THEN")?;
                    let val = self.parse_expr()?;
                    branches.push((cond, val));
                }
                let else_expr = if self.consume_keyword("ELSE") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_keyword("END")?;
                if branches.is_empty() {
                    return Err(SqlError::Parse("CASE requires at least one WHEN".into()));
                }
                return Ok(Expr::Case {
                    branches,
                    else_expr,
                });
            }
            "DATE" => {
                // DATE 'YYYY-MM-DD' literal.
                if let Some(Token::String(s)) = self.peek() {
                    let s = s.clone();
                    self.pos += 1;
                    let days = parse_date_literal(&s)
                        .ok_or_else(|| SqlError::Parse(format!("bad date literal '{s}'")))?;
                    return Ok(Expr::Literal(Value::Date(days)));
                }
            }
            _ => {}
        }
        // Function call?
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            if upper == "COUNT" && self.consume_if(&Token::Star) {
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::CountStar);
            }
            if upper == "COUNT" && self.consume_keyword("DISTINCT") {
                let arg = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::Function {
                    name: "COUNT_DISTINCT".into(),
                    args: vec![arg],
                });
            }
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.consume_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::Function { name: upper, args });
        }
        self.finish_column(word)
    }

    /// `word` might be a qualifier followed by `.column`.
    fn finish_column(&mut self, word: String) -> Result<Expr> {
        let (qualifier, name) = match self.consume_if(&Token::Dot) {
            true => (Some(word), self.parse_identifier()?),
            false => (None, word),
        };
        Ok(Expr::Column(ColumnRef {
            qualifier,
            name,
            index: None,
        }))
    }
}

fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "OUTER"
            | "ON"
            | "AND"
            | "OR"
            | "AS"
            | "ASC"
            | "DESC"
            | "UNION"
            | "SELECT"
    )
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch.
pub fn parse_date_literal(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(lakehouse_columnar::datatype::days_from_civil(y, m, d) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_select("SELECT a, b FROM t").unwrap();
        assert_eq!(s.projection.len(), 2);
        assert!(matches!(s.from, Some(Relation::Table { ref name, .. }) if name == "t"));
    }

    #[test]
    fn select_star_where() {
        let s = parse_select("SELECT * FROM trips WHERE fare > 10.5").unwrap();
        assert_eq!(s.projection, vec![SelectItem::Wildcard]);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn aliases_explicit_and_implicit() {
        let s = parse_select("SELECT passenger_count as count, x y FROM t").unwrap();
        match &s.projection[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("count")),
            _ => panic!(),
        }
        match &s.projection[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("y")),
            _ => panic!(),
        }
    }

    #[test]
    fn group_by_having_order_limit() {
        let s = parse_select(
            "SELECT zone, COUNT(*) AS n FROM t GROUP BY zone HAVING COUNT(*) > 5 \
             ORDER BY n DESC, zone LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn joins() {
        let s = parse_select(
            "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.k = c.k AND b.j = c.j",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].join_type, JoinType::Inner);
        assert_eq!(s.joins[1].join_type, JoinType::Left);
        assert_eq!(s.joins[1].on.len(), 2);
    }

    #[test]
    fn subquery_in_from() {
        let s = parse_select("SELECT n FROM (SELECT COUNT(*) AS n FROM t) sub").unwrap();
        assert!(matches!(s.from, Some(Relation::Subquery { ref alias, .. }) if alias == "sub"));
    }

    #[test]
    fn expression_precedence() {
        let s = parse_select("SELECT 1 + 2 * 3 FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn and_or_precedence() {
        let s = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let w = s.where_clause.unwrap();
        assert_eq!(w.to_string(), "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn between_in_like_isnull() {
        let s = parse_select(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2) AND c LIKE 'x%' \
             AND d IS NOT NULL AND e NOT IN (3)",
        )
        .unwrap();
        let text = s.where_clause.unwrap().to_string();
        assert!(text.contains("BETWEEN"));
        assert!(text.contains("IN (1, 2)"));
        assert!(text.contains("LIKE 'x%'"));
        assert!(text.contains("IS NOT NULL"));
        assert!(text.contains("NOT IN (3)"));
    }

    #[test]
    fn cast_and_case() {
        let s = parse_select(
            "SELECT CAST(x AS DOUBLE), CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t",
        )
        .unwrap();
        assert_eq!(s.projection.len(), 2);
    }

    #[test]
    fn date_literal() {
        let s = parse_select("SELECT * FROM t WHERE pickup_at >= DATE '2019-04-01'").unwrap();
        let w = s.where_clause.unwrap();
        assert!(w.to_string().contains("date:17987"));
    }

    #[test]
    fn parse_date_literal_values() {
        assert_eq!(parse_date_literal("1970-01-01"), Some(0));
        assert_eq!(parse_date_literal("2019-04-01"), Some(17_987));
        assert_eq!(parse_date_literal("1969-12-31"), Some(-1));
        assert_eq!(parse_date_literal("not-a-date"), None);
        assert_eq!(parse_date_literal("2020-13-01"), None);
    }

    #[test]
    fn count_distinct_parses() {
        let s = parse_select("SELECT COUNT(DISTINCT zone) AS z FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(
            *expr,
            Expr::Function {
                name: "COUNT_DISTINCT".into(),
                args: vec![Expr::col("zone")]
            }
        );
    }

    #[test]
    fn count_star_and_functions() {
        let s = parse_select("SELECT COUNT(*), SUM(fare), UPPER(zone) FROM t").unwrap();
        assert_eq!(s.projection.len(), 3);
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(*expr, Expr::CountStar);
    }

    #[test]
    fn referenced_tables_finds_all() {
        let tables = |sql: &str| referenced_tables(&parse_select(sql).unwrap());
        let flat = tables(
            "SELECT * FROM trips t JOIN zones z ON t.zone_id = z.id \
             WHERE t.fare > (1)",
        );
        assert_eq!(flat, vec!["trips", "zones"]);
        let nested = tables("SELECT * FROM (SELECT * FROM raw_events) e JOIN dims ON e.k = dims.k");
        assert_eq!(nested, vec!["raw_events", "dims"]);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_select("SELECT 1 FROM t extra stuff , ,").is_err());
        assert!(parse_select("SELECT 1 FROM t;").is_ok());
    }

    #[test]
    fn errors_are_parse_errors() {
        assert!(matches!(
            parse_select("FROM t SELECT x"),
            Err(SqlError::Parse(_))
        ));
        assert!(parse_select("SELECT").is_err());
        assert!(parse_select("SELECT * FROM").is_err());
    }

    #[test]
    fn negative_numbers_and_unary() {
        let s = parse_select("SELECT -x, -(1 + 2), +5 FROM t").unwrap();
        assert_eq!(s.projection.len(), 3);
    }

    #[test]
    fn distinct() {
        assert!(
            parse_select("SELECT DISTINCT zone FROM t")
                .unwrap()
                .distinct
        );
        assert!(!parse_select("SELECT zone FROM t").unwrap().distinct);
    }

    #[test]
    fn qualified_wildcard_not_supported_but_qualified_cols_are() {
        let s = parse_select("SELECT t.a, u.b FROM t JOIN u ON t.id = u.id").unwrap();
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(
            *expr,
            Expr::Column(ColumnRef {
                qualifier: Some("t".into()),
                name: "a".into(),
                index: None,
            })
        );
    }
}
