//! Abstract syntax tree for the supported SQL dialect.

use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{DataType, Value};
use std::fmt;

/// A column reference as written (`t.col` or `col`) and, once the binder
/// ([`crate::logical::plan_select`]) has run, the position it names in the
/// input of the plan node that holds it.
#[derive(Debug, Clone)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
    /// `None` until bound.
    pub index: Option<usize>,
}

/// Two bound references are the same column when they name the same
/// position, however they were written (`c` and `t.c`); unbound ones
/// compare as written.
impl PartialEq for ColumnRef {
    fn eq(&self, other: &Self) -> bool {
        match (self.index, other.index) {
            (Some(a), Some(b)) => a == b,
            _ => self.qualifier == other.qualifier && self.name == other.name,
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified: `t.col` or `col`.
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
    /// `left OP right` comparison.
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Arithmetic: `+ - * / %`.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `AND` / `OR`.
    Logical {
        op: LogicalOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `-expr`.
    Negate(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr LIKE 'pat%'` (supports `%` and `_`).
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// Function call: scalar or aggregate (resolved during planning).
    Function { name: String, args: Vec<Expr> },
    /// `COUNT(*)`.
    CountStar,
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, to: DataType },
    /// `CASE WHEN cond THEN val [WHEN ...] [ELSE val] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalOp {
    And,
    Or,
}

impl Expr {
    /// Shorthand for an unqualified, unbound column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.into(),
            index: None,
        })
    }

    /// A reference to position `index` of a node's input, shown as `name`.
    pub(crate) fn bound(name: impl Into<String>, index: usize) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.into(),
            index: Some(index),
        })
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Call `f` on each direct subexpression, in evaluation order.
    fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Logical { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Not(e)
            | Expr::Negate(e)
            | Expr::IsNull { expr: e, .. }
            | Expr::Like { expr: e, .. }
            | Expr::Cast { expr: e, .. } => f(e),
            Expr::Between {
                expr, low, high, ..
            } => [expr, low, high].into_iter().for_each(|e| f(e)),
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).for_each(f),
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Case {
                branches,
                else_expr,
            } => (branches.iter())
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref())
                .for_each(f),
            Expr::Column(_) | Expr::Literal(_) | Expr::CountStar => {}
        }
    }

    /// [`Self::for_each_child`], mutably.
    fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Logical { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Not(e)
            | Expr::Negate(e)
            | Expr::IsNull { expr: e, .. }
            | Expr::Like { expr: e, .. }
            | Expr::Cast { expr: e, .. } => f(e),
            Expr::Between {
                expr, low, high, ..
            } => [expr, low, high].into_iter().for_each(|e| f(e)),
            Expr::InList { expr, list, .. } => std::iter::once(&mut **expr).chain(list).for_each(f),
            Expr::Function { args, .. } => args.iter_mut().for_each(f),
            Expr::Case {
                branches,
                else_expr,
            } => (branches.iter_mut())
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref_mut())
                .for_each(f),
            Expr::Column(_) | Expr::Literal(_) | Expr::CountStar => {}
        }
    }

    /// This node with `f` applied to each direct subexpression, in
    /// evaluation order: what every expression rewrite recurses through,
    /// so a rewrite handles only the nodes it changes.
    pub(crate) fn map_children<E>(
        mut self,
        mut f: impl FnMut(Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut failed = None;
        self.for_each_child_mut(|child| {
            if failed.is_none() {
                match f(std::mem::replace(child, Expr::CountStar)) {
                    Ok(e) => *child = e,
                    Err(e) => failed = Some(e),
                }
            }
        });
        failed.map_or(Ok(self), Err)
    }

    /// Walk the expression tree, calling `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(|child| child.walk(f));
    }

    /// Levels from this node down to its deepest leaf (a leaf is 1).
    pub(crate) fn depth(&self) -> usize {
        let mut deepest = 0;
        self.for_each_child(|child| deepest = deepest.max(child.depth()));
        1 + deepest
    }

    /// A display name for an unaliased projection of this expression.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(c) => c.name.clone(),
            Expr::CountStar => "count_star".into(),
            Expr::Function { name, args } => {
                let inner: Vec<String> = args.iter().map(Expr::default_name).collect();
                format!("{}({})", name.to_lowercase(), inner.join(", "))
            }
            Expr::Literal(v) => v.to_string(),
            Expr::Cast { expr, .. } => expr.default_name(),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Compare { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Arith { op, left, right } => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                    ArithOp::Mod => "%",
                };
                write!(f, "({left} {s} {right})")
            }
            Expr::Logical { op, left, right } => {
                let s = match op {
                    LogicalOp::And => "AND",
                    LogicalOp::Or => "OR",
                };
                write!(f, "({left} {s} {right})")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Negate(e) => write!(f, "-{e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE '{pattern}'",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Function { name, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{name}({})", items.join(", "))
            }
            Expr::CountStar => write!(f, "COUNT(*)"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

/// One projected item in SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// `FROM` relation: a named table or a parenthesized subquery, with an
/// optional alias.
#[derive(Debug, Clone, PartialEq)]
pub enum Relation {
    Table {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
}

impl Relation {
    /// The alias by which columns of this relation may be qualified.
    pub fn alias(&self) -> &str {
        match self {
            Relation::Table { name, alias } => alias.as_deref().unwrap_or(name),
            Relation::Subquery { alias, .. } => alias,
        }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
}

/// One join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub join_type: JoinType,
    pub relation: Relation,
    /// Equality pairs from the ON clause: (left expr, right expr).
    pub on: Vec<(Expr, Expr)>,
}

/// Sort specification.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    pub expr: Expr,
    pub descending: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Option<Relation>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByExpr>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::Compare {
            op: CmpOp::GtEq,
            left: Box::new(Expr::col("x")),
            right: Box::new(Expr::lit(10i64)),
        };
        assert_eq!(e.to_string(), "(x >= 10)");
    }

    #[test]
    fn relation_alias() {
        let t = Relation::Table {
            name: "trips".into(),
            alias: None,
        };
        assert_eq!(t.alias(), "trips");
        let t2 = Relation::Table {
            name: "trips".into(),
            alias: Some("t".into()),
        };
        assert_eq!(t2.alias(), "t");
    }

    #[test]
    fn default_names() {
        assert_eq!(Expr::col("fare").default_name(), "fare");
        assert_eq!(Expr::CountStar.default_name(), "count_star");
        assert_eq!(
            Expr::Function {
                name: "SUM".into(),
                args: vec![Expr::col("x")]
            }
            .default_name(),
            "sum(x)"
        );
    }
}
