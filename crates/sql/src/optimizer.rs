//! Logical-plan optimizer: constant folding, predicate pushdown, projection
//! pruning, and limit pushdown.
//!
//! These rules are what make the paper's execution-plan claims real:
//! pushdown lets the table layer prune files/row groups before any bytes
//! move, projection pruning shrinks what does move, and a row budget stops
//! the scan once a `LIMIT` is satisfied (§4.4.2). Each one ends at
//! [`LogicalPlan::Scan`]: files, columns and rows the query does not need
//! are never read.
//!
//! Each rule is one `fn(LogicalPlan) -> Result<LogicalPlan>`. The binder
//! has bound every column to a position, so a rule only moves positions:
//! it never looks a name up.

use crate::ast::{ArithOp, Expr, JoinType, LogicalOp};
use crate::error::Result;
use crate::logical::{columns, move_columns, on_left, LogicalPlan};
use lakehouse_columnar::kernels::cast::cast_value;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Schema, Value};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// One rewrite of a whole plan.
type Rule = fn(LogicalPlan) -> Result<LogicalPlan>;

/// The rules in the order they run, each once (they are confluent for our
/// plan shapes).
const RULES: [Rule; 4] = [
    fold_constants,
    push_down_predicates,
    prune_projections,
    push_down_limits,
];

/// Run every rule over `plan`.
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    RULES.iter().try_fold(plan, |plan, rule| rule(plan))
}

// ---- constant folding ------------------------------------------------------

fn fold_constants(plan: LogicalPlan) -> Result<LogicalPlan> {
    let mut plan = plan.map_inputs(fold_constants)?;
    for e in plan.exprs_mut() {
        *e = fold_expr(std::mem::replace(e, Expr::CountStar));
    }
    Ok(plan)
}

/// Fold constant subexpressions bottom-up.
pub fn fold_expr(expr: Expr) -> Expr {
    let Ok(expr) = expr.map_children(|e| Ok::<_, Infallible>(fold_expr(e)));
    match expr {
        Expr::Arith { op, left, right } => {
            if let (Expr::Literal(l), Expr::Literal(r)) = (&*left, &*right) {
                if let Some(v) = fold_arith(op, l, r) {
                    return Expr::Literal(v);
                }
            }
            Expr::Arith { op, left, right }
        }
        Expr::Compare { op, left, right } => {
            if let (Expr::Literal(l), Expr::Literal(r)) = (&*left, &*right) {
                if !l.is_null() && !r.is_null() {
                    return Expr::Literal(Value::Bool(op.matches(l.total_cmp(r))));
                }
            }
            Expr::Compare { op, left, right }
        }
        Expr::Logical { op, left, right } => match (op, &*left, &*right) {
            (LogicalOp::And, Expr::Literal(Value::Bool(true)), _) => *right,
            (LogicalOp::And, _, Expr::Literal(Value::Bool(true))) => *left,
            (LogicalOp::And, Expr::Literal(Value::Bool(false)), _)
            | (LogicalOp::And, _, Expr::Literal(Value::Bool(false))) => {
                Expr::Literal(Value::Bool(false))
            }
            (LogicalOp::Or, Expr::Literal(Value::Bool(false)), _) => *right,
            (LogicalOp::Or, _, Expr::Literal(Value::Bool(false))) => *left,
            (LogicalOp::Or, Expr::Literal(Value::Bool(true)), _)
            | (LogicalOp::Or, _, Expr::Literal(Value::Bool(true))) => {
                Expr::Literal(Value::Bool(true))
            }
            _ => Expr::Logical { op, left, right },
        },
        Expr::Not(e) => match *e {
            Expr::Literal(Value::Bool(b)) => Expr::Literal(Value::Bool(!b)),
            e => Expr::Not(Box::new(e)),
        },
        Expr::Negate(e) => match *e {
            Expr::Literal(Value::Int64(i)) if i != i64::MIN => Expr::Literal(Value::Int64(-i)),
            Expr::Literal(Value::Float64(f)) => Expr::Literal(Value::Float64(-f)),
            e => Expr::Negate(Box::new(e)),
        },
        // A NULL keeps the type its cast gives it.
        Expr::Cast { expr, to } => match &*expr {
            Expr::Literal(v) if !v.is_null() => match cast_value(v, to) {
                Ok(folded) => Expr::Literal(folded),
                Err(_) => Expr::Cast { expr, to },
            },
            _ => Expr::Cast { expr, to },
        },
        other => other,
    }
}

fn fold_arith(op: ArithOp, l: &Value, r: &Value) -> Option<Value> {
    if l.is_null() || r.is_null() {
        return Some(Value::Null);
    }
    match (l, r) {
        (Value::Int64(a), Value::Int64(b)) => Some(match op {
            ArithOp::Add => Value::Int64(a.checked_add(*b)?),
            ArithOp::Sub => Value::Int64(a.checked_sub(*b)?),
            ArithOp::Mul => Value::Int64(a.checked_mul(*b)?),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int64(a.checked_div(*b)?)
                }
            }
            ArithOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int64(a.checked_rem(*b)?)
                }
            }
        }),
        _ => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Some(Value::Float64(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
                ArithOp::Mod => a % b,
            }))
        }
    }
}

// ---- predicate pushdown ----------------------------------------------------

/// Split a conjunction into its AND-ed parts.
pub fn split_conjunction(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Logical {
            op: LogicalOp::And,
            left,
            right,
        } => {
            let mut out = split_conjunction(left);
            out.extend(split_conjunction(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Recombine predicates into a conjunction.
pub fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
    parts.into_iter().reduce(|acc, p| Expr::Logical {
        op: LogicalOp::And,
        left: Box::new(acc),
        right: Box::new(p),
    })
}

fn push_down_predicates(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan.map_inputs(push_down_predicates)? {
        LogicalPlan::Filter { input, predicate } => {
            let parts = split_conjunction(&predicate)
                .into_iter()
                .flat_map(expand_between)
                .collect();
            push_filter_into(*input, parts)
        }
        other => Ok(other),
    }
}

/// Push each conjunct as deep as possible; conjuncts that cannot be pushed
/// are re-attached as a Filter at this level.
fn push_filter_into(mut plan: LogicalPlan, parts: Vec<Expr>) -> Result<LogicalPlan> {
    match plan {
        // Every column of a conjunct that reaches a scan is the scan's own.
        LogicalPlan::Scan {
            ref mut filters, ..
        } => {
            filters.extend(parts);
            Ok(plan)
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge with the deeper filter's conjuncts and push together.
            let mut all = split_conjunction(&predicate);
            all.extend(parts);
            push_filter_into(*input, all)
        }
        LogicalPlan::Project { ref exprs, .. } => {
            // A conjunct crosses the projection if every column it reads is
            // projected as a bare column: below, it reads that column.
            let (mut pushable, mut residual) = (Vec::new(), Vec::new());
            for p in parts {
                match through_project(p.clone(), exprs) {
                    Some(below) => pushable.push(below),
                    None => residual.push(p),
                }
            }
            Ok(wrap_filter(
                push_into_inputs(plan, vec![pushable])?,
                residual,
            ))
        }
        LogicalPlan::Join {
            ref left,
            join_type,
            ..
        } => {
            // A conjunct goes to the side that owns all of its columns: the
            // left's are the join's first positions. The unmatched left rows
            // of a LEFT join carry NULL right columns, so filtering the right
            // input first would change which rows those are: only the
            // preserved (left) side takes conjuncts there.
            let nl = left.schema().len();
            let (mut to_left, mut to_right, mut residual) = (Vec::new(), Vec::new(), Vec::new());
            for p in parts {
                match on_left(&p, nl) {
                    Some(true) => to_left.push(p),
                    Some(false) if join_type == JoinType::Inner => {
                        to_right.push(move_columns(p, &|i| i.checked_sub(nl))?)
                    }
                    _ => residual.push(p),
                }
            }
            Ok(wrap_filter(
                push_into_inputs(plan, vec![to_left, to_right])?,
                residual,
            ))
        }
        other => Ok(wrap_filter(other, parts)),
    }
}

/// `plan` with each of `parts`, in input order, pushed into its input.
fn push_into_inputs(plan: LogicalPlan, parts: Vec<Vec<Expr>>) -> Result<LogicalPlan> {
    let mut parts = parts.into_iter();
    plan.map_inputs(|input| match parts.next() {
        Some(parts) if !parts.is_empty() => push_filter_into(input, parts),
        _ => Ok(input),
    })
}

/// `e BETWEEN low AND high` as the `>=`/`<=` pair the executor evaluates it
/// as, so each half can reach the scan and prune. As separate conjuncts the
/// pair keeps exactly the rows whose Kleene AND is true. `NOT BETWEEN` is a
/// disjunction and stays whole.
fn expand_between(expr: Expr) -> Vec<Expr> {
    match expr {
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => vec![
            Expr::Compare {
                op: CmpOp::GtEq,
                left: expr.clone(),
                right: low,
            },
            Expr::Compare {
                op: CmpOp::LtEq,
                left: expr,
                right: high,
            },
        ],
        other => vec![other],
    }
}

fn wrap_filter(plan: LogicalPlan, parts: Vec<Expr>) -> LogicalPlan {
    match conjoin(parts) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
        None => plan,
    }
}

/// `expr` below a projection of `exprs`: each column it reads replaced by
/// the bare column projected there, if every one is.
fn through_project(expr: Expr, exprs: &[(Expr, String)]) -> Option<Expr> {
    match expr {
        Expr::Column(c) => match exprs.get(c.index?) {
            Some((column @ Expr::Column(_), _)) => Some(column.clone()),
            _ => None,
        },
        other => other
            .map_children(|e| through_project(e, exprs).ok_or(()))
            .ok(),
    }
}

// ---- projection pruning ----------------------------------------------------

/// Column positions in a node's output that its consumers read;
/// `None` = all of them.
type Required = Option<BTreeSet<usize>>;

/// Where a pruned node's output positions went: `moved[i]` is the new
/// position of old position `i`, `None` if it was dropped.
type Moved = Vec<Option<usize>>;

/// Every one of `n` positions kept where it is.
fn unmoved(n: usize) -> Moved {
    (0..n).map(Some).collect()
}

/// The positions of `kept` (increasing) as [`Moved`] over `n` positions.
fn moved_to(n: usize, kept: &[usize]) -> Moved {
    (0..n).map(|i| kept.iter().position(|&k| k == i)).collect()
}

/// `expr` over an input whose positions moved as `moved` says.
fn follow(expr: Expr, moved: &Moved) -> Result<Expr> {
    if moved.iter().enumerate().all(|(i, m)| *m == Some(i)) {
        return Ok(expr);
    }
    move_columns(expr, &|i| moved.get(i).copied().flatten())
}

/// Narrow every Scan to the columns actually used above it, and every
/// non-root Project to the outputs actually read. Requirements are
/// positions, and each node's expressions follow the positions its input's
/// columns moved to.
fn prune_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(prune(plan, None)?.0)
}

fn prune(plan: LogicalPlan, required: Required) -> Result<(LogicalPlan, Moved)> {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection: None,
            filters,
            fetch,
        } => {
            // Filters' columns must stay readable. With none read at all
            // (`COUNT(*)`), the scan still yields the row count.
            let mut keep = required.unwrap_or_else(|| (0..schema.len()).collect());
            filters.iter().for_each(|f| keep.extend(columns(f)));
            let kept: Vec<usize> = keep.into_iter().collect();
            let moved = moved_to(schema.len(), &kept);
            let (schema, projection) = match kept.len() < schema.len() {
                true => {
                    let fields = kept.iter().map(|&i| schema.field(i).clone()).collect();
                    let names = kept.iter().map(|&i| schema.field(i).name().to_string());
                    (Schema::new(fields), Some(names.collect()))
                }
                false => (schema, None),
            };
            let filters = (filters.into_iter())
                .map(|f| follow(f, &moved))
                .collect::<Result<_>>()?;
            let scan = LogicalPlan::Scan {
                table,
                schema,
                projection,
                filters,
                fetch,
            };
            Ok((scan, moved))
        }
        // An already narrowed scan stays as it is.
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => {
            let n = leaf.schema().len();
            Ok((leaf, unmoved(n)))
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            // Row-wise and pure: an output nobody reads need not be
            // computed.
            let read = |i: usize| required.as_ref().is_none_or(|k| k.contains(&i));
            let kept: Vec<usize> = (0..exprs.len()).filter(|&i| read(i)).collect();
            let moved = moved_to(exprs.len(), &kept);
            let (exprs, schema) = match kept.len() < exprs.len() {
                true => {
                    let fields = kept.iter().map(|&i| schema.field(i).clone()).collect();
                    let exprs = exprs.into_iter().enumerate().filter(|(i, _)| read(*i));
                    (exprs.map(|(_, e)| e).collect(), Schema::new(fields))
                }
                false => (exprs, schema),
            };
            let project = LogicalPlan::Project {
                input,
                exprs,
                schema,
            };
            match prune_input(project, None)?.0 {
                // Nothing of it is read, and its input has no column either:
                // the input's rows are all it would pass on. (An input with
                // columns would widen what the nodes above were pruned to.)
                LogicalPlan::Project { input, exprs, .. }
                    if exprs.is_empty() && input.schema().is_empty() =>
                {
                    Ok((*input, moved))
                }
                project => Ok((project, moved)),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            mut on,
            schema,
        } => {
            // Each side is asked for what is read above the join plus its
            // own ON columns, split by position in the join's output (left
            // columns, then right columns).
            let nl = left.schema().len();
            let (lreq, rreq) = match required {
                Some(set) => {
                    let (mut l, mut r): (BTreeSet<usize>, BTreeSet<usize>) =
                        set.iter().partition(|&&i| i < nl);
                    r = r.into_iter().map(|i| i - nl).collect();
                    for (a, b) in &on {
                        l.extend(columns(a));
                        r.extend(columns(b));
                    }
                    (Some(l), Some(r))
                }
                None => (None, None),
            };
            let (left, lmoved) = prune(*left, lreq)?;
            let (right, rmoved) = prune(*right, rreq)?;
            for (a, b) in &mut on {
                *a = follow(std::mem::replace(a, Expr::CountStar), &lmoved)?;
                *b = follow(std::mem::replace(b, Expr::CountStar), &rmoved)?;
            }
            let new_nl = left.schema().len();
            let right_moved = rmoved.iter().map(|m| m.map(|i| i + new_nl));
            let moved: Moved = lmoved.iter().copied().chain(right_moved).collect();
            let schema = match moved.iter().all(Option::is_some) {
                true => schema,
                false => {
                    let fields = (schema.fields().iter().zip(&moved))
                        .filter(|(_, m)| m.is_some())
                        .map(|(f, _)| f.clone());
                    Schema::new(fields.collect())
                }
            };
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                on,
                schema,
            };
            Ok((join, moved))
        }
        other => prune_input(other, required),
    }
}

/// Prune the one input of `plan` to what `plan` reads of it, and move
/// `plan`'s expressions with its columns. A Filter, Sort, Limit or Distinct
/// outputs its input's columns where they are; a Project or Aggregate
/// computes its own.
fn prune_input(mut plan: LogicalPlan, mut required: Required) -> Result<(LogicalPlan, Moved)> {
    let read: BTreeSet<usize> = plan
        .exprs_mut()
        .into_iter()
        .flat_map(|e| columns(e))
        .collect();
    let passes = match plan {
        LogicalPlan::Filter { .. } | LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => {
            if let Some(set) = required.as_mut() {
                set.extend(read);
            }
            true
        }
        // Which rows are distinct depends on every column.
        LogicalPlan::Distinct { .. } => {
            required = None;
            true
        }
        _ => {
            required = Some(read);
            false
        }
    };
    let mut below = Vec::new();
    let mut plan = plan.map_inputs(|input| {
        let (input, moved) = prune(input, required.take())?;
        below = moved;
        Ok(input)
    })?;
    for e in plan.exprs_mut() {
        *e = follow(std::mem::replace(e, Expr::CountStar), &below)?;
    }
    let moved = match passes {
        true => below,
        false => unmoved(plan.schema().len()),
    };
    Ok((plan, moved))
}

// ---- limit pushdown --------------------------------------------------------

/// Hand `LIMIT n OFFSET m` to the scan or sort below it as a budget of
/// `n + m` rows. Only a `Project` may sit in between: it emits one row per
/// input row, in order, so the first `n + m` rows out of the scan or sort
/// are the only ones the limit can see. A sort still reads its whole input,
/// but keeps only its first `n + m` rows. Any other operator (a residual
/// filter, DISTINCT, a join, an aggregate) may need rows beyond the budget.
fn push_down_limits(mut plan: LogicalPlan) -> Result<LogicalPlan> {
    if let LogicalPlan::Limit {
        input,
        limit: Some(n),
        offset,
    } = &mut plan
    {
        let budget = n.saturating_add(*offset);
        let mut node = input.as_mut();
        loop {
            match node {
                LogicalPlan::Project { input, .. } => node = input.as_mut(),
                LogicalPlan::Scan { fetch, .. } | LogicalPlan::Sort { fetch, .. } => {
                    *fetch = Some(fetch.map_or(budget, |f| f.min(budget)));
                    break;
                }
                _ => break,
            }
        }
    }
    plan.map_inputs(push_down_limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{plan_select, SchemaProvider};
    use crate::parser::parse_select;
    use lakehouse_columnar::kernels::CmpOp;
    use lakehouse_columnar::{DataType, Field, Schema};

    struct Fixture;
    impl SchemaProvider for Fixture {
        fn table_schema(&self, table: &str) -> std::result::Result<Option<Schema>, String> {
            Ok(match table {
                "t" => Some(Schema::new(vec![
                    Field::new("a", DataType::Int64, false),
                    Field::new("b", DataType::Float64, true),
                    Field::new("c", DataType::Utf8, true),
                ])),
                // A dimension sharing the column name `c` with `t`.
                "u" => Some(Schema::new(vec![
                    Field::new("label", DataType::Utf8, true),
                    Field::new("k", DataType::Int64, false),
                    Field::new("c", DataType::Utf8, true),
                ])),
                "trips" => Some(Schema::new(vec![
                    Field::new("fare", DataType::Float64, true),
                    Field::new("trip_distance", DataType::Float64, true),
                ])),
                _ => None,
            })
        }
    }

    fn explained(sql: &str) -> String {
        optimized(sql).display_indent()
    }

    fn optimized(sql: &str) -> LogicalPlan {
        optimize(plan_select(&parse_select(sql).unwrap(), &Fixture).unwrap()).unwrap()
    }

    fn find_scan(plan: &LogicalPlan) -> &LogicalPlan {
        match plan {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => plan,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => find_scan(input),
            LogicalPlan::Join { left, .. } => find_scan(left),
        }
    }

    #[test]
    fn constant_folding() {
        assert_eq!(
            fold_expr(Expr::Arith {
                op: ArithOp::Add,
                left: Box::new(Expr::lit(1i64)),
                right: Box::new(Expr::lit(2i64)),
            }),
            Expr::lit(3i64)
        );
        assert_eq!(
            fold_expr(Expr::Compare {
                op: CmpOp::Gt,
                left: Box::new(Expr::lit(3i64)),
                right: Box::new(Expr::lit(2i64)),
            }),
            Expr::lit(true)
        );
    }

    #[test]
    fn and_true_simplifies() {
        let e = fold_expr(Expr::Logical {
            op: LogicalOp::And,
            left: Box::new(Expr::lit(true)),
            right: Box::new(Expr::col("a")),
        });
        assert_eq!(e, Expr::col("a"));
    }

    #[test]
    fn where_pushed_into_scan() {
        let p = optimized("SELECT a FROM t WHERE a > 5 AND b < 2.0");
        let LogicalPlan::Scan { filters, .. } = find_scan(&p) else {
            panic!()
        };
        assert_eq!(filters.len(), 2);
    }

    #[test]
    fn projection_pruned_to_used_columns() {
        let p = optimized("SELECT a FROM t WHERE b > 1.0");
        let LogicalPlan::Scan { projection, .. } = find_scan(&p) else {
            panic!()
        };
        let proj = projection.clone().unwrap();
        assert!(proj.contains(&"a".to_string()));
        assert!(proj.contains(&"b".to_string()));
        assert!(!proj.contains(&"c".to_string()));
    }

    #[test]
    fn pushdown_through_subquery_alias() {
        let p = optimized("SELECT a FROM (SELECT a, b FROM t) sub WHERE a = 1");
        let LogicalPlan::Scan { filters, .. } = find_scan(&p) else {
            panic!()
        };
        assert_eq!(filters.len(), 1);
        assert!(filters[0].to_string().contains("(a = 1)"));
        // Any conjunct crosses a projection that passes its columns through
        // bare, renamed or not; one over a computed output stays above it.
        let text = explained(
            "SELECT x FROM (SELECT a AS x, b, a + 1 AS y FROM t) sub \
             WHERE ABS(x) > 1 AND b + x > 2.0 AND y > 3",
        );
        assert!(
            text.contains("filters=[(ABS(a) > 1) AND ((b + a) > 2)]"),
            "{text}"
        );
        let filter = text.find("Filter: (y > 3)").expect(&text);
        assert!(filter < text.find("Scan").unwrap(), "{text}");
    }

    #[test]
    fn having_not_pushed_below_aggregate() {
        let p = optimized("SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING COUNT(*) > 2");
        // The filter on __agg_0 must remain above the aggregate node.
        fn has_filter_above_agg(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Filter { input, .. } => {
                    matches!(**input, LogicalPlan::Aggregate { .. }) || has_filter_above_agg(input)
                }
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input } => has_filter_above_agg(input),
                _ => false,
            }
        }
        assert!(has_filter_above_agg(&p));
        let LogicalPlan::Scan { filters, .. } = find_scan(&p) else {
            panic!()
        };
        assert!(filters.is_empty());
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let e = parse_select("SELECT * FROM t WHERE a = 1 AND b = 2.0 AND c = 'x'")
            .unwrap()
            .where_clause
            .unwrap();
        let parts = split_conjunction(&e);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts.clone()).unwrap();
        assert_eq!(split_conjunction(&back), parts);
    }

    #[test]
    fn cast_literal_folds() {
        let e = fold_expr(Expr::Cast {
            expr: Box::new(Expr::lit(2i64)),
            to: DataType::Float64,
        });
        assert_eq!(e, Expr::Literal(lakehouse_columnar::Value::Float64(2.0)));
    }

    #[test]
    fn where_conjuncts_go_below_an_inner_join_to_the_owning_side() {
        let text = explained(
            "SELECT t.a, u.label FROM t JOIN u ON t.a = u.k \
             WHERE t.b > 1.0 AND u.label = 'x' AND t.a > u.k + 1",
        );
        assert!(
            text.contains("Scan: t projection=[a, b] filters=[(t.b > 1)]"),
            "{text}"
        );
        assert!(
            text.contains("Scan: u projection=[label, k] filters=[(u.label = x)]"),
            "{text}"
        );
        // The conjunct spanning both sides stays above the join.
        let filter = text.find("Filter: (t.a > (u.k + 1))").expect(&text);
        assert!(filter < text.find("Join(Inner)").unwrap(), "{text}");
    }

    #[test]
    fn left_join_takes_conjuncts_on_the_left_side_only() {
        let text = explained(
            "SELECT t.a, u.label FROM t LEFT JOIN u ON t.a = u.k \
             WHERE t.b > 1.0 AND u.label = 'x'",
        );
        assert!(
            text.contains("Scan: t projection=[a, b] filters=[(t.b > 1)]"),
            "{text}"
        );
        assert!(text.contains("Scan: u projection=[label, k]\n"), "{text}");
        let filter = text.find("Filter: (u.label = x)").expect(&text);
        assert!(filter < text.find("Join(Left)").unwrap(), "{text}");
    }

    #[test]
    fn join_ownership_is_by_position_not_by_name() {
        // `u.c` is the right side's column (named `u.c` in the join's
        // output) although `t` has a `c` too; bare `c` is the left side's.
        let text =
            explained("SELECT t.a FROM t JOIN u ON t.a = u.k WHERE u.c = 'right' AND c = 'left'");
        assert!(
            text.contains("Scan: t projection=[a, c] filters=[(c = left)]"),
            "{text}"
        );
        assert!(
            text.contains("Scan: u projection=[k, c] filters=[(u.c = right)]"),
            "{text}"
        );
        assert!(!text.contains("Filter"), "{text}");
    }

    #[test]
    fn join_sides_read_required_and_on_columns_only() {
        let text = explained("SELECT u.label FROM t JOIN u ON t.a = u.k");
        assert!(text.contains("Scan: t projection=[a]\n"), "{text}");
        assert!(text.contains("Scan: u projection=[label, k]\n"), "{text}");
        // A colliding right column is read straight from its side: the join
        // names it `u.c`, and no projection renames it.
        let text = explained("SELECT u.c FROM t JOIN u ON t.a = u.k");
        assert!(text.starts_with("Project: u.c AS c\n  Join"), "{text}");
        assert_eq!(text.matches("Project").count(), 1, "{text}");
        assert!(text.contains("Scan: u projection=[k, c]\n"), "{text}");
        // SELECT * keeps every column of both sides.
        let text = explained("SELECT * FROM t JOIN u ON t.a = u.k");
        assert!(
            text.contains("Scan: t\n") && text.contains("Scan: u\n"),
            "{text}"
        );
    }

    #[test]
    fn between_reaches_the_scan_as_a_range_pair() {
        let text = explained("SELECT a FROM t WHERE b BETWEEN 1.0 AND 2.0");
        assert!(text.contains("filters=[(b >= 1) AND (b <= 2)]"), "{text}");
        let p = optimized("SELECT a FROM t WHERE b NOT BETWEEN 1.0 AND 2.0");
        let LogicalPlan::Scan { filters, .. } = find_scan(&p) else {
            panic!()
        };
        assert!(matches!(filters[..], [Expr::Between { negated: true, .. }]));
    }

    #[test]
    fn limit_sets_a_row_budget_on_the_scan() {
        let fetch = |sql: &str| match find_scan(&optimized(sql)) {
            LogicalPlan::Scan { fetch, .. } => *fetch,
            _ => unreachable!(),
        };
        assert_eq!(fetch("SELECT * FROM t LIMIT 10"), Some(10));
        assert_eq!(
            fetch("SELECT a + 1 AS x FROM t s LIMIT 5 OFFSET 2"),
            Some(7)
        );
        // Filters the scan applies itself count before the budget.
        assert_eq!(fetch("SELECT a FROM t WHERE b > 1.0 LIMIT 3"), Some(3));
        assert_eq!(
            fetch("SELECT a FROM (SELECT a FROM t LIMIT 9) s LIMIT 4"),
            Some(9)
        );
        // Anything that may need more rows than it emits keeps the scan whole.
        for sql in [
            "SELECT a FROM t",
            "SELECT a FROM t OFFSET 3",
            "SELECT a FROM t ORDER BY b LIMIT 3",
            "SELECT DISTINCT c FROM t LIMIT 3",
            "SELECT c, COUNT(*) AS n FROM t GROUP BY c LIMIT 3",
            "SELECT x FROM (SELECT a + 1 AS x FROM t) s WHERE x > 2 LIMIT 3",
            "SELECT t.a FROM t JOIN u ON t.a = u.k LIMIT 3",
        ] {
            assert_eq!(fetch(sql), None, "{sql}");
        }
        let text = explained("SELECT a FROM t WHERE b > 1.0 LIMIT 5 OFFSET 2");
        assert!(
            text.contains("Scan: t projection=[a, b] filters=[(b > 1)] fetch=7"),
            "{text}"
        );
    }

    #[test]
    fn limit_sets_a_row_budget_on_the_sort() {
        fn sort_fetch(plan: &LogicalPlan) -> Option<Option<usize>> {
            match plan {
                LogicalPlan::Sort { fetch, .. } => Some(*fetch),
                _ => plan.children().into_iter().find_map(sort_fetch),
            }
        }
        let fetch = |sql: &str| sort_fetch(&optimized(sql)).expect(sql);
        // The sort keeps `LIMIT + OFFSET` rows; its scan still reads all.
        let text = explained("SELECT a FROM t ORDER BY b LIMIT 3");
        assert!(text.contains("Sort: b fetch=3\n"), "{text}");
        assert!(text.contains("Scan: t projection=[a, b]\n"), "{text}");
        assert_eq!(
            fetch("SELECT a FROM t ORDER BY b LIMIT 5 OFFSET 2"),
            Some(7)
        );
        assert_eq!(
            fetch("SELECT x FROM (SELECT a AS x FROM t ORDER BY b) s LIMIT 4"),
            Some(4)
        );
        // No budget passes an operator that may need more rows than it
        // emits (DISTINCT sorts below its projection), and a sort with no
        // LIMIT keeps every row.
        for sql in [
            "SELECT a FROM t ORDER BY b",
            "SELECT a FROM t ORDER BY b OFFSET 3",
            "SELECT DISTINCT c FROM t ORDER BY c LIMIT 3",
            "SELECT n FROM (SELECT COUNT(*) AS n FROM t GROUP BY c ORDER BY n) s \
             WHERE n > 1 LIMIT 3",
            "SELECT DISTINCT a FROM (SELECT a FROM t ORDER BY b) s LIMIT 3",
            "SELECT COUNT(*) AS n FROM (SELECT a FROM t ORDER BY b) s LIMIT 3",
            "SELECT s.a FROM (SELECT a FROM t ORDER BY b) s JOIN u ON s.a = u.k LIMIT 3",
        ] {
            assert_eq!(fetch(sql), None, "{sql}\n{}", explained(sql));
        }
        let text = explained(
            "SELECT * FROM trips WHERE fare > 5.0 ORDER BY fare DESC, trip_distance DESC LIMIT 100",
        );
        assert!(
            text.contains("Sort: fare DESC, trip_distance DESC fetch=100\n"),
            "{text}"
        );
    }

    #[test]
    fn a_project_with_no_output_read_is_dropped() {
        let text = explained("SELECT COUNT(*) AS n FROM (SELECT fare * 2 AS f FROM trips) s");
        assert_eq!(
            text,
            "Project: __agg_0 AS n\n  Aggregate: group=[] aggs=[__agg_0]\n    \
             Scan: trips projection=[]\n",
        );
        // Over an input that still has a column (the filter reads `fare`),
        // the empty Project stays.
        let text = explained(
            "SELECT COUNT(*) AS n FROM (SELECT fare * 2 AS f FROM \
             (SELECT fare FROM trips LIMIT 5) l WHERE fare > 1) s",
        );
        assert!(text.contains("Project: \n"), "{text}");
    }

    #[test]
    fn count_star_reads_no_column() {
        let projection = |sql: &str| match find_scan(&optimized(sql)) {
            LogicalPlan::Scan { projection, .. } => projection.clone(),
            _ => unreachable!(),
        };
        // The scan's batches carry their row count without a column.
        for sql in [
            "SELECT COUNT(*) FROM t",
            "SELECT COUNT(*) FROM u",
            "SELECT COUNT(*) FROM (SELECT c, b FROM t) s",
            "SELECT 1 AS one FROM t",
        ] {
            assert_eq!(projection(sql), Some(vec![]), "{sql}");
        }
        // A filter's column is still read.
        assert_eq!(
            projection("SELECT COUNT(*) FROM t WHERE b > 1"),
            Some(vec!["b".to_string()])
        );
    }
}
