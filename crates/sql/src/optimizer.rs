//! Logical-plan optimizer: constant folding, predicate pushdown, projection
//! pruning, and limit pushdown.
//!
//! These rules are what make the paper's execution-plan claims real:
//! pushdown lets the table layer prune files/row groups before any bytes
//! move, projection pruning shrinks what does move, and a row budget stops
//! the scan once a `LIMIT` is satisfied (§4.4.2). Each one ends at
//! [`LogicalPlan::Scan`]: files, columns and rows the query does not need
//! are never read.

use crate::ast::{ArithOp, Expr, JoinType, LogicalOp};
use crate::error::Result;
use crate::logical::{expr_resolves, join_schema, resolve_column, LogicalPlan};
use lakehouse_columnar::kernels::cast::cast_value;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{DataType, Schema, Value};
use std::collections::BTreeSet;

/// Run all rules to fixpoint-ish (each rule once; they are confluent for our
/// plan shapes).
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = fold_constants_in_plan(plan)?;
    let plan = push_down_predicates(plan)?;
    let mut plan = prune_projections(plan)?;
    push_down_limits(&mut plan);
    Ok(plan)
}

// ---- constant folding ------------------------------------------------------

fn fold_constants_in_plan(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_constants_in_plan(*input)?),
            predicate: fold_expr(predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(fold_constants_in_plan(*input)?),
            exprs: exprs.into_iter().map(|(e, n)| (fold_expr(e), n)).collect(),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
        } => LogicalPlan::Aggregate {
            input: Box::new(fold_constants_in_plan(*input)?),
            group_exprs: group_exprs
                .into_iter()
                .map(|(e, n)| (fold_expr(e), n))
                .collect(),
            agg_exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => LogicalPlan::Join {
            left: Box::new(fold_constants_in_plan(*left)?),
            right: Box::new(fold_constants_in_plan(*right)?),
            join_type,
            on,
        },
        LogicalPlan::Sort { input, keys, fetch } => LogicalPlan::Sort {
            input: Box::new(fold_constants_in_plan(*input)?),
            keys: keys.into_iter().map(|(e, d)| (fold_expr(e), d)).collect(),
            fetch,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(fold_constants_in_plan(*input)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(fold_constants_in_plan(*input)?),
        },
        LogicalPlan::SubqueryAlias { input, alias } => LogicalPlan::SubqueryAlias {
            input: Box::new(fold_constants_in_plan(*input)?),
            alias,
        },
        scan @ LogicalPlan::Scan { .. } => scan,
    })
}

/// Fold constant subexpressions bottom-up.
pub fn fold_expr(expr: Expr) -> Expr {
    match expr {
        Expr::Arith { op, left, right } => {
            let left = fold_expr(*left);
            let right = fold_expr(*right);
            if let (Expr::Literal(l), Expr::Literal(r)) = (&left, &right) {
                if let Some(v) = fold_arith(op, l, r) {
                    return Expr::Literal(v);
                }
            }
            Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        Expr::Compare { op, left, right } => {
            let left = fold_expr(*left);
            let right = fold_expr(*right);
            if let (Expr::Literal(l), Expr::Literal(r)) = (&left, &right) {
                if !l.is_null() && !r.is_null() {
                    return Expr::Literal(Value::Bool(op.matches(l.total_cmp(r))));
                }
            }
            Expr::Compare {
                op,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        Expr::Logical { op, left, right } => {
            let left = fold_expr(*left);
            let right = fold_expr(*right);
            match (op, &left, &right) {
                (LogicalOp::And, Expr::Literal(Value::Bool(true)), _) => right,
                (LogicalOp::And, _, Expr::Literal(Value::Bool(true))) => left,
                (LogicalOp::And, Expr::Literal(Value::Bool(false)), _)
                | (LogicalOp::And, _, Expr::Literal(Value::Bool(false))) => {
                    Expr::Literal(Value::Bool(false))
                }
                (LogicalOp::Or, Expr::Literal(Value::Bool(false)), _) => right,
                (LogicalOp::Or, _, Expr::Literal(Value::Bool(false))) => left,
                (LogicalOp::Or, Expr::Literal(Value::Bool(true)), _)
                | (LogicalOp::Or, _, Expr::Literal(Value::Bool(true))) => {
                    Expr::Literal(Value::Bool(true))
                }
                _ => Expr::Logical {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
            }
        }
        Expr::Not(e) => {
            let e = fold_expr(*e);
            if let Expr::Literal(Value::Bool(b)) = e {
                return Expr::Literal(Value::Bool(!b));
            }
            Expr::Not(Box::new(e))
        }
        Expr::Negate(e) => {
            let e = fold_expr(*e);
            match &e {
                Expr::Literal(Value::Int64(i)) if *i != i64::MIN => {
                    return Expr::Literal(Value::Int64(-i))
                }
                Expr::Literal(Value::Float64(f)) => return Expr::Literal(Value::Float64(-f)),
                _ => {}
            }
            Expr::Negate(Box::new(e))
        }
        Expr::Cast { expr, to } => {
            let e = fold_expr(*expr);
            if let Expr::Literal(v) = &e {
                if let Ok(folded) = cast_value(v, to) {
                    return Expr::Literal(folded);
                }
            }
            Expr::Cast {
                expr: Box::new(e),
                to,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(fold_expr(*expr)),
            low: Box::new(fold_expr(*low)),
            high: Box::new(fold_expr(*high)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        Expr::Function { name, args } => Expr::Function {
            name,
            args: args.into_iter().map(fold_expr).collect(),
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .into_iter()
                .map(|(c, v)| (fold_expr(c), fold_expr(v)))
                .collect(),
            else_expr: else_expr.map(|e| Box::new(fold_expr(*e))),
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
pub fn conjoin(mut parts: Vec<Expr>) -> Option<Expr> {
    let first = if parts.is_empty() {
        return None;
    } else {
        parts.remove(0)
    };
    Some(parts.into_iter().fold(first, |acc, p| Expr::Logical {
        op: LogicalOp::And,
        left: Box::new(acc),
        right: Box::new(p),
    }))
}

fn push_down_predicates(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_predicates(*input)?;
            let parts = split_conjunction(&predicate)
                .into_iter()
                .flat_map(expand_between)
                .collect();
            push_filter_into(input, parts)?
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(push_down_predicates(*input)?),
            exprs,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
        } => LogicalPlan::Aggregate {
            input: Box::new(push_down_predicates(*input)?),
            group_exprs,
            agg_exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => LogicalPlan::Join {
            left: Box::new(push_down_predicates(*left)?),
            right: Box::new(push_down_predicates(*right)?),
            join_type,
            on,
        },
        LogicalPlan::Sort { input, keys, fetch } => LogicalPlan::Sort {
            input: Box::new(push_down_predicates(*input)?),
            keys,
            fetch,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(push_down_predicates(*input)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(push_down_predicates(*input)?),
        },
        LogicalPlan::SubqueryAlias { input, alias } => LogicalPlan::SubqueryAlias {
            input: Box::new(push_down_predicates(*input)?),
            alias,
        },
        scan @ LogicalPlan::Scan { .. } => scan,
    })
}

/// Push each conjunct as deep as possible; conjuncts that cannot be pushed
/// are re-attached as a Filter at this level.
fn push_filter_into(plan: LogicalPlan, parts: Vec<Expr>) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
            mut filters,
            fetch,
        } => {
            let mut residual = Vec::new();
            for p in parts {
                if expr_resolves(&p, &schema) {
                    filters.push(p);
                } else {
                    residual.push(p);
                }
            }
            let scan = LogicalPlan::Scan {
                table,
                schema,
                projection,
                filters,
                fetch,
            };
            Ok(wrap_filter(scan, residual))
        }
        LogicalPlan::SubqueryAlias { input, alias } => {
            let inner = push_filter_into(*input, parts)?;
            Ok(LogicalPlan::SubqueryAlias {
                input: Box::new(inner),
                alias,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge with the deeper filter's conjuncts and push together.
            let mut all = split_conjunction(&predicate);
            all.extend(parts);
            push_filter_into(*input, all)
        }
        LogicalPlan::Project { input, exprs } => {
            // A conjunct can cross the projection if every column it
            // references is a pass-through column (projected as a bare
            // column reference).
            let mut pushable = Vec::new();
            let mut residual = Vec::new();
            for p in parts {
                match rewrite_through_project(&p, &exprs) {
                    Some(rewritten) => pushable.push(rewritten),
                    None => residual.push(p),
                }
            }
            let inner = if pushable.is_empty() {
                *input
            } else {
                push_filter_into(*input, pushable)?
            };
            let project = LogicalPlan::Project {
                input: Box::new(inner),
                exprs,
            };
            Ok(wrap_filter(project, residual))
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            // A conjunct goes to the side that owns all of its columns. The
            // unmatched left rows of a LEFT join carry NULL right columns, so
            // filtering the right input first would change which rows those
            // are: only the preserved (left) side takes conjuncts there.
            let (lschema, rschema) = (left.schema()?, right.schema()?);
            let joined = join_schema(&lschema, &rschema);
            let (mut to_left, mut to_right, mut residual) = (Vec::new(), Vec::new(), Vec::new());
            for p in parts {
                match owning_side(&p, &joined, &lschema, &rschema) {
                    Some(Side::Left) => to_left.push(p),
                    Some(Side::Right) if join_type == JoinType::Inner => to_right.push(p),
                    _ => residual.push(p),
                }
            }
            let push = |side: LogicalPlan, parts: Vec<Expr>| {
                if parts.is_empty() {
                    Ok(side)
                } else {
                    push_filter_into(side, parts)
                }
            };
            let join = LogicalPlan::Join {
                left: Box::new(push(*left, to_left)?),
                right: Box::new(push(*right, to_right)?),
                join_type,
                on,
            };
            Ok(wrap_filter(join, residual))
        }
        other => Ok(wrap_filter(other, parts)),
    }
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// The join input that owns every column `expr` references, if one does.
///
/// Ownership is the column's index in the join's output schema (left fields,
/// then right fields). Asking "does the name resolve against this side" is
/// not enough: `resolve_column` falls back to the bare name, so `z.zone`
/// resolves against a left side that has a `zone` of its own. The conjunct
/// is only handed down if, against the side's schema alone, every reference
/// still lands on the same column.
fn owning_side(expr: &Expr, joined: &Schema, left: &Schema, right: &Schema) -> Option<Side> {
    let mut side = None;
    let mut consistent = true;
    expr.walk(&mut |e| {
        let Expr::Column { qualifier, name } = e else {
            return;
        };
        let q = qualifier.as_deref();
        let owner = resolve_column(joined, q, name).ok().and_then(|i| {
            let (owner, schema, local) = if i < left.len() {
                (Side::Left, left, i)
            } else {
                (Side::Right, right, i - left.len())
            };
            (resolve_column(schema, q, name).ok() == Some(local)).then_some(owner)
        });
        consistent &= owner.is_some_and(|o| *side.get_or_insert(o) == o);
    });
    side.filter(|_| consistent)
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

/// Rewrite a predicate's column references through a projection (output name
/// → input expression), succeeding only when all referenced projections are
/// bare columns.
fn rewrite_through_project(expr: &Expr, exprs: &[(Expr, String)]) -> Option<Expr> {
    match expr {
        Expr::Column { qualifier, name } => {
            let target = exprs.iter().find(|(_, n)| {
                n == name
                    || qualifier
                        .as_ref()
                        .is_some_and(|q| n == &format!("{q}.{name}"))
            })?;
            match &target.0 {
                col @ Expr::Column { .. } => Some(col.clone()),
                _ => None,
            }
        }
        Expr::Literal(_) => Some(expr.clone()),
        Expr::Compare { op, left, right } => Some(Expr::Compare {
            op: *op,
            left: Box::new(rewrite_through_project(left, exprs)?),
            right: Box::new(rewrite_through_project(right, exprs)?),
        }),
        Expr::Logical { op, left, right } => Some(Expr::Logical {
            op: *op,
            left: Box::new(rewrite_through_project(left, exprs)?),
            right: Box::new(rewrite_through_project(right, exprs)?),
        }),
        Expr::Not(e) => Some(Expr::Not(Box::new(rewrite_through_project(e, exprs)?))),
        Expr::IsNull { expr, negated } => Some(Expr::IsNull {
            expr: Box::new(rewrite_through_project(expr, exprs)?),
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Some(Expr::Between {
            expr: Box::new(rewrite_through_project(expr, exprs)?),
            low: Box::new(rewrite_through_project(low, exprs)?),
            high: Box::new(rewrite_through_project(high, exprs)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Some(Expr::InList {
            expr: Box::new(rewrite_through_project(expr, exprs)?),
            list: list
                .iter()
                .map(|e| rewrite_through_project(e, exprs))
                .collect::<Option<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Some(Expr::Like {
            expr: Box::new(rewrite_through_project(expr, exprs)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        // Anything else (functions, case, casts) stays above the projection.
        _ => None,
    }
}

// ---- projection pruning ----------------------------------------------------

/// Column positions in a node's output schema that its consumers read;
/// `None` = all of them.
type Required = Option<BTreeSet<usize>>;

/// Add the columns `expr` references (resolved against `schema`) to
/// `required`. A reference that does not resolve keeps everything.
fn require(required: &mut Required, expr: &Expr, schema: &Schema) {
    expr.walk(&mut |e| {
        if let Expr::Column { qualifier, name } = e {
            match resolve_column(schema, qualifier.as_deref(), name) {
                Ok(i) => {
                    if let Some(set) = required.as_mut() {
                        set.insert(i);
                    }
                }
                Err(_) => *required = None,
            }
        }
    });
}

/// The columns of `exprs`, resolved against `schema`, and nothing else.
fn required_by<'a>(exprs: impl IntoIterator<Item = &'a Expr>, schema: &Schema) -> Required {
    let mut required = Some(BTreeSet::new());
    for e in exprs {
        require(&mut required, e, schema);
    }
    required
}

/// Narrow every Scan to the columns actually used above it, and every
/// non-root Project to the outputs actually read. Requirements are tracked
/// by position, not by name, so a qualified reference (`z.zone`) and a bare
/// one (`zone`) to different columns of a join stay apart. Operators resolve
/// names at run time; dropping columns nobody references cannot change what
/// the remaining references resolve to.
fn prune_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    fn go(plan: LogicalPlan, mut required: Required) -> Result<LogicalPlan> {
        Ok(match plan {
            LogicalPlan::Scan {
                table,
                schema,
                projection,
                filters,
                fetch,
            } => {
                // An already narrowed scan stays as it is.
                let projection = projection.or_else(|| {
                    // Filters' columns must stay readable.
                    for f in &filters {
                        require(&mut required, f, &schema);
                    }
                    let mut keep = required?;
                    if keep.is_empty() {
                        // Nothing but the row count is read (`COUNT(*)`):
                        // one column carries it, the cheapest to decode.
                        keep.extend(cheapest_column(&schema));
                    }
                    (keep.len() < schema.len()).then(|| {
                        keep.iter()
                            .map(|&i| schema.field(i).name().to_string())
                            .collect()
                    })
                });
                LogicalPlan::Scan {
                    table,
                    schema,
                    projection,
                    filters,
                    fetch,
                }
            }
            LogicalPlan::Project { input, mut exprs } => {
                if let Some(keep) = &required {
                    // Row-wise and pure: an output nobody reads need not be
                    // computed. Keep one so the row count survives.
                    exprs = exprs
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| keep.contains(i) || (keep.is_empty() && *i == 0))
                        .map(|(_, e)| e)
                        .collect();
                }
                let needed = required_by(exprs.iter().map(|(e, _)| e), &input.schema()?);
                LogicalPlan::Project {
                    input: Box::new(go(*input, needed)?),
                    exprs,
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                require(&mut required, &predicate, &input.schema()?);
                LogicalPlan::Filter {
                    input: Box::new(go(*input, required)?),
                    predicate,
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                agg_exprs,
            } => {
                let used = group_exprs
                    .iter()
                    .map(|(e, _)| e)
                    .chain(agg_exprs.iter().filter_map(|(a, _)| a.arg.as_ref()));
                let needed = required_by(used, &input.schema()?);
                LogicalPlan::Aggregate {
                    input: Box::new(go(*input, needed)?),
                    group_exprs,
                    agg_exprs,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
            } => {
                // Each side is asked for what is read above the join plus
                // its own ON columns, split by position in the join's
                // output (left fields, then right fields).
                let (lschema, rschema) = (left.schema()?, right.schema()?);
                let joined = join_schema(&lschema, &rschema);
                for (a, b) in &on {
                    require(&mut required, a, &joined);
                    require(&mut required, b, &joined);
                }
                let nl = lschema.len();
                let (lreq, rreq) = match required {
                    Some(set) => (
                        Some(set.iter().copied().filter(|&i| i < nl).collect()),
                        Some(set.iter().filter(|&&i| i >= nl).map(|i| i - nl).collect()),
                    ),
                    None => (None, None),
                };
                LogicalPlan::Join {
                    left: Box::new(go(*left, lreq)?),
                    right: Box::new(go(*right, rreq)?),
                    join_type,
                    on,
                }
            }
            LogicalPlan::Sort { input, keys, fetch } => {
                let schema = input.schema()?;
                for (e, _) in &keys {
                    require(&mut required, e, &schema);
                }
                LogicalPlan::Sort {
                    input: Box::new(go(*input, required)?),
                    keys,
                    fetch,
                }
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => LogicalPlan::Limit {
                input: Box::new(go(*input, required)?),
                limit,
                offset,
            },
            // Which rows are distinct depends on every column.
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(go(*input, None)?),
            },
            LogicalPlan::SubqueryAlias { input, alias } => LogicalPlan::SubqueryAlias {
                input: Box::new(go(*input, required)?),
                alias,
            },
        })
    }
    go(plan, None)
}

/// The first fixed-width field (no string heap to decode), else the first.
fn cheapest_column(schema: &Schema) -> Option<usize> {
    schema
        .fields()
        .iter()
        .position(|f| f.data_type() != DataType::Utf8)
        .or((!schema.is_empty()).then_some(0))
}

// ---- limit pushdown --------------------------------------------------------

/// Hand `LIMIT n OFFSET m` to the scan or sort below it as a budget of
/// `n + m` rows. Only `Project` and `SubqueryAlias` may sit in between: they
/// emit one row per input row, in order, so the first `n + m` rows out of
/// the scan or sort are the only ones the limit can see. A sort still reads
/// its whole input, but keeps only its first `n + m` rows. Any other
/// operator (a residual filter, DISTINCT, a join, an aggregate) may need
/// rows beyond the budget.
fn push_down_limits(plan: &mut LogicalPlan) {
    if let LogicalPlan::Limit {
        input,
        limit: Some(n),
        offset,
    } = plan
    {
        let budget = n.saturating_add(*offset);
        let mut node = input.as_mut();
        loop {
            match node {
                LogicalPlan::Project { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
                    node = input.as_mut();
                }
                LogicalPlan::Scan { fetch, .. } | LogicalPlan::Sort { fetch, .. } => {
                    *fetch = Some(fetch.map_or(budget, |f| f.min(budget)));
                    break;
                }
                _ => break,
            }
        }
    }
    for child in plan.children_mut() {
        push_down_limits(child);
    }
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
        fn table_schema(&self, table: &str) -> Option<Schema> {
            match table {
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
            }
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
            LogicalPlan::Scan { .. } => plan,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::SubqueryAlias { input, .. } => find_scan(input),
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
                | LogicalPlan::Distinct { input }
                | LogicalPlan::SubqueryAlias { input, .. } => has_filter_above_agg(input),
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
            text.contains("Scan: u projection=[label, k] filters=[(label = x)]"),
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
        // `u.c` is the right side's column (renamed `u.c` in the join's
        // output) although the bare name `c` also resolves against `t`;
        // bare `c` is the left side's.
        let text =
            explained("SELECT t.a FROM t JOIN u ON t.a = u.k WHERE u.c = 'right' AND c = 'left'");
        assert!(
            text.contains("Scan: t projection=[a, c] filters=[(c = left)]"),
            "{text}"
        );
        assert!(
            text.contains("Scan: u projection=[k, c] filters=[(c = right)]"),
            "{text}"
        );
        assert!(!text.contains("Filter"), "{text}");
    }

    #[test]
    fn join_sides_read_required_and_on_columns_only() {
        let text = explained("SELECT u.label FROM t JOIN u ON t.a = u.k");
        assert!(text.contains("Scan: t projection=[a]\n"), "{text}");
        assert!(text.contains("Scan: u projection=[label, k]\n"), "{text}");
        // The renaming projection over a colliding right side narrows too.
        let text = explained("SELECT u.c FROM t JOIN u ON t.a = u.k");
        assert!(text.contains("Project: k AS k, c AS u.c\n"), "{text}");
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
    fn count_star_reads_the_first_fixed_width_column() {
        let projection = |sql: &str| match find_scan(&optimized(sql)) {
            LogicalPlan::Scan { projection, .. } => projection.clone(),
            _ => unreachable!(),
        };
        assert_eq!(
            projection("SELECT COUNT(*) FROM t"),
            Some(vec!["a".to_string()])
        );
        // `u` leads with a string column: skip it.
        assert_eq!(
            projection("SELECT COUNT(*) FROM u"),
            Some(vec!["k".to_string()])
        );
        assert_eq!(
            projection("SELECT COUNT(*) FROM (SELECT c, b FROM t) s"),
            Some(vec!["c".to_string()])
        );
    }
}
