//! Logical plans and the binder that builds them from the AST (the
//! "logical plan" layer of the paper's Fig. 3).
//!
//! [`plan_select`] builds every node with its output schema and binds every
//! column reference once, to a position in its node's input, against a
//! scope that tags each input column with its relation's alias. After
//! binding nothing looks a name up: the optimizer moves positions, the
//! executor indexes batches, and a scan's filters carry the table's own
//! column names for the provider.

use crate::ast::{ColumnRef, Expr, Join, JoinType, Relation, SelectItem, SelectStmt};
use crate::error::{Result, SqlError};
use crate::functions::{scalar_return_type, unify};
use lakehouse_columnar::kernels::Aggregator;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use std::rc::Rc;

/// Resolves table names to schemas during planning. The execution-side
/// companion ([`crate::engine::TableProvider`]) extends this with data
/// access.
pub trait SchemaProvider {
    /// Schema of a table: `Ok(None)` if there is no such table, `Err` if it
    /// could not be resolved (e.g. a store fault while loading table
    /// metadata). The planner reports the former as an unknown table and
    /// the latter as the underlying error, so transient faults are never
    /// misdiagnosed as missing tables.
    fn table_schema(&self, table: &str) -> std::result::Result<Option<Schema>, String>;
}

/// One aggregate computation within an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub agg: Aggregator,
    /// Argument expression; `None` for `COUNT(*)`.
    pub arg: Option<Expr>,
}

impl AggExpr {
    /// The type of what it aggregates over `input` (`COUNT(*)` counts INTs).
    pub(crate) fn arg_type(&self, input: &Schema) -> Result<DataType> {
        (self.arg.as_ref()).map_or(Ok(DataType::Int64), |e| infer_type(e, input))
    }
}

/// A relational logical plan. Every expression in a node is bound to the
/// node's input: a Join's ON pairs to its left and right inputs, any other
/// node's to its one input, and a Scan's filters to its own output.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan with optional projection pushdown and pushed filters.
    Scan {
        table: String,
        /// What the scan returns: the table's columns, or the ones
        /// `projection` names, in table order.
        schema: Schema,
        /// Columns to read (None = all).
        projection: Option<Vec<String>>,
        /// Conjunctive filters pushed into the scan. Each column in them is
        /// named as the table names it.
        filters: Vec<Expr>,
        /// Row budget: the scan may stop once this many rows have passed
        /// `filters` (set by the optimizer from a `LIMIT` directly above).
        fetch: Option<usize>,
    },
    /// Literal rows: what a `SELECT` without `FROM` reads, one row.
    Values {
        batch: RecordBatch,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        /// (expression, output name)
        exprs: Vec<(Expr, String)>,
        schema: Schema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_exprs: Vec<(Expr, String)>,
        agg_exprs: Vec<(AggExpr, String)>,
        schema: Schema,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        /// Equality pairs (left side expr, right side expr).
        on: Vec<(Expr, Expr)>,
        /// The left input's columns, then the right's, NULL-able; a right
        /// column whose name the left has is named `alias.name`.
        schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        /// (expression, descending)
        keys: Vec<(Expr, bool)>,
        /// Only the first this-many sorted rows are wanted (set by the
        /// optimizer from a `LIMIT` above).
        fetch: Option<usize>,
    },
    Limit {
        input: Box<LogicalPlan>,
        limit: Option<usize>,
        offset: usize,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Operator name for plan display and per-operator execution metrics.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Distinct { .. } => "Distinct",
        }
    }

    /// The output schema of this plan node, as it was built.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Values { batch } => batch.schema(),
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// This node's inputs, in execution-path order (Join: left then right).
    /// The order matches the `path` attribute the executor records on spans
    /// (child `i` of a node at path `p` executes at path `p.i`).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// [`Self::children`], mutably.
    fn children_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This node with `f` applied to each input: what every plan rewrite
    /// recurses through, so a rule handles only the nodes it changes.
    pub(crate) fn map_inputs(
        mut self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<Self> {
        for input in self.children_mut() {
            let batch = RecordBatch::new_empty(Schema::empty());
            *input = f(std::mem::replace(input, LogicalPlan::Values { batch }))?;
        }
        Ok(self)
    }

    /// Every expression this node holds: over its input, or for a Join over
    /// one input each.
    pub(crate) fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            LogicalPlan::Scan { filters, .. } => filters.iter_mut().collect(),
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter_mut().map(|(e, _)| e).collect(),
            LogicalPlan::Aggregate {
                group_exprs,
                agg_exprs,
                ..
            } => (group_exprs.iter_mut().map(|(e, _)| e))
                .chain(agg_exprs.iter_mut().filter_map(|(a, _)| a.arg.as_mut()))
                .collect(),
            LogicalPlan::Join { on, .. } => on.iter_mut().flat_map(|(l, r)| [l, r]).collect(),
            LogicalPlan::Sort { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
            LogicalPlan::Values { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Distinct { .. } => {
                vec![]
            }
        }
    }

    /// One-line label for this node as it appears in EXPLAIN output.
    pub fn node_label(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                fetch,
                ..
            } => {
                let mut label = format!("Scan: {table}");
                if let Some(p) = projection {
                    label.push_str(&format!(" projection=[{}]", p.join(", ")));
                }
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                    label.push_str(&format!(" filters=[{}]", fs.join(" AND ")));
                }
                if let Some(n) = fetch {
                    label.push_str(&format!(" fetch={n}"));
                }
                label
            }
            LogicalPlan::Values { batch } => format!("Values: {} row(s)", batch.num_rows()),
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project: {}", items.join(", "))
            }
            LogicalPlan::Aggregate {
                group_exprs,
                agg_exprs,
                ..
            } => {
                let gs: Vec<String> = group_exprs.iter().map(|(e, _)| e.to_string()).collect();
                let aggs: Vec<String> = agg_exprs.iter().map(|(_, n)| n.clone()).collect();
                format!(
                    "Aggregate: group=[{}] aggs=[{}]",
                    gs.join(", "),
                    aggs.join(", ")
                )
            }
            LogicalPlan::Join { join_type, on, .. } => {
                let pairs: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("Join({join_type:?}): on [{}]", pairs.join(" AND "))
            }
            LogicalPlan::Sort { keys, fetch, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect();
                let fetch = fetch.map_or(String::new(), |n| format!(" fetch={n}"));
                format!("Sort: {}{fetch}", ks.join(", "))
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                format!("Limit: {limit:?} offset {offset}")
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
        }
    }

    /// Indented textual rendering (EXPLAIN output).
    pub fn display_indent(&self) -> String {
        fn go(plan: &LogicalPlan, indent: usize, out: &mut String) {
            out.push_str(&"  ".repeat(indent));
            out.push_str(&plan.node_label());
            out.push('\n');
            for child in plan.children() {
                go(child, indent + 1, out);
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

/// The column positions `expr` reads.
pub(crate) fn columns(expr: &Expr) -> Vec<usize> {
    let mut out = Vec::new();
    expr.walk(&mut |e| {
        if let Expr::Column(ColumnRef { index: Some(i), .. }) = e {
            out.push(*i);
        }
    });
    out
}

/// Whether every column `expr` reads is on a join's left input (`Some(true)`)
/// or every one on its right (`Some(false)`), the left having `nl` columns:
/// `None` when it reads both, or no column.
pub(crate) fn on_left(expr: &Expr, nl: usize) -> Option<bool> {
    let cols = columns(expr);
    let left = *cols.first()? < nl;
    cols.iter().all(|&i| (i < nl) == left).then_some(left)
}

/// `expr` with each column's position `i` moved to `to(i)`, for a rewrite
/// that changes a node's input; `None` means the column is not there.
pub(crate) fn move_columns(expr: Expr, to: &impl Fn(usize) -> Option<usize>) -> Result<Expr> {
    match expr {
        Expr::Column(mut c) => {
            c.index = c.index.and_then(to);
            match c.index {
                Some(_) => Ok(Expr::Column(c)),
                None => Err(SqlError::Plan(format!("column {c} is not in its input"))),
            }
        }
        other => other.map_children(|e| move_columns(e, to)),
    }
}

/// Infer the output type of a bound expression over an input schema.
pub fn infer_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    Ok(type_of(expr, schema)?.unwrap_or(DataType::Int64))
}

/// The type `expr` evaluates to over `schema`; `None` for an untyped NULL.
fn type_of(expr: &Expr, schema: &Schema) -> Result<Option<DataType>> {
    Ok(Some(match expr {
        Expr::Column(c) => {
            let field = c.index.and_then(|i| schema.fields().get(i));
            let unbound = || SqlError::Plan(format!("column {c} is not bound to its input"));
            field.ok_or_else(unbound)?.data_type()
        }
        Expr::Literal(v) => return Ok(v.data_type()),
        Expr::Compare { .. }
        | Expr::Logical { .. }
        | Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::Like { .. } => DataType::Bool,
        Expr::Arith { left, right, .. } => {
            let float = Some(DataType::Float64);
            if type_of(left, schema)? == float || type_of(right, schema)? == float {
                DataType::Float64
            } else {
                DataType::Int64
            }
        }
        Expr::Negate(e) => return type_of(e, schema),
        Expr::Function { name, args } => {
            let types = (args.iter())
                .map(|a| type_of(a, schema))
                .collect::<Result<Vec<_>>>()?;
            if let Some(agg) = Aggregator::parse(name) {
                let input = types.first().copied().flatten();
                agg.output_type(input.unwrap_or(DataType::Int64))
            } else {
                return scalar_return_type(name, &types);
            }
        }
        Expr::CountStar => DataType::Int64,
        Expr::Cast { to, .. } => *to,
        Expr::Case {
            branches,
            else_expr,
        } => return case_type(branches, else_expr.as_deref(), schema),
    }))
}

/// The type a CASE's results meet at.
fn case_type(
    branches: &[(Expr, Expr)],
    else_expr: Option<&Expr>,
    schema: &Schema,
) -> Result<Option<DataType>> {
    let mut values = branches.iter().map(|(_, v)| v).chain(else_expr);
    values.try_fold(None, |t, v| Ok(unify(t, type_of(v, schema)?)))
}

const BOOLEAN: Option<DataType> = Some(DataType::Bool);

/// `e`, an untyped NULL cast to `to` when there is one.
fn typed(e: Expr, to: Option<DataType>) -> Expr {
    match (e, to) {
        (Expr::Literal(Value::Null), Some(to)) => Expr::Cast {
            expr: Box::new(Expr::Literal(Value::Null)),
            to,
        },
        (e, _) => e,
    }
}

/// `expr`, its operands bound, with each untyped NULL operand its context
/// gives a type cast to that type: a NULL operand of AND, OR or NOT, or a
/// NULL CASE condition, is a BOOLEAN; a NULL CASE result or COALESCE
/// argument has the others' type.
fn type_null_operands(expr: Expr, schema: &Schema) -> Result<Expr> {
    let boolean = |e: Box<Expr>| Box::new(typed(*e, BOOLEAN));
    Ok(match expr {
        Expr::Logical { op, left, right } => Expr::Logical {
            op,
            left: boolean(left),
            right: boolean(right),
        },
        Expr::Not(e) => Expr::Not(boolean(e)),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let to = case_type(&branches, else_expr.as_deref(), schema)?;
            let branches = branches
                .into_iter()
                .map(|(c, v)| (typed(c, BOOLEAN), typed(v, to)));
            Expr::Case {
                branches: branches.collect(),
                else_expr: else_expr.map(|e| Box::new(typed(*e, to))),
            }
        }
        Expr::Function { name, args } if name.eq_ignore_ascii_case("COALESCE") => {
            let types = (args.iter())
                .map(|a| type_of(a, schema))
                .collect::<Result<Vec<_>>>()?;
            let to = scalar_return_type(&name, &types)?;
            let args = args.into_iter().map(|a| typed(a, to)).collect();
            Expr::Function { name, args }
        }
        other => other,
    })
}

/// Is this expression (at the top level) an aggregate call?
pub fn as_aggregate(expr: &Expr) -> Option<AggExpr> {
    match expr {
        Expr::CountStar => Some(AggExpr {
            agg: Aggregator::CountStar,
            arg: None,
        }),
        Expr::Function { name, args } => Aggregator::parse(name).map(|agg| AggExpr {
            agg,
            arg: args.first().cloned(),
        }),
        _ => None,
    }
}

/// Does the expression contain any aggregate call?
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if as_aggregate(e).is_some() {
            found = true;
        }
    });
    found
}

/// One column a name can bind to: the alias of the relation it came from
/// and its name there.
#[derive(Debug, Clone)]
struct ScopeColumn {
    relation: Option<Rc<str>>,
    name: String,
}

/// The names an expression can use: one per column of the input it is
/// evaluated over, in order.
#[derive(Debug, Clone)]
struct Scope(Vec<ScopeColumn>);

impl Scope {
    /// The columns of `schema`, from the relation aliased `relation`.
    fn of(relation: Option<&str>, schema: &Schema) -> Scope {
        let relation: Option<Rc<str>> = relation.map(Rc::from);
        let column = |f: &Field| ScopeColumn {
            relation: relation.clone(),
            name: f.name().to_string(),
        };
        Scope(schema.fields().iter().map(column).collect())
    }

    /// The position `c` names: `q.c` is column `c` of the relation aliased
    /// `q`, a bare `c` the left-most column named `c`. Spelling decides
    /// first, then letters regardless of case.
    fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        let find = |same: fn(&str, &str) -> bool| {
            self.0.iter().position(|s| {
                let relation = |q: &str| s.relation.as_deref().is_some_and(|r| same(r, q));
                same(&s.name, &c.name) && c.qualifier.as_deref().is_none_or(relation)
            })
        };
        (find(|a, b| a == b).or_else(|| find(str::eq_ignore_ascii_case)))
            .ok_or_else(|| SqlError::Plan(format!("unknown column: {c}")))
    }

    /// `expr` with every column bound to its position in this scope, over
    /// an input of `schema`, and named as its relation spells it; and its
    /// NULLs typed from their context.
    fn bind(&self, expr: &Expr, schema: &Schema) -> Result<Expr> {
        fn go(scope: &Scope, schema: &Schema, expr: Expr) -> Result<Expr> {
            match expr {
                Expr::Column(mut c) => {
                    let i = scope.resolve(&c)?;
                    if c.name != scope.0[i].name {
                        c.name = scope.0[i].name.clone();
                    }
                    c.index = Some(i);
                    Ok(Expr::Column(c))
                }
                other => {
                    let bound = other.map_children(|e| go(scope, schema, e))?;
                    type_null_operands(bound, schema)
                }
            }
        }
        go(self, schema, expr.clone())
    }
}

/// Bind a parsed SELECT against a schema provider into a logical plan.
pub fn plan_select(stmt: &SelectStmt, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    // 1. FROM + JOINs.
    let (mut plan, mut scope) = match &stmt.from {
        Some(rel) => plan_relation(rel, provider)?,
        None => {
            // One row of one column no name can reach.
            let schema = Schema::new(vec![Field::new("", DataType::Int64, false)]);
            let batch = RecordBatch::try_new(schema, vec![Column::from_i64(vec![0])])?;
            let scope = Scope::of(None, batch.schema());
            (LogicalPlan::Values { batch }, scope)
        }
    };
    for join in &stmt.joins {
        (plan, scope) = plan_join(plan, scope, join, provider)?;
    }

    // 2. WHERE.
    if let Some(pred) = &stmt.where_clause {
        if contains_aggregate(pred) {
            return Err(SqlError::Plan(
                "aggregate functions are not allowed in WHERE".into(),
            ));
        }
        // A bare NULL is a BOOLEAN there, as in HAVING.
        let predicate = typed(scope.bind(pred, plan.schema())?, BOOLEAN);
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // 3. The select list, over the FROM scope; `*` is every column of it.
    let from = plan.schema().clone();
    let mut items: Vec<(Expr, String)> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for (i, (c, field)) in scope.0.iter().zip(from.fields()).enumerate() {
                    // A renamed join column shows as the `alias.name` it is.
                    let renamed = field.name() != c.name;
                    let column = ColumnRef {
                        qualifier: c.relation.as_deref().filter(|_| renamed).map(String::from),
                        name: c.name.clone(),
                        index: Some(i),
                    };
                    items.push((Expr::Column(column), field.name().to_string()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                items.push((scope.bind(expr, &from)?, name));
            }
        }
    }

    // 4. ORDER BY keys that can sort below the projection: an output's
    //    alias stands for its expression, anything else binds to the FROM
    //    scope. A key that does neither is bound to the outputs in step 7.
    let mut below: Vec<Option<Expr>> = (stmt.order_by.iter())
        .map(|o| {
            let alias = match &o.expr {
                Expr::Column(c) if c.qualifier.is_none() => {
                    items.iter().find(|(_, n)| *n == c.name)
                }
                _ => None,
            };
            match alias {
                Some((e, _)) => Some(e.clone()),
                None => scope.bind(&o.expr, &from).ok(),
            }
        })
        .collect();

    // 5. Aggregation: everything above it reads the group expressions and
    //    aggregates from the Aggregate's output.
    let mut having = (stmt.having.as_ref())
        .map(|h| scope.bind(h, &from).map(|h| typed(h, BOOLEAN)))
        .transpose()?;
    let needs_agg = !stmt.group_by.is_empty()
        || items.iter().any(|(e, _)| contains_aggregate(e))
        || having.as_ref().is_some_and(contains_aggregate);
    if needs_agg {
        let group_exprs = (stmt.group_by.iter())
            .map(|g| Ok((scope.bind(g, &from)?, g.default_name())))
            .collect::<Result<Vec<_>>>()?;
        let mut agg_exprs: Vec<(AggExpr, String)> = Vec::new();
        let used = (items.iter().map(|(e, _)| e))
            .chain(having.as_ref())
            .chain(below.iter().flatten());
        for e in used {
            e.walk(&mut |node| {
                if let Some(agg) = as_aggregate(node) {
                    if !agg_exprs.iter().any(|(a, _)| *a == agg) {
                        let name = format!("__agg_{}", agg_exprs.len());
                        agg_exprs.push((agg, name));
                    }
                }
            });
        }
        let groups =
            (group_exprs.iter()).map(|(e, n)| Ok(Field::new(n, infer_type(e, &from)?, true)));
        let aggs = (agg_exprs.iter())
            .map(|(a, n)| Ok(Field::new(n, a.agg.output_type(a.arg_type(&from)?), true)));
        let fields = groups.chain(aggs).collect::<Result<_>>()?;
        let over = |e: Expr| over_groups(e, &group_exprs, &agg_exprs);
        let grouped = |what: &str| {
            let err = "must be built from GROUP BY expressions and aggregates";
            SqlError::Plan(format!("{what} {err}"))
        };
        items = (items.into_iter())
            .map(|(e, name)| Ok((over(e).ok_or_else(|| grouped(&name))?, name)))
            .collect::<Result<_>>()?;
        having = (having.map(|h| over(h).ok_or_else(|| grouped("HAVING")))).transpose()?;
        below = below.into_iter().map(|k| k.and_then(over)).collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_exprs,
            agg_exprs,
            schema: Schema::new(fields),
        };
    }

    // 6. HAVING.
    if let Some(predicate) = having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // 7. ORDER BY, projection, DISTINCT. The sort goes below the projection
    //    when every key could bind there (that covers columns the
    //    projection drops), else above it over the outputs.
    let keys = below.iter().zip(&stmt.order_by);
    let sorted_below: Option<Vec<(Expr, bool)>> = (!below.is_empty())
        .then(|| {
            keys.map(|(k, o)| Some((k.clone()?, o.descending)))
                .collect()
        })
        .flatten();
    if let Some(keys) = sorted_below.clone() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
            fetch: None,
        };
    }
    let fields = (items.iter())
        .map(|(e, name)| Ok(Field::new(name, infer_type(e, plan.schema())?, true)))
        .collect::<Result<_>>()?;
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: items.clone(),
        schema: Schema::new(fields),
    };
    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if !below.is_empty() && sorted_below.is_none() {
        let outputs = Scope::of(None, plan.schema());
        let key = |(k, o): (Option<Expr>, &crate::ast::OrderByExpr)| {
            // An expression the select list computes is read from it.
            let projected = k.and_then(|k| items.iter().position(|(e, _)| *e == k));
            let key = match projected {
                Some(i) => Expr::bound(items[i].1.clone(), i),
                None => outputs.bind(&o.expr, plan.schema())?,
            };
            Ok((key, o.descending))
        };
        let keys = below.into_iter().zip(&stmt.order_by).map(key);
        plan = LogicalPlan::Sort {
            keys: keys.collect::<Result<_>>()?,
            input: Box::new(plan),
            fetch: None,
        };
    }

    // 8. LIMIT / OFFSET.
    if stmt.limit.is_some() || stmt.offset.is_some() {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit: stmt.limit,
            offset: stmt.offset.unwrap_or(0),
        };
    }
    Ok(plan)
}

/// A FROM item's plan, and the scope its columns are named in: under its
/// alias, or a table's own name when it has none.
fn plan_relation(rel: &Relation, provider: &dyn SchemaProvider) -> Result<(LogicalPlan, Scope)> {
    let plan = match rel {
        Relation::Table { name, .. } => LogicalPlan::Scan {
            table: name.clone(),
            schema: provider
                .table_schema(name)
                .map_err(SqlError::Execution)?
                .ok_or_else(|| SqlError::Plan(format!("unknown table: {name}")))?,
            projection: None,
            filters: vec![],
            fetch: None,
        },
        Relation::Subquery { query, .. } => plan_select(query, provider)?,
    };
    let scope = Scope::of(Some(rel.alias()), plan.schema());
    Ok((plan, scope))
}

/// `left` joined with `join`'s relation. A right column whose name the left
/// already has is named `alias.name` in the join's output, and each ON
/// equality is bound with one side to each input.
fn plan_join(
    left: LogicalPlan,
    mut scope: Scope,
    join: &Join,
    provider: &dyn SchemaProvider,
) -> Result<(LogicalPlan, Scope)> {
    let (right, right_scope) = plan_relation(&join.relation, provider)?;
    let (ls, alias) = (left.schema(), join.relation.alias());
    let mut fields = ls.fields().to_vec();
    for f in right.schema().fields() {
        let name = match ls.contains(f.name()) {
            true => format!("{alias}.{}", f.name()),
            false => f.name().to_string(),
        };
        fields.push(Field::new(name, f.data_type(), true));
    }
    let schema = Schema::new(fields);
    let nl = ls.len();
    scope.0.extend(right_scope.0);
    let on = (join.on.iter())
        .map(|(a, b)| {
            let (a, b) = (scope.bind(a, &schema)?, scope.bind(b, &schema)?);
            let to_right = |e: Expr| move_columns(e, &|i| i.checked_sub(nl));
            match (on_left(&a, nl), on_left(&b, nl)) {
                (Some(true), Some(false)) => Ok((a, to_right(b)?)),
                (Some(false), Some(true)) => Ok((b, to_right(a)?)),
                _ => Err(SqlError::Plan(format!(
                    "join condition {a} = {b} must compare a column of each input"
                ))),
            }
        })
        .collect::<Result<_>>()?;
    let plan = LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        join_type: join.join_type,
        on,
        schema,
    };
    Ok((plan, scope))
}

/// `expr` over an Aggregate's output: each GROUP BY expression and
/// aggregate in it becomes a reference to its output column. `None` when a
/// column is left outside both.
fn over_groups(expr: Expr, groups: &[(Expr, String)], aggs: &[(AggExpr, String)]) -> Option<Expr> {
    if let Some(i) = groups.iter().position(|(g, _)| *g == expr) {
        return Some(Expr::bound(groups[i].1.clone(), i));
    }
    let agg = as_aggregate(&expr).and_then(|a| aggs.iter().position(|(b, _)| *b == a));
    if let Some(j) = agg {
        return Some(Expr::bound(aggs[j].1.clone(), groups.len() + j));
    }
    match expr {
        Expr::Column(_) => None,
        other => other
            .map_children(|e| over_groups(e, groups, aggs).ok_or(()))
            .ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use std::collections::HashMap;

    struct Fixture(HashMap<String, Schema>);

    impl SchemaProvider for Fixture {
        fn table_schema(&self, table: &str) -> std::result::Result<Option<Schema>, String> {
            Ok(self.0.get(table).cloned())
        }
    }

    fn fixture() -> Fixture {
        let mut m = HashMap::new();
        m.insert(
            "trips".to_string(),
            Schema::new(vec![
                Field::new("pickup_location_id", DataType::Int64, false),
                Field::new("dropoff_location_id", DataType::Int64, false),
                Field::new("fare", DataType::Float64, true),
                Field::new("zone", DataType::Utf8, true),
            ]),
        );
        m.insert(
            "zones".to_string(),
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("zone", DataType::Utf8, false),
            ]),
        );
        Fixture(m)
    }

    fn plan(sql: &str) -> Result<LogicalPlan> {
        plan_select(&parse_select(sql).unwrap(), &fixture())
    }

    #[test]
    fn simple_projection_schema() {
        let p = plan("SELECT fare, zone FROM trips").unwrap();
        let s = p.schema();
        assert_eq!(s.names(), vec!["fare", "zone"]);
        assert_eq!(s.field(0).data_type(), DataType::Float64);
    }

    #[test]
    fn wildcard_expands() {
        let p = plan("SELECT * FROM trips").unwrap();
        assert_eq!(p.schema().len(), 4);
    }

    #[test]
    fn unknown_table_errors() {
        assert!(matches!(
            plan("SELECT * FROM ghost"),
            Err(SqlError::Plan(_))
        ));
    }

    #[test]
    fn unknown_column_errors() {
        assert!(plan("SELECT nope FROM trips").is_err());
    }

    #[test]
    fn aggregate_schema() {
        let p = plan("SELECT zone, COUNT(*) AS n, AVG(fare) AS avg_fare FROM trips GROUP BY zone")
            .unwrap();
        let s = p.schema();
        assert_eq!(s.names(), vec!["zone", "n", "avg_fare"]);
        assert_eq!(s.field(1).data_type(), DataType::Int64);
        assert_eq!(s.field(2).data_type(), DataType::Float64);
    }

    #[test]
    fn non_grouped_column_rejected() {
        assert!(plan("SELECT zone, fare FROM trips GROUP BY zone").is_err());
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(plan("SELECT zone FROM trips WHERE COUNT(*) > 1 GROUP BY zone").is_err());
    }

    #[test]
    fn order_by_alias_resolves() {
        // "ORDER BY counts DESC" where counts aliases COUNT(*): the key is
        // rewritten to the aggregate output column and the sort placed below
        // the projection.
        let p =
            plan("SELECT zone, COUNT(*) AS counts FROM trips GROUP BY zone ORDER BY counts DESC")
                .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!("expected project on top");
        };
        match *input {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(keys[0].0, Expr::col("__agg_0"));
                assert!(keys[0].1);
            }
            other => panic!("expected sort below project, got {other:?}"),
        }
    }

    #[test]
    fn order_by_non_projected_column() {
        // Sorting by a column the projection drops must still plan.
        let p = plan("SELECT zone FROM trips ORDER BY fare DESC").unwrap();
        assert_eq!(p.schema().names(), vec!["zone"]);
    }

    #[test]
    fn join_disambiguates_duplicate_columns() {
        let p = plan(
            "SELECT trips.zone, zones.zone FROM trips JOIN zones ON trips.pickup_location_id = zones.id",
        )
        .unwrap();
        let s = p.schema();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn explain_renders() {
        let p = plan("SELECT zone FROM trips WHERE fare > 1 ORDER BY zone LIMIT 5").unwrap();
        let text = p.display_indent();
        assert!(text.contains("Limit"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan: trips"));
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 + 2 AS three").unwrap();
        assert_eq!(p.schema().names(), vec!["three"]);
        // It reads a one-row leaf, not a table.
        assert!(
            matches!(p.children()[..], [LogicalPlan::Values { .. }]),
            "{p:?}"
        );
        assert!(plan("SELECT x AS y").is_err());
    }

    #[test]
    fn having_rewritten_to_agg_reference() {
        let p = plan("SELECT zone FROM trips GROUP BY zone HAVING COUNT(*) > 2").unwrap();
        // Plan shape: Project <- Filter(__agg_0 > 2) <- Aggregate.
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        assert!(predicate.to_string().contains("__agg_0"));
    }
}
