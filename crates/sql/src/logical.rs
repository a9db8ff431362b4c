//! Logical plans and the AST → plan translation (the "logical plan" layer of
//! the paper's Fig. 3).

use crate::ast::{Expr, JoinType, Relation, SelectItem, SelectStmt};
use crate::error::{Result, SqlError};
use crate::functions::is_scalar_function;
use lakehouse_columnar::kernels::Aggregator;
use lakehouse_columnar::{DataType, Field, Schema};

/// Resolves table names to schemas during planning. The execution-side
/// companion ([`crate::engine::TableProvider`]) extends this with data
/// access.
pub trait SchemaProvider {
    /// Schema of a table, or `None` if unknown.
    fn table_schema(&self, table: &str) -> Option<Schema>;

    /// Like [`SchemaProvider::table_schema`], but distinguishes "no such
    /// table" (`Ok(None)`) from a failure to resolve it (`Err`, e.g. a
    /// store fault while loading table metadata). The planner reports the
    /// former as an unknown table and the latter as the underlying error,
    /// so transient faults are never misdiagnosed as missing tables.
    fn table_schema_checked(&self, table: &str) -> std::result::Result<Option<Schema>, String> {
        Ok(self.table_schema(table))
    }
}

/// One aggregate computation within an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub agg: Aggregator,
    /// Argument expression; `None` for `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// A relational logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan with optional projection pushdown and pushed filters.
    Scan {
        table: String,
        schema: Schema,
        /// Columns to read (None = all).
        projection: Option<Vec<String>>,
        /// Conjunctive filters pushed into the scan.
        filters: Vec<Expr>,
        /// Row budget: the scan may stop once this many rows have passed
        /// `filters` (set by the optimizer from a `LIMIT` directly above).
        fetch: Option<usize>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        /// (expression, output name)
        exprs: Vec<(Expr, String)>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_exprs: Vec<(Expr, String)>,
        agg_exprs: Vec<(AggExpr, String)>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        /// Equality pairs (left side expr, right side expr).
        on: Vec<(Expr, Expr)>,
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
    /// Renames the column namespace of a subquery (derived table alias).
    SubqueryAlias {
        input: Box<LogicalPlan>,
        alias: String,
    },
}

impl LogicalPlan {
    /// Operator name for plan display and per-operator execution metrics.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Distinct { .. } => "Distinct",
            LogicalPlan::SubqueryAlias { .. } => "SubqueryAlias",
        }
    }

    /// The output schema of this plan node.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::Scan {
                schema, projection, ..
            } => match projection {
                Some(cols) => {
                    let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                    Ok(schema.project(&names)?)
                }
                None => Ok(schema.clone()),
            },
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema()?;
                let fields = exprs
                    .iter()
                    .map(|(e, name)| infer_type(e, &in_schema).map(|dt| Field::new(name, dt, true)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Schema::new(fields))
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                agg_exprs,
            } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::new();
                for (e, name) in group_exprs {
                    fields.push(Field::new(name, infer_type(e, &in_schema)?, true));
                }
                for (a, name) in agg_exprs {
                    let input_type = match &a.arg {
                        Some(e) => infer_type(e, &in_schema)?,
                        None => DataType::Int64,
                    };
                    fields.push(Field::new(name, a.agg.output_type(input_type), true));
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Join { left, right, .. } => {
                Ok(join_schema(&left.schema()?, &right.schema()?))
            }
            LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::SubqueryAlias { input, alias } => {
                let inner = input.schema()?;
                // Strip any previous qualification, re-qualify ambiguities
                // only (plain names preferred for usability).
                let _ = alias;
                Ok(inner)
            }
        }
    }

    /// This node's inputs, in execution-path order (Join: left then right).
    /// The order matches the `path` attribute the executors record on spans
    /// (child `i` of a node at path `p` executes at path `p.i`).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::SubqueryAlias { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// [`Self::children`], mutably (for in-place rewrites).
    pub fn children_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::SubqueryAlias { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
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
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias: {alias}"),
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

/// Resolve a (possibly qualified) column against a schema. Qualified names
/// try `qualifier.name` first, then the bare name; unqualified names try
/// exact match then a unique `*.name` suffix match.
pub fn resolve_column(schema: &Schema, qualifier: Option<&str>, name: &str) -> Result<usize> {
    if let Some(q) = qualifier {
        let qualified = format!("{q}.{name}");
        if let Ok(i) = schema.index_of(&qualified) {
            return Ok(i);
        }
    }
    if let Ok(i) = schema.index_of(name) {
        return Ok(i);
    }
    // Suffix match: a field named "alias.name".
    let suffix = format!(".{name}");
    let matches: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name().ends_with(&suffix))
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(SqlError::Plan(format!("unknown column: {name}"))),
        _ => Err(SqlError::Plan(format!("ambiguous column: {name}"))),
    }
}

/// A join's output schema: the left input's fields, then the right's.
pub fn join_schema(left: &Schema, right: &Schema) -> Schema {
    Schema::new(
        left.fields()
            .iter()
            .chain(right.fields())
            .cloned()
            .collect(),
    )
}

/// Can every column in `expr` be resolved against `schema`?
pub fn expr_resolves(expr: &Expr, schema: &Schema) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| {
        if let Expr::Column { qualifier, name } = e {
            if resolve_column(schema, qualifier.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

/// Infer the output type of an expression against an input schema.
pub fn infer_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    Ok(match expr {
        Expr::Column { qualifier, name } => {
            let i = resolve_column(schema, qualifier.as_deref(), name)?;
            schema.field(i).data_type()
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int64),
        Expr::Compare { .. }
        | Expr::Logical { .. }
        | Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::Like { .. } => DataType::Bool,
        Expr::Arith { left, right, .. } => {
            let l = infer_type(left, schema)?;
            let r = infer_type(right, schema)?;
            if l == DataType::Float64 || r == DataType::Float64 {
                DataType::Float64
            } else {
                DataType::Int64
            }
        }
        Expr::Negate(e) => infer_type(e, schema)?,
        Expr::Function { name, args } => {
            if let Some(agg) = Aggregator::parse(name) {
                let input = args
                    .first()
                    .map(|a| infer_type(a, schema))
                    .transpose()?
                    .unwrap_or(DataType::Int64);
                agg.output_type(input)
            } else if is_scalar_function(name) {
                crate::functions::scalar_return_type(name, args, schema)?
            } else {
                return Err(SqlError::Plan(format!("unknown function: {name}")));
            }
        }
        Expr::CountStar => DataType::Int64,
        Expr::Cast { to, .. } => *to,
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut t = None;
            for (_, v) in branches {
                let vt = infer_type(v, schema)?;
                t = Some(t.map_or(vt, |prev| unify(prev, vt)));
            }
            if let Some(e) = else_expr {
                let vt = infer_type(e, schema)?;
                t = Some(t.map_or(vt, |prev| unify(prev, vt)));
            }
            t.unwrap_or(DataType::Int64)
        }
    })
}

fn unify(a: DataType, b: DataType) -> DataType {
    if a == b {
        a
    } else if (a == DataType::Int64 && b == DataType::Float64)
        || (a == DataType::Float64 && b == DataType::Int64)
    {
        DataType::Float64
    } else {
        a
    }
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

/// Plan a parsed SELECT against a schema provider.
pub fn plan_select(stmt: &SelectStmt, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    // 1. FROM + JOINs.
    let mut plan = match &stmt.from {
        Some(rel) => plan_relation(rel, provider)?,
        None => {
            // SELECT without FROM: a single-row dummy relation.
            LogicalPlan::Scan {
                table: "__dual".into(),
                schema: Schema::new(vec![Field::new("__dummy", DataType::Int64, true)]),
                projection: None,
                filters: vec![],
                fetch: None,
            }
        }
    };
    for join in &stmt.joins {
        let right = plan_relation(&join.relation, provider)?;
        plan = disambiguate_join(plan, right, join.join_type, join.on.clone())?;
    }

    // 2. WHERE.
    if let Some(pred) = &stmt.where_clause {
        if contains_aggregate(pred) {
            return Err(SqlError::Plan(
                "aggregate functions are not allowed in WHERE".into(),
            ));
        }
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred.clone(),
        };
    }

    // 3. Expand wildcard projection.
    let input_schema = plan.schema()?;
    let mut proj_items: Vec<(Expr, String)> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for f in input_schema.fields() {
                    proj_items.push((Expr::col(f.name()), f.name().to_string()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                proj_items.push((expr.clone(), name));
            }
        }
    }

    // 4. Aggregation.
    let needs_agg = !stmt.group_by.is_empty()
        || proj_items.iter().any(|(e, _)| contains_aggregate(e))
        || stmt.having.as_ref().is_some_and(contains_aggregate);
    let mut having = stmt.having.clone();
    let mut order_keys: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .map(|o| (o.expr.clone(), o.descending))
        .collect();

    if needs_agg {
        // Group expressions keyed by display text.
        let group_exprs: Vec<(Expr, String)> = stmt
            .group_by
            .iter()
            .map(|e| (e.clone(), e.default_name()))
            .collect();
        // Collect unique aggregate expressions from projection/having/order.
        let mut agg_exprs: Vec<(AggExpr, String)> = Vec::new();
        let collect = |e: &Expr, agg_exprs: &mut Vec<(AggExpr, String)>| {
            e.walk(&mut |node| {
                if let Some(agg) = as_aggregate(node) {
                    if !agg_exprs.iter().any(|(a, _)| *a == agg) {
                        let name = format!("__agg_{}", agg_exprs.len());
                        agg_exprs.push((agg, name));
                    }
                }
            });
        };
        for (e, _) in &proj_items {
            collect(e, &mut agg_exprs);
        }
        if let Some(h) = &having {
            collect(h, &mut agg_exprs);
        }
        for (e, _) in &order_keys {
            collect(e, &mut agg_exprs);
        }
        // Validate: projection expressions must be built from group exprs and
        // aggregates only.
        for (e, name) in &proj_items {
            validate_agg_projection(e, &group_exprs, name)?;
        }
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_exprs: group_exprs.clone(),
            agg_exprs: agg_exprs.clone(),
        };
        // Rewrite downstream expressions to reference aggregate output.
        let rewrite = |e: &Expr| rewrite_post_agg(e, &group_exprs, &agg_exprs);
        proj_items = proj_items
            .iter()
            .map(|(e, n)| (rewrite(e), n.clone()))
            .collect();
        having = having.as_ref().map(&rewrite);
        order_keys = order_keys.iter().map(|(e, d)| (rewrite(e), *d)).collect();
    }

    // 5. HAVING.
    if let Some(h) = having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: h,
        };
    }

    // 6-8. Projection, DISTINCT, ORDER BY.
    //
    // ORDER BY may reference projection aliases ("ORDER BY n DESC") *or*
    // columns that are not projected at all ("ORDER BY id" with id dropped).
    // Strategy: rewrite alias references to the underlying projected
    // expression; if every key then resolves against the pre-projection
    // schema, sort *below* the projection (covers non-projected columns);
    // otherwise sort above it in output terms.
    let pre_proj_schema = plan.schema()?;
    let keys_below: Option<Vec<(Expr, bool)>> = if order_keys.is_empty() {
        None
    } else {
        order_keys
            .iter()
            .map(|(e, d)| {
                // Alias reference → the projected expression.
                let expr = match e {
                    Expr::Column {
                        qualifier: None,
                        name,
                    } => proj_items
                        .iter()
                        .find(|(_, n)| n == name)
                        .map(|(pe, _)| pe.clone())
                        .unwrap_or_else(|| e.clone()),
                    _ => e.clone(),
                };
                infer_type(&expr, &pre_proj_schema).ok().map(|_| (expr, *d))
            })
            .collect()
    };
    if let Some(keys) = &keys_below {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: keys.clone(),
            fetch: None,
        };
    }

    let proj_plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: proj_items.clone(),
    };
    let out_schema = proj_plan.schema()?;
    plan = proj_plan;

    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    if !order_keys.is_empty() && keys_below.is_none() {
        let keys = order_keys
            .into_iter()
            .map(|(e, d)| {
                // Alias for a projected expression?
                if let Some((_, name)) = proj_items.iter().find(|(pe, _)| *pe == e) {
                    return Ok((Expr::col(name.clone()), d));
                }
                // Resolvable against output schema?
                if let Expr::Column { qualifier, name } = &e {
                    if resolve_column(&out_schema, qualifier.as_deref(), name).is_ok() {
                        return Ok((e, d));
                    }
                }
                // Computed key over projected columns.
                infer_type(&e, &out_schema).map(|_| (e, d))
            })
            .collect::<Result<Vec<_>>>()?;
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
            fetch: None,
        };
    }

    // 9. LIMIT / OFFSET.
    if stmt.limit.is_some() || stmt.offset.is_some() {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit: stmt.limit,
            offset: stmt.offset.unwrap_or(0),
        };
    }
    Ok(plan)
}

fn plan_relation(rel: &Relation, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    match rel {
        Relation::Table { name, alias } => {
            let schema = provider
                .table_schema_checked(name)
                .map_err(SqlError::Execution)?
                .ok_or_else(|| SqlError::Plan(format!("unknown table: {name}")))?;
            let scan = LogicalPlan::Scan {
                table: name.clone(),
                schema,
                projection: None,
                filters: vec![],
                fetch: None,
            };
            Ok(match alias {
                Some(a) => LogicalPlan::SubqueryAlias {
                    input: Box::new(scan),
                    alias: a.clone(),
                },
                None => scan,
            })
        }
        Relation::Subquery { query, alias } => Ok(LogicalPlan::SubqueryAlias {
            input: Box::new(plan_select(query, provider)?),
            alias: alias.clone(),
        }),
    }
}

/// Build a join, renaming right-side columns that collide with left-side
/// names to `alias.name` form so resolution stays unambiguous.
fn disambiguate_join(
    left: LogicalPlan,
    right: LogicalPlan,
    join_type: JoinType,
    on: Vec<(Expr, Expr)>,
) -> Result<LogicalPlan> {
    let lschema = left.schema()?;
    let rschema = right.schema()?;
    let alias = match &right {
        LogicalPlan::SubqueryAlias { alias, .. } => alias.clone(),
        LogicalPlan::Scan { table, .. } => table.clone(),
        _ => "right".to_string(),
    };
    let mut rename_needed = false;
    for f in rschema.fields() {
        if lschema.contains(f.name()) {
            rename_needed = true;
        }
    }
    let right = if rename_needed {
        let exprs = rschema
            .fields()
            .iter()
            .map(|f| {
                let out_name = if lschema.contains(f.name()) {
                    format!("{alias}.{}", f.name())
                } else {
                    f.name().to_string()
                };
                (Expr::col(f.name()), out_name)
            })
            .collect();
        LogicalPlan::Project {
            input: Box::new(right),
            exprs,
        }
    } else {
        right
    };
    Ok(LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        join_type,
        on,
    })
}

/// After aggregation, every non-aggregate leaf must be a group expression.
fn validate_agg_projection(
    expr: &Expr,
    group_exprs: &[(Expr, String)],
    item_name: &str,
) -> Result<()> {
    if group_exprs.iter().any(|(g, _)| g == expr) || as_aggregate(expr).is_some() {
        return Ok(());
    }
    match expr {
        Expr::Column { .. } => Err(SqlError::Plan(format!(
            "column {expr} in select item '{item_name}' must appear in GROUP BY \
             or be inside an aggregate"
        ))),
        Expr::Literal(_) | Expr::CountStar => Ok(()),
        Expr::Compare { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Logical { left, right, .. } => {
            validate_agg_projection(left, group_exprs, item_name)?;
            validate_agg_projection(right, group_exprs, item_name)
        }
        Expr::Not(e) | Expr::Negate(e) => validate_agg_projection(e, group_exprs, item_name),
        Expr::Cast { expr, .. } => validate_agg_projection(expr, group_exprs, item_name),
        Expr::Function { args, .. } => {
            for a in args {
                validate_agg_projection(a, group_exprs, item_name)?;
            }
            Ok(())
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                validate_agg_projection(c, group_exprs, item_name)?;
                validate_agg_projection(v, group_exprs, item_name)?;
            }
            if let Some(e) = else_expr {
                validate_agg_projection(e, group_exprs, item_name)?;
            }
            Ok(())
        }
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            validate_agg_projection(expr, group_exprs, item_name)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            validate_agg_projection(expr, group_exprs, item_name)?;
            validate_agg_projection(low, group_exprs, item_name)?;
            validate_agg_projection(high, group_exprs, item_name)
        }
        Expr::InList { expr, list, .. } => {
            validate_agg_projection(expr, group_exprs, item_name)?;
            for e in list {
                validate_agg_projection(e, group_exprs, item_name)?;
            }
            Ok(())
        }
    }
}

/// Replace group-expression and aggregate subtrees with references to the
/// aggregate node's output columns.
fn rewrite_post_agg(
    expr: &Expr,
    group_exprs: &[(Expr, String)],
    agg_exprs: &[(AggExpr, String)],
) -> Expr {
    if let Some((_, name)) = group_exprs.iter().find(|(g, _)| g == expr) {
        return Expr::col(name.clone());
    }
    if let Some(agg) = as_aggregate(expr) {
        if let Some((_, name)) = agg_exprs.iter().find(|(a, _)| *a == agg) {
            return Expr::col(name.clone());
        }
    }
    let rw = |e: &Expr| rewrite_post_agg(e, group_exprs, agg_exprs);
    match expr {
        Expr::Compare { op, left, right } => Expr::Compare {
            op: *op,
            left: Box::new(rw(left)),
            right: Box::new(rw(right)),
        },
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(rw(left)),
            right: Box::new(rw(right)),
        },
        Expr::Logical { op, left, right } => Expr::Logical {
            op: *op,
            left: Box::new(rw(left)),
            right: Box::new(rw(right)),
        },
        Expr::Not(e) => Expr::Not(Box::new(rw(e))),
        Expr::Negate(e) => Expr::Negate(Box::new(rw(e))),
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(rw(expr)),
            to: *to,
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(rw).collect(),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rw(expr)),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rw(expr)),
            low: Box::new(rw(low)),
            high: Box::new(rw(high)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rw(expr)),
            list: list.iter().map(rw).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rw(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches.iter().map(|(c, v)| (rw(c), rw(v))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(rw(e))),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use std::collections::HashMap;

    struct Fixture(HashMap<String, Schema>);

    impl SchemaProvider for Fixture {
        fn table_schema(&self, table: &str) -> Option<Schema> {
            self.0.get(table).cloned()
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
        let s = p.schema().unwrap();
        assert_eq!(s.names(), vec!["fare", "zone"]);
        assert_eq!(s.field(0).data_type(), DataType::Float64);
    }

    #[test]
    fn wildcard_expands() {
        let p = plan("SELECT * FROM trips").unwrap();
        assert_eq!(p.schema().unwrap().len(), 4);
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
        let s = p.schema().unwrap();
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
        assert_eq!(p.schema().unwrap().names(), vec!["zone"]);
    }

    #[test]
    fn join_disambiguates_duplicate_columns() {
        let p = plan(
            "SELECT trips.zone, zones.zone FROM trips JOIN zones ON trips.pickup_location_id = zones.id",
        )
        .unwrap();
        let s = p.schema().unwrap();
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
        assert_eq!(p.schema().unwrap().names(), vec!["three"]);
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
