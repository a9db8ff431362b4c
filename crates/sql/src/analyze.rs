//! `EXPLAIN ANALYZE` rendering: the optimized logical plan annotated with
//! per-operator execution stats pulled from a recorded span tree.
//!
//! The executor tags each operator span with a `path` attribute — `"0"` for
//! the root, `"p.i"` for child `i` of the node at `p` — so stats can be
//! matched back to plan nodes positionally, independent of operator names.

use crate::logical::LogicalPlan;
use lakehouse_obs::{fmt_duration, SpanData, SpanTree};
use std::collections::HashMap;

/// Render `plan` with each operator line annotated from the matching span:
/// rows and batches emitted, output bytes, wall/simulated span time, and the
/// operator's *self* time on both clocks (span time minus the time of its
/// direct child operators — the cost attributable to this operator alone,
/// since parent spans enclose the time spent pulling from children). A
/// grouped `Aggregate` line also carries `groups=` and `lookup=dense|hash`.
pub fn render_analyzed(plan: &LogicalPlan, tree: &SpanTree) -> String {
    let by_path: HashMap<&str, &SpanData> = tree
        .spans
        .iter()
        .filter_map(|s| s.attr_str("path").map(|p| (p, s)))
        .collect();
    let mut out = String::new();
    go(plan, "0", 0, &by_path, &mut out);
    out
}

fn go(
    plan: &LogicalPlan,
    path: &str,
    indent: usize,
    by_path: &HashMap<&str, &SpanData>,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    out.push_str(&format!("{pad}{}", plan.node_label()));
    let children = plan.children();
    if let Some(span) = by_path.get(path) {
        // Children run inside this span (pull-based), so self time is the
        // span minus its direct children's spans.
        let (mut child_wall, mut child_sim) = (0u64, 0u64);
        for i in 0..children.len() {
            if let Some(child) = by_path.get(format!("{path}.{i}").as_str()) {
                child_wall += child.wall_nanos();
                child_sim += child.sim_nanos();
            }
        }
        // A grouped Aggregate also says how many groups it made and which
        // lookup of its grouper served them.
        let grouping = match (span.attr_u64("groups"), span.attr_str("lookup")) {
            (Some(groups), Some(lookup)) => format!(" groups={groups} lookup={lookup}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  [rows={} batches={} bytes={} wall={} sim={} self_wall={} self_sim={}{grouping}]",
            span.attr_u64("rows").unwrap_or(0),
            span.attr_u64("batches").unwrap_or(0),
            span.attr_u64("bytes").unwrap_or(0),
            fmt_duration(span.wall_nanos()),
            fmt_duration(span.sim_nanos()),
            fmt_duration(span.wall_nanos().saturating_sub(child_wall)),
            fmt_duration(span.sim_nanos().saturating_sub(child_sim)),
        ));
    }
    out.push('\n');
    for (i, input) in children.into_iter().enumerate() {
        go(input, &format!("{path}.{i}"), indent + 1, by_path, out);
    }
}
