//! Implicit DAG extraction: dependencies come from the code itself —
//! SQL `FROM` references and function parameter names — never from an
//! imperative DAG API ("functions are all you need", paper §4.1). Each SQL
//! node is parsed here, once per extraction, and its statement kept for the
//! binder.

use crate::error::{PlannerError, Result};
use crate::project::PipelineProject;
use lakehouse_sql::{parse_select, referenced_tables, SelectStmt};
use std::collections::{BTreeMap, BTreeSet};

/// The extracted dependency graph of a project.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineDag {
    /// node → its in-project dependencies.
    deps: BTreeMap<String, Vec<String>>,
    /// node → the tables it reads that no node produces: the lake (Iceberg)
    /// tables, in first-reference order.
    lake_inputs: BTreeMap<String, Vec<String>>,
    /// SQL node → its parsed statement.
    statements: BTreeMap<String, SelectStmt>,
    /// Topological order of the project's nodes.
    topo_order: Vec<String>,
}

impl PipelineDag {
    /// Extract the DAG from a project.
    pub fn extract(project: &PipelineProject) -> Result<PipelineDag> {
        let node_names: BTreeSet<&str> = project.nodes.iter().map(|n| n.name.as_str()).collect();
        let mut deps = BTreeMap::new();
        let mut lake_inputs = BTreeMap::new();
        let mut statements = BTreeMap::new();
        for node in &project.nodes {
            let referenced = match &node.sql {
                Some(sql) => {
                    let stmt = parse_select(sql).map_err(|source| PlannerError::Sql {
                        node: node.name.clone(),
                        source,
                    })?;
                    let tables = referenced_tables(&stmt);
                    statements.insert(node.name.clone(), stmt);
                    tables
                }
                None => node.inputs.clone(),
            };
            let (in_project, lake): (Vec<String>, Vec<String>) = referenced
                .into_iter()
                .partition(|r| node_names.contains(r.as_str()));
            deps.insert(node.name.clone(), in_project);
            lake_inputs.insert(node.name.clone(), lake);
        }
        let topo_order = topo_sort(&deps)?;
        Ok(PipelineDag {
            deps,
            lake_inputs,
            statements,
            topo_order,
        })
    }

    /// Nodes in dependency order (parents before children).
    pub fn topo_order(&self) -> &[String] {
        &self.topo_order
    }

    /// In-project dependencies of a node.
    pub fn deps_of(&self, node: &str) -> Result<&[String]> {
        self.deps
            .get(node)
            .map(Vec::as_slice)
            .ok_or_else(|| PlannerError::UnknownNode(node.to_string()))
    }

    /// Lake tables a node reads (none, for a node not in the project).
    pub fn lake_inputs_of(&self, node: &str) -> &[String] {
        self.lake_inputs.get(node).map_or(&[], Vec::as_slice)
    }

    /// External (lake) tables the pipeline reads, in name order.
    pub fn external_inputs(&self) -> impl Iterator<Item = &str> {
        let all: BTreeSet<&str> = self
            .lake_inputs
            .values()
            .flatten()
            .map(String::as_str)
            .collect();
        all.into_iter()
    }

    /// A SQL node's parsed statement (`None` for any other node).
    pub fn statement(&self, node: &str) -> Option<&SelectStmt> {
        self.statements.get(node)
    }

    /// The node plus all transitive descendants, in topological order — the
    /// `-m node+` replay selector of the paper's CLI (§4.6).
    pub fn descendants_inclusive(&self, node: &str) -> Result<Vec<String>> {
        if !self.deps.contains_key(node) {
            return Err(PlannerError::UnknownNode(node.to_string()));
        }
        let mut selected = BTreeSet::new();
        selected.insert(node.to_string());
        // Repeated passes over topo order: children appear after parents.
        for n in &self.topo_order {
            if selected.contains(n) {
                continue;
            }
            if self.deps[n].iter().any(|d| selected.contains(d)) {
                selected.insert(n.clone());
            }
        }
        Ok(self
            .topo_order
            .iter()
            .filter(|n| selected.contains(*n))
            .cloned()
            .collect())
    }
}

/// Kahn's algorithm with deterministic (name-ordered) tie-breaking; reports
/// a cycle path on failure.
fn topo_sort(deps: &BTreeMap<String, Vec<String>>) -> Result<Vec<String>> {
    let mut in_degree: BTreeMap<&str, usize> =
        deps.iter().map(|(n, ds)| (n.as_str(), ds.len())).collect();
    let mut order = Vec::with_capacity(deps.len());
    loop {
        // Deterministic: pick the lexicographically smallest ready node.
        let ready: Option<&str> = in_degree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .next();
        let Some(node) = ready else { break };
        in_degree.remove(node);
        for (n, ds) in deps {
            if ds.iter().any(|d| d == node) {
                if let Some(d) = in_degree.get_mut(n.as_str()) {
                    *d -= 1;
                }
            }
        }
        order.push(node.to_string());
    }
    if !in_degree.is_empty() {
        let cycle: Vec<String> = in_degree.keys().map(|s| s.to_string()).collect();
        return Err(PlannerError::CycleDetected(cycle));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{NodeDef, Requirements};

    #[test]
    fn taxi_dag_shape() {
        let dag = PipelineDag::extract(&PipelineProject::taxi_example()).unwrap();
        // trips first; expectation and pickups both depend on trips.
        assert_eq!(dag.topo_order()[0], "trips");
        assert_eq!(dag.deps_of("pickups").unwrap(), &["trips"]);
        assert_eq!(dag.deps_of("trips_expectation").unwrap(), &["trips"]);
        assert_eq!(dag.deps_of("trips").unwrap(), &[] as &[String]);
        let ext: Vec<&str> = dag.external_inputs().collect();
        assert_eq!(ext, vec!["taxi_table"]);
    }

    #[test]
    fn descendants_inclusive_is_replay_selector() {
        let dag = PipelineDag::extract(&PipelineProject::taxi_example()).unwrap();
        let from_trips = dag.descendants_inclusive("trips").unwrap();
        assert_eq!(from_trips.len(), 3);
        let from_pickups = dag.descendants_inclusive("pickups").unwrap();
        assert_eq!(from_pickups, vec!["pickups"]);
        assert!(dag.descendants_inclusive("ghost").is_err());
    }

    #[test]
    fn cycle_detected() {
        let p = PipelineProject::new("cyclic")
            .with(NodeDef::sql("a", "SELECT * FROM b"))
            .with(NodeDef::sql("b", "SELECT * FROM a"));
        assert!(matches!(
            PipelineDag::extract(&p),
            Err(PlannerError::CycleDetected(_))
        ));
    }

    #[test]
    fn self_cycle_detected() {
        let p = PipelineProject::new("selfy").with(NodeDef::sql("a", "SELECT * FROM a"));
        assert!(PipelineDag::extract(&p).is_err());
    }

    #[test]
    fn bad_sql_surfaces_node_name() {
        let p = PipelineProject::new("bad").with(NodeDef::sql("broken", "SELEKT nope"));
        match PipelineDag::extract(&p) {
            Err(PlannerError::Sql { node, .. }) => assert_eq!(node, "broken"),
            other => panic!("expected Sql error, got {other:?}"),
        }
    }

    #[test]
    fn diamond_topology() {
        let p = PipelineProject::new("diamond")
            .with(NodeDef::sql("base", "SELECT * FROM raw"))
            .with(NodeDef::sql("left", "SELECT * FROM base"))
            .with(NodeDef::sql("right", "SELECT * FROM base"))
            .with(NodeDef::function(
                "merged",
                vec!["left".into(), "right".into()],
                Requirements::default(),
                "m",
            ));
        let dag = PipelineDag::extract(&p).unwrap();
        let order = dag.topo_order();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("base") < pos("left"));
        assert!(pos("base") < pos("right"));
        assert!(pos("left") < pos("merged"));
        assert!(pos("right") < pos("merged"));
        assert_eq!(dag.descendants_inclusive("base").unwrap().len(), 4);
    }

    #[test]
    fn deterministic_order() {
        let p = PipelineProject::new("tie")
            .with(NodeDef::sql("zeta", "SELECT * FROM raw"))
            .with(NodeDef::sql("alpha", "SELECT * FROM raw"));
        let dag = PipelineDag::extract(&p).unwrap();
        assert_eq!(dag.topo_order(), &["alpha".to_string(), "zeta".to_string()]);
    }
}
