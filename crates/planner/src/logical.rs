//! The logical pipeline plan: ordered steps with explicit dependencies and
//! connections to outside artifacts (the middle layer of Fig. 3).

use crate::dag::PipelineDag;
use crate::error::Result;
use crate::project::{NodeKind, PipelineProject};

/// What executing a step does to the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Write the artifact back as a table.
    Materialize,
    /// Evaluate a boolean audit; failure aborts the run before any merge.
    Audit,
}

/// One step of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalStep {
    pub name: String,
    pub kind: NodeKind,
    pub action: StepAction,
    /// In-project inputs (artifacts produced by earlier steps).
    pub inputs: Vec<String>,
    /// External inputs (lake tables read by this step).
    pub external_inputs: Vec<String>,
}

/// The ordered logical plan for a whole pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPipeline {
    pub project_name: String,
    pub steps: Vec<LogicalStep>,
}

impl LogicalPipeline {
    /// Build the plan from a project (extracting the DAG on the way).
    pub fn plan(project: &PipelineProject) -> Result<LogicalPipeline> {
        let dag = PipelineDag::extract(project)?;
        Self::plan_with_dag(project, &dag, None)
    }

    /// Plan only a subset of nodes (the replay selector `-m node+`), or all
    /// when `selection` is `None`.
    pub fn plan_with_dag(
        project: &PipelineProject,
        dag: &PipelineDag,
        selection: Option<&[String]>,
    ) -> Result<LogicalPipeline> {
        let mut steps = Vec::new();
        for name in dag.topo_order() {
            if let Some(sel) = selection {
                if !sel.contains(name) {
                    continue;
                }
            }
            let node = project
                .get(name)
                .ok_or_else(|| crate::error::PlannerError::UnknownNode(name.clone()))?;
            steps.push(LogicalStep {
                name: name.clone(),
                kind: node.kind,
                action: if node.materializes() {
                    StepAction::Materialize
                } else {
                    StepAction::Audit
                },
                inputs: dag.deps_of(name)?.to_vec(),
                external_inputs: dag.lake_inputs_of(name).to_vec(),
            });
        }
        Ok(LogicalPipeline {
            project_name: project.name.clone(),
            steps,
        })
    }

    /// Render the plan (EXPLAIN-style).
    pub fn display(&self) -> String {
        let mut out = format!("LogicalPipeline: {}\n", self.project_name);
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "  step {}: {} [{:?}/{:?}] inputs={:?} external={:?}\n",
                i + 1,
                s.name,
                s.kind,
                s.action,
                s.inputs,
                s.external_inputs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxi_logical_plan() {
        let plan = LogicalPipeline::plan(&PipelineProject::taxi_example()).unwrap();
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.steps[0].name, "trips");
        assert_eq!(plan.steps[0].external_inputs, vec!["taxi_table"]);
        let actions: Vec<(&str, StepAction)> = plan
            .steps
            .iter()
            .map(|s| (s.name.as_str(), s.action))
            .collect();
        assert_eq!(
            actions,
            vec![
                ("trips", StepAction::Materialize),
                ("pickups", StepAction::Materialize),
                ("trips_expectation", StepAction::Audit),
            ]
        );
    }

    #[test]
    fn replay_selection_subsets_plan() {
        let project = PipelineProject::taxi_example();
        let dag = PipelineDag::extract(&project).unwrap();
        let sel = dag.descendants_inclusive("pickups").unwrap();
        let plan = LogicalPipeline::plan_with_dag(&project, &dag, Some(&sel)).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].name, "pickups");
    }

    #[test]
    fn display_contains_steps() {
        let plan = LogicalPipeline::plan(&PipelineProject::taxi_example()).unwrap();
        let text = plan.display();
        assert!(text.contains("trips_expectation"));
        assert!(text.contains("Audit"));
        assert!(text.contains("taxi_table"));
    }
}
