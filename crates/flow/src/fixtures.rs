//! Flows reconstructed from the paper's figures, built against the
//! Fig. 1 schema ([`hercules_schema::fixtures::fig1`] or any schema
//! containing its entities, such as
//! [`hercules_schema::fixtures::odyssey`]).

use std::sync::Arc;

use hercules_schema::TaskSchema;

use crate::error::FlowError;
use crate::expand::Expansion;
use crate::graph::TaskGraph;

/// Builds the Fig. 3 flow: `placement = (placer, (circuit_editor,
/// netlist), placement_rules)`.
///
/// The `Layout` goal is expanded; its abstract `Netlist` input is
/// specialized to `EditedNetlist` and expanded with the optional prior
/// netlist included, matching footnote 2's rendering.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig3(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let netlist_ty = schema.require("Netlist")?;
    let edited_ty = schema.require("EditedNetlist")?;
    let mut flow = TaskGraph::new(schema.clone());
    let layout = flow.seed(schema.require("Layout")?)?;
    let created = flow.expand(layout)?; // placer, netlist, rules
    let netlist_node = created[1];
    flow.specialize(netlist_node, edited_ty)?;
    flow.expand_with(netlist_node, &Expansion::new().with_optional(netlist_ty))?;
    Ok(flow)
}

/// Builds the Fig. 4a expansion: the Fig. 3 goal with its netlist
/// specialized to `EditedNetlist` and expanded *without* the optional
/// prior netlist (editing from scratch).
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig4_edited(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let edited_ty = schema.require("EditedNetlist")?;
    let mut flow = TaskGraph::new(schema.clone());
    let layout = flow.seed(schema.require("Layout")?)?;
    let created = flow.expand(layout)?;
    let netlist_node = created[1];
    flow.specialize(netlist_node, edited_ty)?;
    flow.expand(netlist_node)?;
    Ok(flow)
}

/// Builds the Fig. 4b expansion: "the circuit in Fig. 4b was specialized
/// to an ExtractedNetlist before expansion" — the netlist input of the
/// placement task is itself extracted from a previous layout.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig4_extracted(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let extracted_ty = schema.require("ExtractedNetlist")?;
    let mut flow = TaskGraph::new(schema.clone());
    let layout = flow.seed(schema.require("Layout")?)?;
    let created = flow.expand(layout)?;
    let netlist_node = created[1];
    flow.specialize(netlist_node, extracted_ty)?;
    flow.expand(netlist_node)?; // extractor + prior layout
    Ok(flow)
}

/// Builds the Fig. 5 complex flow: "the reuse of an entity in several
/// subtasks and the production of multiple outputs, including multiple
/// outputs from the same subtask".
///
/// * the same `Netlist` node feeds both the `Circuit` composite (hence
///   the simulation) and the `Verification` task (entity reuse);
/// * the `Extractor` applied to one `Layout` produces both the
///   `ExtractedNetlist` and the `ExtractionStatistics` (multiple outputs
///   from one subtask);
/// * the flow as a whole has three outputs: `PerformancePlot`,
///   `Verification` and `ExtractionStatistics`.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig5(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let netlist_ty = schema.require("Netlist")?;
    let extractor_ty = schema.require("Extractor")?;
    let layout_ty = schema.require("Layout")?;
    let circuit_ty = schema.require("Circuit")?;
    let perf_ty = schema.require("Performance")?;
    let plot_ty = schema.require("PerformancePlot")?;
    let stats_ty = schema.require("ExtractionStatistics")?;

    let mut flow = TaskGraph::new(schema.clone());

    // Verification branch.
    let verification = flow.seed(schema.require("Verification")?)?;
    let created = flow.expand(verification)?; // verifier, netlist, extracted
    let netlist = created[1];
    let extracted = created[2];
    let created = flow.expand(extracted)?; // extractor, layout
    let extractor = created[0];
    let layout = created[1];

    // Second output of the same extraction subtask.
    let stats = flow.seed(stats_ty)?;
    flow.expand_with(
        stats,
        &Expansion::new()
            .reusing(extractor_ty, extractor)
            .reusing(layout_ty, layout),
    )?;

    // Simulation branch reusing the same netlist through the composite.
    let circuit = flow.seed(circuit_ty)?;
    flow.expand_with(circuit, &Expansion::new().reusing(netlist_ty, netlist))?;
    let perf = flow.seed(perf_ty)?;
    flow.expand_with(perf, &Expansion::new().reusing(circuit_ty, circuit))?;
    let (_plot, _) = flow.expand_down(perf, plot_ty, &Expansion::new())?;

    Ok(flow)
}

/// Builds the Fig. 6 flow whose two input branches are disjoint and can
/// therefore execute in parallel, "possibly on different machines".
///
/// The verification task consumes an `EditedNetlist` branch (editor) and
/// an `ExtractedNetlist` branch (extractor over a layout); neither
/// branch shares a node with the other.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig6(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let edited_ty = schema.require("EditedNetlist")?;
    let mut flow = TaskGraph::new(schema.clone());
    let verification = flow.seed(schema.require("Verification")?)?;
    let created = flow.expand(verification)?; // verifier, netlist, extracted
    let netlist = created[1];
    let extracted = created[2];
    flow.specialize(netlist, edited_ty)?;
    flow.expand(netlist)?; // circuit editor
    flow.expand(extracted)?; // extractor + layout
    Ok(flow)
}

/// Builds a *wide* flow of `branches` fully disjoint `Layout` chains
/// (each: edit a netlist, place it). No branch shares a node with any
/// other, so the flow's [`max_parallelism`] equals `branches` — the
/// stress fixture for parallel execution, tracing, and the profiler's
/// achieved-vs-maximum comparison.
///
/// [`max_parallelism`]: TaskGraph::max_parallelism
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn wide_parallel(schema: Arc<TaskSchema>, branches: usize) -> Result<TaskGraph, FlowError> {
    let layout_ty = schema.require("Layout")?;
    let edited_ty = schema.require("EditedNetlist")?;
    let mut flow = TaskGraph::new(schema.clone());
    for _ in 0..branches.max(1) {
        let layout = flow.seed(layout_ty)?;
        let created = flow.expand(layout)?; // placer, netlist
        let netlist = created[1];
        flow.specialize(netlist, edited_ty)?;
        flow.expand(netlist)?; // circuit editor
    }
    Ok(flow)
}

/// Builds the Fig. 8a synthesis flow: "synthesize the physical view of a
/// circuit from the transistor view" — a `Layout` placed from a
/// `Netlist`.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig8_synthesis(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let mut flow = TaskGraph::new(schema.clone());
    let layout = flow.seed(schema.require("Layout")?)?;
    flow.expand(layout)?;
    Ok(flow)
}

/// Builds the Fig. 8b verification flow: "verify that the physical view
/// is consistent with the transistor view" — extract a netlist from the
/// layout and compare it against the transistor-level netlist.
///
/// # Errors
///
/// Returns an error if `schema` lacks the Fig. 1 entities.
pub fn fig8_verification(schema: Arc<TaskSchema>) -> Result<TaskGraph, FlowError> {
    let mut flow = TaskGraph::new(schema.clone());
    let verification = flow.seed(schema.require("Verification")?)?;
    let created = flow.expand(verification)?;
    let extracted = created[2];
    flow.expand(extracted)?;
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::fixtures as schemas;

    fn schema() -> Arc<TaskSchema> {
        Arc::new(schemas::fig1())
    }

    #[test]
    fn wide_parallel_has_disjoint_branches() {
        let flow = wide_parallel(schema(), 4).expect("fixture");
        flow.validate_for_execution().expect("complete");
        assert_eq!(flow.components().len(), 4, "branches stay disjoint");
        assert_eq!(flow.max_parallelism().expect("acyclic"), 4);
        let waves = flow.parallel_waves().expect("acyclic");
        assert_eq!(waves.len(), 2, "edit wave, then place wave");
        assert!(waves.iter().all(|w| w.len() == 4));
    }

    #[test]
    fn fixture_max_parallelism_matches_figures() {
        // Fig. 6's two branches are explicitly parallel; Fig. 3 is a
        // single chain of width 1.
        assert_eq!(fig6(schema()).expect("fixture").max_parallelism(), Ok(2));
        assert_eq!(fig3(schema()).expect("fixture").max_parallelism(), Ok(1));
    }

    #[test]
    fn fig3_structure() {
        let flow = fig3(schema()).expect("fixture");
        assert_eq!(flow.len(), 6);
        flow.validate_for_execution().expect("complete");
        assert_eq!(flow.outputs().len(), 1);
    }

    #[test]
    fn fig4_variants_differ_in_construction_method() {
        let s = schema();
        let a = fig4_edited(s.clone()).expect("fixture");
        let b = fig4_extracted(s.clone()).expect("fixture");
        a.validate_for_execution().expect("complete");
        b.validate_for_execution().expect("complete");
        let names = |f: &TaskGraph| -> Vec<String> {
            f.nodes()
                .map(|(_, n)| s.entity(n.entity()).name().to_owned())
                .collect()
        };
        assert!(names(&a).contains(&"CircuitEditor".to_owned()));
        assert!(!names(&a).contains(&"Extractor".to_owned()));
        assert!(names(&b).contains(&"Extractor".to_owned()));
        assert!(!names(&b).contains(&"CircuitEditor".to_owned()));
    }

    #[test]
    fn fig5_has_reuse_and_multiple_outputs() {
        let s = schema();
        let flow = fig5(s.clone()).expect("fixture");
        flow.validate_for_execution().expect("complete");

        let outputs = flow.outputs();
        let names: Vec<&str> = outputs
            .iter()
            .map(|&o| s.entity(flow.node(o).expect("live").entity()).name())
            .collect();
        assert_eq!(outputs.len(), 3, "{names:?}");
        for n in ["PerformancePlot", "Verification", "ExtractionStatistics"] {
            assert!(names.contains(&n), "missing output {n}");
        }

        // Entity reuse: the netlist node feeds more than one consumer.
        let netlist = flow
            .nodes()
            .find(|(_, n)| s.entity(n.entity()).name() == "Netlist")
            .map(|(id, _)| id)
            .expect("netlist in flow");
        assert!(flow.consumers_of(netlist).count() >= 2);

        // Multiple outputs from one subtask: extractor feeds two targets.
        let extractor = flow
            .nodes()
            .find(|(_, n)| s.entity(n.entity()).name() == "Extractor")
            .map(|(id, _)| id)
            .expect("extractor in flow");
        assert_eq!(
            flow.consumers_of(extractor)
                .filter(|e| e.is_functional())
                .count(),
            2
        );
    }

    #[test]
    fn fig6_branches_are_disjoint() {
        let s = schema();
        let flow = fig6(s.clone()).expect("fixture");
        flow.validate_for_execution().expect("complete");
        // Remove the verification root conceptually: its two data inputs
        // must have disjoint ancestor sets.
        let verification = flow.outputs()[0];
        let inputs = flow.data_inputs_of(verification);
        assert_eq!(inputs.len(), 2);
        let a = flow.ancestors(inputs[0]);
        let b = flow.ancestors(inputs[1]);
        assert!(a.iter().all(|x| !b.contains(x)), "branches share nodes");
    }

    #[test]
    fn fig8_flows_share_view_entities() {
        let s = schema();
        let synth = fig8_synthesis(s.clone()).expect("fixture");
        let verif = fig8_verification(s.clone()).expect("fixture");
        synth.validate_for_execution().expect("complete");
        verif.validate_for_execution().expect("complete");
        // Synthesis consumes a netlist (transistor view) and produces a
        // layout (physical view); verification consumes both.
        let names = |f: &TaskGraph| -> Vec<String> {
            f.leaves()
                .into_iter()
                .map(|l| {
                    s.entity(f.node(l).expect("live").entity())
                        .name()
                        .to_owned()
                })
                .collect()
        };
        assert!(names(&synth).contains(&"Netlist".to_owned()));
        assert!(names(&verif).contains(&"Netlist".to_owned()));
        assert!(names(&verif).contains(&"Layout".to_owned()));
    }

    #[test]
    fn fixtures_work_on_the_odyssey_superset_schema() {
        let s = Arc::new(schemas::odyssey());
        fig3(s.clone()).expect("fig3");
        fig5(s.clone()).expect("fig5");
        fig6(s.clone()).expect("fig6");
        fig8_synthesis(s.clone()).expect("fig8a");
        fig8_verification(s).expect("fig8b");
    }
}
