//! The parallel-hazard detector (`HL03xx`).
//!
//! §3.3 claims disjoint sub-flows "could be executed in parallel"; the
//! execution engine (`crates/exec/src/engine/`) and the cluster
//! scheduler (`cluster.rs`) do exactly that — any two subtasks with no
//! dependency path between them may run concurrently. This pass takes
//! the engine's own subtask grouping ([`TaskGraph::subtasks`]: interior
//! nodes sharing one tool node and one data-input set form a single
//! multi-output subtask, and each composition stands alone), derives
//! the may-run-concurrently relation from graph reachability, and flags
//! the conflicts the parallel-execution claim otherwise takes on faith:
//!
//! * **write/write** (`HL0301`) — two concurrent subtasks both record
//!   instances of the same entity type; which becomes the "latest"
//!   version in the design history depends on scheduling.
//! * **read/write** (`HL0302`) — one subtask reads a *bound* instance
//!   (a leaf) of an entity type a concurrent subtask is producing a new
//!   instance of; the read result is stale the moment it is used.
//! * **family overlap** (`HL0303`, advisory) — concurrent subtasks
//!   touch distinct entity types of one subtype family, so version
//!   queries over the family (`browse`, `bind-latest`) become
//!   schedule-sensitive.

use std::collections::{BTreeSet, HashMap, HashSet};

use hercules_flow::{NodeId, Subtask, TaskGraph};
use hercules_schema::EntityTypeId;

use crate::diag::{Diagnostic, Diagnostics, Severity, Span};

/// The shared precomputation behind the pairwise hazard passes: the
/// engine's subtask grouping plus the may-run-concurrently relation.
/// `None` on cyclic graphs (the gate reports those; reachability is
/// undefined) or when fewer than two subtasks exist.
struct HazardCtx<'a> {
    flow: &'a TaskGraph,
    subtasks: Vec<Subtask>,
    desc: HashMap<NodeId, HashSet<NodeId>>,
}

impl<'a> HazardCtx<'a> {
    fn new(flow: &'a TaskGraph) -> Option<HazardCtx<'a>> {
        let order = flow.topo_order().ok()?;
        let mut subtasks = flow.subtasks().ok()?;
        // Findings name subtasks in a fixed order that does not depend
        // on the topological walk: by tool node, inputs, then outputs,
        // each subtask's outputs by id.
        for s in &mut subtasks {
            s.outputs.sort_unstable();
        }
        subtasks
            .sort_by(|a, b| (a.tool, &a.inputs, &a.outputs).cmp(&(b.tool, &b.inputs, &b.outputs)));
        if subtasks.len() < 2 {
            return None;
        }
        // Descendant sets per node, accumulated in reverse topological
        // order: desc[n] = {n} ∪ desc[every consumer of n].
        let mut desc: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
        for &n in order.iter().rev() {
            let mut set: HashSet<NodeId> = HashSet::new();
            set.insert(n);
            for e in flow.consumers_of(n) {
                if let Some(d) = desc.get(&e.target()) {
                    set.extend(d.iter().copied());
                }
            }
            desc.insert(n, set);
        }
        Some(HazardCtx {
            flow,
            subtasks,
            desc,
        })
    }

    fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.desc.get(&a).is_some_and(|d| d.contains(&b))
    }

    /// Subtask A precedes B when any output of A reaches any output of B.
    fn precedes(&self, a: &Subtask, b: &Subtask) -> bool {
        a.outputs
            .iter()
            .any(|&x| b.outputs.iter().any(|&y| self.reaches(x, y)))
    }

    /// Unordered concurrently-schedulable subtask pairs, by index.
    fn concurrent_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..self.subtasks.len() {
            for j in (i + 1)..self.subtasks.len() {
                let (a, b) = (&self.subtasks[i], &self.subtasks[j]);
                if !self.precedes(a, b) && !self.precedes(b, a) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    fn span(&self, a: &Subtask, b: &Subtask) -> Span {
        Span::subflow(
            a.outputs
                .iter()
                .chain(b.outputs.iter())
                .map(|n| n.to_string()),
        )
    }

    fn produced(&self, s: &Subtask) -> BTreeSet<EntityTypeId> {
        s.outputs
            .iter()
            .filter_map(|&n| self.flow.entity_of(n).ok())
            .collect()
    }

    /// Leaf reads: bound instances (data inputs or the tool) consumed
    /// straight from the history.
    fn leaf_reads(&self, s: &Subtask) -> BTreeSet<EntityTypeId> {
        s.dependencies()
            .filter(|&n| !self.flow.is_expanded(n))
            .filter_map(|n| self.flow.entity_of(n).ok())
            .collect()
    }
}

/// Runs the pairwise hazard passes (`HL0301`–`HL0303`).
pub fn lint_hazards(flow: &TaskGraph, out: &mut Diagnostics) {
    lint_write_write(flow, out);
    lint_read_write(flow, out);
    lint_family_overlap(flow, out);
}

/// HL0301: two concurrently schedulable subtasks both produce the same
/// entity type; which instance becomes the latest version is
/// schedule-dependent.
pub(crate) fn lint_write_write(flow: &TaskGraph, out: &mut Diagnostics) {
    let Some(ctx) = HazardCtx::new(flow) else {
        return;
    };
    let schema = flow.schema();
    for (i, j) in ctx.concurrent_pairs() {
        let (a, b) = (&ctx.subtasks[i], &ctx.subtasks[j]);
        let (pa, pb) = (ctx.produced(a), ctx.produced(b));
        for &t in pa.intersection(&pb) {
            out.push(Diagnostic::new(
                "HL0301",
                Severity::Warn,
                ctx.span(a, b),
                format!(
                    "subtasks [{}] and [{}] can run in parallel and both produce `{}`; \
                     which instance becomes the latest version is schedule-dependent",
                    names(a),
                    names(b),
                    schema.entity(t).name()
                ),
            ));
        }
    }
}

/// HL0302: one subtask reads a *bound* instance (a leaf) of an entity
/// type a concurrent subtask is producing a new instance of; the read
/// result is stale the moment it is used.
pub(crate) fn lint_read_write(flow: &TaskGraph, out: &mut Diagnostics) {
    let Some(ctx) = HazardCtx::new(flow) else {
        return;
    };
    let schema = flow.schema();
    for (i, j) in ctx.concurrent_pairs() {
        let (a, b) = (&ctx.subtasks[i], &ctx.subtasks[j]);
        let (pa, pb) = (ctx.produced(a), ctx.produced(b));
        for (reader, writer, pw) in [(a, b, &pb), (b, a, &pa)] {
            for &t in ctx.leaf_reads(reader).intersection(pw) {
                out.push(Diagnostic::new(
                    "HL0302",
                    Severity::Warn,
                    ctx.span(a, b),
                    format!(
                        "subtask [{}] reads a bound `{}` instance while concurrent \
                         subtask [{}] produces a new one; the read is stale the \
                         moment it is used",
                        names(reader),
                        schema.entity(t).name(),
                        names(writer)
                    ),
                ));
            }
        }
    }
}

/// HL0303 (advisory): concurrent subtasks touch *distinct* entity types
/// of one subtype family, so family-wide version queries (`browse`,
/// `bind-latest`) become schedule-sensitive. Types already flagged by
/// HL0301/HL0302 for the pair are skipped — those findings subsume this
/// one.
pub(crate) fn lint_family_overlap(flow: &TaskGraph, out: &mut Diagnostics) {
    let Some(ctx) = HazardCtx::new(flow) else {
        return;
    };
    let schema = flow.schema();
    let family = |t: EntityTypeId| {
        let mut f: BTreeSet<EntityTypeId> = BTreeSet::new();
        f.insert(t);
        f.extend(schema.supertype_chain(t));
        f
    };
    for (i, j) in ctx.concurrent_pairs() {
        let (a, b) = (&ctx.subtasks[i], &ctx.subtasks[j]);
        let (pa, pb) = (ctx.produced(a), ctx.produced(b));
        let (ra, rb) = (ctx.leaf_reads(a), ctx.leaf_reads(b));
        // Types HL0301/HL0302 already flag for this pair.
        let mut family_hits: BTreeSet<EntityTypeId> = pa.intersection(&pb).copied().collect();
        family_hits.extend(ra.intersection(&pb).copied());
        family_hits.extend(rb.intersection(&pa).copied());

        let mut reported: BTreeSet<(EntityTypeId, EntityTypeId)> = BTreeSet::new();
        let touched_b: BTreeSet<EntityTypeId> = pb.union(&rb).copied().collect();
        for &ta in pa.union(&ra) {
            for &tb in &touched_b {
                if ta == tb || family_hits.contains(&ta) || family_hits.contains(&tb) {
                    continue;
                }
                let shared: Vec<EntityTypeId> =
                    family(ta).intersection(&family(tb)).copied().collect();
                let Some(&root) = shared.first() else {
                    continue;
                };
                let key = if ta < tb { (ta, tb) } else { (tb, ta) };
                if !reported.insert(key) {
                    continue;
                }
                // Only producer-involved overlaps matter; two reads
                // of one family are harmless.
                if !pa.contains(&ta) && !pb.contains(&tb) {
                    continue;
                }
                out.push(Diagnostic::new(
                    "HL0303",
                    Severity::Info,
                    ctx.span(a, b),
                    format!(
                        "concurrent subtasks touch `{}` and `{}` of the same subtype \
                         family (`{}`); family-wide version queries are \
                         schedule-sensitive",
                        schema.entity(ta).name(),
                        schema.entity(tb).name(),
                        schema.entity(root).name()
                    ),
                ));
            }
        }
    }
}

fn names(s: &Subtask) -> String {
    s.outputs
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join("+")
}
