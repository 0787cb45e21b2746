//! The validated workflow DAG container.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::WorkflowError;
use crate::task::{Task, TaskId};

/// Index of an edge within its [`Workflow`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A data dependency: `src` must finish before `dst` starts, and `bytes`
/// of data move from `src`'s device to `dst`'s device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataDep {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Payload size in bytes.
    pub bytes: f64,
}

/// A validated directed acyclic graph of tasks.
///
/// Construct with [`WorkflowBuilder`]; a built workflow is guaranteed
/// acyclic, self-loop-free and duplicate-edge-free.
///
/// # Examples
///
/// ```
/// use helios_platform::{ComputeCost, KernelClass};
/// use helios_workflow::{Task, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("diamond");
/// let cost = ComputeCost::new(1.0, 0.0, KernelClass::Reduction);
/// let a = b.add_task(Task::new("a", "s", cost));
/// let c = b.add_task(Task::new("c", "s", cost));
/// let d = b.add_task(Task::new("d", "s", cost));
/// b.add_dep(a, c, 1e6)?;
/// b.add_dep(a, d, 1e6)?;
/// let wf = b.build()?;
/// assert_eq!(wf.entry_tasks(), vec![a]);
/// # Ok::<(), helios_workflow::WorkflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<DataDep>,
    succs: Adjacency,
    preds: Adjacency,
    topo: Vec<TaskId>,
}

/// Every task's edges of one direction, in edge order, in one flat list:
/// task `t`'s are `edges[start[t]..start[t + 1]]`. Two allocations per
/// direction instead of one per task.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    start: Vec<usize>,
    edges: Vec<EdgeId>,
}

impl Adjacency {
    /// The ids of `edges` grouped by the task `end` picks from each, in
    /// edge order within a task: a counting sort over `n` tasks.
    fn new(n: usize, edges: &[DataDep], end: impl Fn(&DataDep) -> TaskId) -> Adjacency {
        // After the prefix sum, `start[t + 1]` is where task `t`'s edges
        // begin; filling advances it to where they end, which is task
        // `t + 1`'s beginning.
        let mut start = vec![0; n + 2];
        for e in edges {
            start[end(e).0 + 2] += 1;
        }
        for t in 2..start.len() {
            start[t] += start[t - 1];
        }
        let mut ids = vec![EdgeId(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let at = &mut start[end(e).0 + 1];
            ids[*at] = EdgeId(i);
            *at += 1;
        }
        start.pop();
        Adjacency { start, edges: ids }
    }

    /// Task `t`'s edges.
    fn of(&self, t: TaskId) -> &[EdgeId] {
        &self.edges[self.start[t.0]..self.start[t.0 + 1]]
    }
}

impl Workflow {
    /// The workflow's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tasks, in id order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// All edges, in id order.
    #[must_use]
    pub fn edges(&self) -> &[DataDep] {
        &self.edges
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a task by id.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::UnknownTask`] for an out-of-range id.
    pub fn task(&self, id: TaskId) -> Result<&Task, WorkflowError> {
        self.tasks.get(id.0).ok_or(WorkflowError::UnknownTask(id))
    }

    /// Outgoing edges of `id`.
    #[must_use]
    pub fn successors(&self, id: TaskId) -> &[EdgeId] {
        self.succs.of(id)
    }

    /// Incoming edges of `id`.
    #[must_use]
    pub fn predecessors(&self, id: TaskId) -> &[EdgeId] {
        self.preds.of(id)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (edge ids come from this workflow's
    /// own adjacency lists, so this indicates a logic error).
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &DataDep {
        &self.edges[id.0]
    }

    /// Successor task ids of `id`.
    pub fn successor_tasks(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succs.of(id).iter().map(move |&e| self.edges[e.0].dst)
    }

    /// Predecessor task ids of `id`.
    pub fn predecessor_tasks(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.preds.of(id).iter().map(move |&e| self.edges[e.0].src)
    }

    /// Tasks with no predecessors, in id order.
    #[must_use]
    pub fn entry_tasks(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&i| self.preds.of(TaskId(i)).is_empty())
            .map(TaskId)
            .collect()
    }

    /// Tasks with no successors, in id order.
    #[must_use]
    pub fn exit_tasks(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&i| self.succs.of(TaskId(i)).is_empty())
            .map(TaskId)
            .collect()
    }

    /// A topological order of all tasks (computed once at build time).
    #[must_use]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Every transitive predecessor of `id` (the task's data lineage),
    /// in ascending task-id order. `id` itself is excluded.
    ///
    /// Recovery machinery uses this to decide which destroyed data
    /// products must be re-materialized after a permanent device loss:
    /// only the ancestors of still-needed tasks, nothing else.
    #[must_use]
    pub fn ancestors(&self, id: TaskId) -> Vec<TaskId> {
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            for p in self.predecessor_tasks(t) {
                if !seen[p.0] {
                    seen[p.0] = true;
                    stack.push(p);
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Total compute work in GFLOP.
    #[must_use]
    pub fn total_gflop(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost().gflop()).sum()
    }

    /// Total data moved over edges, in bytes.
    #[must_use]
    pub fn total_edge_bytes(&self) -> f64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Re-checks all structural invariants. A successfully built workflow
    /// always passes; exposed for tests and for workflows deserialized
    /// from external files.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        if self.tasks.is_empty() {
            return Err(WorkflowError::Empty);
        }
        let mut seen = BTreeSet::new();
        for e in &self.edges {
            if e.src.0 >= self.tasks.len() {
                return Err(WorkflowError::UnknownTask(e.src));
            }
            if e.dst.0 >= self.tasks.len() {
                return Err(WorkflowError::UnknownTask(e.dst));
            }
            if e.src == e.dst {
                return Err(WorkflowError::SelfLoop(e.src));
            }
            if !seen.insert((e.src, e.dst)) {
                return Err(WorkflowError::DuplicateEdge(e.src, e.dst));
            }
        }
        let (succs, preds) = adjacency(self.tasks.len(), &self.edges);
        topo_sort(&self.edges, &succs, &preds).map(|_| ())
    }

    /// Sets each edge's payload to `bytes(edge)`, in edge order, keeping
    /// the graph as it is.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::InvalidParameter`] for the first
    /// negative or non-finite size, as [`WorkflowBuilder::add_dep`]
    /// does; the edges before it are already rewritten.
    pub(crate) fn set_edge_bytes(
        &mut self,
        mut bytes: impl FnMut(&DataDep) -> f64,
    ) -> Result<(), WorkflowError> {
        for e in &mut self.edges {
            e.bytes = edge_bytes(bytes(e))?;
        }
        Ok(())
    }

    /// Returns a copy with each task's cost transformed by `f` (used to
    /// inject runtime variability in online-scheduling experiments).
    #[must_use]
    pub fn map_costs(&self, mut f: impl FnMut(TaskId, &Task) -> Task) -> Workflow {
        let tasks = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| f(TaskId(i), t))
            .collect();
        Workflow {
            name: self.name.clone(),
            tasks,
            edges: self.edges.clone(),
            succs: self.succs.clone(),
            preds: self.preds.clone(),
            topo: self.topo.clone(),
        }
    }
}

impl fmt::Display for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} tasks, {} edges, {:.1} Gflop)",
            self.name,
            self.tasks.len(),
            self.edges.len(),
            self.total_gflop()
        )
    }
}

/// `bytes` as an edge payload: refused unless non-negative and finite.
fn edge_bytes(bytes: f64) -> Result<f64, WorkflowError> {
    if bytes.is_finite() && bytes >= 0.0 {
        Ok(bytes)
    } else {
        Err(WorkflowError::InvalidParameter(format!(
            "edge bytes must be non-negative and finite, got {bytes}"
        )))
    }
}

/// Each of `n` tasks' outgoing and incoming edges, in edge order.
fn adjacency(n: usize, edges: &[DataDep]) -> (Adjacency, Adjacency) {
    (
        Adjacency::new(n, edges, |e| e.src),
        Adjacency::new(n, edges, |e| e.dst),
    )
}

/// Kahn topological sort over [`adjacency`]'s lists; returns the order
/// or the id of a task on a cycle.
fn topo_sort(
    edges: &[DataDep],
    succs: &Adjacency,
    preds: &Adjacency,
) -> Result<Vec<TaskId>, WorkflowError> {
    let n = preds.start.len() - 1;
    let mut indegree: Vec<usize> = (0..n).map(|t| preds.of(TaskId(t)).len()).collect();
    // A queue ordered by task id keeps the produced order deterministic.
    let mut ready: std::collections::VecDeque<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = ready.pop_front() {
        order.push(TaskId(u));
        for &e in succs.of(TaskId(u)) {
            let v = edges[e.0].dst.0;
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push_back(v);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let on_cycle = indegree
            .iter()
            .position(|&d| d > 0)
            .map(TaskId)
            .unwrap_or(TaskId(0));
        Err(WorkflowError::Cycle(on_cycle))
    }
}

/// Incremental builder for [`Workflow`].
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<DataDep>,
    edge_set: BTreeSet<(TaskId, TaskId)>,
}

impl WorkflowBuilder {
    /// Starts building a workflow named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            edge_set: BTreeSet::new(),
        }
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(task);
        id
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Adds a data dependency carrying `bytes` from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::UnknownTask`] if either endpoint has not
    /// been added, [`WorkflowError::SelfLoop`] if `src == dst`,
    /// [`WorkflowError::DuplicateEdge`] on a repeated pair, or
    /// [`WorkflowError::InvalidParameter`] for a negative/non-finite size.
    /// Cycles are detected at [`WorkflowBuilder::build`].
    pub fn add_dep(
        &mut self,
        src: TaskId,
        dst: TaskId,
        bytes: f64,
    ) -> Result<EdgeId, WorkflowError> {
        if src.0 >= self.tasks.len() {
            return Err(WorkflowError::UnknownTask(src));
        }
        if dst.0 >= self.tasks.len() {
            return Err(WorkflowError::UnknownTask(dst));
        }
        if src == dst {
            return Err(WorkflowError::SelfLoop(src));
        }
        let bytes = edge_bytes(bytes)?;
        if !self.edge_set.insert((src, dst)) {
            return Err(WorkflowError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(DataDep { src, dst, bytes });
        Ok(id)
    }

    /// Finalizes the workflow, verifying acyclicity and cost sanity.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Empty`] for a task-less workflow,
    /// [`WorkflowError::Cycle`] if the dependencies are cyclic, or
    /// [`WorkflowError::InvalidCost`] if any task's compute cost is NaN,
    /// infinite or negative (possible only for costs that bypassed
    /// [`ComputeCost::new`](helios_platform::ComputeCost::new), e.g.
    /// deserialized ones). Rejecting them here keeps ranking math
    /// downstream (`analysis::bottom_levels`, HEFT's `rank_order`)
    /// NaN-free, where a single NaN would silently corrupt the
    /// `total_cmp` priority order.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        if self.tasks.is_empty() {
            return Err(WorkflowError::Empty);
        }
        for (i, task) in self.tasks.iter().enumerate() {
            let cost = task.cost();
            let valid = |x: f64| x.is_finite() && x >= 0.0;
            if !valid(cost.gflop()) || !valid(cost.bytes_touched()) {
                return Err(WorkflowError::InvalidCost(TaskId(i)));
            }
        }
        let (succs, preds) = adjacency(self.tasks.len(), &self.edges);
        let topo = topo_sort(&self.edges, &succs, &preds)?;
        Ok(Workflow {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
            succs,
            preds,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::{ComputeCost, KernelClass};

    fn cost() -> ComputeCost {
        ComputeCost::new(1.0, 0.0, KernelClass::Reduction)
    }

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.add_task(Task::new("a", "s", cost()));
        let c = b.add_task(Task::new("b", "s", cost()));
        let d = b.add_task(Task::new("c", "s", cost()));
        let e = b.add_task(Task::new("d", "s", cost()));
        b.add_dep(a, c, 10.0).unwrap();
        b.add_dep(a, d, 10.0).unwrap();
        b.add_dep(c, e, 10.0).unwrap();
        b.add_dep(d, e, 10.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let wf = diamond();
        assert_eq!(wf.num_tasks(), 4);
        assert_eq!(wf.num_edges(), 4);
        assert_eq!(wf.entry_tasks(), vec![TaskId(0)]);
        assert_eq!(wf.exit_tasks(), vec![TaskId(3)]);
        assert_eq!(wf.successors(TaskId(0)).len(), 2);
        assert_eq!(wf.predecessors(TaskId(3)).len(), 2);
        let succ: Vec<_> = wf.successor_tasks(TaskId(0)).collect();
        assert_eq!(succ, vec![TaskId(1), TaskId(2)]);
        let pred: Vec<_> = wf.predecessor_tasks(TaskId(3)).collect();
        assert_eq!(pred, vec![TaskId(1), TaskId(2)]);
        assert!(wf.validate().is_ok());
        assert_eq!(wf.total_gflop(), 4.0);
        assert_eq!(wf.total_edge_bytes(), 40.0);
    }

    #[test]
    fn topo_order_respects_edges() {
        let wf = diamond();
        let topo = wf.topo_order();
        assert_eq!(topo.len(), 4);
        let pos: Vec<usize> = (0..4)
            .map(|i| topo.iter().position(|&t| t == TaskId(i)).unwrap())
            .collect();
        for e in wf.edges() {
            assert!(pos[e.src.0] < pos[e.dst.0]);
        }
    }

    #[test]
    fn ancestors_follow_lineage_only() {
        let wf = diamond();
        assert_eq!(wf.ancestors(TaskId(0)), Vec::<TaskId>::new());
        assert_eq!(wf.ancestors(TaskId(1)), vec![TaskId(0)]);
        assert_eq!(
            wf.ancestors(TaskId(3)),
            vec![TaskId(0), TaskId(1), TaskId(2)]
        );
        // A disconnected sibling never shows up in a lineage.
        let mut b = WorkflowBuilder::new("two-chains");
        let a = b.add_task(Task::new("a", "s", cost()));
        let c = b.add_task(Task::new("b", "s", cost()));
        let x = b.add_task(Task::new("x", "s", cost()));
        let y = b.add_task(Task::new("y", "s", cost()));
        b.add_dep(a, c, 1.0).unwrap();
        b.add_dep(x, y, 1.0).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.ancestors(y), vec![x]);
        assert_eq!(wf.ancestors(c), vec![a]);
    }

    #[test]
    fn cycle_detected_at_build() {
        let mut b = WorkflowBuilder::new("cyc");
        let a = b.add_task(Task::new("a", "s", cost()));
        let c = b.add_task(Task::new("b", "s", cost()));
        b.add_dep(a, c, 0.0).unwrap();
        b.add_dep(c, a, 0.0).unwrap();
        assert!(matches!(b.build(), Err(WorkflowError::Cycle(_))));
    }

    #[test]
    fn builder_edge_validation() {
        let mut b = WorkflowBuilder::new("v");
        let a = b.add_task(Task::new("a", "s", cost()));
        let c = b.add_task(Task::new("b", "s", cost()));
        assert!(matches!(
            b.add_dep(a, TaskId(9), 0.0),
            Err(WorkflowError::UnknownTask(TaskId(9)))
        ));
        assert!(matches!(
            b.add_dep(a, a, 0.0),
            Err(WorkflowError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_dep(a, c, -1.0),
            Err(WorkflowError::InvalidParameter(_))
        ));
        b.add_dep(a, c, 1.0).unwrap();
        assert!(matches!(
            b.add_dep(a, c, 2.0),
            Err(WorkflowError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn empty_workflow_rejected() {
        assert!(matches!(
            WorkflowBuilder::new("e").build(),
            Err(WorkflowError::Empty)
        ));
    }

    #[test]
    fn lookup_out_of_range() {
        assert!(diamond().task(TaskId(99)).is_err());
    }

    #[test]
    fn map_costs_transforms() {
        let wf = diamond();
        let doubled = wf.map_costs(|_, t| t.with_cost(t.cost().scaled(2.0)));
        assert_eq!(doubled.total_gflop(), 8.0);
        assert_eq!(doubled.num_edges(), wf.num_edges());
        assert_eq!(wf.total_gflop(), 4.0, "original untouched");
    }

    #[test]
    fn display_summarizes() {
        let s = diamond().to_string();
        assert!(s.contains("4 tasks") && s.contains("4 edges"), "{s}");
    }

    #[test]
    fn isolated_tasks_are_entries_and_exits() {
        let mut b = WorkflowBuilder::new("iso");
        let a = b.add_task(Task::new("a", "s", cost()));
        let wf = b.build().unwrap();
        assert_eq!(wf.entry_tasks(), vec![a]);
        assert_eq!(wf.exit_tasks(), vec![a]);
    }
}
