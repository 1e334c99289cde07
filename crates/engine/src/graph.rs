//! Logical job graphs and their expansion into execution graphs.
//!
//! A [`JobGraph`] is the user-facing builder: source / operator / sink
//! vertices with per-vertex parallelism, connected by edges carrying a
//! [`Partitioning`] strategy. [`ExecutionGraph::expand`] turns it into
//! parallel task instances wired by FIFO channels — the structure the
//! cluster deploys and the recovery analysis reasons over.

use crate::operator::OperatorFactory;
use clonos::recovery::TopologyInfo;
use clonos::TaskId;
use std::collections::BTreeMap;

/// How records are routed across a downstream vertex's parallel instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// One-to-one; requires equal parallelism (operator chaining's cousin).
    Forward,
    /// By record key (`key % parallelism`): keyed streams.
    Hash,
    /// Every record to every instance.
    Broadcast,
    /// Round-robin per upstream instance.
    Rebalance,
}

/// How a source assigns event time to generated records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimestampMode {
    /// Read event time from row field `i` (deterministic, supports
    /// out-of-order input).
    EventTimeField(usize),
    /// Stamp records with wall-clock ingestion time via the causal timestamp
    /// service (nondeterministic — §4.1).
    IngestionTime,
}

/// Configuration of a source vertex. Each parallel instance reads one
/// partition of the named durable-log topic.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    pub topic: String,
    /// Target ingest rate per instance, records/second.
    pub rate: u64,
    /// Records fetched per poll.
    pub batch: usize,
    pub timestamps: TimestampMode,
    /// Row field to hash into the record key; `None` keys by a round-robin
    /// counter.
    pub key_field: Option<usize>,
    /// Watermark emission period (micros of virtual time).
    pub watermark_interval_us: u64,
    /// Bounded out-of-orderness subtracted from the max seen event time.
    pub out_of_orderness_us: u64,
}

impl SourceSpec {
    pub fn new(topic: impl Into<String>) -> SourceSpec {
        SourceSpec {
            topic: topic.into(),
            rate: 10_000,
            batch: 50,
            timestamps: TimestampMode::EventTimeField(0),
            key_field: None,
            watermark_interval_us: 200_000,
            out_of_orderness_us: 100_000,
        }
    }

    pub fn rate(mut self, r: u64) -> SourceSpec {
        self.rate = r;
        self
    }

    pub fn key_field(mut self, f: usize) -> SourceSpec {
        self.key_field = Some(f);
        self
    }

    pub fn timestamps(mut self, m: TimestampMode) -> SourceSpec {
        self.timestamps = m;
        self
    }
}

/// Configuration of a sink vertex: writes rows to partition `subtask` of the
/// named output topic.
#[derive(Clone, Debug)]
pub struct SinkSpec {
    pub topic: String,
}

/// A vertex's role.
#[derive(Clone)]
pub enum VertexKind {
    Source(SourceSpec),
    Operator(OperatorFactory),
    Sink(SinkSpec),
}

impl std::fmt::Debug for VertexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VertexKind::Source(s) => write!(f, "Source({})", s.topic),
            VertexKind::Operator(_) => write!(f, "Operator"),
            VertexKind::Sink(s) => write!(f, "Sink({})", s.topic),
        }
    }
}

/// Index of a vertex within the job graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub usize);

#[derive(Clone, Debug)]
pub struct Vertex {
    pub name: String,
    pub parallelism: usize,
    pub kind: VertexKind,
}

#[derive(Clone, Debug)]
pub struct Edge {
    pub from: VertexId,
    pub to: VertexId,
    /// Logical input index at the destination operator (0/1 for joins).
    pub input: u8,
    pub partitioning: Partitioning,
}

/// The user-facing logical dataflow graph.
#[derive(Debug, Default)]
pub struct JobGraph {
    pub name: String,
    pub vertices: Vec<Vertex>,
    pub edges: Vec<Edge>,
}

impl JobGraph {
    pub fn new(name: impl Into<String>) -> JobGraph {
        JobGraph { name: name.into(), vertices: Vec::new(), edges: Vec::new() }
    }

    pub fn add_source(&mut self, name: &str, parallelism: usize, spec: SourceSpec) -> VertexId {
        self.add_vertex(name, parallelism, VertexKind::Source(spec))
    }

    pub fn add_operator(
        &mut self,
        name: &str,
        parallelism: usize,
        f: OperatorFactory,
    ) -> VertexId {
        self.add_vertex(name, parallelism, VertexKind::Operator(f))
    }

    pub fn add_sink(&mut self, name: &str, parallelism: usize, spec: SinkSpec) -> VertexId {
        self.add_vertex(name, parallelism, VertexKind::Sink(spec))
    }

    fn add_vertex(&mut self, name: &str, parallelism: usize, kind: VertexKind) -> VertexId {
        assert!(parallelism > 0, "vertex {name} needs parallelism >= 1");
        let id = VertexId(self.vertices.len());
        self.vertices.push(Vertex { name: name.to_string(), parallelism, kind });
        id
    }

    /// Connect `from` to input 0 of `to`.
    pub fn connect(&mut self, from: VertexId, to: VertexId, partitioning: Partitioning) {
        self.connect_input(from, to, 0, partitioning);
    }

    /// Connect `from` to a specific logical input of `to` (joins).
    pub fn connect_input(
        &mut self,
        from: VertexId,
        to: VertexId,
        input: u8,
        partitioning: Partitioning,
    ) {
        if partitioning == Partitioning::Forward {
            let pf = self.vertices[from.0].parallelism;
            let pt = self.vertices[to.0].parallelism;
            assert_eq!(pf, pt, "Forward edge requires equal parallelism ({pf} vs {pt})");
        }
        self.edges.push(Edge { from, to, input, partitioning });
    }
}

/// A concrete parallel task instance.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    pub id: TaskId,
    pub vertex: VertexId,
    pub subtask: usize,
    pub name: String,
    /// Input channels: `(channel index, upstream task, logical input)`.
    pub inputs: Vec<(u32, TaskId, u8)>,
    /// Output channels: `(channel index, downstream task, edge index,
    /// destination input-channel index)`.
    pub outputs: Vec<(u32, TaskId, usize, u32)>,
}

/// The expanded physical graph.
#[derive(Clone, Debug, Default)]
pub struct ExecutionGraph {
    pub job_name: String,
    pub tasks: Vec<TaskSpec>,
    /// Vertex of each task (indexable by position in `tasks`).
    pub by_vertex: BTreeMap<VertexId, Vec<TaskId>>,
    /// For each edge index, the per-upstream-task output channel group.
    pub edge_partitioning: Vec<Partitioning>,
}

impl ExecutionGraph {
    /// Expand a logical graph into tasks and channels. Task ids start at
    /// `first_task_id` (the job manager reserves actor id 0).
    pub fn expand(graph: &JobGraph, first_task_id: TaskId) -> ExecutionGraph {
        let mut eg = ExecutionGraph {
            job_name: graph.name.clone(),
            tasks: Vec::new(),
            by_vertex: BTreeMap::new(),
            edge_partitioning: graph.edges.iter().map(|e| e.partitioning).collect(),
        };
        let mut next = first_task_id;
        for (vi, v) in graph.vertices.iter().enumerate() {
            let ids: Vec<TaskId> = (0..v.parallelism)
                .map(|sub| {
                    let id = next;
                    next += 1;
                    eg.tasks.push(TaskSpec {
                        id,
                        vertex: VertexId(vi),
                        subtask: sub,
                        name: format!("{}[{}]", v.name, sub),
                        inputs: Vec::new(),
                        outputs: Vec::new(),
                    });
                    id
                })
                .collect();
            eg.by_vertex.insert(VertexId(vi), ids);
        }
        // Wire channels.
        for (ei, edge) in graph.edges.iter().enumerate() {
            let ups = eg.by_vertex[&edge.from].clone();
            let downs = eg.by_vertex[&edge.to].clone();
            match edge.partitioning {
                Partitioning::Forward => {
                    for (u, d) in ups.iter().zip(downs.iter()) {
                        Self::wire(&mut eg, *u, *d, edge.input, ei);
                    }
                }
                Partitioning::Hash | Partitioning::Broadcast | Partitioning::Rebalance => {
                    for &u in &ups {
                        for &d in &downs {
                            Self::wire(&mut eg, u, d, edge.input, ei);
                        }
                    }
                }
            }
        }
        eg
    }

    fn wire(eg: &mut ExecutionGraph, up: TaskId, down: TaskId, input: u8, edge: usize) {
        let dest_in = {
            let dt = eg.task_mut(down);
            let ch = dt.inputs.len() as u32;
            dt.inputs.push((ch, up, input));
            ch
        };
        let ut = eg.task_mut(up);
        let ch = ut.outputs.len() as u32;
        ut.outputs.push((ch, down, edge, dest_in));
    }

    pub fn task(&self, id: TaskId) -> &TaskSpec {
        self.tasks.iter().find(|t| t.id == id).expect("unknown task id")
    }

    fn task_mut(&mut self, id: TaskId) -> &mut TaskSpec {
        self.tasks.iter_mut().find(|t| t.id == id).expect("unknown task id")
    }

    /// Build the abstract topology used by the Figure-4 analysis.
    pub fn topology(&self) -> TopologyInfo {
        let mut t = TopologyInfo::new();
        for task in &self.tasks {
            t.add_task(task.id);
            for &(_, down, _, _) in &task.outputs {
                t.add_edge(task.id, down);
            }
        }
        t
    }

    /// Graph depth (sources at depth 0), used to resolve `SharingDepth::Full`.
    pub fn depth(&self) -> u32 {
        self.topology().depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{factory, OpCtx, Operator};
    use crate::record::Record;

    struct Noop;
    impl Operator for Noop {
        fn on_record(
            &mut self,
            _input: u8,
            _r: &Record,
            _ctx: &mut OpCtx<'_>,
        ) -> Result<(), crate::error::EngineError> {
            Ok(())
        }
    }

    fn simple_graph(p: usize) -> JobGraph {
        let mut g = JobGraph::new("t");
        let s = g.add_source("src", p, SourceSpec::new("in"));
        let m = g.add_operator("map", p, factory(|| Noop));
        let k = g.add_sink("sink", p, SinkSpec { topic: "out".into() });
        g.connect(s, m, Partitioning::Forward);
        g.connect(m, k, Partitioning::Hash);
        g
    }

    #[test]
    fn expansion_counts_tasks_and_channels() {
        let g = simple_graph(2);
        let eg = ExecutionGraph::expand(&g, 1);
        assert_eq!(eg.tasks.len(), 6);
        // Forward: each source has 1 output; Hash: each map has 2 outputs.
        let maps = &eg.by_vertex[&VertexId(1)];
        for &m in maps {
            let t = eg.task(m);
            assert_eq!(t.inputs.len(), 1);
            assert_eq!(t.outputs.len(), 2);
        }
        let sinks = &eg.by_vertex[&VertexId(2)];
        for &s in sinks {
            assert_eq!(eg.task(s).inputs.len(), 2);
            assert_eq!(eg.task(s).outputs.len(), 0);
        }
    }

    #[test]
    fn depth_matches_stage_count() {
        let eg = ExecutionGraph::expand(&simple_graph(3), 1);
        assert_eq!(eg.depth(), 2);
    }

    #[test]
    fn join_inputs_are_distinguished() {
        let mut g = JobGraph::new("join");
        let a = g.add_source("a", 1, SourceSpec::new("a"));
        let b = g.add_source("b", 1, SourceSpec::new("b"));
        let j = g.add_operator("join", 2, factory(|| Noop));
        g.connect_input(a, j, 0, Partitioning::Hash);
        g.connect_input(b, j, 1, Partitioning::Hash);
        let eg = ExecutionGraph::expand(&g, 1);
        let joins = &eg.by_vertex[&VertexId(2)];
        for &jt in joins {
            let t = eg.task(jt);
            let inputs: Vec<u8> = t.inputs.iter().map(|&(_, _, i)| i).collect();
            assert_eq!(inputs, vec![0, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "Forward edge requires equal parallelism")]
    fn forward_parallelism_mismatch_rejected() {
        let mut g = JobGraph::new("bad");
        let s = g.add_source("s", 2, SourceSpec::new("in"));
        let m = g.add_operator("m", 3, factory(|| Noop));
        g.connect(s, m, Partitioning::Forward);
    }

    #[test]
    fn topology_reflects_channels() {
        let eg = ExecutionGraph::expand(&simple_graph(1), 1);
        let topo = eg.topology();
        assert_eq!(topo.num_tasks(), 3);
        assert_eq!(topo.downstream_of(1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(topo.upstream_of(3).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn task_ids_start_at_first_id() {
        let eg = ExecutionGraph::expand(&simple_graph(1), 10);
        assert_eq!(eg.tasks[0].id, 10);
        assert_eq!(eg.tasks[2].id, 12);
    }
}
