//! The recovery protocol (§2.2) and the Figure-4 failure-case analysis
//! (§5.3).
//!
//! [`analyze_failure`] decides, for a concrete failed set and determinant
//! sharing depth, whether consistent **local** recovery is possible or the
//! job must fall back to a **global rollback** (the worst-case leaf of
//! Figure 4). The engine consults it before launching per-task recovery.
//!
//! The per-task recovery procedure itself has six steps (§2.2), executed by
//! the engine's job manager and the recovering task:
//! 1. activate the standby (or cold-start a replacement),
//! 2. reconfigure network connections,
//! 3. retrieve the determinant log from downstream survivors,
//! 4. request in-flight records from upstream,
//! 5. replay guided by determinants,
//! 6. deduplicate output at the sender using the flush determinants plus the
//!    downstream-reported received-buffer counts.

use crate::{ChannelId, TaskId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Static topology view used by the analysis: tasks and directed channels.
#[derive(Clone, Debug, Default)]
pub struct TopologyInfo {
    /// Edges as (upstream, downstream) pairs.
    edges: Vec<(TaskId, TaskId)>,
    tasks: BTreeSet<TaskId>,
    sources: BTreeSet<TaskId>,
}

impl TopologyInfo {
    pub fn new() -> TopologyInfo {
        TopologyInfo::default()
    }

    pub fn add_task(&mut self, t: TaskId) {
        self.tasks.insert(t);
    }

    pub fn add_edge(&mut self, up: TaskId, down: TaskId) {
        self.tasks.insert(up);
        self.tasks.insert(down);
        self.edges.push((up, down));
    }

    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.iter().copied()
    }

    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn recompute_sources(&mut self) {
        let has_input: BTreeSet<TaskId> = self.edges.iter().map(|&(_, d)| d).collect();
        self.sources = self.tasks.iter().copied().filter(|t| !has_input.contains(t)).collect();
    }

    pub fn downstream_of(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.edges.iter().filter(move |&&(u, _)| u == t).map(|&(_, d)| d)
    }

    pub fn upstream_of(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.edges.iter().filter(move |&&(_, d)| d == t).map(|&(u, _)| u)
    }

    /// All tasks reachable downstream from `t`, with their minimum hop count.
    pub fn downstream_cone(&self, t: TaskId) -> BTreeMap<TaskId, u32> {
        let mut dist: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut q: VecDeque<(TaskId, u32)> = self.downstream_of(t).map(|d| (d, 1)).collect();
        while let Some((n, h)) = q.pop_front() {
            match dist.get(&n) {
                Some(&existing) if existing <= h => continue,
                _ => {}
            }
            dist.insert(n, h);
            for d in self.downstream_of(n) {
                q.push_back((d, h + 1));
            }
        }
        dist
    }

    /// Graph depth: the longest source→sink path length (sources have depth
    /// zero, per §5.3).
    pub fn depth(&self) -> u32 {
        let mut topo = self.clone();
        topo.recompute_sources();
        // Longest-path DP over the DAG via repeated relaxation (graphs here
        // are small; simplicity over asymptotics).
        let mut depth: BTreeMap<TaskId, u32> = topo.sources.iter().map(|&s| (s, 0)).collect();
        let mut changed = true;
        let mut iterations = 0;
        while changed {
            changed = false;
            iterations += 1;
            // clonos-lint: allow(recovery-panic, reason = "guards against a cyclic job graph, a construction-time config error caught before any failure handling runs")
            assert!(
                iterations <= self.tasks.len() + 1,
                "cycle detected in dataflow graph"
            );
            for &(u, d) in &self.edges {
                let du = depth.get(&u).copied();
                if let Some(du) = du {
                    let nd = du + 1;
                    if depth.get(&d).map(|&x| x < nd).unwrap_or(true) {
                        depth.insert(d, nd);
                        changed = true;
                    }
                }
            }
        }
        depth.values().copied().max().unwrap_or(0)
    }
}

/// Outcome of the Figure-4 analysis for a concrete failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryDecision {
    /// Every failed task can be recovered locally: for each, either a
    /// surviving holder of its determinants exists, or no survivor depends
    /// on its unstable events (free execution path).
    Local {
        /// Tasks recoverable with determinants, mapped to the surviving
        /// holders that will serve the determinant-log requests.
        with_determinants: BTreeMap<TaskId, Vec<TaskId>>,
        /// Tasks recoverable without determinants (their whole downstream
        /// cone failed with them — nobody depends on their unlogged events).
        free: Vec<TaskId>,
    },
    /// An orphan exists: some survivor depends on events whose determinants
    /// died with the failed set (only possible when DSD < graph depth).
    /// Exactly-once then requires a global rollback (§5.3 Case 2).
    GlobalRollback { orphaned: Vec<TaskId> },
}

/// Figure-4 analysis. `dsd = 0` disables causal logging entirely, in which
/// case every failure is "recover without determinants" (at-least-once).
pub fn analyze_failure(
    topology: &TopologyInfo,
    failed: &BTreeSet<TaskId>,
    dsd: u32,
) -> RecoveryDecision {
    let mut with_determinants = BTreeMap::new();
    let mut free = Vec::new();
    let mut orphaned = Vec::new();

    for &f in failed {
        let cone = topology.downstream_cone(f);
        // Log(e) for f's unstable events: f itself plus downstream tasks
        // within `dsd` hops (they received piggybacked deltas).
        let holders: Vec<TaskId> = cone
            .iter()
            .filter(|&(_, &h)| h <= dsd)
            .map(|(&t, _)| t)
            .filter(|t| !failed.contains(t))
            .collect();
        // Depend(e): every downstream task that received data from f.
        let surviving_dependents: Vec<TaskId> =
            cone.keys().copied().filter(|t| !failed.contains(t)).collect();

        if !holders.is_empty() && dsd > 0 {
            // Log(e) ⊄ F: a surviving holder guides recovery.
            with_determinants.insert(f, holders);
        } else if surviving_dependents.is_empty() {
            // Depend(e) ⊆ F: nobody alive depends on f's unlogged events —
            // a different execution path is consistent.
            free.push(f);
        } else if dsd == 0 {
            // At-least-once mode: recover divergently, never roll back.
            free.push(f);
        } else {
            // Log(e) ⊆ F but Depend(e) ⊄ F: orphans.
            orphaned.push(f);
        }
    }

    if orphaned.is_empty() {
        RecoveryDecision::Local { with_determinants, free }
    } else {
        RecoveryDecision::GlobalRollback { orphaned }
    }
}

/// Report sent by a downstream survivor in response to a determinant-log
/// request (step 3): its replica of the failed task's logs plus how many
/// buffers it has received per channel since the last completed checkpoint —
/// the sender-side dedup counts of step 6.
#[derive(Clone, Debug, Default)]
pub struct LogRetrievalResponse {
    pub snapshot: crate::causal_log::TaskLogSnapshot,
    /// (channel of the failed task that feeds this survivor, buffers received
    /// in un-checkpointed epochs).
    pub received_buffers: Vec<(ChannelId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 1 → 2 → 3 → 4 (task 1 is the source).
    fn chain4() -> TopologyInfo {
        let mut t = TopologyInfo::new();
        t.add_edge(1, 2);
        t.add_edge(2, 3);
        t.add_edge(3, 4);
        t
    }

    fn failed(ts: &[TaskId]) -> BTreeSet<TaskId> {
        ts.iter().copied().collect()
    }

    #[test]
    fn depth_of_chain() {
        assert_eq!(chain4().depth(), 3);
    }

    #[test]
    fn depth_of_diamond() {
        let mut t = TopologyInfo::new();
        t.add_edge(1, 2);
        t.add_edge(1, 3);
        t.add_edge(2, 4);
        t.add_edge(3, 4);
        t.add_edge(4, 5);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn downstream_cone_hops() {
        let t = chain4();
        let cone = t.downstream_cone(1);
        assert_eq!(cone.get(&2), Some(&1));
        assert_eq!(cone.get(&3), Some(&2));
        assert_eq!(cone.get(&4), Some(&3));
        assert!(t.downstream_cone(4).is_empty());
    }

    #[test]
    fn single_failure_recovers_with_determinants() {
        let t = chain4();
        match analyze_failure(&t, &failed(&[2]), 1) {
            RecoveryDecision::Local { with_determinants, free } => {
                assert_eq!(with_determinants.get(&2), Some(&vec![3]));
                assert!(free.is_empty());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn full_dsd_never_rolls_back() {
        let t = chain4();
        let d = t.depth();
        // Any failure combination under DSD = D stays local (Case 1, §5.3).
        for combo in [vec![2], vec![2, 3], vec![1, 2, 3], vec![1, 2, 3, 4]] {
            let decision = analyze_failure(&t, &failed(&combo), d);
            assert!(
                matches!(decision, RecoveryDecision::Local { .. }),
                "combo {combo:?} rolled back under full DSD"
            );
        }
    }

    #[test]
    fn consecutive_failures_beyond_dsd_cause_rollback() {
        let t = chain4();
        // DSD=1: tasks 2 and 3 fail together. 2's only holder (3) failed,
        // and task 4 survives *and depends* on 2 → orphan → global rollback.
        match analyze_failure(&t, &failed(&[2, 3]), 1) {
            RecoveryDecision::GlobalRollback { orphaned } => assert_eq!(orphaned, vec![2]),
            other => panic!("unexpected: {other:?}"),
        }
        // DSD=2 tolerates exactly this pattern: 4 holds 2's log (2 hops).
        match analyze_failure(&t, &failed(&[2, 3]), 2) {
            RecoveryDecision::Local { with_determinants, .. } => {
                assert_eq!(with_determinants.get(&2), Some(&vec![4]));
                assert_eq!(with_determinants.get(&3), Some(&vec![4]));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn whole_downstream_cone_failing_is_free() {
        let t = chain4();
        // 3 and 4 both fail: 3's entire cone ({4}) failed with it, so 3
        // recovers freely; 4 has an empty cone and is always free.
        match analyze_failure(&t, &failed(&[3, 4]), 1) {
            RecoveryDecision::Local { with_determinants, free } => {
                assert!(with_determinants.is_empty());
                assert_eq!(free, vec![3, 4]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn all_tasks_failing_is_equivalent_to_global_restore_but_local() {
        let t = chain4();
        // F = N: no task depends on any other (§5.3 Case 1 extreme); recovery
        // is effectively restoring the checkpoint + source replay, but the
        // decision is still Local (no orphans).
        match analyze_failure(&t, &failed(&[1, 2, 3, 4]), 1) {
            RecoveryDecision::Local { with_determinants, free } => {
                assert!(with_determinants.is_empty());
                assert_eq!(free.len(), 4);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dsd_zero_is_always_divergent_local() {
        let t = chain4();
        match analyze_failure(&t, &failed(&[2, 3]), 0) {
            RecoveryDecision::Local { with_determinants, free } => {
                assert!(with_determinants.is_empty());
                assert_eq!(free, vec![2, 3]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn diamond_survivor_on_either_branch_holds_logs() {
        let mut t = TopologyInfo::new();
        t.add_edge(1, 2);
        t.add_edge(1, 3);
        t.add_edge(2, 4);
        t.add_edge(3, 4);
        // 1 and 2 fail, DSD=1: 3 survives and holds 1's determinants.
        match analyze_failure(&t, &failed(&[1, 2]), 1) {
            RecoveryDecision::Local { with_determinants, .. } => {
                assert_eq!(with_determinants.get(&1), Some(&vec![3]));
                // 2's holder is 4 (1 hop downstream of 2), which survives.
                assert_eq!(with_determinants.get(&2), Some(&vec![4]));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_graph_detected() {
        let mut t = TopologyInfo::new();
        t.add_edge(0, 1); // a source feeding the cycle
        t.add_edge(1, 2);
        t.add_edge(2, 1);
        let _ = t.depth();
    }
}
