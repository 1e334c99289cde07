//! Configuration: guarantee modes (§5.4) and in-flight-log spill policies
//! (§6.1).

/// Processing guarantee, per §5.4 "Trading Correctness for Performance".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuaranteeMode {
    /// Gap recovery: no in-flight logging, no causal logging. Failed tasks
    /// restart from their checkpoint and lose the epoch's records.
    AtMostOnce,
    /// In-flight logging only (DSD = 0): divergent rollback recovery; replay
    /// happens but without determinants, so nondeterministic operators may
    /// duplicate or reorder effects.
    AtLeastOnce,
    /// Full Clonos: in-flight logging + causal logging with the given
    /// determinant sharing depth. `ExactlyOnce(dsd)` with `dsd` smaller than
    /// the graph depth tolerates at most `dsd` concurrent *consecutive*
    /// failures before falling back to global rollback.
    ExactlyOnce,
}

/// Spill policy for the in-flight record log (§6.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpillPolicy {
    /// Keep all buffers in memory; block (backpressure) when the pool drains.
    InMemory,
    /// Spill each epoch as soon as the next one starts.
    SpillEpoch,
    /// Spill each buffer as it arrives (synchronous, unbatched I/O).
    SpillBuffer,
    /// Spill in batches whenever the pool's available-buffer ratio drops
    /// below the fraction (the paper's well-rounded default).
    SpillThreshold(f64),
}

impl SpillPolicy {
    /// The paper's recommended configuration.
    pub fn default_threshold() -> SpillPolicy {
        SpillPolicy::SpillThreshold(0.25)
    }
}

/// Determinant sharing depth: how many hops downstream a task's determinants
/// are replicated (§5.3). `Full` replicates to the entire downstream cone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingDepth {
    Depth(u32),
    Full,
}

impl SharingDepth {
    /// Resolve against a concrete graph depth.
    pub fn resolve(self, graph_depth: u32) -> u32 {
        match self {
            SharingDepth::Depth(d) => d,
            SharingDepth::Full => graph_depth,
        }
    }
}

/// Complete Clonos configuration.
#[derive(Clone, Debug)]
pub struct ClonosConfig {
    pub guarantee: GuaranteeMode,
    /// Determinant sharing depth; ignored unless `guarantee == ExactlyOnce`.
    pub dsd: SharingDepth,
    pub spill: SpillPolicy,
    /// Deploy passive standby tasks with preloaded state (§6.3); when false,
    /// recovery cold-starts a replacement and loads state from the store.
    pub standby_tasks: bool,
    /// In-flight log buffer pool capacity, in buffers, per task.
    pub inflight_pool_buffers: usize,
    /// On over-budget failures (more than DSD consecutive), favour
    /// availability (continue at-least-once) instead of consistency (global
    /// rollback) — §5.4 last paragraph.
    pub prefer_availability_on_orphans: bool,
}

impl Default for ClonosConfig {
    fn default() -> Self {
        ClonosConfig {
            guarantee: GuaranteeMode::ExactlyOnce,
            dsd: SharingDepth::Full,
            spill: SpillPolicy::default_threshold(),
            standby_tasks: true,
            inflight_pool_buffers: 2_560, // 80 MB of 32 KiB buffers, per §7.5
            prefer_availability_on_orphans: false,
        }
    }
}

impl ClonosConfig {
    pub fn exactly_once(dsd: SharingDepth) -> ClonosConfig {
        ClonosConfig { guarantee: GuaranteeMode::ExactlyOnce, dsd, ..Default::default() }
    }

    pub fn at_least_once() -> ClonosConfig {
        ClonosConfig {
            guarantee: GuaranteeMode::AtLeastOnce,
            dsd: SharingDepth::Depth(0),
            ..Default::default()
        }
    }

    pub fn at_most_once() -> ClonosConfig {
        ClonosConfig {
            guarantee: GuaranteeMode::AtMostOnce,
            dsd: SharingDepth::Depth(0),
            ..Default::default()
        }
    }

    /// Effective DSD given the guarantee mode.
    pub fn effective_dsd(&self, graph_depth: u32) -> u32 {
        match self.guarantee {
            GuaranteeMode::ExactlyOnce => self.dsd.resolve(graph_depth).max(1),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_depth_resolution() {
        assert_eq!(SharingDepth::Full.resolve(6), 6);
        assert_eq!(SharingDepth::Depth(2).resolve(6), 2);
        assert_eq!(SharingDepth::Depth(9).resolve(6), 9);
    }

    #[test]
    fn effective_dsd_by_mode() {
        assert_eq!(ClonosConfig::at_most_once().effective_dsd(5), 0);
        assert_eq!(ClonosConfig::at_least_once().effective_dsd(5), 0);
        assert_eq!(ClonosConfig::exactly_once(SharingDepth::Full).effective_dsd(5), 5);
        assert_eq!(ClonosConfig::exactly_once(SharingDepth::Depth(2)).effective_dsd(5), 2);
        // Exactly-once with DSD 0 would be incoherent; clamped to 1.
        assert_eq!(ClonosConfig::exactly_once(SharingDepth::Depth(0)).effective_dsd(5), 1);
    }

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = ClonosConfig::default();
        assert_eq!(c.guarantee, GuaranteeMode::ExactlyOnce);
        assert!(matches!(c.spill, SpillPolicy::SpillThreshold(_)));
        assert!(c.standby_tasks);
    }
}
