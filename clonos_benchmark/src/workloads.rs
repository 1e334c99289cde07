//! The four workloads: job graphs, seeded inputs, engine configuration and
//! fault plans. Everything a rep needs is made here from `--seed`; the
//! engine only ever sees the generated rows.
//!
//! All workloads are closed and run to completion: sources emit at a fixed
//! virtual rate below the modelled capacity (100 k records/s per task at the
//! default 10 µs record cost), and a rep ends at a virtual horizon by which
//! every generated record has reached a sink. Parallelism is 4, checkpoints
//! are aligned and incremental.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos::TaskId;
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::{ProcessOp, ReduceOp};
use clonos_engine::{
    factory, Datum, EngineConfig, FtMode, JobGraph, Partitioning, Record, Row, SinkSpec, SourceSpec,
};
use clonos_nexmark::{build_query, GeneratorConfig, NexmarkGenerator, QueryId};
use clonos_sim::{SimRng, VirtualDuration};
use std::collections::BTreeMap;

pub const PARALLELISM: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Chain,
    KeyedState,
    Nexmark,
    Recovery,
}

/// Variant A is always Clonos on the untiered state store; what B is
/// depends on the workload (see [`Workload::config`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    A,
    B,
}

/// One engine job of a rep with its generated input.
pub struct Job {
    pub name: &'static str,
    pub graph: JobGraph,
    /// Rows per input topic, dealt round-robin over the topic's partitions.
    pub inputs: Vec<(&'static str, Vec<Row>)>,
    /// Task kills `(virtual µs, task)` of the workload's fault plan.
    pub kills: Vec<(u64, TaskId)>,
    pub check: OutputCheck,
    /// Virtual seconds the sources need to emit every row.
    pub flow_s: u64,
    /// Keyed-state read-then-write pairs per input row, by construction of
    /// the job; the layer profile prices them, the engine does not count them.
    pub state_ops: u64,
}

const CHAIN_ROWS: u64 = 300_000;
const CHAIN_RATE: u64 = 30_000;
const KEYED_ROWS: u64 = 250_000;
const KEYED_RATE: u64 = 25_000;
const KEYED_KEYS: u64 = 1_000_000;
/// Resident-cache budget per task of the tiered variant: about a tenth of
/// the ~1.2 MB of keyed state a task ends the rep with, and a quarter of its
/// hot set, so hot rows are evicted and faulted back throughout the run.
const KEYED_TIER_BUDGET: u64 = 128 * 1024;
const NEXMARK_EVENTS: usize = 700_000;
const RECOVERY_ROWS: u64 = 140_000;
const RECOVERY_RATE: u64 = 7_000;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Chain,
        Workload::KeyedState,
        Workload::Nexmark,
        Workload::Recovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::KeyedState => "keyed_state",
            Workload::Nexmark => "nexmark",
            Workload::Recovery => "recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed reps run under the fault plan. Only `recovery`
    /// does; on the others the discarded warm-up rep of variant A carries
    /// the kills, which gives every workload its recovery time and an
    /// exactly-once check under failure at no cost in timed work.
    pub fn timed_reps_faulty(self) -> bool {
        self == Workload::Recovery
    }

    /// The variant `rel_throughput` divides by: the baseline the other
    /// variant's feature is priced against. Global rollback is the reference
    /// for Clonos; the untiered store is the reference for the tiered one.
    pub fn reference(self) -> Variant {
        match self {
            Workload::KeyedState => Variant::A,
            _ => Variant::B,
        }
    }

    pub fn config(self, variant: Variant, seed: u64) -> EngineConfig {
        let clonos = |depth| FtMode::Clonos(ClonosConfig::exactly_once(depth));
        let (ft, checkpoint_s, budget) = match (self, variant) {
            // Fig. 5: full determinant sharing against the Flink baseline.
            (Workload::Chain, Variant::A) => (clonos(SharingDepth::Full), 1, 0),
            (Workload::Chain, Variant::B) => (FtMode::GlobalRollback, 1, 0),
            // Same FT mode on both sides; B moves keyed state to the tier.
            (Workload::KeyedState, Variant::A) => (clonos(SharingDepth::Depth(1)), 1, 0),
            (Workload::KeyedState, Variant::B) => {
                (clonos(SharingDepth::Depth(1)), 1, KEYED_TIER_BUDGET)
            }
            (Workload::Nexmark, Variant::A) => (clonos(SharingDepth::Depth(1)), 1, 0),
            (Workload::Nexmark, Variant::B) => (FtMode::GlobalRollback, 1, 0),
            // Fig. 6: local causal recovery against global rollback.
            (Workload::Recovery, Variant::A) => (clonos(SharingDepth::Full), 2, 0),
            (Workload::Recovery, Variant::B) => (FtMode::GlobalRollback, 2, 0),
        };
        let mut cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
        cfg.checkpoint_interval = VirtualDuration::from_secs(checkpoint_s);
        cfg.state_memory_budget = budget;
        cfg
    }

    /// Generate the rep's jobs and inputs from the seed.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mut rng = SimRng::new(seed).fork(0xBE7C);
        match self {
            Workload::Chain => {
                let rows = (0..CHAIN_ROWS)
                    .map(|i| int_row(rng.gen_range(4096), i))
                    .collect();
                vec![Job {
                    name: "chain",
                    graph: chain_graph(CHAIN_RATE),
                    inputs: vec![("in", rows)],
                    // stage1[0], mid-flow and after the first checkpoint.
                    kills: vec![(1_600_000, 9)],
                    check: OutputCheck::ChainCounts,
                    flow_s: CHAIN_ROWS.div_ceil(CHAIN_RATE * PARALLELISM as u64),
                    state_ops: 3,
                }]
            }
            Workload::KeyedState => {
                let hot = KEYED_KEYS / 20;
                let rows = (0..KEYED_ROWS)
                    .map(|_| {
                        let key = if rng.gen_range(100) < 80 {
                            rng.gen_range(hot)
                        } else {
                            hot + rng.gen_range(KEYED_KEYS - hot)
                        };
                        int_row(key, rng.gen_range(1000))
                    })
                    .collect();
                vec![Job {
                    name: "keyed_state",
                    graph: keyed_sum_graph(KEYED_RATE),
                    inputs: vec![("in", rows)],
                    kills: vec![(1_600_000, 5)], // sum[0]
                    check: OutputCheck::KeyedTotals,
                    flow_s: KEYED_ROWS.div_ceil(KEYED_RATE * PARALLELISM as u64),
                    state_ops: 1,
                }]
            }
            Workload::Nexmark => {
                let mut gen = NexmarkGenerator::new(GeneratorConfig {
                    seed,
                    ..Default::default()
                });
                let (persons, auctions, mut bids) = gen.generate(NEXMARK_EVENTS);
                bids.truncate(140_000);
                let q5_bids = bids[..70_000].to_vec();
                vec![
                    Job {
                        name: "q3",
                        graph: build_query(QueryId::Q3, PARALLELISM, 25_000),
                        inputs: vec![("persons", persons), ("auctions", auctions)],
                        kills: vec![(1_400_000, 9)], // join[0]
                        check: OutputCheck::AllFields,
                        flow_s: 3,
                        state_ops: 1,
                    },
                    Job {
                        name: "q5",
                        graph: build_query(QueryId::Q5, PARALLELISM, 8_000),
                        inputs: vec![("bids", q5_bids)],
                        kills: vec![(1_400_000, 5)], // count[0]
                        check: OutputCheck::AllFields,
                        flow_s: 3,
                        state_ops: 2,
                    },
                    Job {
                        name: "q13",
                        graph: build_query(QueryId::Q13, PARALLELISM, 15_000),
                        inputs: vec![("bids", bids)],
                        kills: vec![(1_400_000, 5)], // enrich[0]
                        check: OutputCheck::AllButLastField,
                        flow_s: 3,
                        state_ops: 0,
                    },
                ]
            }
            Workload::Recovery => {
                let rows = (0..RECOVERY_ROWS)
                    .map(|i| int_row(rng.gen_range(100_000), i))
                    .collect();
                vec![Job {
                    name: "recovery",
                    graph: chain_graph(RECOVERY_RATE),
                    inputs: vec![("in", rows)],
                    // stage0[0] and stage2[0], 1.5 s and 0.9 s into an epoch.
                    kills: vec![(3_500_000, 5), (4_900_000, 13)],
                    check: OutputCheck::ChainCounts,
                    flow_s: RECOVERY_ROWS.div_ceil(RECOVERY_RATE * PARALLELISM as u64),
                    state_ops: 3,
                }]
            }
        }
    }
}

/// How a job's sink rows are summarised for comparison. Records of one key
/// from different source partitions reach an operator in an order that
/// depends on link jitter and on recovery, so a summary may only use what
/// every legal order produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputCheck {
    /// Chain rows `[key, value, c1, c2, c3]`: the `(key, value)` multiset,
    /// and per stage the sum of the per-key counters (each key's counters
    /// are 1..=n in some order).
    ChainCounts,
    /// Running-sum rows `[key, sum]`: rows per key and each key's final sum.
    KeyedTotals,
    /// The multiset of whole rows (order-insensitive operators).
    AllFields,
    /// As `AllFields` without the last field, which holds the answer of the
    /// external service and changes with the virtual instant of the call.
    AllButLastField,
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn hash_ints(a: i64, b: i64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&a.to_le_bytes());
    bytes[8..].copy_from_slice(&b.to_le_bytes());
    fnv1a(FNV_OFFSET, &bytes)
}

/// `[rows, Σ hash(key, 0), Σ over keys hash(key, total)]`.
fn keyed_summary(rows: u64, totals: &BTreeMap<i64, (u64, i64)>) -> Vec<u64> {
    let mut keys = 0u64;
    let mut sums = 0u64;
    for (&key, &(n, total)) in totals {
        keys = keys.wrapping_add(hash_ints(key, 0).wrapping_mul(n));
        sums = sums.wrapping_add(hash_ints(key, total));
    }
    vec![rows, keys, sums]
}

impl OutputCheck {
    /// Summary of a job's sink rows.
    pub fn digest<'a>(self, rows: impl Iterator<Item = &'a Row>) -> Vec<u64> {
        match self {
            OutputCheck::ChainCounts => {
                let mut d = vec![0u64; 5];
                for row in rows {
                    d[0] += 1;
                    d[1] = d[1].wrapping_add(hash_ints(row.int(0), row.int(1)));
                    for stage in 0..3 {
                        d[2 + stage] += row.int(2 + stage) as u64;
                    }
                }
                d
            }
            OutputCheck::KeyedTotals => {
                let mut totals: BTreeMap<i64, (u64, i64)> = BTreeMap::new();
                let mut n = 0;
                for row in rows {
                    n += 1;
                    let e = totals.entry(row.int(0)).or_insert((0, 0));
                    e.0 += 1;
                    e.1 = e.1.max(row.int(1));
                }
                keyed_summary(n, &totals)
            }
            OutputCheck::AllFields | OutputCheck::AllButLastField => {
                let mut d = vec![0u64; 2];
                for row in rows {
                    let keep = row.len() - usize::from(self == OutputCheck::AllButLastField);
                    d[0] += 1;
                    d[1] = d[1].wrapping_add(fnv1a(
                        FNV_OFFSET,
                        &Row::new(row.0[..keep].to_vec()).to_bytes(),
                    ));
                }
                d
            }
        }
    }

    /// The same summary worked out from the input rows alone, for the jobs
    /// whose result has a closed form; an engine-independent reference.
    pub fn expected(self, inputs: &[(&'static str, Vec<Row>)]) -> Option<Vec<u64>> {
        let rows = &inputs.first()?.1;
        // Per key: rows and the sum of their values.
        let per_key = || {
            let mut per_key: BTreeMap<i64, (u64, i64)> = BTreeMap::new();
            for row in rows {
                let e = per_key.entry(row.int(0)).or_insert((0, 0));
                e.0 += 1;
                e.1 += row.int(1);
            }
            per_key
        };
        match self {
            OutputCheck::ChainCounts => {
                let pairs = rows.iter().fold(0u64, |h, row| {
                    h.wrapping_add(hash_ints(row.int(0), row.int(1)))
                });
                let counters: u64 = per_key().values().map(|&(n, _)| n * (n + 1) / 2).sum();
                Some(vec![rows.len() as u64, pairs, counters, counters, counters])
            }
            OutputCheck::KeyedTotals => Some(keyed_summary(rows.len() as u64, &per_key())),
            OutputCheck::AllFields | OutputCheck::AllButLastField => None,
        }
    }
}

pub fn int_row(key: u64, value: u64) -> Row {
    Row::new(vec![Datum::Int(key as i64), Datum::Int(value as i64)])
}

/// The §7.2 synthetic chain at depth 4: source, three keyed stages that each
/// bump a per-key counter and read the wall clock through the causal
/// timestamp service, sink. The timestamp is not emitted, so the output is
/// the same in every FT mode and under every fault plan.
pub fn chain_graph(rate: u64) -> JobGraph {
    let mut g = JobGraph::new("chain");
    let mut prev = g.add_source(
        "src",
        PARALLELISM,
        SourceSpec::new("in").rate(rate).key_field(0),
    );
    for d in 0..3 {
        let stage = g.add_operator(
            &format!("stage{d}"),
            PARALLELISM,
            factory(|| {
                ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                    let count = ctx.state.value(9, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                    ctx.state
                        .set_value(9, rec.key, Row::new(vec![Datum::Int(count)]));
                    let _ts = ctx.timestamp()?;
                    let mut row = rec.row.0.clone();
                    row.push(Datum::Int(count));
                    ctx.emit(rec.key, rec.event_time, Row::new(row));
                    Ok(())
                })
            }),
        );
        g.connect(prev, stage, Partitioning::Hash);
        prev = stage;
    }
    let sink = g.add_sink(
        "sink",
        PARALLELISM,
        SinkSpec {
            topic: "out".into(),
        },
    );
    g.connect(prev, sink, Partitioning::Hash);
    g
}

/// Source, keyed running sum, sink.
fn keyed_sum_graph(rate: u64) -> JobGraph {
    let mut g = JobGraph::new("keyed_state");
    let src = g.add_source(
        "src",
        PARALLELISM,
        SourceSpec::new("in").rate(rate).key_field(0),
    );
    let sum = g.add_operator(
        "sum",
        PARALLELISM,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let prev = acc.map(|a| a.int(1)).unwrap_or(0);
                Row::new(vec![row.0[0].clone(), Datum::Int(prev + row.int(1))])
            })
        }),
    );
    g.connect(src, sum, Partitioning::Hash);
    let sink = g.add_sink(
        "sink",
        PARALLELISM,
        SinkSpec {
            topic: "out".into(),
        },
    );
    g.connect(sum, sink, Partitioning::Hash);
    g
}
