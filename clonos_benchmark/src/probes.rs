//! Per-layer unit costs: each probe times batches of calls into the public
//! functions of one module. A batch lasts at least 50 ms, a probe reports
//! the median of five batches, and the probes of a layer run between two
//! calibration passes whose mean normalises them like the end-to-end runs.
//! Every batch is a span `probe.<metric>` under its layer's span.

use crate::calib::{xorshift, Bracket, Calibrator};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{chain_graph, int_row, Variant, Workload, PARALLELISM};
use crate::Metric;
use bytes::Bytes;
use clonos::causal_log::CausalLogManager;
use clonos::config::SpillPolicy;
use clonos::determinant::Determinant;
use clonos::inflight::{InFlightLog, SentBuffer};
use clonos::recovery::{analyze_failure, TopologyInfo};
use clonos::services::CausalServices;
use clonos::standby::{AllocationStrategy, StandbyManager};
use clonos_engine::record::decode_buffer;
use clonos_engine::state::StateStore;
use clonos_engine::{Datum, JobRunner, ParallelConfig, Record, Row, StreamElement};
use clonos_nexmark::{GeneratorConfig, NexmarkGenerator};
use clonos_sim::events::Simulation;
use clonos_sim::{VirtualDuration, VirtualTime};
use clonos_storage::{
    deltamap, ByteReader, ByteWriter, DurableLog, SnapshotStore, SpillDevice, TieredConfig,
    TieredStore,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const MIN_BATCH_S: f64 = 0.05;
const BATCHES: usize = 5;

/// Seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// A probe result awaiting its layer's calibration factor.
struct Pending {
    name: &'static str,
    unit: &'static str,
    /// Median raw seconds per operation.
    secs_per_op: f64,
    /// Normalised seconds per operation → the metric's value.
    convert: fn(f64) -> f64,
}

pub struct Layer<'a> {
    tracer: &'a mut Tracer,
    pending: Vec<Pending>,
    plain: Vec<Metric>,
}

const NS: fn(f64) -> f64 = |s| s * 1e9;
const US: fn(f64) -> f64 = |s| s * 1e6;
const MS: fn(f64) -> f64 = |s| s * 1e3;
const PER_S: fn(f64) -> f64 = |s| 1.0 / s;

impl Layer<'_> {
    /// Run `call` in batches of at least 50 ms; `call` does `ops` operations
    /// and returns the seconds it spent in the measured part.
    fn probe(
        &mut self,
        name: &'static str,
        unit: &'static str,
        convert: fn(f64) -> f64,
        ops: u64,
        mut call: impl FnMut() -> f64,
    ) {
        call(); // warm-up, not timed
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            self.tracer.enter(format!("probe.{name}"));
            let (mut secs, mut calls) = (0.0, 0u64);
            while secs < MIN_BATCH_S {
                secs += call();
                calls += 1;
            }
            self.tracer.exit();
            samples.push(secs / (calls * ops) as f64);
        }
        self.pending.push(Pending {
            name,
            unit,
            secs_per_op: median(&samples),
            convert,
        });
    }

    /// A count or ratio that needs no timing.
    fn plain(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.plain.push(Metric::new(name, value, unit));
    }
}

/// Calibration passes shared by consecutive layers: the pass that closes
/// one layer's bracket opens the next one's.
struct Passes<'a> {
    cal: &'a mut Calibrator,
    last_s: f64,
}

/// Run one layer's probes between two calibration passes.
fn layer(
    name: &str,
    passes: &mut Passes<'_>,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
    body: impl FnOnce(&mut Layer<'_>),
) {
    tracer.enter(format!("layer.{name}"));
    let mut l = Layer {
        tracer: &mut *tracer,
        pending: Vec::new(),
        plain: Vec::new(),
    };
    body(&mut l);
    let Layer { pending, plain, .. } = l;
    let bracket = Bracket {
        before_s: passes.last_s,
        after_s: passes.cal.pass(),
    };
    passes.last_s = bracket.after_s;
    tracer.exit();
    for p in pending {
        out.push(Metric::new(
            p.name,
            (p.convert)(bracket.normalise(p.secs_per_op)),
            p.unit,
        ));
    }
    out.extend(plain);
}

/// A canonical deltamap image of `n` puts with 8-byte big-endian keys
/// `first, first + stride, ...` and 16-byte values.
fn image(n: u64, first: u64, stride: u64, fill: u8) -> Bytes {
    let mut w = ByteWriter::with_capacity(n as usize * 32);
    w.put_varint(n);
    for i in 0..n {
        deltamap::write_put(&mut w, 1, &(first + i * stride).to_be_bytes(), &[fill; 16]);
    }
    w.freeze()
}

fn chain_record(i: u64) -> Record {
    Record {
        key: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        event_time: i,
        create_ts: 1_000_000 + i,
        ident: (5 << 40) | i,
        row: Row::new((0..5).map(|f| Datum::Int((i + f) as i64)).collect()),
    }
}

fn sample_determinants() -> Vec<Determinant> {
    vec![
        Determinant::Order { channel: 3 },
        Determinant::Timer {
            timer_id: 42,
            offset: 1_000,
        },
        Determinant::Timestamp {
            ts: 1_616_161_616,
            offset: 7,
        },
        Determinant::BufferFlush {
            size: 32_768,
            records: 140,
        },
        Determinant::External {
            payload: vec![7u8; 64],
        },
    ]
}

fn sent_buffer(epoch: u64, payload: &Bytes) -> SentBuffer {
    SentBuffer {
        epoch,
        payload: payload.clone(),
        delta: payload.slice(..64),
        records: 140,
    }
}

fn sim_probes(l: &mut Layer<'_>) {
    let mut sim: Simulation<u64> = Simulation::new();
    let mut x = 0x0123_4567_89AB_CDEF_u64;
    for i in 0..4096 {
        sim.schedule_in(
            VirtualDuration::from_micros(xorshift(&mut x) % 10_000),
            1,
            i,
        );
    }
    l.probe("sim.events.push_pop_ns", "ns", NS, 10_000, || {
        timed(|| {
            for i in 0..10_000 {
                let d = sim.pop().expect("queue holds 4096 events");
                sim.schedule_in(
                    VirtualDuration::from_micros(xorshift(&mut x) % 10_000),
                    d.dest,
                    i,
                );
            }
        })
    });
}

fn storage_probes(l: &mut Layer<'_>) {
    let mut w = ByteWriter::with_capacity(16 * 1024);
    let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
    let values: Vec<u64> = (0..1000).map(|_| xorshift(&mut x) >> (x & 63)).collect();
    l.probe("storage.codec.varint_rt_ns", "ns", NS, 1000, || {
        timed(|| {
            w.clear();
            for &v in &values {
                w.put_varint(v);
            }
            let mut r = ByteReader::new(w.as_slice());
            let mut sum = 0u64;
            while !r.is_empty() {
                sum = sum.wrapping_add(r.get_varint().expect("just written"));
            }
            sum
        })
    });

    let payload = Bytes::from(vec![0xA5u8; 48]);
    l.probe("storage.log.append_ns", "ns", NS, 20_000, || {
        let mut log = DurableLog::new("probe", 1);
        timed(|| {
            for _ in 0..20_000 {
                log.partition_mut(0).append(payload.clone());
            }
        })
    });
    let mut log = DurableLog::new("probe", 1);
    for _ in 0..50_000 {
        log.partition_mut(0).append(payload.clone());
    }
    l.probe("storage.log.fetch_ns", "ns", NS, 1000, || {
        timed(|| {
            let mut bytes = 0;
            for from in 0..1000u64 {
                for rec in log.partition(0).fetch(from * 50, 50) {
                    bytes += rec.payload.len();
                }
            }
            bytes
        })
    });

    l.probe("storage.deltamap.write_put_ns", "ns", NS, 1000, || {
        timed(|| {
            w.clear();
            for k in 0..1000u64 {
                deltamap::write_put(&mut w, 1, &k.to_be_bytes(), &[7u8; 16]);
            }
            w.len()
        })
    });
    // A base of 20 000 entries under a chain of 8 deltas of 2 000 each.
    let base = image(20_000, 0, 1, 1);
    let deltas: Vec<Bytes> = (0..8).map(|d| image(2_000, d, 10, d as u8 + 2)).collect();
    let chain_bytes = (base.len() + deltas.iter().map(Bytes::len).sum::<usize>()) as u64;
    let delta_refs: Vec<&[u8]> = deltas.iter().map(|d| d.as_ref()).collect();
    l.probe(
        "storage.deltamap.merge_chain_mbps",
        "MB/s",
        |s| 1e-6 / s,
        chain_bytes,
        || timed(|| deltamap::merge_chain(&base, &delta_refs).expect("well-formed chain")),
    );
    let mut store = SnapshotStore::new();
    store.put(VirtualTime::ZERO, 0, 1, base.clone());
    let mut cp = 0;
    l.probe("storage.snapshot.put_delta_us", "us", US, 64, || {
        timed(|| {
            for _ in 0..64 {
                cp = cp % 8 + 1;
                store.put_delta(
                    VirtualTime::ZERO,
                    cp,
                    1,
                    cp - 1,
                    deltas[cp as usize - 1].clone(),
                );
            }
        })
    });
    l.probe("storage.snapshot.get_reconstruct_ms", "ms", MS, 1, || {
        timed(|| {
            store
                .get(VirtualTime::ZERO, 8, 1)
                .expect("chain of 8 reconstructs")
        })
    });

    let value = Bytes::from(vec![9u8; 16]);
    l.probe("storage.lsm.put_ns", "ns", NS, 50_000, || {
        let mut tier = TieredStore::new(TieredConfig::default(), SpillDevice::new(), 1 << 40);
        timed(|| {
            for _ in 0..50_000 {
                tier.put(
                    1,
                    &(xorshift(&mut x) % 1_000_000).to_be_bytes(),
                    value.clone(),
                );
            }
        })
    });
    // 100 000 even keys on segments: odd keys miss inside the key range.
    let mut tier = TieredStore::new(TieredConfig::default(), SpillDevice::new(), 1 << 40);
    for k in 0..100_000u64 {
        tier.put(1, &(k * 2).to_be_bytes(), value.clone());
    }
    tier.flush();
    l.probe("storage.lsm.get_hit_ns", "ns", NS, 10_000, || {
        timed(|| {
            let mut hits = 0;
            for _ in 0..10_000 {
                let key = (xorshift(&mut x) % 100_000) * 2;
                hits += usize::from(tier.get(1, &key.to_be_bytes()).is_some());
            }
            hits
        })
    });
    let before = tier.stats();
    l.probe("storage.lsm.get_miss_ns", "ns", NS, 10_000, || {
        timed(|| {
            let mut hits = 0;
            for _ in 0..10_000 {
                let key = (xorshift(&mut x) % 100_000) * 2 + 1;
                hits += usize::from(tier.get(1, &key.to_be_bytes()).is_some());
            }
            hits
        })
    });
    let after = tier.stats();
    l.plain(
        "storage.lsm.filter_fp_ratio",
        (after.filter_false_positives - before.filter_false_positives) as f64
            / (after.point_reads - before.point_reads).max(1) as f64,
        "ratio",
    );
    l.probe("storage.lsm.flush_ms", "ms", MS, 1, || {
        let mut tier = TieredStore::new(TieredConfig::default(), SpillDevice::new(), 1 << 40);
        for k in 0..20_000u64 {
            tier.put(1, &k.to_be_bytes(), value.clone());
        }
        timed(|| tier.flush())
    });
    let buffer = Bytes::from(vec![0x5Au8; 32 * 1024]);
    let mut device = SpillDevice::new();
    l.probe("storage.spill.write_read_ns", "ns", NS, 1000, || {
        timed(|| {
            for _ in 0..1000 {
                let (handle, _) = device.write(buffer.clone());
                black_box(device.read(handle));
                device.free(handle);
            }
        })
    });
}

fn core_probes(l: &mut Layer<'_>) {
    let dets = sample_determinants();
    let mut w = ByteWriter::with_capacity(4096);
    l.probe(
        "core.determinant.encode_ns",
        "ns",
        NS,
        100 * dets.len() as u64,
        || {
            timed(|| {
                for _ in 0..100 {
                    w.clear();
                    for d in &dets {
                        d.encode(&mut w);
                    }
                }
                w.len()
            })
        },
    );
    w.clear();
    for d in &dets {
        d.encode(&mut w);
    }
    let encoded = w.take_frozen();
    l.probe(
        "core.determinant.decode_ns",
        "ns",
        NS,
        100 * dets.len() as u64,
        || {
            timed(|| {
                for _ in 0..100 {
                    let mut r = ByteReader::new(&encoded);
                    while !r.is_empty() {
                        black_box(Determinant::decode(&mut r).expect("just encoded"));
                    }
                }
            })
        },
    );

    l.probe("core.causal_log.record_ns", "ns", NS, 10_000, || {
        let mut log = CausalLogManager::new(1, PARALLELISM, 1);
        timed(|| {
            for i in 0..10_000 {
                log.record(Determinant::Timestamp { ts: i, offset: i });
            }
        })
    });
    // Fan-out 4: each recorded entry ships once per output channel.
    l.probe(
        "core.causal_log.collect_delta_ns",
        "ns",
        NS,
        64 * PARALLELISM as u64,
        || {
            let mut log = CausalLogManager::new(1, PARALLELISM, 1);
            for i in 0..64 {
                log.record(Determinant::Timestamp { ts: i, offset: i });
            }
            timed(|| {
                for ch in 0..PARALLELISM as u32 {
                    black_box(log.collect_delta(ch));
                }
            })
        },
    );
    l.probe("core.causal_log.ingest_delta_ns", "ns", NS, 64, || {
        let mut up = CausalLogManager::new(1, 1, 1);
        for i in 0..64 {
            up.record(Determinant::Timestamp { ts: i, offset: i });
        }
        let delta = up.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        timed(|| down.ingest_delta(&delta).expect("delta from collect_delta"))
    });
    l.probe("core.causal_log.truncate_us", "us", US, 1, || {
        let mut log = CausalLogManager::new(1, PARALLELISM, 1);
        for epoch in 0..10 {
            log.set_epoch(epoch);
            for i in 0..1000 {
                log.record(Determinant::Timestamp { ts: i, offset: i });
            }
        }
        timed(|| log.truncate_through(8))
    });

    let payload = Bytes::from(vec![0x3Cu8; 32 * 1024]);
    let mut spill = SpillDevice::new();
    l.probe("core.inflight.append_ns", "ns", NS, 2000, || {
        let mut log = InFlightLog::new(PARALLELISM, SpillPolicy::InMemory, 1 << 20);
        timed(|| {
            for i in 0..2000u32 {
                log.append(i % PARALLELISM as u32, sent_buffer(1, &payload), &mut spill);
            }
        })
    });
    let filled = |spill: &mut SpillDevice| {
        let mut log = InFlightLog::new(PARALLELISM, SpillPolicy::InMemory, 1 << 20);
        for i in 0..2000u32 {
            log.append(
                i % PARALLELISM as u32,
                sent_buffer(i as u64 / 200, &payload),
                spill,
            );
        }
        log
    };
    l.probe("core.inflight.truncate_us", "us", US, 1, || {
        let mut log = filled(&mut spill);
        timed(|| log.truncate_through(8, &mut spill))
    });
    let mut log = filled(&mut spill);
    l.probe("core.inflight.replay_next_ns", "ns", NS, 2000, || {
        timed(|| {
            for ch in 0..PARALLELISM as u32 {
                let mut cursor = log.open_replay(ch, 0);
                while let Some(buffer) = log.replay_next(&mut cursor, &mut spill) {
                    black_box(buffer);
                }
            }
        })
    });

    // Calls 10 µs of virtual time apart, as one per record at the default
    // record cost, against the 1 ms cache the engine configures.
    let (mut calls, mut logged) = (0, 0);
    l.probe("core.services.timestamp_ns", "ns", NS, 10_000, || {
        let mut log = CausalLogManager::new(1, 1, 1);
        let mut services = CausalServices::new(1_000);
        let s = timed(|| {
            for i in 0..10_000u64 {
                black_box(
                    services
                        .timestamp(&mut log, VirtualTime(i * 10), i)
                        .expect("recording"),
                );
            }
        });
        calls = services.ts_calls;
        logged = services.ts_determinants;
        s
    });
    l.plain(
        "core.services.ts_cache_hit_ratio",
        1.0 - logged as f64 / calls.max(1) as f64,
        "ratio",
    );

    // The chain's topology: 5 vertices of 4 subtasks, all-to-all between.
    let mut topology = TopologyInfo::new();
    for t in 1..=20u64 {
        topology.add_task(t);
    }
    for stage in 0..4u64 {
        for up in 1..=4 {
            for down in 1..=4 {
                topology.add_edge(stage * 4 + up, (stage + 1) * 4 + down);
            }
        }
    }
    let failed = BTreeSet::from([5u64]);
    l.probe("core.recovery.analyze_failure_us", "us", US, 100, || {
        timed(|| {
            for _ in 0..100 {
                black_box(analyze_failure(&topology, &failed, 1));
            }
        })
    });
    let base = image(20_000, 0, 1, 1);
    let delta = image(2_000, 0, 10, 2);
    let mut standbys = StandbyManager::new();
    standbys.register(1, 0, 8, AllocationStrategy::AntiAffinity);
    standbys.dispatch_state(1, 0, base, VirtualTime::ZERO, VirtualDuration::ZERO);
    let mut cp = 0;
    l.probe("core.standby.dispatch_delta_us", "us", US, 1, || {
        cp += 1;
        timed(|| {
            standbys
                .dispatch_delta(
                    1,
                    cp,
                    cp - 1,
                    delta.clone(),
                    VirtualTime::ZERO,
                    VirtualDuration::ZERO,
                )
                .expect("standby holds the parent image")
        })
    });
}

fn engine_probes(l: &mut Layer<'_>, seed: u64) {
    let records: Vec<Record> = (0..1000).map(chain_record).collect();
    let mut w = ByteWriter::with_capacity(64 * 1024);
    l.probe("engine.record.encode_ns", "ns", NS, 1000, || {
        timed(|| {
            w.clear();
            for rec in &records {
                rec.encode(&mut w);
            }
            w.len()
        })
    });
    l.probe("engine.record.decode_ns", "ns", NS, 1000, || {
        timed(|| {
            let mut r = ByteReader::new(w.as_slice());
            while !r.is_empty() {
                black_box(Record::decode(&mut r).expect("just encoded"));
            }
        })
    });
    let mut buffer = ByteWriter::with_capacity(32 * 1024);
    let mut in_buffer = 0;
    for rec in &records {
        if buffer.len() > 31 * 1024 {
            break;
        }
        StreamElement::Record(rec.clone()).encode(&mut buffer);
        in_buffer += 1;
    }
    l.probe(
        "engine.record.decode_buffer_ns_per_rec",
        "ns",
        NS,
        in_buffer,
        || timed(|| decode_buffer(buffer.as_slice()).expect("just encoded")),
    );

    let mut x = seed | 1;
    // Random keys over 10^6 entries miss the caches; over the 4 096 keys of
    // the chain they do not. The layer profile prices the second kind.
    for (get, set, keys) in [
        ("engine.state.get_ns", "engine.state.set_ns", 1_000_000u64),
        ("engine.state.get_hot_ns", "engine.state.set_hot_ns", 4096),
    ] {
        let mut store = StateStore::new();
        for key in 0..keys {
            store.set_value(0, key, int_row(key, 0));
        }
        l.probe(get, "ns", NS, 10_000, || {
            timed(|| {
                let mut sum = 0;
                for _ in 0..10_000 {
                    sum += store
                        .value(0, xorshift(&mut x) % keys)
                        .map_or(0, |r| r.int(0));
                }
                sum
            })
        });
        l.probe(set, "ns", NS, 10_000, || {
            timed(|| {
                for i in 0..10_000 {
                    store.set_value(0, xorshift(&mut x) % keys, int_row(i, 1));
                }
            })
        });
    }
    // Snapshot probes at 10^5 keys, so that a batch stays near 50 ms.
    const KEYS: u64 = 100_000;
    let mut store = StateStore::new();
    for key in 0..KEYS {
        store.set_value(0, key, int_row(key, 0));
    }
    let mut full = store.snapshot();
    l.probe("engine.state.snapshot_full_ms", "ms", MS, 1, || {
        timed(|| full = store.snapshot())
    });
    for (name, stride) in [
        ("engine.state.snapshot_delta_10pct_ms", 10),
        ("engine.state.snapshot_delta_100pct_ms", 1),
    ] {
        black_box(store.snapshot_delta());
        l.probe(name, "ms", MS, 1, || {
            for key in (0..KEYS).step_by(stride) {
                store.set_value(0, key, int_row(key, 2));
            }
            timed(|| store.snapshot_delta())
        });
    }
    l.probe("engine.state.restore_ms", "ms", MS, 1, || {
        timed(|| StateStore::restore(&full).expect("image from snapshot()"))
    });
    // A cache a tenth of the state: nine reads in ten fault from the tier.
    store.enable_tiering(KEYS * 46 / 10, 1 << 40);
    store.tier_sync_dirty();
    l.probe("engine.state.tiered_get_fault_ns", "ns", NS, 10_000, || {
        timed(|| {
            let mut sum = 0;
            for _ in 0..10_000 {
                sum += store
                    .value(0, xorshift(&mut x) % KEYS)
                    .map_or(0, |r| r.int(0));
            }
            sum
        })
    });
    l.probe("engine.state.tier_sync_ms", "ms", MS, 1, || {
        for key in (0..KEYS).step_by(10) {
            store.set_value(0, key, int_row(key, 3));
        }
        timed(|| store.tier_sync_dirty())
    });

    let cfg = Workload::Chain.config(Variant::A, seed);
    l.probe("engine.cluster.deploy_ms", "ms", MS, 1, || {
        timed(|| JobRunner::new(chain_graph(30_000), cfg.clone()))
    });
}

/// The chain job on the threaded runtime, once per worker count; recorded
/// for information until fault tolerance runs on threads.
fn runtime_probes(l: &mut Layer<'_>, seed: u64) {
    const ROWS: u64 = 120_000;
    let mut stalls = 0;
    let mut steals = 0;
    for (name, workers) in [
        ("engine.runtime.threaded_1w_rps", 1),
        ("engine.runtime.threaded_2w_rps", 2),
    ] {
        l.tracer.enter(format!("probe.{name}"));
        let mut runner = JobRunner::new(
            chain_graph(30_000),
            Workload::Chain.config(Variant::A, seed),
        );
        for part in 0..PARALLELISM {
            let rows = (part as u64..ROWS)
                .step_by(PARALLELISM)
                .map(|i| int_row(i % 4096, i));
            runner.populate("in", part, rows);
        }
        let pcfg = ParallelConfig {
            workers,
            ..ParallelConfig::default()
        };
        let report = runner.run_parallel_for(VirtualDuration::from_secs(4), &pcfg);
        l.tracer.exit();
        assert_eq!(report.records_out, ROWS, "threaded chain did not drain");
        stalls += report.runtime_stats.mailbox_stalls;
        steals += report.runtime_stats.steals;
        l.pending.push(Pending {
            name,
            unit: "1/s",
            secs_per_op: report.wall_seconds / ROWS as f64,
            convert: PER_S,
        });
    }
    l.plain("engine.runtime.mailbox_stalls", stalls as f64, "count");
    l.plain("engine.runtime.steals", steals as f64, "count");
}

pub fn run(seed: u64, cal: &mut Calibrator, tracer: &mut Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let cal = &mut Passes {
        last_s: cal.pass(),
        cal,
    };
    layer("sim", cal, tracer, &mut out, sim_probes);
    layer("storage", cal, tracer, &mut out, storage_probes);
    layer("core", cal, tracer, &mut out, core_probes);
    layer("engine", cal, tracer, &mut out, |l| engine_probes(l, seed));
    layer("engine.runtime", cal, tracer, &mut out, |l| {
        runtime_probes(l, seed)
    });
    layer("nexmark", cal, tracer, &mut out, |l| {
        l.probe(
            "nexmark.generator.events_per_s",
            "1/s",
            PER_S,
            50_000,
            || {
                let mut gen = NexmarkGenerator::new(GeneratorConfig {
                    seed,
                    ..Default::default()
                });
                timed(|| gen.generate(50_000))
            },
        );
    });
    layer("lint", cal, tracer, &mut out, |l| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        l.probe("lint.analyze_ms", "ms", MS, 1, || {
            timed(|| clonos_lint::analyze(&root).expect("the workspace sources are readable"))
        });
    });
    out
}
