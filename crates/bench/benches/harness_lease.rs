//! P5 — lease-queue and streaming-aggregation benchmarks for the
//! multi-process sweep fabric (not from the paper; substrate robustness).
//!
//! * `lease/claim_complete_4096` — a full in-memory claim → complete drain
//!   of a 4096-trial queue (256 chunks), the per-chunk fabric hot path;
//! * `lease/encode_1024`, `lease/decode_validate_1024`,
//!   `lease/write_atomic_1024` — `DSTLLEAS` frame I/O for a populated
//!   1024-trial queue, the cost every claim/renew/complete persists;
//! * `streaming/moments_push_100k` and `streaming/gk_push_100k` — O(1)-
//!   memory aggregation throughput at sweep scale (ε = 0.005), with the
//!   final tuple count reported as `gk_entries_100k`;
//! * `fabric/single_worker_16` vs `sweep/plain_16` — a 16-trial DISTILL
//!   sweep through one lease-fabric worker (queue + leases + per-chunk
//!   checkpoints) against the plain in-process sweep; the gap is the
//!   fabric tax, reported as `fabric_overhead_frac`;
//! * `fabric_merge_equivalence_ok` — a *correctness* value, not a timing:
//!   1.0 iff two racing workers' merged checkpoints are bit-identical to
//!   the uninterrupted single-process sweep.
//!
//! Results land in `BENCH_harness_lease.json` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use distill_analysis::{GkSketch, RunningMoments};
use distill_core::{Distill, DistillParams};
use distill_harness::checkpoint::encode_sim_result;
use distill_harness::{
    merge_checkpoints, run_sweep, run_worker, worker_checkpoint_path, Checkpoint, LeaseQueue,
    SweepConfig, TrialSpec, WorkerConfig, Writer,
};
use distill_sim::{Engine, NullAdversary, SimConfig, SimResult, StopRule, World};
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The benchmark trial: a small DISTILL run, deterministic in its index —
/// identical shape to `harness_checkpoint.rs` so the fabric tax is
/// comparable to the checkpoint tax.
struct BenchSpec {
    base_seed: u64,
}

const N: u32 = 24;
const HONEST: u32 = 20;
const M: u32 = 48;
const GOODS: u32 = 6;

impl TrialSpec for BenchSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        let world = World::binary(M, GOODS, self.base_seed ^ 0xBE7C).expect("valid world");
        let alpha = f64::from(HONEST) / f64::from(N);
        let params = DistillParams::new(N, M, alpha, world.beta()).expect("valid params");
        let config =
            SimConfig::new(N, HONEST, self.seed(trial)).with_stop(StopRule::all_satisfied(50_000));
        Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(NullAdversary),
        )
        .expect("valid engine")
        .run()
        .expect("engine run")
    }

    fn seed(&self, trial: u64) -> u64 {
        self.base_seed.wrapping_add(trial)
    }

    fn describe(&self) -> String {
        format!(
            "bench-lease n={N} honest={HONEST} m={M} goods={GOODS} seed={}",
            self.base_seed
        )
    }
}

fn spec() -> Arc<BenchSpec> {
    Arc::new(BenchSpec {
        base_seed: 0xC0FFEE,
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("distill-bench-{}-{name}", std::process::id()))
}

/// Byte digest of a result set, owned or as a checkpoint shares it: the
/// bit-identity oracle shared with `tests/cluster_fabric.rs`.
fn digest<R: Borrow<SimResult>>(results: &[(u64, R)]) -> Vec<u8> {
    let mut w = Writer::new();
    for (t, r) in results {
        w.put_u64(*t);
        encode_sim_result(&mut w, r.borrow());
    }
    w.into_bytes()
}

/// A queue advanced to a mixed Available/Leased/Done population, so the
/// encoded frame is representative of a mid-sweep snapshot.
fn populated_queue(trials: u64) -> LeaseQueue {
    let mut q = LeaseQueue::new(0xFAB, trials, 16, 2).expect("valid geometry");
    let mut chunk = q.claim(1, 0, 1_000);
    let mut i = 0u64;
    while let Some(c) = chunk {
        if i.is_multiple_of(3) {
            q.complete(c, 1);
        }
        i += 1;
        if i >= q.chunk_count() / 2 {
            break;
        }
        chunk = q.claim(1, 0, 1_000);
    }
    q
}

fn worker_config(queue: &Path, worker_id: u64, trials: u64) -> WorkerConfig {
    let mut config = WorkerConfig::new(queue.to_path_buf(), worker_id, trials);
    config.chunk_size = 4;
    config.checkpoint_every = 1;
    config.poll = std::time::Duration::from_millis(1);
    config
}

fn clean_fabric(queue: &Path, workers: u64) {
    std::fs::remove_file(queue).ok();
    for id in 0..workers {
        std::fs::remove_file(worker_checkpoint_path(queue, id)).ok();
    }
}

fn bench_lease_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease");
    group.sample_size(20);

    group.bench_function("claim_complete_4096", |b| {
        b.iter(|| {
            let mut q = LeaseQueue::new(0xFAB, 4096, 16, 2).expect("valid geometry");
            while let Some(chunk) = q.claim(1, 0, 1_000) {
                q.complete(chunk, 1);
            }
            assert!(q.all_done());
            q
        })
    });

    let q = populated_queue(1024);
    group.bench_function("encode_1024", |b| b.iter(|| q.encode()));

    let bytes = q.encode();
    group.bench_function("decode_validate_1024", |b| {
        b.iter(|| {
            LeaseQueue::decode(&bytes)
                .expect("decode")
                .validate_for(0xFAB, 1024, 16, 2)
                .expect("validate")
        })
    });

    let path = tmp("lease-write.queue");
    group.bench_function("write_atomic_1024", |b| {
        b.iter(|| q.write_atomic(&path).expect("atomic write"))
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(20);

    // Deterministic uneven stream, same generator family as the oracle test.
    let values: Vec<f64> = {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..100_000)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                u * u * 1_000.0
            })
            .collect()
    };

    group.bench_function("moments_push_100k", |b| {
        b.iter(|| {
            let mut m = RunningMoments::new();
            for &v in &values {
                m.push(v);
            }
            m
        })
    });

    group.bench_function("gk_push_100k", |b| {
        b.iter(|| {
            let mut s = GkSketch::new(0.005);
            for &v in &values {
                s.push(v);
            }
            s
        })
    });

    let mut sketch = GkSketch::new(0.005);
    for &v in &values {
        sketch.push(v);
    }
    group.report_value("gk_entries_100k", sketch.entries_len() as f64, "tuples");
    group.finish();
}

fn bench_fabric_overhead(c: &mut Criterion) {
    let trials = 16u64;
    let queue = tmp("fabric-overhead.queue");
    {
        let mut group = c.benchmark_group("sweep");
        group.sample_size(10);
        let mut plain_cfg = SweepConfig::new(trials);
        plain_cfg.threads = 2;
        group.bench_function("plain_16", |b| {
            b.iter(|| run_sweep(spec(), &plain_cfg).expect("plain sweep"))
        });
        group.finish();
    }
    {
        let mut group = c.benchmark_group("fabric");
        group.sample_size(10);
        group.bench_function("single_worker_16", |b| {
            b.iter(|| {
                clean_fabric(&queue, 1);
                let report =
                    run_worker(spec(), &worker_config(&queue, 0, trials)).expect("worker run");
                assert!(report.finished);
                report
            })
        });
        group.finish();
    }
    clean_fabric(&queue, 1);

    // The fabric tax (queue + lease + per-chunk checkpoint persistence) as
    // a fraction of plain sweep wall time.
    let mean = |c: &Criterion, id: &str| c.results().iter().find(|r| r.id == id).map(|r| r.mean_ns);
    let plain = mean(c, "sweep/plain_16");
    let fabric = mean(c, "fabric/single_worker_16");
    if let (Some(plain), Some(fabric)) = (plain, fabric) {
        if plain > 0.0 {
            let mut group = c.benchmark_group("fabric");
            group.report_value("fabric_overhead_frac", (fabric - plain) / plain, "fraction");
            group.finish();
        }
    }
}

fn bench_merge_equivalence(c: &mut Criterion) {
    let trials = 16u64;
    let mut fresh_cfg = SweepConfig::new(trials);
    fresh_cfg.threads = 2;
    let fresh = run_sweep(spec(), &fresh_cfg).expect("fresh sweep");

    let queue = tmp("fabric-equiv.queue");
    clean_fabric(&queue, 2);
    let handles: Vec<_> = (0..2)
        .map(|id| {
            let config = worker_config(&queue, id, trials);
            let spec = spec();
            std::thread::spawn(move || run_worker(spec, &config).expect("worker run"))
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    let parts: Vec<Checkpoint> = (0..2)
        .filter_map(|id| Checkpoint::load(&worker_checkpoint_path(&queue, id)).ok())
        .collect();
    let merged = merge_checkpoints(&parts).expect("merge");
    clean_fabric(&queue, 2);

    let identical = digest(&merged.completed) == digest(&fresh.results);
    assert!(
        identical,
        "merged worker checkpoints must be bit-identical to a fresh sweep"
    );
    let mut group = c.benchmark_group("fabric");
    group.report_value(
        "fabric_merge_equivalence_ok",
        f64::from(u8::from(identical)),
        "bool",
    );
    group.finish();
}

/// Routes the run's measurements into `BENCH_harness_lease.json`.
fn configure_output(c: &mut Criterion) {
    c.set_json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_harness_lease.json"
    ));
}

criterion_group!(
    benches,
    configure_output,
    bench_lease_ops,
    bench_streaming,
    bench_fabric_overhead,
    bench_merge_equivalence
);
criterion_main!(benches);
