//! P2 — checkpoint-overhead and resume-equivalence benchmarks for the
//! crash-safe sweep harness (not from the paper; substrate robustness).
//!
//! * `checkpoint/encode_64` — serializing a 64-trial checkpoint to bytes;
//! * `checkpoint/write_atomic_64` — the full atomic persist (file lock,
//!   temp file, fsync, rename) of the same checkpoint;
//! * `checkpoint/decode_validate_64` — load + checksum + fingerprint check;
//! * `sweep/plain_16` vs `sweep/checkpointed_16` — a 16-trial DISTILL sweep
//!   without checkpointing against the same sweep writing a checkpoint after
//!   every completion (the worst-case cadence). The gap between the two is
//!   the total crash-safety tax, reported as
//!   `checkpoint_overhead_frac` (fraction of sweep wall time);
//! * `resume_equivalence_ok` — a *correctness* value, not a timing: 1.0 iff
//!   a sweep stopped after 5 of 16 trials and resumed from its checkpoint
//!   reproduces the uninterrupted result set bit-for-bit.
//!
//! Results land in `BENCH_harness_checkpoint.json` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use distill_core::{Distill, DistillParams};
use distill_harness::checkpoint::encode_sim_result;
use distill_harness::{run_sweep, Checkpoint, SweepConfig, TrialSpec, Writer};
use distill_sim::{Engine, NullAdversary, SimConfig, SimResult, StopRule, World};
use std::path::PathBuf;
use std::sync::Arc;

/// The benchmark trial: a small DISTILL run, deterministic in its index.
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
            "bench-checkpoint n={N} honest={HONEST} m={M} goods={GOODS} seed={}",
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

/// Byte digest of a result set: the bit-identity oracle shared with
/// `tests/sweep_resume.rs`.
fn digest(results: &[(u64, SimResult)]) -> Vec<u8> {
    let mut w = Writer::new();
    for (t, r) in results {
        w.put_u64(*t);
        encode_sim_result(&mut w, r);
    }
    w.into_bytes()
}

/// Builds a checkpoint holding `trials` real results.
fn filled_checkpoint(trials: u64) -> Checkpoint {
    let spec = spec();
    let mut cfg = SweepConfig::new(trials);
    cfg.threads = 2;
    let report = run_sweep(spec.clone(), &cfg).expect("reference sweep");
    Checkpoint {
        fingerprint: report.fingerprint,
        total_trials: trials,
        completed: report
            .results
            .into_iter()
            .map(|(t, r)| (t, Arc::new(r)))
            .collect(),
    }
}

fn bench_checkpoint_io(c: &mut Criterion) {
    let ck = filled_checkpoint(64);
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);

    group.bench_function("encode_64", |b| b.iter(|| ck.encode()));

    let path = tmp("write-atomic.ckpt");
    group.bench_function("write_atomic_64", |b| {
        b.iter(|| ck.write_atomic(&path).expect("atomic write"))
    });

    let bytes = ck.encode();
    group.bench_function("decode_validate_64", |b| {
        b.iter(|| {
            Checkpoint::decode(&bytes)
                .expect("decode")
                .validate_for(ck.fingerprint, ck.total_trials)
                .expect("validate")
        })
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

fn bench_sweep_overhead(c: &mut Criterion) {
    let trials = 16u64;
    let ckpt = tmp("overhead.ckpt");
    {
        let mut group = c.benchmark_group("sweep");
        group.sample_size(10);

        let mut plain_cfg = SweepConfig::new(trials);
        plain_cfg.threads = 2;
        group.bench_function("plain_16", |b| {
            b.iter(|| run_sweep(spec(), &plain_cfg).expect("plain sweep"))
        });

        let mut ck_cfg = SweepConfig::new(trials);
        ck_cfg.threads = 2;
        ck_cfg.checkpoint = Some(ckpt.clone());
        ck_cfg.checkpoint_every = 1; // worst-case cadence: persist every trial
        group.bench_function("checkpointed_16", |b| {
            b.iter(|| {
                std::fs::remove_file(&ckpt).ok();
                run_sweep(spec(), &ck_cfg).expect("checkpointed sweep")
            })
        });
        group.finish();
    }
    std::fs::remove_file(&ckpt).ok();

    // The crash-safety tax as a fraction of sweep wall time, from the two
    // measurements above.
    let mean = |c: &Criterion, id: &str| c.results().iter().find(|r| r.id == id).map(|r| r.mean_ns);
    let plain = mean(c, "sweep/plain_16");
    let checkpointed = mean(c, "sweep/checkpointed_16");
    if let (Some(plain), Some(checkpointed)) = (plain, checkpointed) {
        if plain > 0.0 {
            let mut group = c.benchmark_group("sweep");
            group.report_value(
                "checkpoint_overhead_frac",
                (checkpointed - plain) / plain,
                "fraction",
            );
            group.finish();
        }
    }
}

fn bench_resume_equivalence(c: &mut Criterion) {
    let trials = 16u64;
    let mut fresh_cfg = SweepConfig::new(trials);
    fresh_cfg.threads = 2;
    let fresh = run_sweep(spec(), &fresh_cfg).expect("fresh sweep");

    let ckpt = tmp("resume-equiv.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let mut first = SweepConfig::new(trials);
    first.threads = 2;
    first.checkpoint = Some(ckpt.clone());
    first.checkpoint_every = 1;
    first.stop_after = Some(5);
    run_sweep(spec(), &first).expect("interrupted sweep");

    let mut second = SweepConfig::new(trials);
    second.threads = 2;
    second.checkpoint = Some(ckpt.clone());
    second.resume = true;
    let resumed = run_sweep(spec(), &second).expect("resumed sweep");
    std::fs::remove_file(&ckpt).ok();

    let identical = digest(&resumed.results) == digest(&fresh.results);
    assert!(
        identical,
        "resumed sweep must be bit-identical to a fresh run"
    );
    let mut group = c.benchmark_group("resume");
    group.report_value(
        "resume_equivalence_ok",
        f64::from(u8::from(identical)),
        "bool",
    );
    group.finish();
}

/// Routes the run's measurements into `BENCH_harness_checkpoint.json`.
fn configure_output(c: &mut Criterion) {
    c.set_json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_harness_checkpoint.json"
    ));
}

criterion_group!(
    benches,
    configure_output,
    bench_checkpoint_io,
    bench_sweep_overhead,
    bench_resume_equivalence
);
criterion_main!(benches);
