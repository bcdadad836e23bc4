//! The repository benchmark: the E1/E18 sweeps, the lease fabric and
//! billboard-service ingest, timed end to end and, in a traced run, layer
//! by layer. `README.md` beside this file explains the workloads and
//! metrics; `BENCHMARK.json` at the repository root names them.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale full|smoke] [--scratch DIR] [--json FILE] [--commit LABEL]
//!           [--inject-panic TRIAL]
//! benchmark [same options, no --workload]   every workload, one child process each
//! benchmark --compare RUNS_A.json RUNS_B.json
//! ```
//!
//! One workload run prints `name = value unit` lines, then, as its last
//! line, `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! It exits 1 when a correctness check fails and 2 on bad arguments.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod heap;
mod host;
mod json;
mod layers;
mod service;
mod stats;
mod sweeps;
mod trace;

use json::{obj, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Load threads: fixed, not scaled to the machine, so runs on different
/// hosts measure the same program.
pub const THREADS: usize = 2;

/// The benchmark's definition, compiled in so the program and the file
/// cannot disagree about names, units, directions or bounds.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

struct MetricDef {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

struct BenchDef {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

impl BenchDef {
    fn load() -> Result<Self, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let field = |key: &str| doc.get(key).ok_or(format!("BENCHMARK.json lacks {key:?}"));
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            field(key)?
                .as_array()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: a {key} metric lacks {k:?}"))
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(BenchDef {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
            workloads: field("workloads")?
                .as_array()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--scale smoke`: tiny sizes for the smoke test instead of the sizes
    /// `BENCHMARK.json` is calibrated for.
    pub smoke: bool,
    /// Fabric queues, checkpoints and span files go here.
    pub scratch: PathBuf,
    pub json: Option<PathBuf>,
    pub commit: String,
    /// Test hook: the trial index that panics in every sweep batch and
    /// fabric sweep.
    pub inject_panic: Option<u64>,
}

enum Command {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String], def: &BenchDef) -> Result<Command, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: def.run_seconds,
        trace: false,
        smoke: false,
        scratch: PathBuf::from("target/benchmark"),
        json: None,
        commit: "unknown".to_string(),
        inject_panic: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                return Ok(Command::Compare(a, b));
            }
            "--workload" => {
                let name = value()?;
                if !def.workloads.contains(name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                opts.workload = Some(name.clone());
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: bad duration {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                opts.smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    other => return Err(format!("--scale takes full or smoke, not {other:?}")),
                }
            }
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            "--commit" => opts.commit = value()?.clone(),
            "--inject-panic" => opts.inject_panic = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(opts))
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Per-unit samples of each end-to-end metric (one per batch, sweep or
    /// session); the reported value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced run only: traced / untraced wall time − 1, per unit pair.
    pub overhead: Vec<f64>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Run {
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// One unit of load as a workload timed it, in wall seconds.
pub struct Unit {
    /// Operations completed: trials, or posts for the service.
    pub ops: u64,
    /// From the first operation to the last result.
    pub wall_s: f64,
    /// Setting the unit up before its first operation.
    pub setup_s: f64,
}

/// Calls `unit(0, run)`, `unit(1, run)`, … until `seconds` have passed
/// since the first call began, and at least twice. Unit 0 is a warm-up and
/// is not sampled. Each later unit's times are converted to reference
/// seconds with the calibration kernel run just before and just after it
/// (`host`), and its live-heap peak is read after resetting it before the
/// unit (`heap`).
///
/// `peak_heap_mb` is the mean of the middle half of the units' peaks: the
/// peak of an `e1_fabric` unit depends on how the two workers' checkpoint
/// rewrites happened to overlap and falls on a few discrete values about
/// 15 % apart, so a median flips between them from run to run.
pub fn for_duration(
    seconds: f64,
    run: &mut Run,
    mut unit: impl FnMut(u64, &mut Run) -> Result<Unit, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut wall_rates = Vec::new();
    let mut speeds = Vec::new();
    let mut heap_peaks = Vec::new();
    let mut before = host::kernel_s();
    let mut k = 0;
    loop {
        heap::reset_peak();
        let timed = unit(k, run)?;
        let heap_mb = heap::peak_mb();
        let after = host::kernel_s();
        if k > 0 {
            let speed = host::speed(before, after);
            run.sample("ops_per_s", timed.ops as f64 / (timed.wall_s * speed));
            run.sample("setup_s", timed.setup_s * speed);
            heap_peaks.push(heap_mb);
            wall_rates.push(timed.ops as f64 / timed.wall_s);
            speeds.push(speed);
        }
        before = after;
        k += 1;
        if k >= 2 && start.elapsed().as_secs_f64() >= seconds {
            run.sample("peak_heap_mb", stats::interquartile_mean(&heap_peaks));
            run.note(format!(
                "ops per wall second {:.6}, host speed {:.4} (medians over {} units)",
                stats::median(&wall_rates),
                stats::median(&speeds),
                speeds.len()
            ));
            return Ok(());
        }
    }
}

fn run_workload(name: &str, opts: &Opts) -> Result<Run, String> {
    let smoke = opts.smoke;
    let mut run = Run::default();
    match name {
        "e1_sweep" => sweeps::run_sweeps(
            &sweeps::SweepPlan {
                shape: sweeps::e1_shape(if smoke { 256 } else { 4096 }),
                batch: if smoke { 32 } else { 1000 },
                replay_every: 256,
                check_bound: false,
            },
            opts,
            &mut run,
        )?,
        "e18_sweep_1m" => sweeps::run_sweeps(
            &sweeps::SweepPlan {
                shape: sweeps::e18_shape(if smoke { 10_000 } else { 1_000_000 }),
                batch: 4,
                replay_every: 4,
                check_bound: true,
            },
            opts,
            &mut run,
        )?,
        "e1_fabric" => sweeps::run_fabric(
            &sweeps::FabricPlan {
                shape: sweeps::e1_shape(if smoke { 256 } else { 4096 }),
                trials: if smoke { 32 } else { 256 },
                chunk: 16,
                checkpoint_every: 8,
                replay_every: 256,
            },
            opts,
            &mut run,
        )?,
        "service_ingest" => {
            service::run_service(if smoke { 200_000 } else { 10_000_000 }, opts, &mut run)?;
        }
        other => return Err(format!("workload {other:?} has no implementation")),
    }
    Ok(run)
}

fn env_block(opts: &Opts) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let scale = if opts.smoke { "smoke" } else { "full" };
    obj([
        ("nproc", Json::Num(nproc as f64)),
        ("profile", Json::Str(profile.into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("scale", Json::Str(scale.into())),
        ("threads", Json::Num(THREADS as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("commit", Json::Str(opts.commit.clone())),
    ])
}

/// Appends this run's rows to the run-set file at `path` (created if
/// missing), in the typed-row schema `distill_harness::parse_bench_json`
/// reads. The `env` block describes the latest run.
fn append_rows(path: &PathBuf, opts: &Opts, rows: Vec<Json>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut benches = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("benches")
            .map(|b| b.as_array().to_vec())
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io(e)),
    };
    benches.extend(rows);
    let mut out = String::from("{\n  \"env\": ");
    env_block(opts).write(&mut out);
    out.push_str(",\n  \"benches\": [\n");
    for (i, row) in benches.iter().enumerate() {
        out.push_str("    ");
        row.write(&mut out);
        out.push_str(if i + 1 < benches.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(io)
}

/// One run's row for a metric: its value (the median over units) plus the
/// mean and minimum of the per-unit samples.
fn bench_row(id: String, unit: &str, samples: &[f64], seed: u64) -> Json {
    let value = stats::median(samples);
    let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    let min = samples.iter().copied().fold(value, f64::min);
    obj([
        ("id", Json::Str(id)),
        ("kind", Json::Str("value".into())),
        ("unit", Json::Str(unit.into())),
        ("mean_ns", Json::Num(mean)),
        ("median_ns", Json::Num(value)),
        ("min_ns", Json::Num(min)),
        ("samples", Json::Num(samples.len().max(1) as f64)),
        ("seed", Json::Num(seed as f64)),
    ])
}

fn run_one(name: &str, opts: &Opts, def: &BenchDef) -> Result<bool, String> {
    let run = run_workload(name, opts)?;
    let expected = if opts.trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let values: BTreeMap<String, Vec<f64>> = if opts.trace {
        let (spans, counters) = trace::take();
        let dir = opts.scratch.join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!("{name}.spans.jsonl"));
        trace::write_jsonl(&spans, &file).map_err(|e| format!("{}: {e}", file.display()))?;
        println!("spans {} ({} spans)", file.display(), spans.len());
        layers::derive(&spans, &counters, &run.overhead)
            .into_iter()
            .map(|(k, v)| (k, vec![v]))
            .collect()
    } else {
        run.samples
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    };

    for line in &run.notes {
        println!("{name}: {line}");
    }
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    println!("{name}/failed_frac = {failed_frac} frac");
    let mut metrics = Vec::new();
    let mut rows = Vec::new();
    for m in expected {
        let samples = values
            .get(&m.name)
            .ok_or(format!("{name}: the run did not measure {}", m.name))?;
        let value = stats::median(samples);
        println!(
            "{name}/{} = {value} {} (n={})",
            m.name,
            m.unit,
            samples.len()
        );
        metrics.push((
            m.name.clone(),
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
        rows.push(bench_row(
            format!("{name}/{}", m.name),
            &m.unit,
            samples,
            opts.seed,
        ));
    }
    if let Some(path) = &opts.json {
        append_rows(path, opts, rows)?;
    }
    for problem in &run.problems {
        eprintln!("{name}: check failed: {problem}");
    }
    let correct = run.problems.is_empty();
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(correct)
}

/// Runs every workload in its own child process, so each one's heap and
/// start-up are its own.
fn run_all(args: &[String], def: &BenchDef) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_ok = true;
    for name in &def.workloads {
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(name)
            .args(args)
            .status()
            .map_err(|e| format!("starting the {name} workload: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn load_runs(path: &PathBuf) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows =
        distill_harness::parse_bench_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for row in rows {
        runs.entry(row.id).or_default().push(row.median_ns);
    }
    Ok(runs)
}

/// Compares two run sets pair by pair (workload × end-to-end metric).
/// Returns true when no pair reads worse or unresolved.
fn compare(a: &PathBuf, b: &PathBuf, def: &BenchDef) -> Result<bool, String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut ok = true;
    println!(
        "{:<28} {:>36} {:>36} {:>8}  verdict",
        "workload/metric", "A median [q1, q3] runs", "B median [q1, q3] runs", "change"
    );
    for w in &def.workloads {
        for m in &def.end_to_end {
            let id = format!("{w}/{}", m.name);
            let (Some(va), Some(vb)) = (runs_a.get(&id), runs_b.get(&id)) else {
                continue;
            };
            // Median, (q3 - q1) / median, and a printable summary; fewer
            // than two runs have no quartiles, so their spread is NaN and
            // the pair reads unresolved.
            let side = |v: &[f64]| {
                let med = stats::median(v);
                let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
                let text = format!("{med:.4e} [{q1:.4e}, {q3:.4e}] {}", v.len());
                (med, (q3 - q1) / med, text)
            };
            let (ma, spread_a, text_a) = side(va);
            let (mb, spread_b, text_b) = side(vb);
            let change = if m.higher_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if !(spread_a <= m.bound && spread_b <= m.bound) {
                "unresolved"
            } else if change < -m.bound {
                "worse"
            } else if change > m.bound {
                "better"
            } else {
                "same"
            };
            ok &= matches!(verdict, "same" | "better");
            println!(
                "{id:<28} {text_a:>36} {text_b:>36} {:>+7.2}%  {verdict}",
                change * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let def = match BenchDef::load() {
        Ok(def) => def,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let command = match parse_args(&args, &def) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Compare(a, b) => compare(&a, &b, &def),
        Command::Run(opts) => match &opts.workload {
            Some(name) => run_one(name, &opts, &def),
            None => run_all(&args, &def),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
