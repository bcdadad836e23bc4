//! `bounds`, `lemma9`, `meanfield`, `async` and `service-stress`.

use super::{err, parse_n, parse_trials, summary_or_blank, CliError};
use crate::args::Args;
use distill_analysis::{bounds, fmt_f, lemma9, Table};
use distill_sim::{NullAdversary, World};

pub(super) const BOUNDS_FLAGS: &[&str] = &["n", "m", "alpha", "beta", "q0", "eps"];

/// `distill bounds` — evaluate the paper's formulas.
pub fn run_bounds(args: &Args) -> Result<String, CliError> {
    args.ensure_known(BOUNDS_FLAGS)?;
    let n: f64 = args.get_or("n", 1024.0)?;
    let m: f64 = args.get_or("m", n)?;
    let alpha: f64 = args.get_or("alpha", 0.9)?;
    let beta: f64 = args.get_or("beta", 1.0 / m)?;
    let q0: f64 = args.get_or("q0", 1.0)?;
    let eps: f64 = args.get_or("eps", 0.5)?;
    if !(0.0 < alpha && alpha <= 1.0 && 0.0 < beta && beta <= 1.0) {
        return Err(err("alpha and beta must be in (0, 1]"));
    }

    let mut table = Table::new(
        format!("paper bounds at n={n} m={m} alpha={alpha} beta={beta}"),
        &["quantity", "value"],
    );
    table.row_owned(vec![
        "Delta = log(1/(1-a) + log n)".into(),
        fmt_f(bounds::delta(alpha, n)),
    ]);
    table.row_owned(vec![
        "Thm 4 upper (DISTILL individual cost)".into(),
        fmt_f(bounds::distill_upper(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "baseline upper (prior algorithm [1])".into(),
        fmt_f(bounds::baseline_upper(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "Thm 1 lower (collective work)".into(),
        fmt_f(bounds::theorem1_lower(n, alpha, beta)),
    ]);
    table.row_owned(vec![
        "Thm 2 lower (symmetry)".into(),
        fmt_f(bounds::theorem2_lower(alpha, beta)),
    ]);
    table.row_owned(vec![
        format!("Cor 5 upper at eps={eps}"),
        fmt_f(bounds::corollary5_upper(eps)),
    ]);
    table.row_owned(vec![
        format!("Thm 12 payment upper at q0={q0}"),
        fmt_f(bounds::theorem12_upper(n, m, alpha, q0)),
    ]);
    table.row_owned(vec![
        "random probing expectation (1/beta)".into(),
        fmt_f(bounds::random_probing_expected(beta)),
    ]);
    Ok(table.render())
}

pub(super) const MEANFIELD_FLAGS: &[&str] = &["n", "beta", "explore", "rounds"];

/// `distill meanfield` — predicted satisfaction dynamics of the baselines.
pub fn run_meanfield(args: &Args) -> Result<String, CliError> {
    use distill_analysis::meanfield;
    args.ensure_known(MEANFIELD_FLAGS)?;
    let n: f64 = args.get_or("n", 1024.0)?;
    let beta: f64 = args.get_or("beta", 1.0 / n)?;
    let explore: f64 = args.get_or("explore", 0.5)?;
    let rounds: usize = args.get_or("rounds", 200)?;
    if !(0.0 < beta && beta <= 1.0 && (0.0..=1.0).contains(&explore)) {
        return Err(err("need beta in (0,1] and explore in [0,1]"));
    }
    let random = meanfield::random_probing_curve(beta, rounds);
    let balance = meanfield::balance_curve(beta, explore, rounds);
    let mut table = Table::new(
        format!("mean-field satisfied fraction — beta={beta}, explore={explore}"),
        &["round", "random probing", "balance"],
    );
    let mut r = 1usize;
    while r <= rounds {
        table.row_owned(vec![r.to_string(), fmt_f(random[r]), fmt_f(balance[r])]);
        r = (r * 2).max(r + 1);
    }
    Ok(format!(
        "{table}\nexpected individual cost: random {} vs balance {}\n",
        fmt_f(meanfield::expected_individual_cost(&random)),
        fmt_f(meanfield::expected_individual_cost(&balance)),
    ))
}

pub(super) const ASYNC_FLAGS: &[&str] = &["n", "goods", "schedule", "trials", "seed"];

/// `distill async` — run the asynchronous model of \[1\].
pub fn run_async(args: &Args) -> Result<String, CliError> {
    use distill_sim::async_engine::{
        AsyncEngine, BalanceStep, Isolate, RandomSchedule, RoundRobin, Schedule, Starve,
    };
    use distill_sim::PlayerId;
    args.ensure_known(ASYNC_FLAGS)?;
    let n = parse_n(args)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: u64 = parse_trials(args, 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let schedule_name = args.str_or("schedule", "round-robin");
    match schedule_name.as_str() {
        "round-robin" | "random" | "isolate" | "starve" => {}
        other => return Err(err(format!("unknown schedule {other:?}"))),
    }
    let mut totals = Vec::new();
    let mut p0s = Vec::new();
    for t in 0..trials {
        let world = World::binary(n, goods, seed.wrapping_add(500).wrapping_add(t))
            .map_err(|e| err(e.to_string()))?;
        let schedule: Box<dyn Schedule> = match schedule_name.as_str() {
            "round-robin" => Box::new(RoundRobin::default()),
            "random" => Box::new(RandomSchedule),
            "isolate" => Box::new(Isolate::new(PlayerId(0))),
            _ => Box::new(Starve::new(PlayerId(0))),
        };
        let result = AsyncEngine::new(
            n,
            n,
            seed.wrapping_add(t),
            100_000_000,
            &world,
            Box::new(BalanceStep::new()),
            schedule,
            Box::new(NullAdversary),
        )
        .map_err(|e| err(e.to_string()))?
        .run()
        .map_err(|e| err(e.to_string()))?;
        totals.push(result.total_probes() as f64);
        p0s.push(result.probes_of(PlayerId(0)) as f64);
    }
    let mut table = Table::new(
        format!("async model — n=m={n} goods={goods} schedule={schedule_name} trials={trials}"),
        &["metric", "mean"],
    );
    table.row_owned(vec![
        "total probes (all players)".into(),
        fmt_f(summary_or_blank(&totals).mean),
    ]);
    table.row_owned(vec![
        "player-0 probes".into(),
        fmt_f(summary_or_blank(&p0s).mean),
    ]);
    Ok(table.render())
}

pub(super) const SERVICE_STRESS_FLAGS: &[&str] = &[
    "producers",
    "posts",
    "batch",
    "readers",
    "n",
    "m",
    "posts-per-round",
    "channel",
    "publish-every",
    "verify",
];

/// `distill service-stress` — drive the concurrent billboard service:
/// `--producers` threads submit `--posts` drafts in `--batch`-sized batches
/// through the bounded channel to the single applier, while `--readers`
/// epoch readers sync and tally concurrently. `--verify` replays the merged
/// log sequentially afterwards and fails (nonzero exit) unless the
/// concurrent end state is byte-identical.
pub fn run_service_stress(args: &Args) -> Result<String, CliError> {
    use distill_service::{run_stress, verify_linearization, StressConfig};
    args.ensure_known(SERVICE_STRESS_FLAGS)?;
    let producers: u32 = args.get_or("producers", 8)?;
    let posts: u64 = args.get_or("posts", 1_000_000)?;
    let batch: usize = args.get_or("batch", 1024)?;
    let readers: u32 = args.get_or("readers", 2)?;
    let n: u32 = args.get_or("n", 256)?;
    let m: u32 = args.get_or("m", 1024)?;
    let posts_per_round: u64 = args.get_or("posts-per-round", 256)?;
    let channel: usize = args.get_or("channel", 256)?;
    let publish_every: u64 = args.get_or("publish-every", 8)?;
    let config = StressConfig::new(producers, posts)
        .with_batch_posts(batch)
        .with_universe(n, m)
        .with_readers(readers)
        .with_posts_per_round(posts_per_round)
        .with_channel_batches(channel)
        .with_publish_every(publish_every);
    let policy = config.policy;
    let (outcome, snapshot) = run_stress(config).map_err(|e| err(e.to_string()))?;
    let mut table = Table::new(
        format!(
            "billboard service — {producers} producers × {posts} posts \
             (batch {batch}, {readers} readers, n={n}, m={m})"
        ),
        &["metric", "value"],
    );
    let ns_cell = |ns: Option<u64>| ns.map_or("-".into(), |v| format!("{v}"));
    table.row_owned(vec!["posts applied".into(), outcome.posts.to_string()]);
    table.row_owned(vec![
        "elapsed (ms)".into(),
        format!("{:.1}", outcome.elapsed_ns as f64 / 1e6),
    ]);
    table.row_owned(vec![
        "posts/sec".into(),
        format!("{:.0}", outcome.posts_per_sec),
    ]);
    table.row_owned(vec!["batches".into(), outcome.batches.to_string()]);
    table.row_owned(vec![
        "held out of order".into(),
        outcome.held_out_of_order.to_string(),
    ]);
    table.row_owned(vec![
        "max pending batches".into(),
        outcome.max_pending.to_string(),
    ]);
    table.row_owned(vec![
        "epochs published".into(),
        outcome.epochs_published.to_string(),
    ]);
    table.row_owned(vec!["reader samples".into(), outcome.reads.to_string()]);
    table.row_owned(vec![
        "tally p50/p99 (ns)".into(),
        format!(
            "{} / {}",
            ns_cell(outcome.tally_p50_ns),
            ns_cell(outcome.tally_p99_ns)
        ),
    ]);
    table.row_owned(vec![
        "sync p50/p99 (ns)".into(),
        format!(
            "{} / {}",
            ns_cell(outcome.sync_p50_ns),
            ns_cell(outcome.sync_p99_ns)
        ),
    ]);
    table.row_owned(vec![
        "tally digest".into(),
        format!("{:016x}", outcome.tally_digest),
    ]);
    if args.has("verify") {
        let ok = verify_linearization(&snapshot, policy);
        table.row_owned(vec![
            "linearization vs sequential replay".into(),
            if ok { "ok" } else { "FAILED" }.into(),
        ]);
        if !ok {
            return Err(err(format!(
                "linearization check failed: the concurrent end state diverges \
                 from a sequential replay of the merged log\n{}",
                table.render()
            )));
        }
    }
    Ok(table.render())
}

pub(super) const LEMMA9_FLAGS: &[&str] = &["a"];

/// `distill lemma9 <c0,c1,...> --a <f64>` — check the inequality.
pub fn run_lemma9(args: &Args) -> Result<String, CliError> {
    args.ensure_known(LEMMA9_FLAGS)?;
    let seq_raw = args
        .positional
        .first()
        .ok_or_else(|| err("lemma9 needs a sequence, e.g. `distill lemma9 25,23,22,18,14,7`"))?;
    let seq: Vec<u64> = seq_raw
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err(format!("cannot parse sequence {seq_raw:?}")))?;
    if seq.is_empty() || seq.contains(&0) {
        return Err(err("sequence must be non-empty positive integers"));
    }
    if seq.windows(2).any(|w| w[1] > w[0]) {
        return Err(err("lemma 9 applies to non-increasing sequences"));
    }
    let a: f64 = args.get_or("a", 0.1)?;
    if !(0.0 < a && a < 1.0) {
        return Err(err("--a must be in (0, 1)"));
    }
    let g = lemma9::g_a(&seq, a);
    let rhs = lemma9::lemma9_rhs(&seq, a);
    let rhs_corr = lemma9::lemma9_corrected_rhs(&seq, a);
    let mut table = Table::new(
        format!("Lemma 9 check — sigma={seq:?}, a={a}"),
        &["quantity", "value", "holds?"],
    );
    table.row_owned(vec![
        "f(sigma)".into(),
        fmt_f(lemma9::f_ratio_sum(&seq)),
        "-".into(),
    ]);
    table.row_owned(vec!["g_a(sigma)".into(), fmt_f(g), "-".into()]);
    table.row_owned(vec![
        "paper rhs (ceil(f)+1)·a^(1/c0)".into(),
        fmt_f(rhs),
        if g <= rhs + 1e-9 { "yes" } else { "VIOLATED" }.into(),
    ]);
    table.row_owned(vec![
        "corrected rhs (2f+log2(c0)+1)·a^(1/c0)".into(),
        fmt_f(rhs_corr),
        if g <= rhs_corr + 1e-9 {
            "yes"
        } else {
            "VIOLATED"
        }
        .into(),
    ]);
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use crate::commands::tests::parse;

    #[test]
    fn service_stress_runs_and_verifies() {
        let args = Args::parse(
            [
                "service-stress",
                "--producers",
                "4",
                "--posts",
                "20000",
                "--batch",
                "256",
                "--readers",
                "1",
                "--verify",
            ]
            .iter()
            .copied(),
            &["verify"],
        )
        .unwrap();
        let out = run_service_stress(&args).unwrap();
        assert!(out.contains("posts applied"));
        assert!(out.contains("20000"));
        assert!(out.contains("linearization"));
        assert!(out.contains("ok"));
        // unknown flags are rejected
        let bad = Args::parse(["service-stress", "--bogus", "1"].iter().copied(), &[]).unwrap();
        assert!(run_service_stress(&bad).is_err());
    }

    #[test]
    fn bounds_table_renders() {
        let out = dispatch(&parse(&["bounds", "--n", "1024", "--alpha", "0.9"])).unwrap();
        assert!(out.contains("Thm 4"));
        assert!(out.contains("Thm 12"));
        assert!(dispatch(&parse(&["bounds", "--alpha", "1.5"])).is_err());
    }

    #[test]
    fn lemma9_detects_the_counterexample() {
        let out = dispatch(
            &Args::parse(
                ["lemma9", "25,23,22,18,14,7", "--a", "0.0019304541362277093"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(
            out.contains("VIOLATED"),
            "the documented counterexample: {out}"
        );
        assert!(
            out.matches("yes").count() >= 1,
            "corrected bound holds: {out}"
        );
    }

    #[test]
    fn meanfield_prints_dynamics() {
        let out = dispatch(&parse(&["meanfield", "--n", "1024", "--rounds", "64"])).unwrap();
        assert!(out.contains("balance"));
        assert!(out.contains("expected individual cost"));
        assert!(dispatch(&parse(&["meanfield", "--beta", "2.0"])).is_err());
    }

    #[test]
    fn async_runs_schedules() {
        for sched in ["round-robin", "isolate", "starve"] {
            let out = dispatch(&parse(&[
                "async",
                "--n",
                "32",
                "--trials",
                "2",
                "--schedule",
                sched,
            ]))
            .unwrap();
            assert!(out.contains("player-0 probes"), "{sched}: {out}");
        }
        assert!(dispatch(&parse(&["async", "--schedule", "nope"])).is_err());
    }

    #[test]
    fn isolate_costs_player_zero_more() {
        let grab = |sched: &str| -> f64 {
            let out = dispatch(&parse(&[
                "async",
                "--n",
                "64",
                "--trials",
                "3",
                "--schedule",
                sched,
            ]))
            .unwrap();
            let line = out
                .lines()
                .find(|l| l.contains("player-0 probes"))
                .expect("metric line")
                .to_string();
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        assert!(
            grab("isolate") > grab("starve"),
            "isolation must dominate starvation"
        );
    }

    #[test]
    fn lemma9_validates_input() {
        assert!(dispatch(&parse(&["lemma9"])).is_err());
        assert!(dispatch(&parse(&["lemma9", "3,5"])).is_err()); // increasing
        assert!(dispatch(&parse(&["lemma9", "abc"])).is_err());
        assert!(dispatch(&Args::parse(["lemma9", "4,2", "--a", "1.5"], &[]).unwrap()).is_err());
        // a valid, holding case
        let out =
            dispatch(&Args::parse(["lemma9", "8,4,2,1", "--a", "0.01"], &[]).unwrap()).unwrap();
        assert!(!out.contains("VIOLATED"));
    }
}
