//! `run` and `gauntlet`.

use super::spec::{ensure_spec_flags, make_cohort, parse_sweep_spec, run_spec, SweepSpec};
use super::{err, parse_n, parse_trials, summary_or_blank, CliError};
use crate::args::Args;
use distill_adversary::{gauntlet, GauntletEntry};
use distill_analysis::{bounds, fmt_f, Table};
use distill_harness::TrialSpec;
use distill_sim::{Engine, SimConfig, SimResult, StopRule, World};

/// `distill run` — simulate one configuration.
pub fn run(args: &Args) -> Result<String, CliError> {
    ensure_spec_flags(args, &[])?;
    let (spec, trials) = parse_sweep_spec(args)?;
    let SweepSpec {
        n,
        m,
        honest,
        goods,
        f,
        faults,
        ref algorithm,
        adversary,
        ..
    } = spec;
    let alpha = f64::from(honest) / f64::from(n);
    let title = format!(
        "{algorithm} vs {} — n={n} m={m} honest={honest} (alpha={alpha:.3}) \
         goods={goods} f={f} trials={trials}",
        adversary.name
    );
    // The per-trial numbers the table prints, in trial order; the results
    // themselves are dropped as they stream past.
    let (mut costs, mut rounds, mut done) = (Vec::new(), Vec::new(), 0u64);
    let mut survivor_costs = Vec::new();
    let mut counters: [Vec<f64>; 3] = Default::default();
    run_spec(spec, trials, |_, r| {
        costs.push(r.mean_probes());
        rounds.push(r.rounds as f64);
        done += u64::from(r.all_satisfied);
        survivor_costs.push(r.mean_probes_survivors());
        let c = &r.faults;
        for (xs, v) in counters
            .iter_mut()
            .zip([c.posts_dropped, c.crashes, c.recoveries])
        {
            xs.push(v as f64);
        }
    })?;
    let cost = summary_or_blank(&costs);
    let rds = summary_or_blank(&rounds);

    let mut table = Table::new(title, &["metric", "mean", "min", "max"]);
    table.row_owned(vec![
        "individual cost (probes)".into(),
        fmt_f(cost.mean),
        fmt_f(cost.min),
        fmt_f(cost.max),
    ]);
    table.row_owned(vec![
        "rounds".into(),
        fmt_f(rds.mean),
        fmt_f(rds.min),
        fmt_f(rds.max),
    ]);
    table.row_owned(vec![
        "trials fully satisfied".into(),
        format!("{done}/{trials}"),
        "-".into(),
        "-".into(),
    ]);
    if !faults.is_noop() {
        let labels = ["posts dropped", "crashes", "recoveries"];
        let rows = std::iter::once(("survivor cost (probes)", &survivor_costs))
            .chain(labels.into_iter().zip(&counters));
        for (label, xs) in rows {
            let s = summary_or_blank(xs);
            table.row_owned(vec![
                label.into(),
                fmt_f(s.mean),
                fmt_f(s.min),
                fmt_f(s.max),
            ]);
        }
    }
    let beta = f64::from(goods) / f64::from(m);
    let bound = bounds::distill_upper(f64::from(n), alpha, beta);
    let mut out = format!(
        "{table}\nTheorem 4 shape for these parameters: {} (measured/bound = {})\n",
        fmt_f(bound),
        fmt_f(cost.mean / bound)
    );
    // Crash-stop churn shrinks the honest fraction to α′ = α(1 − crash):
    // the degradation experiments compare survivor cost to the bound there.
    if faults.crash_rate > 0.0 && faults.recovery_rate == 0.0 {
        let alpha_eff = alpha * (1.0 - faults.crash_rate);
        if alpha_eff > 0.0 {
            let bound_eff = bounds::distill_upper(f64::from(n), alpha_eff, beta);
            out.push_str(&format!(
                "Theorem 4 shape at effective alpha' = {alpha_eff:.3}: {}\n",
                fmt_f(bound_eff)
            ));
        }
    }
    Ok(out)
}

pub(super) const GAUNTLET_FLAGS: &[&str] = &["n", "honest", "goods", "trials", "seed", "algorithm"];

/// One `gauntlet` row as a trial spec: `algorithm` against the adversary of
/// `entry`, with the gauntlet's own world and engine seeds.
struct GauntletSpec {
    n: u32,
    honest: u32,
    goods: u32,
    seed: u64,
    algorithm: String,
    entry: GauntletEntry,
}

impl TrialSpec for GauntletSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        let world = World::binary(
            self.n,
            self.goods,
            self.seed.wrapping_add(7_000).wrapping_add(trial),
        )
        .expect("validated world");
        let alpha = f64::from(self.honest) / f64::from(self.n);
        let cohort = make_cohort(&self.algorithm, self.n, self.n, alpha, world.beta())
            .expect("validated algorithm");
        let config = SimConfig::new(self.n, self.honest, self.seed(trial))
            .with_stop(StopRule::all_satisfied(1_000_000));
        Engine::new(config, &world, cohort, (self.entry.make)())
            .expect("validated configuration")
            .run()
            .expect("engine run on validated inputs")
    }

    fn seed(&self, trial: u64) -> u64 {
        self.seed.wrapping_add(trial)
    }

    fn describe(&self) -> String {
        format!(
            "gauntlet v1 n={} honest={} goods={} algorithm={} adversary={} seed={}",
            self.n, self.honest, self.goods, self.algorithm, self.entry.name, self.seed
        )
    }
}

/// `distill gauntlet` — one algorithm against every strategy.
pub fn run_gauntlet(args: &Args) -> Result<String, CliError> {
    args.ensure_known(GAUNTLET_FLAGS)?;
    let n = parse_n(args)?;
    let default_honest = ((f64::from(n)) * 0.75).round() as u32;
    let honest: u32 = args.get_or("honest", default_honest)?;
    let goods: u32 = args.get_or("goods", 1)?;
    let trials: u64 = parse_trials(args, 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let algorithm = args.str_or("algorithm", "distill");
    if honest == 0 || honest > n {
        return Err(err(format!("--honest {honest} must be in 1..={n}")));
    }
    if goods == 0 || goods > n {
        return Err(err(format!("--goods {goods} must be in 1..={n}")));
    }
    let alpha = f64::from(honest) / f64::from(n);
    make_cohort(&algorithm, n, n, alpha, f64::from(goods) / f64::from(n))?;

    let mut table = Table::new(
        format!("{algorithm} gauntlet — n=m={n} honest={honest} trials={trials}"),
        &["adversary", "mean cost", "mean rounds", "all satisfied"],
    );
    for entry in gauntlet() {
        let spec = GauntletSpec {
            n,
            honest,
            goods,
            seed,
            algorithm: algorithm.clone(),
            entry,
        };
        let (mut cost, mut rounds, mut ok) = (0.0, 0.0, true);
        run_spec(spec, trials, |_, r| {
            cost += r.mean_probes();
            rounds += r.rounds as f64;
            ok &= r.all_satisfied;
        })?;
        table.row_owned(vec![
            entry.name.to_string(),
            fmt_f(cost / trials as f64),
            fmt_f(rounds / trials as f64),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use crate::commands::tests::parse;

    #[test]
    fn run_small_simulation() {
        let out = dispatch(&parse(&[
            "run",
            "--n",
            "32",
            "--honest",
            "24",
            "--trials",
            "3",
            "--algorithm",
            "distill",
            "--adversary",
            "uniform-bad",
        ]))
        .unwrap();
        assert!(out.contains("individual cost"));
        assert!(out.contains("3/3"), "all trials should satisfy: {out}");
        assert!(out.contains("Theorem 4"));
    }

    #[test]
    fn run_with_faults_reports_counters_and_alpha_eff() {
        let out = dispatch(&parse(&[
            "run",
            "--n",
            "32",
            "--honest",
            "28",
            "--trials",
            "3",
            "--drop-rate",
            "0.2",
            "--crash-rate",
            "0.25",
            "--view-lag",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("posts dropped"), "fault rows missing: {out}");
        assert!(out.contains("survivor cost"));
        assert!(out.contains("effective alpha'"), "no alpha' line: {out}");
    }

    #[test]
    fn noop_fault_flags_print_no_fault_rows() {
        let out = dispatch(&parse(&[
            "run", "--n", "32", "--honest", "24", "--trials", "2",
        ]))
        .unwrap();
        assert!(!out.contains("posts dropped"));
        assert!(!out.contains("effective alpha'"));
    }

    #[test]
    fn run_rejects_nonsense() {
        assert!(dispatch(&parse(&["run", "--algorithm", "nope"])).is_err());
        assert!(dispatch(&parse(&["run", "--adversary", "nope"])).is_err());
        assert!(dispatch(&parse(&["run", "--honest", "0"])).is_err());
        assert!(dispatch(&parse(&["run", "--drop-rate", "1.5"])).is_err());
        assert!(dispatch(&parse(&[
            "run",
            "--crash-rate",
            "0.5",
            "--crash-window",
            "0"
        ]))
        .is_err());
        assert!(dispatch(&parse(&["run", "--bogus-flag", "1"])).is_err());
        assert!(dispatch(&parse(&["frobnicate"])).is_err());
    }

    /// `run`'s stdout on a faulted spec, pinned byte for byte (sha256
    /// `458430a3…e8700`).
    #[test]
    fn run_stdout_is_pinned() {
        let out = dispatch(&parse(&[
            "run",
            "--n",
            "24",
            "--honest",
            "20",
            "--goods",
            "2",
            "--trials",
            "6",
            "--seed",
            "31",
            "--f",
            "2",
            "--drop-rate",
            "0.2",
            "--view-lag",
            "1",
            "--crash-rate",
            "0.3",
            "--crash-window",
            "8",
            "--recovery-rate",
            "0.2",
        ]))
        .unwrap();
        let expected = r#"== distill vs uniform-bad — n=24 m=24 honest=20 (alpha=0.833) goods=2 f=2 trials=6 ==
                  metric   mean    min    max
---------------------------------------------
individual cost (probes)  5.342  3.300  8.400
                  rounds   13.8   11.0   19.0
  trials fully satisfied    6/6      -      -
  survivor cost (probes)  5.676  3.636  8.917
           posts dropped   21.8  9.000   37.0
                 crashes  7.833  7.000  9.000
              recoveries  7.333  6.000  8.000

Theorem 4 shape for these parameters: 2.320 (measured/bound = 2.302)

"#;
        assert_eq!(format!("{out}\n"), expected);
    }

    /// `gauntlet`'s stdout, pinned byte for byte (sha256 `30ec9e44…bb95`):
    /// every row keeps its world and engine seeds.
    #[test]
    fn gauntlet_stdout_is_pinned() {
        let out = dispatch(&parse(&[
            "gauntlet", "--n", "64", "--trials", "3", "--seed", "5",
        ]))
        .unwrap();
        let expected = r#"== distill gauntlet — n=m=64 honest=48 trials=3 ==
        adversary  mean cost  mean rounds  all satisfied
--------------------------------------------------------
             null      4.799        5.000            yes
      uniform-bad       14.6         21.0            yes
        collusive       11.5         15.7            yes
threshold-matcher      7.736         14.7            yes
          slander       14.6         21.0            yes
   ballot-stuffer       14.2         21.0            yes
      advice-bait       14.3         22.0            yes
             lull      4.799        5.000            yes
          flooder       14.5         21.0            yes

"#;
        assert_eq!(format!("{out}\n"), expected);
    }

    /// `--adversary` takes every name of the gauntlet registry, `lull`
    /// included, and nothing else.
    #[test]
    fn run_accepts_every_gauntlet_adversary() {
        for entry in gauntlet() {
            let argv = [
                "run",
                "--n",
                "16",
                "--trials",
                "1",
                "--adversary",
                entry.name,
            ];
            let out = dispatch(&parse(&argv)).unwrap();
            assert!(
                out.contains(&format!("distill vs {} —", entry.name)),
                "{out}"
            );
        }
        let e = dispatch(&parse(&["run", "--adversary", "mimicry"])).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown adversary \"mimicry\" (try `distill help`)"
        );
    }

    #[test]
    fn gauntlet_reports_every_strategy() {
        let out = dispatch(&parse(&["gauntlet", "--n", "32", "--trials", "2"])).unwrap();
        for entry in gauntlet() {
            assert!(out.contains(entry.name), "missing {} in {out}", entry.name);
        }
        assert!(
            !out.contains("NO"),
            "all strategies must be survived: {out}"
        );
    }
}
