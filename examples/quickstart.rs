//! Quickstart: DISTILL vs the epidemic baseline.
//!
//! Reproduces the paper's headline comparison in miniature: with most
//! players honest, DISTILL's individual cost is (nearly) constant in `n`,
//! while the prior algorithm's explore/exploit rule pays `Θ(log n)`.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distill::prelude::*;

fn mean_cost_over_trials(
    n: u32,
    honest: u32,
    trials: u64,
    make_cohort: &dyn Fn(&World) -> Box<dyn Cohort>,
) -> f64 {
    let costs: Vec<f64> = (0..trials)
        .map(|t| {
            let world = World::binary(n, 1, 9000 + t).expect("valid world");
            let cohort = make_cohort(&world);
            let config = SimConfig::new(n, honest, 100 + t)
                .with_stop(StopRule::all_satisfied(500_000))
                .with_negative_reports(false);
            Engine::new(config, &world, cohort, Box::new(UniformBad::new()))
                .expect("valid engine")
                .run()
                .unwrap()
                .mean_probes()
        })
        .collect();
    Summary::of(&costs).map_or(f64::NAN, |s| s.mean)
}

fn main() {
    println!("DISTILL vs baselines — one good object among m = n, sqrt(n) dishonest players\n");
    let mut table = Table::new(
        "mean individual cost (probes per honest player)",
        &[
            "n",
            "distill",
            "balance [1]",
            "random",
            "paper shape: ln(n)",
        ],
    );

    for &n in &[64u32, 256, 1024, 4096, 16384] {
        // Corollary 5 regime: √n dishonest players (α = 1 − n^{−1/2}).
        let honest = n - (f64::from(n).sqrt().round() as u32);
        let trials = 30;
        let alpha = f64::from(honest) / f64::from(n);

        let distill = mean_cost_over_trials(n, honest, trials, &|w: &World| {
            let params = DistillParams::new(n, n, alpha, w.beta()).expect("valid params");
            Box::new(Distill::new(params))
        });
        let balance =
            mean_cost_over_trials(n, honest, trials, &|_w: &World| Box::new(Balance::new()));
        let random = mean_cost_over_trials(n, honest, trials, &|_w: &World| {
            Box::new(RandomProbing::new())
        });

        table.row_owned(vec![
            n.to_string(),
            fmt_f(distill),
            fmt_f(balance),
            fmt_f(random),
            fmt_f(f64::from(n).ln()),
        ]);
    }
    println!("{table}");
    println!("Expected shape: the `distill` column stays nearly flat while");
    println!("`balance` tracks ln(n) and `random` tracks 1/beta = n.");
}
