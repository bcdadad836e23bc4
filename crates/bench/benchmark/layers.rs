//! Per-layer metrics, derived from a traced run's spans and counters.
//!
//! Every workload reports every metric; a layer the workload does not
//! exercise reads 0 (no spans, no counter samples).

use crate::stats::{median, percentile, sorted};
use crate::trace::{Span, Spans};
use crate::THREADS;
use std::collections::BTreeMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A worker's idle time between consecutive trials on one thread.
fn dispatch_gaps_ns(trials: &[&Span]) -> Vec<f64> {
    let mut by_thread: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in trials {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut gaps = Vec::new();
    for spans in by_thread.values_mut() {
        spans.sort_by_key(|s| s.start_ns);
        gaps.extend(
            spans
                .windows(2)
                .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns) as f64),
        );
    }
    gaps
}

/// Every per-layer metric, by name.
pub fn derive(
    spans: &[Span],
    counters: &[(&'static str, f64)],
    overhead: &[f64],
) -> BTreeMap<String, f64> {
    let view = Spans::new(spans);
    let at = |values: &[f64], p: usize, scale: f64| percentile(&sorted(values), p) / scale;
    let pct = |name: &str, p: usize, scale: f64| at(&view.durations(name), p, scale);
    let total = |name: &str| view.total_ns(name);
    // Sampled trials replay their billboard inside the trial span; that
    // replay is trace-only work.
    let trials = view.durations_without("sim.trial", "billboard.replay");
    let trial_ns: f64 = trials.iter().sum();
    let calls = |name: &str| view.named(name).len() as f64;
    let counter = |name: &str| {
        let v: Vec<f64> = counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    let (ms, us) = (1e6, 1e3);

    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    };
    put("sim.world_build_ms_p50", pct("sim.world_build", 50, ms));
    put("sim.engine_new_ms_p50", pct("sim.engine_new", 50, ms));
    put("sim.step_ms_p50", pct("sim.step", 50, ms));
    put("sim.step_ms_p99", pct("sim.step", 99, ms));
    put(
        "sim.step_self_ms_p50",
        at(&view.self_times("sim.step"), 50, ms),
    );
    put("sim.finalize_ms_p50", pct("sim.finalize", 50, ms));
    put("sim.trial_ms_p50", at(&trials, 50, ms));
    put("sim.trial_ms_p99", at(&trials, 99, ms));
    put(
        "sim.setup_share",
        ratio(total("sim.world_build") + total("sim.engine_new"), trial_ns),
    );
    put(
        "sim.rounds_per_trial",
        ratio(calls("sim.step"), calls("sim.trial")),
    );

    put("core.directive_us_p50", pct("core.directive", 50, us));
    put(
        "core.directive_share",
        ratio(total("core.directive"), total("sim.step")),
    );

    put(
        "adversary.on_round_us_p50",
        pct("adversary.on_round", 50, us),
    );
    put(
        "adversary.share",
        ratio(total("adversary.on_round"), total("sim.step")),
    );
    put(
        "adversary.posts_per_round",
        ratio(
            view.total_count("adversary.on_round"),
            calls("adversary.on_round"),
        ),
    );

    put(
        "billboard.append_ns_per_post",
        ratio(
            total("billboard.append"),
            view.total_count("billboard.append"),
        ),
    );
    put(
        "billboard.ingest_ns_per_post",
        ratio(
            total("billboard.ingest"),
            view.total_count("billboard.ingest"),
        ),
    );
    put(
        "billboard.posts_per_trial",
        ratio(
            view.total_count("billboard.append"),
            calls("billboard.replay"),
        ),
    );

    put("analysis.fold_us_p50", pct("analysis.fold", 50, us));

    put(
        "harness.trial_busy_frac",
        ratio(
            trial_ns,
            total("harness.batch") * THREADS as f64 - total("billboard.replay"),
        ),
    );
    put(
        "harness.dispatch_gap_us_p50",
        at(&dispatch_gaps_ns(view.named("sim.trial")), 50, us),
    );
    put("harness.chunks_claimed", counter("harness.chunks_claimed"));
    put("harness.leases_lost", counter("harness.leases_lost"));
    put("harness.queue_rebuilt", counter("harness.queue_rebuilt"));
    put("harness.quarantined", counter("harness.quarantined"));
    put(
        "harness.final_ckpt_bytes",
        ratio(
            view.total_count("harness.ckpt_encode"),
            calls("harness.ckpt_encode"),
        ),
    );
    put("harness.ckpt_encode_ms", pct("harness.ckpt_encode", 50, ms));
    put("harness.ckpt_write_ms", pct("harness.ckpt_write", 50, ms));
    put("harness.lease_rmw_us_p50", pct("harness.lease_rmw", 50, us));
    put("harness.merge_ms", pct("harness.merge", 50, ms));

    put("service.submit_us_p50", pct("service.submit", 50, us));
    put("service.submit_us_p99", pct("service.submit", 99, us));
    put(
        "service.shutdown_drain_ms",
        pct("service.shutdown_drain", 50, ms),
    );
    put("service.sync_us_p50", pct("service.sync", 50, us));
    put("service.sync_us_p99", pct("service.sync", 99, us));
    put("service.tally_us_p50", pct("service.tally", 50, us));
    put("service.tally_us_p99", pct("service.tally", 99, us));
    put(
        "service.epochs_published",
        counter("service.epochs_published"),
    );
    put("service.reads", counter("service.reads"));
    put(
        "service.held_out_of_order",
        counter("service.held_out_of_order"),
    );
    put("service.max_pending", counter("service.max_pending"));

    put("trace_overhead_frac", median(overhead));
    m
}
