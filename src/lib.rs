//! # distill
//!
//! A from-scratch Rust reproduction of **“Adaptive Collaboration in
//! Peer-to-Peer Systems”** (Awerbuch, Patt-Shamir, Peleg, Tuttle;
//! ICDCS 2005): the DISTILL algorithm for finding good objects through a
//! shared billboard despite Byzantine players, together with the billboard
//! substrate, a synchronous simulation engine, a gauntlet of adversaries,
//! and the analysis machinery that regenerates every quantitative claim of
//! the paper.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates under
//! stable module names.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`billboard`] | `distill-billboard` | append-only authenticated billboard, reader-side vote policies, `ℓ_t(i)` tallies |
//! | [`sim`] | `distill-sim` | worlds, synchronous engine, cohort/adversary traits, metrics |
//! | [`core`] | `distill-core` | DISTILL, DISTILL^HP, α-guessing, cost classes, no-local-testing, three-phase example, baselines |
//! | [`adversary`] | `distill-adversary` | Byzantine strategies incl. the Equation-1 threshold matcher and the Theorem 2 mimicry instance |
//! | [`analysis`] | `distill-analysis` | bound formulas, Lemma 9, statistics, fits, tables |
//!
//! Many-trial runs (threads, panic isolation, checkpoints) go through
//! `distill-harness`'s `run_sweep`, which this facade does not re-export.
//!
//! ## The model in one paragraph
//!
//! `n` players search `m` objects for a *good* one (a `β` fraction are
//! good). Probing an object costs its (known) price and reveals its (unknown)
//! value; results are posted on a shared append-only billboard which anyone
//! can read for free. An `α` fraction of players honestly follow the
//! protocol; the rest are Byzantine. DISTILL finds a good object in `O(1)`
//! expected rounds per player when most players are honest, and
//! `O((1/α)·log n/log log n)` even when they are not — beating the
//! `Θ(log n)` epidemic baseline — by counting only *positive* reports,
//! allowing one vote per player, and repeatedly distilling a candidate set
//! with per-iteration vote thresholds.
//!
//! ## Quick start
//!
//! ```
//! use distill::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 128;
//! let world = World::binary(n, 1, 2024)?;          // m = n objects, 1 good
//! let params = DistillParams::new(n, n, 0.9, world.beta())?;
//! let config = SimConfig::new(n, 115, 7);          // ≈ 90% honest
//! let result = Engine::new(config, &world,
//!     Box::new(Distill::new(params)),
//!     Box::new(UniformBad::new()))?.run()?;
//! assert!(result.all_satisfied);
//! println!("mean individual cost: {:.1} probes", result.mean_probes());
//! # Ok(())
//! # }
//! ```
//!
//! Run `cargo bench` to regenerate the paper's experiment tables (see
//! `EXPERIMENTS.md`), and `cargo run --example quickstart` for a guided tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use distill_adversary as adversary;
pub use distill_analysis as analysis;
pub use distill_billboard as billboard;
pub use distill_core as core;
pub use distill_service as service;
pub use distill_sim as sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use distill_adversary::{
        AdviceBait, BallotStuffer, Collusive, Flooder, Mimicry, MimicryInstance, NullAdversary,
        Slander, ThresholdMatcher, UniformBad,
    };
    pub use distill_analysis::{bounds, ci95, fmt_f, linear_fit, power_fit, Summary, Table};
    pub use distill_billboard::{
        Billboard, BoardView, ObjectId, PlayerId, ReportKind, Round, VotePolicy, VoteTracker,
        Window,
    };
    pub use distill_core::{
        multi_vote, no_local_testing, Balance, CostClassSearch, Distill, DistillParams, GuessAlpha,
        RandomProbing, ThreePhase,
    };
    pub use distill_service::{
        BillboardService, Draft, EpochReader, EpochSnapshot, ServiceConfig, StressConfig,
    };
    pub use distill_sim::{
        Adversary, CandidateSet, Cohort, Directive, Engine, FaultCounters, FaultPlan, InfoModel,
        ObjectModel, PhaseInfo, ServicePlan, SimConfig, SimResult, StopRule, World, WorldBuilder,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything_together() {
        let world = World::binary(32, 1, 1).unwrap();
        let params = DistillParams::new(32, 32, 0.9, world.beta()).unwrap();
        let config = SimConfig::new(32, 29, 5);
        let result = Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(NullAdversary),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.all_satisfied);
    }
}
