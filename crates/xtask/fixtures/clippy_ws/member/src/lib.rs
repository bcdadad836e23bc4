//! One banned construct per line. `expected.txt` names the clippy lint
//! each line draws; the lines copied from `bad_ws` keep its comments.

#![forbid(unsafe_code)]

use distill_sim::rng::{derive_seed, splitmix64};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap; // D2 (bad_ws)
use std::collections::HashSet; // D2
use std::time::Instant; // D2 (bad_ws)
use std::time::SystemTime; // D2

pub fn lookup(map: &HashMap<u32, u32>, k: u32) -> u32 {
    *map.get(&k).unwrap() // D1 (bad_ws)
}

pub fn racy_elapsed() -> bool {
    let start = Instant::now(); // D2 (bad_ws)
    if start.elapsed().as_secs() > 60 {
        panic!("fixture clock ran away") // D1 (bad_ws)
    }
    std::env::var("FIXTURE").expect("no reason given, so D1 fires"); // D1 (bad_ws)
    false
}

pub fn swallow_panics(f: impl FnOnce() + std::panic::UnwindSafe) {
    let _ = std::panic::catch_unwind(f); // D1 (bad_ws)
}

pub fn truncate(x: u64) -> u32 {
    x as u32 // D5 (bad_ws)
}

pub fn sign_flip() -> u64 {
    (-5i64) as u64 // D5 (bad_ws)
}

pub fn raw_seed() -> SmallRng {
    SmallRng::seed_from_u64(42) // D6 (bad_ws)
}

pub fn impossible(x: u32) -> u32 {
    match x {
        0 => 1,
        _ => unreachable!("fixture"), // D1
    }
}

pub fn later() -> u32 {
    todo!() // D1
}

pub fn never() -> u32 {
    unimplemented!() // D1
}

pub fn traced(x: u32) -> u32 {
    dbg!(x) // D1
}

pub fn distinct(xs: &[u32]) -> usize {
    xs.iter().collect::<HashSet<_>>().len() // D2
}

pub fn clock_moved() -> bool {
    SystemTime::now() > SystemTime::UNIX_EPOCH // D2
}

pub fn full_seed() -> SmallRng {
    SmallRng::from_seed([7; 32]) // D6
}

pub fn raw_derivation(seed: u64) -> u64 {
    derive_seed(seed, 1) // D6
}

pub fn raw_mix(seed: u64) -> u64 {
    splitmix64(seed) // D6
}

pub fn wrap(x: u32) -> i32 {
    x as i32 // D5
}

#[allow(clippy::cast_possible_truncation, reason = "an allow, not an expect")]
pub fn allowed(x: u64) -> u32 {
    x as u32
}

#[expect(clippy::cast_possible_truncation)]
pub fn reasonless(x: u64) -> u32 {
    x as u32
}

#[expect(clippy::cast_possible_truncation, reason = "nothing here truncates")]
pub fn stale(x: u32) -> u32 {
    x
}
