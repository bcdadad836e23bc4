//! A crate that passes every distill-lint rule: allocations and stream
//! tags appear only in strings, comments, cold code, or under a justified
//! allowance, and its one suppression outside tests carries a reason.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// Deterministic tally: BTreeMap keeps iteration order stable.
pub fn tally(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut out = BTreeMap::new();
    for &x in xs {
        *out.entry(x).or_insert(0) += 1;
    }
    out
}

/// A justified narrowing cast: clippy checks the `#[expect]`, and the
/// suppression ledger lists it with its reason.
#[expect(
    clippy::cast_possible_truncation,
    reason = "fixture lengths are tiny, far below u32::MAX"
)]
pub fn shrink(len: usize) -> u32 {
    len as u32
}

/// Rule-looking text inside literals must not fire: it is data, not code.
pub fn decoy() -> &'static str {
    // Calling Vec::new() or Stream::Aux(1) in this comment is fine.
    "so is format!(\"{x}\") or a Stream::Aux(1) mention"
}

/// A unique auxiliary stream tag, and a justified reuse of it — neither
/// fires rule D6.
pub fn streams() {
    let _stream = stream_rng(7, Stream::Aux(3));
    // lint: allow(rng) — fixture replays the same stream on purpose
    let _replay = stream_rng(7, Stream::Aux(3));
}

/// A hot function that stays allocation-free: the `collect` lives inside a
/// `debug_assert_eq!` (compiled out in release builds) and the one real
/// allocation carries a justification, so rule D7 stays quiet.
// lint: hot
pub fn hot_sum(xs: &[u32], scratch: &mut Vec<u32>) -> u32 {
    debug_assert_eq!(xs.iter().copied().collect::<Vec<_>>().len(), xs.len());
    scratch.clear();
    let mut total = 0;
    for &x in xs {
        total += x;
        scratch.push(x);
    }
    // lint: allow(alloc) — fixture keeps one snapshot per call for the test
    let _snapshot = scratch.clone();
    total
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test code is masked, so the ledger does not list this"
)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tests_may_hash_and_allocate() {
        let mut m = HashMap::new();
        m.insert(1u32, vec![2u32]);
        assert_eq!(tally(&[1, 1]).get(&1), Some(&2));
        assert_eq!(shrink(7), 7);
    }
}
