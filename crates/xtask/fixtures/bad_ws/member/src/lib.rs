//! The source half of the rule violations: D6 here and in `streams.rs`,
//! D7 in the hot function below. The manifests carry D3 and D4.

mod streams;

pub fn first_stream() {
    // First Stream::Aux(9) site in (file, line) order: the *duplicate* in
    // streams.rs fires, not this one.
    let _rng = stream_rng(7, Stream::Aux(9));
}

pub fn cold_allocs(n: usize) -> Vec<String> {
    // Outside a hot function the same constructs stay quiet.
    (0..n).map(|i| format!("{i}")).collect()
}

// lint: hot
pub fn hot_with_allocs(n: usize) -> usize {
    // lint: allow(alloc)
    let mut buf = Vec::new(); // D7: a bare allowance has no reason
    for i in 0..n {
        buf.push(format!("{i}")); // D7: format! allocates
    }
    buf.len()
}
