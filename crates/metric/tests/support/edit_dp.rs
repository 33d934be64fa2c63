//! Reference Levenshtein distance: the textbook two-row Wagner–Fischer
//! dynamic program, `O(|a|·|b|)` cell updates.
//!
//! The library's bit-parallel kernels (`metric_space::dist`) are checked
//! and timed against this oracle; it is not part of the library. Test and
//! bench targets include this file with `#[path]`.

/// Levenshtein distance between `a` and `b` by the full DP.
pub fn levenshtein(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut cur = vec![0u32; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}
