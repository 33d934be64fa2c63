//! Order statistics over timing samples.

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Quantile of a timing sample that reads the host's fast state.
///
/// A shared host alternates, over seconds, between a fast state and one up
/// to 1.8x slower (other tenants on the same cores and memory), and the
/// share of each varies from run to run. A median sits where the two
/// states meet and flips with that share; the 10th percentile (and, for
/// rates, the 90th) stays in the fast state while it covers a tenth of the
/// run. The slow state shows in the tail.
pub const FAST_Q: f64 = 0.1;

/// The fast-state value of a time sample: its [`FAST_Q`] quantile.
pub fn fast_time(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), FAST_Q)
}

/// Fast-state time of a closed loop whose batch `i` asks the `i % kinds`-th
/// batch of a fixed pool: each kind's [`fast_time`] over its repeats,
/// averaged over the kinds. Batches of the pool may differ in cost; this
/// compares each with itself.
pub fn fast_batch_time(times: &[f64], kinds: usize) -> f64 {
    let per_kind: Vec<f64> = (0..kinds.min(times.len()))
        .map(|k| {
            fast_time(
                &times
                    .iter()
                    .skip(k)
                    .step_by(kinds)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    mean(&per_kind)
}

/// Throughput of a closed loop of `per_batch`-request batches that took
/// `times` seconds each and cycle a pool of `kinds` batches: requests per
/// second of each whole pass over the pool, at the passes' `1 - FAST_Q`
/// quantile. Every pass does the same work; a run shorter than one pass
/// counts as one.
pub fn pass_rate(times: &[f64], kinds: usize, per_batch: usize) -> f64 {
    assert!(!times.is_empty(), "a rate needs batches");
    let rate = |pass: &[f64]| (pass.len() * per_batch) as f64 / pass.iter().sum::<f64>();
    let mut rates: Vec<f64> = times.chunks_exact(kinds).map(rate).collect();
    if rates.is_empty() {
        rates.push(rate(times));
    }
    quantile(&sorted(rates), 1.0 - FAST_Q)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Samples a run takes at least, so that it supports a tail.
pub const TAIL_MIN: usize = TAIL_BEYOND + 1;

/// The tail a sample supports: the highest percentile with at least
/// [`TAIL_BEYOND`] samples above it. Returns `(percentile, value)`, where
/// `value` is the `(TAIL_BEYOND + 1)`-th largest sample and `percentile` is
/// `100 (n - TAIL_BEYOND) / n`; `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(samples.to_vec());
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((pct, s[n - TAIL_BEYOND - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, val) = tail(&v).expect("100 samples support a tail");
        assert_eq!(val, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > val).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-12);
        // A higher percentile would leave fewer than ten beyond.
        assert!(
            v.iter()
                .filter(|&&x| x > quantile(&sorted(v.clone()), 0.91))
                .count()
                < TAIL_BEYOND
        );
    }

    #[test]
    fn tail_needs_eleven_samples_and_ignores_order() {
        let few: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&few).is_none());
        let mut v: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let (pct, val) = tail(&v).expect("supported");
        assert!((pct - 99.0).abs() < 1e-12);
        assert_eq!(val, 989.0);
        v.reverse();
        assert_eq!(tail(&v).expect("supported").1, 989.0);
    }

    #[test]
    fn pass_rate_reads_the_fast_passes() {
        // Passes of two 0.2 s + 0.3 s batches of 5 requests (20/s); the
        // last 12 of 100 passes run at twice the speed (40/s).
        let mut times: Vec<f64> = [0.2, 0.3].repeat(88);
        times.extend([0.1, 0.15].repeat(12));
        assert!((pass_rate(&times, 2, 5) - 40.0).abs() < 1e-9);
        // Fast for under a tenth of the passes: the slow rate. A partial
        // last pass is left out.
        let mut times: Vec<f64> = [0.2, 0.3].repeat(92);
        times.extend([0.1, 0.15].repeat(8));
        times.push(0.01);
        assert!((pass_rate(&times, 2, 5) - 20.0).abs() < 1e-9);
        // Shorter than a pass: the whole run is one.
        assert!((pass_rate(&[0.25], 2, 5) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fast_batch_time_compares_each_kind_with_itself() {
        // Kind 0 costs 1 and kind 1 costs 3, each slowed 2x in 80% of
        // its repeats: the fast times 1 and 3 average to 2.
        let times: Vec<f64> = (0..100)
            .map(|i| {
                let cost = if i % 2 == 0 { 1.0 } else { 3.0 };
                if (i / 2) % 5 == 0 {
                    cost
                } else {
                    2.0 * cost
                }
            })
            .collect();
        assert_eq!(fast_batch_time(&times, 2), 2.0);
        // Pooled, the cheap kind alone sets the tenth percentile.
        assert_eq!(fast_time(&times), 1.0);
    }

    #[test]
    fn fast_time_is_the_tenth_percentile() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fast_time(&v), 4.0);
        // Fifteen set-ups: the second fastest.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(fast_time(&v), 2.0);
    }

    #[test]
    fn quantile_and_median() {
        let s = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
