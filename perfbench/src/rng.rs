//! The benchmark's own seeded generator (SplitMix64). Workload inputs
//! depend only on this file and the seed, never on the library's RNG or
//! dataset generators, so a change to the program cannot move a workload.

/// SplitMix64: 64 bits of state, full period, one multiply-xorshift chain
/// per draw.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for sub-task `tag` of the same seed.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal (Box–Muller, two uniforms per draw).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.f64()).ln()
    }
}

/// Draws indices with probability proportional to fixed weights.
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let cumulative = weights
            .into_iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Weighted { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one weight");
        let x = rng.f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn below_and_weighted_stay_in_range() {
        let mut r = Rng::new(1);
        let w = Weighted::new([1.0, 0.0, 3.0]);
        let mut hits = [0usize; 3];
        for _ in 0..4000 {
            assert!(r.below(5) < 5);
            hits[w.sample(&mut r)] += 1;
        }
        assert_eq!(hits[1], 0, "a zero weight is never drawn");
        assert!(hits[2] > 2 * hits[0]);
    }
}
