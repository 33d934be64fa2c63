//! Seeded generators for the three workloads. Each returns plain
//! [`Item`]s; the index sees only these objects.
//!
//! The DNA and T-Loc models follow the statistical shape of the paper's
//! datasets (families of mutated reads; Zipf-weighted city clusters).

use crate::rng::{Rng, Weighted};
use metric_space::{Item, ItemMetric, Metric};

const BASES: [u8; 4] = *b"ACGT";

/// Reads of about `len` bases in families: `n / 64` seed reads, each read a
/// copy of one seed with 2–10% substitutions and, for 30% of reads, a
/// 1–3 base insertion or deletion.
pub struct DnaModel {
    seeds: Vec<Vec<u8>>,
}

impl DnaModel {
    pub fn new(n: usize, len: usize, rng: &mut Rng) -> Self {
        let families = (n / 64).clamp(1, 4096);
        let seeds = (0..families)
            .map(|_| (0..len).map(|_| BASES[rng.below(4)]).collect())
            .collect();
        DnaModel { seeds }
    }

    pub fn sample(&self, rng: &mut Rng) -> Item {
        let mut s = self.seeds[rng.below(self.seeds.len())].clone();
        let sub_rate = rng.range_f64(0.02, 0.10);
        for b in s.iter_mut() {
            if rng.chance(sub_rate) {
                *b = BASES[rng.below(4)];
            }
        }
        if rng.chance(0.30) {
            let cut = 1 + rng.below(3.min(s.len() - 1));
            if rng.chance(0.5) {
                s.truncate(s.len() - cut);
            } else {
                for _ in 0..cut {
                    let pos = rng.below(s.len() + 1);
                    s.insert(pos, BASES[rng.below(4)]);
                }
            }
        }
        Item::text(String::from_utf8(s).expect("ASCII bases"))
    }
}

/// 2-d locations: a Zipf-weighted mixture of `sqrt(n)` (at most 256)
/// Gaussian cities in a lon/lat box, plus 3% uniform background. A city's
/// spread grows with the square root of its weight (2 degrees for the most
/// popular), so every city is about equally dense: the answers a query
/// finds depend on the radius, not on which city the seed made popular.
pub struct TlocModel {
    cities: Vec<(f64, f64, f64)>,
    popularity: Weighted,
}

/// Spread, in degrees, of the most popular city.
const TLOC_MAX_SPREAD: f64 = 2.0;

impl TlocModel {
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let k = ((n as f64).sqrt() as usize).clamp(4, 256);
        let cities = (1..=k)
            .map(|rank| {
                (
                    rng.range_f64(-180.0, 180.0),
                    rng.range_f64(-60.0, 75.0),
                    TLOC_MAX_SPREAD / (rank as f64).sqrt(),
                )
            })
            .collect();
        let popularity = Weighted::new((1..=k).map(|i| 1.0 / i as f64));
        TlocModel { cities, popularity }
    }

    pub fn sample(&self, rng: &mut Rng) -> Item {
        if rng.chance(0.03) {
            return Item::vector(vec![
                rng.range_f64(-180.0, 180.0) as f32,
                rng.range_f64(-85.0, 85.0) as f32,
            ]);
        }
        let (cx, cy, s) = self.cities[self.popularity.sample(rng)];
        Item::vector(vec![
            (cx + rng.gaussian() * s) as f32,
            (cy + rng.gaussian() * s * 0.7) as f32,
        ])
    }
}

/// A data point moved by Gaussian noise of `sigma` per coordinate: a
/// T-Loc query lands where the data is dense.
pub fn perturb_point(item: &Item, sigma: f64, rng: &mut Rng) -> Item {
    let v = item.as_vector().expect("a vector item");
    Item::vector(
        v.iter()
            .map(|&x| (x as f64 + rng.gaussian() * sigma) as f32)
            .collect::<Vec<_>>(),
    )
}

/// Intrinsic dimensionality `rho = mu^2 / (2 sigma^2)` of the pairwise
/// distance distribution, estimated on `pairs` random pairs.
pub fn intrinsic_dim(items: &[Item], metric: ItemMetric, pairs: usize, rng: &mut Rng) -> f64 {
    let d: Vec<f64> = (0..pairs)
        .map(|_| {
            let a = rng.below(items.len());
            let b = rng.below(items.len());
            metric.distance(&items[a], &items[b])
        })
        .collect();
    let mean = d.iter().sum::<f64>() / d.len() as f64;
    let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / d.len() as f64;
    mean * mean / (2.0 * var.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &[Item], b: &[Item]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
    }

    fn draw<M>(
        seed: u64,
        n: usize,
        make: impl Fn(&mut Rng) -> M,
        f: impl Fn(&M, &mut Rng) -> Item,
    ) -> Vec<Item> {
        let mut rng = Rng::new(seed);
        let m = make(&mut rng);
        (0..n).map(|_| f(&m, &mut rng)).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let dna = |s| draw(s, 50, |r| DnaModel::new(500, 108, r), DnaModel::sample);
        let tloc = |s| draw(s, 200, |r| TlocModel::new(10_000, r), TlocModel::sample);
        assert!(same(&dna(3), &dna(3)));
        assert!(same(&tloc(3), &tloc(3)));
        assert!(!same(&dna(3), &dna(4)));
        assert!(!same(&tloc(3), &tloc(4)));
    }

    #[test]
    fn shapes_match_the_models() {
        let reads = draw(1, 200, |r| DnaModel::new(4000, 108, r), DnaModel::sample);
        assert!(reads
            .iter()
            .all(|r| (105..=111).contains(&r.as_text().expect("text").len())));
    }
}
