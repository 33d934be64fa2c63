//! Measurements shared by the workloads: the distance-kernel replay, the
//! simulated-device counters, the search counters, and the exact answer
//! check against the linear scan.

use crate::report::Metrics;
use crate::rng::Rng;
use gpu_sim::exec::{self, BATCH_CHUNK};
use gpu_sim::{Device, DeviceStats};
use gts_core::StatsSnapshot;
use metric_space::{chunk_pairs, ArenaLayout, BatchMetric, Item, ItemMetric, Neighbor};
use std::sync::Arc;
use std::time::Instant;

/// A query's id block the index runs on more than one host thread: from
/// this many pairs up, `gts_core`'s dispatch cuts it into `BATCH_CHUNK`-pair
/// chunks over its host threads; smaller blocks run on the calling thread.
pub const PAR_MIN_PAIRS: usize = 2 * BATCH_CHUNK;

/// Wall nanoseconds per distance of `BatchMetric::distance_batch`,
/// replaying `blocks[i]` (object ids) against `queries[i]` in order, in
/// whole rounds until `min_secs` have passed. Each block runs as the
/// index's dispatch would run it on `threads` host threads (see
/// [`PAR_MIN_PAIRS`]), so the figure is a wall cost, not CPU time.
pub fn ns_per_dist(
    items: &[Item],
    metric: ItemMetric,
    queries: &[Item],
    blocks: &[Vec<u32>],
    threads: usize,
    min_secs: f64,
) -> f64 {
    let arena = metric.build_arena_with(items, ArenaLayout::Legacy);
    let pairs: usize = blocks.iter().map(Vec::len).sum();
    assert!(pairs > 0, "a replay needs pairs");
    let mut out = vec![0.0; blocks.iter().map(Vec::len).max().unwrap_or(0)];
    let start = Instant::now();
    let mut evaluated = 0u64;
    while evaluated == 0 || start.elapsed().as_secs_f64() < min_secs {
        for (q, ids) in queries.iter().zip(blocks) {
            let out = &mut out[..ids.len()];
            if threads <= 1 || ids.len() < PAR_MIN_PAIRS {
                metric.distance_batch(items, arena.as_ref(), q, ids, out);
            } else {
                exec::par_run(chunk_pairs(BATCH_CHUNK, ids, out), threads, |c| {
                    metric.distance_batch(items, arena.as_ref(), q, c.ids, c.out)
                });
            }
            std::hint::black_box(&out);
        }
        evaluated += pairs as u64;
    }
    start.elapsed().as_secs_f64() * 1e9 / evaluated as f64
}

/// `count` ascending ids drawn uniformly from `0..n`, for each of `blocks`.
pub fn random_blocks(n: usize, blocks: usize, count: usize, rng: &mut Rng) -> Vec<Vec<u32>> {
    (0..blocks)
        .map(|_| {
            let mut ids: Vec<u32> = (0..count).map(|_| rng.below(n) as u32).collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

pub fn device_stats(devs: &[Arc<Device>]) -> Vec<DeviceStats> {
    devs.iter().map(|d| d.stats()).collect()
}

/// `gpusim.*` from device counters before and after a fixed query set:
/// cycles on the critical path (the slowest device), the rest summed.
pub fn gpusim_metrics(
    m: &mut Metrics,
    before: &[DeviceStats],
    after: &[DeviceStats],
    queries: usize,
) {
    let q = queries.max(1) as f64;
    let pairs = || before.iter().zip(after);
    let cycles = pairs().map(|(b, a)| a.cycles - b.cycles).max().unwrap_or(0);
    let sum = |f: fn(&DeviceStats) -> u64| pairs().map(|(b, a)| f(a) - f(b)).sum::<u64>() as f64;
    m.set("gpusim.cycles_per_query", cycles as f64 / q);
    m.set("gpusim.kernels_per_query", sum(|s| s.kernels) / q);
    m.set("gpusim.h2d_bytes_per_query", sum(|s| s.h2d_bytes) / q);
    m.set("gpusim.d2h_bytes_per_query", sum(|s| s.d2h_bytes) / q);
    let peak = after.iter().map(|s| s.peak_allocated).max().unwrap_or(0);
    m.set("gpusim.peak_mb", peak as f64 / 1e6);
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one traced search phase measured.
pub struct SearchPhase {
    pub stats: StatsSnapshot,
    pub queries: usize,
    pub batches: usize,
    pub answers: usize,
    pub us_per_query: f64,
}

/// `search.*` and `metric.*` from one traced phase; `ns_per_dist` is the
/// replay's wall cost, so `metric.kernel_share` is a share of wall time.
pub fn search_metrics(m: &mut Metrics, p: &SearchPhase, n: usize, ns_per_dist: f64) {
    let s = &p.stats;
    let q = p.queries.max(1) as f64;
    let dist = s.distance_computations as f64 / q;
    let kernel_us = dist * ns_per_dist / 1e3;
    m.set("search.us_per_query", p.us_per_query);
    m.set("search.dist_per_query", dist);
    m.set("search.touched_frac", dist / n as f64);
    m.set(
        "search.nodes_pruned_frac",
        frac(s.nodes_pruned, s.nodes_pruned + s.nodes_expanded),
    );
    m.set(
        "search.leaf_filtered_frac",
        frac(s.leaf_filtered, s.leaf_filtered + s.leaf_verified),
    );
    m.set(
        "search.verify_yield",
        frac(p.answers as u64, s.leaf_verified),
    );
    m.set(
        "search.leaf_abandoned_frac",
        frac(s.leaf_abandoned, s.leaf_verified),
    );
    m.set(
        "search.groups_formed",
        s.groups_formed as f64 / p.batches.max(1) as f64,
    );
    m.set("search.max_frontier", s.max_frontier as f64);
    m.set("search.other_us_per_query", p.us_per_query - kernel_us);
    m.set("metric.ns_per_dist", ns_per_dist);
    m.set("metric.kernel_share", kernel_us / p.us_per_query.max(1e-9));
}

/// Exact agreement, ids and distance bits, in canonical order.
pub fn same_answer(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_answer_compares_ids_and_distance_bits() {
        let a = vec![Neighbor::new(1, 0.5), Neighbor::new(2, 0.5)];
        assert!(same_answer(&a, &a.clone()));
        assert!(!same_answer(
            &a,
            &[Neighbor::new(2, 0.5), Neighbor::new(1, 0.5)]
        ));
        assert!(!same_answer(&a, &[Neighbor::new(1, 0.5)]));
        assert!(!same_answer(
            &a,
            &[Neighbor::new(1, 0.5), Neighbor::new(2, 0.5000001)]
        ));
    }

    #[test]
    fn replay_times_a_positive_rate() {
        let items: Vec<Item> = (0..64).map(|i| Item::vector(vec![i as f32, 1.0])).collect();
        let qs = vec![Item::vector(vec![0.5f32, 0.5])];
        let blocks = random_blocks(items.len(), 1, 32, &mut Rng::new(1));
        let ns = ns_per_dist(&items, ItemMetric::L2, &qs, &blocks, 1, 0.0);
        assert!(ns > 0.0 && ns.is_finite());
        // A block large enough to be split over threads.
        let big = random_blocks(items.len(), 1, PAR_MIN_PAIRS, &mut Rng::new(2));
        let ns = ns_per_dist(&items, ItemMetric::L2, &qs, &big, 2, 0.0);
        assert!(ns > 0.0 && ns.is_finite());
    }
}
