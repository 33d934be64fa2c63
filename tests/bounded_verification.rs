//! Bounded (early-abandoning) leaf verification: with
//! `GtsParams::bounded_verification` on, every survivor of the
//! stored-distance filter is evaluated by the banded
//! `distance_batch_bounded` kernel against its query's radius / current kNN
//! bound. The toggle must never change an answer — the bounded kernels are
//! exact whenever they report a distance, and the kNN bound semantics are
//! tie-safe — while simulated search cycles may only *shrink* (the Ukkonen
//! band never exceeds the full DP, and every other kernel is untouched).

use gts::metric::BatchMetric;
use gts::prelude::*;

#[path = "support/per_pair.rs"]
mod per_pair;
use per_pair::PerPair;

struct Run {
    mrq: Vec<Vec<Neighbor>>,
    knn: Vec<Vec<Neighbor>>,
    search_cycles: u64,
    stats: gts::core::stats::StatsSnapshot,
}

fn run_with(kind: DatasetKind, n: usize, params: GtsParams, radius: f64) -> Run {
    let data = kind.generate(n, 909);
    let dev = Device::rtx_2080_ti();
    let gts = Gts::build(&dev, data.items.clone(), data.metric, params).expect("build");
    let queries: Vec<Item> = (0..40u32).map(|i| data.item(i * 11).clone()).collect();
    let radii = vec![radius; queries.len()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &radii).expect("mrq");
    let knn = gts.batch_knn(&queries, 7).expect("knn");
    Run {
        mrq,
        knn,
        search_cycles: dev.cycles() - mark,
        stats: gts.stats(),
    }
}

#[test]
fn bounded_verification_preserves_answers_and_saves_edit_cycles() {
    let exact = run_with(DatasetKind::Words, 1500, GtsParams::default(), 2.0);
    let bounded = run_with(
        DatasetKind::Words,
        1500,
        GtsParams::default().with_bounded_verification(true),
        2.0,
    );
    assert_eq!(bounded.mrq, exact.mrq, "MRQ answers are toggle-invariant");
    assert_eq!(bounded.knn, exact.knn, "MkNNQ answers are toggle-invariant");
    assert_eq!(
        exact.stats.leaf_abandoned, 0,
        "the default path never abandons"
    );
    assert!(
        bounded.stats.leaf_abandoned > 0,
        "a selective radius must abandon some verifications"
    );
    assert_eq!(
        bounded.stats.leaf_verified, exact.stats.leaf_verified,
        "the same survivors reach the verification kernel"
    );
    assert!(
        bounded.search_cycles < exact.search_cycles,
        "banded edit DP must shave simulated cycles: {} vs {}",
        bounded.search_cycles,
        exact.search_cycles
    );
}

#[test]
fn bounded_verification_is_a_noop_for_vector_metrics() {
    // L2 has no early-abandoning kernel: the bounded path computes full
    // distances and charges full work, so answers *and cycles* must match.
    let exact = run_with(DatasetKind::Vector, 1200, GtsParams::default(), 0.4);
    let bounded = run_with(
        DatasetKind::Vector,
        1200,
        GtsParams::default().with_bounded_verification(true),
        0.4,
    );
    assert_eq!(bounded.mrq, exact.mrq);
    assert_eq!(bounded.knn, exact.knn);
    assert_eq!(
        bounded.search_cycles, exact.search_cycles,
        "no banding for L2 — identical simulated time"
    );
}

type Answers = (Vec<Vec<Neighbor>>, Vec<Vec<Neighbor>>);

/// Bounded verification through a 3-shard scatter with `metric`: answers
/// must equal `reference`, and some verifications must abandon.
fn assert_sharded_bounded<M: BatchMetric<Item> + Clone>(
    label: &str,
    data: &Dataset,
    metric: M,
    queries: &[Item],
    radii: &[f64],
    reference: &Answers,
) {
    let params = GtsParams::default()
        .with_bounded_verification(true)
        .with_shards(3);
    let pool = DevicePool::rtx_2080_ti(3);
    let sharded = ShardedGts::build(&pool, data.items.clone(), metric, params).expect("build");
    assert_eq!(
        sharded.batch_range(queries, radii).expect("mrq"),
        reference.0,
        "{label}"
    );
    assert_eq!(
        sharded.batch_knn(queries, 5).expect("knn"),
        reference.1,
        "{label}"
    );
    assert!(sharded.stats().leaf_abandoned > 0);
}

#[test]
fn bounded_verification_composes_with_shards_and_fallback_paths() {
    // The toggle must stay answer-invariant through the sharded scatter,
    // over the arena and through per-pair payload resolution.
    let data = DatasetKind::Words.generate(900, 31);
    let queries: Vec<Item> = (0..24u32).map(|i| data.item(i * 13).clone()).collect();
    let radii = vec![2.0; queries.len()];

    let reference = {
        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        (
            gts.batch_range(&queries, &radii).expect("mrq"),
            gts.batch_knn(&queries, 5).expect("knn"),
        )
    };

    assert_sharded_bounded("arena", &data, data.metric, &queries, &radii, &reference);
    assert_sharded_bounded(
        "per-pair",
        &data,
        PerPair(data.metric),
        &queries,
        &radii,
        &reference,
    );
}
