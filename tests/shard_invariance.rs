//! Shard invariance: a [`ShardedGts`] must be a pure execution-topology
//! change. For any shard count, batched MRQ and MkNNQ answers must be
//! **bit-identical** to the single-device [`Gts`] — including tie-heavy
//! datasets, where the canonical `(distance, id)` tie-break is the only
//! thing standing between "exact" and "bit-identical". Updates route to
//! the owning shard, and an overflow rebuild on one shard must leave every
//! other shard's device cycle counter untouched.
//!
//! Since the descent-engine refactor this suite also pins down:
//!
//! * the engine itself — driving the batch drivers through the resumable
//!   `DescentEngine` must be **bit- and cycle-identical** to the
//!   pre-refactor monolithic loops, asserted against a checked-in
//!   fingerprint (answer hashes, simulated cycle counts, and search
//!   counters captured from the seed implementation before the refactor);
//! * the cross-shard kNN **bound broadcast**
//!   ([`GtsParams::bound_broadcast`]): lockstep descent with per-level
//!   bound injection must return bit-identical answers to the independent
//!   descent for S ∈ {1, 2, 4}, tie-heavy data included, across repeated
//!   runs (deterministic clocks), and through the edge cases — trees so
//!   shallow every query resolves in the first step, and one shard's
//!   frontier dying early while the others keep descending.

use gts::prelude::*;

const SHARD_SWEEP: [u32; 3] = [1, 2, 4];

/// FNV-1a over every `(query, id, dist-bits)` triple — the canonical-order
/// answer fingerprint the pre-refactor snapshot was taken with.
fn hash_answers(lists: &[Vec<Neighbor>]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (q, list) in lists.iter().enumerate() {
        eat(&(q as u64).to_le_bytes());
        for n in list {
            eat(&n.id.to_le_bytes());
            eat(&n.dist.to_bits().to_le_bytes());
        }
    }
    h
}

fn words(n: usize, seed: u64) -> (Vec<Item>, ItemMetric) {
    let d = DatasetKind::Words.generate(n, seed);
    (d.items, d.metric)
}

/// A dataset where ties dominate: every word appears three times, so
/// distance-0 duplicates and k-boundary ties are everywhere, and the
/// duplicates land on *different* shards under round-robin.
fn tie_heavy(n: usize, seed: u64) -> (Vec<Item>, ItemMetric) {
    let base = DatasetKind::Words.generate(n.div_ceil(3), seed).items;
    let items: Vec<Item> = (0..n).map(|i| base[i % base.len()].clone()).collect();
    (items, ItemMetric::Edit)
}

fn assert_invariant(label: &str, items: &[Item], metric: ItemMetric) {
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        items.to_vec(),
        metric,
        GtsParams::default(),
    )
    .expect("single-device build");
    let queries: Vec<Item> = (0..32usize)
        .map(|i| items[(i * 13) % items.len()].clone())
        .collect();
    let radii = vec![2.0; queries.len()];
    let want_mrq = single.batch_range(&queries, &radii).expect("single mrq");
    let want_knn = single.batch_knn(&queries, 8).expect("single knn");

    // An "exact beam": wide enough that per-shard beam truncation never
    // drops anything, so the approximate search degenerates to the exact
    // one and must merge bit-identically too.
    let exact_beam = usize::MAX;
    assert_eq!(
        single
            .batch_knn_approx(&queries, 8, exact_beam)
            .expect("single exact-beam"),
        want_knn,
        "{label}: an exact beam must degenerate to the exact single-device search"
    );

    for s in SHARD_SWEEP {
        for broadcast in [false, true] {
            let pool = DevicePool::rtx_2080_ti(s as usize);
            let sharded = ShardedGts::build(
                &pool,
                items.to_vec(),
                metric,
                GtsParams::default()
                    .with_shards(s)
                    .with_bound_broadcast(broadcast),
            )
            .expect("sharded build");
            assert_eq!(
                sharded.batch_range(&queries, &radii).expect("sharded mrq"),
                want_mrq,
                "{label}: MRQ answers must be bit-identical at {s} shards"
            );
            assert_eq!(
                sharded.batch_knn(&queries, 8).expect("sharded knn"),
                want_knn,
                "{label}: MkNNQ answers must be bit-identical at {s} shards \
                 (broadcast = {broadcast})"
            );
            assert_eq!(
                sharded
                    .batch_knn_approx(&queries, 8, exact_beam)
                    .expect("sharded exact-beam"),
                want_knn,
                "{label}: exact-beam sharded MkNNQ must merge bit-identically \
                 at {s} shards (broadcast only applies to the exact path)"
            );
        }
    }
}

#[test]
fn sharded_answers_bit_identical_across_shard_counts() {
    let (items, metric) = words(600, 1234);
    assert_invariant("words", &items, metric);
}

#[test]
fn sharded_answers_bit_identical_on_tie_heavy_data() {
    let (items, metric) = tie_heavy(600, 77);
    assert_invariant("tie-heavy", &items, metric);
}

#[test]
fn hash_partitioning_is_equally_exact() {
    let (items, metric) = tie_heavy(600, 9);
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        items.clone(),
        metric,
        GtsParams::default(),
    )
    .expect("build");
    let queries: Vec<Item> = items[..24].to_vec();
    let radii = vec![2.0; queries.len()];
    let pool = DevicePool::rtx_2080_ti(4);
    let sharded = ShardedGts::build_with_strategy(
        &pool,
        items,
        metric,
        GtsParams::default().with_shards(4),
        PartitionStrategy::Hash,
    )
    .expect("hash-sharded build");
    assert_eq!(
        sharded.batch_range(&queries, &radii).expect("mrq"),
        single.batch_range(&queries, &radii).expect("mrq"),
    );
    assert_eq!(
        sharded.batch_knn(&queries, 6).expect("knn"),
        single.batch_knn(&queries, 6).expect("knn"),
    );
}

#[test]
fn one_shard_equals_single_device_exactly_including_cycles() {
    let (items, metric) = words(500, 5);
    let queries: Vec<Item> = items[..16].to_vec();
    let radii = vec![2.0; queries.len()];

    let dev = Device::rtx_2080_ti();
    let single = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
    let single_mrq = single.batch_range(&queries, &radii).expect("mrq");
    let single_knn = single.batch_knn(&queries, 5).expect("knn");

    let pool = DevicePool::rtx_2080_ti(1);
    let sharded =
        ShardedGts::build(&pool, items, metric, GtsParams::default()).expect("sharded build");
    let sharded_mrq = sharded.batch_range(&queries, &radii).expect("mrq");
    let sharded_knn = sharded.batch_knn(&queries, 5).expect("knn");

    assert_eq!(sharded_mrq, single_mrq);
    assert_eq!(sharded_knn, single_knn);
    assert_eq!(
        pool.get(0).stats(),
        dev.stats(),
        "one shard on one device is the single-device index, cycle counts included"
    );
    assert_eq!(sharded.stats(), single.stats(), "identical search counters");
}

#[test]
fn overflow_rebuild_on_one_shard_leaves_other_clocks_untouched() {
    let (items, metric) = words(200, 21);
    let pool = DevicePool::rtx_2080_ti(4);
    // A cache capacity so small the very first insert overflows.
    let params = GtsParams::default().with_shards(4).with_cache_capacity(4);
    let mut idx = ShardedGts::build(&pool, items.clone(), metric, params).expect("build");

    let cycles_before: Vec<u64> = (0..4).map(|s| pool.get(s).cycles()).collect();
    let rebuilds_before: Vec<u64> = (0..4).map(|s| idx.shard(s).rebuild_count()).collect();
    let gid = idx.insert(Item::text("overflowing")).expect("insert");
    let owner = idx.partitioner().shard_of(gid) as usize;

    assert_eq!(
        idx.shard(owner).rebuild_count(),
        rebuilds_before[owner] + 1,
        "the tiny cache must overflow and rebuild the owning shard"
    );
    for s in 0..4 {
        if s == owner {
            assert!(
                pool.get(s).cycles() > cycles_before[s],
                "the owning shard's device pays for the rebuild"
            );
        } else {
            assert_eq!(
                pool.get(s).cycles(),
                cycles_before[s],
                "shard {s}: untouched shards' clocks must not move"
            );
            assert_eq!(idx.shard(s).rebuild_count(), rebuilds_before[s]);
        }
    }

    // The rebuilt sharded index still answers bit-identically to a fresh
    // single-device index over the updated store.
    let mut store = items;
    store.push(Item::text("overflowing"));
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        store.clone(),
        metric,
        GtsParams::default(),
    )
    .expect("build");
    let queries = vec![Item::text("overflowing"), store[10].clone()];
    let radii = [1.0, 2.0];
    assert_eq!(
        idx.batch_range(&queries, &radii).expect("mrq"),
        single.batch_range(&queries, &radii).expect("mrq"),
    );
    assert_eq!(
        idx.batch_knn(&queries, 4).expect("knn"),
        single.batch_knn(&queries, 4).expect("knn"),
    );
}

/// Acceptance (a) of the descent-engine refactor: driving the batch
/// drivers through the resumable engine must be **bit- and cycle-identical**
/// to the pre-refactor monolithic `range_descend`/`knn_descend` loops.
/// The expected values below were captured by running the *seed*
/// implementation (commit before the engine landed) on these exact
/// workloads; every answer hash, simulated cycle count, and search counter
/// must still match. The third workload squeezes device memory until the
/// two-stage strategy forms 18 query groups, so the engine's explicit
/// frame stack is pinned against the recursion it replaced — buffer
/// lifetimes included (a leaked or early-dropped intermediate buffer would
/// shift `free_bytes`, change the group split, and move every number).
#[test]
fn engine_matches_prerefactor_fingerprint() {
    // (dataset, n, radius, k, expected MRQ hash, MRQ cycles, kNN hash,
    //  kNN cycles, distance computations, leaf verified)
    for (kind, n, radius, k, mrq_hash, mrq_cycles, knn_hash, knn_cycles, dist, verified) in [
        (
            DatasetKind::Words,
            900usize,
            2.0,
            8usize,
            0x5065ef5b376d735du64,
            28_294u64,
            0x2e2327414a04281du64,
            86_807u64,
            49_597u64,
            49_533u64,
        ),
        (
            DatasetKind::Vector,
            900,
            0.35,
            8,
            0xc2fcf54ab2ce6aff,
            43_079,
            0xcfd5a13aa1acf0e,
            99_744,
            57_605,
            57_541,
        ),
    ] {
        let data = kind.generate(n, 1234);
        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        let queries: Vec<Item> = (0..32usize)
            .map(|i| data.items[(i * 13) % n].clone())
            .collect();
        let radii = vec![radius; queries.len()];
        let mark = dev.cycles();
        let mrq = gts.batch_range(&queries, &radii).expect("mrq");
        assert_eq!(dev.cycles() - mark, mrq_cycles, "{kind:?}: MRQ cycles");
        assert_eq!(hash_answers(&mrq), mrq_hash, "{kind:?}: MRQ answers");
        let mark = dev.cycles();
        let knn = gts.batch_knn(&queries, k).expect("knn");
        assert_eq!(dev.cycles() - mark, knn_cycles, "{kind:?}: kNN cycles");
        assert_eq!(hash_answers(&knn), knn_hash, "{kind:?}: kNN answers");
        let s = gts.stats();
        assert_eq!(s.distance_computations, dist, "{kind:?}: distance count");
        assert_eq!(s.leaf_verified, verified, "{kind:?}: verified leaves");
        assert_eq!(s.broadcast_tightened, 0, "single device never broadcasts");
    }

    // The grouped workload: memory squeezed to (index footprint + 96 KB).
    let data = DatasetKind::TLoc.generate(3_000, 13);
    let footprint = {
        let probe = Device::rtx_2080_ti();
        let idx = Gts::build(
            &probe,
            data.items.clone(),
            data.metric,
            GtsParams::default(),
        )
        .expect("probe build");
        idx.memory_bytes() + data.data_bytes()
    };
    let dev = Device::new(DeviceConfig::rtx_2080_ti().with_memory_bytes(footprint + 96 * 1024));
    let gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let queries: Vec<Item> = (0..128usize)
        .map(|i| data.items[(i * 3) % 3_000].clone())
        .collect();
    let radii = vec![1.0; queries.len()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &radii).expect("mrq");
    assert_eq!(dev.cycles() - mark, 44_575, "grouped: MRQ cycles");
    assert_eq!(
        hash_answers(&mrq),
        0xbe1d4754a1266141,
        "grouped: MRQ answers"
    );
    let mark = dev.cycles();
    let knn = gts.batch_knn(&queries, 10).expect("knn");
    assert_eq!(dev.cycles() - mark, 684_880, "grouped: kNN cycles");
    assert_eq!(
        hash_answers(&knn),
        0xfdf44f29921ae3fb,
        "grouped: kNN answers"
    );
    let s = gts.stats();
    assert_eq!(s.groups_formed, 18, "grouped: query groups");
    assert_eq!(s.max_frontier, 2_560, "grouped: frontier high-water mark");
    assert_eq!(s.distance_computations, 114_666, "grouped: distance count");
    assert_eq!(s.leaf_verified, 114_410, "grouped: verified leaves");
}

/// The broadcast must actually *do* something where it can: on a deep tree
/// (small `Nc`) over spatial data, the lockstep path must tighten bounds
/// and verify strictly fewer leaves than independent descent — with
/// bit-identical answers — and repeated runs must produce identical
/// simulated clocks and counters (the two-phase barrier protocol leaves no
/// room for scheduling nondeterminism).
#[test]
fn broadcast_tightens_bounds_deterministically() {
    let data = DatasetKind::TLoc.generate(4_000, 99);
    let queries: Vec<Item> = (0..24).map(|i| data.items[i * 61].clone()).collect();
    let run = |broadcast: bool| {
        let pool = DevicePool::rtx_2080_ti(4);
        let idx = ShardedGts::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default()
                .with_node_capacity(5)
                .with_shards(4)
                .with_bound_broadcast(broadcast),
        )
        .expect("build");
        pool.reset_clocks();
        let knn = idx.batch_knn(&queries, 8).expect("knn");
        (knn, idx.stats(), idx.span_cycles())
    };
    let (off, off_stats, _) = run(false);
    let (on, on_stats, on_span) = run(true);
    assert_eq!(off, on, "broadcast must not change answers");
    assert_eq!(off_stats.broadcast_tightened, 0, "off path never injects");
    assert!(
        on_stats.broadcast_tightened > 0,
        "the lockstep exchange must tighten at least one per-query bound"
    );
    assert!(
        on_stats.leaf_verified < off_stats.leaf_verified,
        "tightened bounds must filter leaf verifications ({} vs {})",
        on_stats.leaf_verified,
        off_stats.leaf_verified
    );
    // Determinism: an identical second run reproduces clocks and counters.
    let (on2, on2_stats, on2_span) = run(true);
    assert_eq!(on, on2, "broadcast answers are reproducible");
    assert_eq!(on_stats, on2_stats, "broadcast counters are reproducible");
    assert_eq!(on_span, on2_span, "broadcast clocks are reproducible");
}

/// Edge case: a dataset so small every per-shard tree has height 1 — every
/// engine's first step *is* its leaf verification ("all queries resolved at
/// level 0"), so the lockstep loop runs with nothing to broadcast between
/// and must terminate cleanly with exact answers.
#[test]
fn broadcast_handles_trees_with_no_internal_levels() {
    let (items, metric) = words(40, 7);
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        items.clone(),
        metric,
        GtsParams::default(),
    )
    .expect("build");
    let queries: Vec<Item> = items[..8].to_vec();
    let want = single.batch_knn(&queries, 3).expect("single knn");
    let pool = DevicePool::rtx_2080_ti(4);
    let idx = ShardedGts::build(
        &pool,
        items,
        metric,
        GtsParams::default()
            .with_shards(4)
            .with_bound_broadcast(true),
    )
    .expect("build");
    assert!(
        idx.shard(0).height() == 1,
        "the edge case needs height-1 shard trees (10 objects, Nc = 20)"
    );
    assert_eq!(idx.batch_knn(&queries, 3).expect("knn"), want);
}

/// Edge case: one shard's frontier dies while the others keep descending.
/// Even global ids form a tight cluster around the queries and odd ids a
/// far-away cluster, so under round-robin S = 2 sharding shard 0 owns every
/// close neighbour: its bounds collapse immediately, the broadcast injects
/// them into shard 1, and shard 1's frontier is pruned dead levels before
/// its leaves — it then idles at the barrier while shard 0 finishes.
/// Answers must still be bit-identical to broadcast-off, and shard 1 must
/// demonstrably do less expansion work than without the broadcast.
#[test]
fn broadcast_kills_a_hopeless_shards_frontier_early() {
    // items[2i] stay in the T-Loc domain; items[2i+1] are shifted 1e6 away.
    let near = DatasetKind::TLoc.generate(2_000, 5).items;
    let items: Vec<Item> = (0..2_000)
        .map(|i| {
            if i % 2 == 0 {
                near[i].clone()
            } else {
                let Some(v) = near[i].as_vector() else {
                    panic!("TLoc items are vectors")
                };
                Item::vector(v.iter().map(|x| x + 1e6).collect::<Vec<f32>>())
            }
        })
        .collect();
    let queries: Vec<Item> = (0..16).map(|i| items[2 * (i * 7)].clone()).collect();
    let run = |broadcast: bool| {
        let pool = DevicePool::rtx_2080_ti(2);
        let idx = ShardedGts::build(
            &pool,
            items.clone(),
            ItemMetric::L2,
            GtsParams::default()
                .with_node_capacity(4)
                .with_shards(2)
                .with_bound_broadcast(broadcast),
        )
        .expect("build");
        let knn = idx.batch_knn(&queries, 4).expect("knn");
        (knn, idx.shard_stats(1), idx.stats())
    };
    let (off, far_off, _) = run(false);
    let (on, far_on, total_on) = run(true);
    assert_eq!(off, on, "answers survive the dead-frontier broadcast");
    assert!(
        total_on.broadcast_tightened > 0,
        "the near shard's collapsed bounds must reach the far shard"
    );
    assert!(
        far_on.nodes_expanded < far_off.nodes_expanded,
        "injected bounds must kill the far shard's frontier early \
         ({} vs {} expansions)",
        far_on.nodes_expanded,
        far_off.nodes_expanded
    );
    // Every query's answers live on the near shard; with the broadcast the
    // far shard's frontier dies *before its leaves* — not a single leaf
    // entry reaches verification (it then idles at the barrier while the
    // near shard finishes).
    assert!(
        far_off.leaf_verified > 0,
        "without broadcast the far shard wastes real leaf verifications"
    );
    assert_eq!(
        (far_on.leaf_verified, far_on.leaf_filtered),
        (0, 0),
        "with broadcast the far shard's frontier must die before the leaves"
    );
}

/// Vector data × topology: the other sweeps run edit distance over text;
/// this one runs L2 over the flat `f32` arena. For S ∈ {1, 2, 4}, a
/// sharded T-Loc index must return answers **bit-identical** to the
/// single-device index, and the S = 1 case must also charge the identical
/// device cycle count.
#[test]
fn tloc_vectors_are_shard_invariant() {
    let data = DatasetKind::TLoc.generate(1_200, 4321);
    let dev = Device::rtx_2080_ti();
    let single = Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default())
        .expect("single-device build");
    let queries: Vec<Item> = (0..24usize)
        .map(|i| data.items[(i * 13) % 1_200].clone())
        .collect();
    let radii = vec![120.0; queries.len()];
    let want_mrq = single.batch_range(&queries, &radii).expect("single mrq");
    let want_knn = single.batch_knn(&queries, 8).expect("single knn");

    for s in SHARD_SWEEP {
        let pool = DevicePool::rtx_2080_ti(s as usize);
        let sharded = ShardedGts::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(s),
        )
        .expect("sharded build");
        assert_eq!(
            sharded.batch_range(&queries, &radii).expect("sharded mrq"),
            want_mrq,
            "MRQ answers must be bit-identical at {s} shards"
        );
        assert_eq!(
            sharded.batch_knn(&queries, 8).expect("sharded knn"),
            want_knn,
            "MkNNQ answers must be bit-identical at {s} shards"
        );
        if s == 1 {
            assert_eq!(
                pool.get(0).stats(),
                dev.stats(),
                "one shard charges the single-device cycles"
            );
        }
    }
}

#[test]
fn sharded_snapshot_roundtrip_preserves_bit_identical_answers() {
    let (items, metric) = tie_heavy(300, 3);
    let pool = DevicePool::rtx_2080_ti(2);
    let idx = ShardedGts::build(
        &pool,
        items.clone(),
        metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    let bytes = idx.snapshot();

    let pool2 = DevicePool::rtx_2080_ti(2);
    let restored = ShardedGts::restore(&pool2, items.clone(), metric, &bytes).expect("restore");
    let queries: Vec<Item> = items[..12].to_vec();
    let radii = vec![2.0; queries.len()];
    assert_eq!(
        restored.batch_range(&queries, &radii).expect("mrq"),
        idx.batch_range(&queries, &radii).expect("mrq"),
    );
    assert_eq!(
        restored.batch_knn(&queries, 6).expect("knn"),
        idx.batch_knn(&queries, 6).expect("knn"),
    );
}
