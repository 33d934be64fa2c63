//! Property-based tests (proptest) over the core invariants:
//! metric axioms, pruning-lemma soundness, device-sort correctness,
//! batch-kernel/scalar agreement, and GTS-vs-scan equivalence on random
//! inputs.

use gts::metric::dist::{
    edit_distance, edit_distance_bounded, edit_distance_bounded_bytes_with, edit_distance_bytes,
};
use gts::metric::lemmas::{prune_node_range, prune_object_knn, prune_object_range};
use gts::metric::Metric as _;
use gts::metric::{BatchMetric, EditScratch};
use gts::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

#[path = "../crates/metric/tests/support/edit_dp.rs"]
mod edit_dp;
use edit_dp::levenshtein;

/// Lengths straddling every word boundary of the bit-parallel edit kernel:
/// the single `u128` word (patterns of up to 128 bytes) and the `u64`
/// blocks beyond it.
const EDGE_LENS: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 200, 300];

/// Arbitrary byte strings of a boundary length, over an alphabet of 1 to
/// 256 byte values.
struct EdgeBytes;

impl Strategy for EdgeBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let len = EDGE_LENS[rng.gen_range(0..EDGE_LENS.len())];
        let sigma = [1u32, 2, 4, 20, 256][rng.gen_range(0..5usize)];
        let base = rng.gen_range(0..=256 - sigma);
        (0..len)
            .map(|_| (base + rng.gen_range(0..sigma)) as u8)
            .collect()
    }
}

/// Strings of about a boundary length in bytes, mixing ASCII with two-,
/// three- and four-byte UTF-8 scalars.
struct EdgeUtf8;

impl Strategy for EdgeUtf8 {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        const CHARS: [char; 7] = ['a', 'c', 'g', 't', 'é', '中', '🧬'];
        let target = EDGE_LENS[rng.gen_range(0..EDGE_LENS.len())];
        let mut s = String::new();
        while s.len() < target {
            s.push(CHARS[rng.gen_range(0..CHARS.len())]);
        }
        s
    }
}

fn arb_word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-d]{0,12}").expect("regex")
}

fn arb_vec(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edit distance satisfies all four metric axioms.
    #[test]
    fn edit_distance_is_a_metric(a in arb_word(), b in arb_word(), c in arb_word()) {
        let dab = edit_distance(&a, &b);
        let dba = edit_distance(&b, &a);
        prop_assert_eq!(dab, dba, "symmetry");
        prop_assert_eq!(edit_distance(&a, &a), 0, "identity");
        prop_assert!((dab == 0) == (a == b), "indiscernibles");
        let dac = edit_distance(&a, &c);
        let dcb = edit_distance(&c, &b);
        prop_assert!(dab <= dac + dcb, "triangle: {} > {} + {}", dab, dac, dcb);
    }

    /// Bounded edit distance agrees with the full DP whenever it answers.
    #[test]
    fn bounded_edit_agrees(a in arb_word(), b in arb_word(), bound in 0u32..8) {
        let full = edit_distance(&a, &b);
        match edit_distance_bounded(&a, &b, bound) {
            Some(d) => prop_assert_eq!(d, full),
            None => prop_assert!(full > bound),
        }
    }

    /// The bit-parallel kernel returns the DP oracle's integer at every
    /// word-boundary length, with either string as the pattern.
    #[test]
    fn edit_kernel_matches_dp_oracle(a in EdgeBytes, b in EdgeBytes) {
        let want = levenshtein(&a, &b);
        prop_assert_eq!(edit_distance_bytes(&a, &b), want, "{}x{}", a.len(), b.len());
        prop_assert_eq!(edit_distance_bytes(&b, &a), want, "{}x{}", b.len(), a.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bounded kernel answers `Some(d)` exactly when the oracle's `d`
    /// is within the bound — for every bound up to past the longer length,
    /// and for `u32::MAX` — whichever string is the longer pattern.
    #[test]
    fn bounded_edit_matches_oracle_for_every_bound(a in EdgeBytes, b in EdgeBytes) {
        let d = levenshtein(&a, &b);
        let mut scratch = EditScratch::default();
        let max_len = a.len().max(b.len()) as u32;
        for bound in (0..=max_len + 1).chain([u32::MAX]) {
            let want = (d <= bound).then_some(d);
            prop_assert_eq!(edit_distance_bounded_bytes_with(&a, &b, bound, &mut scratch), want, "bound {}", bound);
            prop_assert_eq!(edit_distance_bounded_bytes_with(&b, &a, bound, &mut scratch), want, "bound {}", bound);
        }
    }

    /// The batched edit kernels, which encode the query once per batch,
    /// match the oracle on multi-byte UTF-8 text of mixed lengths — so the
    /// query is longer than some objects and shorter than others.
    #[test]
    fn batch_edit_matches_oracle_on_utf8(
        words in proptest::collection::vec(EdgeUtf8, 2..10),
        qsel in 0usize..10,
        bound in 0.0f64..200.0,
    ) {
        let items: Vec<Item> = words.iter().map(|w| Item::text(w.clone())).collect();
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("homogeneous text");
        let q = &words[qsel % words.len()];
        let query = Item::text(q.clone());
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let mut out = vec![0.0; ids.len()];
        metric.distance_batch(&items, Some(&arena), &query, &ids, &mut out);
        let bounds = vec![bound; ids.len()];
        let mut bounded = vec![None; ids.len()];
        metric
            .distance_batch_bounded(&items, Some(&arena), &query, &ids, &bounds, &mut bounded);
        for ((w, &got), &within) in words.iter().zip(&out).zip(&bounded) {
            let want = f64::from(levenshtein(q.as_bytes(), w.as_bytes()));
            prop_assert_eq!(got, want, "{} vs {} bytes", q.len(), w.len());
            prop_assert_eq!(within, (want <= bound).then_some(want), "bound {}", bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// L1, L2 and angular distances satisfy the triangle inequality.
    #[test]
    fn vector_metrics_triangle(a in arb_vec(6), b in arb_vec(6), c in arb_vec(6)) {
        for metric in [ItemMetric::L1, ItemMetric::L2, ItemMetric::ANGULAR] {
            let (ia, ib, ic) = (
                Item::vector(a.clone()),
                Item::vector(b.clone()),
                Item::vector(c.clone()),
            );
            let dab = metric.distance(&ia, &ib);
            let dac = metric.distance(&ia, &ic);
            let dcb = metric.distance(&ic, &ib);
            prop_assert!(
                dab <= dac + dcb + 1e-6,
                "{}: {} > {} + {}", metric.name(), dab, dac, dcb
            );
            prop_assert!((dab - metric.distance(&ib, &ia)).abs() < 1e-9, "symmetry");
        }
    }

    /// Lemma 5.1 soundness: a pruned object really lies outside the radius.
    #[test]
    fn lemma51_sound_on_random_strings(
        o in arb_word(), q in arb_word(), p in arb_word(), r in 0u32..6
    ) {
        let d_op = f64::from(edit_distance(&o, &p));
        let d_qp = f64::from(edit_distance(&q, &p));
        if prune_object_range(d_op, d_qp, f64::from(r)) {
            prop_assert!(f64::from(edit_distance(&o, &q)) > f64::from(r));
        }
    }

    /// Lemma 5.2 soundness: a pruned object cannot beat the current bound.
    #[test]
    fn lemma52_sound_on_random_vectors(
        o in arb_vec(4), q in arb_vec(4), p in arb_vec(4), bound in 0.1f64..50.0
    ) {
        let m = ItemMetric::L2;
        let (io, iq, ip) = (Item::vector(o), Item::vector(q), Item::vector(p));
        let d_op = m.distance(&io, &ip);
        let d_qp = m.distance(&iq, &ip);
        if prune_object_knn(d_op, d_qp, bound) {
            prop_assert!(m.distance(&io, &iq) >= bound - 1e-9);
        }
    }

    /// Node-ring pruning never prunes a ring containing the query coordinate.
    #[test]
    fn ring_prune_never_covers_query(lo in 0.0f64..50.0, width in 0.0f64..50.0,
                                     dq in 0.0f64..100.0, r in 0.0f64..10.0) {
        let hi = lo + width;
        if dq >= lo && dq <= hi {
            prop_assert!(!prune_node_range(lo, hi, dq, r));
        }
    }

    /// Device radix sort equals the std stable sort on random keys.
    #[test]
    fn device_sort_matches_std(keys in proptest::collection::vec(-1e9f64..1e9, 0..300)) {
        let dev = Device::rtx_2080_ti();
        let mut pairs: Vec<(f64, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let mut expect = pairs.clone();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)));
        gts::gpu::primitives::sort_pairs_by_key(&dev, &mut pairs);
        prop_assert_eq!(pairs, expect);
    }

    /// The batched edit-distance kernel agrees **exactly** (bit-identical
    /// values, identical work accounting) with the scalar metric.
    #[test]
    fn batch_edit_matches_scalar(words in proptest::collection::vec(arb_word(), 2..40), qsel in 0usize..40) {
        let items: Vec<Item> = words.iter().map(|w| Item::text(w.clone())).collect();
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("homogeneous text");
        let q = &items[qsel % items.len()];
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let mut out = vec![0.0; ids.len()];
        let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut out);
        let mut want_total = 0u64;
        let mut want_span = 0u64;
        for (&id, &got) in ids.iter().zip(&out) {
            let o = &items[id as usize];
            prop_assert_eq!(got.to_bits(), metric.distance(q, o).to_bits());
            let w = metric.work(q, o);
            want_total += w;
            want_span = want_span.max(w);
        }
        prop_assert_eq!(total, want_total);
        prop_assert_eq!(span, want_span);
    }

    /// The batched vector kernels (L1, L2, angular) agree exactly with the
    /// scalar metrics.
    #[test]
    fn batch_vector_matches_scalar(vecs in proptest::collection::vec(arb_vec(6), 2..40), qsel in 0usize..40) {
        let items: Vec<Item> = vecs.iter().cloned().map(Item::vector).collect();
        for metric in [ItemMetric::L1, ItemMetric::L2, ItemMetric::ANGULAR] {
            let arena = metric.build_arena(&items).expect("homogeneous vectors");
            let q = &items[qsel % items.len()];
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let mut out = vec![0.0; ids.len()];
            let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut out);
            let mut want_total = 0u64;
            let mut want_span = 0u64;
            for (&id, &got) in ids.iter().zip(&out) {
                let o = &items[id as usize];
                prop_assert_eq!(got.to_bits(), metric.distance(q, o).to_bits(), "{}", metric.name());
                let w = metric.work(q, o);
                want_total += w;
                want_span = want_span.max(w);
            }
            prop_assert_eq!(total, want_total, "{}", metric.name());
            prop_assert_eq!(span, want_span, "{}", metric.name());
        }
    }

    /// The early-abandoning batched kernel is exact whenever it answers
    /// `Some`, and only abandons pairs that genuinely exceed their bound.
    #[test]
    fn batch_bounded_exact_when_some(
        words in proptest::collection::vec(arb_word(), 2..30),
        vecs in proptest::collection::vec(arb_vec(4), 2..30),
        bound in 0.0f64..8.0,
    ) {
        let cases: [(ItemMetric, Vec<Item>); 2] = [
            (ItemMetric::Edit, words.iter().map(|w| Item::text(w.clone())).collect()),
            (ItemMetric::L2, vecs.iter().cloned().map(Item::vector).collect()),
        ];
        for (metric, items) in cases {
            let arena = metric.build_arena(&items).expect("homogeneous");
            let q = &items[0];
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let bounds = vec![bound; ids.len()];
            let mut out = vec![None; ids.len()];
            metric
                .distance_batch_bounded(&items, Some(&arena), q, &ids, &bounds, &mut out);
            for (&id, slot) in ids.iter().zip(&out) {
                let real = metric.distance(q, &items[id as usize]);
                match slot {
                    Some(d) => {
                        prop_assert_eq!(d.to_bits(), real.to_bits(), "{}", metric.name());
                        prop_assert!(*d <= bound);
                    }
                    None => prop_assert!(real > bound, "{}: abandoned {real} <= {bound}", metric.name()),
                }
            }
        }
    }

    /// GTS MRQ equals brute force on random 2-d point sets.
    #[test]
    fn gts_matches_bruteforce_random_points(
        points in proptest::collection::vec(arb_vec(2), 30..120),
        r in 0.5f64..100.0,
        qsel in 0usize..30,
    ) {
        let items: Vec<Item> = points.iter().cloned().map(Item::vector).collect();
        let metric = ItemMetric::L2;
        let dev = Device::rtx_2080_ti();
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default().with_node_capacity(3))
            .expect("build");
        let q = items[qsel % items.len()].clone();
        let mut want: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let d = metric.distance(&q, o);
                (d <= r).then_some(Neighbor::new(i as u32, d))
            })
            .collect();
        gts::metric::index::sort_neighbors(&mut want);
        let got = gts.range_query(&q, r).expect("query");
        prop_assert_eq!(got, want);
    }

    /// GTS kNN distances equal brute force on random word sets.
    #[test]
    fn gts_knn_matches_bruteforce_random_words(
        words in proptest::collection::vec(arb_word(), 25..80),
        k in 1usize..10,
    ) {
        let items: Vec<Item> = words.iter().map(|w| Item::text(w.clone())).collect();
        let metric = ItemMetric::Edit;
        let dev = Device::rtx_2080_ti();
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default().with_node_capacity(4))
            .expect("build");
        let q = items[0].clone();
        let mut all: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .map(|(i, o)| Neighbor::new(i as u32, metric.distance(&q, o)))
            .collect();
        gts::metric::index::sort_neighbors(&mut all);
        all.truncate(k);
        let got = gts.knn_query(&q, k).expect("query");
        prop_assert_eq!(got.len(), all.len());
        for (g, w) in got.iter().zip(&all) {
            prop_assert!((g.dist - w.dist).abs() < 1e-9, "{} vs {}", g.dist, w.dist);
        }
    }
}
