//! Corrupted snapshots: restoring damaged bytes must return a typed error
//! or a working index, never panic.
//!
//! Every strict prefix of a single-index (`GTS3`) and a sharded (`GTSI`)
//! snapshot must be rejected. Seeded single-byte flips may decode (a flip
//! inside a distance or a flag byte can still describe a valid index), so
//! each flip restores, then runs one `batch_range` and one `batch_knn`, all
//! under `catch_unwind`: `Ok` or `Err` are both fine, a panic fails.

use gts::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded byte flips per snapshot.
const FLIPS: usize = 500;

fn words() -> Dataset {
    DatasetKind::Words.generate(160, 17)
}

fn queries(data: &Dataset) -> Vec<Item> {
    (0..4u32).map(|i| data.item(i * 37).clone()).collect()
}

/// Restore `bytes` and run one batch of each query kind; `Err` at any
/// step ends the run. Returns whether the restore itself succeeded.
fn restore_and_query(dev: &std::sync::Arc<Device>, data: &Dataset, bytes: &[u8]) -> bool {
    let Ok(gts) = Gts::restore(dev, data.items.clone(), data.metric, bytes) else {
        return false;
    };
    let qs = queries(data);
    let _ = gts.batch_range(&qs, &vec![2.0; qs.len()]);
    let _ = gts.batch_knn(&qs, 5);
    true
}

fn restore_and_query_sharded(pool: &DevicePool, data: &Dataset, bytes: &[u8]) -> bool {
    let Ok(idx) = ShardedGts::restore(pool, data.items.clone(), data.metric, bytes) else {
        return false;
    };
    let qs = queries(data);
    let _ = idx.batch_range(&qs, &vec![2.0; qs.len()]);
    let _ = idx.batch_knn(&qs, 5);
    true
}

/// Flip one random bit pattern into one random byte of `bytes`, `FLIPS`
/// times, and run `restore` on each copy under `catch_unwind`.
fn flip_bytes(bytes: &[u8], seed: u64, mut restore: impl FnMut(&[u8]) -> bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..FLIPS {
        let mut bad = bytes.to_vec();
        let at = rng.gen_range(0..bad.len());
        let mask = rng.gen_range(1..=255u8);
        bad[at] ^= mask;
        let outcome = catch_unwind(AssertUnwindSafe(|| restore(&bad)));
        assert!(
            outcome.is_ok(),
            "flipping byte {at} with mask {mask:#04x} panicked"
        );
    }
}

#[test]
fn every_truncated_single_snapshot_is_rejected() {
    let data = words();
    let dev = Device::rtx_2080_ti();
    let gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let bytes = gts.snapshot();
    assert_eq!(&bytes[..4], b"GTS3");
    for len in 0..bytes.len() {
        let restored = Gts::restore(&dev, data.items.clone(), data.metric, &bytes[..len]);
        assert!(restored.is_err(), "a {len}-byte prefix restored");
    }
    assert!(
        restore_and_query(&dev, &data, &bytes),
        "the whole snapshot restores"
    );
}

#[test]
fn every_truncated_sharded_snapshot_is_rejected() {
    let data = words();
    let pool = DevicePool::rtx_2080_ti(2);
    let params = GtsParams::default().with_shards(2);
    let idx = ShardedGts::build(&pool, data.items.clone(), data.metric, params).expect("build");
    let bytes = idx.snapshot();
    for len in 0..bytes.len() {
        let restored = ShardedGts::restore(&pool, data.items.clone(), data.metric, &bytes[..len]);
        assert!(restored.is_err(), "a {len}-byte prefix restored");
    }
    assert!(
        restore_and_query_sharded(&pool, &data, &bytes),
        "the whole snapshot restores"
    );
}

#[test]
fn byte_flips_in_a_single_snapshot_never_panic() {
    let data = words();
    let dev = Device::rtx_2080_ti();
    let gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let bytes = gts.snapshot();
    flip_bytes(&bytes, 0x5eed_0001, |bad| {
        restore_and_query(&dev, &data, bad)
    });
}

#[test]
fn byte_flips_in_a_sharded_snapshot_never_panic() {
    let data = words();
    let pool = DevicePool::rtx_2080_ti(2);
    let params = GtsParams::default().with_shards(2);
    let idx = ShardedGts::build(&pool, data.items.clone(), data.metric, params).expect("build");
    let bytes = idx.snapshot();
    flip_bytes(&bytes, 0x5eed_0002, |bad| {
        restore_and_query_sharded(&pool, &data, bad)
    });
}
