//! Host-parallel dispatch of batched distance blocks.
//!
//! Every hot-path kernel in this crate — construction mapping, per-level
//! pivot distances, leaf verification, the cache scan — bottoms out in "one
//! query against one id block" calls to
//! [`BatchMetric::distance_batch`]. This module is the single place that
//! decides *how* such a block executes: serially for small blocks, or cut
//! into fixed-size chunks ([`gpu_sim::exec::BATCH_CHUNK`]) fanned out over
//! host threads via [`Device::run_batch_chunks`] for large ones.
//!
//! The chunk boundaries depend only on the block length, and per-chunk
//! `(work, span)` combine by sum/max, so the dispatched block returns the
//! same outputs and the same accounting as a serial call — host threads
//! are a pure wall-clock lever (the thread-invariance tests prove it
//! end-to-end). Charging stays with the caller's enclosing
//! [`Device::launch_batch`]: one charge per batch, regardless of how many
//! chunks or threads executed it.

use gpu_sim::exec::BATCH_CHUNK;
use gpu_sim::Device;
use metric_space::{chunk_pairs, BatchMetric, ObjectArena};

/// Blocks below this many pairs run serially: with fewer than two chunks
/// there is nothing to fan out, and thread spawn cost would dominate.
pub(crate) const PAR_MIN_PAIRS: usize = 2 * BATCH_CHUNK;

/// Evaluate `out[i] = d(query, objects[ids[i]])` over one id block,
/// returning the block's `(total_work, span)` — the parallel-aware
/// equivalent of calling [`BatchMetric::distance_batch`] directly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn distance_block<O, M>(
    dev: &Device,
    threads: usize,
    metric: &M,
    objects: &[O],
    arena: Option<&ObjectArena>,
    query: &O,
    ids: &[u32],
    out: &mut [f64],
) -> (u64, u64)
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    if threads <= 1 || ids.len() < PAR_MIN_PAIRS {
        return metric.distance_batch(objects, arena, query, ids, out);
    }
    let chunks = chunk_pairs(BATCH_CHUNK, ids, out);
    dev.run_batch_chunks(threads, chunks, |c| {
        metric.distance_batch(objects, arena, query, c.ids, c.out)
    })
}

/// One chunk of a bounded distance block: disjoint `(ids, bounds, out)`
/// slices cut at the same fixed [`BATCH_CHUNK`] boundaries as
/// [`chunk_pairs`], so the bounded kernels inherit the identical
/// determinism argument (chunk boundaries depend only on block length;
/// per-chunk `(work, span)` combine by sum/max).
struct BoundedChunk<'a> {
    ids: &'a [u32],
    bounds: &'a [f64],
    out: &'a mut [Option<f64>],
}

fn chunk_bounded<'a>(
    chunk: usize,
    ids: &'a [u32],
    bounds: &'a [f64],
    out: &'a mut [Option<f64>],
) -> Vec<BoundedChunk<'a>> {
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(ids.len(), bounds.len());
    assert_eq!(ids.len(), out.len());
    // Same `slice::chunks` boundary policy as `chunk_pairs` — one source
    // of truth, so the two chunkers can never drift.
    ids.chunks(chunk)
        .zip(bounds.chunks(chunk))
        .zip(out.chunks_mut(chunk))
        .map(|((ids, bounds), out)| BoundedChunk { ids, bounds, out })
        .collect()
}

/// Evaluate `out[i] = Some(d)` iff `d = d(query, objects[ids[i]]) ≤
/// bounds[i]` over one id block via the early-abandoning kernel
/// ([`BatchMetric::distance_batch_bounded`]), returning `(total_work,
/// span)` — the bounded sibling of [`distance_block`], with the same
/// serial-below-threshold / chunked-above dispatch and the same
/// thread-invariance guarantee.
#[allow(clippy::too_many_arguments)]
pub(crate) fn distance_block_bounded<O, M>(
    dev: &Device,
    threads: usize,
    metric: &M,
    objects: &[O],
    arena: Option<&ObjectArena>,
    query: &O,
    ids: &[u32],
    bounds: &[f64],
    out: &mut [Option<f64>],
) -> (u64, u64)
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    if threads <= 1 || ids.len() < PAR_MIN_PAIRS {
        return metric.distance_batch_bounded(objects, arena, query, ids, bounds, out);
    }
    let chunks = chunk_bounded(BATCH_CHUNK, ids, bounds, out);
    dev.run_batch_chunks(threads, chunks, |c| {
        metric.distance_batch_bounded(objects, arena, query, c.ids, c.bounds, c.out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use metric_space::gen;
    use metric_space::{Item, ItemMetric};

    #[test]
    fn parallel_block_matches_serial_bitwise() {
        let items: Vec<Item> = gen::words(512, 3);
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("arena");
        let dev = gpu_sim::Device::new(DeviceConfig::rtx_2080_ti());
        let n = PAR_MIN_PAIRS + 777; // forces the chunked path
        let ids: Vec<u32> = (0..n as u32).map(|i| i % items.len() as u32).collect();
        let q = &items[0];
        let mut serial = vec![0.0; n];
        let expect = metric.distance_batch(&items, Some(&arena), q, &ids, &mut serial);
        for threads in [1usize, 2, 8] {
            let mut out = vec![0.0; n];
            let got = distance_block(
                &dev,
                threads,
                &metric,
                &items,
                Some(&arena),
                q,
                &ids,
                &mut out,
            );
            assert_eq!(out, serial, "threads = {threads}");
            assert_eq!(got, expect, "threads = {threads}: accounting");
        }
    }

    #[test]
    fn parallel_bounded_block_matches_serial_bitwise() {
        let items: Vec<Item> = gen::words(512, 5);
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("arena");
        let dev = gpu_sim::Device::new(DeviceConfig::rtx_2080_ti());
        let n = PAR_MIN_PAIRS + 311; // forces the chunked path
        let ids: Vec<u32> = (0..n as u32).map(|i| i % items.len() as u32).collect();
        let bounds: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let q = &items[0];
        let mut serial = vec![None; n];
        let expect =
            metric.distance_batch_bounded(&items, Some(&arena), q, &ids, &bounds, &mut serial);
        for threads in [1usize, 2, 8] {
            let mut out = vec![None; n];
            let got = distance_block_bounded(
                &dev,
                threads,
                &metric,
                &items,
                Some(&arena),
                q,
                &ids,
                &bounds,
                &mut out,
            );
            assert_eq!(out, serial, "threads = {threads}");
            assert_eq!(got, expect, "threads = {threads}: accounting");
        }
    }
}
