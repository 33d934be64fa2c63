//! GPU-Table — the distance-table family of GPU baselines (\[6, 20, 30, 34\]):
//! one kernel computes the distance from the query batch to **every** object,
//! then MRQ filters by predicate and MkNNQ runs the delegate-centric
//! Dr.Top-k of Gaihre et al. \[23\].
//!
//! There is no index to build (the paper notes GPU-Table "eliminates index
//! construction cost") and no pruning at all — the massive unnecessary
//! distance computation is exactly the weakness GTS addresses. The distance
//! table is materialised in device memory in query-row chunks sized to the
//! free capacity, so large batches degrade gracefully instead of OOMing.

use crate::clock::impl_gpu_clocked;
use gpu_sim::primitives::top_k_min;
use gpu_sim::{Device, GpuError, Reservation};
use metric_space::index::{sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Footprint, Item, ItemMetric, ObjectArena};
use std::sync::Arc;

/// Brute-force GPU distance-table method.
pub struct GpuTable {
    pub(crate) dev: Arc<Device>,
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    /// Flat payload arena: distance rows are computed batch-against-batch
    /// through [`BatchMetric::distance_batch`] instead of per pair. `None`
    /// when the dataset is heterogeneous or an append outgrew the arena;
    /// the batch kernel then falls back to boxed payloads with identical
    /// results and identical charged work.
    arena: Option<ObjectArena>,
    ids: Vec<u32>,
    _resident: Reservation,
}

fn gpu_err(e: GpuError) -> IndexError {
    match e {
        GpuError::OutOfMemory {
            requested,
            available,
            context,
        } => IndexError::OutOfMemory {
            requested,
            available,
            context,
        },
        GpuError::DeviceUnavailable { .. } => {
            IndexError::Unsupported("device quarantined by a permanent fault")
        }
    }
}

impl GpuTable {
    /// Load the dataset onto the device (the only "construction" cost).
    pub fn new(
        dev: &Arc<Device>,
        items: Vec<Item>,
        metric: ItemMetric,
    ) -> Result<Self, IndexError> {
        let bytes: u64 = items.iter().map(Footprint::size_bytes).sum();
        let resident = dev
            .reserve(bytes, "GPU-Table resident objects")
            .map_err(gpu_err)?;
        dev.h2d_transfer(bytes);
        let arena = metric.build_arena(&items);
        let ids = (0..items.len() as u32).collect();
        Ok(GpuTable {
            dev: Arc::clone(dev),
            live: vec![true; items.len()],
            arena,
            ids,
            items,
            metric,
            _resident: resident,
        })
    }

    /// Process `queries[lo..hi]` against all objects, returning the full
    /// distance rows; the caller chose `hi − lo` so the table fits.
    ///
    /// One batched launch covers the whole chunk: each query row is a
    /// [`BatchMetric::distance_batch`] sweep over the arena, and the launch
    /// charges the summed work with the rows' maximum per-pair span — the
    /// same total, span, and warp padding the old per-pair `launch_map`
    /// charged, so simulated cycles are unchanged.
    fn distance_rows(&self, queries: &[Item], lo: usize, hi: usize) -> Vec<f64> {
        let n = self.items.len();
        if n == 0 {
            return Vec::new();
        }
        let tasks = (hi - lo) * n;
        self.dev.launch_batch(tasks, || {
            let mut d = vec![0.0f64; tasks];
            let (mut total, mut span) = (0u64, 0u64);
            for (row, out) in d.chunks_mut(n).enumerate() {
                let (t, s) = self.metric.distance_batch(
                    &self.items,
                    self.arena.as_ref(),
                    &queries[lo + row],
                    &self.ids,
                    out,
                );
                total += t;
                span = span.max(s);
            }
            (d, total, span)
        })
    }

    /// Rows of the distance table that fit in current free memory.
    fn rows_that_fit(&self, remaining: usize) -> usize {
        let n = self.items.len().max(1) as u64;
        let free = self.dev.free_bytes() / 2; // headroom for outputs
        ((free / (n * 8)).max(1) as usize).min(remaining)
    }
}

impl SimilarityIndex<Item> for GpuTable {
    fn name(&self) -> &'static str {
        "GPU-Table"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &Item, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_range(std::slice::from_ref(q), &[r])?
            .pop()
            .expect("one answer"))
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_knn(std::slice::from_ref(q), k)?
            .pop()
            .expect("one answer"))
    }

    fn batch_range(
        &self,
        queries: &[Item],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        assert_eq!(queries.len(), radii.len());
        let n = self.items.len();
        let qbytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(qbytes);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut lo = 0usize;
        while lo < queries.len() {
            let rows = self.rows_that_fit(queries.len() - lo);
            let hi = lo + rows;
            let _table = self
                .dev
                .alloc::<f64>(rows * n, "GPU-Table distance table")
                .map_err(gpu_err)?;
            let d = self.distance_rows(queries, lo, hi);
            // Parallel filter pass over the table.
            self.dev.launch_charged((rows * n) as u64, 8);
            for (row, result) in results[lo..hi].iter_mut().enumerate() {
                let r = radii[lo + row];
                for (o, &dist) in d[row * n..(row + 1) * n].iter().enumerate() {
                    if dist <= r && self.live[o] {
                        result.push(Neighbor::new(o as u32, dist));
                    }
                }
                sort_neighbors(result);
            }
            lo = hi;
        }
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev.d2h_transfer((hits * 16) as u64);
        Ok(results)
    }

    fn batch_knn(&self, queries: &[Item], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let n = self.items.len();
        let qbytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(qbytes);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut lo = 0usize;
        while lo < queries.len() {
            let rows = self.rows_that_fit(queries.len() - lo);
            let hi = lo + rows;
            let _table = self
                .dev
                .alloc::<f64>(rows * n, "GPU-Table distance table")
                .map_err(gpu_err)?;
            let mut d = self.distance_rows(queries, lo, hi);
            // Tombstoned objects are masked before selection.
            for row in 0..rows {
                for (o, live) in self.live.iter().enumerate() {
                    if !live {
                        d[row * n + o] = f64::INFINITY;
                    }
                }
            }
            self.dev.launch_charged((rows * n) as u64, 4);
            for (row, result) in results[lo..hi].iter_mut().enumerate() {
                let rowslice = &d[row * n..(row + 1) * n];
                // Dr.Top-k: per-chunk delegates, then final selection.
                let idx = top_k_min(&self.dev, rowslice, k);
                result.extend(
                    idx.into_iter()
                        .map(|o| Neighbor::new(o, rowslice[o as usize])),
                );
            }
            lo = hi;
        }
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev.d2h_transfer((hits * 16) as u64);
        Ok(results)
    }

    fn memory_bytes(&self) -> u64 {
        // No index structure; only the liveness bitmap.
        self.live.len() as u64 / 8
    }
}

impl DynamicIndex<Item> for GpuTable {
    /// No structure to maintain: O(1) append (the arena grows in step; if
    /// the new object does not fit its layout, the arena is dropped and
    /// queries fall back to boxed payloads).
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.dev.h2d_transfer(obj.size_bytes());
        if let Some(arena) = self.arena.as_mut() {
            if !arena.push_item(&obj) {
                self.arena = None;
            }
        }
        self.items.push(obj);
        self.live.push(true);
        self.ids.push(id);
        Ok(id)
    }

    /// No structure to maintain: O(1) tombstone.
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

impl_gpu_clocked!(GpuTable);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan() {
        let d = DatasetKind::Vector.generate(200, 3);
        let dev = Device::rtx_2080_ti();
        let t = GpuTable::new(&dev, d.items.clone(), d.metric).expect("new");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let q = &d.items[9];
        let r = scan.knn_query(q, 5).expect("scan")[4].dist;
        assert_eq!(
            t.range_query(q, r).expect("gpu"),
            scan.range_query(q, r).expect("scan")
        );
        let da: Vec<f64> = t
            .knn_query(q, 5)
            .expect("t")
            .iter()
            .map(|n| n.dist)
            .collect();
        let db: Vec<f64> = scan
            .knn_query(q, 5)
            .expect("s")
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(da, db);
    }

    #[test]
    fn batch_chunks_under_memory_pressure() {
        let d = DatasetKind::TLoc.generate(500, 3);
        // Device so small that only a few distance rows fit at a time.
        let dev = gpu_sim::Device::new(gpu_sim::DeviceConfig {
            global_mem_bytes: 64 << 10,
            ..gpu_sim::DeviceConfig::rtx_2080_ti()
        });
        let t = GpuTable::new(&dev, d.items.clone(), d.metric).expect("new");
        let queries: Vec<Item> = d.items[..32].to_vec();
        let radii = vec![0.5; 32];
        let res = t.batch_range(&queries, &radii).expect("chunked batch");
        assert_eq!(res.len(), 32);
        for (i, r) in res.iter().enumerate() {
            assert!(r.iter().any(|n| n.id == i as u32), "self hit for {i}");
        }
    }

    #[test]
    fn update_then_query() {
        let d = DatasetKind::TLoc.generate(100, 3);
        let dev = Device::rtx_2080_ti();
        let mut t = GpuTable::new(&dev, d.items.clone(), d.metric).expect("new");
        let id = t.insert(Item::vector(vec![9e3, 9e3])).expect("ins");
        let hits = t
            .range_query(&Item::vector(vec![9e3, 9e3]), 1.0)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
        t.remove(id).expect("rm");
        let hits = t
            .range_query(&Item::vector(vec![9e3, 9e3]), 1.0)
            .expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
        // kNN must also mask removed ids.
        let knn = t.knn_query(&Item::vector(vec![9e3, 9e3]), 3).expect("knn");
        assert!(!knn.iter().any(|n| n.id == id));
    }

    #[test]
    fn charges_all_pairs_work() {
        let d = DatasetKind::TLoc.generate(300, 3);
        let dev = Device::rtx_2080_ti();
        let t = GpuTable::new(&dev, d.items.clone(), d.metric).expect("new");
        dev.reset_clock();
        t.range_query(&d.items[0], 0.1).expect("q");
        // 300 L2 distances at ~14 work each: the whole table, no pruning.
        assert!(dev.stats().work >= 300 * 10, "work = {}", dev.stats().work);
    }
}
