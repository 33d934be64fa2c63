//! The public GTS index type.

use crate::audit::{AuditPlan, CostAudit};
use crate::build::{self, Structure};
use crate::cost::CostModel;
use crate::dispatch::distance_block;
use crate::memo::PairMemo;
use crate::node::NodeList;
use crate::params::GtsParams;
use crate::search::{self, SearchCtx};
use crate::stats::{SearchStats, StatsSnapshot};
use crate::table::TableList;
use crate::update::CacheTable;
use gpu_sim::{Device, GpuError, Reservation};
use metric_space::index::{sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Footprint, ObjectArena};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// GTS: the GPU-based tree index for similarity search in general metric
/// spaces (the paper's contribution).
///
/// Generic over the object type `O` and metric `M`; the only requirements
/// are that distances satisfy the metric axioms and objects can report their
/// memory footprint (for device residency accounting).
///
/// ```
/// use gts_core::{Gts, GtsParams};
/// use gpu_sim::Device;
/// use metric_space::{DatasetKind, SimilarityIndex};
///
/// let data = DatasetKind::Words.generate(500, 42);
/// let dev = Device::rtx_2080_ti();
/// let gts = Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).unwrap();
/// let answers = gts.range_query(&data.items[0], 1.0).unwrap();
/// assert!(answers.iter().any(|n| n.id == 0), "query object is its own neighbour");
/// ```
pub struct Gts<O, M> {
    dev: Arc<Device>,
    metric: M,
    params: GtsParams,
    /// Every object ever inserted; ids are indices here and never recycled.
    objects: Vec<O>,
    /// Flat payload arena mirroring `objects` (same ids), fed to the
    /// batched distance kernels. `None` only when the metric or the data
    /// has no flat layout (a custom metric, a mixed dataset) — kernels then
    /// fall back to per-pair object access with identical results and
    /// identical simulated cost.
    arena: Option<ObjectArena>,
    /// Liveness per id (deletions flip this off).
    live: Vec<bool>,
    nodes: NodeList,
    table: TableList,
    cache: CacheTable,
    stats: SearchStats,
    /// Cross-batch `(query, pivot)` memo allocation: each batched search
    /// takes it (emptied), probes/fills it level by level, and returns it
    /// cleared-but-capacity-preserved, so steady-state batches never
    /// reallocate the table. A `Mutex` (not `RefCell`) so the index stays
    /// `Sync` — the sharded scatter runs whole searches from scoped
    /// threads. Uncontended in practice: one batch per index at a time.
    memo: Mutex<PairMemo>,
    /// Cost-model audit: prediction vs. observed survivors per level
    /// (disabled by default; see [`crate::audit`]).
    audit: CostAudit,
    rebuilds: u64,
    build_distances: u64,
    /// Device residency of (node list, table list, object payloads).
    residency: Option<[Reservation; 3]>,
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
        // A quarantined device can't host new structures; surface it as an
        // unsupported-operation error (the replicated serving tier routes
        // around dead devices before ever allocating on them).
        GpuError::DeviceUnavailable { .. } => {
            IndexError::Unsupported("device quarantined by a permanent fault")
        }
    }
}

impl<O, M> Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    /// Build the index over `objects` on device `dev`.
    ///
    /// Construction is the paper's level-synchronous parallel algorithm
    /// (§4.3): one mapping + partitioning round per level, every distance
    /// of a level computed by one batched kernel. The returned index holds
    /// its device residency (node list, table list, object payloads) until
    /// dropped.
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::DatasetKind;
    ///
    /// // A metric dataset: English-like words under edit distance.
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    /// assert!(index.height() >= 1);
    /// assert_eq!(index.node_capacity(), 20, "the paper's recommended Nc");
    /// assert!(device.sim_seconds() > 0.0, "construction charges the simulated clock");
    /// ```
    pub fn build(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        if objects.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        let live = vec![true; objects.len()];
        let mut gts = Gts {
            dev: Arc::clone(dev),
            metric,
            params,
            objects,
            arena: None,
            live,
            nodes: NodeList::new(crate::node::TreeShape {
                nc: params.node_capacity,
                h: 1,
            }),
            table: TableList::default(),
            cache: CacheTable::new(params.cache_capacity_bytes),
            stats: SearchStats::default(),
            memo: Mutex::new(PairMemo::default()),
            audit: CostAudit::default(),
            rebuilds: 0,
            build_distances: 0,
            residency: None,
        };
        gts.reconstruct()?;
        gts.rebuilds = 0; // the initial build is not an update-triggered rebuild
        Ok(gts)
    }

    /// Rebuild the structure over all live objects (absorbing the cache);
    /// the §4.4 batch-update and cache-overflow path.
    pub fn rebuild(&mut self) -> Result<(), IndexError> {
        self.reconstruct()?;
        Ok(())
    }

    /// Host-only half of a batch update: tombstone `deletions` and append
    /// `insertions` to the object store **without** touching the device.
    /// Infallible and panic-free, so a caller can stage several shards and
    /// only then run the (fallible, fault-prone) rebuilds — a panic mid
    /// rebuild leaves every host store already complete. Returns how many
    /// deletions flipped a live object to dead (invalid and duplicate ids
    /// are skipped, matching [`Gts::batch_update`]'s semantics).
    pub(crate) fn stage_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> usize {
        let mut removed = 0usize;
        for &d in deletions {
            if let Some(live) = self.live.get_mut(d as usize) {
                if *live {
                    *live = false;
                    removed += 1;
                }
            }
        }
        for obj in insertions {
            self.objects.push(obj);
            self.live.push(true);
        }
        removed
    }

    /// Whether object `id` exists and is live (not tombstoned).
    pub(crate) fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// (Re)build the flat arena over the current object store. The arena is
    /// the device *layout* of the already-resident object payloads, not an
    /// extra copy, so it carries no separate reservation.
    fn refresh_arena(&mut self) {
        self.arena = self.metric.build_arena(&self.objects);
    }

    fn reconstruct(&mut self) -> Result<(), IndexError> {
        let ids: Vec<u32> = (0..self.objects.len() as u32)
            .filter(|&i| self.live[i as usize])
            .collect();
        if ids.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        // Free the previous structure before reserving the new one.
        self.residency = None;
        if self
            .arena
            .as_ref()
            .is_none_or(|a| a.len() != self.objects.len())
        {
            self.refresh_arena();
        }
        let Structure {
            nodes,
            table,
            build_distances,
        } = build::construct(
            &self.dev,
            &self.objects,
            self.arena.as_ref(),
            &ids,
            &self.metric,
            &self.params,
        )
        .map_err(gpu_err)?;
        let data_bytes: u64 = ids
            .iter()
            .map(|&i| self.objects[i as usize].size_bytes())
            .sum();
        let res_nodes = self
            .dev
            .reserve(nodes.bytes(), "GTS node list")
            .map_err(gpu_err)?;
        let res_table = self
            .dev
            .reserve(table.bytes(), "GTS table list")
            .map_err(gpu_err)?;
        let res_data = self
            .dev
            .reserve(data_bytes, "GTS resident objects")
            .map_err(gpu_err)?;
        self.nodes = nodes;
        self.table = table;
        self.build_distances = build_distances;
        self.residency = Some([res_nodes, res_table, res_data]);
        self.cache.clear();
        self.rebuilds += 1;
        Ok(())
    }

    pub(crate) fn ctx(&self) -> SearchCtx<'_, O, M> {
        // Take the shared memo allocation (leaving an empty default); it is
        // returned — cleared, capacity intact — by `reclaim_memo`.
        let memo = std::mem::take(&mut *self.memo.lock().expect("memo lock"));
        SearchCtx {
            dev: &self.dev,
            objects: &self.objects,
            metric: &self.metric,
            params: &self.params,
            nodes: &self.nodes,
            table: &self.table,
            arena: self.arena.as_ref(),
            live: &self.live,
            stats: &self.stats,
            threads: self.params.effective_host_threads(self.dev.host_threads()),
            audit: &self.audit,
            memo: RefCell::new(memo),
        }
    }

    /// Return the batch memo to the index: cleared (memo entries are valid
    /// for one batch only — the object store may change between batches)
    /// but with its grown allocation preserved for the next batch.
    pub(crate) fn reclaim_memo(&self, ctx: SearchCtx<'_, O, M>) {
        let mut memo = ctx.memo.into_inner();
        memo.clear();
        *self.memo.lock().expect("memo lock") = memo;
    }

    /// Batched metric range query (Algorithm 4) plus the cache-list scan of
    /// §4.4, answers merged per query in canonical order.
    ///
    /// `answers[i]` holds every indexed object within `radii[i]` of
    /// `queries[i]` (exact, sorted by distance then id). Batching is GTS's
    /// headline strength: the whole batch descends the tree together,
    /// level-synchronously.
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::{DatasetKind, Item};
    ///
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    ///
    /// // All words within 1 edit of each query word.
    /// let queries = vec![data.items[0].clone(), data.items[1].clone()];
    /// let answers = index.batch_range(&queries, &[1.0, 1.0]).expect("search");
    /// assert_eq!(answers.len(), 2, "one answer list per query");
    /// assert!(answers[0].iter().any(|n| n.id == 0), "a query finds itself");
    /// assert!(answers[0].windows(2).all(|w| w[0].dist <= w[1].dist), "canonical order");
    /// ```
    pub fn batch_range(
        &self,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        assert_eq!(queries.len(), radii.len());
        self.transfer_queries_in(queries);
        let ctx = self.ctx();
        let searched = search::batch_range(&ctx, queries, radii);
        self.reclaim_memo(ctx);
        let mut results = searched.map_err(gpu_err)?;
        self.merge_cache_range(queries, radii, &mut results);
        self.transfer_results_out(&results);
        Ok(results)
    }

    /// Batched metric kNN query (Algorithm 5) plus the cache-list scan.
    ///
    /// `answers[i]` holds the `k` nearest distinct indexed objects to
    /// `queries[i]` — exactly the **canonical** `k` smallest `(dist, id)`
    /// pairs, so ties at the k-th distance resolve deterministically by id
    /// (the property [`ShardedGts`](crate::ShardedGts) relies on to merge
    /// per-shard answers bit-identically). The per-query distance bound
    /// tightens level by level — the paper's "progressively narrowed
    /// distance boundary".
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::DatasetKind;
    ///
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    ///
    /// let queries = vec![data.items[0].clone(), data.items[7].clone()];
    /// let knn = index.batch_knn(&queries, 5).expect("search");
    /// assert_eq!(knn[0].len(), 5);
    /// assert_eq!(knn[0][0].id, 0, "the query object is its own 1-NN");
    ///
    /// // What the search actually did (the counters of `SearchStats`).
    /// let stats = index.stats();
    /// assert!(stats.distance_computations > 0);
    /// assert!(stats.nodes_expanded > 0, "the frontier descended the tree");
    /// ```
    pub fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        self.transfer_queries_in(queries);
        let ctx = self.ctx();
        let searched = search::batch_knn(&ctx, queries, k);
        self.reclaim_memo(ctx);
        let mut results = searched.map_err(gpu_err)?;
        self.merge_cache_knn(queries, k, &mut results);
        self.transfer_results_out(&results);
        Ok(results)
    }

    /// One shard's half of the **lockstep broadcast MkNNQ**
    /// ([`GtsParams::bound_broadcast`]): the sharded scatter calls this on
    /// every shard's thread concurrently, sharing one
    /// [`BoundExchange`](crate::engine::BoundExchange).
    ///
    /// Each round: step this shard's descent engine one level, publish the
    /// per-query bound snapshot (a D2H transfer of one `f64` per query) and
    /// this shard's elapsed device time, wait at the barrier, align the
    /// device clock to the slowest shard (the barrier's span cost), then
    /// read back the cross-shard minima (an H2D transfer) and inject them
    /// before the next level. A shard whose engine finishes early or dies
    /// on a device error keeps participating in the barriers (publishing
    /// its final bounds once, idling its clock) until every shard is done,
    /// so the rounds stay aligned. A shard that **panics** (a user metric
    /// misbehaving inside a kernel) also keeps honoring the barriers, but
    /// publishes nothing further — the engine's state is unknown after the
    /// unwind — and the caught panic is re-raised only after the lockstep
    /// rounds end, where it propagates through the scatter join exactly
    /// like on the independent-descent path instead of deadlocking the
    /// sibling shards at the barrier. The caller sees exactly the
    /// [`Gts::batch_knn`] pipeline: query transfer in, descent, memo
    /// reclaim, cache merge, result transfer out.
    pub(crate) fn batch_knn_lockstep(
        &self,
        queries: &[O],
        k: usize,
        exchange: &crate::engine::BoundExchange,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        self.transfer_queries_in(queries);
        let start = self.dev.cycles();
        let nq = queries.len();
        let ctx = self.ctx();
        let mut engine = crate::engine::DescentEngine::start_knn(&ctx, queries, k, None);
        let mut local = vec![f64::INFINITY; nq];
        let mut running = !engine.is_done();
        if !running {
            exchange.retire();
        }
        let mut failure: Option<GpuError> = None;
        let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
        loop {
            if running {
                // The step runs user metric code; a panic here must not
                // abandon the barrier (the sibling shards would block in
                // `wait` forever with no one left to complete the round).
                let step =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step_level()));
                match step {
                    Ok(Ok(true)) => {}
                    Ok(Ok(false)) => {
                        running = false;
                        exchange.retire();
                    }
                    Ok(Err(e)) => {
                        failure = Some(e);
                        running = false;
                        exchange.retire();
                    }
                    Err(payload) => {
                        panicked = Some(payload);
                        running = false;
                        exchange.retire();
                    }
                }
                if panicked.is_none() {
                    // Publish this level's bound snapshot — including the
                    // final one of an engine that just finished, whose
                    // bounds are its tightest and still help the shards
                    // that keep descending. (A panicked engine's state is
                    // unknown, so nothing more is read from it.)
                    engine.write_bounds(&mut local);
                    exchange.publish_bounds(&local);
                    self.dev
                        .d2h_transfer((nq * std::mem::size_of::<f64>()) as u64);
                }
            }
            exchange.publish_elapsed(self.dev.cycles() - start);
            exchange.wait();
            let done = exchange.all_done();
            // Barrier: every device waits for the slowest shard's level.
            self.dev.advance_clock_to(start + exchange.elapsed());
            if done {
                break;
            }
            if running {
                exchange.read_bounds(&mut local);
                self.dev
                    .h2d_transfer((nq * std::mem::size_of::<f64>()) as u64);
                engine.inject_bounds(&local);
            }
            // Second barrier phase: no publish of the next round may race a
            // read of this one.
            exchange.wait();
        }
        let searched = if failure.is_none() && panicked.is_none() {
            Some(engine.into_results())
        } else {
            drop(engine);
            None
        };
        self.reclaim_memo(ctx);
        if let Some(payload) = panicked {
            // Every shard has left the barrier loop; unwinding is now safe
            // and surfaces through the scatter join like any other panic.
            std::panic::resume_unwind(payload);
        }
        match failure {
            Some(e) => Err(gpu_err(e)),
            None => {
                let mut results = searched.expect("no failure implies results");
                self.merge_cache_knn(queries, k, &mut results);
                self.transfer_results_out(&results);
                Ok(results)
            }
        }
    }

    /// **Approximate** batched MkNNQ — the paper's §7 future-work direction.
    ///
    /// Each query expands at most `beam` frontier nodes per level (those
    /// whose distance ring is closest to the query's mapped coordinate).
    /// Recall degrades gracefully as `beam` shrinks; `beam ≥ Nc^(h−1)`
    /// degenerates to the exact search.
    pub fn batch_knn_approx(
        &self,
        queries: &[O],
        k: usize,
        beam: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        self.transfer_queries_in(queries);
        let ctx = self.ctx();
        let searched = search::batch_knn_impl(&ctx, queries, k, Some(beam));
        self.reclaim_memo(ctx);
        let mut results = searched.map_err(gpu_err)?;
        self.merge_cache_knn(queries, k, &mut results);
        self.transfer_results_out(&results);
        Ok(results)
    }

    pub(crate) fn transfer_queries_in(&self, queries: &[O]) {
        let bytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(bytes);
    }

    pub(crate) fn transfer_results_out(&self, results: &[Vec<Neighbor>]) {
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev
            .d2h_transfer((hits * std::mem::size_of::<Neighbor>()) as u64);
    }

    /// Brute-force distances from every query to every cached insertion
    /// (the cache is bounded by a few KB, so a flat table scan — the §4.4
    /// strategy), one batched arena-resolved kernel for the whole scan.
    fn cache_distances(&self, queries: &[O]) -> Vec<(u32, u32, f64)> {
        let ids = self.cache.ids();
        if ids.is_empty() || queries.is_empty() {
            return Vec::new();
        }
        let n = queries.len() * ids.len();
        let threads = self.params.effective_host_threads(self.dev.host_threads());
        let mut out = vec![0.0f64; ids.len()];
        let mut dists: Vec<(u32, u32, f64)> = Vec::with_capacity(n);
        self.dev.launch_batch(n, || {
            let mut total = 0u64;
            let mut span = 0u64;
            for (q, query) in queries.iter().enumerate() {
                let (w, s) = distance_block(
                    &self.dev,
                    threads,
                    &self.metric,
                    &self.objects,
                    self.arena.as_ref(),
                    query,
                    ids,
                    &mut out,
                );
                total += w;
                span = span.max(s);
                dists.extend(ids.iter().zip(&out).map(|(&o, &d)| (q as u32, o, d)));
            }
            ((), total, span)
        });
        self.stats.add(&self.stats.distance_computations, n as u64);
        dists
    }

    fn merge_cache_range(&self, queries: &[O], radii: &[f64], results: &mut [Vec<Neighbor>]) {
        for (q, o, d) in self.cache_distances(queries) {
            if d <= radii[q as usize] {
                results[q as usize].push(Neighbor::new(o, d));
            }
        }
        for r in results.iter_mut() {
            sort_neighbors(r);
        }
    }

    pub(crate) fn merge_cache_knn(&self, queries: &[O], k: usize, results: &mut [Vec<Neighbor>]) {
        if self.cache.len() == 0 {
            return;
        }
        let mut extra: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for (q, o, d) in self.cache_distances(queries) {
            extra[q as usize].push(Neighbor::new(o, d));
        }
        for (r, mut e) in results.iter_mut().zip(extra) {
            r.append(&mut e);
            sort_neighbors(r);
            r.truncate(k);
        }
    }

    // -- accessors ------------------------------------------------------------

    /// The device this index lives on.
    pub fn device(&self) -> &Arc<Device> {
        &self.dev
    }

    /// Construction/search parameters.
    pub fn params(&self) -> &GtsParams {
        &self.params
    }

    /// Override the host-thread knob (wall-clock only; never affects
    /// answers or simulated cycles). Used by the sharded restore path to
    /// divide the auto thread budget among shards.
    pub(crate) fn set_host_threads(&mut self, host_threads: usize) {
        self.params.host_threads = host_threads;
    }

    /// Toggle the cross-shard bound-broadcast knob (consulted by
    /// [`ShardedGts`](crate::ShardedGts), never by a plain `Gts`); affects
    /// subsequent searches only. Like `host_threads`, the knob is not
    /// persisted, so [`ShardedGts::set_bound_broadcast`](crate::ShardedGts)
    /// re-arms restored indexes.
    pub(crate) fn set_bound_broadcast(&mut self, broadcast: bool) {
        self.params.bound_broadcast = broadcast;
    }

    /// Tree height `h`.
    pub fn height(&self) -> u32 {
        self.nodes.shape().h
    }

    /// Node capacity `Nc`.
    pub fn node_capacity(&self) -> u32 {
        self.params.node_capacity
    }

    /// Snapshot of the search counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the search counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Rebuilds triggered by updates since construction.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Distance evaluations spent in the most recent (re)construction.
    pub fn build_distance_count(&self) -> u64 {
        self.build_distances
    }

    /// Number of insertions currently buffered in the cache table.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache occupancy in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Cache byte budget (rebuild threshold of §4.4).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Serialize the index structure (not the objects) to a versioned
    /// binary snapshot; see [`Gts::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(crate::snapshot::SnapshotParts {
            params: &self.params,
            nodes: &self.nodes,
            table: &self.table,
            live: &self.live,
            cache_ids: self.cache.ids(),
        })
    }

    /// Rebuild an index from a [`Gts::snapshot`] and the caller's object
    /// store (which must be the exact store the snapshot was taken over —
    /// validated structurally). Skips reconstruction entirely; only the
    /// device residency is re-reserved (and the snapshot bytes H2D-copied).
    pub fn restore(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        bytes: &[u8],
    ) -> Result<Self, IndexError> {
        let decoded = crate::snapshot::decode(bytes, objects.len())?;
        let data_bytes: u64 = decoded
            .live
            .iter()
            .zip(&objects)
            .filter(|&(&l, _)| l)
            .map(|(_, o)| o.size_bytes())
            .sum();
        let res_nodes = dev
            .reserve(decoded.nodes.bytes(), "GTS node list")
            .map_err(gpu_err)?;
        let res_table = dev
            .reserve(decoded.table.bytes(), "GTS table list")
            .map_err(gpu_err)?;
        let res_data = dev
            .reserve(data_bytes, "GTS resident objects")
            .map_err(gpu_err)?;
        dev.h2d_transfer(bytes.len() as u64 + data_bytes);
        let mut cache = CacheTable::new(decoded.params.cache_capacity_bytes);
        for &id in &decoded.cache_ids {
            cache.insert(id, objects[id as usize].size_bytes() as usize);
        }
        let arena = metric.build_arena(&objects);
        Ok(Gts {
            dev: Arc::clone(dev),
            metric,
            params: decoded.params,
            objects,
            arena,
            live: decoded.live,
            nodes: decoded.nodes,
            table: decoded.table,
            cache,
            stats: SearchStats::default(),
            memo: Mutex::new(PairMemo::default()),
            audit: CostAudit::default(),
            rebuilds: 0,
            build_distances: 0,
            residency: Some([res_nodes, res_table, res_data]),
        })
    }

    /// Distance from an arbitrary query object to indexed object `id`
    /// (charged to the device; the multi-column combiner's random access).
    pub fn distance_to_query(&self, q: &O, id: u32) -> f64 {
        let o = &self.objects[id as usize];
        self.dev.charge_kernel(self.metric.work(q, o), 1);
        self.stats.add(&self.stats.distance_computations, 1);
        self.metric.distance(q, o)
    }

    /// Fit the §5.3 cost model to this index's data by sampling pivot
    /// coordinates (`samples` distance evaluations, charged to the device).
    pub fn cost_model(&self, samples: usize, seed: u64) -> CostModel {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<u32> = self.table.live_ids();
        let pivot = ids[rng.gen_range(0..ids.len())];
        let mut sum = 0f64;
        let mut sum2 = 0f64;
        let mut work = 0u64;
        let samples = samples.max(2);
        for _ in 0..samples {
            let o = ids[rng.gen_range(0..ids.len())];
            let d = self
                .metric
                .distance(&self.objects[pivot as usize], &self.objects[o as usize]);
            work += self
                .metric
                .work(&self.objects[pivot as usize], &self.objects[o as usize]);
            sum += d;
            sum2 += d * d;
        }
        self.dev.charge_kernel(work, work / samples as u64);
        let mean = sum / samples as f64;
        let sigma = (sum2 / samples as f64 - mean * mean).max(0.0).sqrt();
        CostModel {
            n: self.len(),
            cores: self.dev.config().cores,
            sigma,
            distance_work: work as f64 / samples as f64,
        }
    }

    /// Largest query batch the §5.3 model expects this index to run without
    /// query grouping, sized against **this device's** current free memory
    /// ([`CostModel::max_batch_queries`] over the index's actual tree shape).
    pub fn max_batch_queries(&self, model: &CostModel, radius: f64) -> usize {
        self.max_batch_queries_with_free(self.dev.free_bytes(), model, radius)
    }

    /// [`Gts::max_batch_queries`] against an explicit free-memory budget —
    /// the entry point a *global* scheduler uses to size one batch across
    /// several shards (passing the pool-wide minimum free bytes instead of
    /// this device's own view; see
    /// [`ShardedGts::max_batch_queries`](crate::ShardedGts::max_batch_queries)).
    pub fn max_batch_queries_with_free(
        &self,
        free_bytes: u64,
        model: &CostModel,
        radius: f64,
    ) -> usize {
        let batch =
            model.max_batch_queries(free_bytes, self.params.node_capacity, self.height(), radius);
        // Freeze this prediction for the cost-model audit: subsequent
        // descents are measured against exactly the sizing that admitted
        // them (kept even while the audit is disabled, so enabling it later
        // audits against the current plan).
        self.audit.install(AuditPlan {
            model: *model,
            nc: self.params.node_capacity,
            h: self.height(),
            radius,
            predicted_batch: batch,
        });
        batch
    }

    /// The cost-model audit of this index: §5.3's batch-sizing prediction
    /// held against the per-level survivors and peak intermediate bytes the
    /// descent engine actually observes. Disabled by default; switch on
    /// with [`Gts::set_cost_audit_enabled`].
    pub fn cost_audit(&self) -> crate::audit::CostAuditSnapshot {
        self.audit.snapshot()
    }

    /// Enable or disable the cost-model audit (off: one relaxed atomic load
    /// per level, no other work; answers and simulated cycles are identical
    /// either way).
    pub fn set_cost_audit_enabled(&self, on: bool) {
        self.audit.set_enabled(on);
    }
}

impl<O, M> SimilarityIndex<O> for Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    fn name(&self) -> &'static str {
        "GTS"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &O, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_range(std::slice::from_ref(q), &[r])?
            .pop()
            .expect("one answer per query"))
    }

    fn knn_query(&self, q: &O, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_knn(std::slice::from_ref(q), k)?
            .pop()
            .expect("one answer per query"))
    }

    fn batch_range(&self, queries: &[O], radii: &[f64]) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        Gts::batch_range(self, queries, radii)
    }

    fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        Gts::batch_knn(self, queries, k)
    }

    fn memory_bytes(&self) -> u64 {
        self.nodes.bytes() + self.table.bytes() + self.cache.bytes() as u64
    }
}

impl<O, M> DynamicIndex<O> for Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    /// Streaming insert (§4.4): `O(1)` into the cache table (the object is
    /// shipped to the device-resident cache); rebuilds when the cache
    /// exceeds its byte budget. The arena is extended in place — the
    /// cache-scan kernel resolves fresh ids flat, too.
    fn insert(&mut self, obj: O) -> Result<u32, IndexError> {
        let id = self.objects.len() as u32;
        let bytes = obj.size_bytes() as usize;
        self.dev.h2d_transfer(bytes as u64);
        if let Some(arena) = self.arena.as_mut() {
            if !self.metric.arena_push(arena, &obj) {
                // The object has no flat representation under this arena;
                // degrade to per-pair kernels rather than desync ids.
                self.arena = None;
            }
        }
        self.objects.push(obj);
        self.live.push(true);
        let overflow = self.cache.insert(id, bytes);
        if overflow {
            self.rebuild()?;
        }
        Ok(id)
    }

    /// Streaming delete (§4.4): drop from the cache if buffered there,
    /// otherwise tombstone the table-list slot (one parallel scan kernel
    /// locating the id in `T_list`).
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        let Some(live) = self.live.get_mut(id as usize) else {
            return Ok(false);
        };
        if !*live {
            return Ok(false);
        }
        *live = false;
        let bytes = self.objects[id as usize].size_bytes() as usize;
        if !self.cache.remove(id, bytes) {
            // Tombstone before the scan kernel launches: every host mutation
            // precedes the only point an injected device fault can fire, so
            // a faulted remove leaves the host state already complete and
            // recovery needs no structural work.
            self.table.tombstone(id);
            self.dev.launch_charged(self.table.len() as u64, 8);
        }
        Ok(true)
    }

    /// Batch update (§4.4): apply all changes, then reconstruct once.
    fn batch_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> Result<(), IndexError> {
        self.stage_update(insertions, deletions);
        self.rebuild()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric_space::{DatasetKind, Item, ItemMetric, Metric};

    fn words(n: usize) -> (Arc<Device>, Vec<Item>, ItemMetric) {
        let d = DatasetKind::Words.generate(n, 21);
        (Device::rtx_2080_ti(), d.items, d.metric)
    }

    /// Ground truth by linear scan.
    fn scan_range(items: &[Item], m: &ItemMetric, q: &Item, r: f64) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let d = m.distance(q, o);
                (d <= r).then_some(Neighbor::new(i as u32, d))
            })
            .collect();
        sort_neighbors(&mut v);
        v
    }

    #[test]
    fn build_and_query_roundtrip() {
        let (dev, items, metric) = words(400);
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
        assert_eq!(gts.len(), 400);
        assert!(gts.height() >= 1);
        let got = gts.range_query(&items[7], 2.0).expect("query");
        assert_eq!(got, scan_range(&items, &metric, &items[7], 2.0));
    }

    #[test]
    fn empty_build_rejected() {
        let dev = Device::rtx_2080_ti();
        let err = Gts::build(
            &dev,
            Vec::<Item>::new(),
            ItemMetric::Edit,
            GtsParams::default(),
        );
        assert!(matches!(err, Err(IndexError::EmptyIndex)));
    }

    #[test]
    fn insert_goes_to_cache_then_rebuild_absorbs() {
        let (dev, items, metric) = words(200);
        let params = GtsParams::default().with_cache_capacity(10_000);
        let mut gts = Gts::build(&dev, items, metric, params).expect("build");
        let id = gts.insert(Item::text("zzzz")).expect("insert");
        assert_eq!(id, 200);
        assert_eq!(gts.cache_len(), 1);
        assert_eq!(gts.len(), 201);
        // The new object is findable through the cache scan.
        let hits = gts.range_query(&Item::text("zzzz"), 0.0).expect("q");
        assert!(hits.iter().any(|n| n.id == 200));
        gts.rebuild().expect("rebuild");
        assert_eq!(gts.cache_len(), 0);
        let hits = gts.range_query(&Item::text("zzzz"), 0.0).expect("q");
        assert!(
            hits.iter().any(|n| n.id == 200),
            "still findable after rebuild"
        );
    }

    #[test]
    fn cache_overflow_triggers_rebuild() {
        let (dev, items, metric) = words(150);
        let params = GtsParams::default().with_cache_capacity(64);
        let mut gts = Gts::build(&dev, items, metric, params).expect("build");
        let before = gts.rebuild_count();
        for i in 0..10 {
            gts.insert(Item::text(format!("object{i:04}")))
                .expect("insert");
        }
        assert!(gts.rebuild_count() > before, "tiny cache must overflow");
        assert_eq!(gts.len(), 160);
    }

    #[test]
    fn remove_from_index_and_cache() {
        let (dev, items, metric) = words(100);
        let mut gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
        // Remove an indexed object: tombstoned, vanishes from answers.
        assert!(gts.remove(7).expect("rm"));
        assert!(!gts.remove(7).expect("rm twice"));
        let hits = gts.range_query(&items[7], 0.0).expect("q");
        assert!(!hits.iter().any(|n| n.id == 7), "tombstoned id returned");
        // Remove a cached insertion: dropped before ever being indexed.
        let id = gts.insert(Item::text("qqq")).expect("ins");
        assert!(gts.remove(id).expect("rm cache"));
        let hits = gts.range_query(&Item::text("qqq"), 0.0).expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
        assert!(
            !gts.remove(9999).expect("unknown id"),
            "absent id is Ok(false)"
        );
    }

    #[test]
    fn batch_update_reconstructs_once() {
        let (dev, items, metric) = words(120);
        let mut gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        let r0 = gts.rebuild_count();
        gts.batch_update(
            (0..30).map(|i| Item::text(format!("new{i}"))).collect(),
            &[0, 1, 2, 3, 4],
        )
        .expect("batch");
        assert_eq!(gts.rebuild_count(), r0 + 1);
        assert_eq!(gts.len(), 120 - 5 + 30);
        assert_eq!(gts.cache_len(), 0);
    }

    #[test]
    fn memory_accounting_present() {
        let (dev, items, metric) = words(300);
        let before = dev.allocated_bytes();
        let gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        assert!(
            dev.allocated_bytes() > before,
            "index reserves device memory"
        );
        assert!(gts.memory_bytes() > 0);
        drop(gts);
        assert_eq!(dev.allocated_bytes(), before, "drop releases residency");
    }

    #[test]
    fn memo_allocation_is_shared_across_batches() {
        let (dev, items, metric) = words(2000);
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
        let queries: Vec<Item> = items[..64].to_vec();
        gts.batch_knn(&queries, 5).expect("knn");
        let cap_after_first = gts.memo.lock().expect("lock").capacity();
        assert!(
            cap_after_first > PairMemo::default().capacity(),
            "a 64-query batch must grow the memo past its default capacity"
        );
        gts.batch_knn(&queries, 5).expect("knn");
        let memo = gts.memo.lock().expect("lock");
        assert_eq!(
            memo.capacity(),
            cap_after_first,
            "the second batch reuses the grown allocation"
        );
        assert!(memo.is_empty(), "the memo comes back cleared");
    }

    #[test]
    fn cost_model_fits() {
        let (dev, items, metric) = words(300);
        let gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        let m = gts.cost_model(100, 5);
        assert_eq!(m.n, 300);
        assert!(m.sigma > 0.0);
        assert!(m.distance_work > 0.0);
    }
}
