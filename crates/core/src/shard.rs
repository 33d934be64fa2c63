//! Multi-device sharded GTS: partition the table list across devices,
//! scatter batched queries, merge exactly.
//!
//! The paper's evaluation is single-GPU, but the architecture was built to
//! shard: the [`Device`](gpu_sim::Device) is `Arc`-shared with atomic
//! counters, and search is expressed as per-level batched kernels with no
//! cross-query state. [`ShardedGts`] exploits that the classic way
//! (data-parallel sharding with a host-side merge, as in billion-scale GPU
//! similarity search):
//!
//! * a deterministic [`Partitioner`] splits the object store into `S`
//!   shards — round-robin by default, so shards stay balanced under
//!   sequential id assignment;
//! * each shard is a complete [`Gts`] over its objects, pinned to its own
//!   device from a [`DevicePool`];
//! * a batched MRQ/MkNNQ is **scattered to every shard** (shards execute
//!   concurrently on real host threads — each drives its own device, so
//!   per-device simulated clocks stay deterministic) and the per-shard
//!   answers are **merged exactly** on the host:
//!   - range: concatenation + canonical `(distance, id)` sort;
//!   - kNN: a k-way merge of the per-shard top-`k` lists under the same
//!     `(distance, id)` tie-break the single-device search uses.
//!
//! **Exactness.** Every distance is computed against the same objects as
//! on one device, so per-shard answers are exact over their partition;
//! range answers union losslessly, and the global top-`k` is contained in
//! the union of per-shard top-`k`s. Tie-breaking stays bit-identical
//! because each shard's local ids ascend in global-id order (the
//! partitioner's `split` guarantee), making local `(dis, id)` order agree
//! with global `(dis, id)` order under remapping — `tests/shard_invariance.rs`
//! proves 1-, 2-, and 4-shard answers equal the single-device answers
//! bit-for-bit, ties included.
//!
//! **Updates** route through the partitioner to the owning shard's cache
//! table, so a cache overflow rebuilds only that shard — the other devices'
//! clocks never move. **Stats** aggregate by summing per-shard counters;
//! the pool reports the max per-device cycle count
//! ([`PoolStats::span_cycles`](gpu_sim::PoolStats::span_cycles)) — the
//! sharded critical path, since shards run concurrently. **Snapshots**
//! wrap every shard's [`Gts::snapshot`] in one envelope together with the
//! partition spec (shard count, strategy, object count — the assignment
//! itself is a pure function of these and is recomputed on
//! [`ShardedGts::restore`]).

use crate::engine::BoundExchange;
use crate::index::Gts;
use crate::params::GtsParams;
use crate::snapshot::{R, W};
use crate::stats::StatsSnapshot;
use gpu_sim::DevicePool;
use metric_space::index::{sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Footprint, PartitionStrategy, Partitioner};

/// Magic + version tag of the sharded snapshot envelope. `GTSI` added the
/// update epoch to the envelope; `GTSH` snapshots (pre-epoch) are rejected.
const SHARD_MAGIC: &[u8; 4] = b"GTSI";

/// One serialized update, the unit the epoch counter advances by: applying
/// an `UpdateOp` to two identical indexes in the same order keeps them
/// identical (same snapshot bytes, same epoch) — the invariant replicated
/// serving relies on.
#[derive(Clone, Debug)]
pub enum UpdateOp<O> {
    /// Insert one object; it receives the next global id.
    Insert(O),
    /// Remove the object with this global id (a no-op — but still an
    /// epoch-advancing one — when the id is unknown or already removed).
    Remove(u32),
    /// Batched insertions + deletions applied together, rebuilding every
    /// affected shard once (paper §4.4).
    Batch {
        /// Objects to insert, assigned consecutive global ids.
        insertions: Vec<O>,
        /// Global ids to tombstone (unknown/dead ids are skipped).
        deletions: Vec<u32>,
    },
}

/// Receipt for one applied [`UpdateOp`]: deterministic across replicas, so
/// any replica's receipt can answer the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    /// The epoch the index reached by applying this op (monotone; one op =
    /// one epoch).
    pub epoch: u64,
    /// Global ids assigned to the op's insertions, in insertion order.
    pub assigned: Vec<u32>,
    /// How many deletions flipped a live object to dead.
    pub removed: usize,
}

/// One shard: a complete [`Gts`] over a partition of the dataset, plus the
/// monotone local→global id mapping.
struct Shard<O, M> {
    gts: Gts<O, M>,
    /// `global_ids[local]` = global id; strictly ascending, so local
    /// `(dis, id)` tie-break order equals global order under remapping.
    global_ids: Vec<u32>,
}

impl<O, M> Shard<O, M> {
    /// Rewrite per-query answer lists from local to global ids. Monotone
    /// remapping preserves the canonical `(dis, id)` order.
    fn remap(&self, mut lists: Vec<Vec<Neighbor>>) -> Vec<Vec<Neighbor>> {
        for list in &mut lists {
            for n in list {
                n.id = self.global_ids[n.id as usize];
            }
        }
        lists
    }
}

/// A GTS index sharded over multiple devices.
///
/// Built from a [`DevicePool`] with one device per shard
/// ([`GtsParams::shards`] picks the shard count); behaves like a single
/// [`Gts`] — same query API, same exact answers, same streaming-update
/// semantics — while each shard's kernels run on its own simulated device.
///
/// ```
/// use gts_core::{Gts, GtsParams, ShardedGts};
/// use gpu_sim::{Device, DevicePool};
/// use metric_space::DatasetKind;
///
/// let data = DatasetKind::Words.generate(600, 42);
/// let params = GtsParams::default().with_shards(2);
/// let pool = DevicePool::rtx_2080_ti(2);
/// let sharded = ShardedGts::build(&pool, data.items.clone(), data.metric, params).unwrap();
///
/// // Answers are bit-identical to a single-device index.
/// let single = Gts::build(&Device::rtx_2080_ti(), data.items.clone(), data.metric,
///                         GtsParams::default()).unwrap();
/// let queries = vec![data.items[0].clone(), data.items[1].clone()];
/// assert_eq!(
///     sharded.batch_knn(&queries, 5).unwrap(),
///     single.batch_knn(&queries, 5).unwrap(),
/// );
/// ```
pub struct ShardedGts<O, M> {
    pool: DevicePool,
    partitioner: Partitioner,
    shards: Vec<Shard<O, M>>,
    /// Total objects ever inserted (the global id counter).
    global_len: usize,
    /// Monotone update epoch: advanced by exactly one per applied
    /// [`UpdateOp`]; persisted by snapshots and resumed on restore.
    epoch: u64,
    /// Receipt staged by [`ShardedGts::apply`] before its device phase;
    /// consumed on success or by [`ShardedGts::repair`] after a fault.
    pending: Option<Applied>,
    /// While fenced (a running service owns this index), the
    /// [`DynamicIndex`] mutation surface is rejected — out-of-band updates
    /// would race the service's serialized apply order.
    fenced: bool,
}

impl<O, M> ShardedGts<O, M> {
    /// The update epoch: how many [`UpdateOp`]s this index has applied
    /// (including via the [`DynamicIndex`] surface). Two replicas that
    /// applied the same ops in the same order report the same epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reject out-of-band [`DynamicIndex`] mutation until
    /// [`ShardedGts::release_fence`]; a running query service fences every
    /// index it serves so all updates flow through its admission queue in
    /// one serialized order.
    pub fn fence(&mut self) {
        self.fenced = true;
    }

    /// Allow direct [`DynamicIndex`] mutation again (service shut down).
    pub fn release_fence(&mut self) {
        self.fenced = false;
    }

    /// Whether the [`DynamicIndex`] mutation surface is currently fenced.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    fn ensure_unfenced(&self) -> Result<(), IndexError> {
        if self.fenced {
            return Err(IndexError::Unsupported(
                "index is fenced by a running query service; submit updates \
                 through the service instead of mutating the index directly",
            ));
        }
        Ok(())
    }
}

/// Map `f` over owned work items, one scoped host thread per item (inline
/// when there is at most one), joining in item order — the spawn/join
/// shape shared by the sharded build and the query scatter (and by the
/// degraded path of [`ReplicatedShards`](crate::replica::ReplicatedShards)).
/// Determinism: each item drives only its own device, and results are
/// collected in item order.
pub(crate) fn scoped_map<I: Send, T: Send>(
    items: Vec<I>,
    f: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    if items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    // Trace contexts are thread-local: replant the caller's context inside
    // every scatter thread so events recorded there keep the request/batch
    // association (a no-op context plants a no-op).
    let ctx = gts_trace::current_ctx();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, it)| {
                scope.spawn(move || {
                    let _scope = gts_trace::scoped_ctx(ctx);
                    f(i, it)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise with the original payload so typed panics (e.g.
                // an injected `DeviceFault`) stay downcastable after
                // crossing the scatter threads.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Run one shard's slice of a scatter under a shard-tagged trace context,
/// recording a [`ShardScatter`](gts_trace::EventKind::ShardScatter) span
/// over the shard device's clock. Free when no tracer is attached; never
/// advances the clock either way.
fn traced_shard<O, M, T>(s: usize, shard: &Shard<O, M>, f: impl FnOnce() -> T) -> T
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    let mut ctx = gts_trace::current_ctx();
    ctx.shard = Some(s as u32);
    let _scope = gts_trace::scoped_ctx(ctx);
    let dev = shard.gts.device();
    let trace = dev.tracer();
    let begin = trace.as_ref().map(|_| dev.cycles());
    let out = f();
    if let Some((rec, dev_id)) = trace {
        rec.record(gts_trace::TraceEvent::span(
            gts_trace::EventKind::ShardScatter,
            gts_trace::current_ctx(),
            Some(dev_id),
            begin.expect("snapshotted alongside the tracer"),
            dev.cycles(),
        ));
    }
    out
}

/// Auto host-thread budget for one shard: shards scatter onto their own
/// host threads, so the device's auto thread count is divided by the shard
/// count — otherwise S shards × T chunk workers oversubscribe the host
/// S-fold. Wall-clock only (answers and simulated cycles are
/// thread-invariant); shared by build and restore so a snapshot round-trip
/// keeps per-shard budgets identical, including on heterogeneous pools.
fn divided_auto_threads(dev: &gpu_sim::Device, shards: usize) -> usize {
    (dev.host_threads().max(1) / shards).max(1)
}

/// Merge per-shard top-`k` lists (each in canonical ascending `(dis, id)`
/// order) into the global top-`k`, preserving the single-device tie-break.
/// Crate-visible so [`ReplicatedShards`](crate::replica::ReplicatedShards)
/// can merge per-shard answers it gathered from *different* replicas.
pub(crate) fn kway_merge(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let mut best: Option<(usize, (f64, u32))> = None;
        for (s, list) in lists.iter().enumerate() {
            if let Some(n) = list.get(heads[s]) {
                let key = (n.dist, n.id);
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((s, key));
                }
            }
        }
        let Some((s, _)) = best else { break };
        out.push(lists[s][heads[s]]);
        heads[s] += 1;
    }
    out
}

impl<O, M> ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Build a sharded index: `params.shards` shards, round-robin
    /// partitioning, shard `s` pinned to `pool.get(s)`.
    ///
    /// The pool must supply at least one device per shard, and every shard
    /// must receive at least one object — `n ≥ shards` guarantees this
    /// under round-robin; under [`PartitionStrategy::Hash`] small datasets
    /// can still leave a shard empty, which is rejected with a dedicated
    /// error ([`IndexError::EmptyIndex`] is reserved for an actually-empty
    /// dataset).
    pub fn build(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        Self::build_with_strategy(pool, objects, metric, params, PartitionStrategy::RoundRobin)
    }

    /// [`ShardedGts::build`] with an explicit partitioning strategy.
    pub fn build_with_strategy(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
        strategy: PartitionStrategy,
    ) -> Result<Self, IndexError> {
        let shards = params.shards as usize;
        assert!(
            pool.len() >= shards,
            "pool must supply one device per shard ({} < {shards})",
            pool.len()
        );
        if objects.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        let partitioner = Partitioner::new(params.shards, strategy);
        let assignment = partitioner.split(objects.len());
        if assignment.iter().any(Vec::is_empty) {
            return Err(IndexError::Unsupported(
                "partitioning produced an empty shard (use fewer shards, more \
                 objects, or round-robin partitioning)",
            ));
        }
        // Carve the per-shard object stores (ids ascend within each shard).
        let stores: Vec<Vec<O>> = assignment
            .iter()
            .map(|ids| ids.iter().map(|&g| objects[g as usize].clone()).collect())
            .collect();
        let global_len = objects.len();
        drop(objects);
        // Build every shard concurrently, one host thread per device.
        let built: Vec<Result<Gts<O, M>, IndexError>> = scoped_map(stores, |s, store| {
            let mut shard_params = params;
            if params.host_threads == 0 {
                shard_params.host_threads = divided_auto_threads(pool.get(s), shards);
            }
            Gts::build(pool.get(s), store, metric.clone(), shard_params)
        });
        let mut shard_vec = Vec::with_capacity(shards);
        for (gts, global_ids) in built.into_iter().zip(assignment) {
            shard_vec.push(Shard {
                gts: gts?,
                global_ids,
            });
        }
        Ok(ShardedGts {
            pool: DevicePool::from_devices(pool.devices()[..shards].to_vec()),
            partitioner,
            shards: shard_vec,
            global_len,
            epoch: 0,
            pending: None,
            fenced: false,
        })
    }

    /// Run `f` on every shard concurrently (one host thread per shard),
    /// collecting results in shard order — the scatter half of
    /// scatter/merge. Each shard drives only its own device, so per-device
    /// counters stay deterministic regardless of interleaving.
    fn scatter<T: Send>(&self, f: impl Fn(&Shard<O, M>) -> T + Sync) -> Vec<T> {
        scoped_map(self.shards.iter().collect(), |s, shard| {
            traced_shard(s, shard, || f(shard))
        })
    }

    /// Record a `Merge` instant (per-shard answers folded into global ones)
    /// against the first traced device, stamped at the post-scatter critical
    /// path — the max shard clock, i.e. when the merge could begin.
    fn trace_merge(&self, results: u64) {
        let Some((rec, dev_id)) = self.shards.iter().find_map(|sh| sh.gts.device().tracer()) else {
            return;
        };
        let at = self
            .shards
            .iter()
            .map(|sh| sh.gts.device().cycles())
            .max()
            .unwrap_or(0);
        rec.record(gts_trace::TraceEvent::instant(
            gts_trace::EventKind::Merge { results },
            gts_trace::current_ctx(),
            Some(dev_id),
            at,
        ));
    }

    /// Batched metric range query: every query runs on every shard;
    /// per-shard answers (already exact over their partition) are
    /// concatenated and canonically sorted — the exact union.
    pub fn batch_range(
        &self,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        assert_eq!(queries.len(), radii.len());
        let per_shard = self.scatter(|sh| sh.gts.batch_range(queries, radii).map(|r| sh.remap(r)));
        let mut merged: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for lists in per_shard {
            for (m, mut list) in merged.iter_mut().zip(lists?) {
                m.append(&mut list);
            }
        }
        for m in &mut merged {
            sort_neighbors(m);
        }
        self.trace_merge(merged.len() as u64);
        Ok(merged)
    }

    /// Batched metric kNN query: every shard returns its local top-`k`;
    /// the global top-`k` is a k-way merge under the `(distance, id)`
    /// tie-break — bit-identical to the single-device answer.
    ///
    /// With [`GtsParams::bound_broadcast`] on (and more than one shard),
    /// the shards descend in **lockstep** instead of independently: after
    /// every tree level a barrier takes the element-wise minimum of the
    /// per-query kNN bounds across shards and injects it into every shard's
    /// next level, so each shard prunes against the *global* k-th-NN bound.
    /// Answers are bit-identical either way — the broadcast bound only
    /// moves toward the true global k-th distance, and the tie-safe
    /// closed-ball pruning keeps every canonical answer alive — but the
    /// broadcast path verifies strictly fewer leaves on workloads where
    /// shards see different data densities, at the cost of per-level
    /// barriers (each device's clock aligns to the slowest shard per level;
    /// see [`Device::advance_clock_to`](gpu_sim::Device::advance_clock_to))
    /// and the bound-exchange transfers.
    pub fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        if self.broadcast_active(queries.len(), k) {
            let exchange = BoundExchange::new(self.shards.len(), queries.len());
            let per_shard = scoped_map(self.shards.iter().collect(), |s, sh| {
                traced_shard(s, sh, || {
                    sh.gts
                        .batch_knn_lockstep(queries, k, &exchange)
                        .map(|r| sh.remap(r))
                })
            });
            let merged = Self::merge_knn(per_shard, queries.len(), k);
            if merged.is_ok() {
                self.trace_merge(queries.len() as u64);
            }
            return merged;
        }
        let per_shard = self.scatter(|sh| sh.gts.batch_knn(queries, k).map(|r| sh.remap(r)));
        let merged = Self::merge_knn(per_shard, queries.len(), k);
        if merged.is_ok() {
            self.trace_merge(queries.len() as u64);
        }
        merged
    }

    /// Approximate batched MkNNQ ([`Gts::batch_knn_approx`]), scattered to
    /// every shard and merged by the same k-way `(distance, id)` merge as
    /// the exact search. Each shard applies the `beam` to **its own**
    /// per-level frontier, so a small beam explores up to `S·beam` nodes
    /// per level in total and N-shard recall can differ from 1-shard recall
    /// — but a beam wide enough to make the per-shard search exact (e.g.
    /// `beam ≥ Nc^(h−1)`) makes the merged answer bit-identical to the
    /// exact single-device search, ties included
    /// (`tests/shard_invariance.rs`).
    pub fn batch_knn_approx(
        &self,
        queries: &[O],
        k: usize,
        beam: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let per_shard = self.scatter(|sh| {
            sh.gts
                .batch_knn_approx(queries, k, beam)
                .map(|r| sh.remap(r))
        });
        Self::merge_knn(per_shard, queries.len(), k)
    }

    /// Whether this batch takes the lockstep broadcast path: opted in via
    /// [`GtsParams::bound_broadcast`], more than one shard (a single shard
    /// has nobody to exchange bounds with), and a non-trivial batch.
    fn broadcast_active(&self, queries: usize, k: usize) -> bool {
        self.shards.len() > 1 && queries > 0 && k > 0 && self.shards[0].gts.params().bound_broadcast
    }

    /// Merge per-shard top-`k` lists (already remapped to global ids) into
    /// per-query global top-`k` answers — the shared merge half of the
    /// exact, approximate, and broadcast kNN paths.
    fn merge_knn(
        per_shard: Vec<Result<Vec<Vec<Neighbor>>, IndexError>>,
        queries: usize,
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let mut shard_lists: Vec<Vec<Vec<Neighbor>>> = Vec::with_capacity(per_shard.len());
        for lists in per_shard {
            shard_lists.push(lists?);
        }
        Ok((0..queries)
            .map(|q| {
                let lists: Vec<Vec<Neighbor>> = shard_lists
                    .iter_mut()
                    .map(|per_q| std::mem::take(&mut per_q[q]))
                    .collect();
                kway_merge(&lists, k)
            })
            .collect())
    }

    /// Range query against **one shard only**, answers remapped to global
    /// ids (exact over that shard's partition). Building block for the
    /// degraded path of [`ReplicatedShards`](crate::replica::ReplicatedShards),
    /// which re-assembles a full answer from surviving shard copies spread
    /// across replicas; runs on the calling thread so panics (injected
    /// device faults, metric bugs) surface directly to the caller.
    pub(crate) fn shard_range(
        &self,
        s: usize,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let sh = &self.shards[s];
        traced_shard(s, sh, || {
            sh.gts.batch_range(queries, radii).map(|r| sh.remap(r))
        })
    }

    /// kNN against **one shard only**, remapped to global ids; the shard's
    /// local top-`k` (see [`ShardedGts::shard_range`] for the role).
    pub(crate) fn shard_knn(
        &self,
        s: usize,
        queries: &[O],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let sh = &self.shards[s];
        traced_shard(s, sh, || sh.gts.batch_knn(queries, k).map(|r| sh.remap(r)))
    }

    /// Toggle the cross-shard kNN bound broadcast on every shard (see
    /// [`GtsParams::bound_broadcast`]); affects subsequent searches only.
    /// Broadcast is an execution-topology knob and is therefore not
    /// persisted by snapshots — restored indexes come back with it off and
    /// can be re-armed here.
    pub fn set_bound_broadcast(&mut self, broadcast: bool) {
        for s in &mut self.shards {
            s.gts.set_bound_broadcast(broadcast);
        }
    }

    // -- accessors ------------------------------------------------------------

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard index `s` (e.g. for per-shard stats).
    pub fn shard(&self, s: usize) -> &Gts<O, M> {
        &self.shards[s].gts
    }

    /// The device pool backing the shards (its
    /// [`aggregate`](DevicePool::aggregate) sums per-device counters and
    /// reports the sharded critical path `span_cycles`).
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The id→shard assignment.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Aggregate search counters: per-shard snapshots summed
    /// ([`StatsSnapshot::combine`]; `max_frontier` maxes, as shard
    /// frontiers occupy different devices).
    pub fn stats(&self) -> StatsSnapshot {
        self.shards
            .iter()
            .map(|s| s.gts.stats())
            .fold(StatsSnapshot::default(), StatsSnapshot::combine)
    }

    /// Search counters of shard `s` alone.
    pub fn shard_stats(&self, s: usize) -> StatsSnapshot {
        self.shards[s].gts.stats()
    }

    /// Reset every shard's search counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.gts.reset_stats();
        }
    }

    /// The sharded critical path: the slowest device's simulated cycle
    /// count (shards execute concurrently, so elapsed simulated time is
    /// the max, not the sum).
    pub fn span_cycles(&self) -> u64 {
        self.pool.aggregate().span_cycles
    }

    /// Size one query batch against the **global** two-stage memory budget:
    /// the largest batch the §5.3 cost model expects *every* shard to run
    /// without query grouping.
    ///
    /// A batched query scatters to all shards, so the batch must fit the
    /// least-headroom device — each shard's capacity is therefore evaluated
    /// against [`DevicePool::free_bytes_min`] (the pool-wide free-memory
    /// view) rather than the shard's own free bytes, and the answer is the
    /// minimum across shards (shard trees differ in height and survivor
    /// profile). This closes the gap the per-shard two-stage strategy
    /// leaves open: in-search grouping still sizes groups off each shard's
    /// own memory as a safety net, but the admission-side scheduler plans
    /// batches the whole pool can take in one descent.
    ///
    /// The per-shard cost models are fitted by seeded sampling
    /// ([`Gts::cost_model`] with `samples`, `seed`), so the returned size
    /// is deterministic for a given index state — the property the
    /// `gts-service` microbatcher relies on for reproducible batch
    /// formation. Fitting charges the sampling kernels to each shard's
    /// device clock.
    pub fn max_batch_queries(&self, radius: f64, samples: usize, seed: u64) -> usize {
        let free = self.pool.free_bytes_min();
        self.shards
            .iter()
            .map(|sh| {
                let model = sh.gts.cost_model(samples, seed);
                sh.gts.max_batch_queries_with_free(free, &model, radius)
            })
            .min()
            .expect("a sharded index holds at least one shard")
            .max(1)
    }

    /// Folded cost-model audit across shards: counters sum, calibration
    /// histograms merge, peak bytes max, and the predicted batch is the
    /// cross-shard minimum
    /// ([`CostAuditSnapshot::combine`](crate::audit::CostAuditSnapshot::combine))
    /// — exactly the batch [`ShardedGts::max_batch_queries`] admits.
    pub fn cost_audit(&self) -> crate::audit::CostAuditSnapshot {
        self.shards
            .iter()
            .map(|s| s.gts.cost_audit())
            .fold(crate::audit::CostAuditSnapshot::default(), |a, b| {
                a.combine(b)
            })
    }

    /// Enable or disable the cost-model audit on every shard.
    pub fn set_cost_audit_enabled(&self, on: bool) {
        for s in &self.shards {
            s.gts.set_cost_audit_enabled(on);
        }
    }

    /// Serialize the whole sharded index into one envelope: the partition
    /// spec (shard count, strategy, global object count — the per-shard id
    /// assignment is a pure function of these) followed by every shard's
    /// [`Gts::snapshot`]; see [`ShardedGts::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = W(Vec::new());
        w.0.extend_from_slice(SHARD_MAGIC);
        w.u32(self.partitioner.shards());
        w.u8(self.partitioner.strategy().tag());
        w.u64(self.global_len as u64);
        w.u64(self.epoch);
        for shard in &self.shards {
            let inner = shard.gts.snapshot();
            w.u64(inner.len() as u64);
            w.0.extend_from_slice(&inner);
        }
        w.0
    }

    /// Rebuild a sharded index from a [`ShardedGts::snapshot`] and the
    /// caller's **global** object store (every object ever inserted, in
    /// global-id order). The partition assignment is recomputed from the
    /// envelope's `(strategy, global_len)`; each shard's inner snapshot is
    /// validated by [`Gts::restore`] against the carved store.
    pub fn restore(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        bytes: &[u8],
    ) -> Result<Self, IndexError> {
        let mut r = R { buf: bytes, pos: 0 };
        if r.take(4)? != SHARD_MAGIC {
            return Err(IndexError::Unsupported("bad sharded snapshot magic"));
        }
        let shards = r.u32()?;
        if shards < 1 {
            return Err(IndexError::Unsupported("corrupt sharded snapshot: shards"));
        }
        let strategy = PartitionStrategy::from_tag(r.u8()?)
            .ok_or(IndexError::Unsupported("unknown partition strategy"))?;
        let global_len = r.u64()? as usize;
        let epoch = r.u64()?;
        if global_len != objects.len() {
            return Err(IndexError::Unsupported(
                "sharded snapshot object count does not match the provided store",
            ));
        }
        // The shard count comes from the (untrusted) header: a pool too small
        // for it is a typed error, not a panic.
        if pool.len() < shards as usize {
            return Err(IndexError::Unsupported(
                "sharded snapshot needs more devices than the pool supplies",
            ));
        }
        let shards = shards as usize;
        let partitioner = Partitioner::new(shards as u32, strategy);
        // Slice every shard's inner snapshot out of the envelope first,
        // then restore all shards concurrently (same `scoped_map` shape as
        // the build; restore does device transfers and validation per
        // shard, so it parallelises the same way).
        let mut parts: Vec<(Vec<u32>, &[u8])> = Vec::with_capacity(shards);
        for global_ids in partitioner.split(global_len) {
            let inner_len = r.u64()? as usize;
            parts.push((global_ids, r.take(inner_len)?));
        }
        if !r.done() {
            return Err(IndexError::Unsupported(
                "trailing bytes in sharded snapshot",
            ));
        }
        let restored: Vec<Result<Shard<O, M>, IndexError>> =
            scoped_map(parts, |s, (global_ids, inner)| {
                let store: Vec<O> = global_ids
                    .iter()
                    .map(|&g| objects[g as usize].clone())
                    .collect();
                let mut gts = Gts::restore(pool.get(s), store, metric.clone(), inner)?;
                // Same auto thread-budget division as the build path.
                gts.set_host_threads(divided_auto_threads(pool.get(s), shards));
                Ok(Shard { gts, global_ids })
            });
        let mut shard_vec = Vec::with_capacity(shards);
        for shard in restored {
            shard_vec.push(shard?);
        }
        Ok(ShardedGts {
            pool: DevicePool::from_devices(pool.devices()[..shards].to_vec()),
            partitioner,
            shards: shard_vec,
            global_len,
            // Restore resumes the update epoch, so a restored index keeps
            // stamping responses exactly where the snapshotted one left off.
            epoch,
            pending: None,
            fenced: false,
        })
    }

    // -- serialized updates -------------------------------------------------

    /// Apply one [`UpdateOp`], advancing the epoch by exactly one. This is
    /// the serialization point of streaming updates: two identical indexes
    /// applying the same ops in the same order stay bit-identical (same
    /// answers, same snapshot, same epoch), which is what lets replicas and
    /// a single-device oracle agree.
    ///
    /// Crash consistency: all host mutations (object stores, id mappings,
    /// tombstones, the staged [`Applied`] receipt) complete before any
    /// device kernel can fire an injected fault. A fault therefore leaves
    /// the host state complete but the epoch un-advanced and possibly a
    /// shard structure stale — exactly what [`ShardedGts::repair`] finishes.
    ///
    /// A typed `Err` (e.g. device OOM during a rebuild) still advances the
    /// epoch: such errors are deterministic given identical replicas, so
    /// counting the op keeps replica epochs converged.
    pub fn apply(&mut self, op: &UpdateOp<O>) -> Result<Applied, IndexError> {
        let mut result: Result<(), IndexError> = Ok(());
        match op {
            UpdateOp::Insert(obj) => {
                let gid = self.global_len as u32;
                let s = self.partitioner.shard_of(gid) as usize;
                let shard = &mut self.shards[s];
                // Record the mapping before the fallible insert (same
                // reasoning as the DynamicIndex path): the inner store
                // grows before its only fault point, the overflow rebuild.
                shard.global_ids.push(gid);
                self.global_len += 1;
                self.pending = Some(Applied {
                    epoch: self.epoch + 1,
                    assigned: vec![gid],
                    removed: 0,
                });
                result = shard.gts.insert(obj.clone()).map(|_| ());
            }
            UpdateOp::Remove(id) => {
                if (*id as usize) < self.global_len {
                    let s = self.partitioner.shard_of(*id) as usize;
                    let shard = &mut self.shards[s];
                    let local = shard
                        .global_ids
                        .binary_search(id)
                        .expect("every assigned id is present in its shard");
                    // The receipt is staged from the pre-remove live state,
                    // before the tombstone scan kernel can fault.
                    self.pending = Some(Applied {
                        epoch: self.epoch + 1,
                        assigned: Vec::new(),
                        removed: usize::from(shard.gts.is_live(local as u32)),
                    });
                    result = shard.gts.remove(local as u32).map(|_| ());
                } else {
                    self.pending = Some(Applied {
                        epoch: self.epoch + 1,
                        assigned: Vec::new(),
                        removed: 0,
                    });
                }
            }
            UpdateOp::Batch {
                insertions,
                deletions,
            } => {
                let s = self.shards.len();
                let mut per_ins: Vec<Vec<O>> = (0..s).map(|_| Vec::new()).collect();
                let mut per_del: Vec<Vec<u32>> = (0..s).map(|_| Vec::new()).collect();
                let mut assigned = Vec::with_capacity(insertions.len());
                for obj in insertions {
                    let gid = self.global_len as u32;
                    let shard = self.partitioner.shard_of(gid) as usize;
                    per_ins[shard].push(obj.clone());
                    self.shards[shard].global_ids.push(gid);
                    self.global_len += 1;
                    assigned.push(gid);
                }
                for &d in deletions {
                    if (d as usize) < self.global_len {
                        let shard = self.partitioner.shard_of(d) as usize;
                        let local = self.shards[shard]
                            .global_ids
                            .binary_search(&d)
                            .expect("every assigned id is present in its shard");
                        per_del[shard].push(local as u32);
                    }
                }
                // Stage every shard's host mutations first (infallible, no
                // device work), then rebuild the affected shards. A panic
                // mid-rebuild leaves all host stores complete; repair just
                // re-runs the deterministic rebuilds.
                let mut removed = 0usize;
                let mut affected = vec![false; s];
                for (i, (ins, del)) in per_ins.into_iter().zip(&per_del).enumerate() {
                    if !ins.is_empty() || !del.is_empty() {
                        removed += self.shards[i].gts.stage_update(ins, del);
                        affected[i] = true;
                    }
                }
                self.pending = Some(Applied {
                    epoch: self.epoch + 1,
                    assigned,
                    removed,
                });
                let mut first_err = None;
                for (i, shard) in self.shards.iter_mut().enumerate() {
                    if affected[i] {
                        if let Err(e) = shard.gts.rebuild() {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                if let Some(e) = first_err {
                    result = Err(e);
                }
            }
        }
        self.epoch += 1;
        let applied = self.pending.take().expect("receipt staged above");
        result.map(|_| applied)
    }

    /// Finish an [`ShardedGts::apply`] that panicked mid-device-phase (an
    /// injected [`DeviceFault`](gpu_sim::fault::DeviceFault) during a
    /// rebuild or tombstone scan). The host state is already complete —
    /// `apply` stages every host mutation before its first kernel — so
    /// repair only re-runs the structural work the op still deterministically
    /// requires, advances the epoch, and returns the staged receipt:
    ///
    /// * `Insert` — rebuild the owning shard iff its cache still exceeds
    ///   capacity (the §4.4 overflow condition persists across a faulted
    ///   rebuild, and is the same condition an un-faulted replica evaluated,
    ///   so both rebuild exactly once and converge bit-identically);
    /// * `Remove` — nothing structural (the tombstone precedes the scan
    ///   kernel);
    /// * `Batch` — rebuild every affected shard (a shard that already
    ///   rebuilt before the fault rebuilds again; reconstruction is a pure
    ///   function of the object store, so the result is identical).
    ///
    /// Errors with [`IndexError::Unsupported`] when no failed apply is
    /// pending.
    pub fn repair(&mut self, op: &UpdateOp<O>) -> Result<Applied, IndexError> {
        // Peek (don't consume) the receipt: a repair that faults again must
        // leave it staged for the next repair attempt.
        if self.pending.is_none() {
            return Err(IndexError::Unsupported(
                "no faulted update is pending repair",
            ));
        }
        let mut result: Result<(), IndexError> = Ok(());
        match op {
            UpdateOp::Insert(_) => {
                let gid = (self.global_len - 1) as u32;
                let s = self.partitioner.shard_of(gid) as usize;
                let gts = &mut self.shards[s].gts;
                if gts.cache_bytes() > gts.cache_capacity() {
                    result = gts.rebuild();
                }
            }
            UpdateOp::Remove(_) => {}
            UpdateOp::Batch {
                insertions,
                deletions,
            } => {
                let mut affected = vec![false; self.shards.len()];
                let first_gid = self.global_len - insertions.len();
                for gid in first_gid..self.global_len {
                    affected[self.partitioner.shard_of(gid as u32) as usize] = true;
                }
                for &d in deletions {
                    if (d as usize) < self.global_len {
                        affected[self.partitioner.shard_of(d) as usize] = true;
                    }
                }
                let mut first_err = None;
                for (i, shard) in self.shards.iter_mut().enumerate() {
                    if affected[i] {
                        if let Err(e) = shard.gts.rebuild() {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                if let Some(e) = first_err {
                    result = Err(e);
                }
            }
        }
        self.epoch += 1;
        let pending = self.pending.take().expect("checked above");
        result.map(|_| pending)
    }
}

impl<O, M> SimilarityIndex<O> for ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    fn name(&self) -> &'static str {
        "GTS-sharded"
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.gts.len()).sum()
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
        ShardedGts::batch_range(self, queries, radii)
    }

    fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        ShardedGts::batch_knn(self, queries, k)
    }

    fn memory_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.gts.memory_bytes()).sum()
    }
}

impl<O, M> DynamicIndex<O> for ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Streaming insert: the partitioner routes the new global id to its
    /// owning shard's cache table. A cache overflow rebuilds **only that
    /// shard** — the other devices' clocks never move. Delegates to
    /// [`ShardedGts::apply`], so direct inserts advance the epoch too;
    /// rejected while the index is [fenced](ShardedGts::fence).
    fn insert(&mut self, obj: O) -> Result<u32, IndexError> {
        self.ensure_unfenced()?;
        let applied = self.apply(&UpdateOp::Insert(obj))?;
        Ok(applied.assigned[0])
    }

    /// Streaming delete, routed to the owning shard; epoch-advancing even
    /// when the id is unknown (a no-op still serializes), and rejected
    /// while fenced.
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        self.ensure_unfenced()?;
        Ok(self.apply(&UpdateOp::Remove(id))?.removed > 0)
    }

    /// Batch update: changes are routed per shard; **only shards that
    /// received changes reconstruct**, the rest are untouched. Rejected
    /// while fenced.
    fn batch_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> Result<(), IndexError> {
        self.ensure_unfenced()?;
        self.apply(&UpdateOp::Batch {
            insertions,
            deletions: deletions.to_vec(),
        })
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use metric_space::{DatasetKind, Item, ItemMetric};

    fn data(n: usize) -> (Vec<Item>, ItemMetric) {
        let d = DatasetKind::Words.generate(n, 33);
        (d.items, d.metric)
    }

    fn sharded(n: usize, s: u32) -> (Vec<Item>, ItemMetric, ShardedGts<Item, ItemMetric>) {
        let (items, metric) = data(n);
        let pool = DevicePool::rtx_2080_ti(s as usize);
        let idx = ShardedGts::build(
            &pool,
            items.clone(),
            metric,
            GtsParams::default().with_shards(s),
        )
        .expect("build");
        (items, metric, idx)
    }

    #[test]
    fn kway_merge_respects_tie_break() {
        let lists = vec![
            vec![Neighbor::new(5, 1.0), Neighbor::new(9, 2.0)],
            vec![Neighbor::new(2, 1.0), Neighbor::new(3, 1.0)],
        ];
        let merged = kway_merge(&lists, 3);
        let ids: Vec<u32> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 5], "ties at d=1.0 break by ascending id");
    }

    #[test]
    fn kway_merge_short_lists() {
        let lists = vec![vec![Neighbor::new(1, 0.5)], Vec::new()];
        assert_eq!(kway_merge(&lists, 10).len(), 1);
        assert!(kway_merge(&[], 5).is_empty());
    }

    #[test]
    fn sharded_matches_single_device() {
        let (items, metric, idx) = sharded(400, 3);
        let single = Gts::build(
            &Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("build");
        let queries: Vec<Item> = (0..10).map(|i| items[i * 17].clone()).collect();
        let radii = vec![2.0; queries.len()];
        assert_eq!(
            idx.batch_range(&queries, &radii).expect("mrq"),
            single.batch_range(&queries, &radii).expect("mrq"),
        );
        assert_eq!(
            idx.batch_knn(&queries, 7).expect("knn"),
            single.batch_knn(&queries, 7).expect("knn"),
        );
        assert_eq!(idx.len(), 400);
        assert_eq!(idx.num_shards(), 3);
    }

    #[test]
    fn insert_routes_to_owning_shard_only() {
        let (_, _, mut idx) = sharded(90, 3);
        let before: Vec<u64> = (0..3).map(|s| idx.pool().get(s).cycles()).collect();
        let gid = idx.insert(Item::text("routed")).expect("insert");
        assert_eq!(gid, 90);
        let owner = idx.partitioner().shard_of(gid) as usize;
        for (s, &b) in before.iter().enumerate() {
            let moved = idx.pool().get(s).cycles() != b;
            assert_eq!(moved, s == owner, "only the owning shard's clock moves");
        }
        // The insertion is findable (through the owning shard's cache).
        let hits = idx.range_query(&Item::text("routed"), 0.0).expect("q");
        assert!(hits.iter().any(|n| n.id == gid));
        // And removable by its global id.
        assert!(idx.remove(gid).expect("rm"));
        assert!(!idx.remove(gid).expect("rm twice"));
        assert!(
            !idx.remove(9_999).expect("unknown"),
            "absent id is Ok(false)"
        );
    }

    #[test]
    fn batch_update_rebuilds_only_affected_shards() {
        let (_, _, mut idx) = sharded(120, 4);
        // Delete ids owned by shard 1 only (round-robin: id % 4 == 1).
        let before: Vec<u64> = (0..4).map(|s| idx.pool().get(s).cycles()).collect();
        idx.batch_update(Vec::new(), &[1, 5, 9]).expect("update");
        for (s, &b) in before.iter().enumerate() {
            let moved = idx.pool().get(s).cycles() != b;
            assert_eq!(moved, s == 1, "only shard 1 reconstructs");
        }
        assert_eq!(idx.len(), 117);
    }

    #[test]
    fn snapshot_roundtrip() {
        let (items, metric, mut idx) = sharded(200, 2);
        idx.remove(7).expect("rm");
        let gid = idx.insert(Item::text("snap")).expect("ins");
        let mut store = items.clone();
        store.push(Item::text("snap"));

        let bytes = idx.snapshot();
        let pool = DevicePool::rtx_2080_ti(2);
        let restored = ShardedGts::restore(&pool, store, metric, &bytes).expect("restore");
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.num_shards(), 2);
        let q = Item::text("snap");
        assert_eq!(
            restored.range_query(&q, 1.0).expect("q"),
            idx.range_query(&q, 1.0).expect("q"),
        );
        assert!(restored
            .range_query(&q, 0.0)
            .expect("q")
            .iter()
            .any(|n| n.id == gid));
        assert!(!restored
            .range_query(&items[7], 0.0)
            .expect("q")
            .iter()
            .any(|n| n.id == 7));
    }

    #[test]
    fn corrupt_sharded_snapshots_rejected() {
        let (items, metric, idx) = sharded(100, 2);
        let bytes = idx.snapshot();
        let pool = DevicePool::rtx_2080_ti(2);
        // Truncation.
        assert!(
            ShardedGts::restore(&pool, items.clone(), metric, &bytes[..bytes.len() / 2]).is_err()
        );
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ShardedGts::restore(&pool, items.clone(), metric, &bad).is_err());
        // Store mismatch.
        assert!(ShardedGts::restore(&pool, items[..50].to_vec(), metric, &bytes).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(ShardedGts::restore(&pool, items, metric, &long).is_err());
    }

    #[test]
    fn snapshot_with_more_shards_than_devices_is_an_error() {
        // The shard count is read from the snapshot header: a pool too
        // small for it must yield a typed error, not a panic.
        let (items, metric, idx) = sharded(100, 2);
        let bytes = idx.snapshot();
        let pool = DevicePool::rtx_2080_ti(1);
        assert!(matches!(
            ShardedGts::restore(&pool, items, metric, &bytes),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_shard_rejected() {
        let (items, metric) = data(3);
        let pool = DevicePool::rtx_2080_ti(4);
        let err = ShardedGts::build(&pool, items, metric, GtsParams::default().with_shards(4));
        assert!(
            matches!(err, Err(IndexError::Unsupported(msg)) if msg.contains("empty shard")),
            "an empty shard gets a dedicated error, not EmptyIndex"
        );
        let err = ShardedGts::build(
            &pool,
            Vec::<Item>::new(),
            ItemMetric::Edit,
            GtsParams::default().with_shards(4),
        );
        assert!(
            matches!(err, Err(IndexError::EmptyIndex)),
            "EmptyIndex is reserved for an actually-empty dataset"
        );
    }

    #[test]
    fn global_batch_sizing_is_deterministic_and_pool_bound() {
        let (_, _, idx) = sharded(300, 2);
        let a = idx.max_batch_queries(2.0, 64, 7);
        let b = idx.max_batch_queries(2.0, 64, 7);
        assert_eq!(a, b, "seeded fitting makes the size trigger reproducible");
        assert!(a >= 1);
        // The global plan uses the pool-wide minimum free memory, so it can
        // never exceed what any single shard would plan for itself against
        // that same budget.
        let free = idx.pool().free_bytes_min();
        for s in 0..idx.num_shards() {
            let shard = idx.shard(s);
            let model = shard.cost_model(64, 7);
            assert!(a <= shard.max_batch_queries_with_free(free, &model, 2.0));
        }
    }

    /// A metric that panics when it touches the poisoned query string —
    /// standing in for any misbehaving user metric (NaNs, assertions).
    #[derive(Clone, Copy)]
    struct PanicOnBoom;

    impl metric_space::Metric<Item> for PanicOnBoom {
        fn distance(&self, a: &Item, b: &Item) -> f64 {
            let (Some(a), Some(b)) = (a.as_text(), b.as_text()) else {
                panic!("text metric")
            };
            assert!(a != "boom" && b != "boom", "boom");
            (a.len() as f64 - b.len() as f64).abs()
        }
        fn work(&self, _: &Item, _: &Item) -> u64 {
            1
        }
        fn name(&self) -> &'static str {
            "panic-on-boom"
        }
    }
    impl metric_space::BatchMetric<Item> for PanicOnBoom {}

    /// A panic inside one shard's lockstep descent (user metric blowing up
    /// mid-kernel) must propagate out of `batch_knn` like it does on the
    /// independent-descent path — not strand the sibling shards at the
    /// bound-exchange barrier forever.
    #[test]
    fn broadcast_panic_in_one_shard_propagates_instead_of_deadlocking() {
        let items: Vec<Item> = (0..120).map(|i| Item::text("x".repeat(i % 30))).collect();
        let pool = DevicePool::rtx_2080_ti(2);
        let idx = ShardedGts::build(
            &pool,
            items,
            PanicOnBoom,
            GtsParams::default()
                .with_shards(2)
                .with_bound_broadcast(true),
        )
        .expect("build never sees the poisoned query");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.batch_knn(&[Item::text("boom")], 3)
        }));
        assert!(caught.is_err(), "the metric panic must surface");
    }

    #[test]
    fn aggregate_stats_sum_across_shards() {
        let (items, _, idx) = sharded(300, 2);
        let queries: Vec<Item> = items[..8].to_vec();
        idx.batch_knn(&queries, 3).expect("knn");
        let total = idx.stats();
        let summed = idx.shard_stats(0).combine(idx.shard_stats(1));
        assert_eq!(total, summed);
        assert!(total.distance_computations > 0);
        assert!(idx.span_cycles() > 0);
        assert!(idx.span_cycles() <= idx.pool().aggregate().cycles_total);
        idx.reset_stats();
        assert_eq!(idx.stats(), StatsSnapshot::default());
    }
}
