//! Batched distance kernels over a flat [`ObjectArena`].
//!
//! The scalar [`Metric`] interface evaluates one pair at a time, which is
//! how the index's *logic* is written — but the hot paths (pivot distances
//! per level, leaf verification, construction mapping) always evaluate a
//! query against **many** stored objects at once. [`BatchMetric`] is that
//! kernel-shaped interface: resolve ids against the arena, stream payloads
//! from contiguous buffers, encode the query once for the whole batch, and
//! report the batch's total work and critical path in one go so the device
//! charges a single kernel per batch instead of bookkeeping per pair.
//!
//! Guarantees relied on by the exactness tests and the simulated clock:
//!
//! * `distance_batch` is **bit-identical** to calling [`Metric::distance`]
//!   per pair (same float operations in the same order), and its
//!   `(total, span)` equals the sum/max of per-pair [`Metric::work`] — so
//!   an arena-backed search produces the same answers *and the same
//!   simulated cycle counts* as the per-pair path it replaced.
//! * `distance_batch_bounded` may abandon early (the edit kernel stops
//!   scanning once the bound is provably exceeded) but is exact whenever it
//!   reports `Some(d)`, and `Some(d)` is reported iff `d ≤ bound`.
//! * The kernels are **chunk-safe**: evaluating disjoint sub-slices of one
//!   id block concurrently from several host threads (see [`chunk_pairs`])
//!   produces the same outputs and the same summed `(total, span)` as one
//!   serial call over the whole block. Each pair's result depends only on
//!   `(query, id)`, mutable state is confined to per-thread edit scratch
//!   ([`crate::dist::with_edit_scratch`]), and the arena is read-only — so
//!   callers may slice the arena-resolved block at any fixed chunk
//!   boundary and fan the chunks out.

use crate::arena::{ArenaKind, ArenaLayout, ObjectArena};
use crate::dist::{with_edit_scratch, EditDistance, ItemMetric, Metric};
use crate::object::Item;

/// Scalar per-pair fallback shared by the default trait methods and by
/// specialised implementations when no arena is available.
fn scalar_batch<O, M: Metric<O> + ?Sized>(
    metric: &M,
    objects: &[O],
    query: &O,
    ids: &[u32],
    out: &mut [f64],
) -> (u64, u64) {
    let mut total = 0u64;
    let mut span = 0u64;
    for (slot, &id) in out.iter_mut().zip(ids) {
        let obj = &objects[id as usize];
        *slot = metric.distance(query, obj);
        let w = metric.work(query, obj);
        total += w;
        span = span.max(w);
    }
    (total, span)
}

fn scalar_batch_bounded<O, M: Metric<O> + ?Sized>(
    metric: &M,
    objects: &[O],
    query: &O,
    ids: &[u32],
    bounds: &[f64],
    out: &mut [Option<f64>],
) -> (u64, u64) {
    let mut total = 0u64;
    let mut span = 0u64;
    for ((slot, &id), &bound) in out.iter_mut().zip(ids).zip(bounds) {
        let obj = &objects[id as usize];
        let d = metric.distance(query, obj);
        *slot = (d <= bound).then_some(d);
        let w = metric.work(query, obj);
        total += w;
        span = span.max(w);
    }
    (total, span)
}

/// A [`Metric`] that can evaluate one query against many stored objects as
/// a single batch, optionally resolving payloads from a flat
/// [`ObjectArena`].
///
/// Every method has a scalar default, so `impl BatchMetric<MyObj> for
/// MyMetric {}` suffices to plug a custom metric into the index — the
/// batched entry points then dispatch to [`Metric::distance`] per pair with
/// identical results and work accounting, just without the flat-layout
/// speedup. [`ItemMetric`] overrides everything with arena-backed kernels.
///
/// # Chunk-safety contract
///
/// The index hot paths may split one id block into fixed-size chunks (see
/// [`chunk_pairs`]) and call `distance_batch` on the chunks from several
/// host threads concurrently. Implementations must therefore keep each
/// pair's result a pure function of `(query, id)` and confine any mutable
/// scratch to the call or the thread (the shipped edit kernels use the
/// per-thread scratch of [`crate::dist::with_edit_scratch`]). The scalar
/// defaults satisfy this automatically — `Metric` is `Send + Sync` and the
/// defaults hold no state.
pub trait BatchMetric<O>: Metric<O> {
    /// Build the flat arena for `objects`, or `None` when this metric (or
    /// this object type) has no flat layout — callers then pass
    /// `arena: None` to the batch kernels and get the scalar fallback.
    fn build_arena(&self, _objects: &[O]) -> Option<ObjectArena> {
        None
    }

    /// [`build_arena`] under an [`ArenaLayout`], which has a single value.
    /// Kept only so that the wall-clock benchmark harness, which calls it,
    /// keeps compiling; always delegates to [`build_arena`].
    ///
    /// [`build_arena`]: BatchMetric::build_arena
    fn build_arena_with(&self, objects: &[O], layout: ArenaLayout) -> Option<ObjectArena> {
        let _ = layout;
        self.build_arena(objects)
    }

    /// Append one object to an arena previously produced by
    /// [`build_arena`]; `false` if the object cannot be stored flat (the
    /// caller should drop the arena and fall back).
    ///
    /// [`build_arena`]: BatchMetric::build_arena
    fn arena_push(&self, _arena: &mut ObjectArena, _obj: &O) -> bool {
        false
    }

    /// Batched kernel: `out[i] = d(query, objects[ids[i]])`.
    ///
    /// Returns `(total_work, span)` over the batch — the sum and max of the
    /// per-pair [`Metric::work`] — for one aggregate device charge.
    ///
    /// # Panics
    /// Implementations may panic if `ids.len() != out.len()` or an id is
    /// out of range.
    fn distance_batch(
        &self,
        objects: &[O],
        arena: Option<&ObjectArena>,
        query: &O,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        let _ = arena;
        scalar_batch(self, objects, query, ids, out)
    }

    /// Early-abandoning batched kernel: `out[i] = Some(d)` iff
    /// `d = d(query, objects[ids[i]]) ≤ bounds[i]`, else `None`.
    ///
    /// `Some` answers are always exact. Implementations may abandon an
    /// evaluation once it provably exceeds its bound (and charge only the
    /// abandoned prefix's work); the default computes full distances and
    /// charges full work.
    fn distance_batch_bounded(
        &self,
        objects: &[O],
        arena: Option<&ObjectArena>,
        query: &O,
        ids: &[u32],
        bounds: &[f64],
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        let _ = arena;
        scalar_batch_bounded(self, objects, query, ids, bounds, out)
    }
}

/// One chunk of a batched distance kernel: a disjoint slice of the id
/// block and the output slice it fills.
///
/// Produced by [`chunk_pairs`]; consumed by a host-thread worker calling
/// [`BatchMetric::distance_batch`] on exactly this slice pair. Chunks of
/// one block never overlap, so they can execute concurrently.
#[derive(Debug)]
pub struct BatchChunk<'a> {
    /// Object ids this chunk resolves (against the arena or object store).
    pub ids: &'a [u32],
    /// Output slots, parallel to `ids`.
    pub out: &'a mut [f64],
}

/// Split one `(ids, out)` block into fixed-size chunks of at most `chunk`
/// pairs each, in index order.
///
/// The boundaries depend only on `chunk` and the block length — never on
/// how many threads will run the chunks — which is what makes the
/// host-parallel execution deterministic: every chunk computes the same
/// pairs and reports the same `(work, span)` no matter which worker picks
/// it up. An empty block yields no chunks.
///
/// # Panics
/// Panics if `chunk == 0` or `ids.len() != out.len()`.
pub fn chunk_pairs<'a>(chunk: usize, ids: &'a [u32], out: &'a mut [f64]) -> Vec<BatchChunk<'a>> {
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(ids.len(), out.len());
    // `slice::chunks` *is* the boundary policy: every chunk exactly
    // `chunk` items except a shorter tail. Parallel slices cut with the
    // same call share boundaries by construction — the property the
    // bounded-kernel chunker in gts-core relies on too.
    ids.chunks(chunk)
        .zip(out.chunks_mut(chunk))
        .map(|(ids, out)| BatchChunk { ids, out })
        .collect()
}

/// Clamp a float radius to the integer bound the edit kernel expects:
/// an integer distance `d` satisfies `d ≤ r` iff `d ≤ ⌊r⌋`. Negative and
/// NaN radii admit no distance at all.
fn edit_bound(bound: f64) -> Option<u32> {
    if bound.is_nan() || bound < 0.0 {
        return None;
    }
    Some(bound.floor().min(f64::from(u32::MAX)) as u32)
}

impl BatchMetric<Item> for ItemMetric {
    fn build_arena(&self, objects: &[Item]) -> Option<ObjectArena> {
        let arena = ObjectArena::from_items(objects)?;
        // The arena family must match the metric, or the kernels below
        // would be handed payloads of the wrong type.
        match (self, arena.kind()) {
            (ItemMetric::Edit, ArenaKind::Text) => Some(arena),
            (ItemMetric::Vector(_), ArenaKind::Vector) => Some(arena),
            _ => None,
        }
    }

    fn arena_push(&self, arena: &mut ObjectArena, obj: &Item) -> bool {
        arena.push_item(obj)
    }

    fn distance_batch(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        assert_eq!(ids.len(), out.len());
        let (mut total, mut span) = (0u64, 0u64);
        match (self, arena, query) {
            (ItemMetric::Edit, Some(arena), Item::Text(q)) => {
                let q = q.as_bytes();
                with_edit_scratch(|scratch| {
                    // The query is the pattern of every pair: encode it once.
                    scratch.load_pattern(q);
                    for (slot, &id) in out.iter_mut().zip(ids) {
                        let o = arena.text_bytes(id);
                        *slot = f64::from(scratch.distance(o));
                        let w = EditDistance::work_full_lens(q.len(), o.len());
                        total += w;
                        span = span.max(w);
                    }
                });
            }
            (ItemMetric::Vector(m), Some(arena), Item::Vector(q)) => {
                for (slot, &id) in out.iter_mut().zip(ids) {
                    let o = arena.vector(id);
                    *slot = m.distance(q, o);
                    let w = m.work(q, o);
                    total += w;
                    span = span.max(w);
                }
            }
            _ => return scalar_batch(self, objects, query, ids, out),
        }
        (total, span)
    }

    fn distance_batch_bounded(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        bounds: &[f64],
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        assert_eq!(ids.len(), out.len());
        assert_eq!(ids.len(), bounds.len());
        let (mut total, mut span) = (0u64, 0u64);
        // Both resolution paths (arena bytes vs boxed `Item` payloads) run
        // the same kernel and charge the same banded work, so whether an
        // arena exists never changes simulated cycle counts.
        match (self, query) {
            (ItemMetric::Edit, Item::Text(q)) => {
                let qb = q.as_bytes();
                with_edit_scratch(|scratch| {
                    scratch.load_pattern(qb);
                    for ((slot, &id), &bound) in out.iter_mut().zip(ids).zip(bounds) {
                        let o = match arena {
                            Some(arena) => arena.text_bytes(id),
                            None => objects[id as usize]
                                .as_text()
                                .expect("edit metric over text items")
                                .as_bytes(),
                        };
                        match edit_bound(bound) {
                            None => *slot = None,
                            Some(b) => {
                                *slot = scratch.distance_within(o, b).map(f64::from);
                                // Charge the banded DP, not the full table.
                                let w = EditDistance::work_bounded_lens(qb.len(), o.len(), b);
                                total += w;
                                span = span.max(w);
                            }
                        }
                    }
                });
            }
            (ItemMetric::Vector(m), Item::Vector(q)) => {
                for ((slot, &id), &bound) in out.iter_mut().zip(ids).zip(bounds) {
                    let o = match arena {
                        Some(arena) => arena.vector(id),
                        None => objects[id as usize]
                            .as_vector()
                            .expect("vector metric over vector items"),
                    };
                    let d = m.distance(q, o);
                    *slot = (d <= bound).then_some(d);
                    let w = m.work(q, o);
                    total += w;
                    span = span.max(w);
                }
            }
            _ => return scalar_batch_bounded(self, objects, query, ids, bounds, out),
        }
        (total, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<Item> {
        ["", "a", "ab", "abc", "kitten", "sitting", "zzzz"]
            .iter()
            .map(|s| Item::text(*s))
            .collect()
    }

    fn vectors() -> Vec<Item> {
        (0..8)
            .map(|i| Item::vector(vec![i as f32, -(i as f32) * 0.5, 2.0]))
            .collect()
    }

    #[test]
    fn batch_matches_scalar_for_every_item_metric() {
        for (metric, items) in [
            (ItemMetric::Edit, words()),
            (ItemMetric::L1, vectors()),
            (ItemMetric::L2, vectors()),
            (ItemMetric::ANGULAR, vectors()),
        ] {
            let arena = metric.build_arena(&items).expect("homogeneous");
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let q = &items[1];
            let mut got = vec![0.0; ids.len()];
            let (total, span) = metric.distance_batch(&items, Some(&arena), q, &ids, &mut got);
            let mut expect_total = 0u64;
            let mut expect_span = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                let o = &items[id as usize];
                assert!(
                    got[i].to_bits() == metric.distance(q, o).to_bits(),
                    "{}: id {id} batch {} scalar {}",
                    metric.name(),
                    got[i],
                    metric.distance(q, o)
                );
                let w = metric.work(q, o);
                expect_total += w;
                expect_span = expect_span.max(w);
            }
            assert_eq!(
                (total, span),
                (expect_total, expect_span),
                "{}",
                metric.name()
            );
        }
    }

    #[test]
    fn fallback_without_arena_matches_too() {
        let items = words();
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let mut with = vec![0.0; ids.len()];
        let mut without = vec![0.0; ids.len()];
        let arena = ItemMetric::Edit.build_arena(&items).expect("arena");
        ItemMetric::Edit.distance_batch(&items, Some(&arena), &items[5], &ids, &mut with);
        ItemMetric::Edit.distance_batch(&items, None, &items[5], &ids, &mut without);
        assert_eq!(with, without);
    }

    #[test]
    fn bounded_is_exact_when_some() {
        let items = words();
        let arena = ItemMetric::Edit.build_arena(&items).expect("arena");
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        for q in &items {
            for bound in [0.0, 1.0, 2.5, 10.0, -1.0, f64::INFINITY, f64::NAN, 1e300] {
                let bounds = vec![bound; ids.len()];
                let mut out = vec![None; ids.len()];
                ItemMetric::Edit.distance_batch_bounded(
                    &items,
                    Some(&arena),
                    q,
                    &ids,
                    &bounds,
                    &mut out,
                );
                for (&id, slot) in ids.iter().zip(&out) {
                    let real = ItemMetric::Edit.distance(q, &items[id as usize]);
                    match slot {
                        Some(d) => {
                            assert_eq!(*d, real);
                            assert!(*d <= bound);
                        }
                        // A NaN radius admits nothing and must abandon all.
                        None => assert!(
                            bound.is_nan() || real > bound,
                            "abandoned but {real} <= {bound}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_charges_identically_with_and_without_arena() {
        for (metric, items) in [(ItemMetric::Edit, words()), (ItemMetric::L2, vectors())] {
            let arena = metric.build_arena(&items).expect("arena");
            let ids: Vec<u32> = (0..items.len() as u32).collect();
            let bounds = vec![2.0; ids.len()];
            let mut with = vec![None; ids.len()];
            let mut without = vec![None; ids.len()];
            let q = &items[2];
            let charged_with =
                metric.distance_batch_bounded(&items, Some(&arena), q, &ids, &bounds, &mut with);
            let charged_without =
                metric.distance_batch_bounded(&items, None, q, &ids, &bounds, &mut without);
            assert_eq!(with, without, "{}", metric.name());
            assert_eq!(charged_with, charged_without, "{}", metric.name());
        }
    }

    #[test]
    fn chunk_pairs_fixed_boundaries() {
        let ids: Vec<u32> = (0..10).collect();
        let mut out = vec![0.0; 10];
        let jobs = chunk_pairs(4, &ids, &mut out);
        let lens: Vec<usize> = jobs.iter().map(|j| j.ids.len()).collect();
        assert_eq!(lens, vec![4, 4, 2]);
        assert_eq!(jobs[2].ids, &[8, 9]);
        let mut empty_out: Vec<f64> = Vec::new();
        assert!(chunk_pairs(4, &[], &mut empty_out).is_empty());
        // A block no larger than one chunk stays whole.
        let mut out1 = vec![0.0; 4];
        assert_eq!(chunk_pairs(4, &ids[..4], &mut out1).len(), 1);
    }

    #[test]
    fn chunked_parallel_execution_matches_serial() {
        // Run the same id block serially and as concurrently-executed
        // chunks; outputs must be bit-identical and (total, span) must sum
        // to the same aggregate.
        for (metric, items) in [(ItemMetric::Edit, words()), (ItemMetric::L2, vectors())] {
            let arena = metric.build_arena(&items).expect("arena");
            let n = 1000usize;
            let ids: Vec<u32> = (0..n as u32).map(|i| i % items.len() as u32).collect();
            let q = items[3].clone();
            let mut serial = vec![0.0; n];
            let expect = metric.distance_batch(&items, Some(&arena), &q, &ids, &mut serial);
            let mut parallel = vec![0.0; n];
            let jobs = chunk_pairs(64, &ids, &mut parallel);
            let got = std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|job| {
                        let (metric, items, arena, q) = (&metric, &items, &arena, &q);
                        s.spawn(move || {
                            metric.distance_batch(items, Some(arena), q, job.ids, job.out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chunk worker"))
                    .fold((0u64, 0u64), |(t, sp), (w, s)| (t + w, sp.max(s)))
            });
            assert_eq!(serial, parallel, "{}", metric.name());
            assert_eq!(expect, got, "{}: chunked accounting", metric.name());
        }
    }

    #[test]
    fn kind_mismatch_yields_no_arena() {
        assert!(ItemMetric::Edit.build_arena(&vectors()).is_none());
        assert!(ItemMetric::L2.build_arena(&words()).is_none());
    }

    #[test]
    fn arena_push_via_metric() {
        let items = words();
        let mut arena = ItemMetric::Edit.build_arena(&items).expect("arena");
        assert!(ItemMetric::Edit.arena_push(&mut arena, &Item::text("new")));
        assert_eq!(arena.len(), items.len() + 1);
        assert!(!ItemMetric::Edit.arena_push(&mut arena, &Item::vector(vec![1.0])));
    }
}
