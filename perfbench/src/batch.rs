//! The closed-loop batch workloads, `dna-knn` and `tloc-range`: one
//! submitting thread sends a fixed-size batch of queries to a single-device
//! `Gts` and sends the next when it returns.

use crate::gen::TlocModel;
use crate::probe::{self, SearchPhase};
use crate::report::{Metrics, PER_LAYER};
use crate::rng::Rng;
use crate::serve::ServeProbe;
use crate::stats;
use crate::trace::Tracer;
use crate::{Outcome, Run};
use baselines::LinearScan;
use gpu_sim::Device;
use gts_core::{Gts, GtsParams};
use metric_space::{Item, ItemMetric, Neighbor, SimilarityIndex};
use std::time::Instant;

/// The query each batch asks.
#[derive(Clone, Copy, Debug)]
pub enum Ask {
    Knn(usize),
    Range(f64),
}

/// One batch workload: its data, its query pool and how it is driven.
pub struct BatchWorkload {
    pub data: Vec<Item>,
    pub metric: ItemMetric,
    /// Queries, used in order and cyclically, `batch` at a time.
    pub queries: Vec<Item>,
    pub batch: usize,
    pub ask: Ask,
    /// Answers checked against the linear scan per run.
    pub checks: usize,
    /// When set, the traced run also serves the workload's points through
    /// a 2-shard `QueryService` ([`ServeProbe`]), inserting points drawn
    /// from this model.
    pub serve_model: Option<TlocModel>,
}

/// A batch whose index is a multiple of this has one query checked. Odd,
/// so that the checked batches walk a pool of a power of two batches.
const CHECK_STRIDE: usize = 5;
/// Index builds per untraced run, `setup_s` being their fast-state time
/// ([`stats::fast_time`]); the closed loop is split evenly between them.
const SETUP_ROUNDS: usize = 15;
// Each round runs at least one batch, enough for a tail.
const _: () = assert!(SETUP_ROUNDS >= stats::TAIL_MIN);
/// Batches of the fixed set the `gpusim.*` cross-check runs.
const CROSS_CHECK_BATCHES: usize = 2;

type Index = Gts<Item, ItemMetric>;

/// Pool position of the first query of batch `i`.
fn batch_start(i: usize, batch: usize, pool: usize) -> usize {
    (i * batch) % pool
}

/// The answers checked against the linear scan: one query of every
/// `CHECK_STRIDE`-th batch, never the same query of the pool twice, at
/// most `max`.
struct Samples {
    max: usize,
    /// Pool positions checked so far.
    taken: Vec<usize>,
    got: Vec<(Item, Vec<Neighbor>)>,
}

impl Samples {
    fn new(max: usize) -> Self {
        Samples {
            max,
            taken: Vec::new(),
            got: Vec::new(),
        }
    }

    /// Which query of batch `i` (`batch` queries from pool position
    /// `start`) to check, if any.
    fn pick(&mut self, i: usize, start: usize, batch: usize) -> Option<usize> {
        if !i.is_multiple_of(CHECK_STRIDE) || self.taken.len() >= self.max {
            return None;
        }
        let c = self.taken.len();
        let j = (0..batch)
            .map(|d| (c + d) % batch)
            .find(|j| !self.taken.contains(&(start + j)))?;
        self.taken.push(start + j);
        Some(j)
    }

    fn offer(&mut self, i: usize, start: usize, qs: &[Item], ans: &[Vec<Neighbor>]) {
        if let Some(j) = self.pick(i, start, qs.len()) {
            self.got.push((qs[j].clone(), ans[j].clone()));
        }
    }
}

impl BatchWorkload {
    fn build(&self) -> (Index, f64) {
        let data = self.data.clone();
        let t = Instant::now();
        let g = Gts::build(
            &Device::rtx_2080_ti(),
            data,
            self.metric,
            GtsParams::default(),
        )
        .expect("index construction");
        (g, t.elapsed().as_secs_f64())
    }

    fn batch_start(&self, i: usize) -> usize {
        batch_start(i, self.batch, self.queries.len())
    }

    fn batch_queries(&self, i: usize) -> &[Item] {
        let start = self.batch_start(i);
        &self.queries[start..start + self.batch]
    }

    fn search(
        &self,
        g: &Index,
        qs: &[Item],
    ) -> Result<Vec<Vec<Neighbor>>, metric_space::IndexError> {
        match self.ask {
            Ask::Knn(k) => g.batch_knn(qs, k),
            Ask::Range(r) => g.batch_range(qs, &vec![r; qs.len()]),
        }
    }

    fn scan(&self, s: &LinearScan, q: &Item) -> Vec<Neighbor> {
        match self.ask {
            Ask::Knn(k) => s.knn_query(q, k),
            Ask::Range(r) => s.range_query(q, r),
        }
        .expect("linear scan")
    }

    /// Run batches, appending each one's wall seconds to `times`, until
    /// `seconds` pass and at least `min` batches ran. Batch `i` is the
    /// `times.len()`-th of the run, so that a loop continued in segments
    /// cycles the query pool as one loop would.
    /// Each batch is a `runner.batch` span around a `core.search` span
    /// (recorded while `tracer` is on); `each` sees every batch's answers.
    #[allow(clippy::too_many_arguments)]
    fn closed_loop(
        &self,
        g: &Index,
        seconds: f64,
        min: usize,
        times: &mut Vec<f64>,
        tracer: &mut Tracer,
        out: &mut Outcome,
        mut each: impl FnMut(usize, &[Item], &[Vec<Neighbor>]),
    ) {
        let start = Instant::now();
        let first = times.len();
        while times.len() - first < min || start.elapsed().as_secs_f64() < seconds {
            let i = times.len();
            let qs = self.batch_queries(i);
            let root = tracer.begin("runner.batch", Tracer::root(), i as u64);
            let t = Instant::now();
            let res = tracer.span("core.search", root, i as u64, || self.search(g, qs));
            times.push(t.elapsed().as_secs_f64());
            out.attempted += qs.len() as u64;
            match res {
                Ok(ans) => each(i, qs, &ans),
                Err(e) => {
                    out.failed += qs.len() as u64;
                    out.mismatches.push(format!("batch {i} failed: {e}"));
                }
            }
            tracer.end(root);
        }
    }

    /// Check sampled `(query, answer)` pairs against the linear scan.
    fn check(&self, scan: &LinearScan, samples: &[(Item, Vec<Neighbor>)], out: &mut Outcome) {
        for (q, got) in samples {
            if !probe::same_answer(got, &self.scan(scan, q)) {
                out.mismatches
                    .push(format!("answer differs from the linear scan for {q:?}"));
            }
        }
        out.checked += samples.len() as u64;
    }

    pub fn run(&self, run: &Run, out: &mut Outcome) {
        if run.trace {
            self.run_traced(run, out)
        } else {
            self.run_untraced(run, out)
        }
    }

    /// `SETUP_ROUNDS` rounds, each an index build and a share of the
    /// closed loop on that index, so that the builds, like the batches,
    /// sample the host over the whole run.
    fn run_untraced(&self, run: &Run, out: &mut Outcome) {
        let mut setups = Vec::new();
        let mut times = Vec::new();
        let mut samples = Samples::new(self.checks);
        let mut tracer = Tracer::new(false);
        for _ in 0..SETUP_ROUNDS {
            let (g, s) = self.build();
            setups.push(s);
            // Warm-up: the first batch on an index faults in its memo and
            // frontier buffers.
            self.search(&g, self.batch_queries(times.len()))
                .expect("warm-up batch");
            self.closed_loop(
                &g,
                run.seconds / SETUP_ROUNDS as f64,
                1,
                &mut times,
                &mut tracer,
                out,
                |i, qs, ans| samples.offer(i, self.batch_start(i), qs, ans),
            );
        }
        let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let (pct, tail) = stats::tail(&ms).expect("TAIL_MIN batches support a tail");
        let m = &mut out.metrics;
        m.set("setup_s", stats::fast_time(&setups));
        let kinds = self.queries.len() / self.batch;
        m.set("qps", stats::pass_rate(&times, kinds, self.batch));
        m.set("batch_ms_p10", stats::fast_batch_time(&ms, kinds));
        m.set("batch_ms_tail", tail);
        out.notes.push(format!(
            "batch_ms_tail is p{pct:.1} of {} batches of {} queries; setup_s is the p10 of {} builds ({:.3} to {:.3} s)",
            ms.len(),
            self.batch,
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ));
        let scan = LinearScan::new(self.data.clone(), self.metric);
        self.check(&scan, &samples.got, out);
    }

    fn run_traced(&self, run: &Run, out: &mut Outcome) {
        let mut m = Metrics::default();
        let (g, build_s) = self.build();
        m.set("build.s", build_s);
        m.set("build.distances", g.build_distance_count() as f64);

        // Exact-repeat cross-check on a fixed query set.
        let devs = [g.device().clone()];
        let before = probe::device_stats(&devs);
        for i in 0..CROSS_CHECK_BATCHES {
            self.search(&g, self.batch_queries(i))
                .expect("cross-check batch");
        }
        probe::gpusim_metrics(
            &mut m,
            &before,
            &probe::device_stats(&devs),
            CROSS_CHECK_BATCHES * self.batch,
        );

        // Phase A, untraced: the wall the trace overhead is measured against.
        let phase = run.seconds * 0.4;
        let mut tracer = Tracer::new(false);
        let t = Instant::now();
        let mut a = Vec::new();
        self.closed_loop(&g, phase, 1, &mut a, &mut tracer, out, |_, _, _| {});
        let a_us = t.elapsed().as_secs_f64() * 1e6 / (a.len() * self.batch) as f64;

        // Phase B, traced: the same loop inside spans.
        tracer.set_on(true);
        g.reset_stats();
        let mut answers = 0usize;
        let mut samples = Samples::new(self.checks);
        let t = Instant::now();
        let mut b = Vec::new();
        self.closed_loop(&g, phase, 1, &mut b, &mut tracer, out, |i, qs, ans| {
            answers += ans.iter().map(Vec::len).sum::<usize>();
            samples.offer(i, self.batch_start(i), qs, ans);
        });
        let b_wall = t.elapsed().as_secs_f64();
        let queries = b.len() * self.batch;
        let search_ns = tracer
            .self_ns_by_name()
            .into_iter()
            .find(|(n, _)| *n == "core.search")
            .map_or(0, |x| x.1);
        let phase_b = SearchPhase {
            stats: g.stats(),
            queries,
            batches: b.len(),
            answers,
            us_per_query: search_ns as f64 / 1e3 / queries as f64,
        };
        m.set(
            "trace.overhead_frac",
            b_wall * 1e6 / queries as f64 / a_us - 1.0,
        );

        // Distance kernel replayed on one batch of the workload's queries:
        // a range query against its answers, a kNN query (which touches
        // most of the data) against random objects.
        let replay_q = self.batch_queries(0);
        let blocks = match self.ask {
            Ask::Range(_) => self
                .search(&g, replay_q)
                .expect("replay batch")
                .iter()
                .map(|a| {
                    let mut ids: Vec<u32> = a.iter().map(|n| n.id).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect(),
            Ask::Knn(_) => {
                let mut rng = Rng::fork(run.seed, 0x6b65726e);
                probe::random_blocks(
                    self.data.len(),
                    replay_q.len(),
                    self.data.len() / 4,
                    &mut rng,
                )
            }
        };
        let threads = GtsParams::default().effective_host_threads(g.device().host_threads());
        let ns = tracer.span("metric.replay", Tracer::root(), 0, || {
            probe::ns_per_dist(&self.data, self.metric, replay_q, &blocks, threads, 0.5)
        });
        out.notes.push(format!(
            "metric replay: {} of {} blocks reach {} pairs, the size from which the index splits a block over its {threads} host threads",
            blocks.iter().filter(|b| b.len() >= probe::PAR_MIN_PAIRS).count(),
            blocks.len(),
            probe::PAR_MIN_PAIRS
        ));
        probe::search_metrics(&mut m, &phase_b, self.data.len(), ns);
        drop(g);

        // Baseline: the linear scan over the checked queries.
        let samples = samples.got;
        let scan = LinearScan::new(self.data.clone(), self.metric);
        let t = Instant::now();
        for (q, _) in &samples {
            tracer.span("baselines.scan", Tracer::root(), 0, || {
                std::hint::black_box(self.scan(&scan, q))
            });
        }
        let scan_us = t.elapsed().as_secs_f64() * 1e6 / samples.len().max(1) as f64;
        m.set("scan.us_per_query", scan_us);
        m.set("scan.speedup", scan_us / a_us);
        self.check(&scan, &samples, out);

        match (&self.serve_model, self.ask) {
            (Some(model), Ask::Range(radius)) => {
                let serve = ServeProbe {
                    data: &self.data,
                    metric: self.metric,
                    queries: &self.queries,
                    radius,
                    model,
                };
                serve.measure(run.seed, run.seconds, &mut m, &mut tracer, out);
            }
            _ => {
                // One device, no updates, no service: zero work.
                m.set("shard.imbalance", 1.0);
                for (name, _) in PER_LAYER {
                    if m.get(name).is_none() {
                        m.set(name, 0.0);
                    }
                }
            }
        }
        out.notes.push(format!(
            "traced: {} batches untraced then {} traced, {} queries each",
            a.len(),
            b.len(),
            self.batch
        ));
        out.metrics = m;
        out.tracer = Some(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool positions the checks pick over `batches` batches.
    fn picked(batch: usize, pool: usize, max: usize, batches: usize) -> Vec<usize> {
        let mut s = Samples::new(max);
        for i in 0..batches {
            let start = batch_start(i, batch, pool);
            if let Some(j) = s.pick(i, start, batch) {
                assert!(j < batch);
            }
        }
        s.taken
    }

    #[test]
    fn checked_queries_are_distinct() {
        // dna-knn and tloc-range, and a pool of one batch.
        for (batch, pool, max, batches) in [(2, 32, 8, 90), (1024, 4096, 32, 300), (4, 4, 8, 200)] {
            let taken = picked(batch, pool, max, batches);
            assert_eq!(taken.len(), max.min(pool), "batch {batch} pool {pool}");
            let mut sorted = taken.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                taken.len(),
                "a query checked twice: {taken:?}"
            );
        }
    }
}
