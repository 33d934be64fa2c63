//! The serving probe of the traced `tloc-range` run: single requests
//! through `QueryService` over a 2-shard `ShardedGts` of the same points,
//! 90% range queries, 5% inserts of new points, 5% removes of live ids.
//!
//! Poisson arrivals at two fixed rates, then a search for the highest rate
//! whose p99 query latency meets [`P99_LIMIT_MS`] without a growing
//! backlog. Beside the service it times the shard layer (the sharded call
//! against each shard alone) and the update layer (`ShardedGts::apply`
//! replayed from the run's update log). Two shards need both of the host's
//! CPUs at once, which makes their wall-clock figures swing with the
//! hypervisor's steal; they are per-layer metrics, with no bound.

use crate::gen::TlocModel;
use crate::report::Metrics;
use crate::rng::Rng;
use crate::sched::{self, Record};
use crate::stats;
use crate::trace::Tracer;
use crate::Outcome;
use baselines::LinearScan;
use gpu_sim::DevicePool;
use gts_core::{GtsParams, ShardedGts, UpdateOp};
use gts_service::{QueryService, Reply, Request, Response, ServiceConfig, ServiceError, Ticket};
use metric_space::{Item, ItemMetric, Neighbor, SimilarityIndex};
use std::sync::mpsc;
use std::time::Instant;

pub const SHARDS: u32 = 2;
/// Offered rates of the open loop, requests per second: about 1/2 and 4/5
/// of the rate the service saturates at. On a 2-vCPU Xeon guest, over the
/// 100 000 points of `tloc-range` (3 s per rate), it served all of
/// 16000/s offered with p99 20-25 ms (seeds 11 and 12), and 16904/s of
/// 18000/s and 14988-17406/s of 20000/s with p99 above 190 ms: about
/// 17000/s.
pub const RATE_LOW: f64 = 8500.0;
pub const RATE_HIGH: f64 = 13500.0;
/// The p99 query latency a rate must meet to count towards `max_rps`.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Share of the run's seconds each phase takes.
const LOW_SHARE: f64 = 0.15;
const HIGH_SHARE: f64 = 0.15;
const SEARCH_SHARE: f64 = 0.2;
/// Seconds of each probe of the `max_rps` search.
const PROBE_S: f64 = 1.5;
/// Queries per batch of the shard probe, and batches.
const SHARD_BATCH: usize = 256;
const SHARD_BATCHES: usize = 4;
/// Every this many query replies one is checked by brute force.
const CHECK_EVERY: usize = 997;
/// Most replies checked per run.
const CHECK_MAX: usize = 8;

type Index = ShardedGts<Item, ItemMetric>;
type Service = QueryService<Item, ItemMetric>;

/// What the probe serves: the workload's points, its query pool and radius,
/// and the model new points are drawn from.
pub struct ServeProbe<'a> {
    pub data: &'a [Item],
    pub metric: ItemMetric,
    pub queries: &'a [Item],
    pub radius: f64,
    pub model: &'a TlocModel,
}

/// An update as the runner logged it, in submission (= serialization)
/// order.
enum Op {
    Insert(Item),
    Remove(u32),
}

#[derive(Clone, Copy)]
enum Kind {
    Query,
    Insert,
    Remove,
}

/// What a reply must be.
enum Expect {
    /// A range answer; `Some(query)` when this reply is checked.
    Query(Option<Item>),
    /// An insert receipt assigning this id.
    Insert(u32),
    Remove,
}

/// A reply kept for the brute-force check.
struct Sample {
    query: Item,
    epoch: u64,
    answer: Vec<Neighbor>,
}

/// The request stream: kinds drawn 90/5/5, removes of ids live at
/// submission, the update log, and what came back, checked against it.
struct Traffic<'a> {
    probe: &'a ServeProbe<'a>,
    rng: Rng,
    live: Vec<u32>,
    next_id: u32,
    log: Vec<Op>,
    queries: usize,
    samples: Vec<Sample>,
    mismatches: Vec<String>,
    failed: u64,
}

impl<'a> Traffic<'a> {
    fn new(probe: &'a ServeProbe<'a>, rng: Rng) -> Self {
        let n = probe.data.len() as u32;
        Traffic {
            probe,
            rng,
            live: (0..n).collect(),
            next_id: n,
            log: Vec::new(),
            queries: 0,
            samples: Vec::new(),
            mismatches: Vec::new(),
            failed: 0,
        }
    }

    /// Draw the next request, 90% query, 5% insert, 5% remove; it changes
    /// the stream's state only when [`Traffic::commit`] records it admitted.
    fn draw(&mut self) -> (Request<Item>, usize) {
        let kind = match self.rng.f64() {
            u if u < 0.05 => Kind::Insert,
            u if u < 0.10 => Kind::Remove,
            _ => Kind::Query,
        };
        match kind {
            Kind::Insert => (
                Request::Insert {
                    object: self.probe.model.sample(&mut self.rng),
                },
                0,
            ),
            Kind::Remove => {
                let at = self.rng.below(self.live.len());
                (Request::Remove { id: self.live[at] }, at)
            }
            Kind::Query => {
                let q = &self.probe.queries[self.rng.below(self.probe.queries.len())];
                (
                    Request::Range {
                        query: q.clone(),
                        radius: self.probe.radius,
                    },
                    0,
                )
            }
        }
    }

    fn commit(&mut self, req: &Request<Item>, at: usize) -> Expect {
        match req {
            Request::Insert { object } => {
                let id = self.next_id;
                self.next_id += 1;
                self.live.push(id);
                self.log.push(Op::Insert(object.clone()));
                Expect::Insert(id)
            }
            Request::Remove { id } => {
                self.live.swap_remove(at);
                self.log.push(Op::Remove(*id));
                Expect::Remove
            }
            Request::Range { query, .. } => {
                self.queries += 1;
                Expect::Query(
                    self.queries
                        .is_multiple_of(CHECK_EVERY)
                        .then(|| query.clone()),
                )
            }
            Request::Knn { .. } | Request::BatchUpdate { .. } => unreachable!("not drawn"),
        }
    }

    fn take(&mut self, resp: Result<Response, ServiceError>, expect: Expect) {
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                self.mismatches.push(format!("ticket failed: {e}"));
                return;
            }
        };
        match (resp.result, expect) {
            (Ok(Reply::Neighbors(answer)), Expect::Query(q)) => {
                if let Some(query) = q {
                    if self.samples.len() < CHECK_MAX {
                        self.samples.push(Sample {
                            query,
                            epoch: resp.epoch,
                            answer,
                        });
                    }
                }
            }
            (Ok(Reply::Update(ack)), Expect::Insert(id)) => {
                if ack.assigned != [id] {
                    self.mismatches.push(format!(
                        "insert assigned {:?}, expected [{id}]",
                        ack.assigned
                    ));
                }
            }
            (Ok(Reply::Update(ack)), Expect::Remove) => {
                if ack.removed != 1 {
                    self.mismatches
                        .push(format!("remove of a live id removed {}", ack.removed));
                }
            }
            (Err(e), _) => {
                self.failed += 1;
                self.mismatches.push(format!("request failed: {e}"));
            }
            (Ok(_), _) => self.mismatches.push("reply of the wrong kind".into()),
        }
    }
}

/// One open-loop phase's requests.
struct OpenPhase {
    queries: Vec<Record>,
    updates: Vec<Record>,
    /// Flush-to-reply milliseconds per request.
    exec_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    queue_full: u64,
}

impl OpenPhase {
    fn query_ms(&self) -> Vec<f64> {
        stats::sorted(self.queries.iter().map(Record::latency_ms).collect())
    }

    fn passes(&self) -> bool {
        let q = self.query_ms();
        self.queue_full == 0
            && !q.is_empty()
            && stats::quantile(&q, 0.99) <= P99_LIMIT_MS
            && !sched::backlog_growing(&self.queries, P99_LIMIT_MS)
    }
}

impl ServeProbe<'_> {
    fn build(&self) -> Index {
        ShardedGts::build(
            &DevicePool::rtx_2080_ti(SHARDS as usize),
            self.data.to_vec(),
            self.metric,
            GtsParams::default().with_shards(SHARDS),
        )
        .expect("sharded construction")
    }

    /// Poisson arrivals at `rate` for `seconds`: this thread submits on
    /// schedule, a second thread collects replies in submission order.
    fn open_loop(
        &self,
        svc: &Service,
        traffic: &mut Traffic,
        rate: f64,
        seconds: f64,
        out: &mut Outcome,
    ) -> OpenPhase {
        let due = sched::poisson(rate, seconds, &mut traffic.rng);
        let handle = svc.handle();
        let (tx, rx) = mpsc::channel::<(Ticket, f64, f64, Expect)>();
        let start = Instant::now();
        let mut queue_full = 0u64;
        let collected = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut got = Vec::new();
                for (ticket, due, sent, expect) in rx {
                    let resp = ticket.wait();
                    let done = start.elapsed().as_secs_f64();
                    got.push((Record { due, sent, done }, resp, expect));
                }
                got
            });
            for &d in &due {
                sched::sleep_until(start, d);
                let (req, at) = traffic.draw();
                let sent = start.elapsed().as_secs_f64();
                out.attempted += 1;
                match handle.submit(req.clone()) {
                    Ok(ticket) => {
                        let expect = traffic.commit(&req, at);
                        tx.send((ticket, d, sent, expect)).expect("collector alive");
                    }
                    Err(ServiceError::QueueFull { .. }) => {
                        queue_full += 1;
                        out.failed += 1;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.mismatches.push(format!("submit refused: {e}"));
                    }
                }
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        let mut phase = OpenPhase {
            queries: Vec::new(),
            updates: Vec::new(),
            exec_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            queue_full,
        };
        for (rec, resp, expect) in collected {
            if let Ok(r) = &resp {
                let wait_s = r.latency.queue_wait_us as f64 / 1e6;
                phase.queue_wait_ms.push(wait_s * 1e3);
                phase
                    .exec_ms
                    .push((rec.done - rec.sent - wait_s).max(0.0) * 1e3);
            }
            match expect {
                Expect::Query(_) => phase.queries.push(rec),
                _ => phase.updates.push(rec),
            }
            traffic.take(resp, expect);
        }
        phase
    }

    /// Record `shard.*`, `service.*` and `update.*` into `m`.
    pub fn measure(
        &self,
        seed: u64,
        seconds: f64,
        m: &mut Metrics,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) {
        // A directly owned index for the shard and update probes; the
        // service gets its own copy.
        let mut probe_idx = self.build();
        let shards = probe_idx.num_shards();
        let radii = vec![self.radius; SHARD_BATCH];
        let mut scatter_us = Vec::new();
        let (mut max_shard, mut sum_shard) = (0u64, 0u64);
        for (b, qs) in self
            .queries
            .chunks_exact(SHARD_BATCH)
            .take(SHARD_BATCHES)
            .enumerate()
        {
            let before: Vec<u64> = (0..shards)
                .map(|s| probe_idx.shard_stats(s).distance_computations)
                .collect();
            let t = Instant::now();
            tracer
                .span("core.shard", Tracer::root(), b as u64, || {
                    probe_idx.batch_range(qs, &radii)
                })
                .expect("sharded batch");
            let whole = t.elapsed().as_secs_f64();
            let dist: Vec<u64> = (0..shards)
                .map(|s| probe_idx.shard_stats(s).distance_computations - before[s])
                .collect();
            max_shard += dist.iter().max().expect("shards");
            sum_shard += dist.iter().sum::<u64>();
            // Each shard alone on the same batch: the sharded call's excess
            // over its slowest shard is the scatter/merge cost.
            let slowest = (0..shards)
                .map(|s| {
                    let t = Instant::now();
                    tracer
                        .span("core.shard.one", Tracer::root(), b as u64, || {
                            probe_idx.shard(s).batch_range(qs, &radii)
                        })
                        .expect("shard batch");
                    t.elapsed().as_secs_f64()
                })
                .fold(0.0, f64::max);
            scatter_us.push((whole - slowest) * 1e6);
        }
        m.set("shard.scatter_us_per_batch", stats::median(&scatter_us));
        m.set(
            "shard.imbalance",
            (max_shard * shards as u64) as f64 / sum_shard.max(1) as f64,
        );

        let svc = QueryService::start(self.build(), ServiceConfig::default());
        let mut traffic = Traffic::new(self, Rng::fork(seed, 0x7472_6166));
        let low = self.open_loop(&svc, &mut traffic, RATE_LOW, LOW_SHARE * seconds, out);
        let before = svc.stats();
        let high = self.open_loop(&svc, &mut traffic, RATE_HIGH, HIGH_SHARE * seconds, out);
        let after = svc.stats();
        let (lq, hq) = (low.query_ms(), high.query_ms());
        m.set("service.query_ms_p50.low", stats::quantile(&lq, 0.5));
        m.set("service.query_ms_p99.low", stats::quantile(&lq, 0.99));
        m.set("service.query_ms_p50.high", stats::quantile(&hq, 0.5));
        m.set("service.query_ms_p99.high", stats::quantile(&hq, 0.99));
        let upd = stats::sorted(high.updates.iter().map(Record::latency_ms).collect());
        m.set("service.update_ms_p50.high", stats::quantile(&upd, 0.5));
        m.set("service.update_ms_p90.high", stats::quantile(&upd, 0.9));
        let waits = stats::sorted(high.queue_wait_ms.clone());
        m.set("service.queue_wait_ms_p50", stats::quantile(&waits, 0.5));
        m.set("service.queue_wait_ms_p99", stats::quantile(&waits, 0.99));
        let exec = stats::sorted(high.exec_ms.clone());
        m.set("service.exec_ms_p50", stats::quantile(&exec, 0.5));
        m.set("service.exec_ms_p99", stats::quantile(&exec, 0.99));
        let batches = (after.batches - before.batches).max(1) as f64;
        let requests = (after.admitted - before.admitted) as f64;
        m.set("service.batch_size_mean", requests / batches);
        m.set(
            "service.batches_per_kreq",
            1e3 * batches / requests.max(1.0),
        );
        m.set(
            "service.deadline_flush_frac",
            (after.deadline_flushes - before.deadline_flushes) as f64 / batches,
        );
        let late = stats::sorted(
            high.queries
                .iter()
                .chain(&high.updates)
                .map(Record::late_ms)
                .collect(),
        );
        m.set("service.gen_late_ms_p99", stats::quantile(&late, 0.99));

        // max_rps: from the low rate, move by 1.25x until a probe passes
        // and one fails, then bisect.
        let probes = ((SEARCH_SHARE * seconds) / PROBE_S).floor().max(2.0) as usize;
        let (mut pass, mut fail): (Option<f64>, Option<f64>) = (None, None);
        let mut rate = RATE_LOW;
        let mut queue_full = low.queue_full + high.queue_full;
        for _ in 0..probes {
            let p = self.open_loop(&svc, &mut traffic, rate, PROBE_S, out);
            queue_full += p.queue_full;
            if p.passes() {
                pass = Some(pass.map_or(rate, |r: f64| r.max(rate)));
            } else {
                fail = Some(fail.map_or(rate, |r: f64| r.min(rate)));
            }
            rate = match (pass, fail) {
                (Some(lo), Some(hi)) => (lo * hi).sqrt(),
                (Some(lo), None) => lo * 1.25,
                (None, Some(hi)) => hi / 1.25,
                (None, None) => unreachable!("a probe ran"),
            };
        }
        m.set("service.max_rps", pass.unwrap_or(0.0));
        m.set("service.queue_full", queue_full as f64);
        let final_stats = svc.shutdown();
        out.notes.push(format!(
            "serving probe: {SHARDS} shards, batch target {}, open loop {RATE_LOW} and {RATE_HIGH} req/s, {probes} max_rps probes of {PROBE_S} s",
            final_stats.batch_target
        ));

        // core.update: replay the logged updates on the probe index.
        let rebuilds = |idx: &Index| {
            (0..shards)
                .map(|s| idx.shard(s).rebuild_count())
                .sum::<u64>()
        };
        let first = rebuilds(&probe_idx);
        let (mut apply_us, mut rebuild_ms, mut cache_len) = (Vec::new(), Vec::new(), Vec::new());
        for (i, op) in traffic.log.iter().enumerate() {
            let op = match op {
                Op::Insert(item) => UpdateOp::Insert(item.clone()),
                Op::Remove(id) => UpdateOp::Remove(*id),
            };
            let r0 = rebuilds(&probe_idx);
            let t = Instant::now();
            tracer
                .span("core.update", Tracer::root(), i as u64, || {
                    probe_idx.apply(&op)
                })
                .expect("apply");
            let took = t.elapsed().as_secs_f64();
            apply_us.push(took * 1e6);
            if rebuilds(&probe_idx) > r0 {
                rebuild_ms.push(took * 1e3);
            }
            cache_len.push(
                (0..shards)
                    .map(|s| probe_idx.shard(s).cache_len())
                    .sum::<usize>() as f64,
            );
        }
        m.set("update.rebuilds", (rebuilds(&probe_idx) - first) as f64);
        drop(probe_idx);
        let applied = stats::sorted(apply_us);
        m.set("update.apply_us_p50", stats::quantile(&applied, 0.5));
        m.set("update.apply_us_p90", stats::quantile(&applied, 0.9));
        m.set(
            "update.rebuild_ms_p50",
            if rebuild_ms.is_empty() {
                0.0
            } else {
                stats::median(&rebuild_ms)
            },
        );
        m.set("update.cache_len_mean", stats::mean(&cache_len));
        self.check(traffic, out);
    }

    /// Re-answer each sampled reply by brute force over the live set at
    /// the reply's epoch, replayed from the runner's own update log.
    fn check(&self, traffic: Traffic, out: &mut Outcome) {
        let (log, mut samples) = (traffic.log, traffic.samples);
        out.failed += traffic.failed;
        out.mismatches.extend(traffic.mismatches);
        let mut objects: Vec<Item> = self.data.to_vec();
        let mut alive = vec![true; objects.len()];
        let mut applied = 0usize;
        samples.sort_by_key(|s| s.epoch);
        for s in &samples {
            let epoch = s.epoch as usize;
            if epoch > log.len() {
                out.mismatches.push(format!(
                    "reply at epoch {epoch} beyond the {} logged updates",
                    log.len()
                ));
                continue;
            }
            for op in &log[applied..epoch] {
                match op {
                    Op::Insert(item) => {
                        objects.push(item.clone());
                        alive.push(true);
                    }
                    Op::Remove(id) => alive[*id as usize] = false,
                }
            }
            applied = epoch;
            let ids: Vec<u32> = (0..objects.len() as u32)
                .filter(|&i| alive[i as usize])
                .collect();
            let scan = LinearScan::new(
                ids.iter().map(|&i| objects[i as usize].clone()).collect(),
                self.metric,
            );
            let mut want = scan
                .range_query(&s.query, self.radius)
                .expect("linear scan");
            for n in &mut want {
                n.id = ids[n.id as usize];
            }
            if !crate::probe::same_answer(&s.answer, &want) {
                out.mismatches.push(format!(
                    "range reply at epoch {epoch} differs from brute force"
                ));
            }
        }
        out.checked += samples.len() as u64;
    }
}
