//! Host-parallel kernel scaling sweep: the same 20k-pair distance block
//! executed with 1 / 2 / 4 / 8 host threads.
//!
//! This measures exactly what `GtsParams::host_threads` buys: one query
//! against a large id block, cut into fixed-size chunks
//! (`gpu_sim::exec::BATCH_CHUNK`) and fanned out with
//! `gpu_sim::exec::par_run` — the same composition the index hot paths use
//! through their dispatch layer. Every sweep point re-verifies that the
//! chunked outputs are bit-identical to the serial kernel, so the numbers
//! never drift from correctness.
//!
//! Results are printed and written to `BENCH_host_parallel.json` at the
//! workspace root (override with `GTS_BENCH_OUT`). The JSON records
//! `host_cores` (what `std::thread::available_parallelism` reports) because
//! the thread sweep only shows wall-clock speedup when the host actually
//! has idle cores — on a single-core machine the fixed chunking keeps
//! results identical while the extra threads just take turns. Run with
//! `cargo bench -p gts-bench --bench host_parallel`.

use gpu_sim::exec::{par_run, BATCH_CHUNK};
use metric_space::{chunk_pairs, gen, BatchMetric, Item, ItemMetric, Metric};
use std::fmt::Write as _;
use std::time::Instant;

const PAIRS: usize = 20_000;
const REPS: usize = 15;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct SweepPoint {
    metric: &'static str,
    threads: usize,
    ns_per_dist: f64,
}

/// Minimum nanoseconds per distance over `REPS` timed repetitions (plus an
/// untimed warm-up); the minimum is the noise-robust estimator because
/// interference only ever adds time.
fn time_per_distance(pairs: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64 / pairs as f64);
    }
    best
}

fn sweep_metric(
    label: &'static str,
    metric: ItemMetric,
    items: Vec<Item>,
    out: &mut Vec<SweepPoint>,
) {
    let arena = metric.build_arena(&items).expect("homogeneous dataset");
    // Scattered id pattern (Knuth multiplicative hash), as in dist_kernels.
    let n = items.len() as u64;
    let ids: Vec<u32> = (0..PAIRS as u64)
        .map(|i| ((i.wrapping_mul(2_654_435_761)) % n) as u32)
        .collect();
    let query = items[items.len() / 2].clone();

    let mut serial = vec![0.0f64; ids.len()];
    metric.distance_batch(&items, Some(&arena), &query, &ids, &mut serial);

    for threads in THREAD_SWEEP {
        let mut block = vec![0.0f64; ids.len()];
        let ns = time_per_distance(PAIRS, || {
            let chunks = chunk_pairs(BATCH_CHUNK, &ids, &mut block);
            par_run(chunks, threads, |c| {
                metric.distance_batch(&items, Some(&arena), &query, c.ids, c.out)
            });
        });
        assert_eq!(block, serial, "{}: chunked run diverged", metric.name());
        out.push(SweepPoint {
            metric: label,
            threads,
            ns_per_dist: ns,
        });
    }
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut points = Vec::new();
    sweep_metric(
        "L2-128",
        ItemMetric::L2,
        gen::vectors(4_096, 128, 7),
        &mut points,
    );
    sweep_metric(
        "edit-words",
        ItemMetric::Edit,
        gen::words(4_096, 7),
        &mut points,
    );
    // DNA-length strings: the most expensive edit workload (~0.8 µs per
    // pair with the bit-parallel kernel), where per-chunk compute still
    // dwarfs thread-dispatch overhead.
    sweep_metric(
        "edit-dna96",
        ItemMetric::Edit,
        gen::dna(1_024, 96, 7),
        &mut points,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"pairs\": {PAIRS},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"chunk\": {BATCH_CHUNK},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let base = points
            .iter()
            .find(|b| b.metric == p.metric && b.threads == 1)
            .expect("sweep includes threads=1");
        let speedup = base.ns_per_dist / p.ns_per_dist;
        println!(
            "host_parallel/{:<5} threads {:>2}: {:>8.1} ns/dist | speedup vs 1 thread {:.2}x",
            p.metric, p.threads, p.ns_per_dist, speedup
        );
        let _ = writeln!(
            json,
            "    {{\"metric\": \"{}\", \"threads\": {}, \"ns_per_dist\": {:.2}, \"speedup_vs_1\": {:.3}}}{}",
            p.metric,
            p.threads,
            p.ns_per_dist,
            speedup,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let out_path = std::env::var("GTS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_host_parallel.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&out_path, &json).expect("write BENCH_host_parallel.json");
    println!("wrote {out_path}");
}
