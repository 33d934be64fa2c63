//! Distance-kernel microbench: batched arena path vs per-pair `Item` path.
//!
//! Measures the raw host cost of evaluating one query against a large block
//! of stored objects — the exact shape of the GTS hot paths (pivot
//! distances, leaf verification, construction mapping) — three ways:
//!
//! * **per-pair**: `Metric::distance(&Item, &Item)` in a loop, chasing a
//!   boxed payload per evaluation (the pre-arena implementation);
//! * **batch**: one `BatchMetric::distance_batch` call resolving ids
//!   against the flat [`ObjectArena`] (contiguous payloads, shared DP
//!   scratch);
//! * **batch-bounded**: the early-abandoning variant (the edit kernel
//!   stops scanning once the bound is provably exceeded), reported for
//!   context.
//!
//! Vector metrics additionally time a **scalar-fold** reference — the
//! textbook one-accumulator loop — and the bench *asserts* the batched
//! 8-lane L2 kernel beats it by ≥ 1.3× on the 20k-pair block: a
//! regression here fails the run, not just the report.
//!
//! Edit rows (words, ~108-base DNA reads, and 200-base reads past the
//! 128-byte single-word limit of the bit-parallel kernel) additionally time
//! the **DP oracle** — the textbook Wagner–Fischer dynamic program the
//! kernel replaced — over the same pairs, and the bench *asserts* the
//! batched kernel is ≥ 10× faster than it on the DNA row.
//!
//! All variants of a metric are timed **round-robin** (one rep of each in
//! rotation, min per variant): slow drift on the shared core — frequency
//! scaling, cache pressure from a neighbouring phase — lands on every
//! variant equally, so the reported *ratios* (the asserted speedup, the
//! drift-gated `batch_speedup`) are stable run to run, where back-to-back
//! phase timing is not.
//!
//! Results are printed and written to `BENCH_dist_kernels.json` at the
//! workspace root (override with `GTS_BENCH_OUT`). Run with
//! `cargo bench -p gts-bench --bench dist_kernels`.

use metric_space::gen;
use metric_space::{BatchMetric, Item, ItemMetric, Metric};
use std::fmt::Write as _;
use std::time::Instant;

#[path = "../../metric/tests/support/edit_dp.rs"]
mod edit_dp;

/// Pairs per block for the cheap kernels (vectors, words).
const PAIRS: usize = 20_000;
/// Pairs per block for the DNA rows, whose DP oracle costs tens of µs per
/// pair: enough for stable minima at a few seconds per row.
const DNA_PAIRS: usize = 2_000;
const REPS: usize = 30;

/// The batched L2 kernel must beat the sequential-fold scalar reference by
/// at least this factor on the 20k-pair block.
const L2_MIN_FOLD_SPEEDUP: f64 = 1.3;

/// The batched edit kernel must beat the DP oracle by at least this factor
/// on the DNA row.
const EDIT_DNA_MIN_SPEEDUP: f64 = 10.0;

struct KernelTimes {
    label: &'static str,
    pairs: usize,
    arity: usize,
    per_pair_ns: f64,
    batch_ns: f64,
    bounded_ns: f64,
    /// Textbook one-accumulator fold (vector metrics only): the scalar
    /// reference the 8-lane kernels' speedup is measured against.
    scalar_ns: Option<f64>,
    /// The full-DP oracle over the same pairs (edit distance only).
    dp_ns: Option<f64>,
}

/// A lane-free scalar distance kernel over raw vector payloads.
type ScalarKernel = fn(&[f32], &[f32]) -> f64;

/// Sequential-fold scalar references: one dependent accumulator, the
/// textbook loop every lane-free implementation compiles to. The canonical
/// kernels deliberately abandoned this summation order for the 8-lane one,
/// so these are *timing* references, not bitwise ones.
fn scalar_l2(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0f64;
    for (x, y) in a.iter().zip(b) {
        let d = f64::from(x - y);
        acc += d * d;
    }
    acc.sqrt()
}

fn scalar_l1(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0f64;
    for (x, y) in a.iter().zip(b) {
        acc += f64::from((x - y).abs());
    }
    acc
}

/// Minimum nanoseconds per distance for each variant, timed round-robin:
/// one warm-up rep of every variant, then `REPS` rounds running one timed
/// rep of each in rotation. The minimum is the standard noise-robust
/// estimator (interference only ever adds time), and the rotation keeps
/// every variant's minimum exposed to the same machine conditions, so
/// ratios between them are stable.
fn time_round_robin(pairs: usize, mut variants: Vec<Box<dyn FnMut() + '_>>) -> Vec<f64> {
    for f in &mut variants {
        f(); // warm-up
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..REPS {
        for (slot, f) in best.iter_mut().zip(&mut variants) {
            let start = Instant::now();
            f();
            *slot = slot.min(start.elapsed().as_nanos() as f64 / pairs as f64);
        }
    }
    best
}

fn bench_metric(
    label: &'static str,
    metric: ItemMetric,
    items: Vec<Item>,
    pairs: usize,
    bound: f64,
) -> KernelTimes {
    let arena = metric.build_arena(&items).expect("homogeneous dataset");
    // Scattered id pattern (Knuth multiplicative hash): the table list after
    // partitioning is a permutation of the store, so the kernels never walk
    // objects in allocation order.
    let n = items.len() as u64;
    let ids: Vec<u32> = (0..pairs as u64)
        .map(|i| ((i.wrapping_mul(2_654_435_761)) % n) as u32)
        .collect();
    let query = items[items.len() / 2].clone();
    let mut out = vec![0.0f64; ids.len()];
    let mut out_scalar = vec![0.0f64; ids.len()];
    let mut out_bounded = vec![None; ids.len()];
    let bounds = vec![bound; ids.len()];

    // The sequential-fold scalar reference (vector metrics): same payload
    // resolution as the batch path, lane-free inner loop.
    let scalar_kernel: Option<ScalarKernel> = match metric {
        ItemMetric::Vector(metric_space::VectorMetric::L2) => Some(scalar_l2),
        ItemMetric::Vector(metric_space::VectorMetric::L1) => Some(scalar_l1),
        _ => None,
    };
    let mut out_fold = vec![0.0f64; ids.len()];
    let mut out_dp = vec![0.0f64; ids.len()];
    let is_edit = metric == ItemMetric::Edit;

    // One closure per variant, timed in rotation. The per-pair closure
    // mirrors the replaced hot-path kernel closure, which produced
    // `(distance, work)` per thread.
    let mut work_acc = 0u64;
    let mut variants: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            for (slot, &id) in out_scalar.iter_mut().zip(&ids) {
                let o = &items[id as usize];
                *slot = metric.distance(&query, o);
                work_acc = work_acc.wrapping_add(metric.work(&query, o));
            }
            std::hint::black_box(work_acc);
        }),
        Box::new(|| {
            metric.distance_batch(&items, Some(&arena), &query, &ids, &mut out);
        }),
        Box::new(|| {
            metric.distance_batch_bounded(
                &items,
                Some(&arena),
                &query,
                &ids,
                &bounds,
                &mut out_bounded,
            );
        }),
    ];
    if let Some(kernel) = scalar_kernel {
        let q = query.as_vector().expect("vector dataset");
        let (ids, items, out_fold) = (&ids, &items, &mut out_fold);
        variants.push(Box::new(move || {
            for (slot, &id) in out_fold.iter_mut().zip(ids) {
                let o = items[id as usize].as_vector().expect("vector dataset");
                *slot = kernel(q, o);
            }
            std::hint::black_box(&out_fold);
        }));
    }
    if is_edit {
        let q = query.as_text().expect("text dataset").as_bytes();
        let (ids, arena, out_dp) = (&ids, &arena, &mut out_dp);
        variants.push(Box::new(move || {
            for (slot, &id) in out_dp.iter_mut().zip(ids) {
                *slot = f64::from(edit_dp::levenshtein(q, arena.text_bytes(id)));
            }
            std::hint::black_box(&out_dp);
        }));
    }
    let times = time_round_robin(pairs, variants);
    let (per_pair_ns, batch_ns, bounded_ns) = (times[0], times[1], times[2]);
    let scalar_ns = scalar_kernel.is_some().then(|| times[3]);
    let dp_ns = is_edit.then(|| times[times.len() - 1]);

    // The comparisons are only meaningful if the paths agree exactly.
    assert_eq!(out, out_scalar, "batch and per-pair disagree");
    if is_edit {
        assert_eq!(out, out_dp, "bit-parallel kernel and DP oracle disagree");
    }

    KernelTimes {
        label,
        pairs,
        arity: items.iter().map(Item::arity).sum::<usize>() / items.len(),
        per_pair_ns,
        batch_ns,
        bounded_ns,
        scalar_ns,
        dp_ns,
    }
}

fn main() {
    // 1k stored vectors keep the payload working set (~512 KB a side)
    // cache-resident, so the rows measure kernel cost, not DRAM latency —
    // at 4k+ objects every path converges on the memory system and the
    // kernel comparison disappears into it.
    //
    // The DNA rows: ~108-base reads (the paper's DNA dataset, one `u128`
    // pattern word) and 200-base reads (four `u64` blocks). The bound is a
    // typical kNN-10 radius between reads of one family.
    let runs = [
        bench_metric(
            "L2",
            ItemMetric::L2,
            gen::vectors(1_024, 128, 7),
            PAIRS,
            1.0,
        ),
        bench_metric(
            "L1",
            ItemMetric::L1,
            gen::vectors(1_024, 128, 11),
            PAIRS,
            1.0,
        ),
        bench_metric("edit", ItemMetric::Edit, gen::words(4_096, 7), PAIRS, 3.0),
        bench_metric(
            "edit-dna108",
            ItemMetric::Edit,
            gen::dna(1_024, 108, 7),
            DNA_PAIRS,
            20.0,
        ),
        bench_metric(
            "edit-dna200",
            ItemMetric::Edit,
            gen::dna(1_024, 200, 7),
            DNA_PAIRS,
            40.0,
        ),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"results\": [");
    let fmt_ns =
        |ns: Option<f64>| ns.map_or_else(|| "     n/a".to_string(), |ns| format!("{ns:>8.1}"));
    let fmt_num = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v:.2}"));
    let fmt_x = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}"));
    let fmt_ratio = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |s| format!("{s:.3}"));
    for (i, r) in runs.iter().enumerate() {
        let speedup = r.per_pair_ns / r.batch_ns;
        // Batched edit kernel speedup vs the DP oracle.
        let dp_speedup = r.dp_ns.map(|dp| dp / r.batch_ns);
        println!(
            "dist_kernels/{:<11} ({} pairs, arity {:>3}): per-pair {:>8.1} ns/dist | scalar-fold {} | DP oracle {} | batch {:>8.1} | bounded {:>8.1} | batch speedup {:.2}x | batch-vs-scalar-fold {}x | batch-vs-DP {}x",
            r.label,
            r.pairs,
            r.arity,
            r.per_pair_ns,
            fmt_ns(r.scalar_ns),
            fmt_ns(r.dp_ns),
            r.batch_ns,
            r.bounded_ns,
            speedup,
            fmt_x(r.scalar_ns.map(|s| s / r.batch_ns)),
            fmt_x(dp_speedup),
        );
        let _ = writeln!(
            json,
            "    {{\"metric\": \"{}\", \"pairs\": {}, \"arity\": {}, \"per_pair_ns_per_dist\": {:.2}, \"scalar_fold_ns_per_dist\": {}, \"dp_ns_per_dist\": {}, \"batch_ns_per_dist\": {:.2}, \"bounded_ns_per_dist\": {:.2}, \"batch_speedup\": {:.3}, \"dp_speedup\": {}}}{}",
            r.label,
            r.pairs,
            r.arity,
            r.per_pair_ns,
            fmt_num(r.scalar_ns),
            fmt_num(r.dp_ns),
            r.batch_ns,
            r.bounded_ns,
            speedup,
            fmt_ratio(dp_speedup),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    // Acceptance bar: the batched 8-lane L2 kernel beats the
    // sequential-fold scalar reference by ≥ 1.3× on the 20k-pair block.
    let l2 = &runs[0];
    let l2_scalar = l2.scalar_ns.expect("L2 has a scalar reference");
    let l2_speedup = l2_scalar / l2.batch_ns;
    assert!(
        l2_speedup >= L2_MIN_FOLD_SPEEDUP,
        "batched L2 must be ≥ {L2_MIN_FOLD_SPEEDUP}× the sequential-fold \
         scalar reference, measured {l2_speedup:.2}× ({l2_scalar:.1} ns \
         scalar vs {:.1} ns batched per distance)",
        l2.batch_ns,
    );

    // Acceptance bar: the batched bit-parallel edit kernel beats the DP
    // oracle by ≥ 10× on ~108-base DNA reads.
    let dna = runs
        .iter()
        .find(|r| r.label == "edit-dna108")
        .expect("DNA row");
    let dna_dp = dna.dp_ns.expect("edit rows time the DP oracle");
    let dna_speedup = dna_dp / dna.batch_ns;
    assert!(
        dna_speedup >= EDIT_DNA_MIN_SPEEDUP,
        "batched edit kernel must be ≥ {EDIT_DNA_MIN_SPEEDUP}× the DP oracle on \
         DNA reads, measured {dna_speedup:.2}× ({dna_dp:.1} ns DP vs {:.1} ns \
         batched per distance)",
        dna.batch_ns,
    );

    let out_path = std::env::var("GTS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_dist_kernels.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&out_path, &json).expect("write BENCH_dist_kernels.json");
    println!("wrote {out_path}");
}
