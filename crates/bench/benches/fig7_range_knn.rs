//! Criterion bench for Fig. 7: per-method batched MRQ/MkNNQ latency
//! (the throughput figure's denominator) at r = 8, k = 8.

use criterion::{criterion_group, criterion_main, Criterion};
use gts_bench::workload::{defaults, Workload};
use gts_bench::{AnyIndex, Config, Method};
use gts_core::GtsParams;
use metric_space::DatasetKind;

fn bench(c: &mut Criterion) {
    let cfg = Config::tiny();
    let data = cfg.dataset(DatasetKind::TLoc);
    let workload = Workload::new(&data, 8, &cfg);
    let queries = workload.queries_n(16);
    let radii = vec![workload.radius(defaults::R); 16];
    let mut group = c.benchmark_group("fig7_range_knn");
    group.sample_size(10);
    for method in [Method::Mvpt, Method::GpuTable, Method::GpuTree, Method::Gts] {
        let dev = cfg.device();
        let idx = AnyIndex::build(method, &dev, &data, &cfg, GtsParams::default())
            .expect("build")
            .index;
        group.bench_function(format!("mrq/{}", method.name()), |b| {
            b.iter(|| idx.batch_range(&queries, &radii).expect("mrq"))
        });
        group.bench_function(format!("knn/{}", method.name()), |b| {
            b.iter(|| idx.batch_knn(&queries, defaults::K).expect("knn"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
