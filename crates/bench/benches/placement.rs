//! Cost of the off-chip assignment search across kernels and geometries,
//! up to the expansive grid's 1 and 8 MiB caches (where the search must not
//! grow with the cache), plus the static analyses it builds on.

use analysis::classes::partition_classes;
use analysis::min_cache::MinCacheReport;
use analysis::placement::optimize_layout;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use loopir::kernels;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/partition_classes");
    for kernel in kernels::all_paper_kernels() {
        group.bench_function(kernel.name.clone(), |b| {
            b.iter(|| black_box(partition_classes(&kernel, true).len()))
        });
    }
    group.finish();
}

fn bench_min_cache(c: &mut Criterion) {
    let kernel = kernels::sor(31);
    c.bench_function("analysis/min_cache_report", |b| {
        b.iter(|| black_box(MinCacheReport::analyze(&kernel, 16).min_cache_bytes()))
    });
}

fn bench_placement_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/optimize_layout");
    for (t, l) in [
        (64u64, 8u64),
        (512, 32),
        (1024, 64),
        (1 << 20, 64),
        (8 << 20, 64),
    ] {
        for kernel in [kernels::compress(31), kernels::matmul(31)] {
            group.bench_function(format!("{}/C{t}L{l}", kernel.name), |b| {
                b.iter(|| {
                    black_box(
                        optimize_layout(&kernel, t, l)
                            .expect("placement succeeds")
                            .padding_bytes,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partition,
    bench_min_cache,
    bench_placement_search
);
criterion_main!(benches);
