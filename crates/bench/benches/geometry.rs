//! Criterion benches for the geometric substrate (S1): UDG construction,
//! packing, and greedy coloring.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sinr_geometry::greedy::greedy_coloring;
use sinr_geometry::packing::greedy_mis;
use sinr_geometry::{placement, UnitDiskGraph};

fn bench_udg_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("udg_construction");
    for &n in &[256usize, 1024, 4096] {
        let pts = placement::uniform_with_expected_degree(n, 1.0, 12.0, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| UnitDiskGraph::new(black_box(pts.clone()), 1.0));
        });
    }
    group.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let pts = placement::uniform_with_expected_degree(1024, 1.0, 12.0, 3);
    let g = UnitDiskGraph::new(pts, 1.0);
    c.bench_function("greedy_coloring_1024", |b| {
        b.iter(|| greedy_coloring(black_box(&g)))
    });
    c.bench_function("greedy_mis_1024", |b| b.iter(|| greedy_mis(black_box(&g))));
}

criterion_group!(benches, bench_udg_construction, bench_greedy);
criterion_main!(benches);
