//! Criterion: partitioning substrate — balanced K-means (exact repair
//! path and greedy large-n path), flow-sized register-bank cells, and SA
//! refinement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sllt_geom::Point;
use sllt_partition::{balanced_kmeans, sa};
use sllt_rng::prelude::*;
use std::time::Duration;

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..400.0), rng.random_range(0.0..400.0)))
        .collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("balanced_kmeans");
    g.sample_size(20);
    for n in [200usize, 1000, 4000] {
        let pts = points(n, 7);
        let k = n.div_ceil(32);
        g.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| balanced_kmeans(std::hint::black_box(pts), k, 32, 1))
        });
    }
    g.finish();
}

/// Register-bank cells the size the flow's median bisection hands to
/// K-means (150–300 points, 3–5 dense banks, fanout-32 capacity). At
/// seed 1 capacity binds inside the banks in both balance rounds of
/// every cell (30–102 repair augmentations per clustering), so the
/// group times the overflow repair the flow runs.
fn bank_cell(n: usize, banks: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let origins: Vec<Point> = (0..banks)
        .map(|_| Point::new(rng.random_range(0.0..150.0), rng.random_range(0.0..150.0)))
        .collect();
    (0..n)
        .map(|i| {
            let o = origins[i % banks];
            Point::new(
                o.x + rng.random_range(0.0..25.0),
                o.y + rng.random_range(0.0..10.0),
            )
        })
        .collect()
}

fn bench_flow_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("balanced_kmeans_flow_cell");
    g.sample_size(20);
    for (n, banks) in [(150usize, 3usize), (220, 4), (300, 5)] {
        let pts = bank_cell(n, banks, 1);
        let k = n.div_ceil(32) + 1;
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{banks}banks")),
            &pts,
            |b, pts| b.iter(|| balanced_kmeans(std::hint::black_box(pts), k, 32, 1)),
        );
    }
    g.finish();
}

fn bench_sa(c: &mut Criterion) {
    let pts = points(500, 21);
    let mut rng = StdRng::seed_from_u64(3);
    let caps: Vec<f64> = (0..500).map(|_| rng.random_range(0.5..8.0)).collect();
    let cons = sa::PartitionConstraints {
        max_cap_ff: 100.0,
        max_fanout: 32,
        max_wl_um: 200.0,
        unit_wire_cap: 0.16,
    };
    c.bench_function("sa_refine_500", |b| {
        b.iter(|| {
            let mut assignment: Vec<usize> = (0..500).map(|i| i % 16).collect();
            sa::refine(
                &pts,
                &caps,
                &mut assignment,
                16,
                &cons,
                &sa::SaConfig::default(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_kmeans, bench_flow_cells, bench_sa
}
criterion_main!(benches);
