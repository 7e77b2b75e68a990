//! Criterion bench: ablation of the four PLTP tuning parameters on the
//! real runtime library (Section 2.2's claims):
//!
//! * `stage_replication` — replicating the dominant stage raises
//!   throughput roughly linearly until cores run out,
//! * `stage_fusion` — cheap stages are better fused than paying the
//!   buffer/thread overhead; stages this cheap never promote, so both
//!   sides run in place and fusion saves only per-batch guard and trace
//!   work,
//! * `order_preservation` — restoring stream order after a replicated
//!   stage costs a little; dropping it buys throughput when order is
//!   semantically irrelevant,
//! * `sequential_crossover` — for short streams the sequential fallback
//!   wins; the crossover moves with stream length. A default run now
//!   finds it itself: these stages are below the promotion floor, so
//!   both sides run in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use patty_bench::busy_work;
use patty_runtime::{Pipeline, Stage};

fn heavy(x: u64) -> u64 {
    busy_work(400, x)
}
fn light(x: u64) -> u64 {
    busy_work(20, x)
}

fn stage_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_replication");
    group.sample_size(10);
    for replication in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(replication),
            &replication,
            |b, &r| {
                b.iter(|| {
                    let p = Pipeline::new(vec![
                        Stage::new("hot", heavy).replicated(r),
                        Stage::new("sink", light),
                    ]);
                    p.run((0..256u64).collect())
                });
            },
        );
    }
    group.finish();
}

fn stage_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_fusion");
    group.sample_size(10);
    let stages = || {
        vec![
            Stage::new("a", light),
            Stage::new("b", light),
            Stage::new("c", light),
            Stage::new("d", light),
        ]
    };
    group.bench_function("unfused", |b| {
        b.iter(|| Pipeline::new(stages()).run((0..512u64).collect()));
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            Pipeline::new(stages())
                .with_fusion(vec![true, true, true])
                .run((0..512u64).collect())
        });
    });
    group.finish();
}

fn order_preservation(c: &mut Criterion) {
    let mut group = c.benchmark_group("order_preservation");
    group.sample_size(10);
    // jittered stage time → reordering pressure
    let jittery = |x: u64| busy_work(200 + (x % 7) * 60, x);
    for (name, ordered) in [("preserve_order", true), ("unordered", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = Pipeline::new(vec![
                    Stage::new("hot", jittery).replicated(4).ordered(ordered),
                    Stage::new("sink", light),
                ]);
                p.run((0..256u64).collect())
            });
        });
    }
    group.finish();
}

fn sequential_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_crossover");
    group.sample_size(10);
    for n in [4usize, 32, 256] {
        group.bench_with_input(BenchmarkId::new("threaded", n), &n, |b, &n| {
            b.iter(|| {
                Pipeline::new(vec![
                    Stage::new("a", |x| busy_work(60, x)),
                    Stage::new("b", |x| busy_work(60, x)),
                ])
                .run((0..n as u64).collect())
            });
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            b.iter(|| {
                Pipeline::new(vec![
                    Stage::new("a", |x| busy_work(60, x)),
                    Stage::new("b", |x| busy_work(60, x)),
                ])
                .sequential(true)
                .run((0..n as u64).collect())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    stage_replication,
    stage_fusion,
    order_preservation,
    sequential_crossover
);
criterion_main!(benches);
