//! Criterion bench: real pipeline performance (Section 5's
//! performance-vs-manual claim, measured rather than simulated).
//!
//! Series: sequential baseline, the Patty-shaped pipeline, the manual
//! frame-parallel loop — same workload, same semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use patty_bench::busy_work;
use patty_runtime::{MasterWorker, ParallelFor, Pipeline, Stage};
use patty_telemetry::Telemetry;
use patty_trace::Tracer;

const FILTER_COST: u64 = 120;

fn frame_work(i: u64) -> u64 {
    let a = busy_work(FILTER_COST, i);
    let b = busy_work(FILTER_COST, i ^ 7);
    let c = busy_work(FILTER_COST * 2, i ^ 99);
    busy_work(30, a ^ b ^ c)
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_speedup");
    group.sample_size(10);
    for frames in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("sequential", frames), &frames, |b, &n| {
            b.iter(|| {
                (0..n as u64).map(frame_work).collect::<Vec<_>>()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("patty_pipeline", frames),
            &frames,
            |b, &n| {
                b.iter(|| {
                    let mw = MasterWorker::new(3);
                    let filters = Stage::new("ABC", move |i: u64| {
                        let r = mw.join_all(vec![
                            Box::new(move || busy_work(FILTER_COST, i))
                                as Box<dyn FnOnce() -> u64 + Send>,
                            Box::new(move || busy_work(FILTER_COST, i ^ 7)),
                            Box::new(move || busy_work(FILTER_COST * 2, i ^ 99)),
                        ]);
                        r[0] ^ r[1] ^ r[2]
                    })
                    .replicated(2);
                    let convert = Stage::new("D", |x: u64| busy_work(30, x));
                    Pipeline::new(vec![filters, convert]).run((0..n as u64).collect())
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("manual_parfor", frames), &frames, |b, &n| {
            b.iter(|| ParallelFor::new(8).with_chunk(4).map(n, |i| frame_work(i as u64)));
        });
        // A live sink, for reference: what recording actually costs.
        group.bench_with_input(
            BenchmarkId::new("parfor_telemetry_enabled", frames),
            &frames,
            |b, &n| {
                let telemetry = Telemetry::enabled();
                b.iter(|| {
                    ParallelFor::new(8)
                        .with_chunk(4)
                        .with_telemetry(telemetry.clone())
                        .map(n, |i| frame_work(i as u64))
                });
            },
        );
        // Structured tracing on the pipeline: the disabled handle (the
        // default) against a live ring, for what recording costs.
        group.bench_with_input(
            BenchmarkId::new("pipeline_trace_disabled", frames),
            &frames,
            |b, &n| {
                b.iter(|| {
                    flat_pipeline()
                        .with_tracer(Tracer::disabled())
                        .run((0..n as u64).collect())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pipeline_trace_enabled", frames),
            &frames,
            |b, &n| {
                b.iter(|| {
                    flat_pipeline()
                        .with_tracer(Tracer::enabled())
                        .run((0..n as u64).collect())
                });
            },
        );
    }
    group.finish();
}

/// The tracing bench pipeline: plain replicated stages (the nested
/// MasterWorker variant above measures the paper comparison; this one
/// isolates what the tracer adds).
fn flat_pipeline() -> Pipeline<u64> {
    Pipeline::new(vec![
        Stage::new("filters", |i: u64| {
            let a = busy_work(FILTER_COST, i);
            let b = busy_work(FILTER_COST, i ^ 7);
            let c = busy_work(FILTER_COST * 2, i ^ 99);
            a ^ b ^ c
        })
        .replicated(3),
        Stage::new("convert", |x: u64| busy_work(30, x)),
    ])
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
