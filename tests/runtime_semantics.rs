//! Property-based semantics of the parallel runtime library: whatever the
//! tuning values, the patterns must compute exactly what the sequential
//! loop computes — that is the contract that makes the tuning
//! configuration "changeable without recompilation" safe.

use patty_workspace::runtime::{
    FailurePolicy, MasterWorker, ParallelFor, Pipeline, RunOptions, RuntimeError, Stage,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn stage_fn(kind: u8) -> impl Fn(i64) -> i64 + Send + Sync + Clone + 'static {
    move |x: i64| match kind % 4 {
        0 => x.wrapping_add(13),
        1 => x.wrapping_mul(3),
        2 => x ^ 0x5f5f,
        _ => x.wrapping_sub(7).rotate_left(3),
    }
}

/// Fixed per-index work the optimiser cannot fold away: a few µs.
fn busy_work(i: usize) -> i64 {
    let mut x = i as i64;
    for _ in 0..4_000 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407));
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pipeline_equals_sequential_composition(
        input in proptest::collection::vec(-1000i64..1000, 0..60),
        kinds in proptest::collection::vec(0u8..4, 1..5),
        replication in 1usize..4,
        preserve in any::<bool>(),
        fusion_bits in proptest::collection::vec(any::<bool>(), 0..4),
        sequential in any::<bool>(),
        buffer in 1usize..9,
    ) {
        let stages: Vec<Stage<i64>> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let s = Stage::new(format!("s{i}"), stage_fn(k));
                if i == 0 { s.replicated(replication).ordered(preserve) } else { s }
            })
            .collect();
        let mut fusion = fusion_bits.clone();
        fusion.truncate(kinds.len().saturating_sub(1));
        let pipeline = Pipeline::new(stages)
            .with_fusion(fusion)
            .with_buffer(buffer)
            .sequential(sequential);
        let mut out = pipeline.run(input.clone());
        let mut expected: Vec<i64> = input
            .iter()
            .map(|&x| kinds.iter().fold(x, |v, &k| stage_fn(k)(v)))
            .collect();
        // Without order preservation on the replicated stage the order may
        // differ — compare multisets then; otherwise exact order.
        if replication > 1 && !preserve && !sequential {
            out.sort();
            expected.sort();
        }
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn parfor_map_equals_serial_map(
        n in 0usize..200,
        workers in 1usize..6,
        chunk in 1usize..40,
        sequential in any::<bool>(),
    ) {
        let pf = ParallelFor::new(workers).with_chunk(chunk).sequential(sequential);
        let out = pf.map(n, |i| (i as i64).wrapping_mul(31) ^ 7);
        let expected: Vec<i64> = (0..n).map(|i| (i as i64).wrapping_mul(31) ^ 7).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn parfor_reduce_equals_serial_fold(
        n in 0usize..300,
        workers in 1usize..6,
        chunk in 1usize..50,
    ) {
        let pf = ParallelFor::new(workers).with_chunk(chunk);
        let sum = pf.reduce(n, 0i64, |a, i| a.wrapping_add(i as i64 * 3), |a, b| a.wrapping_add(b));
        let expected: i64 = (0..n).fold(0i64, |a, i| a.wrapping_add(i as i64 * 3));
        prop_assert_eq!(sum, expected);
    }

    // The two properties above have bodies so short that a pooled run
    // usually ends on the calling thread before its helpers are spawned.
    // Here every index does a few µs of fixed work, even optimised, so
    // runs outlast the promotion heartbeat and go to several lanes.
    #[test]
    fn promoted_parfor_equals_serial_map_and_fold(
        n in 16usize..96,
        workers in 2usize..6,
        chunk in 1usize..24,
        min_chunk in 1usize..8,
    ) {
        let pf = ParallelFor::new(workers).with_chunk(chunk).with_min_chunk(min_chunk);
        let expected: Vec<i64> = (0..n).map(busy_work).collect();
        prop_assert_eq!(pf.map(n, busy_work), expected.clone());
        let sum = pf.reduce(n, 0i64, |a, i| a.wrapping_add(busy_work(i)), |a, b| a.wrapping_add(b));
        prop_assert_eq!(sum, expected.iter().fold(0i64, |a, &x| a.wrapping_add(x)));
    }

    // The pipeline properties around this one have near-free stages, so
    // an optimised run never binds them to threads. Here every stage
    // call does two `busy_work`s (over 10 µs), so every batch is above
    // the promotion floor and a run of this length outlasts the
    // heartbeat: it starts in place and ends on bound stage threads.
    #[test]
    fn promoted_pipeline_equals_sequential_composition(
        len in 24usize..48,
        kinds in proptest::collection::vec(0u8..4, 1..4),
        replication in 1usize..4,
        preserve in any::<bool>(),
        fusion_bits in proptest::collection::vec(any::<bool>(), 0..3),
        batch in 1usize..6,
    ) {
        let input: Vec<i64> = (0..len as i64).map(|x| x * 37 - 500).collect();
        let heavy = |k: u8| {
            move |x: i64| stage_fn(k)(x).wrapping_add((busy_work(x as usize) ^ busy_work(!x as usize)) & 0xff)
        };
        let stages: Vec<Stage<i64>> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let s = Stage::new(format!("s{i}"), heavy(k));
                if i == 0 { s.replicated(replication).ordered(preserve) } else { s }
            })
            .collect();
        let mut fusion = fusion_bits.clone();
        fusion.truncate(kinds.len().saturating_sub(1));
        let pipeline = Pipeline::new(stages).with_fusion(fusion).with_batch(batch);
        let mut out = pipeline.run(input.clone());
        let mut expected: Vec<i64> = input
            .iter()
            .map(|&x| kinds.iter().fold(x, |v, &k| heavy(k)(v)))
            .collect();
        if replication > 1 && !preserve {
            out.sort();
            expected.sort();
        }
        prop_assert_eq!(out, expected);
    }

    // The batching tentpole's core contract: for every combination of
    // stage count, replication, order preservation and batch size —
    // including batch 1 (the per-item schedule) and batches longer than
    // the whole stream — the batched pipeline is byte-identical to the
    // sequential oracle.
    #[test]
    fn batched_pipeline_round_trips_against_the_oracle(
        input in proptest::collection::vec(-1000i64..1000, 0..80),
        kinds in proptest::collection::vec(0u8..4, 1..5),
        replication in 1usize..4,
        preserve in any::<bool>(),
        batch_sel in 0usize..3,
        batch_raw in 2usize..33,
    ) {
        // Force the edge batches into the sampled space: 1 (per-item)
        // and 200 (longer than any generated stream).
        let batch = match batch_sel {
            0 => 1,
            1 => 200,
            _ => batch_raw,
        };
        let stages: Vec<Stage<i64>> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let s = Stage::new(format!("s{i}"), stage_fn(k));
                if i == 0 { s.replicated(replication).ordered(preserve) } else { s }
            })
            .collect();
        let pipeline = Pipeline::new(stages).with_batch(batch);
        let mut out = pipeline.run(input.clone());
        let mut expected: Vec<i64> = input
            .iter()
            .map(|&x| kinds.iter().fold(x, |v, &k| stage_fn(k)(v)))
            .collect();
        if replication > 1 && !preserve {
            out.sort();
            expected.sort();
        }
        prop_assert_eq!(out, expected);
    }

    // Per-item fault attribution inside a batch: a panic on one element
    // of a batched run names that element's true stream sequence, and a
    // transient panic recovered by the sequential fallback still yields
    // the oracle's output.
    #[test]
    fn batched_panic_attribution_and_fallback_round_trip(
        n in 1usize..120,
        batch in 1usize..40,
        replication in 1usize..4,
        panic_at in 0usize..120,
    ) {
        let panic_at = panic_at % n;
        let target = panic_at as i64;

        // Fail-fast: the error's item_seq points at the true element
        // even when it sits mid-batch.
        let boom = Stage::new("boom", move |x: i64| {
            if x == target { panic!("injected") }
            x.wrapping_mul(3)
        })
        .replicated(replication);
        let pipeline = Pipeline::new(vec![boom]).with_batch(batch);
        let err = pipeline
            .run_checked((0..n as i64).collect(), &RunOptions::default())
            .expect_err("injected panic must surface");
        match err {
            RuntimeError::StagePanicked { stage, item_seq, .. } => {
                prop_assert_eq!(stage, "boom".to_string());
                prop_assert_eq!(item_seq, Some(panic_at as u64));
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }

        // Transient panic + FallbackSequential: only the missing items
        // are re-executed, and the result equals the oracle.
        let tripped = Arc::new(AtomicBool::new(false));
        let flag = tripped.clone();
        let flaky = Stage::new("flaky", move |x: i64| {
            if x == target && !flag.swap(true, Ordering::SeqCst) {
                panic!("transient")
            }
            x.wrapping_mul(3)
        })
        .replicated(replication);
        let out = Pipeline::new(vec![flaky])
            .with_batch(batch)
            .run_checked(
                (0..n as i64).collect(),
                &RunOptions::new().on_failure(FailurePolicy::FallbackSequential),
            )
            .expect("fallback recovers the transient fault");
        let expected: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(3)).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn masterworker_preserves_item_order(
        items in proptest::collection::vec(-500i64..500, 0..80),
        workers in 1usize..6,
    ) {
        let mw = MasterWorker::new(workers);
        let out = mw.run(items.clone(), |x| x.wrapping_mul(x));
        let expected: Vec<i64> = items.iter().map(|x| x.wrapping_mul(*x)).collect();
        prop_assert_eq!(out, expected);
    }
}
