//! Property tests for the systematic concurrency tester: randomly
//! generated small programs must satisfy the detector's soundness
//! properties — mutex-disciplined programs never race, and unsynchronized
//! conflicting writers always do.

use patty_chess::{explore, ChessOptions, FailureKind};
use proptest::prelude::*;
use std::sync::Arc;

/// A tiny program shape: per thread, a sequence of (cell, is_write) ops.
#[derive(Clone, Debug)]
struct Shape {
    threads: Vec<Vec<(usize, bool)>>,
    cells: usize,
}

fn arb_shape(max_threads: usize, max_ops: usize, cells: usize) -> impl Strategy<Value = Shape> {
    proptest::collection::vec(
        proptest::collection::vec((0..cells, any::<bool>()), 1..=max_ops),
        1..=max_threads,
    )
    .prop_map(move |threads| Shape { threads, cells })
}

/// Does the shape contain a pair of conflicting accesses from different
/// threads (same cell, at least one write)?
fn has_conflict(shape: &Shape) -> bool {
    for (i, a) in shape.threads.iter().enumerate() {
        for b in shape.threads.iter().skip(i + 1) {
            for (ca, wa) in a {
                for (cb, wb) in b {
                    if ca == cb && (*wa || *wb) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn run_shape(shape: &Shape, locked: bool) -> patty_chess::Report {
    let shape = Arc::new(shape.clone());
    explore(
        move |ctx| {
            let shape = shape.clone();
            async move {
                let cells: Vec<_> = (0..shape.cells)
                    .map(|i| ctx.shared(&format!("c{i}"), 0i64))
                    .collect();
                let mutex = ctx.mutex("m");
                let mut handles = Vec::new();
                for ops in shape.threads.clone() {
                    let cells = cells.clone();
                    let mutex = mutex.clone();
                    handles.push(ctx.spawn(move |ctx| async move {
                        for &(cell, is_write) in &ops {
                            if locked {
                                mutex.lock(&ctx).await;
                            }
                            if is_write {
                                let v = cells[cell].read(&ctx).await;
                                cells[cell].write(&ctx, v + 1).await;
                            } else {
                                let _ = cells[cell].read(&ctx).await;
                            }
                            if locked {
                                mutex.unlock(&ctx).await;
                            }
                        }
                    }).await);
                }
                for h in handles {
                    ctx.join(h).await;
                }
            }
        },
        ChessOptions { max_schedules: 400, ..ChessOptions::default() },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn mutex_disciplined_programs_never_race(shape in arb_shape(3, 3, 2)) {
        let report = run_shape(&shape, true);
        prop_assert!(
            !report.failures.iter().any(|f| matches!(f.kind, FailureKind::Race { .. })),
            "locked program raced: {:?}",
            report.failures
        );
        prop_assert!(
            !report.failures.iter().any(|f| f.kind == FailureKind::Deadlock),
            "single-mutex discipline cannot deadlock: {:?}",
            report.failures
        );
    }

    #[test]
    fn unsynchronized_conflicts_are_always_detected(shape in arb_shape(3, 3, 2)) {
        let report = run_shape(&shape, false);
        let raced = report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Race { .. }));
        prop_assert_eq!(
            raced,
            has_conflict(&shape),
            "race verdict must match static conflict structure: {:?}",
            shape
        );
    }
}
