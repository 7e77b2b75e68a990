//! Lifecycle tests for the process-wide executor pool: one binary, one
//! global pool, every pattern submitting to it. These scenarios are the
//! integration surface the unit tests in `executor.rs` cannot cover —
//! they exercise `Executor::global()` exactly as an application would.

use patty_runtime::{
    CancelToken, Executor, MasterWorker, ParallelFor, Pipeline, RunOptions, RuntimeError, Stage,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// All three patterns share the one global pool within a process: after
/// a warm-up pass, further runs of any pattern start no new lanes, and
/// the pool never outgrows its cap.
#[test]
fn all_three_patterns_reuse_the_global_pool() {
    let pool = Executor::global();

    let run_all = || {
        let p = Pipeline::new(vec![
            Stage::new("double", |x: i64| x * 2),
            Stage::new("inc", |x: i64| x + 1),
        ]);
        assert_eq!(
            p.run((0..64).collect()),
            (0..64).map(|x| x * 2 + 1).collect::<Vec<i64>>()
        );

        let total = AtomicUsize::new(0);
        ParallelFor::new(4).with_chunk(8).for_each(256, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 256);

        let mw = MasterWorker::new(4);
        assert_eq!(
            mw.run((0..64).collect::<Vec<i64>>(), |x| x * x),
            (0..64).map(|x| x * x).collect::<Vec<i64>>()
        );
    };

    run_all(); // warm-up: lanes may start here
    let warm = pool.stats();
    for _ in 0..10 {
        run_all();
    }
    let after = pool.stats();

    assert!(after.lanes_spawned >= warm.lanes_spawned);
    assert!(
        after.lanes_spawned <= pool.cap() as u64,
        "lanes_spawned {} exceeds pool cap {}",
        after.lanes_spawned,
        pool.cap()
    );
    assert!(pool.lanes_live() <= pool.cap());
    assert!(
        after.tasks_executed + after.tasks_helped > warm.tasks_executed + warm.tasks_helped,
        "repeat runs executed work on the shared pool"
    );
}

/// The infallible entry points are wrappers that re-panic on the error
/// their checked twin returns: the caller sees one panic naming the
/// stage, the failing index and the original payload, every worker has
/// joined by then, and the shared pool serves the next run of the same
/// shape as if nothing had happened (no poisoned lane, no leaked slot).
#[test]
fn infallible_entry_points_re_panic_with_attribution_and_leave_the_pool_usable() {
    const N: usize = 48;
    const BAD: usize = 17;
    fn body(armed: bool, i: usize) -> i64 {
        if armed && i == BAD {
            panic!("boom at {i}");
        }
        i as i64 * 3 + 1
    }
    let mut oracle = Vec::new();
    for i in 0..N {
        oracle.push(body(false, i));
    }
    let sum = vec![oracle.iter().sum::<i64>()];

    // (entry point, stage named in the panic, oracle, run it armed or not)
    type Row<'a> = (&'a str, String, &'a Vec<i64>, Box<dyn Fn(bool) -> Vec<i64>>);
    let pf = || ParallelFor::new(4).with_chunk(5);
    let rows: Vec<Row> = vec![
        ("ParallelFor::map", "parfor".into(), &oracle, Box::new(move |armed| pf().map(N, |i| body(armed, i)))),
        (
            "ParallelFor::for_each",
            "parfor".into(),
            &oracle,
            Box::new(move |armed| {
                let out: Vec<AtomicI64> = (0..N).map(|_| AtomicI64::new(0)).collect();
                pf().for_each(N, |i| out[i].store(body(armed, i), Ordering::Relaxed));
                out.into_iter().map(AtomicI64::into_inner).collect()
            }),
        ),
        (
            "ParallelFor::reduce",
            "parfor".into(),
            &sum,
            Box::new(move |armed| vec![pf().reduce(N, 0, |a, i| a + body(armed, i), |a, b| a + b)]),
        ),
        (
            "MasterWorker::run",
            "masterworker".into(),
            &oracle,
            Box::new(|armed| MasterWorker::new(4).run((0..N).collect(), |i| body(armed, i))),
        ),
        (
            "MasterWorker::join_all",
            format!("task{BAD}"),
            &oracle,
            Box::new(|armed| {
                MasterWorker::new(4).join_all((0..N).map(|i| move || body(armed, i)).collect())
            }),
        ),
        (
            "Pipeline::run",
            "check".into(),
            &oracle,
            Box::new(|armed| {
                Pipeline::new(vec![
                    Stage::new("pass", |i: i64| i).replicated(2),
                    Stage::new("check", move |i: i64| body(armed, i as usize)),
                ])
                .run((0..N as i64).collect())
            }),
        ),
    ];
    for (entry, stage, oracle, run) in rows {
        let payload = catch_unwind(AssertUnwindSafe(|| run(true)))
            .expect_err("a panicking body must reach the caller as a panic");
        let message = payload.downcast_ref::<String>().expect("formatted panic message");
        for part in [format!("`{stage}`"), format!("item {BAD}"), format!("boom at {BAD}")] {
            assert!(message.contains(&part), "{entry}: `{message}` lacks `{part}`");
        }
        assert_eq!(&run(false), oracle, "{entry}: the run after the panic");
    }
    assert!(Executor::global().lanes_live() <= Executor::global().cap());
}

/// Concurrent pattern runs from independent application threads share
/// the pool without corrupting each other's results.
#[test]
fn concurrent_runs_from_multiple_threads_stay_isolated() {
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                for rep in 0..8 {
                    let off = (t * 100 + rep) as i64;
                    let p = Pipeline::new(vec![Stage::new("add", move |x: i64| x + off)]);
                    let got = p.run((0..32).collect());
                    assert_eq!(got, (0..32).map(|x| x + off).collect::<Vec<i64>>());

                    let mw = MasterWorker::new(3);
                    let got = mw.run((0..32).collect::<Vec<i64>>(), move |x| x * off);
                    assert_eq!(got, (0..32).map(|x| x * off).collect::<Vec<i64>>());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread panicked");
    }
    assert!(Executor::global().lanes_live() <= Executor::global().cap());
}

/// Cancelling one run must not disturb an unrelated run sharing the
/// pool: the cancelled run returns `Cancelled`, the other completes
/// with full results.
#[test]
fn cancellation_of_one_run_does_not_stall_another() {
    let token = CancelToken::new();
    let cancel_opts = RunOptions::new().with_cancel(token.clone());
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let started_tx = std::sync::Mutex::new(Some(started_tx));
    let stage_token = token.clone();

    // The doomed stage announces its first item, then holds it until
    // the token is cancelled, so the run is in flight when it is
    // cancelled and cannot finish before.
    let doomed = std::thread::spawn(move || {
        let p = Pipeline::new(vec![Stage::new("held", move |x: i64| {
            if let Some(tx) = started_tx.lock().unwrap().take() {
                tx.send(()).unwrap();
                while !stage_token.is_cancelled() {
                    std::thread::yield_now();
                }
            }
            x
        })]);
        p.run_checked((0..500).collect(), &cancel_opts)
    });

    started_rx.recv().expect("the doomed run reached its stage");
    token.cancel();

    let healthy = Pipeline::new(vec![
        Stage::new("a", |x: i64| x + 1),
        Stage::new("b", |x: i64| x * 3),
    ]);
    let got = healthy.run_checked((0..256).collect(), &RunOptions::default());
    assert_eq!(
        got.expect("healthy run unaffected by sibling cancellation"),
        (0..256).map(|x| (x + 1) * 3).collect::<Vec<i64>>()
    );

    let err = doomed.join().expect("doomed runner").unwrap_err();
    assert!(matches!(err, RuntimeError::Cancelled), "{err:?}");
}

/// A worker count far above the pool cap degrades cleanly: the run
/// completes correctly and the pool still respects its lane cap (extra
/// parallelism beyond the cap is simply not realized).
#[test]
fn worker_counts_above_the_pool_cap_degrade_cleanly() {
    let pool = Executor::global();
    let total = Arc::new(AtomicUsize::new(0));
    let t = total.clone();
    // 4096 requested workers; ParallelFor caps spawns at min(workers, n)
    // and the pool refuses to start lanes beyond its cap.
    ParallelFor::new(4096).with_chunk(1).for_each(512, move |_| {
        t.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(total.load(Ordering::Relaxed), 512);
    assert!(
        pool.lanes_live() <= pool.cap(),
        "live lanes {} exceed cap {}",
        pool.lanes_live(),
        pool.cap()
    );

    let mw = MasterWorker::new(4096);
    let out = mw.run((0..128).collect::<Vec<i64>>(), |x| x + 1);
    assert_eq!(out, (1..=128).collect::<Vec<i64>>());
    assert!(pool.lanes_live() <= pool.cap());
}

/// A pool left quiescent decays to zero lanes (park-timeout plus
/// deregistration), then regrows on the next run with results intact —
/// the full lane lifecycle: spawn → park → retire → respawn.
#[test]
fn quiescent_pool_decays_and_regrows_across_runs() {
    use patty_runtime::SpawnMode;
    let pool = Executor::with_idle_retirement(3, Duration::from_millis(15));
    let run = |expected: usize| {
        let total = AtomicUsize::new(0);
        pool.scope(SpawnMode::Pooled, |s| {
            let total = &total;
            for _ in 0..expected {
                s.spawn(move || {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), expected);
    };
    run(24);
    let warm = pool.stats();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.lanes_live() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(pool.lanes_live(), 0, "quiescent lanes must all retire");
    assert!(pool.stats().lanes_retired >= 1, "retirement must be observable in stats");
    // Decayed pools serve the next run exactly like a cold pool.
    run(24);
    assert!(pool.stats().lanes_spawned > warm.lanes_spawned, "regrow starts fresh lanes");
    assert!(pool.lanes_live() <= pool.cap());
}

/// `PATTY_THREADS` is honored at global-pool initialization in a child
/// process: a cap of 2 bounds lanes_spawned even under wide runs. The
/// child re-runs this same test binary with the env var set and a
/// marker that switches it into "probe" mode.
#[test]
fn patty_threads_env_caps_the_global_pool() {
    if std::env::var("PATTY_LIFECYCLE_PROBE").is_ok() {
        // Probe mode, running in the child: the global pool must have
        // picked up PATTY_THREADS=2.
        let pool = Executor::global();
        assert_eq!(pool.cap(), 2, "PATTY_THREADS=2 must cap the global pool");
        ParallelFor::new(16).with_chunk(4).for_each(256, |i| {
            std::hint::black_box(i);
        });
        assert!(pool.stats().lanes_spawned <= 2);
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["patty_threads_env_caps_the_global_pool", "--exact", "--nocapture"])
        .env("PATTY_LIFECYCLE_PROBE", "1")
        .env("PATTY_THREADS", "2")
        .output()
        .expect("spawn probe child");
    assert!(
        out.status.success(),
        "probe child failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
