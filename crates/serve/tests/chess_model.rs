//! A patty-chess model of the serve-side sharded artifact cache.
//!
//! The model mirrors the production structure of `ShardedCache` +
//! single-flight: two shards, each a vector of `(key, stamp)` entries
//! guarded by its own lock with an LRU bound of two, plus an in-flight
//! flag (guarded by the shard lock) and a result channel implementing
//! single-flight dedup of identical concurrent gets.
//!
//! Exploration must prove the design race- and deadlock-free under
//! DPOR across concurrent get/insert/evict on both shards, and a
//! deliberately broken variant (a shard read outside the lock) must
//! produce a race whose `sched_trace_hash` replays byte-stably.

use patty_chess::sched::{FaultScenario, Shared, ThreadCtx};
use patty_chess::{explore, explore_dpor, explore_joint, ChessOptions, FailureKind, SearchMode};

/// LRU bound per modeled shard.
const CAP: usize = 2;

fn options() -> ChessOptions {
    ChessOptions {
        max_schedules: 200_000,
        ..ChessOptions::default()
    }
}

fn dpor_options() -> ChessOptions {
    ChessOptions {
        mode: SearchMode::Dpor,
        ..options()
    }
}

fn lookup(entries: &[(i64, i64)], key: i64) -> bool {
    entries.iter().any(|&(k, _)| k == key)
}

/// Insert `key` with the next stamp and evict the LRU entry past the
/// bound — the caller must hold the shard's lock.
async fn insert_lru(
    ctx: &ThreadCtx,
    data: &Shared<Vec<(i64, i64)>>,
    clock: &Shared<i64>,
    key: i64,
) {
    let stamp = clock.read(ctx).await + 1;
    clock.write(ctx, stamp).await;
    let mut entries = data.read(ctx).await;
    entries.retain(|&(k, _)| k != key);
    entries.push((key, stamp));
    while entries.len() > CAP {
        let lru = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, s))| s)
            .map(|(i, _)| i)
            .unwrap();
        entries.remove(lru);
    }
    data.write(ctx, entries).await;
}

/// The model. `locked_reader` toggles the seeded bug: when false, the
/// auditing thread reads shard 0 without taking its lock.
async fn cache_model(ctx: ThreadCtx, locked_reader: bool) {
    // Shard 0 starts full (stamps 1 and 2) so both inserts evict.
    let d0 = ctx.shared("shard0", vec![(8i64, 1i64), (9, 2)]);
    let clock0 = ctx.shared("clock0", 2i64);
    let m0 = ctx.mutex("m0");
    let d1 = ctx.shared("shard1", Vec::<(i64, i64)>::new());
    let clock1 = ctx.shared("clock1", 0i64);
    let m1 = ctx.mutex("m1");
    // Single-flight state for key 1, guarded by shard 0's lock.
    let inflight = ctx.shared("inflight_k1", 0i64);
    let computes = ctx.shared("computes_k1", 0i64);
    let flight = ctx.channel::<i64>("flight_k1");

    // Two identical concurrent gets of key 1: one computes, the other
    // either coalesces onto the flight or (if it arrives late) hits.
    let mut getters = Vec::new();
    for _ in 0..2 {
        let (d0, clock0, m0) = (d0.clone(), clock0.clone(), m0.clone());
        let (inflight, computes, flight) = (inflight.clone(), computes.clone(), flight.clone());
        getters.push(ctx.spawn(move |ctx| async move {
            m0.lock(&ctx).await;
            let hit = lookup(&d0.read(&ctx).await, 1);
            let leader = !hit && inflight.read(&ctx).await == 0;
            if leader {
                inflight.write(&ctx, 1).await;
            }
            let waiter = !hit && !leader;
            m0.unlock(&ctx).await;
            if leader {
                // Compute outside the shard lock (as the service does),
                // then publish atomically with the flag reset.
                computes.write(&ctx, computes.read(&ctx).await + 1).await;
                ctx.step().await;
                m0.lock(&ctx).await;
                insert_lru(&ctx, &d0, &clock0, 1).await;
                inflight.write(&ctx, 0).await;
                m0.unlock(&ctx).await;
                flight.send(&ctx, 100).await;
            } else if waiter {
                let artifact = flight.recv(&ctx).await;
                ctx.check(artifact == 100, "waiter shares the leader's artifact").await;
            }
        }).await);
    }

    // A writer inserting a different key into shard 0 (forcing LRU
    // interplay with the leader's insert) and touching shard 1, whose
    // lock is disjoint — DPOR should see those sections commute.
    let writer = {
        let (d0, clock0, m0) = (d0.clone(), clock0.clone(), m0.clone());
        let (d1, clock1, m1) = (d1.clone(), clock1.clone(), m1.clone());
        ctx.spawn(move |ctx| async move {
            if locked_reader {
                m0.lock(&ctx).await;
                insert_lru(&ctx, &d0, &clock0, 2).await;
                m0.unlock(&ctx).await;
            } else {
                // BUG: audits the shard without its lock — races with
                // the leader's locked insert.
                let snapshot = d0.read(&ctx).await;
                ctx.check(snapshot.len() <= CAP, "bound audit").await;
                m0.lock(&ctx).await;
                insert_lru(&ctx, &d0, &clock0, 2).await;
                m0.unlock(&ctx).await;
            }
            m1.lock(&ctx).await;
            let miss = !lookup(&d1.read(&ctx).await, 5);
            if miss {
                insert_lru(&ctx, &d1, &clock1, 5).await;
            }
            m1.unlock(&ctx).await;
        }).await
    };

    for handle in getters {
        ctx.join(handle).await;
    }
    ctx.join(writer).await;

    // Joins give happens-before, so these final reads are race-free.
    let entries0 = d0.read(&ctx).await;
    ctx.check(entries0.len() == CAP, "shard 0 holds exactly its LRU bound").await;
    ctx.check(lookup(&entries0, 1), "computed artifact stays resident").await;
    ctx.check(lookup(&entries0, 2), "writer's artifact stays resident").await;
    ctx.check(
        !lookup(&entries0, 8) && !lookup(&entries0, 9),
        "the seeded LRU entries were evicted",
    ).await;
    ctx.check(computes.read(&ctx).await == 1, "single-flight computed exactly once").await;
    ctx.check(lookup(&d1.read(&ctx).await, 5), "shard 1 insert landed").await;
}

async fn correct_model(ctx: ThreadCtx) {
    cache_model(ctx, true).await;
}

async fn buggy_model(ctx: ThreadCtx) {
    cache_model(ctx, false).await;
}

#[test]
fn sharded_cache_model_is_race_and_deadlock_free_under_dpor() {
    let report = explore_dpor(correct_model, dpor_options());
    assert!(report.complete, "DPOR search must be exhaustive");
    assert!(
        report.failures.is_empty(),
        "cache model must be clean: {:?}",
        report
            .failures
            .iter()
            .map(|f| &f.kind)
            .collect::<Vec<_>>()
    );
    assert!(report.schedules > 1, "concurrency was actually explored");
}

#[test]
fn dfs_oracle_agrees_the_model_is_clean() {
    // The unreduced DFS space of this model is too large to exhaust in
    // a unit test; a preemption-bounded differential still cross-checks
    // DPOR's verdict on every schedule with up to two preemptions
    // (where the vast majority of real cache races live).
    let report = explore(
        correct_model,
        ChessOptions {
            preemption_bound: Some(2),
            ..options()
        },
    );
    assert!(report.complete, "bounded DFS search must be exhaustive");
    assert!(
        report.failures.is_empty(),
        "DFS found: {:?}",
        report.failures.iter().map(|f| &f.kind).collect::<Vec<_>>()
    );
}

#[test]
fn unlocked_shard_read_is_caught_and_replays_byte_stably() {
    let scenarios = [FaultScenario::none()];
    let joint = explore_joint(buggy_model, &scenarios, &dpor_options());
    let failures: Vec<_> = joint
        .scenarios
        .iter()
        .flat_map(|sr| sr.report.failures.iter())
        .collect();
    assert!(
        failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Race { .. })),
        "the unlocked read must surface as a race: {:?}",
        failures.iter().map(|f| &f.kind).collect::<Vec<_>>()
    );
    // Any failure hash must replay byte-stably from the hash alone.
    let witness = failures[0];
    let outcome =
        patty_chess::replay_hash(buggy_model, &scenarios, &dpor_options(), witness.trace_hash)
            .unwrap_or_else(|| panic!("hash {:#x} not found on replay", witness.trace_hash));
    assert!(outcome.byte_stable, "failure replay must be byte-stable");
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.trace_hash == witness.trace_hash),
        "replay reproduces the witnessed failure"
    );
}
