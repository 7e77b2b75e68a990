//! The data-parallel loop pattern.
//!
//! Chunked index-space execution with tunable worker count and chunk size,
//! plus a privatized reduction variant (the detector recognizes
//! accumulator statements; the runtime gives each worker a private
//! accumulator and combines them at the end).
//!
//! Scheduling is **guided self-scheduling**: each claim takes
//! `remaining / (workers * K)` indices, clamped to
//! `[min_chunk, chunk]`, so a large index space starts with coarse
//! grabs (amortizing the shared-cursor synchronization) and drains with
//! fine ones (fixing tail imbalance on skewed per-index costs without
//! tuner help). On the final drain — fewer than `min_chunk × workers`
//! indices left — the `min_chunk` clamp itself decays toward 1 so the
//! tail splits across all workers instead of serializing behind one.
//! Setting `min_chunk == chunk` recovers the classic fixed-chunk
//! schedule (no decay).
//!
//! There is one execution path: the private `drive` engine alone claims
//! chunks, traces, meters and guards every index. The `*_checked` entry
//! points are thin adapters over it and `map` / `for_each` / `reduce`
//! re-panic on the error a checked run with default options returns.
//!
//! A pooled run goes parallel only once it has done enough work to pay
//! for it (heartbeat scheduling, Acar et al., PLDI 2018): the calling
//! thread starts as worker 0 with nothing spawned and spawns the other
//! workers after one heartbeat of its own time. A loop that is over
//! sooner never submits a task, wakes a lane or waits. The claim
//! sequence is the same either way, since claims depend only on the
//! shared cursor.

use crate::executor::{Executor, SpawnMode};
use crate::fault::{ErrorSlot, FaultCounters, Guard, RunOptions, RuntimeError};
use crate::heartbeat::Heartbeat;
use patty_telemetry::{Counter, Histogram, LocalHistogram, Telemetry};
use patty_trace::Tracer;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Guided self-scheduling divisor: each claim takes
/// `remaining / (workers * GUIDED_K)` indices, so every worker gets
/// roughly `GUIDED_K` claims per "round" of the remaining space.
const GUIDED_K: usize = 2;

/// Per-run telemetry handles: `parfor.items`/`parfor.chunks` counters
/// and the `parfor.chunk_size` histogram, pre-registered so recording
/// never hashes a name. Default handles are inert.
#[derive(Default)]
struct ChunkMeters {
    items: Counter,
    chunks: Counter,
    chunk_size: Histogram,
}

impl ChunkMeters {
    /// Fold one worker's private tallies into the shared sink — workers
    /// accumulate locally and pay this once per worker per run.
    fn flush(&self, local: &LocalChunkMeters) {
        if local.chunks == 0 {
            return;
        }
        self.chunks.add(local.chunks);
        self.items.add(local.items);
        self.chunk_size.merge(&local.sizes);
    }
}

/// One worker's chunk tallies: plain fields, no atomics, flushed via
/// [`ChunkMeters::flush`] when the worker's claim loop exits.
#[derive(Default)]
struct LocalChunkMeters {
    items: u64,
    chunks: u64,
    sizes: LocalHistogram,
}

impl LocalChunkMeters {
    fn record(&mut self, len: usize) {
        self.chunks += 1;
        self.items += len as u64;
        self.sizes.record(len as u64);
    }
}

/// What one worker of a run hands back: the ascending index ranges whose
/// invocations completed, and its private state.
type Lane<S> = (Vec<Range<usize>>, S);

/// A tunable data-parallel loop executor.
///
/// A pooled run (`workers ≥ 2`, not `sequential`, more than one index)
/// starts on the calling thread as worker 0, with nothing spawned. Only
/// after worker 0 has run for a heartbeat (40 µs) are the other workers
/// spawned on the shared [`Executor`] to claim what is left, so a short
/// loop may finish entirely on the calling thread. The indices each
/// claim takes, the results and the failure behaviour do not depend on
/// when, or whether, that happens. A body must therefore never wait on
/// another index of its own run (through a channel, a barrier or a flag
/// another index sets): that index may be queued behind it on the same
/// thread. Such waiting was never safe, as a caller that helps a
/// saturated pool runs tasks one after another too.
#[derive(Clone, Debug)]
pub struct ParallelFor {
    /// Worker threads (WorkerCount), ≥ 1.
    pub workers: usize,
    /// Largest chunk a single claim may take (ChunkSize), ≥ 1.
    pub chunk: usize,
    /// Smallest chunk a single claim may take; raising it bounds the
    /// per-claim overhead on the drain tail, and `min_chunk == chunk`
    /// disables guided scheduling in favor of fixed chunks.
    pub min_chunk: usize,
    /// SequentialExecution fallback.
    pub sequential: bool,
    /// Telemetry sink; disabled by default.
    telemetry: Telemetry,
    /// Structured event tracer; disabled by default.
    tracer: Tracer,
}

impl Default for ParallelFor {
    fn default() -> ParallelFor {
        ParallelFor::new(4)
    }
}

impl ParallelFor {
    /// Create an executor with the given worker count.
    pub fn new(workers: usize) -> ParallelFor {
        ParallelFor {
            workers: workers.max(1),
            chunk: 16,
            min_chunk: 1,
            sequential: false,
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Set the maximum chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> ParallelFor {
        self.chunk = chunk.max(1);
        self
    }

    /// Set the minimum chunk size (guided claims never shrink below it).
    pub fn with_min_chunk(mut self, min_chunk: usize) -> ParallelFor {
        self.min_chunk = min_chunk.max(1);
        self
    }

    /// Claim the next run of indices from the shared cursor using guided
    /// self-scheduling. A CAS loop is required because the claim size
    /// depends on the remaining space at claim time.
    ///
    /// The `min_chunk` clamp decays on the drain tail: once fewer than
    /// `min_chunk × workers` indices remain, holding claims at
    /// `min_chunk` would hand the whole tail to one or two workers — on
    /// skewed per-index costs that serializes the most expensive
    /// indices behind a single thread. The effective minimum shrinks to
    /// `remaining / workers` (never below 1) so the tail still splits
    /// across every worker. Fixed-chunk scheduling
    /// (`min_chunk == chunk`) is exempt: its contract is "every claim
    /// is exactly `chunk`", and decay would silently break it.
    fn claim(&self, next: &AtomicUsize, n: usize) -> Option<Range<usize>> {
        let hi = self.chunk.max(1);
        let lo = self.min_chunk.clamp(1, hi);
        let workers = self.workers.max(1);
        let mut start = next.load(Ordering::Relaxed);
        loop {
            if start >= n {
                return None;
            }
            let remaining = n - start;
            let lo = if lo < hi {
                lo.min((remaining / workers).max(1))
            } else {
                lo
            };
            let take = (remaining / (workers * GUIDED_K))
                .clamp(lo, hi)
                .min(remaining);
            match next.compare_exchange_weak(
                start,
                start + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(start..start + take),
                Err(observed) => start = observed,
            }
        }
    }

    /// Set the SequentialExecution flag.
    pub fn sequential(mut self, sequential: bool) -> ParallelFor {
        self.sequential = sequential;
        self
    }

    /// Attach a telemetry sink. Runs then record `parfor.items` and
    /// `parfor.chunks` counters and a `parfor.chunk_size` histogram.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ParallelFor {
        self.telemetry = telemetry;
        self
    }

    /// Attach an event tracer. A data-parallel loop traces at chunk
    /// granularity under the `"parfor"` stage: one `ItemStart`/`ItemEnd`
    /// pair per claimed chunk (`item` = the chunk's first index), plus
    /// per-worker idle tails and caught faults.
    pub fn with_tracer(mut self, tracer: Tracer) -> ParallelFor {
        self.tracer = tracer;
        self
    }

    /// Telemetry handles for one run (inert when telemetry is
    /// disabled). Registered once per run so worker loops never touch
    /// the sink's name maps.
    fn meters(&self) -> ChunkMeters {
        if self.telemetry.is_enabled() {
            ChunkMeters {
                items: self.telemetry.counter("parfor.items"),
                chunks: self.telemetry.counter("parfor.chunks"),
                chunk_size: self.telemetry.histogram("parfor.chunk_size"),
            }
        } else {
            ChunkMeters::default()
        }
    }

    /// Map the index space `0..n` through `f`, returning results in index
    /// order. Infallible entry point: a panicking index re-panics on the
    /// calling thread, after every worker has joined, with the message of
    /// the [`RuntimeError`] that [`ParallelFor::map_checked`] returns.
    pub fn map<O, F>(&self, n: usize, f: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        self.map_checked(n, f, &RunOptions::default()).unwrap_or_else(|error| panic!("{error}"))
    }

    /// Run `f` for side effects over the index space (e.g. writing
    /// disjoint slices the caller owns). Infallible like
    /// [`ParallelFor::map`].
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.map(n, f);
    }

    /// [`ParallelFor::map`] under a failure policy: a panicking index
    /// becomes [`RuntimeError::StagePanicked`] (with `item_seq` the loop
    /// index), workers observe the deadline and cancellation token of
    /// `opts`, and with [`FailurePolicy::FallbackSequential`] every index
    /// that never produced a value is recomputed sequentially.
    ///
    /// [`FailurePolicy::FallbackSequential`]: crate::FailurePolicy::FallbackSequential
    pub fn map_checked<O, F>(
        &self,
        n: usize,
        f: F,
        opts: &RunOptions,
    ) -> Result<Vec<O>, RuntimeError>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        let fault = FaultCounters::register(&self.telemetry);
        // Each worker pushes its outputs onto a private vector: no shared
        // slot, no per-index lock. Which indices they belong to is what
        // the engine reports as the lane's completed ranges.
        let (mut lanes, error) = self.drive(n, opts, &fault, Vec::new, |values: &mut Vec<O>, i| values.push(f(i)));
        if let Some(error) = error {
            fault.recover(error, opts)?;
        }
        // One lane ran the whole space (SequentialExecution, or a loop so
        // short one worker outran the rest): its vector is the result.
        if let Some(whole) = lanes.iter().position(|(done, _)| done.first() == Some(&(0..n))) {
            return Ok(lanes.swap_remove(whole).1);
        }
        // Stitch the lanes' ranges together in index order. A complete
        // run has no gaps; after a recoverable failure the gaps are the
        // indices that never produced a value, recomputed here.
        let mut runs: Vec<(Range<usize>, usize)> = Vec::new();
        let mut values = Vec::with_capacity(lanes.len());
        for (lane, (done, lane_values)) in lanes.into_iter().enumerate() {
            runs.extend(done.into_iter().map(|range| (range, lane)));
            values.push(lane_values.into_iter());
        }
        runs.sort_unstable_by_key(|(range, _)| range.start);
        let wt = self.tracer.worker(self.tracer.stage("parfor"), 0);
        let guard = Guard::new("parfor", None, &fault, &wt);
        let mut out = Vec::with_capacity(n);
        let recompute_up_to = |out: &mut Vec<O>, end: usize| {
            for i in out.len()..end {
                fault.items_retried.incr();
                out.push(guard.invoke_traced(i as u64, || f(i))?);
            }
            Ok(())
        };
        for (range, lane) in runs {
            recompute_up_to(&mut out, range.start)?;
            out.extend(values[lane].by_ref().take(range.len()));
        }
        recompute_up_to(&mut out, n)?;
        Ok(out)
    }

    /// [`ParallelFor::for_each`] under a failure policy. The fallback
    /// re-runs only indices whose invocation never *completed*; an
    /// invocation that panicked halfway leaves whatever side effects it
    /// already made and runs again, so `f` must be idempotent per index
    /// (true for the disjoint-slice writes the detector generates).
    pub fn for_each_checked<F>(&self, n: usize, f: F, opts: &RunOptions) -> Result<(), RuntimeError>
    where
        F: Fn(usize) + Sync,
    {
        // A map to `()`: vectors of unit values allocate nothing.
        self.map_checked(n, f, opts).map(drop)
    }

    /// Privatized reduction over `0..n`: each worker folds into a private
    /// accumulator seeded with `identity`; accumulators are combined with
    /// `combine`. Requires `combine` to be associative-commutative and
    /// `identity` neutral, which is what the detector's reduction
    /// recognition guarantees. Infallible like [`ParallelFor::map`].
    pub fn reduce<A, F, C>(&self, n: usize, identity: A, fold: F, combine: C) -> A
    where
        A: Send + Clone,
        F: Fn(A, usize) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        self.reduce_checked(n, identity, fold, combine, &RunOptions::default())
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`ParallelFor::reduce`] under a failure policy. A worker that
    /// fails mid-fold loses its private accumulator, so the fallback
    /// cannot merge surviving work and re-runs the whole reduction
    /// sequentially instead.
    pub fn reduce_checked<A, F, C>(
        &self,
        n: usize,
        identity: A,
        fold: F,
        combine: C,
        opts: &RunOptions,
    ) -> Result<A, RuntimeError>
    where
        A: Send + Clone,
        F: Fn(A, usize) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        let fault = FaultCounters::register(&self.telemetry);
        // Accumulators are seeded on the calling thread, so workers never
        // touch `identity` (which would require `A: Sync`). A panic in
        // `fold` leaves its worker's slot empty.
        let seed = || Some(identity.clone());
        let (partials, error) = self.drive(n, opts, &fault, seed, |acc: &mut Option<A>, i| {
            *acc = acc.take().map(|a| fold(a, i));
        });
        let Some(error) = error else {
            return Ok(partials.into_iter().filter_map(|(_, acc)| acc).fold(identity, combine));
        };
        fault.recover(error, opts)?;
        fault.items_retried.add(n as u64);
        let wt = self.tracer.worker(self.tracer.stage("parfor"), 0);
        let guard = Guard::new("parfor", None, &fault, &wt);
        let trace_start = wt.item_start(0);
        let mut acc = identity;
        for i in 0..n {
            acc = guard.invoke(i as u64, || fold(acc, i))?;
        }
        wt.item_end_n(0, n as u64, trace_start);
        Ok(acc)
    }

    /// The one engine under every entry point. It alone claims chunks,
    /// traces them (`ItemStart`/`ItemEnd` per claim, the idle tail per
    /// pooled worker), flushes the chunk meters, checks cancellation and
    /// the run deadline between indices (a sibling's failure between
    /// claims) and runs `body` under the
    /// [`Guard`] (one `catch_unwind` per chunk, the index in flight
    /// tracked), so a failure names the exact index. Every worker owns
    /// one state made by `seed` on the calling thread; `body` gets it
    /// with each index the worker claimed. Returns, per worker, the
    /// ascending index ranges whose invocations completed and the state,
    /// plus the run's first error.
    ///
    /// A pooled run starts with the calling thread as worker 0 and
    /// nothing spawned; the helpers are spawned only once worker 0 has
    /// run for a heartbeat (see [`Heartbeat`]). A run that ends
    /// first runs its helpers' claim loops inline afterwards: they find
    /// the space drained and report their idle tails, so the trace has
    /// one `WorkerIdle` per logical worker either way.
    fn drive<S, G>(
        &self,
        n: usize,
        opts: &RunOptions,
        fault: &FaultCounters,
        mut seed: impl FnMut() -> S,
        body: G,
    ) -> (Vec<Lane<S>>, Option<RuntimeError>)
    where
        S: Send,
        G: Fn(&mut S, usize) + Sync,
    {
        if n == 0 {
            return (Vec::new(), opts.cancel.is_cancelled().then_some(RuntimeError::Cancelled));
        }
        // SequentialExecution is the same loop run by a single worker on
        // the calling thread, whose one claim is the whole index space.
        let pooled = !(self.sequential || self.workers <= 1 || n <= 1);
        let workers = if pooled { self.workers.min(n) } else { 1 };
        let mut lanes: Vec<Option<Lane<S>>> =
            (0..workers).map(|_| Some((Vec::new(), seed()))).collect();
        let meters = self.meters();
        let stage_id = self.tracer.stage("parfor");
        let started = Instant::now();
        let errors = ErrorSlot::new();
        let next = AtomicUsize::new(0);
        let work = |worker: usize, lane: &mut Option<Lane<S>>, mut promote: Option<(Heartbeat, &mut dyn FnMut())>| {
            // The lane lives on the worker's own stack for the run and is
            // put back at the end, so neighbouring workers never write to
            // one cache line per index.
            let (mut done, mut state) = lane.take().expect("every lane is seeded");
            let wt = self.tracer.worker(stage_id, worker);
            let guard = Guard::new("parfor", opts.stage_deadline, fault, &wt);
            // The in-place worker has no idle tail to report, and reads
            // the clock exactly as often as the pinned sequential traces.
            let run_start = pooled.then(|| wt.tick());
            let mut busy_ns = 0u64;
            let mut local = LocalChunkMeters::default();
            // One guard per claimed chunk; `item` tracks the index in
            // flight so a failure still names it exactly.
            let item = Cell::new(0);
            while !errors.stopped(&opts.cancel) {
                let claimed = if pooled {
                    self.claim(&next, n)
                } else {
                    (next.swap(n, Ordering::Relaxed) < n).then_some(0..n)
                };
                let Some(range) = claimed else { break };
                local.record(range.len());
                let trace_start = wt.item_start(range.start as u64);
                let ran = guard.catch(&item, || {
                    for i in range.clone() {
                        item.set(i as u64);
                        // A sibling's failure is seen per claim, by the
                        // loop condition; the caller's limits per index.
                        opts.check(started)?;
                        if let Some((beat, spawn)) = promote.as_mut() {
                            if beat.due(started, i) {
                                spawn();
                                promote = None;
                            }
                        }
                        guard.timed(i as u64, || body(&mut state, i))?;
                    }
                    Ok(())
                });
                let end = if ran.is_ok() { range.end } else { item.get() as usize };
                match done.last_mut() {
                    Some(last) if last.end == range.start => last.end = end,
                    _ => done.push(range.start..end),
                }
                if let Err(error) = ran {
                    errors.fail(error, &opts.cancel);
                    break;
                }
                let ended = wt.item_end_n(range.start as u64, range.len() as u64, trace_start);
                busy_ns += ended.since(trace_start);
            }
            if let Some(run_start) = run_start {
                wt.worker_idle(run_start, busy_ns, local.chunks);
            }
            meters.flush(&local);
            *lane = Some((done, state));
        };
        if pooled {
            Executor::global().scope(SpawnMode::Pooled, |scope| {
                let work = &work;
                let (first, rest) = lanes.split_first_mut().expect("a pooled run has lanes");
                let mut helpers = Some(rest);
                let mut promote = || {
                    for (worker, lane) in helpers.take().into_iter().flatten().enumerate() {
                        scope.spawn(move || work(worker + 1, lane, None));
                    }
                };
                work(0, first, Some((Heartbeat::new(Duration::ZERO), &mut promote)));
                // Never promoted: the helpers find the space drained and
                // report their idle tails from here.
                for (worker, lane) in helpers.take().into_iter().flatten().enumerate() {
                    work(worker + 1, lane, None);
                }
            });
        } else {
            work(0, &mut lanes[0], None);
        }
        (lanes.into_iter().flatten().collect(), errors.finish(&opts.cancel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_returns_index_order() {
        let pf = ParallelFor::new(4).with_chunk(3);
        let out = pf.map(100, |i| i * i);
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_fallback_identical() {
        let par = ParallelFor::new(4);
        let seq = ParallelFor { sequential: true, ..ParallelFor::new(4) };
        assert_eq!(par.map(50, |i| i + 1), seq.map(50, |i| i + 1));
    }

    #[test]
    fn reduce_matches_sequential_sum() {
        let pf = ParallelFor::new(8).with_chunk(7);
        let sum = pf.reduce(1000, 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, (0..1000u64).sum::<u64>());
    }

    #[test]
    fn reduce_product() {
        let pf = ParallelFor::new(3).with_chunk(2);
        let prod = pf.reduce(10, 1u64, |a, i| a * (i as u64 + 1), |a, b| a * b);
        assert_eq!(prod, (1..=10u64).product::<u64>());
    }

    #[test]
    fn for_each_covers_every_index_exactly_once() {
        let counters: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let pf = ParallelFor::new(4).with_chunk(5);
        pf.for_each(200, |i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunk_larger_than_n_is_fine() {
        let pf = ParallelFor::new(4).with_chunk(1000);
        assert_eq!(pf.map(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tracer_counts_every_index_regardless_of_chunking() {
        let tracer = Tracer::enabled();
        let pf = ParallelFor::new(4).with_chunk(10).with_tracer(tracer.clone());
        let out = pf.map(100, |i| i * 2);
        assert_eq!(out.len(), 100);
        let report = tracer.report();
        let s = report.stage("parfor").expect("stage summarized");
        assert_eq!(s.items, 100, "ItemEnd counts sum to the iteration count");
        assert!(s.workers >= 1 && s.workers <= 4);
        // Checked path traces too.
        let tracer2 = Tracer::enabled();
        let pf2 = ParallelFor::new(2).with_chunk(25).with_tracer(tracer2.clone());
        pf2.for_each_checked(100, |_| {}, &RunOptions::default()).unwrap();
        assert_eq!(tracer2.report().stage("parfor").unwrap().items, 100);
    }

    #[test]
    fn guided_scheduling_claims_shrink_toward_min_chunk() {
        // With workers*K comfortably below n, early claims should hit the
        // configured max while the tail shrinks toward min_chunk.
        let telemetry = Telemetry::enabled();
        let pf = ParallelFor::new(2)
            .with_chunk(64)
            .with_min_chunk(4)
            .with_telemetry(telemetry.clone());
        // 1024 drains to exactly zero without a sub-min_chunk tail claim.
        let out = pf.map(1024, |i| i + 1);
        assert_eq!(out.len(), 1024);
        let report = telemetry.report();
        let hist = report
            .histograms
            .iter()
            .find(|h| h.name == "parfor.chunk_size")
            .expect("chunk histogram recorded");
        assert_eq!(hist.sum, 1024, "chunk sizes sum to n");
        assert!(hist.max <= 64, "claims never exceed the configured chunk");
        // min_chunk binds the steady state; only the final
        // `min_chunk × workers` drain window may decay below it.
        assert!(hist.min >= 1);
        assert!(
            hist.max > hist.min,
            "guided claims vary in size (max {} vs min {})",
            hist.max,
            hist.min
        );
    }

    /// The exact claim sequence is deterministic when drained from a
    /// single thread, so the tail-decay behavior can be pinned: before
    /// the fix, claims never fell below `min_chunk`, which parked the
    /// final `min_chunk`-sized runs — the most expensive indices of a
    /// cost-increasing loop — on one worker.
    #[test]
    fn guided_tail_decays_below_min_chunk_only_on_the_drain() {
        let pf = ParallelFor::new(4).with_chunk(64).with_min_chunk(16);
        let next = AtomicUsize::new(0);
        let n = 256;
        let mut claims = Vec::new();
        while let Some(r) = pf.claim(&next, n) {
            claims.push(r.len());
        }
        assert_eq!(claims.iter().sum::<usize>(), n);
        assert!(claims.iter().all(|&c| c <= 64));
        // Steady state respects min_chunk: every claim taken while at
        // least min_chunk × workers indices remained is >= min_chunk.
        let mut consumed = 0;
        for &c in &claims {
            if n - consumed >= 16 * 4 {
                assert!(c >= 16, "steady-state claim {c} fell below min_chunk");
            }
            consumed += c;
        }
        // The drain decays: the tail is split into strictly more claims
        // than the un-decayed schedule's single min_chunk grabs, ending
        // in single-index claims.
        assert_eq!(*claims.last().unwrap(), 1, "claims: {claims:?}");
        assert!(
            claims.iter().filter(|&&c| c < 16).count() >= 4,
            "tail did not split across workers: {claims:?}"
        );
    }

    /// Skewed-cost regression: per-index cost grows linearly, so the
    /// last indices dominate the loop. Simulate greedy assignment of
    /// the claim sequence to 4 worker clocks and compare makespan
    /// against the pre-fix schedule (min_chunk clamp never decaying).
    /// The decayed schedule must not be worse, and must beat the old
    /// one on the tail-dominated workload.
    #[test]
    fn guided_tail_decay_improves_skewed_makespan() {
        const WORKERS: usize = 4;
        const N: usize = 1024;
        let cost = |i: usize| (i + 1) as u64;

        // Claim sequence with the fix.
        let pf = ParallelFor::new(WORKERS).with_chunk(64).with_min_chunk(32);
        let next = AtomicUsize::new(0);
        let mut fixed_claims = Vec::new();
        while let Some(r) = pf.claim(&next, N) {
            fixed_claims.push(r);
        }

        // Claim sequence of the pre-fix schedule: same formula, the
        // min_chunk clamp held all the way to the end.
        let mut old_claims = Vec::new();
        let mut start = 0;
        while start < N {
            let remaining = N - start;
            let take = (remaining / (WORKERS * GUIDED_K)).clamp(32, 64).min(remaining);
            old_claims.push(start..start + take);
            start += take;
        }

        // Greedy simulation: each claim goes to the least-loaded
        // worker, the idealization of "next free worker claims next".
        let makespan = |claims: &[std::ops::Range<usize>]| -> u64 {
            let mut clocks = [0u64; WORKERS];
            for r in claims {
                let w = (0..WORKERS).min_by_key(|&w| clocks[w]).unwrap();
                clocks[w] += r.clone().map(cost).sum::<u64>();
            }
            clocks.into_iter().max().unwrap()
        };
        let new_span = makespan(&fixed_claims);
        let old_span = makespan(&old_claims);
        assert!(
            new_span < old_span,
            "decayed tail should beat the fixed min_chunk tail on skewed costs \
             (new {new_span} vs old {old_span})"
        );
        // And it lands within 2% of the perfect split.
        let ideal = (0..N).map(cost).sum::<u64>() / WORKERS as u64;
        assert!(
            new_span as f64 <= ideal as f64 * 1.02,
            "makespan {new_span} further than 2% above ideal {ideal}"
        );
    }

    #[test]
    fn min_chunk_equal_to_chunk_recovers_fixed_scheduling() {
        let telemetry = Telemetry::enabled();
        let pf = ParallelFor::new(4)
            .with_chunk(16)
            .with_min_chunk(16)
            .with_telemetry(telemetry.clone());
        let out = pf.map(160, |i| i * 3);
        assert_eq!(out, (0..160).map(|i| i * 3).collect::<Vec<_>>());
        let report = telemetry.report();
        let hist = report
            .histograms
            .iter()
            .find(|h| h.name == "parfor.chunk_size")
            .expect("chunk histogram recorded");
        assert_eq!(hist.sum, 160);
        assert_eq!(hist.max, 16, "every claim is exactly the fixed chunk");
        assert_eq!(hist.min, 16);
    }

    #[test]
    fn zero_and_one_sized_spaces() {
        let pf = ParallelFor::new(4);
        assert_eq!(pf.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pf.map(1, |i| i), vec![0]);
        assert_eq!(pf.reduce(0, 7i64, |a, _| a + 1, |a, b| a + b), 7);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{CancelToken, FailurePolicy};
    use patty_trace::EventKind;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Duration;

    fn fallback_opts() -> RunOptions {
        RunOptions::new().on_failure(FailurePolicy::FallbackSequential)
    }

    #[test]
    fn map_checked_without_faults_matches_map() {
        let pf = ParallelFor::new(4).with_chunk(3);
        let mut oracle = Vec::new();
        for i in 0..100 {
            oracle.push(i * 3);
        }
        assert_eq!(pf.map_checked(100, |i| i * 3, &RunOptions::default()).unwrap(), oracle);
        assert_eq!(pf.map(100, |i| i * 3), oracle);
    }

    /// One engine means one trace shape: a pooled checked run reports an
    /// idle tail per spawned worker, exactly like the infallible entry
    /// points (the checked driver used to emit none).
    #[test]
    fn pooled_checked_runs_emit_one_worker_idle_per_worker() {
        let idle_events = |tracer: &Tracer| {
            let trace = tracer.snapshot();
            let idle = |t: &patty_trace::ThreadTrace| {
                t.events.iter().filter(|e| e.kind == EventKind::WorkerIdle).count()
            };
            trace.threads.iter().map(idle).collect::<Vec<_>>()
        };
        let run_for_each = |pf: &ParallelFor| {
            pf.for_each_checked(64, |_| {}, &RunOptions::default()).unwrap();
        };
        let run_map = |pf: &ParallelFor| {
            assert_eq!(pf.map_checked(64, |i| i, &RunOptions::default()).unwrap().len(), 64);
        };
        let runs: [&dyn Fn(&ParallelFor); 2] = [&run_for_each, &run_map];
        for run in runs {
            let tracer = Tracer::enabled();
            run(&ParallelFor::new(3).with_chunk(4).with_tracer(tracer.clone()));
            assert_eq!(idle_events(&tracer), vec![1, 1, 1], "one WorkerIdle per spawned worker");
            let report = tracer.report();
            let stage = report.stage("parfor").expect("parfor stage summarized");
            assert_eq!((stage.items, stage.workers), (64, 3));
            let json = report.to_json();
            assert!(json.contains("\"idle_ns\"") && json.contains("\"busy_permille\""), "{json}");
        }
    }

    #[test]
    fn map_checked_panic_fails_fast_with_index() {
        let pf = ParallelFor::new(4).with_chunk(5);
        let err = pf
            .map_checked(
                64,
                |i| {
                    if i == 23 {
                        panic!("index blew up");
                    }
                    i
                },
                &RunOptions::default(),
            )
            .unwrap_err();
        match err {
            RuntimeError::StagePanicked { stage, item_seq, payload } => {
                assert_eq!(stage, "parfor");
                assert_eq!(item_seq, Some(23));
                assert_eq!(payload, "index blew up");
            }
            other => panic!("expected StagePanicked, got {other:?}"),
        }
    }

    #[test]
    fn map_checked_transient_panic_recovers_via_fallback() {
        let armed = AtomicBool::new(true);
        let pf = ParallelFor::new(4).with_chunk(4);
        let out = pf
            .map_checked(
                200,
                |i| {
                    if i == 77 && armed.swap(false, Ordering::SeqCst) {
                        panic!("transient");
                    }
                    i * i
                },
                &fallback_opts(),
            )
            .unwrap();
        let oracle: Vec<usize> = (0..200).map(|i| i * i).collect();
        assert_eq!(out, oracle);
    }

    #[test]
    fn map_checked_persistent_panic_fails_even_with_fallback() {
        let pf = ParallelFor::new(4);
        let err = pf
            .map_checked(
                32,
                |i| {
                    if i == 9 {
                        panic!("always");
                    }
                    i
                },
                &fallback_opts(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::StagePanicked { item_seq: Some(9), .. }));
    }

    #[test]
    fn for_each_checked_fallback_covers_every_index_once_or_more() {
        // The index where the fault fires is retried, so "exactly once"
        // holds for all indices except possibly in-flight ones at cancel
        // time; completion (>= 1) is the contract.
        let counters: Vec<AtomicU64> = (0..150).map(|_| AtomicU64::new(0)).collect();
        let armed = AtomicBool::new(true);
        let pf = ParallelFor::new(4).with_chunk(8);
        pf.for_each_checked(
            150,
            |i| {
                if i == 50 && armed.swap(false, Ordering::SeqCst) {
                    panic!("transient");
                }
                counters[i].fetch_add(1, Ordering::SeqCst);
            },
            &fallback_opts(),
        )
        .unwrap();
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) >= 1));
    }

    #[test]
    fn reduce_checked_without_faults_matches_reduce() {
        let pf = ParallelFor::new(8).with_chunk(7);
        let mut oracle = 0u64;
        for i in 0..1000u64 {
            oracle += i;
        }
        let sum = pf
            .reduce_checked(1000, 0u64, |a, i| a + i as u64, |a, b| a + b, &RunOptions::default())
            .unwrap();
        assert_eq!(sum, oracle);
        assert_eq!(pf.reduce(1000, 0u64, |a, i| a + i as u64, |a, b| a + b), oracle);
    }

    #[test]
    fn reduce_checked_transient_panic_falls_back_to_sequential() {
        let armed = AtomicBool::new(true);
        let pf = ParallelFor::new(4).with_chunk(16);
        let sum = pf
            .reduce_checked(
                500,
                0u64,
                |a, i| {
                    if i == 250 && armed.swap(false, Ordering::SeqCst) {
                        panic!("transient");
                    }
                    a + i as u64
                },
                |a, b| a + b,
                &fallback_opts(),
            )
            .unwrap();
        assert_eq!(sum, (0..500u64).sum::<u64>());
    }

    #[test]
    fn deadline_aborts_a_slow_loop() {
        let pf = ParallelFor::new(2).with_chunk(1);
        let opts = RunOptions::new().with_deadline(Duration::from_millis(5));
        let err = pf
            .map_checked(
                10_000,
                |i| {
                    std::thread::sleep(Duration::from_millis(1));
                    i
                },
                &opts,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded { .. }));
    }

    #[test]
    fn external_cancellation_stops_the_loop() {
        let token = CancelToken::new();
        token.cancel();
        let pf = ParallelFor::new(4);
        let opts = RunOptions::new().with_cancel(token);
        let err = pf.map_checked(100, |i| i, &opts).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled);
    }

    #[test]
    fn sequential_mode_is_checked_too() {
        let pf = ParallelFor::new(4).sequential(true);
        let err = pf
            .map_checked(
                16,
                |i| {
                    if i == 3 {
                        panic!("seq boom");
                    }
                    i
                },
                &RunOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::StagePanicked { item_seq: Some(3), .. }));
    }
}

/// Pooled runs whose promotion a scripted heartbeat clock forces never,
/// before the first index, mid-run or before the last index. Each must
/// be indistinguishable from the unpromoted run in everything but the
/// threads its indices ran on.
#[cfg(test)]
mod promotion_tests {
    use super::*;
    use crate::fault::{CancelToken, FailurePolicy};
    use crate::heartbeat::script::{scripted_run, Script};
    use patty_trace::EventKind;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    const N: usize = 64;

    /// Never, before index 0, mid-run and before the last index.
    const SCRIPTS: [Script; 4] = [Script::Never, Script::At(0), Script::At(N / 2), Script::At(N - 1)];

    /// `(workers, chunk, min_chunk)`: guided, fine guided, fixed, and
    /// guided with a drain-decayed `min_chunk`.
    const CONFIGS: [(usize, usize, usize); 4] = [(2, 16, 1), (3, 4, 1), (4, 8, 8), (4, 64, 4)];

    /// The claim sequence of `pf` over `n` indices drained by one
    /// thread: the ranges every run must claim, however many threads
    /// take part.
    fn claim_sequence(pf: &ParallelFor, n: usize) -> Vec<(u64, u64)> {
        let next = AtomicUsize::new(0);
        std::iter::from_fn(|| pf.claim(&next, n))
            .map(|range| (range.start as u64, range.len() as u64))
            .collect()
    }

    /// The claims a traced run made, as `(first index, length)` in index
    /// order, and its `WorkerIdle` count per logical worker.
    fn traced_claims(tracer: &Tracer) -> (Vec<(u64, u64)>, Vec<usize>) {
        let trace = tracer.snapshot();
        let mut claims: Vec<(u64, u64)> = trace
            .threads
            .iter()
            .flat_map(|t| t.events.iter().filter(|e| e.kind == EventKind::ItemEnd))
            .map(|e| (e.item, e.count))
            .collect();
        claims.sort_unstable();
        let mut idle: Vec<(u16, usize)> = trace
            .threads
            .iter()
            .map(|t| (t.worker, t.events.iter().filter(|e| e.kind == EventKind::WorkerIdle).count()))
            .collect();
        idle.sort_unstable();
        (claims, idle.into_iter().map(|(_, count)| count).collect())
    }

    #[test]
    fn every_promotion_point_keeps_results_claims_and_trace_shape() {
        let caller = thread::current().id();
        let f = |i: usize| i * i + 1;
        let oracle: Vec<usize> = (0..N).map(f).collect();
        for (workers, chunk, min_chunk) in CONFIGS {
            for script in SCRIPTS {
                let tracer = Tracer::enabled();
                let pf = ParallelFor::new(workers)
                    .with_chunk(chunk)
                    .with_min_chunk(min_chunk)
                    .with_tracer(tracer.clone());
                let runs: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
                let ran_on: Vec<Mutex<Option<ThreadId>>> = (0..N).map(|_| Mutex::new(None)).collect();
                let body = |i: usize| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    *ran_on[i].lock().unwrap() = Some(thread::current().id());
                    f(i)
                };
                let submitted = Executor::global().stats().short_submitted;
                let (out, reads) = scripted_run(script, || pf.map_checked(N, body, &RunOptions::default()));
                let submitted = Executor::global().stats().short_submitted - submitted;
                let case = format!("{workers} workers, chunk {chunk}..{min_chunk}, {script:?}");
                assert_eq!(out.unwrap(), oracle, "{case}");
                assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "{case}: an index ran twice or never");
                let (claims, idle) = traced_claims(&tracer);
                assert_eq!(claims, claim_sequence(&pf, N), "{case}");
                assert_eq!(idle, vec![1; workers], "{case}: one WorkerIdle per logical worker");
                match script {
                    Script::Never => {
                        assert_eq!(reads, vec![0, 1], "{case}");
                        let threads = ran_on.iter().map(|t| t.lock().unwrap().expect("index ran"));
                        assert!(threads.into_iter().all(|t| t == caller), "{case}: an unpromoted run left the caller");
                    }
                    Script::At(k) => {
                        assert_eq!(reads.last(), Some(&k), "{case}: promoted at the scripted index");
                        // Other tests share the pool, so only a lower bound holds.
                        assert!(submitted >= workers as u64 - 1, "{case}: {submitted} helpers spawned");
                    }
                    Script::Steady(_) => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn a_steady_rate_reads_the_clock_rarely_and_promotes_at_most_one_index_late() {
        let pf = ParallelFor::new(2);
        // 50 ns an index: a 64-index loop is 3.2 µs of work, over before
        // a heartbeat, and reads the clock twice.
        let (_, reads) = scripted_run(Script::Steady(50), || pf.map(N, |i| i));
        assert_eq!(reads, vec![0, 1]);
        // 1 µs an index: reads half a heartbeat apart, and the heartbeat
        // (index 40) is seen before index 41.
        let (_, reads) = scripted_run(Script::Steady(1_000), || pf.map(1_000, |i| i));
        assert_eq!(reads, vec![0, 1, 21, 41]);
    }

    /// Every outcome of `fault_tests` again, under each script; the
    /// unpromoted run is the reference the others must equal.
    #[test]
    fn fault_outcomes_do_not_depend_on_promotion() {
        let fallback = || RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let outcomes = |script: Script| {
            let (panicked, _) = scripted_run(script, || {
                ParallelFor::new(4).with_chunk(5).map_checked(
                    N,
                    |i| if i == 23 { panic!("index blew up") } else { i },
                    &RunOptions::default(),
                )
            });
            let armed = AtomicBool::new(true);
            let (recovered, _) = scripted_run(script, || {
                ParallelFor::new(4).with_chunk(4).map_checked(
                    N,
                    |i| {
                        if i == 37 && armed.swap(false, Ordering::SeqCst) {
                            panic!("transient");
                        }
                        i * i
                    },
                    &fallback(),
                )
            });
            let armed = AtomicBool::new(true);
            let (reduced, _) = scripted_run(script, || {
                ParallelFor::new(4).with_chunk(16).reduce_checked(
                    N,
                    0u64,
                    |a, i| {
                        if i == 50 && armed.swap(false, Ordering::SeqCst) {
                            panic!("transient");
                        }
                        a + i as u64
                    },
                    |a, b| a + b,
                    &fallback(),
                )
            });
            let token = CancelToken::new();
            token.cancel();
            let (cancelled, _) = scripted_run(script, || {
                ParallelFor::new(4).map_checked(N, |i| i, &RunOptions::new().with_cancel(token))
            });
            let (late, _) = scripted_run(script, || {
                ParallelFor::new(2).with_chunk(1).map_checked(
                    10_000,
                    |i| {
                        std::thread::sleep(Duration::from_millis(1));
                        i
                    },
                    &RunOptions::new().with_deadline(Duration::from_millis(5)),
                )
            });
            let late = late.map_err(|e| matches!(e, RuntimeError::DeadlineExceeded { .. }));
            (panicked, recovered, reduced, cancelled, late.map(|v| v.len()))
        };
        let reference = outcomes(Script::Never);
        let (panicked, recovered, reduced, cancelled, late) = &reference;
        assert_eq!(
            panicked.as_ref().unwrap_err(),
            &RuntimeError::StagePanicked {
                stage: "parfor".into(),
                item_seq: Some(23),
                payload: "index blew up".into(),
            }
        );
        assert_eq!(recovered.as_ref().unwrap(), &(0..N).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(reduced.as_ref().unwrap(), &(0..N as u64).sum::<u64>());
        assert_eq!(cancelled, &Err(RuntimeError::Cancelled));
        assert_eq!(late, &Err(true), "the deadline aborts the slow loop");
        for script in &SCRIPTS[1..] {
            assert_eq!(outcomes(*script), reference, "{script:?}");
        }
    }
}
